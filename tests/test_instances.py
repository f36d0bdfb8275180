"""Contest instances derived from scenarios, candidate fields and one-entry variants.

``ContestInstance.from_scenario``, the entry stage's field slices and
``with_psi``/``with_delta``/``with_cost`` reuse columns that were checked
once.  Each derived instance must be the instance the public constructor
builds from the same columns, down to the bits of its effective columns,
and must refuse what the public constructor refuses, with the same error.
A field slice must also be the instance ``helpers.reference_instance``
builds from the scenario's records for its members.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import pytest

import tricontest.entry as entry
from tricontest import (
    AthleteRecord,
    ContestEquilibrium,
    ContestInstance,
    DomainError,
    GlobalParams,
    Scenario,
    SolverSettings,
    WelfareReport,
    cutoff_psi,
    solve_contest,
    subset_equilibrium,
    welfare_report,
)

from helpers import random_scenario, reference_instance

COLUMNS = ("ids", "delta", "cost", "psi", "weight")


def public(instance: ContestInstance) -> ContestInstance:
    """The instance the public constructor builds from ``instance``'s columns."""
    return ContestInstance(**{name: getattr(instance, name) for name in COLUMNS})


def bits(values) -> list[str]:
    return [float.hex(v) for v in values]


def assert_matches_public(derived: ContestInstance) -> None:
    built = public(derived)
    assert derived == built
    assert all(type(v) is float for name in COLUMNS[1:] for v in getattr(derived, name))
    assert bits(derived._k) == bits(built._k)
    assert bits(derived._delta_eff) == bits(built._delta_eff)


def odd_scenario(rng: np.random.Generator) -> Scenario:
    """A random scenario whose records also hold ints and numpy floats."""
    base = random_scenario(rng, n=int(rng.integers(2, 9)))
    cast = (int, np.float64, float)
    athletes = []
    for rec in base.athletes:
        weight = float(rng.uniform(0.25, 4.0))
        athletes.append(AthleteRecord(
            id=rec.id, t_swim=rec.t_swim, r_swim=rec.r_swim,
            draft_share=cast[int(rng.integers(1, 3))](rec.draft_share),
            base_cost=cast[int(rng.integers(0, 3))](rec.base_cost * 10.0),
            prize_diff=cast[int(rng.integers(0, 3))](rec.prize_diff * 10.0),
            weight=cast[int(rng.integers(0, 3))](weight * 4.0),
            theta=rec.theta))
    return Scenario(athletes=tuple(athletes), globals=base.globals)


def test_derived_instances_match_the_public_constructor():
    """Scenarios, member subsets in any order, bitmask fields and one-entry variants."""
    rng = np.random.default_rng(1010)
    for _ in range(150):
        scenario = odd_scenario(rng)
        full = ContestInstance.from_scenario(scenario)
        assert_matches_public(full)
        assert full == reference_instance(scenario, scenario.ids)
        ids = scenario.ids
        members = [aid for aid in ids if rng.uniform() < 0.6] or [ids[-1]]
        shuffled = [members[i] for i in rng.permutation(len(members))]
        fields = entry._Fields(scenario._columns, scenario.settings)
        field = fields.instance(fields.mask(shuffled))
        assert field.ids == tuple(members)
        assert field == reference_instance(scenario, shuffled)
        assert_matches_public(field)
        for instance in (full, field):
            aid = instance.ids[int(rng.integers(0, instance.m))]
            for kind in ("psi", "delta", "cost"):
                value = float(10.0 ** rng.uniform(-3.0, 3.0))
                variant = getattr(instance, f"with_{kind}")(aid, value)
                assert getattr(variant, kind)[instance.index(aid)] == value
                assert_matches_public(variant)
                assert_matches_public(variant.with_psi(instance.ids[0], 1.5))


def test_derived_instances_solve_like_public_ones():
    rng = np.random.default_rng(1011)
    for _ in range(40):
        scenario = odd_scenario(rng)
        fields = entry._Fields(scenario._columns, scenario.settings)
        for mask in range(1, min(fields.everyone, 40) + 1):
            field = fields.instance(mask)
            assert solve_contest(field) == solve_contest(public(field))
            variant = field.with_cost(field.ids[-1], 0.75)
            assert solve_contest(variant) == solve_contest(public(variant))


def test_every_construction_path_carries_the_settings():
    """``None`` reads as the defaults; a scenario's full field, its candidate fields and the
    ``with_*`` variants carry the scenario's settings, and ``replace`` sets new ones."""
    base = ContestInstance(ids=("ada", "bea"), delta=(1.0, 1.0), cost=(1.0, 1.0),
                           psi=(1.0, 1.0), weight=(1.0, 1.0))
    assert base.settings == SolverSettings()
    chosen = SolverSettings(abs_tol=1e-11, max_iter=77)
    assert dataclasses.replace(base, settings=chosen).settings is chosen
    scenario = dataclasses.replace(random_scenario(np.random.default_rng(1014), n=4),
                                   settings=chosen)
    full = ContestInstance.from_scenario(scenario)
    fields = entry._Fields(scenario._columns, scenario.settings)
    aid = full.ids[1]
    for instance in (full, fields.full, fields.instance(0b0101), full.with_psi(aid, 1.5),
                     full.with_delta(aid, 2.0), fields.instance(0b0011).with_cost(aid, 0.5)):
        assert instance.settings is chosen
    assert ContestInstance.from_scenario(dataclasses.replace(scenario, settings=None)) == \
        dataclasses.replace(full, settings=SolverSettings())


@pytest.mark.parametrize("value", ["x", {"max_iter": 2}, 0])
def test_settings_must_be_solver_settings(value):
    with pytest.raises(DomainError) as err:
        ContestInstance(ids=("ada",), delta=(1.0,), cost=(1.0,), psi=(1.0,), weight=(1.0,),
                        settings=value)
    assert err.value.field == "settings"
    assert str(err.value) == f"settings must be SolverSettings, got {value!r}"


@pytest.mark.parametrize("value", ["x", {"max_iter": 2}, 0])
@pytest.mark.parametrize("use", [lambda scenario: scenario,
                                 lambda scenario: subset_equilibrium(scenario, scenario.ids),
                                 ContestInstance.from_scenario],
                         ids=["replace", "subset_equilibrium", "from_scenario"])
def test_a_scenario_refuses_settings_that_are_not_solver_settings(value, use):
    """No scenario carries such settings, so none reaches a solve or an instance with them."""
    scenario = random_scenario(np.random.default_rng(5), n=3)
    with pytest.raises(DomainError) as err:
        use(dataclasses.replace(scenario, settings=value))
    assert err.value.field == "settings"
    assert str(err.value) == f"settings must be SolverSettings, got {value!r}"


BAD_VALUES = [(0, "0.0"), (-1, "-1.0"), (math.nan, "nan"), (math.inf, "inf"),
              (-0.0, "-0.0"), ("nan", "nan"), ("1e400", "inf")]


@pytest.mark.parametrize("kind", ["psi", "delta", "cost"])
@pytest.mark.parametrize("value, shown", BAD_VALUES)
def test_variants_refuse_what_the_constructor_refuses(kind, value, shown):
    base = ContestInstance(ids=("ada", "bea", "cal"), delta=(1.0, 2.0, 1.0),
                           cost=(1.0, 1.0, 2.0), psi=(1.0, 1.25, 1.5), weight=(1.0, 0.5, 2.0))
    with pytest.raises(DomainError) as variant:
        getattr(base, f"with_{kind}")("bea", value)
    column = list(getattr(base, kind))
    column[1] = value
    with pytest.raises(DomainError) as built:
        ContestInstance(**{**{name: getattr(base, name) for name in COLUMNS}, kind: column})
    assert variant.value.field == built.value.field == kind
    assert str(variant.value) == str(built.value) == \
        f"{kind} must be positive and finite, got {shown} (athlete 'bea')"


def test_variants_of_unknown_athletes_and_non_numbers():
    base = ContestInstance(ids=("ada", "bea"), delta=(1.0, 1.0), cost=(1.0, 1.0),
                           psi=(1.0, 1.0), weight=(1.0, 1.0))
    with pytest.raises(ValueError, match="athlete 'cal' is not a contest member"):
        base.with_psi("cal", 1.5)
    with pytest.raises(ValueError, match="could not convert string to float: 'x'"):
        base.with_delta("bea", "x")
    assert base.with_cost("bea", "2.5").cost == (1.0, 2.5)


def subnormal_scenario() -> Scenario:
    """``cal``'s effective prize ``1e-300 * (1e-10)^2`` is the subnormal 1e-320."""
    athletes = tuple(AthleteRecord(id=aid, t_swim=1800.0, r_swim=i + 1, draft_share=0.25 * i,
                                   base_cost=1.0, prize_diff=prize, weight=weight)
                     for i, (aid, prize, weight) in enumerate(
                         (("ada", 1.0, 1.0), ("bea", 2.0, 1.0), ("cal", 1e-300, 1e-10))))
    return Scenario(athletes=athletes, globals=GlobalParams(alpha=0.001, beta=0.01, eta=0.5))


def test_fields_without_a_subnormal_athlete_solve():
    scenario = subnormal_scenario()
    solved = subset_equilibrium(scenario, ["bea", "ada"])
    assert solved == solve_contest(reference_instance(scenario, ["ada", "bea"]))
    fields = entry._Fields(scenario._columns, scenario.settings)
    assert fields.instance(0b011) == reference_instance(scenario, ["ada", "bea"])


@pytest.mark.parametrize("members", [["ada", "cal"], ["cal", "bea"], ["ada", "bea", "cal"]])
def test_fields_with_a_subnormal_athlete_refuse_at_solve_time(members):
    scenario = subnormal_scenario()
    fields = entry._Fields(scenario._columns, scenario.settings)
    instance = fields.instance(fields.mask(members))  # builds without complaint
    for call in (lambda: subset_equilibrium(scenario, members),
                 lambda: solve_contest(instance),
                 lambda: solve_contest(public(instance))):
        with pytest.raises(DomainError) as err:
            call()
        assert err.value.field == "effective_prize"
        assert str(err.value) == ("effective prize delta*weight^2 must be a normal finite "
                                  "float, got 1e-320 (athlete 'cal')")
    # Mending the one entry clears the refusal.
    mended = instance.with_delta("cal", 1e10)
    assert solve_contest(mended) == solve_contest(public(mended))


def test_a_lone_subnormal_athlete_is_not_refused():
    """A lone member wins at zero effort, so its effective columns are never read."""
    scenario = subnormal_scenario()
    assert subset_equilibrium(scenario, ["cal"]) == ContestEquilibrium(
        total_effort=0.0, efforts={"cal": 0.0}, probs={"cal": 1.0},
        continuation_values={"cal": 1e-300}, residual=0.0)
    assert welfare_report(scenario, ["cal"]) == WelfareReport(
        members=("cal",), total_welfare=1e-300, aggregate_cost=0.0,
        aggregate_prize_intake=1e-300, rent_ratio=0.0)


def test_cutoffs_in_fields_without_a_subnormal_athlete():
    """A cutoff checks its own field only; ``theta`` puts ``ada``'s in the closed-form branch."""
    scenario = subnormal_scenario()
    scenario = dataclasses.replace(scenario, athletes=tuple(
        dataclasses.replace(rec, theta=1.9) for rec in scenario.athletes))
    without = dataclasses.replace(scenario, athletes=scenario.athletes[:2])
    for aid in ("ada", "bea"):
        assert cutoff_psi(scenario, ["ada", "bea"], aid) == cutoff_psi(without, ["ada", "bea"], aid)
    with pytest.raises(DomainError, match="got 1e-320 \\(athlete 'cal'\\)$"):
        cutoff_psi(scenario, ["ada", "cal"], "ada")


def test_every_member_subset_of_a_field_is_its_slice():
    scenario = random_scenario(np.random.default_rng(1012), n=5)
    fields = entry._Fields(scenario._columns, scenario.settings)
    for size in range(1, 6):
        for members in itertools.combinations(scenario.ids, size):
            sliced = fields.instance(fields.mask(members))
            built = reference_instance(scenario, members)
            assert sliced == built
            assert bits(sliced._k) == bits(built._k)
            assert bits(sliced._delta_eff) == bits(built._delta_eff)
    wide = random_scenario(np.random.default_rng(1014), n=200)
    fields = entry._Fields(wide._columns, wide.settings)
    for at in ((199,), (0, 199), (3, 77, 198, 199)):  # bit 199 set: the table's last athlete
        members = [wide.ids[i] for i in at]
        sliced, built = fields.instance(fields.mask(members)), reference_instance(wide, members)
        assert sliced == built
        assert bits(sliced._k) == bits(built._k)
        assert bits(sliced._delta_eff) == bits(built._delta_eff)


def test_the_normal_check_runs_only_where_it_refuses(monkeypatch):
    """Normal effective columns are stored as checked: solving them never calls ``_normal``."""
    calls = []
    real = ContestInstance._normal

    def counting(self, *args):
        calls.append(self.ids)
        return real(self, *args)

    monkeypatch.setattr(ContestInstance, "_normal", counting)
    rng = np.random.default_rng(1013)
    for _ in range(30):
        scenario = odd_scenario(rng)
        full = ContestInstance.from_scenario(scenario)
        fields = entry._Fields(scenario._columns, scenario.settings)
        field = fields.instance(int(rng.integers(1, fields.everyone + 1)))
        aid = full.ids[-1]
        for instance in (public(full), full, fields.instance(fields.mask([aid])),
                         field, full.with_psi(aid, 1.5), full.with_delta(aid, 2.0),
                         field.with_cost(field.ids[0], 0.5)):
            solve_contest(instance)
    assert calls == []
    with pytest.raises(DomainError):
        solve_contest(ContestInstance.from_scenario(subnormal_scenario()))
    assert calls == [("ada", "bea", "cal")]
