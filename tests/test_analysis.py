"""Comparative statics, welfare accounting, sweeps, and prediction reports."""

from __future__ import annotations

import dataclasses
import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import tricontest.analysis as analysis
import tricontest.contest as contest
import tricontest.entry as entry
from tricontest import (
    ContestInstance,
    ConvergenceError,
    DomainError,
    PredictionReport,
    PredictionSection,
    SolverSettings,
    assemble_spe,
    cutoff_psi,
    drafting_multiplier,
    enumerate_equilibrium_sets,
    is_equilibrium_set,
    iterate_continuation_operator,
    load_scenario,
    net_benefit,
    net_benefit_curve,
    outside_option,
    prediction_report,
    sensitivity_report,
    solve_contest,
    solve_total_effort,
    subset_equilibrium,
    sweep,
    symmetric_equilibrium,
    total_effort_derivative,
    welfare_report,
)

from helpers import (pair_scenario, random_instance, random_scenario, reference_share_response,
                     selective_scenario)

ROOT = Path(__file__).resolve().parent.parent

ALPHA, BETA, T_SWIM = 0.001, 0.01, 1800.0


def theta_for(outside: float, rank: int) -> float:
    return outside + ALPHA * T_SWIM + BETA * rank


def unit_pair() -> ContestInstance:
    return ContestInstance(ids=("ada", "bea"), delta=(1.0, 1.0),
                           cost=(1.0, 1.0), psi=(1.0, 1.0), weight=(1.0, 1.0))


# ---------------------------------------------------------------------------
# Implicit derivatives
# ---------------------------------------------------------------------------


def test_derivative_values_at_the_unit_pair():
    pair = unit_pair()
    assert total_effort_derivative(pair, ("psi", "ada")) == \
        pytest.approx(0.25, abs=1e-12)
    assert total_effort_derivative(pair, ("cost", "ada")) == \
        pytest.approx(-0.25, abs=1e-12)
    assert total_effort_derivative(pair, ("delta", "ada")) == \
        pytest.approx(0.25, abs=1e-12)


def test_derivative_signs_on_random_instances():
    """More drafting or prize raises total effort; higher cost lowers it."""
    rng = np.random.default_rng(211)
    for _ in range(50):
        instance = random_instance(rng, weighted=True)
        aid = instance.ids[int(rng.integers(instance.m))]
        assert total_effort_derivative(instance, ("psi", aid)) > 0.0
        assert total_effort_derivative(instance, ("delta", aid)) > 0.0
        assert total_effort_derivative(instance, ("cost", aid)) < 0.0


def test_derivative_rejects_uncontested_fields():
    lone = ContestInstance(ids=("a",), delta=(1.0,), cost=(1.0,),
                           psi=(1.0,), weight=(1.0,))
    with pytest.raises(ValueError):
        total_effort_derivative(lone, ("psi", "a"))


def test_derivative_rejects_unknown_parameter():
    with pytest.raises(ValueError):
        total_effort_derivative(unit_pair(), ("weight", "ada"))
    with pytest.raises(ValueError):
        total_effort_derivative(unit_pair(), ("psi", "zed"))


# ---------------------------------------------------------------------------
# Sensitivity reports
# ---------------------------------------------------------------------------


def test_sensitivity_total_wrt_psi():
    report = sensitivity_report(unit_pair(), ("total", None), ("psi", "ada"))
    assert report.analytic == pytest.approx(0.25, abs=1e-12)
    assert report.finite_diff == pytest.approx(0.25, abs=1e-5)
    assert report.rel_err <= 1e-4
    assert report.passed


def test_sensitivity_own_prob_wrt_prize_is_positive():
    report = sensitivity_report(unit_pair(), ("prob", "ada"), ("delta", "ada"))
    assert report.analytic > 0.0
    assert report.passed


def test_sensitivity_rival_prob_wrt_psi_is_nonpositive():
    report = sensitivity_report(unit_pair(), ("prob", "bea"), ("psi", "ada"))
    assert report.analytic <= 0.0
    assert report.analytic == pytest.approx(-0.125, abs=1e-12)
    assert report.passed


def test_every_report_on_the_shipped_symmetric_pair_passes():
    """At ``p = 1/2`` a rival's effort does not move with a multiplier (Dixit's law): a zero
    derivative, which the response scale lets its report pass."""
    pair = load_scenario(ROOT / "scenarios" / "symmetric_pair.json")
    instance = ContestInstance.from_scenario(pair)
    targets = [("total", None)] + list(itertools.product(("prob", "effort"), instance.ids))
    for target in targets:
        for param in itertools.product(analysis.PARAM_KINDS, instance.ids):
            assert sensitivity_report(instance, target, param).passed, (target, param)
    assert sensitivity_report(instance, ("effort", "bea"), ("psi", "ada")).analytic == 0.0


def test_sensitivity_agrees_with_central_differences():
    rng = np.random.default_rng(223)
    for _ in range(40):
        instance = random_instance(rng)
        aid = instance.ids[int(rng.integers(instance.m))]
        kind = ("psi", "delta", "cost")[int(rng.integers(3))]
        target = (("total", None), ("prob", aid), ("effort", aid))[
            int(rng.integers(3))]
        report = sensitivity_report(instance, target, (kind, aid))
        assert report.rel_err <= 1e-4, report


def test_warm_started_differences_match_cold_re_solves():
    """The finite difference moves only within the re-solves' stop rule.

    The reference re-solves each perturbed field cold, from zero, at the parameter
    ``theta`` times ``1 +- step``.  Both stop at a residual of 1e-14, which leaves each
    re-solved value within about 1e-14 of itself relative, so the quotient by
    ``2 step theta`` may move by ``1e-14 |f| / (step theta)``.  Fields are n = 8 what-if
    fields and weighted fields of 2 to 8 athletes.
    """
    tight = SolverSettings(abs_tol=1e-14)
    step = 1e-5
    rng = np.random.default_rng(2024)
    for trial in range(24):
        if trial % 2:
            instance = random_instance(rng, weighted=True)
        else:
            instance = ContestInstance.from_scenario(random_scenario(rng, n=8))
        aid = instance.ids[0]
        for target in (("total", None), ("prob", aid), ("effort", aid)):
            for kind in ("psi", "delta", "cost"):
                report = sensitivity_report(instance, target, (kind, aid))
                base = getattr(instance, kind)[0]
                values = []
                for value in (base * (1.0 + step), base * (1.0 - step)):
                    solved = solve_contest(dataclasses.replace(
                        getattr(instance, f"with_{kind}")(aid, value), settings=tight))
                    values.append(solved.total_effort if target[1] is None else
                                  getattr(solved, target[0] + "s")[aid])
                cold = (values[0] - values[1]) / (2.0 * step * base)
                bound = 1e-14 * max(map(abs, values)) / (step * base)
                assert abs(report.finite_diff - cold) <= bound, (trial, target, kind)


def test_rival_odds_never_rise_with_a_rivals_multiplier():
    rng = np.random.default_rng(227)
    for _ in range(25):
        instance = random_instance(rng)
        aid = instance.ids[0]
        for other in instance.ids[1:]:
            report = sensitivity_report(instance, ("prob", other), ("psi", aid))
            assert report.analytic <= 1e-15


def test_sensitivity_input_validation():
    pair = unit_pair()
    with pytest.raises(ValueError):
        sensitivity_report(pair, ("odds", None), ("psi", "ada"))
    # The stencil scales the parameter by 1 +- 1e-5, so even a multiplier of 1e-5 stays positive.
    assert sensitivity_report(pair.with_psi("ada", 1e-5), ("total", None), ("psi", "ada")).passed
    lone = ContestInstance(ids=("a",), delta=(1.0,), cost=(1.0,),
                           psi=(1.0,), weight=(1.0,))
    with pytest.raises(ValueError):
        sensitivity_report(lone, ("total", None), ("psi", "a"))


def statics_fields(seed: int, count: int = 210):
    """Fields of 2 to 8 athletes, in turn unweighted, weighted, and weighted with one
    favourite whose prize is raised 20 to 200 fold."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        instance = random_instance(rng, weighted=trial % 3 > 0)
        if trial % 3 == 2:
            j = int(rng.integers(instance.m))
            instance = instance.with_delta(instance.ids[j],
                                           instance.delta[j] * float(rng.uniform(20.0, 200.0)))
        yield instance


def test_every_derivative_is_within_4_eps_of_the_implicit_derivative():
    """Every (target, parameter) pair's ``analytic`` and every ``total_effort_derivative``
    agree with the implicit derivative of the raw-column aggregate equation, in 50-digit
    mpmath, in units of the response scale ``|d log t / d theta|`` (times ``x`` for the total,
    ``x / w_j`` for efforts), and each report's ``rel_err`` is its disagreement over that
    scale to 1%.

    At the tightened root the package reads, whose share mass is within ``_FD_ABS_TOL`` of
    one, they agree to 4 eps: rounding alone.  At the exact root of mass 1 they agree to
    ``4 eps + 2 _FD_ABS_TOL / V``, ``V = sum p (1 - p)``: a residual ``r`` in the share mass
    moves ``log t`` by ``r / V``, and no derivative moves by more than twice its scale per
    unit of ``log t``.  The worst seen is 100 eps of scale, at most 0.69 ``r / V``.  The
    central difference is within 1e-8 of its scale of the exact derivative: solver noise
    ``_FD_ABS_TOL / _FD_STEP`` plus truncation ``O(_FD_STEP^2)``; the worst seen is 6.9e-9.
    """
    eps = sys.float_info.epsilon
    checked = 0
    for instance in statics_fields(2026):
        x, tight = analysis._solves(instance)[None]
        mass, at_root = reference_share_response(instance, x)
        assert abs(mass - 1) <= max(analysis._FD_ABS_TOL, instance.m * eps)
        _, exact = reference_share_response(instance)
        spread = sum(p * (1 - p) for p in solve_contest(tight).probs.values())
        bound = 4 * eps + 2 * analysis._FD_ABS_TOL / spread
        for param, row in at_root.items():
            for target, (value, scale) in row.items():
                report = sensitivity_report(instance, target, param)
                assert abs(report.analytic - value) <= 4 * eps * scale, (target, param)
                value, scale = exact[param][target]
                assert abs(report.analytic - value) <= bound * scale, (target, param)
                assert abs(report.finite_diff - value) <= 1e-8 * scale, (target, param)
                assert report.rel_err == pytest.approx(
                    abs(report.analytic - report.finite_diff) / scale, rel=0.01), (target, param)
                checked += 1
            derivative = total_effort_derivative(instance, param)
            value, scale = row["total", None]
            assert abs(derivative - value) <= 4 * eps * scale
            value, scale = exact[param]["total", None]
            assert abs(derivative - value) <= bound * scale
    assert checked >= 30_000


def test_derivatives_stay_finite_at_large_prize_scales():
    """At prizes near 1e200 the products ``de k t`` overflow; the shares do not.  The step
    scales with the prize, so its central difference moves and every check passes."""
    instance = ContestInstance(ids=("a", "b", "c"), delta=(1e200, 2e200, 3e199),
                               cost=(1.0, 2.0, 0.5), psi=(1.0, 1.5, 1.2), weight=(1.0, 1.0, 1.0))
    for target in (("total", None), ("prob", "b"), ("effort", "b")):
        for kind in analysis.PARAM_KINDS:
            report = sensitivity_report(instance, target, (kind, "a"))
            assert math.isfinite(report.analytic) and math.isfinite(report.rel_err), report
            assert report.finite_diff != 0.0 and report.passed, report
    assert math.isfinite(total_effort_derivative(instance, ("psi", "a")))


def test_every_report_passes_at_extreme_prize_and_cost_scales():
    """Prizes and costs of 1e-30 and 1e30: a step of the parameter times 1e-5 stays inside
    the positive domain and moves the parameter at every scale."""
    targets = [("total", None)] + list(itertools.product(("prob", "effort"), "abc"))
    for prize, cost in itertools.product((1e-30, 1.0, 1e30), repeat=2):
        instance = ContestInstance(ids=("a", "b", "c"),
                                   delta=(prize, 2.0 * prize, 0.3 * prize),
                                   cost=(cost, 2.0 * cost, 0.5 * cost),
                                   psi=(1.0, 1.5, 1.2), weight=(1.0, 0.8, 1.5))
        for target in targets:
            for param in itertools.product(analysis.PARAM_KINDS, instance.ids):
                report = sensitivity_report(instance, target, param)
                assert report.passed, (prize, cost, report)


def test_a_rivals_drafting_gain_raises_a_favourites_effort_only():
    """Dixit's favourite law: raising ``psi_i`` raises rival ``j``'s effort iff ``p_j > 1/2``.

    Every ordered rival pair of the fields above whose ``p_j`` is more than 1e-9 from 1/2.
    """
    counts = {1.0: 0, -1.0: 0}
    for instance in statics_fields(2027):
        probs = solve_contest(instance).probs
        for i, j in itertools.permutations(instance.ids, 2):
            if abs(probs[j] - 0.5) <= 1e-9:
                continue
            report = sensitivity_report(instance, ("effort", j), ("psi", i))
            sign = math.copysign(1.0, probs[j] - 0.5)
            assert math.copysign(1.0, report.analytic) == sign, (i, j, probs[j])
            counts[sign] += 1
    assert min(counts.values()) >= 300, counts


# ---------------------------------------------------------------------------
# Welfare
# ---------------------------------------------------------------------------


def test_welfare_symmetric_pair():
    scenario = pair_scenario()
    report = welfare_report(scenario, scenario.ids)
    assert report.total_welfare == pytest.approx(0.75, abs=1e-12)
    assert report.aggregate_cost == pytest.approx(0.25, abs=1e-12)
    assert report.aggregate_prize_intake == pytest.approx(1.0, abs=1e-12)
    assert report.rent_ratio == pytest.approx(0.25, abs=1e-12)


def test_welfare_symmetric_ten():
    """Ten identical athletes dissipate 45 percent of the prize mass."""
    base = pair_scenario()
    athletes = tuple(
        base.athletes[0].__class__(id=f"r{i}", t_swim=T_SWIM, r_swim=i + 1,
                                   draft_share=0.0, base_cost=1.0,
                                   prize_diff=1.0)
        for i in range(10)
    )
    scenario = base.__class__(athletes=athletes, globals=base.globals)
    report = welfare_report(scenario, scenario.ids)
    assert report.rent_ratio == pytest.approx(0.45, abs=1e-9)


def test_welfare_singleton():
    scenario = pair_scenario(delta=(3.0, 1.0))
    report = welfare_report(scenario, ("ada",))
    assert report.total_welfare == 3.0
    assert report.aggregate_cost == 0.0
    assert report.aggregate_prize_intake == 3.0
    assert report.rent_ratio == 0.0
    # Nobody is paid in the empty field, so its rent ratio would be 0/0.
    with pytest.raises(ValueError, match="^welfare needs at least one member$"):
        welfare_report(scenario, ())


def test_welfare_identity_on_random_scenarios():
    """Realised welfare plus effort cost is exactly the expected intake."""
    rng = np.random.default_rng(233)
    for _ in range(25):
        scenario = random_scenario(rng)
        report = welfare_report(scenario, scenario.ids)
        assert report.total_welfare + report.aggregate_cost == \
            pytest.approx(report.aggregate_prize_intake, abs=1e-10)
        assert 0.0 <= report.rent_ratio < 0.5


def test_welfare_builds_each_contest_instance_once(monkeypatch):
    """One report builds the full field, plus the subset when it is smaller."""
    scenario = random_scenario(np.random.default_rng(606), n=6)
    subset = scenario.ids[3:]
    expected = welfare_report(scenario, subset)
    built = []
    original = ContestInstance._store

    def counting(self, ids, *columns):
        built.append(ids)
        original(self, ids, *columns)

    monkeypatch.setattr(ContestInstance, "_store", counting)
    assert welfare_report(scenario, subset) == expected
    assert built == [scenario.ids, subset]
    built.clear()
    welfare_report(scenario, scenario.ids)
    assert built == [scenario.ids]
    # Repeated member ids collapse silently, as before.
    assert welfare_report(scenario, subset + subset[:1]) == expected


def test_symmetric_rent_ratio_formula():
    base = pair_scenario()
    for m in (2, 3, 5, 10, 25):
        athletes = tuple(
            base.athletes[0].__class__(id=f"r{i}", t_swim=T_SWIM, r_swim=i + 1,
                                       draft_share=0.0, base_cost=1.0,
                                       prize_diff=1.0)
            for i in range(m)
        )
        scenario = base.__class__(athletes=athletes, globals=base.globals)
        report = welfare_report(scenario, scenario.ids)
        assert report.rent_ratio == pytest.approx((m - 1) / (2 * m), abs=1e-9)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def test_draft_share_sweep_raises_own_odds_and_effort():
    scenario = pair_scenario()
    grid = [0.0, 0.25, 0.5, 0.75]
    records = sweep(scenario, "athletes.ada.draft_share", grid)
    assert [r.value for r in records] == grid
    probs = [r.probs["ada"] for r in records]
    efforts = [r.efforts["ada"] for r in records]
    assert all(b > a for a, b in zip(probs, probs[1:]))
    assert all(b > a for a, b in zip(efforts, efforts[1:]))
    assert all(r.members is None and r.actions is None for r in records)


def test_field_size_sweep_lowers_per_head_effort():
    records = sweep(pair_scenario(), "m", [float(m) for m in range(2, 11)])
    per_head = [next(iter(r.efforts.values())) for r in records]
    assert all(b < a for a, b in zip(per_head, per_head[1:]))
    assert len(records[-1].efforts) == 10


def test_full_sweep_flips_the_entry_decision_once():
    """Drafting carries the marginal athlete across their indifference point.

    With the outside option pinned between the undrafted and fully drafted
    continuation values, the action column reads withdraw, withdraw,
    continue, continue over the canonical grid.
    """
    scenario = pair_scenario(theta=(theta_for(0.40, 1), theta_for(0.0, 2)))
    records = sweep(scenario, "athletes.ada.draft_share",
                    [0.0, 0.25, 0.5, 0.75], stage="full")
    actions = [r.actions["ada"] for r in records]
    assert actions == ["withdraw", "withdraw", "continue", "continue"]
    assert all(r.actions["bea"] == "continue" for r in records)
    flips = sum(1 for a, b in zip(actions, actions[1:]) if a != b)
    assert flips == 1


def test_full_sweeps_take_the_iterative_outcome_without_iterating(monkeypatch):
    """A full-stage point is ``assemble_spe(point, "iterative")[0]``'s field, actions and
    contest, on 300 random and selective fields, and runs no best-reply iteration."""
    rng = np.random.default_rng(2727)
    scenarios = [random_scenario(rng, n=int(rng.integers(2, 11)),
                                 outside=[(-0.3, 0.9), (0.01, 0.1), (0.3, 1.05)][k % 3])
                 for k in range(260)]
    scenarios += [selective_scenario(rng) for _ in range(40)]
    expected = [assemble_spe(scenario, "iterative")[0] for scenario in scenarios]
    assert min(sum(e.method == m for e in expected) for m in ("iteration", "greedy")) >= 30

    def refuse(fields):
        raise AssertionError("a full-stage sweep ran the best-reply iteration")

    monkeypatch.setattr(entry, "_iterate", refuse)
    for scenario, outcome in zip(scenarios, expected):
        aid = scenario.ids[-1]
        record, = sweep(scenario, f"athletes.{aid}.draft_share",
                        [scenario.record(aid).draft_share], stage="full")
        solved = outcome.equilibrium
        assert (record.members, record.actions) == (outcome.members, outcome.actions)
        assert (record.total_effort, record.efforts, record.probs, record.continuation_values) \
            == (solved.total_effort, solved.efforts, solved.probs, solved.continuation_values)


def test_full_sweeps_recheck_the_stability_of_their_field(monkeypatch):
    """A full-stage point re-checks the field it is handed: the empty field of a pair whose
    prizes beat their outside options, which both want to join, fails naming the set."""
    scenario = load_scenario(ROOT / "scenarios" / "symmetric_pair.json")
    assert all(outside_option(rec, scenario.globals) < rec.prize_diff
               for rec in scenario.athletes)
    monkeypatch.setattr(analysis, "_greedy", lambda fields: 0)
    with pytest.raises(RuntimeError) as err:
        sweep(scenario, "globals.eta", [0.5], stage="full")
    assert str(err.value) == "internal error: set () failed its stability re-check"


def test_sweep_grid_validation():
    scenario = pair_scenario()
    with pytest.raises(ValueError):
        sweep(scenario, "athletes.ada.draft_share", [])
    with pytest.raises(ValueError):
        sweep(scenario, "athletes.ada.draft_share", [0.5, 0.25])
    with pytest.raises(ValueError):
        sweep(scenario, "athletes.ada.draft_share", [0.0, 0.5], stage="both")


def test_sweep_parameter_validation():
    scenario = pair_scenario()
    with pytest.raises(ValueError):
        sweep(scenario, "athletes.ada.shoe_size", [0.0, 0.5])
    with pytest.raises(ValueError):
        sweep(scenario, "globals.gamma", [0.1, 0.2])
    with pytest.raises(ValueError):
        sweep(scenario, "prize", [0.1, 0.2])


def test_sweep_errors_name_the_grid_point():
    scenario = pair_scenario()
    with pytest.raises(DomainError) as err:
        sweep(scenario, "m", [2.0, 2.5])
    assert err.value.field == "grid"
    assert "grid point 1" in str(err.value)
    with pytest.raises(DomainError) as err:
        sweep(scenario, "athletes.ada.draft_share", [0.5, 1.5])
    assert err.value.field == "grid"
    for param, value, reason in (("m", 1.0, "field size must be at least 2"),
                                 ("athletes.ada.r_swim", 1.5, "r_swim must be an integer")):
        with pytest.raises(DomainError) as err:
            sweep(scenario, param, [value])
        assert str(err.value) == f"grid point 0 ({value!r}) for parameter {param!r}: {reason}"
    for param in ("m", "athletes.ada.r_swim", "athletes.ada.draft_share"):
        for bad in (math.inf, math.nan):
            with pytest.raises(DomainError) as err:
                sweep(scenario, param, [0.0 if "draft" in param else 2.0, bad])
            assert err.value.field == "grid"
            assert str(err.value) == (f"grid point 1 ({bad!r}) for parameter {param!r}: "
                                      f"the grid value must be finite, got {bad!r}")
    # One bad value per athlete field, on both stages.
    reasons = {
        "t_swim": (-1.0, "t_swim must be nonnegative, got -1.0 (athlete 'bea')"),
        "r_swim": (0.0, "r_swim must be a positive rank, got 0 (athlete 'bea')"),
        "draft_share": (1.5, "draft_share must lie in [0, 1], got 1.5 (athlete 'bea')"),
        "base_cost": (0.0, "base_cost must be positive, got 0.0 (athlete 'bea')"),
        "prize_diff": (-2.0, "prize_diff must be positive, got -2.0 (athlete 'bea')"),
        "weight": (0.0, "weight must be positive, got 0.0 (athlete 'bea')"),
        "theta": (math.inf, "the grid value must be finite, got inf"),
    }
    assert set(reasons) == set(analysis._ATHLETE_FIELDS)
    for field, (bad, reason) in reasons.items():
        param = f"athletes.bea.{field}"
        for stage in ("contest", "full"):
            with pytest.raises(DomainError) as err:
                sweep(scenario, param, [bad], stage=stage)
            assert err.value.field == "grid"
            assert str(err.value) == f"grid point 0 ({bad!r}) for parameter {param!r}: {reason}"


def test_field_size_sweep_refuses_oversized_fields_before_building_them():
    scenario = pair_scenario()
    for size in (100_001.0, 1e9):
        with pytest.raises(DomainError) as err:
            sweep(scenario, "m", [2.0, size])
        assert err.value.field == "grid"
        assert str(err.value).endswith(f"grid point 1 ({size!r}) for parameter 'm': "
                                       f"field size must be at most 100000")


def test_field_size_sweep_solves_its_largest_field():
    """At 100 000 members the share sum's rounding, not abs_tol, sets the stop."""
    record, = sweep(pair_scenario(), "m", [100_000.0])
    exact = symmetric_equilibrium(100_000, 1.0, 1.0, 1.0)
    assert record.total_effort == pytest.approx(exact.total_effort, rel=1e-9)
    assert len(record.efforts) == 100_000
    assert max(abs(e / exact.effort - 1.0) for e in record.efforts.values()) <= 1e-9


def test_sweep_of_global_drag():
    records = sweep(pair_scenario(draft=(0.5, 0.0)), "globals.eta",
                    [0.2, 0.4, 0.6])
    probs = [r.probs["ada"] for r in records]
    # Stronger drag amplifies the drafting advantage.
    assert all(b > a for a, b in zip(probs, probs[1:]))


# ---------------------------------------------------------------------------
# Prediction reports
# ---------------------------------------------------------------------------


def section_named(report: PredictionReport, name: str) -> PredictionSection:
    return {item.name: item for item in report.sections}[name]


def test_prediction_report_passes_on_the_default_pair():
    report = prediction_report(pair_scenario(theta=(theta_for(0.0, 1),
                                                    theta_for(0.0, 2))))
    assert report.passed
    assert section_named(report, "drafting_gain").status == "pass"
    assert section_named(report, "field_size").status == "pass"
    assert section_named(report, "entry_response").status == "pass"


def test_prediction_report_counts_the_entry_flip():
    scenario = pair_scenario(theta=(theta_for(0.40, 1), theta_for(0.0, 2)))
    report = prediction_report(scenario)
    section = section_named(report, "entry_response")
    assert section.status == "pass"
    assert "WWCC" in section.detail
    assert "1 flips" in section.detail


def test_prediction_report_flags_empty_contests():
    scenario = pair_scenario(theta=(theta_for(10.0, 1), theta_for(10.0, 2)))
    report = prediction_report(scenario)
    section = section_named(report, "entry_response")
    assert section.status == "skipped"
    assert "insufficient contest size" in section.detail
    # The contest-stage sections are unaffected by outside options.
    assert section_named(report, "drafting_gain").status == "pass"
    assert report.passed


def test_prediction_report_traces_the_size_tradeoff():
    """A multiplier that improves with the field can bend effort upward."""
    table = {2: 1.0, 3: 1.9, 4: 1.99, 5: 1.999}
    report = prediction_report(pair_scenario(), psi_by_size=table)
    section = section_named(report, "size_tradeoff")
    assert section.status == "reported"
    assert "non-monotone" in section.detail


def test_prediction_report_size_sections_read_the_symmetric_closed_form():
    """Both size sections print ``symmetric_equilibrium``'s efforts for the first athlete.

    The solver's ``m`` sweep, weights and all, agrees with that closed form.
    """
    scenario = pair_scenario(draft=(0.4, 0.0), delta=(1.7, 1.0), cost=(0.6, 1.0))
    first = dataclasses.replace(scenario.athletes[0], weight=1.8)
    scenario = dataclasses.replace(scenario, athletes=(first, scenario.athletes[1]))
    table = {3: 1.2, 5: 1.5, 9: 1.1}
    report = prediction_report(scenario, psi_by_size=table)
    psi = drafting_multiplier(0.4, 0.5)
    closed = [symmetric_equilibrium(m, 1.7, 0.6, psi).effort for m in range(2, 11)]
    assert section_named(report, "field_size").detail == f"e*: {analysis._series(closed)}"
    solved = [next(iter(r.efforts.values())) for r in sweep(scenario, "m", range(2, 11))]
    assert solved == pytest.approx(closed, rel=1e-12)
    traced = [symmetric_equilibrium(m, 1.7, 0.6, table[m]).effort for m in sorted(table)]
    assert section_named(report, "size_tradeoff").detail == (
        f"e* with size-dependent multiplier is strictly decreasing: {analysis._series(traced)}")


def test_prediction_report_refuses_sizes_outside_its_grid():
    for key in (11, 1, "3"):
        with pytest.raises(ValueError) as err:
            prediction_report(pair_scenario(), psi_by_size={2: 1.1, 3: 1.2, key: 1.3})
        assert str(err.value) == f"psi_by_size key {key!r} is not a field size in 2 to 10"


def test_prediction_report_refuses_a_size_table_of_fewer_than_two_sizes():
    """A shape needs two sizes: an empty or one-size table is refused, not traced."""
    scenario = load_scenario(ROOT / "scenarios" / "symmetric_pair.json")
    for table in ({}, {3: 1.5}):
        with pytest.raises(ValueError) as err:
            prediction_report(scenario, psi_by_size=table)
        assert str(err.value) == f"psi_by_size needs two or more field sizes, got {len(table)}"


def test_prediction_report_rejects_unknown_athlete():
    with pytest.raises(ValueError):
        prediction_report(pair_scenario(), athlete_id="zed")


# ---------------------------------------------------------------------------
# Solver settings
# ---------------------------------------------------------------------------


def test_the_solver_block_reaches_every_solve(monkeypatch):
    """Every root solve under a public scenario call, and under the instance calls on
    ``ContestInstance.from_scenario``, reads the scenario's settings off its instance; the
    derivatives' root and their finite-difference re-solves read them with the tightened
    ``abs_tol`` off theirs."""
    chosen = SolverSettings(abs_tol=1e-11, max_iter=77)
    tight = dataclasses.replace(chosen, abs_tol=analysis._FD_ABS_TOL)
    rng = np.random.default_rng(77)
    while True:
        scenario = dataclasses.replace(random_scenario(rng, n=4), settings=chosen)
        ids = scenario.ids
        # A cutoff makes a root solve only for 0 < o < delta.
        inner = [rec.id for rec in scenario.athletes
                 if 0.0 < outside_option(rec, scenario.globals) < rec.prize_diff]
        if inner:
            break
    seen = []
    real = contest._newton

    def spy(instance, *rest, **keys):
        seen.append(instance.settings)
        return real(instance, *rest, **keys)

    for module in (contest, entry, analysis):
        monkeypatch.setattr(module, "_newton", spy)
    draft = f"athletes.{ids[0]}.draft_share"

    def fresh() -> ContestInstance:
        return ContestInstance.from_scenario(scenario)

    calls = {
        "solve_contest": lambda: solve_contest(fresh()),
        "solve_total_effort": lambda: solve_total_effort(fresh()),
        "sensitivity_report": lambda: sensitivity_report(fresh(), ("total", None),
                                                         ("psi", ids[0])),
        "total_effort_derivative": lambda: total_effort_derivative(fresh(), ("psi", ids[0])),
        "subset_equilibrium": lambda: subset_equilibrium(scenario, ids[:2]),
        "net_benefit": lambda: net_benefit(scenario, ids[:2], ids[2]),
        "net_benefit_curve": lambda: net_benefit_curve(scenario, ids, ids[0], [1.0, 1.5]),
        "cutoff_psi": lambda: cutoff_psi(scenario, ids, inner[0]),
        "is_equilibrium_set": lambda: is_equilibrium_set(scenario, ids[:1]),
        "enumerate_equilibrium_sets": lambda: enumerate_equilibrium_sets(scenario),
        "iterate_continuation_operator": lambda: iterate_continuation_operator(scenario),
        "assemble_spe": lambda: assemble_spe(scenario, mode="all"),
        "welfare_report": lambda: welfare_report(scenario, ids[1:]),
        "sweep": lambda: (sweep(scenario, draft, [0.0, 0.5]),
                          sweep(scenario, draft, [0.0, 0.5], stage="full")),
        "prediction_report": lambda: prediction_report(scenario, psi_by_size={2: 1.2, 3: 1.3}),
    }
    for name, call in calls.items():
        seen.clear()
        call()
        assert seen, name
        if name in ("sensitivity_report", "total_effort_derivative"):
            assert all(settings == tight for settings in seen), (name, seen)
        else:
            assert all(settings is chosen for settings in seen), (name, seen)


def test_re_solved_variants_carry_the_tightened_tolerance():
    """Each variant ``sensitivity_report`` keeps in ``_solves`` is a ``with_*`` variant of one
    tightened copy of the instance: its settings are the instance's with ``abs_tol`` at most
    ``_FD_ABS_TOL``, a looser tolerance tightened and a tighter one kept."""
    rng = np.random.default_rng(78)
    for chosen in (SolverSettings(), SolverSettings(abs_tol=1e-10, max_iter=70),
                   SolverSettings(abs_tol=1e-16)):
        instance = dataclasses.replace(random_instance(rng, m=4, weighted=True),
                                       settings=chosen)
        for kind in analysis.PARAM_KINDS:
            for aid in instance.ids[:2]:
                sensitivity_report(instance, ("prob", aid), (kind, instance.ids[0]))
        memo = vars(instance)["_solves"]
        tight = memo.pop(None)[1]
        assert tight.settings == dataclasses.replace(
            chosen, abs_tol=min(chosen.abs_tol, analysis._FD_ABS_TOL))
        assert len(memo) == 2 * len(analysis.PARAM_KINDS)
        for (kind, idx, sign), (variant, _) in memo.items():
            assert variant.settings == tight.settings
            assert variant == getattr(tight, f"with_{kind}")(
                instance.ids[idx], getattr(instance, kind)[idx] * (1.0 + sign * analysis._FD_STEP))


def test_a_starved_scenario_fails_alike_at_every_level():
    """Scenario calls and instance calls on ``from_scenario`` stop on one budget."""
    scenario = dataclasses.replace(load_scenario(ROOT / "scenarios" / "heterogeneous_triple.json"),
                                   settings=SolverSettings(max_iter=2))
    ids = scenario.ids
    with pytest.raises(ConvergenceError) as err:
        subset_equilibrium(scenario, ids)
    calls = [lambda: welfare_report(scenario, ids),
             lambda: sweep(scenario, f"athletes.{ids[0]}.draft_share",
                           [scenario.athletes[0].draft_share]),
             lambda: solve_contest(ContestInstance.from_scenario(scenario)),
             lambda: solve_total_effort(ContestInstance.from_scenario(scenario)),
             lambda: sensitivity_report(ContestInstance.from_scenario(scenario),
                                        ("total", None), ("psi", ids[0])),
             lambda: total_effort_derivative(ContestInstance.from_scenario(scenario),
                                             ("psi", ids[0]))]
    for call in calls:
        with pytest.raises(ConvergenceError) as other:
            call()
        assert str(other.value) == str(err.value)
