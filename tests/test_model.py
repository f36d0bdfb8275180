"""Primitive maps, record validation, and payoff building blocks."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from tricontest import (
    AthleteRecord,
    ContestEquilibrium,
    ContestInstance,
    DegenerateProfileError,
    DomainError,
    EffortProfile,
    GlobalParams,
    Scenario,
    drafting_multiplier,
    outside_option,
    payoff_curvature,
    verify_nash,
)

shares = st.floats(min_value=0.0, max_value=1.0)
drags = st.floats(min_value=0.01, max_value=0.99)
slopes = st.floats(min_value=1e-3, max_value=1e3)


def make_athlete(**overrides) -> AthleteRecord:
    base = dict(id="ada", t_swim=1800.0, r_swim=1, draft_share=0.0,
                base_cost=1.0, prize_diff=1.0)
    base.update(overrides)
    return AthleteRecord(**base)


# ---------------------------------------------------------------------------
# Worked values
# ---------------------------------------------------------------------------


def test_drafting_multiplier_values():
    assert drafting_multiplier(0.0, 0.3) == 1.0
    assert drafting_multiplier(0.5, 0.5) == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert drafting_multiplier(1.0, 0.5) == 2.0


def solver_slope(cost, share, eta) -> float:
    """The effective cost slope ``k`` the contest solver uses for an athlete."""
    scenario = Scenario(
        athletes=(make_athlete(base_cost=cost, draft_share=share), make_athlete(id="bea")),
        globals=GlobalParams(alpha=0.001, beta=0.01, eta=eta))
    return ContestInstance.from_scenario(scenario)._k[0]


def test_effective_cost_values():
    assert solver_slope(2.0, 0.5, 0.5) == 1.5
    assert solver_slope(1.0, 0.0, 0.9) == 1.0
    assert solver_slope(3.0, 1.0, 0.5) == 1.5


def test_outside_option_values():
    params = GlobalParams(alpha=0.001, beta=0.01, eta=0.5)
    ada = make_athlete(t_swim=1800.0, r_swim=10, theta=2.0)
    assert outside_option(ada, params) == pytest.approx(0.1, abs=1e-12)

    params = GlobalParams(alpha=1.0, beta=1.0, eta=0.5)
    bea = make_athlete(t_swim=0.0, r_swim=1, theta=0.0)
    assert outside_option(bea, params) == -1.0

    params = GlobalParams(alpha=0.002, beta=0.08, eta=0.5)
    cal = make_athlete(t_swim=100.0, r_swim=5, theta=0.6)
    assert outside_option(cal, params) == pytest.approx(0.0, abs=1e-12)


def test_zero_total_profiles_are_degenerate():
    instance = ContestInstance(ids=("a", "b"), delta=(1.0, 1.0), cost=(1.0, 1.0),
                               psi=(1.0, 1.0), weight=(1.0, 2.0))
    zero = {"a": 0.0, "b": 0.0}
    with pytest.raises(DegenerateProfileError):
        payoff_curvature(instance, EffortProfile(zero), "a")
    with pytest.raises(DegenerateProfileError):
        verify_nash(instance, ContestEquilibrium(total_effort=0.0, efforts=zero, probs={},
                                                 continuation_values={}, residual=0.0))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def test_domain_errors_name_the_field():
    with pytest.raises(DomainError) as err:
        drafting_multiplier(1.2, 0.5)
    assert err.value.field == "draft_share"

    with pytest.raises(DomainError) as err:
        drafting_multiplier(0.5, 1.0)
    assert err.value.field == "eta"


# Outcomes of the element-by-element checks the one-comparison checks replaced:
# a number accepted, or the (field, message) of the DomainError raised.
NAN, INF = math.nan, math.inf
COLUMN_VALUES = [
    (NAN, "nan"), (INF, "inf"), (-INF, "-inf"), (0.0, "0.0"), (-0.0, "-0.0"),
    (-1, "-1.0"), ("2.5", None), ("nan", "nan"), ("-inf", "-inf"), ("1e400", "inf"),
]
MULTIPLIER_CASES = [
    (NAN, 0.5, ("draft_share", "draft_share must be finite, got nan")),
    (INF, 0.5, ("draft_share", "draft_share must be finite, got inf")),
    (-INF, 0.5, ("draft_share", "draft_share must be finite, got -inf")),
    (0.0, 0.5, 1.0),
    (-0.0, 0.5, 1.0),
    (1.0, 0.5, 2.0),
    ("0.5", 0.5, 4.0 / 3.0),
    (-1, 0.5, ("draft_share", "draft_share must lie in [0, 1], got -1.0")),
    (-0.1, 0.5, ("draft_share", "draft_share must lie in [0, 1], got -0.1")),
    (1.5, 0.5, ("draft_share", "draft_share must lie in [0, 1], got 1.5")),
    ("2.5", 0.5, ("draft_share", "draft_share must lie in [0, 1], got 2.5")),
    ("nan", 0.5, ("draft_share", "draft_share must be finite, got nan")),
    ("1e400", 0.5, ("draft_share", "draft_share must be finite, got inf")),
    (0.5, NAN, ("eta", "eta must be finite, got nan")),
    (0.5, INF, ("eta", "eta must be finite, got inf")),
    (0.5, -INF, ("eta", "eta must be finite, got -inf")),
    (0.5, 0.0, ("eta", "eta must lie in (0,1), got 0.0")),
    (0.5, -0.0, ("eta", "eta must lie in (0,1), got -0.0")),
    (0.5, -1, ("eta", "eta must lie in (0,1), got -1.0")),
    (0.5, 1.0, ("eta", "eta must lie in (0,1), got 1.0")),
    (0.5, 1.5, ("eta", "eta must lie in (0,1), got 1.5")),
    (0.5, "0.25", 8.0 / 7.0),
    (0.5, "nan", ("eta", "eta must be finite, got nan")),
    # Both bad: the share's finiteness, then eta's, then the share's range.
    (NAN, 2.0, ("draft_share", "draft_share must be finite, got nan")),
    (2.0, NAN, ("eta", "eta must be finite, got nan")),
    (1.5, 1.5, ("draft_share", "draft_share must lie in [0, 1], got 1.5")),
    (NAN, "x", ("draft_share", "draft_share must be finite, got nan")),
    (1.5, "x", ("ValueError", "could not convert string to float: 'x'")),
    (0.5, "x", ("ValueError", "could not convert string to float: 'x'")),
]


def outcome(call):
    """A returned value, or the (field, message) of what the call raised."""
    try:
        return call()
    except DomainError as err:
        return err.field, str(err)
    except ValueError as err:
        return "ValueError", str(err)


@pytest.mark.parametrize("column", ["delta", "cost", "psi", "weight"])
@pytest.mark.parametrize("value, shown", COLUMN_VALUES)
def test_instance_column_validation_table(column, value, shown):
    columns = {name: (1.0, 2.0) for name in ("delta", "cost", "psi", "weight")}
    columns[column] = (1.0, value)
    got = outcome(lambda: getattr(ContestInstance(ids=("ada", "bea"), **columns), column))
    if shown is None:
        assert got == (1.0, float(value))
    else:
        assert got == (column, f"{column} must be positive and finite, "
                               f"got {shown} (athlete 'bea')")


@pytest.mark.parametrize("ids, cost, field, message", [
    ((), (), "ids", "a contest instance needs at least one member"),
    (("ada", "ada"), (1.0, 1.0), "ids", "contest member ids must be unique"),
    (("ada", "bea"), (1.0,), "cost", "cost needs one entry per member (2), got 1"),
])
def test_instance_shape_validation(ids, cost, field, message):
    rest = (1.0,) * len(ids)
    with pytest.raises(DomainError) as err:
        ContestInstance(ids=ids, delta=rest, cost=cost, psi=rest, weight=rest)
    assert (err.value.field, str(err.value)) == (field, message)


@pytest.mark.parametrize("column, shown, athlete", [
    ((1.0, -0.0, 0.0), "-0.0", "bea"),
    ((1.0, 0.0, -0.0), "0.0", "bea"),
    ((1.0, NAN, NAN), "nan", "bea"),
    ((1.0, "nan", NAN), "nan", "bea"),
    ((1.0, 2.0, INF), "inf", "cal"),
])
def test_instance_validation_names_the_first_bad_athlete(column, shown, athlete):
    ones = (1.0, 1.0, 1.0)
    with pytest.raises(DomainError) as err:
        ContestInstance(ids=("ada", "bea", "cal"), delta=column, cost=ones, psi=ones, weight=ones)
    assert str(err.value) == f"delta must be positive and finite, got {shown} (athlete {athlete!r})"


@pytest.mark.parametrize("share, eta, expected", MULTIPLIER_CASES)
def test_drafting_multiplier_validation_table(share, eta, expected):
    assert outcome(lambda: drafting_multiplier(share, eta)) == expected


def test_domain_error_is_a_value_error():
    assert issubclass(DomainError, ValueError)
    assert issubclass(DegenerateProfileError, ValueError)


def test_athlete_record_validation():
    with pytest.raises(DomainError) as err:
        make_athlete(draft_share=-0.1)
    assert err.value.field == "draft_share"
    with pytest.raises(DomainError):
        make_athlete(r_swim=0)
    with pytest.raises(DomainError):
        make_athlete(r_swim=1.5)
    with pytest.raises(DomainError):
        make_athlete(base_cost=0.0)
    with pytest.raises(DomainError):
        make_athlete(prize_diff=-2.0)
    with pytest.raises(DomainError):
        make_athlete(theta=float("nan"))
    with pytest.raises(DomainError):
        make_athlete(t_swim=-1.0)


def test_athlete_record_refuses_non_numbers_naming_the_field_and_athlete():
    for name, bad in (("base_cost", "2.5"), ("t_swim", "1"), ("weight", "2"),
                      ("draft_share", "0.5"), ("prize_diff", None), ("theta", "1"),
                      ("weight", b"2"), ("r_swim", "1")):
        with pytest.raises(DomainError) as err:
            make_athlete(**{name: bad})
        assert err.value.field == name
        kind = "an integer" if name == "r_swim" else "a number"
        assert str(err.value) == f"{name} must be {kind}, got {bad!r} (athlete 'ada')"


# One call per field that takes an integer past float range, which ``float()`` refuses.
PAST_FLOAT_RANGE = {
    "prize_diff": lambda: make_athlete(prize_diff=10**400),
    "t_swim": lambda: make_athlete(t_swim=-10**400),
    "r_swim": lambda: make_athlete(r_swim=10**400),
    "alpha": lambda: GlobalParams(alpha=10**400, beta=0.01, eta=0.5),
    "psi_bounds": lambda: GlobalParams(alpha=0.001, beta=0.01, eta=0.5,
                                       psi_bounds=(1, 10**400)),
    "delta": lambda: ContestInstance(ids=("ada", "bea"), delta=(10**400, 1.0),
                                     cost=(1.0, 1.0), psi=(1.0, 1.0), weight=(1.0, 1.0)),
    "eta": lambda: drafting_multiplier(0.5, 10**400),
}


@pytest.mark.parametrize("field", PAST_FLOAT_RANGE)
def test_integers_past_float_range_are_domain_errors_naming_the_field(field):
    """Such a value counts as infinite, so its own check refuses it."""
    with pytest.raises(DomainError) as err:
        PAST_FLOAT_RANGE[field]()
    assert err.value.field == field
    assert "inf" in str(err.value)


def test_global_params_validation():
    with pytest.raises(DomainError) as err:
        GlobalParams(alpha=0.001, beta=0.01, eta=1.2)
    assert err.value.field == "eta"
    with pytest.raises(DomainError):
        GlobalParams(alpha=0.0, beta=0.01, eta=0.5)
    # Bounds must contain the reduced-drag range [1, 1/(1-eta)] = [1, 2].
    with pytest.raises(DomainError) as err:
        GlobalParams(alpha=0.001, beta=0.01, eta=0.5, psi_bounds=(1.0, 1.5))
    assert err.value.field == "psi_bounds"
    wide = GlobalParams(alpha=0.001, beta=0.01, eta=0.5, psi_bounds=(0.5, 3.0))
    assert wide.psi_bounds == (0.5, 3.0)


def test_default_psi_bounds_cover_reduced_drag_range():
    params = GlobalParams(alpha=0.001, beta=0.01, eta=0.25)
    lo, hi = params.psi_bounds
    assert lo == 1.0
    assert hi == pytest.approx(1.0 / 0.75, rel=1e-15)


def test_drafting_graph_rejects_self_loop():
    params = GlobalParams(alpha=0.001, beta=0.01, eta=0.5)
    with pytest.raises(DomainError) as err:
        Scenario(athletes=(make_athlete(id="a"), make_athlete(id="b")), globals=params,
                 graph=[("a", "a")])
    assert err.value.field == "graph"
    assert str(err.value) == "drafting edge ('a', 'a') is a self-loop"


@pytest.mark.parametrize("edge", ["ab", ("a", "b", "c"), 7])
def test_drafting_graph_rejects_entries_that_are_not_id_pairs(edge):
    params = GlobalParams(alpha=0.001, beta=0.01, eta=0.5)
    with pytest.raises(DomainError) as err:
        Scenario(athletes=(make_athlete(id="a"), make_athlete(id="b")), globals=params,
                 graph=[edge])
    assert err.value.field == "graph"
    assert str(err.value) == f"drafting edge {edge!r} is not a (from, to) pair of ids"


def test_scenario_validation():
    params = GlobalParams(alpha=0.001, beta=0.01, eta=0.5)
    ada = make_athlete(id="ada")
    bea = make_athlete(id="bea", r_swim=2)
    with pytest.raises(DomainError):
        Scenario(athletes=(ada,), globals=params)
    with pytest.raises(DomainError):
        Scenario(athletes=(ada, make_athlete(id="ada", r_swim=2)),
                 globals=params)
    with pytest.raises(DomainError):
        Scenario(athletes=(ada, bea), globals=params,
                 graph=frozenset({("ada", "zed")}))
    two = Scenario(athletes=(ada, bea), globals=params)
    assert two.ids == ("ada", "bea")
    assert two.graph == frozenset()
    drafted = Scenario(athletes=(ada, bea), globals=params, graph=[["ada", "bea"]])
    assert drafted.graph == frozenset({("ada", "bea")})
    assert Scenario(athletes=(ada, bea), globals=params,
                    graph=iter([("ada", "bea")])).graph == drafted.graph
    assert two.record("bea").r_swim == 2
    with pytest.raises(ValueError):
        two.record("zed")


def test_effort_profile_rejects_negative_effort():
    with pytest.raises(DomainError):
        EffortProfile({"a": -0.1})


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@given(share=shares, eta=drags)
def test_multiplier_at_least_one(share, eta):
    assert drafting_multiplier(share, eta) >= 1.0


@given(share=st.floats(min_value=0.0, max_value=0.99), eta=drags)
def test_multiplier_increasing_in_share(share, eta):
    assert drafting_multiplier(share + 0.01, eta) > drafting_multiplier(share, eta)


@given(share=st.floats(min_value=0.01, max_value=1.0),
       eta=st.floats(min_value=0.01, max_value=0.98))
def test_multiplier_increasing_in_drag_when_drafting(share, eta):
    assert drafting_multiplier(share, eta + 0.01) > drafting_multiplier(share, eta)


@given(cost=slopes, share=shares, eta=drags)
def test_cost_times_multiplier_recovers_base(cost, share, eta):
    """The solver's slope times the multiplier is the base cost to 1e-12 relative."""
    product = solver_slope(cost, share, eta) * drafting_multiplier(share, eta)
    assert product == pytest.approx(cost, rel=1e-12)


@given(cost=slopes, share=shares, eta=drags)
def test_effective_cost_is_the_solver_slope(cost, share, eta):
    """The solver's slope is bit for bit ``base_cost / drafting_multiplier(share, eta)``."""
    assert solver_slope(cost, share, eta) == cost / drafting_multiplier(share, eta)


@settings(max_examples=20)
@given(rival=st.floats(min_value=0.05, max_value=5.0),
       own=st.floats(min_value=0.05, max_value=5.0),
       prize=st.floats(min_value=0.1, max_value=10.0),
       slope=st.floats(min_value=0.1, max_value=10.0))
def test_payoff_concave_in_own_effort(rival, own, prize, slope):
    """The exact second derivative of the payoff in own effort is negative."""
    instance = ContestInstance(ids=("i", "j"), delta=(prize, prize), cost=(slope, slope),
                               psi=(1.0, 1.0), weight=(1.0, 1.0))
    profile = EffortProfile({"i": own, "j": rival})
    assert payoff_curvature(instance, profile, "i").second < 0.0
