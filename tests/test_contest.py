"""Aggregate root search, closed forms, and the best-response oracle.

Expected numbers come from two independent places: values small enough to
check by hand (symmetric fields, duels) and the interval-bisection oracle
in helpers.py, which re-derives the equilibrium without touching the
package solver.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

import tricontest.contest as contest
from tricontest import (
    AthleteRecord,
    ContestEquilibrium,
    ContestInstance,
    ConvergenceError,
    DomainError,
    EffortProfile,
    GlobalParams,
    Scenario,
    SolverSettings,
    aggregate_equation,
    payoff_curvature,
    solve_contest,
    solve_total_effort,
    symmetric_equilibrium,
    two_player_equilibrium,
    verify_nash,
)

from helpers import random_instance, reference_best_response, reference_equilibrium

pos = st.floats(min_value=0.1, max_value=10.0)
psis = st.floats(min_value=1.0, max_value=2.0)
wts = st.floats(min_value=0.5, max_value=2.0)


def unit_pair() -> ContestInstance:
    return ContestInstance(ids=("ada", "bea"), delta=(1.0, 1.0),
                           cost=(1.0, 1.0), psi=(1.0, 1.0), weight=(1.0, 1.0))


def mixed_triple() -> ContestInstance:
    """Three athletes: a baseline, a high-prize rival, a high-cost rival."""
    return ContestInstance(ids=("ada", "bea", "cal"),
                           delta=(1.0, 2.0, 1.0),
                           cost=(1.0, 1.0, 2.0),
                           psi=(1.0, 1.0, 1.0),
                           weight=(1.0, 1.0, 1.0))


# ---------------------------------------------------------------------------
# Aggregate equation
# ---------------------------------------------------------------------------


def test_aggregate_equation_values():
    pair = unit_pair()
    assert aggregate_equation(0.0, pair) == 1.0
    assert aggregate_equation(1.0, pair) == pytest.approx(0.0, abs=1e-15)

    triple = ContestInstance(ids=("a", "b", "c"), delta=(1.0,) * 3,
                             cost=(1.0,) * 3, psi=(1.0,) * 3, weight=(1.0,) * 3)
    assert aggregate_equation(2.0, triple) == pytest.approx(-0.4, abs=1e-15)


def test_aggregate_equation_starts_at_field_size_minus_one():
    rng = np.random.default_rng(7)
    for _ in range(20):
        instance = random_instance(rng)
        assert aggregate_equation(0.0, instance) == instance.m - 1


def test_aggregate_equation_rejects_negative_total():
    with pytest.raises(DomainError):
        aggregate_equation(-0.5, unit_pair())


def test_aggregate_equation_strictly_decreasing():
    """The excess mass falls strictly along a grid up to twice the root."""
    rng = np.random.default_rng(11)
    for _ in range(30):
        instance = random_instance(rng, weighted=True)
        root = solve_total_effort(instance)
        grid = np.linspace(0.0, 2.0 * root, 100)
        values = [aggregate_equation(x, instance) for x in grid]
        assert all(a > b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# Root search
# ---------------------------------------------------------------------------


def test_symmetric_pair_total_effort():
    assert solve_total_effort(unit_pair()) == pytest.approx(1.0, abs=1e-10)


def test_symmetric_triple_total_effort():
    instance = ContestInstance(ids=("a", "b", "c"), delta=(1.0,) * 3,
                               cost=(1.0,) * 3, psi=(1.0,) * 3,
                               weight=(1.0,) * 3)
    assert solve_total_effort(instance) == pytest.approx(math.sqrt(2.0), abs=1e-6)


def test_mixed_triple_total_effort_matches_reference():
    instance = mixed_triple()
    ref_total, ref_efforts, ref_probs = reference_equilibrium(
        instance.delta, instance.cost, instance.psi)
    total = solve_total_effort(instance)
    assert total == pytest.approx(ref_total, abs=1e-9)
    assert total == pytest.approx(1.45227, abs=1e-4)
    assert total == pytest.approx(1.4522717897143593, abs=1e-11)

    eq = solve_contest(instance)
    for idx, aid in enumerate(instance.ids):
        assert eq.efforts[aid] == pytest.approx(ref_efforts[idx], abs=1e-9)
        assert eq.probs[aid] == pytest.approx(ref_probs[idx], abs=1e-9)


def test_solver_residual_meets_tolerance():
    instance = mixed_triple()
    total = solve_total_effort(instance)
    assert abs(aggregate_equation(total, instance)) <= 1e-12


def test_root_agrees_with_reference_on_weighted_instances():
    """Newton lands on the oracle's root across random weighted fields."""
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        instance = random_instance(rng, weighted=True)
        ref_total, _, _ = reference_equilibrium(
            instance.delta, instance.cost, instance.psi, instance.weight)
        assert abs(solve_total_effort(instance) - ref_total) <= 1e-9


def test_root_within_twenty_evaluations():
    """Newton meets abs_tol within twenty evaluations, m = 1000 included."""
    lean = SolverSettings(max_iter=20)
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        instance = random_instance(rng, weighted=True)
        total = solve_total_effort(replace(instance, settings=lean))
        assert abs(aggregate_equation(total, instance)) <= lean.abs_tol
    crowd = random_instance(rng, m=1000, weighted=True)
    total = solve_total_effort(replace(crowd, settings=lean))
    assert abs(aggregate_equation(total, crowd)) <= lean.abs_tol


def test_continuation_value_is_the_share_identity():
    """Substituting the first-order condition gives ``V = delta p (1 + p) / 2``."""
    rng = np.random.default_rng(2026)
    for _ in range(300):
        instance = random_instance(rng, weighted=True)
        equilibrium = solve_contest(instance)
        for aid, delta in zip(instance.ids, instance.delta):
            p = equilibrium.probs[aid]
            assert equilibrium.continuation_values[aid] == \
                pytest.approx(delta * p * (1.0 + p) / 2.0, rel=1e-13, abs=0.0)


def test_solve_evaluates_the_shares_only_inside_newton(monkeypatch):
    """solve_contest evaluates the aggregate equation once per Newton iterate, no more: the
    shares are computed once at the returned root, by the kernel's expression, without
    another evaluation."""
    evaluations = 0

    def counted(instance, *args):
        nonlocal evaluations
        evaluations += 1
        return gap_and_slope(instance, *args)

    gap_and_slope = contest._gap_and_slope
    monkeypatch.setattr(contest, "_gap_and_slope", counted)
    rng = np.random.default_rng(2025)
    for m in (2, 3, 10, 1000):
        instance = random_instance(rng, m=m, weighted=True)
        evaluations = 0
        solve_contest(instance)
        solved = evaluations
        # Newton evaluates once per iterate, so the smallest budget that
        # converges is its evaluation count.
        needed = 1
        while True:
            try:
                solve_total_effort(replace(instance, settings=SolverSettings(max_iter=needed)))
                break
            except ConvergenceError:
                needed += 1
        assert solved == needed


def test_convergence_error_carries_bracket():
    starved = SolverSettings(max_iter=2)
    with pytest.raises(ConvergenceError) as err:
        solve_total_effort(replace(mixed_triple(), settings=starved))
    lo, hi = err.value.bracket
    assert lo < solve_total_effort(mixed_triple()) < hi
    assert math.isfinite(err.value.residual)
    assert isinstance(err.value, RuntimeError)


@pytest.mark.parametrize("prize, cost", [(1e300, 1e-300), (1e155, 1e-155)])
def test_a_root_beyond_float_range_is_a_convergence_error(prize, cost):
    """Every input is a normal float, but with ``de/k`` past 1e308 ``dg/dt`` underflows to 0."""
    instance = ContestInstance(ids=("ada", "bea", "cal"), delta=(prize,) * 3, cost=(cost,) * 3,
                               psi=(1.0,) * 3, weight=(1.0,) * 3)
    with pytest.raises(ConvergenceError, match="^Newton's slope underflowed to zero ") as err:
        solve_contest(instance)
    assert err.value.bracket == (0.0, math.inf)


def test_a_root_below_float_range_is_a_convergence_error():
    """With ``de/k`` under about 1e-308 the root ``t`` underflows to 0 and Newton stalls there."""
    instance = ContestInstance(ids=("a", "b"), delta=(1e-200,) * 2, cost=(1e200,) * 2,
                               psi=(1.0,) * 2, weight=(1.0,) * 2)
    with pytest.raises(ConvergenceError) as err:
        solve_contest(instance)
    assert str(err.value) == ("Newton stalled at floating point resolution "
                              "(bracket [0.0, 0.0], residual 1.0)")
    assert (err.value.bracket, err.value.residual) == ((0.0, 0.0), 1.0)


def test_warm_starts_reach_the_cold_root():
    """From below, at, above and far above the root Newton lands on the cold root.

    At the residual 1e-14 that sensitivity re-solves use; at the default
    1e-12 the stop rule alone lets two roots differ by about 2e-12 relative.
    A start above the root is stepped to or below it (3 x* clamps ``t`` at 0),
    and a budget that ends there still returns a bracket that holds the root.
    """
    tight = SolverSettings(abs_tol=1e-14)
    rng = np.random.default_rng(2024)
    for _ in range(200):
        instance = replace(random_instance(rng, weighted=True), settings=tight)
        cold = contest._newton(instance)[0]
        for factor in (0.0, 0.5, 1.0, 1.5, 3.0, 1e6):
            warm = contest._newton(instance, start=factor * cold)[0]
            assert warm == pytest.approx(cold, rel=1e-12, abs=0.0), factor
        for factor in (1.5, 3.0, 1e6):
            for budget in (1, 2, 3):
                with pytest.raises(ConvergenceError) as err:
                    contest._newton(replace(instance, settings=SolverSettings(max_iter=budget)),
                                    start=factor * cold)
                lo, hi = err.value.bracket
                assert lo <= cold < hi, (factor, budget)


def test_solve_total_effort_rejects_singleton():
    lone = ContestInstance(ids=("a",), delta=(1.0,), cost=(1.0,),
                           psi=(1.0,), weight=(1.0,))
    with pytest.raises(ValueError):
        solve_total_effort(lone)


# ---------------------------------------------------------------------------
# Full equilibrium
# ---------------------------------------------------------------------------


def test_symmetric_pair_equilibrium():
    eq = solve_contest(unit_pair())
    for aid in ("ada", "bea"):
        assert eq.probs[aid] == pytest.approx(0.5, abs=1e-12)
        assert eq.efforts[aid] == pytest.approx(0.5, abs=1e-12)
        assert eq.continuation_values[aid] == pytest.approx(0.375, abs=1e-12)


def test_singleton_equilibrium_convention():
    lone = ContestInstance(ids=("ada",), delta=(7.0,), cost=(1.0,),
                           psi=(1.0,), weight=(1.0,))
    eq = solve_contest(lone)
    assert eq.probs == {"ada": 1.0}
    assert eq.efforts == {"ada": 0.0}
    assert eq.continuation_values == {"ada": 7.0}
    assert eq.total_effort == 0.0
    assert eq.residual == 0.0


def test_mixed_triple_probabilities():
    eq = solve_contest(mixed_triple())
    assert eq.probs["ada"] == pytest.approx(0.3216, abs=1e-3)
    assert eq.probs["bea"] == pytest.approx(0.4867, abs=1e-3)
    assert eq.probs["cal"] == pytest.approx(0.1916, abs=1e-3)
    assert sum(eq.probs.values()) == pytest.approx(1.0, abs=1e-10)
    for aid in eq.probs:
        assert eq.efforts[aid] == pytest.approx(
            eq.probs[aid] * eq.total_effort, abs=1e-12)


def test_first_order_condition_residual():
    """e* must satisfy e^2 = (delta/k) p (1-p) at the solved point."""
    rng = np.random.default_rng(31)
    for _ in range(200):
        instance = random_instance(rng)
        eq = solve_contest(instance)
        for idx, aid in enumerate(instance.ids):
            k = instance.cost[idx] / instance.psi[idx]
            p = eq.probs[aid]
            lhs = eq.efforts[aid] ** 2
            rhs = (instance.delta[idx] / k) * p * (1.0 - p)
            assert abs(lhs - rhs) <= 1e-8


def test_instance_from_scenario_applies_drafting_discount():
    athletes = (
        AthleteRecord(id="ada", t_swim=1800.0, r_swim=1, draft_share=0.5,
                      base_cost=2.0, prize_diff=1.0),
        AthleteRecord(id="bea", t_swim=1800.0, r_swim=2, draft_share=0.0,
                      base_cost=1.0, prize_diff=1.0),
    )
    scenario = Scenario(athletes=athletes,
                        globals=GlobalParams(alpha=0.001, beta=0.01, eta=0.5))
    instance = ContestInstance.from_scenario(scenario)
    assert instance.ids == ("ada", "bea")
    assert instance.psi[0] == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert instance.psi[1] == 1.0
    # Effective slope k = cost / psi.
    assert instance.cost[0] / instance.psi[0] == pytest.approx(1.5, rel=1e-15)


def test_instance_field_overrides():
    base = unit_pair()
    assert base.with_psi("ada", 1.5).psi == (1.5, 1.0)
    assert base.with_delta("bea", 3.0).delta == (1.0, 3.0)
    assert base.with_cost("ada", 0.5).cost == (0.5, 1.0)
    # The original is untouched.
    assert base.psi == (1.0, 1.0)
    with pytest.raises(ValueError):
        base.with_psi("zed", 1.5)
    with pytest.raises(DomainError):
        base.with_psi("ada", -1.0)


def test_solver_settings_validation():
    with pytest.raises(DomainError):
        SolverSettings(abs_tol=0.0)
    with pytest.raises(DomainError):
        SolverSettings(max_iter=0)
    for count in (2.0, True):
        with pytest.raises(DomainError) as err:
            SolverSettings(max_iter=count)
        assert err.value.field == "max_iter"
        assert str(err.value) == f"max_iter must be an integer, got {count!r}"
    # A share mass of one bounds every gap; at abs_tol >= 1 zero effort would pass.
    for tol in (1.0, 2.0, math.inf, 10**400):
        with pytest.raises(DomainError) as err:
            SolverSettings(abs_tol=tol)
        assert err.value.field == "abs_tol"
        assert str(err.value) == f"abs_tol must be below 1, got {tol}"
    for tol in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError, match=r"^abs_tol must be positive, got"):
            SolverSettings(abs_tol=tol)
    assert SolverSettings(abs_tol=0.5).abs_tol == 0.5


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def test_two_player_closed_form_values():
    eq = two_player_equilibrium(unit_pair())
    assert eq.probs["ada"] == pytest.approx(0.5, abs=1e-15)
    assert eq.efforts["ada"] == pytest.approx(0.5, abs=1e-15)

    tilted = ContestInstance(ids=("ada", "bea"), delta=(2.0, 1.0),
                             cost=(1.0, 1.0), psi=(1.0, 1.0),
                             weight=(1.0, 1.0))
    eq = two_player_equilibrium(tilted)
    assert eq.probs["ada"] == pytest.approx(0.58579, abs=1e-5)
    assert eq.probs["ada"] == pytest.approx(0.5857864376269051, abs=1e-14)
    assert eq.efforts["ada"] == pytest.approx(0.69663, abs=1e-5)
    assert eq.efforts["bea"] == pytest.approx(0.49258, abs=1e-5)

    weighted = ContestInstance(ids=("ada", "bea"), delta=(1.0, 1.0),
                               cost=(1.0, 1.0), psi=(1.0, 1.0),
                               weight=(2.0, 1.0))
    eq = two_player_equilibrium(weighted)
    assert eq.probs["ada"] == pytest.approx(2.0 / 3.0, abs=1e-12)


@pytest.mark.xfail(strict=True, reason="Newton stops on an absolute share residual, "
                                       "so a share below abs_tol is noise")
def test_a_tiny_share_matches_the_two_player_closed_form():
    """A rival with prize 1e-30 holds a share of 1e-15; Newton stops at 9.1e-13.

    The total effort reads 1.05e-9 against 3.16e-8, and ``verify_nash``
    passes the solved profile all the same.
    """
    tiny = ContestInstance(ids=("ada", "bea"), delta=(1.0, 1e-30), cost=(1.0, 1.0),
                           psi=(1.0, 1.0), weight=(1.0, 1.0))
    solved, exact = solve_contest(tiny), two_player_equilibrium(tiny)
    assert solved.probs["bea"] == pytest.approx(exact.probs["bea"], rel=1e-9)
    assert solved.total_effort == pytest.approx(exact.total_effort, rel=1e-9)


def test_two_player_closed_form_needs_two_members():
    with pytest.raises(ValueError):
        two_player_equilibrium(mixed_triple())


def test_symmetric_closed_form_values():
    pair = symmetric_equilibrium(2, 1.0, 1.0, 1.0)
    assert pair.effort == 0.5
    assert pair.prob == 0.5

    four = symmetric_equilibrium(4, 1.0, 1.0, 1.0)
    assert four.effort == pytest.approx(0.43301, abs=1e-5)
    assert four.effort == pytest.approx(math.sqrt(3.0) / 4.0, abs=1e-15)

    rich = symmetric_equilibrium(2, 4.0, 1.0, 1.0)
    assert rich.effort == pytest.approx(1.0, abs=1e-15)


def test_symmetric_closed_form_rejects_small_or_fractional_fields():
    with pytest.raises(ValueError):
        symmetric_equilibrium(1, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        symmetric_equilibrium(2.0, 1.0, 1.0, 1.0)


@pytest.mark.parametrize("delta, cost, psi, field, shown", [
    (0.0, 1.0, 1.0, "delta", "0.0"), (1.0, -1.0, 1.0, "cost", "-1.0"),
    (1.0, 1.0, math.nan, "psi", "nan"), (math.inf, 1.0, 1.0, "delta", "inf"),
])
def test_symmetric_closed_form_rejects_bad_values(delta, cost, psi, field, shown):
    with pytest.raises(DomainError) as err:
        symmetric_equilibrium(2, delta, cost, psi)
    assert err.value.field == field
    assert str(err.value) == f"{field} must be positive, got {shown}"


@hyp_settings(max_examples=150, deadline=None)
@given(d1=pos, d2=pos, c1=pos, c2=pos, s1=psis, s2=psis, w1=wts, w2=wts)
def test_duel_closed_form_matches_root_search(d1, d2, c1, c2, s1, s2, w1, w2):
    instance = ContestInstance(ids=("i", "j"), delta=(d1, d2), cost=(c1, c2),
                               psi=(s1, s2), weight=(w1, w2))
    closed = two_player_equilibrium(instance)
    solved = solve_contest(instance)
    assert closed.total_effort == pytest.approx(solved.total_effort, abs=1e-9)
    for aid in ("i", "j"):
        assert closed.efforts[aid] == pytest.approx(solved.efforts[aid], abs=1e-9)
        assert closed.probs[aid] == pytest.approx(solved.probs[aid], abs=1e-9)


@hyp_settings(max_examples=100, deadline=None)
@given(m=st.integers(min_value=2, max_value=12), delta=pos, cost=pos, psi=psis)
def test_symmetric_closed_form_matches_root_search(m, delta, cost, psi):
    sym = symmetric_equilibrium(m, delta, cost, psi)
    instance = ContestInstance(ids=tuple(f"a{i}" for i in range(m)),
                               delta=(delta,) * m, cost=(cost,) * m,
                               psi=(psi,) * m, weight=(1.0,) * m)
    solved = solve_contest(instance)
    assert solved.total_effort == pytest.approx(sym.total_effort, abs=1e-9)
    for aid in instance.ids:
        assert solved.efforts[aid] == pytest.approx(sym.effort, abs=1e-9)
        assert solved.probs[aid] == pytest.approx(sym.prob, abs=1e-9)


# ---------------------------------------------------------------------------
# Best-response oracle
# ---------------------------------------------------------------------------


def test_nash_check_passes_at_equilibrium():
    instance = unit_pair()
    check = verify_nash(instance, solve_contest(instance))
    assert check.passed
    assert check.max_gain <= 1e-8


def test_nash_check_fails_off_equilibrium():
    """Shifting one athlete off the best response leaves money on the table."""
    instance = unit_pair()
    fake = ContestEquilibrium(total_effort=1.1,
                              efforts={"ada": 0.6, "bea": 0.5},
                              probs={"ada": 0.6 / 1.1, "bea": 0.5 / 1.1},
                              continuation_values={"ada": 0.0, "bea": 0.0},
                              residual=0.0)
    check = verify_nash(instance, fake)
    assert not check.passed
    assert check.max_gain > 1e-4
    assert check.worst == "ada"
    # ada's best response to 0.5 is exactly 0.5; the forgone payoff is
    # 0.375 - (0.6/1.1 - 0.18).
    assert check.max_gain == pytest.approx(0.375 - (0.6 / 1.1 - 0.18), abs=1e-6)


def test_nash_check_and_curvature_need_every_member():
    instance = unit_pair()
    partial = ContestEquilibrium(total_effort=0.5, efforts={"ada": 0.5}, probs={"ada": 1.0},
                                 continuation_values={"ada": 0.0}, residual=0.0)
    with pytest.raises(ValueError) as err:
        verify_nash(instance, partial)
    assert str(err.value) == "equilibrium efforts are missing athlete 'bea'"
    with pytest.raises(ValueError) as err:
        payoff_curvature(instance, EffortProfile({"ada": 0.5}), "ada")
    assert str(err.value) == "profile is missing athlete 'bea'"


def test_nash_check_singleton_passes_trivially():
    lone = ContestInstance(ids=("ada",), delta=(7.0,), cost=(1.0,),
                           psi=(1.0,), weight=(1.0,))
    check = verify_nash(lone, solve_contest(lone))
    assert check.passed
    assert check.max_gain == 0.0


def test_nash_check_passes_on_random_instances():
    rng = np.random.default_rng(47)
    for _ in range(60):
        instance = random_instance(rng, weighted=True)
        check = verify_nash(instance, solve_contest(instance))
        assert check.passed, (instance, check)


def profile(efforts: dict[str, float]) -> ContestEquilibrium:
    """An effort profile to check; ``verify_nash`` reads only the efforts."""
    return ContestEquilibrium(total_effort=0.0, efforts=efforts, probs={},
                              continuation_values={}, residual=0.0)


def test_nash_gain_is_exact_on_the_duel():
    """The gain is the exact forgone payoff, not a search's approximation."""
    check = verify_nash(unit_pair(), profile({"ada": 0.6, "bea": 0.5}))
    assert check.worst == "ada"
    assert check.max_gain == pytest.approx(0.375 - (0.6 / 1.1 - 0.18), abs=1e-12)


def low_weight_pair() -> ContestInstance:
    return ContestInstance(ids=("ada", "bea"), delta=(100.0, 1.0), cost=(1.0, 1.0),
                           psi=(1.0, 1.0), weight=(0.01, 1.0))


def test_nash_check_catches_a_low_weight_deviation():
    """A low-weight athlete's effort can exceed any multiple of the weighted aggregate.

    ``ada`` plays 1.3 times its equilibrium effort and ``bea`` best-responds
    to that, so only ``ada`` can gain, by shedding effort.
    """
    instance = low_weight_pair()
    ada = 1.3 * solve_contest(instance).efforts["ada"]
    bea = reference_best_response(1.0, 1.0, 1.0, 0.01 * ada)
    assert (ada, bea) == (pytest.approx(3.7372372347), pytest.approx(0.3098970848))
    check = verify_nash(instance, profile({"ada": ada, "bea": bea}))
    assert not check.passed
    assert check.worst == "ada"
    assert check.max_gain == pytest.approx(0.5914058636, rel=1e-9)


def test_nash_check_on_a_low_weight_equilibrium():
    instance = low_weight_pair()
    solved = solve_contest(instance)
    assert verify_nash(instance, solved).passed
    bent = profile({**solved.efforts, "ada": 1.01 * solved.efforts["ada"]})
    check = verify_nash(instance, bent)
    assert not check.passed
    assert check.worst == "ada"


@pytest.mark.parametrize("scale", [1e10, 1e20, 1e30])
def test_nash_check_holds_at_large_prize_scales(scale):
    """Payoff rounding near ``scale`` is not a gain; a 1% deviation still is."""
    base = mixed_triple()
    instance = ContestInstance(ids=base.ids, delta=tuple(scale * d for d in base.delta),
                               cost=base.cost, psi=base.psi, weight=base.weight)
    solved = solve_contest(instance)
    assert verify_nash(instance, solved).passed
    for aid in instance.ids:
        bent = profile({**solved.efforts, aid: 1.01 * solved.efforts[aid]})
        check = verify_nash(instance, bent)
        assert not check.passed
        assert check.worst == aid


@pytest.mark.parametrize("scale", [1e-10, 1e-20, 1e-30])
def test_nash_check_holds_at_small_prize_scales(scale):
    """The pass rule scales with the payoffs: no absolute floor hides a deviation.

    At three times its equilibrium effort ``ada`` forgoes more than twice
    its own equilibrium payoff, a gain far below 1e-6 at these prizes.
    """
    base = mixed_triple()
    instance = ContestInstance(ids=base.ids, delta=tuple(scale * d for d in base.delta),
                               cost=base.cost, psi=base.psi, weight=base.weight)
    solved = solve_contest(instance)
    assert verify_nash(instance, solved).passed
    for factor in (3.0, 1.01):
        bent = profile({**solved.efforts, "ada": factor * solved.efforts["ada"]})
        check = verify_nash(instance, bent)
        assert not check.passed
        assert check.worst == "ada"
        if factor == 3.0:
            assert check.max_gain > 2.0 * solved.continuation_values["ada"]


def test_nash_check_against_idle_rivals_scales_with_the_prize():
    """With idle rivals the whole effort cost is the gain, judged against the own prize.

    ``bea``'s cost is so high that its exact best response to ``ada`` is
    below ``ada``'s rounding, so ``ada`` faces idle rivals.
    """
    for prize, passed in ((1.0, True), (1e-10, False)):
        bea = contest._best_response(prize, 1e60, 1.0, 1e-4)
        assert 1e-4 + bea == 1e-4
        instance = ContestInstance(ids=("ada", "bea"), delta=(prize, prize), cost=(10.0, 1e60),
                                   psi=(1.0, 1.0), weight=(1.0, 1.0))
        check = verify_nash(instance, profile({"ada": 1e-4, "bea": bea}))
        assert check.max_gain == pytest.approx(5e-8, rel=1e-12)
        assert (check.passed, check.worst) == (passed, "ada")


@pytest.mark.parametrize("columns, field, shown", [
    ({"delta": 1e-200, "weight": 1e-100}, "effective_prize", "0.0"),
    ({"delta": 1e-300, "weight": 1e-10}, "effective_prize", "1e-320"),
    ({"delta": 1e-310}, "effective_prize", "1e-310"),
    ({"cost": 1e300, "psi": 1e-10}, "effective_cost", "inf"),
])
def test_degenerate_effective_parameters_are_domain_errors(columns, field, shown):
    """A zero, subnormal or infinite effective prize or slope is refused at solve time.

    Unchecked, these divide by zero, stall Newton, or leave a NaN bracket.
    """
    values = {"delta": (1.0, 1.0), "cost": (1.0, 1.0), "psi": (1.0, 1.0), "weight": (1.0, 1.0)}
    values.update({name: (1.0, value) for name, value in columns.items()})
    instance = ContestInstance(ids=("ada", "bea"), **values)
    with pytest.raises(DomainError) as err:
        solve_contest(instance)
    assert err.value.field == field
    assert str(err.value).endswith(f"must be a normal finite float, got {shown} (athlete 'bea')")


def test_best_response_matches_a_50_digit_root():
    """The closed form keeps 1e-13 relative precision over 1e±30 parameter scales."""
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(200):
        delta_eff, k = 10.0 ** rng.uniform(-30, 30, size=2)
        weight = 10.0 ** rng.uniform(-3, 3)
        rivals = math.sqrt(delta_eff / k) * 10.0 ** rng.uniform(-15, 15)
        exact = reference_best_response(delta_eff, k, weight, rivals)
        fast = contest._best_response(delta_eff, k, weight, rivals)
        worst = max(worst, abs(fast / exact - 1.0))
    assert worst <= 1e-13


@pytest.mark.parametrize("ratio", [1e-74, 1e-76, 1e-150, 1e-160, 1e-200, 1e-300])
def test_best_response_against_nearly_idle_rivals(ratio):
    """Where ``de / (k R^2)`` passes 1e150 or overflows, the effort is ``cbrt(de R / k)``."""
    delta_eff, k, weight = 2.0, 0.5, 1.5
    rivals = math.sqrt(delta_eff / k) * ratio
    exact = reference_best_response(delta_eff, k, weight, rivals)
    assert contest._best_response(delta_eff, k, weight, rivals) == pytest.approx(exact, rel=1e-13)


@pytest.mark.parametrize("scale", [1e-200, 1e-300])
def test_nash_gain_stays_finite_against_idle_rivals(scale):
    """Rivals at ``scale`` of the own effort: the gain is the whole cost, never NaN."""
    instance = ContestInstance(ids=("ada", "bea"), delta=(1.0, 1.0), cost=(10.0, 1.0),
                               psi=(1.0, 1.0), weight=(1.0, 1.0))
    check = verify_nash(instance, profile({"ada": 0.5, "bea": 0.5 * scale}))
    assert check.worst == "ada"
    assert check.max_gain == pytest.approx(0.5 * 10.0 * 0.25, rel=1e-12)


def test_best_response_is_finite_at_extreme_scales():
    values = [5e-324, 1e-300, 1e-200, 1e-100, 1.0, 1e100, 1e200, 1e300, 1.7e308]
    for delta_eff in (1e-150, 1.0, 1e150):
        for k in (1e-150, 1.0, 1e150):
            for weight in (1e-3, 1.0, 1e3):
                for rivals in values:
                    effort = contest._best_response(delta_eff, k, weight, rivals)
                    assert math.isfinite(effort) and effort >= 0.0, (delta_eff, k, weight, rivals)


# ---------------------------------------------------------------------------
# Curvature
# ---------------------------------------------------------------------------


def test_curvature_values():
    instance = unit_pair()
    report = payoff_curvature(instance, EffortProfile({"ada": 0.5, "bea": 0.5}),
                              "ada")
    assert report.second == pytest.approx(-2.0, abs=1e-12)
    assert report.cross["bea"] == pytest.approx(0.0, abs=1e-12)

    skew = payoff_curvature(instance, EffortProfile({"ada": 0.9, "bea": 0.1}),
                            "ada")
    assert skew.cross["bea"] == pytest.approx(0.8, abs=1e-12)
    assert skew.second == pytest.approx(-2.0 * 0.1 - 1.0, abs=1e-12)


def test_curvature_matches_finite_differences():
    """Exact second-order terms agree with central differences."""
    instance = ContestInstance(ids=("i", "j"), delta=(1.5, 0.8),
                               cost=(1.2, 0.9), psi=(1.3, 1.1),
                               weight=(1.4, 0.7))
    e = {"i": 0.4, "j": 0.7}
    report = payoff_curvature(instance, EffortProfile(e), "i")
    (w_i, w_j), k_i = instance.weight, instance.cost[0] / instance.psi[0]

    def payoff(ei: float, ej: float) -> float:
        return instance.delta[0] * w_i * ei / (w_i * ei + w_j * ej) - 0.5 * k_i * ei * ei

    h = 1e-5
    second_fd = (payoff(e["i"] + h, e["j"]) - 2.0 * payoff(e["i"], e["j"])
                 + payoff(e["i"] - h, e["j"])) / (h * h)
    cross_fd = (payoff(e["i"] + h, e["j"] + h) - payoff(e["i"] + h, e["j"] - h)
                - payoff(e["i"] - h, e["j"] + h)
                + payoff(e["i"] - h, e["j"] - h)) / (4.0 * h * h)
    assert report.second == pytest.approx(second_fd, rel=1e-5)
    assert report.cross["j"] == pytest.approx(cross_fd, rel=1e-5)


def test_curvature_second_term_always_negative():
    rng = np.random.default_rng(53)
    for _ in range(25):
        instance = random_instance(rng, weighted=True)
        efforts = {aid: float(rng.uniform(0.05, 2.0)) for aid in instance.ids}
        report = payoff_curvature(instance, EffortProfile(efforts),
                                  instance.ids[0])
        assert report.second < 0.0
