"""Continuation values, cutoffs, and stable-field search."""

from __future__ import annotations

import dataclasses
import itertools
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

import tricontest.analysis as analysis
import tricontest.contest as contest
import tricontest.entry as entry
from tricontest import (
    AthleteRecord,
    ContestEquilibrium,
    ContestInstance,
    GlobalParams,
    NetBenefit,
    Scenario,
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
    solve_contest,
    subset_equilibrium,
    sweep,
)

from helpers import (
    pair_ratios,
    pair_scenario,
    random_scenario,
    reference_cutoff,
    reference_equilibrium,
    reference_is_stable,
    reference_instance,
    reference_iteration,
    reference_net_benefit,
    reference_pair_stable_sets,
    reference_stable_sets,
    selective_scenario,
    share_stable_sets,
    sweep_stable_sets,
)

ALPHA, BETA, T_SWIM = 0.001, 0.01, 1800.0


def theta_for(outside: float, rank: int) -> float:
    """theta that pins the outside option of an athlete at ``outside``."""
    return outside + ALPHA * T_SWIM + BETA * rank


def pair_with_outside(u_ada: float, u_bea: float, **kwargs) -> Scenario:
    return pair_scenario(theta=(theta_for(u_ada, 1), theta_for(u_bea, 2)),
                         **kwargs)


def triple_scenario() -> Scenario:
    athletes = (
        AthleteRecord(id="ada", t_swim=T_SWIM, r_swim=1, draft_share=0.0,
                      base_cost=1.0, prize_diff=1.0),
        AthleteRecord(id="bea", t_swim=T_SWIM, r_swim=2, draft_share=0.0,
                      base_cost=1.0, prize_diff=2.0),
        AthleteRecord(id="cal", t_swim=T_SWIM, r_swim=3, draft_share=0.0,
                      base_cost=2.0, prize_diff=1.0),
    )
    return Scenario(athletes=athletes,
                    globals=GlobalParams(alpha=ALPHA, beta=BETA, eta=0.5))


def cutoff_scenario(u_ada: float) -> Scenario:
    """Symmetric pair with search bounds wider than the drag range."""
    athletes = (
        AthleteRecord(id="ada", t_swim=T_SWIM, r_swim=1, draft_share=0.0,
                      base_cost=1.0, prize_diff=1.0,
                      theta=theta_for(u_ada, 1)),
        AthleteRecord(id="bea", t_swim=T_SWIM, r_swim=2, draft_share=0.0,
                      base_cost=1.0, prize_diff=1.0),
    )
    params = GlobalParams(alpha=ALPHA, beta=BETA, eta=0.5,
                          psi_bounds=(0.5, 2.0))
    return Scenario(athletes=athletes, globals=params)


# ---------------------------------------------------------------------------
# Continuation values and net benefits
# ---------------------------------------------------------------------------


def test_pair_continuation_value():
    scenario = pair_with_outside(0.0, 0.0)
    assert subset_equilibrium(scenario, ("ada", "bea")).continuation_values["ada"] == \
        pytest.approx(0.375, abs=1e-12)


def test_singleton_continuation_value_is_the_prize():
    scenario = pair_with_outside(0.0, 0.0)
    assert subset_equilibrium(scenario, ("ada",)).continuation_values["ada"] == 1.0


def test_triple_continuation_value_matches_reference():
    scenario = triple_scenario()
    value = subset_equilibrium(scenario, scenario.ids).continuation_values["bea"]
    assert value == pytest.approx(0.7236, abs=1e-3)

    total, efforts, probs = reference_equilibrium(
        delta=[1.0, 2.0, 1.0], cost=[1.0, 1.0, 2.0], psi=[1.0, 1.0, 1.0])
    expected = probs[1] * 2.0 - 0.5 * 1.0 * efforts[1] ** 2
    assert value == pytest.approx(expected, abs=1e-9)


def test_net_benefit_values():
    scenario = pair_with_outside(0.1, 0.0)
    report = net_benefit(scenario, ("ada", "bea"), "ada")
    assert report.outside == pytest.approx(0.1, abs=1e-12)
    assert report.value == pytest.approx(0.275, abs=1e-12)

    boundary = pair_with_outside(0.375, 0.0)
    report = net_benefit(boundary, ("ada", "bea"), "ada")
    assert report.value == pytest.approx(0.0, abs=1e-12)


def test_net_benefit_extends_the_field_for_outsiders():
    """An outsider is judged on the field that would include them."""
    scenario = pair_with_outside(0.0, 0.2)
    report = net_benefit(scenario, ("ada",), "bea")
    assert report.members == ("ada", "bea")
    assert report.continuation == pytest.approx(0.375, abs=1e-12)
    assert report.value == pytest.approx(0.175, abs=1e-12)
    # Against the empty field the outsider is alone: ``delta - o``.
    alone = net_benefit(scenario, (), "bea")
    assert (alone.members, alone.continuation) == (("bea",), 1.0)
    assert alone.value == 1.0 - alone.outside == pytest.approx(0.8, abs=1e-12)


def test_net_benefit_values_a_lone_field_without_a_solve(monkeypatch):
    """Alone, the athlete is valued at ``delta - o`` with no contest built or solved."""
    scenario = pair_with_outside(0.0, 0.2)
    leave = outside_option(scenario.record("bea"), scenario.globals)
    fields = count_solves(monkeypatch)
    for members in ((), ("bea",)):
        assert net_benefit(scenario, members, "bea") == NetBenefit(
            athlete_id="bea", members=("bea",), continuation=1.0, outside=leave,
            value=1.0 - leave)
    assert fields == []


def test_net_benefit_unknown_athlete():
    scenario = pair_with_outside(0.0, 0.0)
    with pytest.raises(ValueError):
        net_benefit(scenario, ("ada",), "zed")


def test_subset_equilibrium_validates_members():
    scenario = pair_with_outside(0.0, 0.0)
    assert subset_equilibrium(scenario, ("bea", "ada")) == \
        subset_equilibrium(scenario, ("ada", "bea"))
    assert subset_equilibrium(scenario, ()) == ContestEquilibrium(0.0, {}, {}, {}, 0.0)
    with pytest.raises(ValueError):
        subset_equilibrium(scenario, ("zed",))


# ---------------------------------------------------------------------------
# Cutoffs
# ---------------------------------------------------------------------------


def test_cutoff_interior_at_symmetry():
    """Outside option pinned at the symmetric payoff puts the cutoff at 1."""
    result = cutoff_psi(cutoff_scenario(0.375), ("ada", "bea"), "ada")
    assert result.verdict == "interior"
    assert result.psi_star == pytest.approx(1.0, abs=1e-6)


def test_cutoff_always_continue():
    result = cutoff_psi(cutoff_scenario(-10.0), ("ada", "bea"), "ada")
    assert result.verdict == "always_continue"
    assert result.psi_star is None


def test_cutoff_always_withdraw():
    result = cutoff_psi(cutoff_scenario(10.0), ("ada", "bea"), "ada")
    assert result.verdict == "always_withdraw"
    assert result.psi_star is None


def test_cutoff_requires_membership():
    with pytest.raises(ValueError):
        cutoff_psi(cutoff_scenario(0.375), ("bea",), "ada")


@pytest.mark.parametrize("athlete", ["ada", "zed"])
def test_cutoff_and_curve_share_the_membership_check(athlete):
    scenario = cutoff_scenario(0.375)
    message = f"athlete {athlete!r} is not in the member set"
    for members in (("bea",), ()):
        with pytest.raises(ValueError, match=f"^{message}$"):
            cutoff_psi(scenario, members, athlete)
        with pytest.raises(ValueError, match=f"^{message}$"):
            net_benefit_curve(scenario, members, athlete, [1.0])


def test_cutoff_moves_with_prize_and_cost():
    """A better prize lowers the indifference point; a worse cost raises it."""
    base = cutoff_scenario(0.375)
    at_one = cutoff_psi(base, ("ada", "bea"), "ada").psi_star

    def tweak(**fields) -> Scenario:
        ada = dataclasses.replace(base.athletes[0], **fields)
        return dataclasses.replace(base, athletes=(ada, base.athletes[1]))

    richer = cutoff_psi(tweak(prize_diff=1.1), ("ada", "bea"), "ada")
    assert richer.verdict == "interior"
    assert richer.psi_star < at_one

    slower = cutoff_psi(tweak(base_cost=1.1), ("ada", "bea"), "ada")
    assert slower.verdict == "interior"
    assert slower.psi_star > at_one


def edge_scenario(u_ada: float, prize: float = 1.0) -> Scenario:
    """Pair in which ada, with prize ``prize``, has outside option exactly ``u_ada``.

    With no swim time and ``beta = 0.5`` at rank 1 the outside option is
    ``theta - 0.5``, exact for the dyadic values the table uses.
    """
    athletes = (
        AthleteRecord(id="ada", t_swim=0.0, r_swim=1, draft_share=0.0,
                      base_cost=1.0, prize_diff=prize, theta=u_ada + 0.5),
        AthleteRecord(id="bea", t_swim=0.0, r_swim=2, draft_share=0.0,
                      base_cost=1.0, prize_diff=1.0),
    )
    params = GlobalParams(alpha=0.5, beta=0.5, eta=0.5, psi_bounds=(0.5, 2.0))
    return Scenario(athletes=athletes, globals=params)


# ada's outside option and prize, the field, the verdict, and the root
# solves it takes.  In the unit pair, psi* = (p* / (1 - p*))^2: 0.068 at
# o = 1/8, 1 at o = 3/8 and 21.7 at o = 3/4, against the bounds (0.5, 2).
# With a prize of 2^20 an outside option of 2^-53 puts p* below half an ulp
# of one, so the others' solve targets a share mass of exactly one.
CUTOFF_EDGES = [
    (-0.25, 1.0, ("ada", "bea"), entry.ALWAYS_CONTINUE, 0),
    (0.0, 1.0, ("ada", "bea"), entry.ALWAYS_CONTINUE, 0),
    (0.75, 1.0, ("ada",), entry.ALWAYS_CONTINUE, 0),
    (1.0, 1.0, ("ada",), entry.ALWAYS_CONTINUE, 0),
    (1.25, 1.0, ("ada",), entry.ALWAYS_WITHDRAW, 0),
    (1.0, 1.0, ("ada", "bea"), entry.ALWAYS_WITHDRAW, 0),
    (1.25, 1.0, ("ada", "bea"), entry.ALWAYS_WITHDRAW, 0),
    (0.125, 1.0, ("ada", "bea"), entry.ALWAYS_CONTINUE, 1),
    (0.375, 1.0, ("ada", "bea"), entry.INTERIOR, 1),
    (0.75, 1.0, ("ada", "bea"), entry.ALWAYS_WITHDRAW, 1),
    (2.0 ** -53, 2.0 ** 20, ("ada", "bea"), entry.ALWAYS_CONTINUE, 1),
]


@pytest.mark.parametrize("outside, prize, members, verdict, solves", CUTOFF_EDGES,
                         ids=[f"{o}-{p}-{'+'.join(m)}" for o, p, m, _, _ in CUTOFF_EDGES])
def test_cutoff_knife_edges(monkeypatch, outside, prize, members, verdict, solves):
    """Each case of the rule, with one root solve only when ``0 < o < delta`` in company."""
    scenario = edge_scenario(outside, prize)
    assert outside_option(scenario.athletes[0], scenario.globals) == outside
    assert reference_cutoff(scenario, members, "ada")[0] == verdict
    newton, calls = contest._newton, []

    def counted(*args):
        calls.append(args)
        return newton(*args)

    monkeypatch.setattr(contest, "_newton", counted)
    monkeypatch.setattr(entry, "_newton", counted, raising=False)
    result = cutoff_psi(scenario, members, "ada")
    assert (result.verdict, len(calls)) == (verdict, solves)
    if verdict == entry.INTERIOR:
        assert result.psi_star == pytest.approx(1.0, rel=1e-12)
    else:
        assert result.psi_star is None


def weighted(rng: np.random.Generator, scenario: Scenario) -> Scenario:
    """The scenario with lottery weights drawn from [0.5, 2]."""
    return dataclasses.replace(scenario, athletes=tuple(
        dataclasses.replace(rec, weight=float(rng.uniform(0.5, 2.0)))
        for rec in scenario.athletes))


def test_cutoff_matches_the_bisection_reference():
    """Closed-form verdicts equal the bisection's; interior cutoffs agree to its tolerance."""
    rng = np.random.default_rng(1212)
    interior = 0
    for draw in range(2000):
        scenario = random_scenario(rng, eta=float(rng.uniform(0.2, 0.8)))
        if draw % 2:
            scenario = weighted(rng, scenario)
        n = len(scenario.ids)
        i = int(rng.integers(n))
        keep = rng.random(n) < 0.6
        keep[i] = True
        members = tuple(itertools.compress(scenario.ids, keep))
        result = cutoff_psi(scenario, members, scenario.ids[i])
        verdict, psi_star = reference_cutoff(scenario, members, scenario.ids[i])
        assert result.verdict == verdict
        if verdict == entry.INTERIOR:
            interior += 1
            assert result.psi_star == pytest.approx(psi_star, rel=1e-8)
    assert interior >= 100


def mp_cutoff(scenario: Scenario, athlete_id: str):
    """Root in the own multiplier of the net benefit over the full field, at 50 digits.

    Each evaluation solves the aggregate equation and prices the payoff
    ``p delta - k e^2 / 2`` directly, not through the share identity.
    """
    instance = ContestInstance.from_scenario(scenario)
    i = instance.index(athlete_id)
    leave = mp.mpf(outside_option(scenario.record(athlete_id), scenario.globals))
    de = [mp.mpf(d) * mp.mpf(w) ** 2 for d, w in zip(instance.delta, instance.weight)]

    def net(psi):
        k = [mp.mpf(c) / (psi if j == i else mp.mpf(s))
             for j, (c, s) in enumerate(zip(instance.cost, instance.psi))]
        t = mp.findroot(lambda t: mp.fsum(d / (kk * t + d) for kk, d in zip(k, de)) - 1,
                        (mp.mpf(0), mp.fsum(d / kk for d, kk in zip(de, k))),
                        solver="anderson")
        p = de[i] / (k[i] * t + de[i])
        e = p * mp.sqrt(t) / instance.weight[i]
        return p * instance.delta[i] - k[i] * e * e / 2 - leave

    lo, hi = scenario.globals.psi_bounds
    return mp.findroot(net, (mp.mpf(lo), mp.mpf(hi)), solver="anderson")


def test_cutoff_matches_a_50_digit_root():
    rng = np.random.default_rng(5150)
    errors = []
    with mp.workdps(50):
        while len(errors) < 50:
            scenario = weighted(rng, random_scenario(rng, eta=float(rng.uniform(0.2, 0.8))))
            aid = scenario.ids[0]
            result = cutoff_psi(scenario, scenario.ids, aid)
            if result.verdict == entry.INTERIOR:
                root = mp_cutoff(scenario, aid)
                errors.append(float(abs(result.psi_star - root) / root))
    assert max(errors) <= 1e-11


@pytest.mark.parametrize("gap", [1e-3, 1e-6, 1e-9, 1e-12])
def test_cutoff_keeps_its_digits_as_the_outside_option_nears_the_prize(gap):
    """In the unit pair ``psi* = (p* / (1 - p*))^2``; ``1 - p*`` is about ``2 gap / 3`` here."""
    base = edge_scenario(1.0 - gap)
    scenario = dataclasses.replace(base, globals=dataclasses.replace(
        base.globals, psi_bounds=(1e-6, 1e40)))
    leave = outside_option(scenario.athletes[0], scenario.globals)
    with mp.workdps(50):
        p_star = (mp.sqrt(1 + 8 * mp.mpf(leave)) - 1) / 2
        exact = (p_star / (1 - p_star)) ** 2
        result = cutoff_psi(scenario, scenario.ids, "ada")
        assert result.verdict == entry.INTERIOR
        assert float(abs(result.psi_star - exact) / exact) <= 1e-12


def test_net_benefit_curve_nondecreasing():
    """The stay-versus-leave margin never falls as drafting improves."""
    rng = np.random.default_rng(89)
    for _ in range(10):
        scenario = random_scenario(rng)
        lo, hi = scenario.globals.psi_bounds
        grid = np.linspace(lo, hi, 50)
        curve = net_benefit_curve(scenario, scenario.ids,
                                  scenario.athletes[0].id, grid)
        assert all(b - a >= -1e-9 for a, b in zip(curve, curve[1:]))
        assert curve[-1] > curve[0]


# ---------------------------------------------------------------------------
# Stable fields
# ---------------------------------------------------------------------------


def test_is_equilibrium_set_direct_checks():
    low = pair_with_outside(0.0, 0.0)
    assert is_equilibrium_set(low, ("ada", "bea"))
    # A lone field is unstable: the outsider would profit from entering.
    assert not is_equilibrium_set(low, ("ada",))

    skewed = pair_with_outside(0.0, 10.0)
    assert is_equilibrium_set(skewed, ("ada",))
    assert not is_equilibrium_set(skewed, ("ada", "bea"))

    # The empty field is stable iff no lone deviator gains: every ``o_i >= delta_i``.
    assert not is_equilibrium_set(low, ()) and not is_equilibrium_set(skewed, ())
    assert is_equilibrium_set(pair_with_outside(10.0, 10.0, delta=(1.0, 2.0)), ())


def test_enumerate_low_outside_pair():
    assert enumerate_equilibrium_sets(pair_with_outside(0.0, 0.0)) == \
        [("ada", "bea")]


def test_enumerate_high_outside_rival():
    assert enumerate_equilibrium_sets(pair_with_outside(0.0, 10.0)) == \
        [("ada",)]


def test_enumerate_everyone_out():
    """Every outside option beats its prize: the empty field is the one stable set."""
    assert enumerate_equilibrium_sets(pair_with_outside(10.0, 10.0)) == [()]


def test_enumerate_two_singletons_in_order():
    """Middling outside options make each lone field stable, nothing else."""
    scenario = pair_with_outside(0.5, 0.5)
    assert enumerate_equilibrium_sets(scenario) == [("ada",), ("bea",)]


def test_enumerate_respects_size_cap():
    # Past the cap every enumerating call names both ways out, in one message.
    scenario = random_scenario(np.random.default_rng(0), n=13)
    message = ("enumeration over 13 athletes needs 2^13 subset solves; "
               "use mode 'iterative' or iterate_continuation_operator")
    with pytest.raises(ValueError) as err:
        enumerate_equilibrium_sets(scenario)
    assert str(err.value) == message
    for mode in ("first", "all"):
        with pytest.raises(ValueError) as err:
            assemble_spe(scenario, mode=mode)
        assert str(err.value) == message
    assert assemble_spe(scenario, mode="iterative")[0].method == "iteration"


def athlete_with_outside(aid: str, rank: int, outside: float,
                         prize: float = 1.0, cost: float = 1.0) -> AthleteRecord:
    """Athlete whose outside option, under ``exact_globals``, is exactly ``outside``."""
    return AthleteRecord(id=aid, t_swim=2.0, r_swim=rank, draft_share=0.0,
                         base_cost=cost, prize_diff=prize,
                         theta=1.0 + 0.25 * rank + outside)


def exact_globals() -> GlobalParams:
    """Swim terms that are exact in binary, so ``theta`` sets the outside option exactly."""
    return GlobalParams(alpha=0.5, beta=0.25, eta=0.5)


def test_an_outside_option_of_zero_does_not_force_entry():
    """A payoff that underflows to 0 leaves an athlete free to stay out."""
    scenario = Scenario(athletes=(
        athlete_with_outside("ada", 1, 0.1),
        athlete_with_outside("bea", 2, 0.0, prize=1e-150, cost=1e150),
        athlete_with_outside("cal", 3, 0.1),
    ), globals=exact_globals())
    assert net_benefit(scenario, ("ada", "cal"), "bea").value == 0.0
    assert enumerate_equilibrium_sets(scenario) == \
        [("ada", "bea", "cal"), ("ada", "cal")] == sweep_stable_sets(scenario)


def test_search_when_every_athlete_is_forced(monkeypatch):
    fields = count_solves(monkeypatch)
    scenario = Scenario(athletes=tuple(athlete_with_outside(f"a{i}", i + 1, -0.25 * i)
                                       for i in range(1, 6)), globals=exact_globals())
    assert enumerate_equilibrium_sets(scenario) == [scenario.ids]
    assert fields == [scenario.ids]
    assert sweep_stable_sets(scenario) == [scenario.ids]


def test_search_when_no_athlete_is_forced():
    scenario = Scenario(athletes=tuple(athlete_with_outside(f"a{i}", i + 1, 0.05 * i)
                                       for i in range(1, 6)), globals=exact_globals())
    stable = enumerate_equilibrium_sets(scenario)
    assert stable == sweep_stable_sets(scenario) == reference_stable_sets(scenario)
    assert stable


def test_search_when_no_field_is_stable():
    """No field with members is stable, so the search returns the empty one alone.

    A lone deviator from the empty field gets ``delta_i - o_i < 0``, so nobody
    enters; ``bea``'s larger prize no longer singles her out.
    """
    scenario = pair_with_outside(10.0, 10.0, delta=(1.0, 2.0))
    assert enumerate_equilibrium_sets(scenario) == [()] == sweep_stable_sets(scenario) \
        == reference_stable_sets(scenario) == reference_pair_stable_sets(scenario)
    results = assemble_spe(scenario, mode="all")
    assert [(r.members, r.method) for r in results] == [((), "enumeration")]


def dyadic_field(rng: np.random.Generator, n: int, kind: str) -> Scenario:
    """``n`` athletes with dyadic prizes and outside options, pinned exactly by ``exact_globals``.

    ``kind`` sets the outside option over the prize: ``"all_leave"`` draws 1, 1.25 or 1.5 (so
    every ``o_i >= delta_i``), ``"knife"`` draws one exact 1 and the rest from -0.25 to 0.75,
    and ``"random"`` draws multiples of 1/32 from -0.25 to 1.25.
    """
    if kind == "all_leave":
        ratios = rng.choice([1.0, 1.25, 1.5], size=n)
    elif kind == "knife":
        ratios = rng.choice([-0.25, 0.25, 0.5, 0.75], size=n)
        ratios[rng.integers(n)] = 1.0
    else:
        ratios = rng.integers(-8, 41, size=n) / 32.0
    athletes = []
    for i, ratio in enumerate(ratios):
        prize = float(rng.integers(4, 17)) / 8.0
        record = athlete_with_outside(f"a{i}", i + 1, prize * float(ratio), prize=prize,
                                      cost=float(rng.uniform(0.5, 2.0)))
        athletes.append(dataclasses.replace(record, draft_share=float(rng.uniform(0.0, 1.0))))
    return weighted(rng, Scenario(athletes=tuple(athletes), globals=exact_globals()))


def test_the_direct_check_confirms_exactly_the_enumerated_sets():
    """For every subset, the empty one included, ``is_equilibrium_set`` holds iff the search
    returns it: on random fields, on fields where everyone leaves and on knife edges
    ``o_i == delta_i`` (n = 2 to 6)."""
    rng = np.random.default_rng(2424)
    counts = {"empty": 0, "edges": 0}
    for draw in range(300):
        kind = ("random", "all_leave", "knife")[draw % 3]
        scenario = dyadic_field(rng, int(rng.integers(2, 7)), kind)
        stable = enumerate_equilibrium_sets(scenario)
        ids = sorted(scenario.ids)
        for size in range(len(ids) + 1):
            for members in itertools.combinations(ids, size):
                assert is_equilibrium_set(scenario, members) == (members in stable), \
                    (draw, kind, members, stable)
        gaps = [rec.prize_diff - outside_option(rec, scenario.globals)
                for rec in scenario.athletes]
        assert (() in stable) == (max(gaps) <= 0.0)
        counts["empty"] += () in stable
        counts["edges"] += 0.0 in gaps
    assert counts["empty"] >= 100 and counts["edges"] >= 100


def test_the_share_predicates_decide_exactly_the_enumerated_sets():
    """``helpers.share_stable_sets``, which solves no contest, returns exactly the search's
    sets on 300 random fields (n = 2 to 10) and 100 selective ones (n = 12), skipping any
    field with a predicate within 1e-9 of its threshold, and on 200 dyadic fields whose
    ties ``o_i == delta_i`` are exact (knife edges and all-leave fields), with no skip."""
    rng = np.random.default_rng(2525)
    draws = ((300, lambda: random_scenario(rng, n=int(rng.integers(2, 11)))),
             (100, lambda: selective_scenario(rng)))
    for count, draw in draws:
        checked = skipped = 0
        while checked < count:
            scenario = draw()
            found, margin = share_stable_sets(scenario)
            if margin <= 1e-9:
                skipped += 1
                continue
            assert found == enumerate_equilibrium_sets(scenario), scenario
            checked += 1
        assert skipped <= count // 10
    for index in range(200):
        scenario = dyadic_field(rng, int(rng.integers(2, 7)), ("knife", "all_leave")[index % 2])
        assert share_stable_sets(scenario)[0] == enumerate_equilibrium_sets(scenario), index


def test_full_sweep_stays_on_the_pair_map():
    """``sweep(stage="full")`` over one athlete's draft share picks a field of the pair's
    closed-form map at every point off its boundaries, and the only one where it has one.

    Random weighted pairs as in ``test_pair_map_matches_the_search_and_the_cutoffs``; each
    sweeps the first athlete's draft share over 9 points for each of 9 of the second's.
    """
    rng = np.random.default_rng(2121)
    grid = [float(d) for d in np.linspace(0.0, 1.0, 9)]
    counts = {"points": 0, "two": 0}
    for _ in range(60):
        base = weighted(rng, random_scenario(rng, n=2, eta=0.9, outside=(0.02, 0.6)))
        one, two = base.athletes
        for d_2 in grid:
            other = dataclasses.replace(two, draft_share=d_2)
            swept = dataclasses.replace(base, athletes=(one, other))
            records = sweep(swept, f"athletes.{one.id}.draft_share", grid, stage="full")
            for d_1, record in zip(grid, records):
                scenario = dataclasses.replace(swept, athletes=(
                    dataclasses.replace(one, draft_share=d_1), other))
                rho, r_1, r_2 = pair_ratios(scenario)
                if min(abs(rho / r_1 - 1.0), abs(rho * r_2 - 1.0)) <= 1e-9:
                    continue
                stable = reference_pair_stable_sets(scenario)
                assert record.members in stable
                if len(stable) == 1:
                    assert [record.members] == stable
                counts["points"] += 1
                counts["two"] += len(stable) == 2
    assert counts["points"] >= 4800 and counts["two"] >= 100


def test_pair_map_matches_the_search_and_the_cutoffs():
    """A pair's stable fields and cutoffs follow its closed-form map in ``rho = psi_1 / psi_2``.

    Random weighted pairs with outside options inside the prize are swept over a 9 x 9 grid
    of draft shares.  Points within 1e-9 of a boundary of the map are ties and skipped.
    Where both lone fields are stable, ``p*_1 + p*_2 > 1``.  Each boundary is the other
    athlete's cutoff: ``psi*_1 = psi_2 r_1`` and ``psi*_2 = psi_1 r_2``.
    """
    rng = np.random.default_rng(2121)
    grid = np.linspace(0.0, 1.0, 9)
    counts = {"points": 0, "two": 0, "interior": 0}
    for _ in range(60):
        base = weighted(rng, random_scenario(rng, n=2, eta=0.9, outside=(0.02, 0.6)))
        p_star = [entry._needed_share(outside_option(rec, base.globals), rec.prize_diff)[0]
                  for rec in base.athletes]
        for d_1, d_2 in itertools.product(grid, grid):
            scenario = dataclasses.replace(base, athletes=tuple(
                dataclasses.replace(rec, draft_share=float(d))
                for rec, d in zip(base.athletes, (d_1, d_2))))
            rho, r_1, r_2 = pair_ratios(scenario)
            if min(abs(rho / r_1 - 1.0), abs(rho * r_2 - 1.0)) <= 1e-9:
                continue
            stable = enumerate_equilibrium_sets(scenario)
            assert stable == reference_pair_stable_sets(scenario)
            counts["points"] += 1
            if len(stable) == 2:
                counts["two"] += 1
                assert p_star[0] + p_star[1] > 1.0
            psi = [drafting_multiplier(rec.draft_share, 0.9) for rec in scenario.athletes]
            lo, hi = scenario.globals.psi_bounds
            for i, boundary in enumerate((psi[1] * r_1, psi[0] * r_2)):
                if min(abs(boundary / lo - 1.0), abs(boundary / hi - 1.0)) <= 1e-9:
                    continue
                result = cutoff_psi(scenario, scenario.ids, scenario.ids[i])
                if boundary <= lo:
                    assert result.verdict == entry.ALWAYS_CONTINUE
                elif boundary > hi:
                    assert result.verdict == entry.ALWAYS_WITHDRAW
                else:
                    counts["interior"] += 1
                    assert result.psi_star == pytest.approx(boundary, rel=1e-9)
    assert counts["points"] >= 4800 and counts["two"] >= 100 and counts["interior"] >= 1000


def test_symmetric_stable_sets_follow_the_group_size_law():
    """``n`` identical athletes: a member is content iff ``1/m >= p*`` and an outsider stays
    out iff ``1/(m + 1) <= p*``, so the stable sets are exactly the subsets of size
    ``m* = min(n, floor(1/p*))``.  ``o / delta`` is drawn log-uniform in 0.005 to 0.99;
    draws with ``1/p*`` within 1e-9 of an integer, where size ``m* - 1`` is stable too, are
    skipped.  With every outside option above the prize only the empty field is stable."""
    rng = np.random.default_rng(3131)
    sizes = set()
    for _ in range(150):
        n = int(rng.integers(2, 11))
        prize, cost = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0))
        ratio = float(np.exp(rng.uniform(np.log(0.005), np.log(0.99))))
        record = athlete_with_outside("a", 1, ratio * prize, prize=prize, cost=cost)
        scenario = Scenario(athletes=tuple(dataclasses.replace(record, id=f"a{i}")
                                           for i in range(n)), globals=exact_globals())
        leave = outside_option(record, scenario.globals)
        inverse = 2.0 / (math.sqrt(1.0 + 8.0 * leave / prize) - 1.0)
        if abs(inverse - round(inverse)) <= 1e-9:
            continue
        size = min(n, math.floor(inverse))
        sizes.add(size)
        assert enumerate_equilibrium_sets(scenario) == \
            list(itertools.combinations(scenario.ids, size)), (n, ratio)
    assert sizes >= set(range(1, 11))
    everyone_out = Scenario(athletes=tuple(athlete_with_outside(f"a{i}", 1, 1.25)
                                           for i in range(4)), globals=exact_globals())
    assert enumerate_equilibrium_sets(everyone_out) == [()]


def test_the_best_reply_iteration_ends_at_the_greedy_field():
    """``iterate_continuation_operator`` settles on ``_greedy``'s field, on 420 random fields
    of 2 to 10 athletes, 100 selective twelve-athlete fields, and the random pairs where both
    lone fields are stable, so that greedy's field is one of two SPEs."""
    rng = np.random.default_rng(909)
    scenarios = [random_scenario(rng, n=int(rng.integers(2, 11)),
                                 outside=[(-0.3, 0.9), (0.01, 0.1), (0.3, 1.05)][k % 3])
                 for k in range(420)]
    scenarios += [selective_scenario(rng) for _ in range(100)]
    pairs = [weighted(rng, random_scenario(rng, n=2, eta=0.9, outside=(0.3, 0.6)))
             for _ in range(200)]
    pairs = [pair for pair in pairs if len(reference_pair_stable_sets(pair)) == 2]
    assert len(pairs) >= 40
    methods = []
    for scenario in scenarios + pairs:
        fields = entry._Fields(scenario._columns, scenario.settings)
        outcome = iterate_continuation_operator(scenario)
        assert outcome.members == fields.members(entry._greedy(fields)), scenario
        methods.append(outcome.method)
    assert min(methods.count("fixed_point"), methods.count("greedy")) >= 40


def test_iterate_fixed_point_in_one_round():
    outcome = iterate_continuation_operator(pair_with_outside(0.0, 0.0))
    assert outcome.method == "fixed_point"
    assert outcome.members == ("ada", "bea")
    assert outcome.trace[0] == ("ada", "bea")
    assert len(outcome.trace) == 2


def test_iterate_sheds_the_reluctant_rival():
    outcome = iterate_continuation_operator(pair_with_outside(0.0, 10.0))
    assert outcome.method == "fixed_point"
    assert outcome.members == ("ada",)
    assert len(outcome.trace) <= 3


@pytest.mark.parametrize("delta", [(1.0, 1.0), (1.0, 2.0)])
def test_iterate_ends_at_the_empty_field(delta):
    """Everyone leaves the full field, and the greedy field is empty: nobody's prize pays."""
    outcome = iterate_continuation_operator(pair_with_outside(10.0, 10.0, delta=delta))
    assert outcome.trace == (("ada", "bea"), ())
    assert (outcome.members, outcome.method) == ((), "greedy")


def test_iterate_cycle_falls_back_to_the_greedy_field():
    """The full field drives out everyone but the forced ``ada``, who alone invites both back.

    ``ada`` joins first (a negative outside option never leaves), then
    ``cal``, whose outside option rounds to just below ``bea``'s 0.3;
    ``bea`` would make the field of three, which drives both out again.
    """
    scenario = Scenario(athletes=(
        athlete_with_outside("ada", 1, -0.25),
        athlete_with_outside("bea", 2, 0.3),
        athlete_with_outside("cal", 3, 0.3),
    ), globals=exact_globals())
    outcome = iterate_continuation_operator(scenario)
    assert outcome.trace == (("ada", "bea", "cal"), ("ada",), ("ada", "bea", "cal"))
    assert outcome.method == "greedy"
    assert outcome.members == ("ada", "cal")
    assert enumerate_equilibrium_sets(scenario) == [("ada", "bea"), ("ada", "cal")]


def test_iterate_ends_at_a_stable_field_after_an_empty_round():
    """Everyone leaves the full field, yet a pair is stable: the greedy field, not a lone athlete."""
    scenario = random_scenario(np.random.default_rng(32), n=3)
    outcome = iterate_continuation_operator(scenario)
    assert outcome.trace == (("a00", "a01", "a02"), ())
    assert (outcome.members, outcome.method) == (("a00", "a02"), "greedy")
    assert enumerate_equilibrium_sets(scenario) == [("a00", "a02")]
    spe, = assemble_spe(scenario, mode="iterative")
    assert (spe.members, spe.method) == (("a00", "a02"), "greedy")
    assert is_equilibrium_set(scenario, spe.members)


@pytest.mark.parametrize("outsides, prizes, members", [
    # o <= 0 never leaves: both join first, in scenario order, then cal fits too.
    ((-0.25, 0.0, 0.1), (1.0, 1.0, 1.0), ("ada", "bea", "cal")),
    # A lone o == delta is content at a net benefit of exactly 0.
    ((1.0, 1.5), (1.0, 1.0), ("ada",)),
    # o > delta never joins a field, however small.
    ((0.1, 1.5, 0.2), (1.0, 1.0, 1.0), ("ada", "cal")),
])
def test_greedy_field_at_the_threshold_edges(outsides, prizes, members):
    scenario = Scenario(athletes=tuple(
        athlete_with_outside(aid, rank, outside, prize=prize)
        for rank, (aid, outside, prize) in enumerate(zip(("ada", "bea", "cal"), outsides,
                                                         prizes), start=1)),
        globals=exact_globals())
    fields = entry._Fields(scenario._columns, scenario.settings)
    assert fields.members(entry._greedy(fields)) == members
    assert reference_is_stable(scenario, members)


def test_greedy_threshold_of_a_subnormal_outside_ratio():
    """``o / delta`` is subnormal and ``k p*`` underflows to 0: the threshold is infinite."""
    params = GlobalParams(alpha=1e-301, beta=1e-301, eta=0.5)
    scenario = Scenario(athletes=(
        AthleteRecord(id="ada", t_swim=2.0, r_swim=1, draft_share=0.0, base_cost=1e-20,
                      prize_diff=1e10, theta=4e-301),
        AthleteRecord(id="bea", t_swim=2.0, r_swim=2, draft_share=0.0, base_cost=1.0,
                      prize_diff=1.0, theta=0.5),
    ), globals=params)
    fields = entry._Fields(scenario._columns, scenario.settings)
    assert 0.0 < fields.outside[0] / 1e10 < sys.float_info.min
    assert fields.members(entry._greedy(fields)) == ("ada",)
    assert enumerate_equilibrium_sets(scenario) == [("ada",)]


def test_cutoff_of_an_outside_ratio_that_rounds_to_zero_solves_nothing():
    """``o / delta`` below the smallest subnormal reads as ``o <= 0`` does: any win share pays
    it, so the athlete always continues without a solve over the rivals, which a one-step
    budget could not finish."""
    params = GlobalParams(alpha=1e-301, beta=1e-301, eta=0.5)
    athletes = [AthleteRecord(id="ada", t_swim=2.0, r_swim=1, draft_share=0.0, base_cost=1.0,
                              prize_diff=1e30, theta=4e-301)]
    athletes += [AthleteRecord(id=aid, t_swim=2.0, r_swim=rank, draft_share=0.0, base_cost=1.0,
                               prize_diff=1.0, theta=0.5) for rank, aid in ((2, "bea"), (3, "cal"))]
    scenario = Scenario(athletes=tuple(athletes), globals=params,
                        settings=SolverSettings(max_iter=1))
    outside = outside_option(scenario.athletes[0], params)
    assert outside > 0.0 and outside / 1e30 == 0.0
    assert entry._needed_share(outside, 1e30) == (0.0, 1.0)
    result = cutoff_psi(scenario, scenario.ids, "ada")
    assert (result.verdict, result.psi_star) == (entry.ALWAYS_CONTINUE, None)
    with pytest.raises(contest.ConvergenceError):
        subset_equilibrium(scenario, ["bea", "cal"])


@pytest.mark.parametrize("leave, delta, expected", [
    (-0.25, 1.0, (0.0, 1.0)),
    (0.0, 1.0, (0.0, 1.0)),
    (0.375, 1.0, (0.5, 0.5)),  # s = sqrt(1 + 8 * 3/8) = 2: p* = 1/2 exactly
    (1.0, 1.0, (1.0, 0.0)),
    (1.25, 1.0, (math.inf, -math.inf)),
    (1e300, 1e-10, (math.inf, -math.inf)),  # o / delta overflows
])
def test_needed_share_at_every_case(leave, delta, expected):
    """Any share pays ``o <= 0``; only the whole prize pays ``o = delta``; none pays more."""
    assert entry._needed_share(leave, delta) == expected


def test_a_field_table_holds_positions_not_shifts():
    """Building the table of 20 000 athletes maps each id to its position; a ``1 << i`` per
    athlete would hold memory quadratic in the field size, some 27 MB here."""
    scenario = load_scenario(Path(__file__).resolve().parent.parent
                             / "scenarios" / "symmetric_pair.json")
    columns = analysis._grid_point(scenario, "m", 20000.0, 0)
    tracemalloc.start()
    try:
        fields = entry._Fields(columns, scenario.settings)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    last = fields.ids[-1]
    assert fields.mask([last]) == 1 << 19999
    assert fields.member_index(fields.everyone, last) == 19999


# ---------------------------------------------------------------------------
# Assembled outcomes
# ---------------------------------------------------------------------------


def test_assemble_low_outside_pair():
    results = assemble_spe(pair_with_outside(0.0, 0.0))
    assert len(results) == 1
    spe = results[0]
    assert spe.members == ("ada", "bea")
    assert spe.method == "enumeration"
    assert spe.actions == {"ada": "continue", "bea": "continue"}
    assert spe.payoffs["ada"] == pytest.approx(0.375, abs=1e-12)
    assert spe.payoffs["bea"] == pytest.approx(0.375, abs=1e-12)


def test_assemble_high_outside_rival():
    results = assemble_spe(pair_with_outside(0.0, 10.0))
    spe = results[0]
    assert spe.members == ("ada",)
    assert spe.actions == {"ada": "continue", "bea": "withdraw"}
    assert spe.payoffs["ada"] == 1.0
    assert spe.payoffs["bea"] == pytest.approx(10.0, abs=1e-12)


@pytest.mark.parametrize("mode, method", [("first", "enumeration"), ("all", "enumeration"),
                                          ("iterative", "greedy")])
def test_assemble_returns_the_empty_field(mode, method):
    """Everyone withdraws at their outside option, over a zero-effort record."""
    scenario = pair_with_outside(10.0, 10.5, delta=(1.0, 2.0))
    spe, = assemble_spe(scenario, mode=mode)
    assert (spe.members, spe.method) == ((), method)
    assert spe.actions == {"ada": "withdraw", "bea": "withdraw"}
    assert spe.payoffs == pytest.approx({"ada": 10.0, "bea": 10.5}, abs=1e-12)
    assert spe.payoffs == {rec.id: outside_option(rec, scenario.globals)
                           for rec in scenario.athletes}
    assert spe.equilibrium == contest.ContestEquilibrium(0.0, {}, {}, {}, 0.0) == \
        subset_equilibrium(scenario, ())


def test_the_empty_field_leads_at_the_knife_edge():
    """With every ``o_i == delta_i`` a lone member nets exactly 0: the empty field and every
    lone field are stable, the empty one first."""
    scenario = Scenario(athletes=tuple(athlete_with_outside(aid, rank, 1.0) for rank, aid
                                       in enumerate(("ada", "bea", "cal"), start=1)),
                        globals=exact_globals())
    expected = [(), ("ada",), ("bea",), ("cal",)]
    assert enumerate_equilibrium_sets(scenario) == expected == reference_stable_sets(scenario)
    assert [r.members for r in assemble_spe(scenario, mode="all")] == expected
    assert [r.members for r in assemble_spe(scenario, mode="first")] == [()]


def test_assemble_all_returns_every_stable_set():
    results = assemble_spe(pair_with_outside(0.5, 0.5), mode="all")
    assert [r.members for r in results] == [("ada",), ("bea",)]


def test_assemble_iterative_mode():
    results = assemble_spe(pair_with_outside(0.0, 0.0), mode="iterative")
    assert results[0].members == ("ada", "bea")
    assert results[0].method == "iteration"


def test_assemble_rejects_unknown_mode():
    with pytest.raises(ValueError):
        assemble_spe(pair_with_outside(0.0, 0.0), mode="everything")


# ---------------------------------------------------------------------------
# Cross-checks on random scenarios
# ---------------------------------------------------------------------------


def test_iterate_lands_inside_the_enumerated_sets():
    rng = np.random.default_rng(101)
    for _ in range(25):
        scenario = random_scenario(rng, n=int(rng.integers(2, 7)))
        outcome = iterate_continuation_operator(scenario)
        stable = enumerate_equilibrium_sets(scenario)
        assert outcome.members in stable
        for members in stable:
            # Independent re-check of both stability conditions.
            for aid in scenario.ids:
                value = net_benefit(scenario, members, aid).value
                if aid in members:
                    assert value >= 0.0
                else:
                    assert value <= 0.0


def test_assembled_results_recheck_on_random_scenarios():
    rng = np.random.default_rng(131)
    for _ in range(20):
        scenario = random_scenario(rng, n=int(rng.integers(2, 6)))
        for spe in assemble_spe(scenario, mode="all"):
            assert reference_is_stable(scenario, spe.members)
            for aid in scenario.ids:
                if spe.actions[aid] == "continue":
                    assert spe.payoffs[aid] == \
                        spe.equilibrium.continuation_values[aid]


def count_solves(monkeypatch) -> list[tuple[str, ...]]:
    """Member ids of every contest the entry module solves from now on."""
    fields: list[tuple[str, ...]] = []

    def counted(instance, *args, **kwargs):
        fields.append(instance.ids)
        return solve_contest(instance, *args, **kwargs)

    monkeypatch.setattr(entry, "solve_contest", counted)
    return fields


def test_lone_fields_are_valued_at_their_prize_without_a_solve(monkeypatch):
    """With every outside option above its prize only the empty field is stable; no contest
    is solved on the way, nor for the result."""
    scenario = Scenario(athletes=tuple(
        athlete_with_outside(f"a{i}", i + 1, 2.0 + i, prize=1.0 + 0.25 * i) for i in range(5)),
        globals=exact_globals())
    for mode in ("first", "all", "iterative"):
        fields = count_solves(monkeypatch)
        spe, = assemble_spe(scenario, mode=mode)
        assert spe.members == ()
        assert set(spe.actions.values()) == {"withdraw"}
        assert fields == ([scenario.ids] if mode == "iterative" else [])


def test_assemble_solves_each_field_at_most_once(monkeypatch):
    fields = count_solves(monkeypatch)
    rng = np.random.default_rng(151)
    for _ in range(10):
        scenario = random_scenario(rng, n=4)
        for mode in ("first", "all", "iterative"):
            fields.clear()
            assemble_spe(scenario, mode=mode)
            assert fields
            assert len(fields) == len(set(fields))


def test_assemble_solve_count_on_a_ten_athlete_field(monkeypatch):
    """No more solves than the per-call memo of sorted id tuples needed."""
    fields = count_solves(monkeypatch)
    scenario = random_scenario(np.random.default_rng(1010), n=10)
    results = assemble_spe(scenario, mode="all")
    assert [r.members for r in results] == [("a02", "a03", "a04", "a05", "a07")]
    assert len(fields) <= 896


def test_assemble_solve_count_on_a_selective_twelve_athlete_field(monkeypatch):
    """The search stays near the forced stayers instead of testing all 4095 fields."""
    fields = count_solves(monkeypatch)
    scenario = selective_scenario(np.random.default_rng(1212))
    results = assemble_spe(scenario, mode="all")
    assert len(fields) <= 64
    assert [r.members for r in results] == sweep_stable_sets(scenario)


def test_assemble_solve_count_on_a_crowded_ten_athlete_field(monkeypatch):
    """No athlete is forced and most fields are content, yet under half are solved."""
    fields = count_solves(monkeypatch)
    scenario = random_scenario(np.random.default_rng(3), n=10, outside=(0.01, 0.1))
    results = assemble_spe(scenario, mode="all")
    assert len(fields) <= 2 ** 9
    assert len(results) == 9
    assert [r.members for r in results] == sweep_stable_sets(scenario)


def test_assemble_builds_each_contest_instance_once(monkeypatch):
    scenario = load_scenario(Path(__file__).resolve().parent.parent
                             / "scenarios" / "dropout_pair.json")
    expected = assemble_spe(scenario, mode="all")
    built = []
    original = ContestInstance._store

    def counting(self, ids, *columns):
        built.append(ids)
        original(self, ids, *columns)

    monkeypatch.setattr(ContestInstance, "_store", counting)
    assert assemble_spe(scenario, mode="all") == expected
    assert ("ada",) in built
    assert len(built) == len(set(built))


def test_search_matches_the_bitmask_sweep():
    """Stable sets, the operator's greedy field and the assembled outcomes.

    Every fourth field has small positive outside options only: no athlete
    is forced and most fields are content, which is where whole branches
    are dropped for an outsider who wants in.
    """
    rng = np.random.default_rng(2024)
    cycled = []
    for k in range(200):
        outside = (0.01, 0.1) if k % 4 == 3 else (-0.3, 0.9)
        scenario = random_scenario(rng, n=int(rng.integers(2, 13)), outside=outside)
        stable = sweep_stable_sets(scenario)
        assert stable
        assert enumerate_equilibrium_sets(scenario) == stable
        outcome = iterate_continuation_operator(scenario)
        assert outcome.members in stable
        if outcome.method != "fixed_point":
            cycled.append(outcome.method)
        results = assemble_spe(scenario, mode="all")
        assert [(r.members, r.method) for r in results] == \
            [(members, "enumeration") for members in stable]
        assert assemble_spe(scenario, mode="first") == results[:1]
        for spe in results:
            assert spe.equilibrium == solve_contest(
                reference_instance(scenario, spe.members))
    # The operator fails to settle on some draws and falls back to a stable set.
    assert "greedy" in cycled


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       n=st.integers(min_value=2, max_value=8))
def test_entry_stage_matches_the_reference_enumeration(seed, n):
    """Stable sets and the operator's trace equal a plain re-solve."""
    scenario = random_scenario(np.random.default_rng(seed), n=n)
    stable = enumerate_equilibrium_sets(scenario)
    assert stable == reference_stable_sets(scenario)
    outcome = iterate_continuation_operator(scenario)
    assert (outcome.members, outcome.trace, outcome.method) == \
        reference_iteration(scenario)
    for spe in assemble_spe(scenario, mode="all"):
        assert spe.equilibrium == solve_contest(
            reference_instance(scenario, spe.members))


def test_assembled_fields_match_the_reference_when_outside_options_straddle_the_prize():
    """Outside options at 0.3 to 1.3 of the prize: a stable field is always found, the empty
    one included where every outside option beats its prize, and each one re-checks."""
    rng = np.random.default_rng(1313)
    empty = 0
    for _ in range(150):
        scenario = random_scenario(rng, n=int(rng.integers(2, 6)), outside=(0.3, 1.3))
        expected = reference_stable_sets(scenario)
        assert expected
        results = assemble_spe(scenario, mode="all")
        assert [r.members for r in results] == expected
        assert all(reference_is_stable(scenario, spe.members) for spe in results)
        leaves = [outside_option(rec, scenario.globals) > rec.prize_diff
                  for rec in scenario.athletes]
        assert (expected == [()]) == all(leaves)
        empty += all(leaves)
    assert empty >= 3


def test_stable_sets_away_from_ties_do_not_depend_on_the_tolerance():
    """Where no net benefit lies within 1e-8 of zero, abs_tol does not move a verdict."""
    rng = np.random.default_rng(3030)
    checked = 0
    for _ in range(60):
        scenario = random_scenario(rng, n=int(rng.integers(2, 7)))
        ids = scenario.ids
        if any(abs(reference_net_benefit(scenario, members, aid)) <= 1e-8
               for size in range(1, len(ids) + 1)
               for members in itertools.combinations(ids, size) for aid in ids):
            continue
        found = [enumerate_equilibrium_sets(dataclasses.replace(
                     scenario, settings=SolverSettings(abs_tol=tol)))
                 for tol in (1e-10, 1e-12, 1e-14)]
        assert found[0] == found[1] == found[2]
        checked += 1
    assert checked >= 40


def test_iterative_outcome_is_stable_whenever_a_stable_field_exists():
    """On 1200 fields of 2 to 10 athletes the operator's outcome passes the reference check.

    A third of the fields draw outside options in ``(0.3, 1.05)``: crowded
    fields shed everyone, and some athletes never stay.
    """
    rng = np.random.default_rng(4242)
    methods = []
    for k in range(1200):
        outside = [(-0.3, 0.9), (0.01, 0.1), (0.3, 1.05)][k % 3]
        scenario = random_scenario(rng, n=int(rng.integers(2, 11)), outside=outside)
        outcome = iterate_continuation_operator(scenario)
        assert reference_is_stable(scenario, outcome.members)
        methods.append(outcome.method)
    assert methods.count("greedy") >= 100


def test_iterate_ends_at_a_stable_field_past_the_enumeration_cap():
    """Fields of 13 to 40 athletes, where the operator cycles on some draws."""
    methods = []
    for seed in range(40):
        rng = np.random.default_rng(seed)
        scenario = random_scenario(rng, n=int(rng.integers(13, 41)))
        outcome = iterate_continuation_operator(scenario)
        assert reference_is_stable(scenario, outcome.members)
        methods.append(outcome.method)
    assert "greedy" in methods
