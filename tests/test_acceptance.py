"""Acceptance gate: every shipping criterion, one pass/fail line each.

Each test gathers its evidence first, prints a single verdict line (visible
under ``pytest -v -s`` or on failure), and only then asserts, so the line
appears whether or not the criterion holds.
"""

from __future__ import annotations

import csv
import io
import json
import time
from pathlib import Path

import numpy as np

from tricontest import (
    AthleteRecord,
    ContestInstance,
    GlobalParams,
    Scenario,
    aggregate_equation,
    assemble_spe,
    cutoff_psi,
    enumerate_equilibrium_sets,
    is_equilibrium_set,
    iterate_continuation_operator,
    net_benefit_curve,
    sensitivity_report,
    solve_contest,
    solve_total_effort,
    sweep,
    symmetric_equilibrium,
    total_effort_derivative,
    two_player_equilibrium,
    verify_nash,
    welfare_report,
)
from tricontest.cli import main

from helpers import pair_scenario, random_instance, random_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden"

ALPHA, BETA, T_SWIM = 0.001, 0.01, 1800.0


def report(criterion: str, ok: bool, detail: str = "") -> bool:
    line = f"{criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    return ok


def symmetric_scenario(m: int) -> Scenario:
    athletes = tuple(
        AthleteRecord(id=f"r{i:02d}", t_swim=T_SWIM, r_swim=i + 1,
                      draft_share=0.0, base_cost=1.0, prize_diff=1.0)
        for i in range(m)
    )
    return Scenario(athletes=athletes,
                    globals=GlobalParams(alpha=ALPHA, beta=BETA, eta=0.5))


def test_criterion_1_closed_form_agreement():
    """Root search equals both closed forms within 1e-9 on 1000 instances."""
    rng = np.random.default_rng(1001)
    worst = 0.0
    start = time.perf_counter()
    for trial in range(1000):
        if trial % 2 == 0:
            instance = random_instance(rng, m=2, weighted=True)
            closed = two_player_equilibrium(instance)
            solved = solve_contest(instance)
            gaps = [abs(closed.total_effort - solved.total_effort)]
            for aid in instance.ids:
                gaps.append(abs(closed.efforts[aid] - solved.efforts[aid]))
                gaps.append(abs(closed.probs[aid] - solved.probs[aid]))
        else:
            m = int(rng.integers(2, 9))
            delta = float(rng.uniform(0.1, 10.0))
            cost = float(rng.uniform(0.1, 10.0))
            psi = float(rng.uniform(1.0, 2.0))
            sym = symmetric_equilibrium(m, delta, cost, psi)
            instance = ContestInstance(
                ids=tuple(f"a{i:02d}" for i in range(m)), delta=(delta,) * m,
                cost=(cost,) * m, psi=(psi,) * m, weight=(1.0,) * m)
            solved = solve_contest(instance)
            gaps = [abs(sym.total_effort - solved.total_effort)]
            for aid in instance.ids:
                gaps.append(abs(sym.effort - solved.efforts[aid]))
                gaps.append(abs(sym.prob - solved.probs[aid]))
        worst = max(worst, max(gaps))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    assert report("criterion 1 closed-form agreement", ok,
                  f"worst gap {worst:.2e}, {elapsed:.2f}s for 1000 instances")


def test_criterion_2_fixed_point_and_foc_residuals():
    """|g(E*)| <= 1e-12 always; FOC residual <= 1e-8 when weights are 1."""
    rng = np.random.default_rng(1002)
    worst_g = 0.0
    worst_foc = 0.0
    for trial in range(200):
        weighted = trial % 2 == 1
        instance = random_instance(rng, weighted=weighted)
        total = solve_total_effort(instance)
        worst_g = max(worst_g, abs(aggregate_equation(total, instance)))
        if not weighted:
            eq = solve_contest(instance)
            for idx, aid in enumerate(instance.ids):
                k = instance.cost[idx] / instance.psi[idx]
                p = eq.probs[aid]
                foc = abs(eq.efforts[aid] ** 2
                          - (instance.delta[idx] / k) * p * (1.0 - p))
                worst_foc = max(worst_foc, foc)
    ok = worst_g <= 1e-12 and worst_foc <= 1e-8
    assert report("criterion 2 fixed-point and FOC residuals", ok,
                  f"max |g| {worst_g:.2e}, max FOC residual {worst_foc:.2e}")


def test_criterion_3_nash_oracle():
    """No athlete can gain more than 1e-6 of its payoff by deviating, on 200 instances."""
    rng = np.random.default_rng(1003)
    worst = 0.0
    failures = 0
    for _ in range(200):
        instance = random_instance(rng, weighted=True)
        check = verify_nash(instance, solve_contest(instance),
                            deviation_tol=1e-6)
        worst = max(worst, check.max_gain)
        failures += 0 if check.passed else 1
    ok = failures == 0
    assert report("criterion 3 best-response oracle", ok,
                  f"max unilateral gain {worst:.2e} over 200 instances")


def test_criterion_4_comparative_statics():
    """Analytic slopes match central differences; signs are (+, +, -)."""
    rng = np.random.default_rng(1004)
    worst_rel = 0.0
    sign_errors = 0
    for _ in range(200):
        instance = random_instance(rng)
        aid = instance.ids[int(rng.integers(instance.m))]
        for kind, sign in (("psi", 1.0), ("delta", 1.0), ("cost", -1.0)):
            rep = sensitivity_report(instance, ("total", None), (kind, aid))
            worst_rel = max(worst_rel, rep.rel_err)
            if rep.analytic * sign <= 0.0:
                sign_errors += 1
    unit = ContestInstance(ids=("a", "b"), delta=(1.0, 1.0), cost=(1.0, 1.0),
                           psi=(1.0, 1.0), weight=(1.0, 1.0))
    worked = total_effort_derivative(unit, ("psi", "a"))
    ok = worst_rel <= 1e-4 and sign_errors == 0 and abs(worked - 0.25) <= 1e-6
    assert report("criterion 4 comparative statics", ok,
                  f"max rel_err {worst_rel:.2e}, sign errors {sign_errors}, "
                  f"unit-pair slope {worked:.12f}")


def test_criterion_5_rent_dissipation():
    """The shared-rent fraction is (m-1)/(2m): rising in m, capped at 1/2."""
    worst = 0.0
    ratios = []
    for m in range(2, 51):
        scenario = symmetric_scenario(m)
        ratio = welfare_report(scenario, scenario.ids).rent_ratio
        ratios.append(ratio)
        worst = max(worst, abs(ratio - (m - 1) / (2 * m)))
    increasing = all(b > a for a, b in zip(ratios, ratios[1:]))
    bounded = all(r < 0.5 for r in ratios)
    ok = worst <= 1e-9 and increasing and bounded
    assert report("criterion 5 rent dissipation", ok,
                  f"max formula gap {worst:.2e} for m in 2..50")


def test_criterion_6_cutoff_single_crossing():
    """Net benefit rises with the multiplier; verdicts match the grid."""
    rng = np.random.default_rng(1006)
    noise = 1e-9
    monotone_errors = 0
    verdict_errors = 0
    for _ in range(100):
        scenario = random_scenario(rng)
        aid = scenario.athletes[0].id
        lo, hi = scenario.globals.psi_bounds
        grid = np.linspace(lo, hi, 50)
        curve = net_benefit_curve(scenario, scenario.ids, aid, grid)
        if any(b - a < -noise for a, b in zip(curve, curve[1:])):
            monotone_errors += 1
        result = cutoff_psi(scenario, scenario.ids, aid)
        if result.verdict == "always_continue":
            consistent = min(curve) >= -noise
        elif result.verdict == "always_withdraw":
            consistent = max(curve) < noise
        else:
            cell = float(grid[1] - grid[0])
            consistent = (lo <= result.psi_star <= hi
                          and all(v <= noise for g, v in zip(grid, curve)
                                  if g <= result.psi_star - cell)
                          and all(v >= -noise for g, v in zip(grid, curve)
                                  if g >= result.psi_star + cell))
        if not consistent:
            verdict_errors += 1

    pinned = cutoff_psi(_pinned_cutoff_scenario(), ("ada", "bea"), "ada")
    pinned_ok = (pinned.verdict == "interior"
                 and abs(pinned.psi_star - 1.0) <= 1e-6)
    ok = monotone_errors == 0 and verdict_errors == 0 and pinned_ok
    assert report("criterion 6 cutoff single crossing", ok,
                  f"monotone errors {monotone_errors}, verdict errors "
                  f"{verdict_errors}, pinned cutoff "
                  f"{pinned.psi_star if pinned.psi_star else 'none'}")


def _pinned_cutoff_scenario() -> Scenario:
    """Symmetric pair whose outside option equals the symmetric payoff."""
    theta = 0.375 + ALPHA * T_SWIM + BETA * 1
    athletes = (
        AthleteRecord(id="ada", t_swim=T_SWIM, r_swim=1, draft_share=0.0,
                      base_cost=1.0, prize_diff=1.0, theta=theta),
        AthleteRecord(id="bea", t_swim=T_SWIM, r_swim=2, draft_share=0.0,
                      base_cost=1.0, prize_diff=1.0),
    )
    return Scenario(athletes=athletes,
                    globals=GlobalParams(alpha=ALPHA, beta=BETA, eta=0.5,
                                         psi_bounds=(0.5, 2.0)))


def test_criterion_7_stage1_oracle_equivalence():
    """Iterated fixed points are enumerated sets; all sets re-verify."""
    rng = np.random.default_rng(1007)
    containment_errors = 0
    recheck_errors = 0
    for _ in range(50):
        scenario = random_scenario(rng, n=int(rng.integers(2, 9)))
        stable = enumerate_equilibrium_sets(scenario)
        outcome = iterate_continuation_operator(scenario)
        if outcome.method == "fixed_point" and outcome.members not in stable:
            containment_errors += 1
        for members in stable:
            if not is_equilibrium_set(scenario, members):
                recheck_errors += 1
    ok = containment_errors == 0 and recheck_errors == 0
    assert report("criterion 7 continuation-set oracle equivalence", ok,
                  f"containment errors {containment_errors}, "
                  f"re-check errors {recheck_errors} over 50 scenarios")


def test_criterion_8_desk_scale_predictions():
    """Drafting helps, crowds dilute, and the entry decision flips once."""
    grid = [0.0, 0.25, 0.5, 0.75]
    records = sweep(pair_scenario(), "athletes.ada.draft_share", grid)
    probs = [r.probs["ada"] for r in records]
    efforts = [r.efforts["ada"] for r in records]
    drafting_ok = (all(b > a for a, b in zip(probs, probs[1:]))
                   and all(b > a for a, b in zip(efforts, efforts[1:])))

    size_records = sweep(pair_scenario(), "m",
                         [float(m) for m in range(2, 11)])
    per_head = [next(iter(r.efforts.values())) for r in size_records]
    size_ok = all(b < a for a, b in zip(per_head, per_head[1:]))

    marginal = pair_scenario(theta=(0.40 + ALPHA * T_SWIM + BETA * 1,
                                    0.0 + ALPHA * T_SWIM + BETA * 2))
    full = sweep(marginal, "athletes.ada.draft_share", grid, stage="full")
    actions = [r.actions["ada"] for r in full]
    flips = sum(1 for a, b in zip(actions, actions[1:]) if a != b)
    flip_ok = (flips == 1 and actions[0] == "withdraw"
               and actions[-1] == "continue")

    ok = drafting_ok and size_ok and flip_ok
    assert report("criterion 8 desk-scale predictions", ok,
                  f"drafting {drafting_ok}, field size {size_ok}, "
                  f"entry actions {actions} ({flips} flips)")


def test_criterion_9_desk_scale_performance():
    """A thousand-athlete field solves fast; ten athletes enumerate fast."""
    rng = np.random.default_rng(1009)
    big = random_instance(rng, m=1000)
    start = time.perf_counter()
    solve_contest(big)
    solve_seconds = time.perf_counter() - start

    scenario = random_scenario(rng, n=10)
    start = time.perf_counter()
    results = assemble_spe(scenario, mode="all")
    spe_seconds = time.perf_counter() - start

    ok = solve_seconds < 0.1 and spe_seconds < 30.0 and len(results) >= 1
    assert report("criterion 9 desk-scale performance", ok,
                  f"n=1000 solve {solve_seconds * 1e3:.1f}ms, n=10 "
                  f"enumeration {spe_seconds:.2f}s")


def test_criterion_10_cli_determinism(capsys):
    """Byte-identical reruns and exact matches against the golden files."""
    cases = [
        ("solve_symmetric_pair.txt",
         ["solve", str(SCENARIOS / "symmetric_pair.json")]),
        ("solve_heterogeneous_triple.txt",
         ["solve", str(SCENARIOS / "heterogeneous_triple.json")]),
        ("spe_dropout_pair.txt",
         ["spe", str(SCENARIOS / "dropout_pair.json")]),
    ]
    deterministic = True
    golden_ok = True
    for golden_name, argv in cases:
        code_a = main(list(argv))
        out_a = capsys.readouterr().out
        code_b = main(list(argv))
        out_b = capsys.readouterr().out
        if not (code_a == code_b == 0 and out_a == out_b):
            deterministic = False
        if out_a != (GOLDEN / golden_name).read_text():
            golden_ok = False
    # Structured output reruns must agree byte for byte as well.
    argv = ["sweep", "--param", "m", "--grid", "2:6:5", "--output", "csv",
            str(SCENARIOS / "symmetric_pair.json")]
    main(argv)
    sweep_a = capsys.readouterr().out
    main(argv)
    sweep_b = capsys.readouterr().out
    deterministic = deterministic and sweep_a == sweep_b
    rows = list(csv.reader(io.StringIO(sweep_a)))
    shape_ok = len(rows) == 6 and rows[0][0] == "param"

    with capsys.disabled():
        ok = report("criterion 10 deterministic command line",
                    deterministic and golden_ok and shape_ok,
                    f"reruns identical {deterministic}, goldens {golden_ok}")
    assert ok
