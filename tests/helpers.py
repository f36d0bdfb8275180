"""Shared fixtures: an independent equilibrium oracle and random inputs.

The oracle below re-derives the aggregate-effort equation from the
first-order conditions and solves it with its own bisection loop
(interval-width stopping rule, bracket growth factor 2), so it shares no
code path with the package solver.  Agreement between the two is evidence,
not tautology.

``reference_instance`` builds a candidate field from the scenario's
records through the public ``ContestInstance`` constructor, so it shares
nothing with the entry module's field slices.  The reference entry stage
further down solves every candidate field afresh with it and loops over id
tuples, so it shares none of the entry module's bookkeeping.
``reference_iteration`` orders its greedy field by ``reference_threshold``,
which takes the textbook ``p*`` and the scenario's records, not the entry
module's form or columns.
``sweep_stable_sets`` is the fast reference for larger fields: it tests
every bitmask of one field table instead of searching.
``share_stable_sets`` decides every field by the root-free predicates on the
share sum ``F_S`` at the athletes' thresholds ``tau``, with no contest solve.
``reference_pair_stable_sets`` reads a pair's stable fields off its closed-form
map in the ratio of the drafting multipliers, with no contest solve.  ``reference_cutoff``
bisects the solved net benefit in the own multiplier, so it shares nothing
with the closed-form cutoff but the contest solver.
``reference_sweep`` rebuilds the records and the scenario at every grid
point with ``dataclasses.replace`` and solves it through the public entry
points, so it shares nothing with the sweep's input columns.
``reference_best_response`` bisects the best-response cubic in mpmath, so
it shares nothing with the closed form in ``verify_nash``.
``reference_share_response`` differentiates the aggregate equation over the raw
columns through its root by a complex step in mpmath, at the instance's own float
root, so it shares no share identity with the package and its error against the
package's derivatives is the package's rounding alone.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
from mpmath import mp

import tricontest.entry as entry
from tricontest import (
    AthleteRecord,
    ContestInstance,
    GlobalParams,
    Scenario,
    SweepRecord,
    drafting_multiplier,
    outside_option,
    solve_contest,
    solve_total_effort,
)


def reference_shares(total: float, k, delta_eff) -> list[float]:
    """Win probabilities implied by the first-order conditions at ``total``."""
    return [d / (kk * total * total + d) for kk, d in zip(k, delta_eff)]


def reference_equilibrium(delta, cost, psi, weight=None):
    """Solve the contest from scratch, returning (total, efforts, probs).

    Each athlete's first-order condition pins the win probability as a
    function of the weighted aggregate, and probabilities must sum to one.
    The root of that excess-probability function is bracketed by doubling
    and then bisected until the interval collapses.
    """
    m = len(delta)
    if weight is None:
        weight = [1.0] * m
    k = [c / s for c, s in zip(cost, psi)]
    delta_eff = [d * w * w for d, w in zip(delta, weight)]

    def excess(total: float) -> float:
        return sum(reference_shares(total, k, delta_eff)) - 1.0

    hi = 1.0
    while excess(hi) > 0.0:
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(1.0, hi):
            break
    total = 0.5 * (lo + hi)
    probs = reference_shares(total, k, delta_eff)
    efforts = [p * total / w for p, w in zip(probs, weight)]
    return total, efforts, probs


def reference_best_response(delta_eff: float, k: float, weight: float, rivals: float,
                            digits: int = 50) -> float:
    """Best-response effort to rivals' weighted effort ``R`` by bisection at ``digits`` digits.

    The own weighted effort ``D = w e`` solves ``(R + D)^2 D = de R / k``,
    whose left side rises in ``D``.  With ``hi = min(cbrt(de R / k), de / (k R))``
    the left side is at least ``de R / k`` at ``hi`` and at most
    ``81/512`` of it at ``hi / 8``; geometric halvings shrink that bracket
    to a relative width of ``10^-digits``.
    """
    with mp.workdps(digits):
        de, kk, w, r = (mp.mpf(v) for v in (delta_eff, k, weight, rivals))
        target = de * r / kk
        hi = min(mp.cbrt(target), de / (kk * r))
        lo = hi / 8
        assert (r + lo) ** 2 * lo < target <= (r + hi) ** 2 * hi
        while hi / lo - 1 > mp.mpf(10) ** -digits:
            mid = mp.sqrt(lo * hi)
            if (r + mid) ** 2 * mid < target:
                lo = mid
            else:
                hi = mid
        return float(hi / w)


def reference_share_response(instance: ContestInstance, x: float | None = None,
                             digits: int = 50) -> tuple:
    """Share mass at a root and every derivative there, at ``digits``.

    Built from the raw columns alone, ``k = cost / psi`` and ``de = delta * weight^2`` in
    mpmath, with no share identity.  The root is ``t = x^2`` for a given float ``x``, which
    then solves ``sum de / (k t + de) = mass`` exactly; without ``x`` it is the exact root of
    mass 1, refined by Newton steps from the package's float root.  Each parameter
    ``theta`` takes a complex step ``theta + i h``, ``h = 10^(-digits/2)``: one Newton step of
    that equation from ``t``, with its unstepped slope, lands on the stepped root up to a real
    ``O(h^2)``, so the imaginary part over ``h`` of the root and of each target read there (the
    total ``x``, shares ``p_j``, efforts ``p_j x / w_j``) is its implicit derivative.  Returns
    ``mass`` and a map from each ``(kind, id)`` to ``sensitivity_report`` targets, each
    ``(derivative, scale)``: the derivative an mpf, the scale ``|d log t / d theta|`` times
    ``x`` for the total, ``1`` for a share and ``x / w_j`` for an effort, as a float.
    """
    with mp.workdps(digits):
        h = mp.mpf(10) ** -(digits // 2)
        raw = {name: [mp.mpf(v) for v in getattr(instance, name)]
               for name in ("delta", "cost", "psi", "weight")}
        k = [c / p for c, p in zip(raw["cost"], raw["psi"])]
        de = [d * w * w for d, w in zip(raw["delta"], raw["weight"])]
        t = mp.mpf(solve_total_effort(instance) if x is None else x) ** 2
        # Newton converges quadratically from a float root: 6 steps pass 50 digits.
        for _ in range(6 if x is None else 0):
            t += (mp.fsum(e / (kk * t + e) for kk, e in zip(k, de)) - 1) / mp.fsum(
                e * kk / (kk * t + e) ** 2 for kk, e in zip(k, de))
        x = mp.sqrt(t)
        shares = [e / (kk * t + e) for kk, e in zip(k, de)]
        slope = mp.fsum(e * kk / (kk * t + e) ** 2 for kk, e in zip(k, de))
        out = {}
        for kind, i in itertools.product(("psi", "delta", "cost"), range(instance.m)):
            theta = {name: column[i] for name, column in raw.items()}
            theta[kind] += mp.mpc(0, h)
            ks, des = list(k), list(de)
            ks[i] = theta["cost"] / theta["psi"]
            des[i] = theta["delta"] * theta["weight"] ** 2
            root = t + (des[i] / (ks[i] * t + des[i]) - shares[i]) / slope
            total = mp.sqrt(root)
            dx = mp.im(total) / h
            scale = abs(2 * dx / x)
            row = out[kind, instance.ids[i]] = {("total", None): (dx, float(scale * x))}
            for aid, kk, e, w in zip(instance.ids, ks, des, raw["weight"]):
                p = e / (kk * root + e)
                row["prob", aid] = mp.im(p) / h, float(scale)
                row["effort", aid] = mp.im(p * total) / (h * w), float(scale * x / w)
        return mp.fsum(shares), out


def random_instance(rng: np.random.Generator, m: int | None = None,
                    weighted: bool = False) -> ContestInstance:
    """Draw one contest; sizes and ranges cover the supported domain."""
    if m is None:
        m = int(rng.integers(2, 9))
    ids = tuple(f"a{i:02d}" for i in range(m))
    delta = tuple(float(x) for x in rng.uniform(0.1, 10.0, size=m))
    cost = tuple(float(x) for x in rng.uniform(0.1, 10.0, size=m))
    psi = tuple(float(x) for x in rng.uniform(1.0, 2.0, size=m))
    if weighted:
        weight = tuple(float(x) for x in rng.uniform(0.5, 2.0, size=m))
    else:
        weight = tuple(1.0 for _ in range(m))
    return ContestInstance(ids=ids, delta=delta, cost=cost, psi=psi,
                           weight=weight)


def pair_scenario(theta=(0.0, 0.0), draft=(0.0, 0.0), delta=(1.0, 1.0),
                  cost=(1.0, 1.0), eta=0.5, alpha=0.001, beta=0.01,
                  t_swim=1800.0) -> Scenario:
    """Two-athlete scenario with flat swim stats; tune the knobs per test."""
    athletes = tuple(
        AthleteRecord(id=aid, t_swim=t_swim, r_swim=i + 1,
                      draft_share=draft[i], base_cost=cost[i],
                      prize_diff=delta[i], theta=theta[i])
        for i, aid in enumerate(("ada", "bea"))
    )
    return Scenario(athletes=athletes,
                    globals=GlobalParams(alpha=alpha, beta=beta, eta=eta))


def random_scenario(rng: np.random.Generator, n: int | None = None,
                    eta: float = 0.5, outside=(-0.3, 0.9)) -> Scenario:
    """Scenario whose outside options straddle the continuation values.

    theta is chosen so the outside option lands between ``outside[0]`` and
    ``outside[1]`` times the own prize differential; the default range
    makes the continuation stage genuinely selective instead of trivially
    keeping everyone in.
    """
    if n is None:
        n = int(rng.integers(2, 7))
    return _ratio_scenario(rng, [outside] * n, eta)


def selective_scenario(rng: np.random.Generator, n: int = 12) -> Scenario:
    """Forced stayers and sure leavers alternate at the front; three marginal athletes close it.

    An outside option below zero always keeps the athlete in (a contest
    payoff is never negative); one above the own prize always keeps them
    out (no field pays more).  Only the marginal athletes decide by field.
    """
    ranges = ([(-0.3, -0.05), (1.05, 1.5)] * n)[: n - 3] + [(0.05, 0.9)] * 3
    return _ratio_scenario(rng, ranges, 0.5)


def _ratio_scenario(rng: np.random.Generator, ranges, eta: float) -> Scenario:
    """One athlete per ``(lo, hi)``: outside option a uniform multiple of the own prize."""
    alpha, beta = 0.001, 0.01
    athletes = []
    for i, (lo, hi) in enumerate(ranges):
        t_swim = float(rng.uniform(1700.0, 1900.0))
        rank = i + 1
        prize = float(rng.uniform(0.5, 2.0))
        target_outside = prize * float(rng.uniform(lo, hi))
        athletes.append(AthleteRecord(
            id=f"a{i:02d}",
            t_swim=t_swim,
            r_swim=rank,
            draft_share=float(rng.uniform(0.0, 1.0)),
            base_cost=float(rng.uniform(0.5, 2.0)),
            prize_diff=prize,
            theta=target_outside + alpha * t_swim + beta * rank,
        ))
    return Scenario(athletes=tuple(athletes),
                    globals=GlobalParams(alpha=alpha, beta=beta, eta=eta))


def reference_instance(scenario: Scenario, members) -> ContestInstance:
    """The contest among ``members``, in scenario order, built by the public constructor."""
    wanted = set(members)
    assert wanted <= set(scenario.ids), wanted - set(scenario.ids)
    chosen = [rec for rec in scenario.athletes if rec.id in wanted]
    eta = scenario.globals.eta
    return ContestInstance(ids=[rec.id for rec in chosen],
                           delta=[rec.prize_diff for rec in chosen],
                           cost=[rec.base_cost for rec in chosen],
                           psi=[drafting_multiplier(rec.draft_share, eta) for rec in chosen],
                           weight=[rec.weight for rec in chosen],
                           settings=scenario.settings)


def reference_net_benefit(scenario: Scenario, members, athlete_id: str) -> float:
    """Net benefit of ``athlete_id`` in ``members`` extended by them, solved afresh."""
    field = set(members) | {athlete_id}
    equilibrium = solve_contest(reference_instance(scenario, field))
    leave = outside_option(scenario.record(athlete_id), scenario.globals)
    return equilibrium.continuation_values[athlete_id] - leave


def reference_is_stable(scenario: Scenario, members) -> bool:
    """Members weakly prefer staying and outsiders weakly prefer staying out."""
    for aid in scenario.ids:
        value = reference_net_benefit(scenario, members, aid)
        if aid in members and value < 0.0:
            return False
        if aid not in members and value > 0.0:
            return False
    return True


def reference_stable_sets(scenario: Scenario) -> list[tuple[str, ...]]:
    """Every stable field as a sorted id tuple, the empty one included, in lexicographic order."""
    ids = sorted(scenario.ids)
    found = []
    for size in range(len(ids) + 1):
        for combo in itertools.combinations(ids, size):
            if reference_is_stable(scenario, combo):
                found.append(combo)
    return sorted(found)


def sweep_stable_sets(scenario: Scenario) -> list[tuple[str, ...]]:
    """Every stable field, by testing all ``2^n`` bitmasks of one field table."""
    fields = entry._Fields(scenario._columns, scenario.settings)
    return sorted(fields.members(mask) for mask in range(fields.everyone + 1)
                  if fields.stable(mask))


def pair_ratios(scenario: Scenario) -> tuple[float, float, float]:
    """``(rho, r_1, r_2)`` of a two-athlete scenario: its closed-form SPE map's coordinates.

    ``rho = psi_1 / psi_2``.  With ``p*_i`` the textbook win share at which a contest pays
    the outside option (0 for ``o_i <= 0``), ``q_i = p*_i / (1 - p*_i)`` (infinite for
    ``o_i >= delta_i``) and ``r_i = (c_i delta_j w_j^2) / (c_j delta_i w_i^2) q_i^2``.  In
    the pair the odds ``p_1 / p_2`` square to ``rho c_2 delta_1 w_1^2 / (c_1 delta_2 w_2^2)``,
    so athlete 1 stays iff ``rho >= r_1`` and athlete 2 iff ``rho <= 1 / r_2``.
    """
    (one, two), params = scenario.athletes, scenario.globals
    psi = [drafting_multiplier(rec.draft_share, params.eta) for rec in (one, two)]
    q = []
    for rec in (one, two):
        leave, delta = outside_option(rec, params), float(rec.prize_diff)
        p_star = (math.sqrt(1.0 + 8.0 * leave / delta) - 1.0) / 2.0 if leave > 0.0 else 0.0
        q.append(p_star / (1.0 - p_star) if p_star < 1.0 else math.inf)
    scale = [rec.base_cost / (rec.prize_diff * rec.weight ** 2) for rec in (one, two)]
    return (psi[0] / psi[1], scale[0] / scale[1] * q[0] ** 2,
            scale[1] / scale[0] * q[1] ** 2)


def reference_pair_stable_sets(scenario: Scenario) -> list[tuple[str, ...]]:
    """Stable fields of a two-athlete scenario by its closed-form map, in lexicographic order.

    The pair is stable iff ``r_1 <= rho <= 1 / r_2``; ``{1}`` iff ``o_1 <= delta_1`` and
    ``rho >= 1 / r_2``; ``{2}`` iff ``o_2 <= delta_2`` and ``rho <= r_1``; the empty field
    iff both ``o_i >= delta_i`` (``pair_ratios`` names the terms).
    """
    rho, r_1, r_2 = pair_ratios(scenario)
    (one, two), params = scenario.athletes, scenario.globals
    fits = [outside_option(rec, params) <= rec.prize_diff for rec in (one, two)]
    found = []
    if r_1 <= rho and rho * r_2 <= 1.0:
        found.append((one.id, two.id))
    if fits[0] and rho * r_2 >= 1.0:
        found.append((one.id,))
    if fits[1] and rho <= r_1:
        found.append((two.id,))
    if all(outside_option(rec, params) >= rec.prize_diff for rec in (one, two)):
        found.append(())
    return sorted(tuple(sorted(members)) for members in found)


def reference_threshold(scenario: Scenario, athlete_id: str) -> float:
    """Largest ``t = X^2`` at which the athlete still stays: ``de (1 - p*) / (k p*)``.

    ``p* = (sqrt(1 + 8 o / delta) - 1) / 2`` is the textbook win share at which
    the contest pays the outside option ``o``.  It is ``inf`` when ``o <= 0``
    or ``p*`` rounds to zero, and ``-inf`` when ``o > delta``.
    """
    record = scenario.record(athlete_id)
    leave = outside_option(record, scenario.globals)
    delta = float(record.prize_diff)
    if leave > delta:
        return -float("inf")
    if leave <= 0.0:
        return float("inf")
    p_star = (math.sqrt(1.0 + 8.0 * leave / delta) - 1.0) / 2.0
    k = record.base_cost / drafting_multiplier(record.draft_share, scenario.globals.eta)
    de = delta * record.weight * record.weight
    return de * (1.0 - p_star) / (k * p_star) if k * p_star > 0.0 else float("inf")


def share_stable_sets(scenario: Scenario) -> tuple[list[tuple[str, ...]], float]:
    """Every stable field by the share-function predicates, with no root solve, in
    lexicographic order, and the closest any finite predicate comes to its threshold.

    ``F_S(t) = sum_{i in S} de_i / (k_i t + de_i)`` is field ``S``'s share sum at
    ``t = X^2``; it falls in ``t`` and its root solves ``F_S = 1``.  With ``tau`` from
    ``reference_threshold`` and ``p*`` the textbook share (0 for ``o <= 0``), the members are
    content iff ``F_S(min tau) <= 1`` and outsider ``j`` stays out iff
    ``F_S(tau_j) + p*_j >= 1``.  ``tau = inf`` (``o <= 0``) gives ``F_S = 0``; with
    ``tau = -inf`` (``o > delta``) a member is never content and an outsider always stays
    out.  A lone member with ``o == delta`` has ``tau = 0`` and ``F = 1``: content.  Every
    field is tested at once, as a bitmask row (bit ``i`` the ``i``-th athlete).
    """
    records, eta = scenario.athletes, scenario.globals.eta
    n = len(records)
    k = np.array([rec.base_cost / drafting_multiplier(rec.draft_share, eta) for rec in records])
    de = np.array([rec.prize_diff * rec.weight * rec.weight for rec in records])
    tau = np.array([reference_threshold(scenario, rec.id) for rec in records])
    p_star = np.array([(math.sqrt(1.0 + 8.0 * max(ratio, 0.0)) - 1.0) / 2.0 for ratio in
                       (outside_option(rec, scenario.globals) / rec.prize_diff
                        for rec in records)])
    inside = (np.arange(1 << n)[:, None] >> np.arange(n) & 1).astype(bool)
    low = np.where(inside, tau, np.inf).min(axis=1)
    members = np.where(inside, de / (k * low[:, None] + de), 0.0).sum(axis=1)
    outsiders = inside @ (de[:, None] / (k[:, None] * tau + de[:, None])) + p_star
    content = (low > -np.inf) & (members <= 1.0)
    stays_out = (tau == -np.inf) | (outsiders >= 1.0)
    stable = content & (inside | stays_out).all(axis=1)
    finite = [members[np.isfinite(low)], outsiders[~inside & np.isfinite(tau)]]
    margin = min(np.abs(values - 1.0).min(initial=np.inf) for values in finite)
    ids = [rec.id for rec in records]
    found = [tuple(sorted(itertools.compress(ids, row))) for row in inside[stable]]
    return sorted(found), float(margin)


def reference_iteration(scenario: Scenario):
    """``(members, trace, method)`` of the best-reply set operator from the full field.

    An empty round, a revisit or ``2 n`` rounds without a fixed point end the
    loop.  Athletes then join in falling threshold order, ties in scenario
    order, while every member of the grown field weakly prefers staying
    (method ``"greedy"``).
    """
    ids = sorted(scenario.ids)
    current = tuple(ids)
    trace = [current]
    visited = {current}
    for _ in range(2 * len(ids)):
        nxt = tuple(aid for aid in ids
                    if reference_net_benefit(scenario, current, aid) >= 0.0)
        trace.append(nxt)
        if nxt == current:
            return current, tuple(trace), "fixed_point"
        if not nxt or nxt in visited:
            break
        visited.add(nxt)
        current = nxt
    field: list[str] = []
    for aid in sorted(scenario.ids, key=lambda aid: reference_threshold(scenario, aid),
                      reverse=True):
        if all(reference_net_benefit(scenario, field + [aid], member) >= 0.0
               for member in field + [aid]):
            field.append(aid)
    return tuple(sorted(field)), tuple(trace), "greedy"


def reference_cutoff(scenario: Scenario, members, athlete_id: str,
                     tol: float = 1e-10) -> tuple[str, float | None]:
    """``(verdict, psi_star)`` of ``athlete_id`` by bisecting the net benefit in the own multiplier.

    The net benefit rises in the own multiplier: a nonnegative value at the
    lower bound means the athlete always continues, a negative value at the
    upper bound that they always withdraw, and otherwise up to 200 halvings
    find the interior root, each one a fresh contest solve.
    """
    base = reference_instance(scenario, members)
    leave = outside_option(scenario.record(athlete_id), scenario.globals)

    def value(psi: float) -> float:
        instance = base.with_psi(athlete_id, psi)
        return solve_contest(instance).continuation_values[athlete_id] - leave

    lo, hi = scenario.globals.psi_bounds
    if value(lo) >= 0.0:
        return entry.ALWAYS_CONTINUE, None
    if value(hi) < 0.0:
        return entry.ALWAYS_WITHDRAW, None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        vm = value(mid)
        if abs(vm) <= tol:
            return entry.INTERIOR, mid
        if vm < 0.0:
            lo = mid
        else:
            hi = mid
    return entry.INTERIOR, 0.5 * (lo + hi)


def reference_sweep(scenario: Scenario, param: str, grid,
                    stage: str = "contest") -> list[SweepRecord]:
    """Each point replaces one athlete's record (``athletes.<id>.<field>``), the global
    parameters (``globals.<field>``; a new ``eta`` resets the bounds) or every record by
    ``round(value)`` clones of the first, with ids ``<id>1, <id>2, ...`` (``m``), rebuilds
    the scenario, and solves its full field, or with ``stage="full"`` takes
    ``assemble_spe(mode="iterative")``'s outcome."""
    parts = param.split(".")
    records = []
    for value in grid:
        if parts[0] == "m":
            first = scenario.athletes[0]
            clones = tuple(dataclasses.replace(first, id=f"{first.id}{i}")
                           for i in range(1, round(value) + 1))
            local = dataclasses.replace(scenario, athletes=clones, graph=())
        elif parts[0] == "globals":
            reset = {"psi_bounds": None} if parts[1] == "eta" else {}
            local = dataclasses.replace(scenario, globals=dataclasses.replace(
                scenario.globals, **reset, **{parts[1]: float(value)}))
        else:
            _, athlete_id, field = parts
            new = int(round(value)) if field == "r_swim" else float(value)
            athletes = tuple(dataclasses.replace(rec, **{field: new}) if rec.id == athlete_id
                             else rec for rec in scenario.athletes)
            local = dataclasses.replace(scenario, athletes=athletes)
        members = actions = None
        if stage == "contest":
            solved = solve_contest(ContestInstance.from_scenario(local))
        else:
            outcome = entry.assemble_spe(local, mode="iterative")[0]
            solved, members, actions = outcome.equilibrium, outcome.members, outcome.actions
        records.append(SweepRecord(
            param=param, value=float(value), total_effort=solved.total_effort,
            efforts=dict(solved.efforts), probs=dict(solved.probs),
            continuation_values=dict(solved.continuation_values),
            members=members, actions=actions))
    return records
