"""Post-swim continuation decisions: net benefits, cutoffs, equilibrium fields.

An athlete continues when the contest value of staying beats the outside
option.  The module evaluates those net benefits for arbitrary candidate
fields, gives in closed form the drafting-multiplier cutoff that makes an
athlete indifferent, and assembles self-consistent continuation sets either
by a pruned search over the candidate fields, the empty one included (all ``2^n`` of
them at worst), or by iterating the best-reply set operator, which ends at a stable field.

Each public call keys its scenario's candidate fields by bitmask (bit ``i``
is the ``i``-th athlete) and builds and solves every field at most once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .contest import (
    ContestEquilibrium,
    ContestInstance,
    NashCheck,
    _newton,
    solve_contest,
    verify_nash,
)
from .model import Scenario, SolverSettings

__all__ = [
    "Members",
    "NetBenefit",
    "CutoffResult",
    "EntryIteration",
    "SpeResult",
    "CONTINUE",
    "WITHDRAW",
    "INTERIOR",
    "ALWAYS_CONTINUE",
    "ALWAYS_WITHDRAW",
    "subset_equilibrium",
    "net_benefit",
    "net_benefit_curve",
    "cutoff_psi",
    "enumerate_equilibrium_sets",
    "iterate_continuation_operator",
    "assemble_spe",
    "is_equilibrium_set",
]

Members = tuple[str, ...]

CONTINUE = "continue"
WITHDRAW = "withdraw"

INTERIOR = "interior"
ALWAYS_CONTINUE = "always_continue"
ALWAYS_WITHDRAW = "always_withdraw"

# Largest field searched for stable sets; the pruned search visits all 2^n
# fields at worst, solving each with two or more members once.
_ENUM_MAX_N = 12


@dataclass(frozen=True)
class NetBenefit:
    """Stay-versus-leave comparison for one athlete in one candidate field.

    ``members`` is the field the contest was actually evaluated on; for an
    athlete outside the queried set this is the set extended by them.
    """

    athlete_id: str
    members: Members
    continuation: float
    outside: float
    value: float


@dataclass(frozen=True)
class CutoffResult:
    """Indifference point of the net benefit in the drafting multiplier."""

    athlete_id: str
    members: Members
    verdict: str
    psi_star: float | None


@dataclass(frozen=True)
class EntryIteration:
    """Outcome of the set-operator iteration, with the visited trace and how it ended."""

    members: Members
    trace: tuple[Members, ...]
    method: str


@dataclass(frozen=True)
class SpeResult:
    """One self-consistent continuation outcome with its solved contest: for the empty field,
    a zero-effort record with no entries."""

    members: Members
    equilibrium: ContestEquilibrium
    actions: dict[str, str]
    payoffs: dict[str, float]
    method: str


class _Fields:
    """The candidate fields of one set of input columns, keyed by bitmask, each solved once.

    ``columns`` is shaped like ``Scenario._columns``; every field's contest carries
    ``settings``.  Bit ``i`` is the ``i``-th athlete, kept as its position: a table of every
    ``1 << i`` would hold memory quadratic in ``n``.  A field's contest takes the full field's
    columns, effective ones included, at its set bits: what the public constructor builds.
    """

    def __init__(self, columns: tuple[tuple, ...], settings: SolverSettings | None) -> None:
        self.full = ContestInstance._derived(*columns[:5], settings)
        self.ids = self.full.ids
        self.everyone = (1 << len(self.ids)) - 1
        self.outside = columns[5]
        self._at = {aid: i for i, aid in enumerate(self.ids)}
        self._solved: dict[int, tuple[ContestInstance | None, ContestEquilibrium]] = {
            0: (None, ContestEquilibrium(0.0, {}, {}, {}, 0.0))}

    def mask(self, members: Iterable[str]) -> int:
        mask = 0
        for aid in members:
            if aid not in self._at:
                raise ValueError(f"unknown athlete id {aid!r}")
            mask |= 1 << self._at[aid]
        return mask

    def members(self, mask: int) -> Members:
        """Sorted ids of the field ``mask``."""
        return tuple(sorted(aid for i, aid in enumerate(self.ids) if mask >> i & 1))

    def member_index(self, mask: int, athlete_id: str) -> int:
        if athlete_id not in self._at or not mask >> self._at[athlete_id] & 1:
            raise ValueError(f"athlete {athlete_id!r} is not in the member set")
        return self._at[athlete_id]

    def instance(self, mask: int) -> ContestInstance:
        if mask == self.everyone:
            return self.full
        full, at = self.full, []
        while mask:  # the set bits only: a small field of a large table costs its own size
            at.append((mask & -mask).bit_length() - 1)
            mask &= mask - 1
        ids, delta, cost, psi, weight, k, delta_eff = (
            tuple([column[i] for i in at]) for column in
            (full.ids, full.delta, full.cost, full.psi, full.weight, *full._effective))
        return ContestInstance._derived(ids, delta, cost, psi, weight, full.settings,
                                        (k, delta_eff))

    def solve(self, mask: int) -> tuple[ContestInstance | None, ContestEquilibrium]:
        """The field's contest and its equilibrium; the empty field has no contest, zero effort."""
        if mask not in self._solved:
            instance = self.instance(mask)
            self._solved[mask] = instance, solve_contest(instance)
        return self._solved[mask]

    def checked(self, mask: int) -> tuple[ContestInstance | None, ContestEquilibrium,
                                           NashCheck | None]:
        """``solve`` and its passing best-response check (``None`` for the empty field), else a
        ``RuntimeError`` naming who gains by deviating: a loose solver block can stop short."""
        instance, equilibrium = self.solve(mask)
        check = None if instance is None else verify_nash(instance, equilibrium)
        if check and not check.passed:
            raise RuntimeError(f"contest on {instance.ids} failed the best-response check: "
                               f"athlete {check.worst!r} gains {check.max_gain:.11e} by deviating")
        return instance, equilibrium, check

    def stay(self, mask: int, i: int) -> float:
        """Continuation value of athlete ``i`` in the field ``mask`` plus them, which they weigh
        against their outside option; alone, ``delta`` with no contest built or solved."""
        grown = mask | 1 << i
        return (self.full.delta[i] if grown == 1 << i
                else self.solve(grown)[1].continuation_values[self.ids[i]])

    def content(self, mask: int) -> bool:
        """Every member of the field ``mask`` weakly prefers staying."""
        return all(self.stay(mask, i) >= o for i, o in enumerate(self.outside) if mask >> i & 1)

    def stable(self, mask: int) -> bool:
        """Members weakly prefer staying, outsiders weakly prefer staying out."""
        return not any(self.stay(mask, i) < o if mask >> i & 1 else self.stay(mask, i) > o
                       for i, o in enumerate(self.outside))


def subset_equilibrium(scenario: Scenario, members: Iterable[str]) -> ContestEquilibrium:
    """Solve the contest among ``members``, given in any order; ``()`` has zero effort.

    Like every public call of this module, it solves each field at most
    once, keyed by bitmask.  Input columns are cached per ``Scenario``;
    solves never outlive a call.
    """
    fields = _Fields(scenario._columns, scenario.settings)
    return fields.solve(fields.mask(members))[1]


def net_benefit(scenario: Scenario, members: Iterable[str], athlete_id: str) -> NetBenefit:
    """Continuation value minus outside option for one athlete.

    An athlete outside ``members`` is judged on the field extended by them, which is the
    payoff relevant to their own entry decision; alone, it pays ``delta`` with no solve.
    """
    fields = _Fields(scenario._columns, scenario.settings)
    mask = fields.mask(members) | fields.mask((athlete_id,))
    i = fields.member_index(mask, athlete_id)
    stay, leave = fields.stay(mask, i), fields.outside[i]
    return NetBenefit(athlete_id=athlete_id, members=fields.members(mask),
                      continuation=stay, outside=leave, value=stay - leave)


def net_benefit_curve(scenario: Scenario, members: Iterable[str],
                      athlete_id: str, psi_grid: Sequence[float]) -> list[float]:
    """Net benefit of ``athlete_id`` across a grid of own multipliers."""
    fields = _Fields(scenario._columns, scenario.settings)
    mask = fields.mask(members)
    leave = fields.outside[fields.member_index(mask, athlete_id)]
    base = fields.instance(mask)
    return [solve_contest(base.with_psi(athlete_id, float(psi)))
            .continuation_values[athlete_id] - leave for psi in psi_grid]


def _needed_share(leave: float, delta: float) -> tuple[float, float]:
    """Win share ``p* = (s - 1) / 2``, ``s = sqrt(1 + 8 r)``, paying ``leave = r delta``, and
    ``1 - p*``, as ``4 r / (1 + s)`` and ``4 (1 - r) / (3 + s)``: neither cancels near 0 or 1.
    Every share pays ``r <= 0``, ``(0, 1)``; none pays ``r > 1``, ``(inf, -inf)``."""
    if leave <= 0.0:
        return 0.0, 1.0
    if leave > delta:
        return math.inf, -math.inf
    ratio = leave / delta
    root = math.sqrt(1.0 + 8.0 * ratio)
    return 4.0 * ratio / (1.0 + root), 4.0 * ((delta - leave) / delta) / (3.0 + root)


def cutoff_psi(scenario: Scenario, members: Iterable[str], athlete_id: str) -> CutoffResult:
    """Indifference multiplier of one athlete, holding everyone else fixed.

    An equilibrium win share ``p`` pays ``delta p (1 + p) / 2``, so with outside
    option ``o`` the athlete stays iff ``p >= p* = (sqrt(1 + 8 o / delta) - 1) / 2``.
    The others' shares then sum to ``1 - p*`` (exact as ``o`` nears ``delta``); one root
    solve over them to that relative mass gives ``t = X^2`` and
    ``psi* = cost p* t / (delta w^2 (1 - p*))``: 0 with no solve when ``p* = 0`` (``o / delta``
    rounds to at most 0) or a lone member has ``o <= delta``, else infinite when ``o >= delta``.
    The verdict is ``always_continue`` for ``psi* <= lo``, ``always_withdraw`` for
    ``psi* > hi`` and ``interior`` between, where ``(lo, hi) = psi_bounds``.
    """
    fields = _Fields(scenario._columns, scenario.settings)
    mask = fields.mask(members)
    i = fields.member_index(mask, athlete_id)
    p_star, rest = _needed_share(fields.outside[i], fields.full.delta[i])
    if not p_star or (mask == 1 << i and rest >= 0.0):
        psi_star = 0.0
    elif rest <= 0.0:
        psi_star = math.inf
    else:
        field = fields.instance(mask)  # only this field's effective prizes are checked
        delta_eff = field._delta_eff[field.index(athlete_id)]
        x = _newton(fields.instance(mask & ~(1 << i)), rest)[0]
        psi_star = fields.full.cost[i] * p_star * x * x / (delta_eff * rest)
    key, (lo, hi) = fields.members(mask), scenario.globals.psi_bounds
    if psi_star <= lo:
        return CutoffResult(athlete_id, key, ALWAYS_CONTINUE, None)
    if psi_star > hi:
        return CutoffResult(athlete_id, key, ALWAYS_WITHDRAW, None)
    return CutoffResult(athlete_id, key, INTERIOR, psi_star)


# ---------------------------------------------------------------------------
# Equilibrium continuation sets
# ---------------------------------------------------------------------------


def is_equilibrium_set(scenario: Scenario, members: Iterable[str]) -> bool:
    """Direct check of the two stability conditions for a candidate field.

    Every member must weakly prefer staying, and every outsider must weakly
    prefer staying out of the field extended by themselves.
    """
    fields = _Fields(scenario._columns, scenario.settings)
    return fields.stable(fields.mask(members))


def _stable_sets(fields: _Fields) -> list[int]:
    """Stable fields, in order of their sorted ids, by a depth-first search over the
    content fields, the empty one included.

    A field is content when every member weakly prefers staying.  Joining
    raises the aggregate and lowers every member's continuation value, so
    every subset of a content field is content.  A continuation value is
    never negative, so an athlete with a negative outside option is in
    every stable field; at exactly zero a value that underflows to 0 lets
    the athlete stay out.  Each stable field is therefore reached from the
    forced stayers by adding athletes in increasing bit order through
    content fields only.

    A branch adds only athletes that keep its node content, so each of its
    fields lies inside the node joined by all of them.  An outsider the
    branch never adds who wants into that union wants into each of its
    fields, and the branch is dropped.  The search visits all ``2^n`` fields at worst and
    solves each with two or more members once, so it refuses past ``_ENUM_MAX_N`` athletes.
    """
    n = len(fields.ids)
    if n > _ENUM_MAX_N:
        raise ValueError(f"enumeration over {n} athletes needs 2^{n} subset solves; "
                         f"use mode 'iterative' or iterate_continuation_operator")
    forced = sum(1 << i for i, leave in enumerate(fields.outside) if leave < 0.0)
    stack, found = [(forced, 0)], []
    while stack:
        mask, start = stack.pop()
        grow = [i for i in range(start, n)
                if not mask >> i & 1 and fields.content(mask | 1 << i)]
        top = mask | sum(1 << i for i in grow)
        if any(fields.stay(top, j) > fields.outside[j] for j in range(start) if not mask >> j & 1):
            continue
        if fields.stable(mask):
            found.append(mask)
        stack.extend((mask | 1 << i, i + 1) for i in grow)
    return sorted(found, key=fields.members)


def enumerate_equilibrium_sets(scenario: Scenario) -> list[Members]:
    """All stable continuation sets, in lexicographic order of sorted ids; ``()`` leads when no
    prize beats its outside option, so the list is never empty.

    A pruned search that visits all ``2^n`` fields, the empty one included, in the worst case,
    so it raises ``ValueError`` past 12 athletes; larger fields should use the iterative
    operator.  Each field is solved at most once, keyed by bitmask; the empty and lone ones never.
    """
    fields = _Fields(scenario._columns, scenario.settings)
    return [fields.members(mask) for mask in _stable_sets(fields)]


def _greedy(fields: _Fields) -> int:
    """A stable field, built by adding athletes in falling order of their own thresholds.

    Member ``i`` stays iff the field's ``t = X^2`` is at most ``tau_i = de_i (1 - p*_i)
    / (k_i p*_i)``: infinite for ``o_i <= 0`` or an underflowed ``k_i p*_i``, ``-inf``
    for ``o_i > delta_i``.  Ties go in scenario order; an athlete joins if the field
    stays content, so only they can refuse, and one who refused a subset of the final
    field refuses it too.  An athlete with ``o_i <= delta_i`` is content alone, so the result
    is empty exactly when every ``o_i > delta_i``.  At most ``n`` fields are solved.

    The best-reply iteration from the full field ``N`` ends here: its first round keeps ``S1 =
    {i : tau_i >= t(N)}``, a prefix of that order with ``t <= t(N)`` on each prefix, so ``S1``
    enters greedy whole, and if no outsider wants into ``S1`` both stop there.  Longer paths
    rest on ``test_the_best_reply_iteration_ends_at_the_greedy_field``.
    """
    k, de = fields.full._effective

    def tau(i: int) -> float:
        p, rest = _needed_share(fields.outside[i], fields.full.delta[i])
        if rest < 0.0:
            return -math.inf
        return de[i] * rest / (k[i] * p) if k[i] * p else math.inf

    mask = 0
    for i in sorted(range(len(fields.ids)), key=tau, reverse=True):
        if fields.content(mask | 1 << i):
            mask |= 1 << i
    return mask


def iterate_continuation_operator(scenario: Scenario) -> EntryIteration:
    """Iterate the best-reply set operator until it settles.

    Starting from the full field, each round keeps the athletes whose net
    benefit against the current set is nonnegative.  A fixed point is
    returned directly.  An empty round, a revisited set or ``2 n`` rounds
    without settling end the iteration at the stable field that athletes
    joining in falling order of their thresholds build (method ``greedy``).
    That field is empty when every outside option exceeds its prize.
    """
    fields = _Fields(scenario._columns, scenario.settings)
    mask, trace, method = _iterate(fields)
    return EntryIteration(fields.members(mask), trace, method)


def _iterate(fields: _Fields) -> tuple[int, tuple[Members, ...], str]:
    n = len(fields.ids)
    current = fields.everyone
    trace: list[Members] = [fields.members(current)]
    for _ in range(2 * n):
        nxt = sum(1 << i for i in range(n) if fields.stay(current, i) >= fields.outside[i])
        trace.append(fields.members(nxt))
        if nxt == current:
            return current, tuple(trace), "fixed_point"
        if not nxt or trace[-1] in trace[:-1]:
            break
        current = nxt
    return _greedy(fields), tuple(trace), "greedy"


def assemble_spe(scenario: Scenario, mode: str = "first") -> list[SpeResult]:
    """Full continuation outcomes: stable sets, actions, and payoffs.

    ``mode`` selects the stable set: ``"first"`` takes the lexicographically first enumerated
    set, ``"all"`` keeps every enumerated set, and ``"iterative"`` runs the set operator (method
    ``iteration``, or ``greedy`` where it does not settle).  In the empty set everyone withdraws
    at their outside option.  Every result is re-checked against both stability conditions and
    by ``_Fields.checked``, each raising ``RuntimeError`` on failure.  One call solves each
    field at most once.
    """
    if mode not in ("first", "all", "iterative"):
        raise ValueError(f"mode must be 'first', 'all', or 'iterative', got {mode!r}")
    fields = _Fields(scenario._columns, scenario.settings)
    if mode == "iterative":
        mask, _, method = _iterate(fields)
        return [_outcome(fields, mask, "iteration" if method == "fixed_point" else method)]
    masks = _stable_sets(fields)[:1 if mode == "first" else None]
    return [_outcome(fields, mask, "enumeration") for mask in masks]


def _outcome(fields: _Fields, mask: int, method: str) -> SpeResult:
    """The stable field ``mask`` as a continuation outcome, re-checked as ``assemble_spe`` says:
    its members continue at their contest values, the rest withdraw at their outside options."""
    members, equilibrium = fields.members(mask), fields.checked(mask)[1]
    if not fields.stable(mask):
        raise RuntimeError(f"internal error: set {members} failed its stability re-check")
    paid = equilibrium.continuation_values
    return SpeResult(members, equilibrium,
                     {aid: CONTINUE if aid in paid else WITHDRAW for aid in fields.ids},
                     {aid: paid.get(aid, leave) for aid, leave in zip(fields.ids, fields.outside)},
                     method)
