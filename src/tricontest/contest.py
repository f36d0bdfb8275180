"""Equilibrium of the weighted effort lottery for a fixed field of starters.

Solving reduces to one scalar equation: at aggregate weighted effort ``X``
each athlete's implied win probability is ``de_i / (k_i X^2 + de_i)`` with
``de_i = prize_i * weight_i^2``, and the probabilities sum to one exactly at
the equilibrium aggregate.  In ``t = X^2`` the excess mass is convex and
strictly decreasing and equals ``m - 1`` at zero, so Newton's method started
at ``t = 0`` rises monotonically to the unique root without a bracket, after
which odds, efforts, and payoffs follow in closed form.
"""

from __future__ import annotations

import math
import sys
from operator import mul, truediv
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, NoReturn

from .model import (
    DegenerateProfileError,
    DomainError,
    EffortProfile,
    Scenario,
    SolverSettings,
    _float,
)

__all__ = [
    "SolverSettings",
    "ConvergenceError",
    "ContestInstance",
    "ContestEquilibrium",
    "SymmetricEquilibrium",
    "NashCheck",
    "CurvatureReport",
    "aggregate_equation",
    "solve_total_effort",
    "solve_contest",
    "two_player_equilibrium",
    "symmetric_equilibrium",
    "verify_nash",
    "payoff_curvature",
]

DEFAULT_SETTINGS = SolverSettings()
_TINY = sys.float_info.min  # smallest normal float: the root search fails below it


class ConvergenceError(RuntimeError):
    """The Newton root search ran out of budget or stalled.

    Carries a bracket of the root, from the last Newton iterate below it
    (zero if a warm start left none) to the a-priori upper bound
    ``sqrt(sum de_i / k_i / mass)`` for a target share mass (one for a
    contest), so callers can inspect or retry with a larger budget.
    """

    def __init__(self, message: str, bracket: tuple[float, float],
                 residual: float) -> None:
        super().__init__(f"{message} (bracket [{bracket[0]}, {bracket[1]}], "
                         f"residual {residual})")
        self.bracket = bracket
        self.residual = residual


def _positive(name: str, value: float, athlete_id: str) -> float:
    if not 0.0 < value < math.inf:  # false for NaN as well
        raise DomainError(name, f"{name} must be positive and finite, got {value} "
                                f"(athlete {athlete_id!r})")
    return value


_Column = tuple[float, ...]
_Effective = tuple[_Column, _Column]  # slopes cost/psi and prizes delta*weight^2


@dataclass(frozen=True)
class ContestInstance:
    """Parameters of one effort lottery over an ordered field of athletes.

    ``delta`` holds prize differentials, ``cost`` the baseline quadratic
    cost slopes, ``psi`` the drafting multipliers, ``weight`` the lottery
    weights, and ``settings`` (``None``: the defaults) tune every solve.  The
    effective cost slope is ``k = cost / psi`` and the effective prize is
    ``delta * weight^2``.  Public input is checked once, here; a scenario's
    full field, its candidate fields and the ``with_*`` variants reuse checked
    columns and carry the settings on.  Every construction ends in ``_store``,
    the one place that computes the effective columns; an instance refuses
    any that are not normal floats when first solved.
    """

    ids: tuple[str, ...]
    delta: tuple[float, ...]
    cost: tuple[float, ...]
    psi: tuple[float, ...]
    weight: tuple[float, ...]
    settings: SolverSettings | None = None

    def __post_init__(self) -> None:
        ids = tuple(map(str, self.ids))
        if len(ids) < 1:
            raise DomainError("ids", "a contest instance needs at least one member")
        if len(set(ids)) != len(ids):
            raise DomainError("ids", "contest member ids must be unique")
        columns = []
        for name in ("delta", "cost", "psi", "weight"):
            values = tuple(map(_float, getattr(self, name)))
            if len(values) != len(ids):
                raise DomainError(name, f"{name} needs one entry per member "
                                        f"({len(ids)}), got {len(values)}")
            for aid, value in zip(ids, values):
                _positive(name, value, aid)
            columns.append(values)
        if not isinstance(self.settings, (SolverSettings, type(None))):
            raise DomainError("settings", f"settings must be SolverSettings, got {self.settings!r}")
        self._store(ids, *columns, self.settings)

    def _store(self, ids: tuple[str, ...], delta: _Column, cost: _Column, psi: _Column,
               weight: _Column, settings: SolverSettings | None,
               effective: _Effective | None = None) -> None:
        """Set the checked columns, the settings (``None`` read as the defaults here only) and
        the unchecked ``_effective`` slopes ``cost / psi`` and prizes ``delta * weight^2``,
        computed here only; a candidate field passes its slices of the full field's as
        ``effective``.  Every construction ends here.  They serve as ``_k`` and ``_delta_eff``
        where normal throughout; elsewhere that property refuses them when first solved."""
        if effective is None:
            effective = (tuple(map(truediv, cost, psi)),
                         tuple(map(mul, map(mul, delta, weight), weight)))
        columns = self.__dict__
        columns.update(ids=ids, delta=delta, cost=cost, psi=psi, weight=weight,
                       settings=settings or DEFAULT_SETTINGS, _effective=effective)
        for name, values in zip(("_k", "_delta_eff"), effective):
            if _TINY <= min(values) and max(values) < math.inf:  # no NaN: the columns are positive
                columns[name] = values

    @classmethod
    def _derived(cls, ids: tuple[str, ...], delta: _Column, cost: _Column, psi: _Column,
                 weight: _Column, settings: SolverSettings | None,
                 effective: _Effective | None = None) -> "ContestInstance":
        """An instance over already-checked float columns, without the public checks."""
        self = object.__new__(cls)
        self._store(ids, delta, cost, psi, weight, settings, effective)
        return self

    @property
    def m(self) -> int:
        return len(self.ids)

    def index(self, athlete_id: str) -> int:
        try:
            return self.ids.index(athlete_id)
        except ValueError:
            raise ValueError(f"athlete {athlete_id!r} is not a contest member") from None

    @cached_property
    def _k(self) -> tuple[float, ...]:
        self._normal("effective_cost", "effective cost slope cost/psi", self._effective[0])

    @cached_property
    def _delta_eff(self) -> tuple[float, ...]:
        self._normal("effective_prize", "effective prize delta*weight^2", self._effective[1])

    def _normal(self, name: str, label: str, values: tuple[float, ...]) -> NoReturn:
        """Refuse the first of ``values`` that is not a normal finite float: ``_store`` sets
        ``_k`` and ``_delta_eff`` wherever they are normal, so their properties only refuse."""
        value = next(value for value in values if not _TINY <= value < math.inf)
        raise DomainError(name, f"{label} must be a normal finite float, got {value} "
                                f"(athlete {self.ids[values.index(value)]!r})")

    def _with_field(self, name: str, athlete_id: str, value: float) -> "ContestInstance":
        idx = self.index(athlete_id)
        value = _positive(name, float(value), self.ids[idx])
        columns = {"delta": self.delta, "cost": self.cost, "psi": self.psi,
                   "weight": self.weight}
        column = columns[name]
        columns[name] = column[:idx] + (value,) + column[idx + 1:]
        return self._derived(self.ids, **columns, settings=self.settings)

    def with_psi(self, athlete_id: str, value: float) -> "ContestInstance":
        return self._with_field("psi", athlete_id, value)

    def with_delta(self, athlete_id: str, value: float) -> "ContestInstance":
        return self._with_field("delta", athlete_id, value)

    def with_cost(self, athlete_id: str, value: float) -> "ContestInstance":
        return self._with_field("cost", athlete_id, value)

    @classmethod
    def from_scenario(cls, scenario: Scenario) -> "ContestInstance":
        """A fresh contest among all of the scenario's athletes, in its order and under its
        settings, over the input columns it builds from its checked records once; solves live
        on the new instance only.  The entry stage and ``sweep`` build theirs the same way."""
        return cls._derived(*scenario._columns[:5], scenario.settings)


@dataclass(frozen=True)
class ContestEquilibrium:
    """Solved lottery: aggregate weighted effort plus per-athlete quantities.

    ``total_effort`` is the weighted aggregate (equal to the plain sum of
    efforts when every weight is one); ``residual`` is the absolute excess
    probability mass left at the returned root.
    """

    total_effort: float
    efforts: Mapping[str, float]
    probs: Mapping[str, float]
    continuation_values: Mapping[str, float]
    residual: float


@dataclass(frozen=True)
class SymmetricEquilibrium:
    """Closed-form solution of the symmetric contest."""

    effort: float
    total_effort: float
    prob: float


@dataclass(frozen=True)
class NashCheck:
    """Largest gain any member gets from its exact best response, whose it is, and the verdict."""

    max_gain: float
    worst: str | None
    passed: bool


@dataclass(frozen=True)
class CurvatureReport:
    """Exact second-order terms of one athlete's payoff at a profile."""

    second: float
    cross: Mapping[str, float]


# ---------------------------------------------------------------------------
# Aggregate equation and root search
# ---------------------------------------------------------------------------


def _sum_left(values: Iterable[float]) -> float:
    """Left-to-right float sum, rounded the same on every interpreter version."""
    total = 0.0
    for value in values:
        total += value
    return total


def _gap_and_slope(instance: ContestInstance, t: float, mass: float = 1.0) -> tuple[float, float]:
    """Excess ``g(t)`` of shares ``de / (k t + de)`` at ``t = X^2`` over ``mass``, and ``dg/dt``.

    The sums run left to right in this loop, so they do not depend on how
    the interpreter's ``sum`` rounds.
    """
    total = slope = 0.0
    for k, de in zip(instance._k, instance._delta_eff):
        den = k * t + de
        p = de / den
        total += p
        slope -= p * k / den
    return total - mass, slope


def aggregate_equation(total: float, instance: ContestInstance) -> float:
    """Excess win-probability mass implied by aggregate effort ``total``.

    Strictly decreasing in ``total`` and equal to ``m - 1`` at zero; its
    unique nonnegative root is the equilibrium aggregate.
    """
    total = float(total)
    if not (math.isfinite(total) and total >= 0.0):
        raise DomainError("total", f"total effort must be nonnegative, got {total}")
    return _gap_and_slope(instance, total * total)[0]


def _newton(instance: ContestInstance, mass: float = 1.0,
            start: float = 0.0) -> tuple[float, float, float]:
    """Root ``X``, gap ``g`` and slope ``dg/dt`` there by Newton in ``t = X^2`` from ``X = start``:
    a start above the root steps to or below it (``g`` is convex, ``t < 0`` clamps to 0), then
    climbs until ``|g| <= max(abs_tol, m eps) mass``, so a small target mass keeps its digits.
    ``abs_tol`` and the ``max_iter`` budget are the instance's settings, the only ones read.
    Raises :class:`ConvergenceError` when the budget runs out, a step stalls, or ``dg/dt``
    underflows to zero, as it does for a root beyond float range (``de/k`` past about 1e308)."""
    tol = max(instance.settings.abs_tol, instance.m * sys.float_info.epsilon) * mass
    x = start
    try:
        for _ in range(instance.settings.max_iter):
            t = x * x
            gap, slope = _gap_and_slope(instance, t, mass)
            if abs(gap) <= tol:
                return x, gap, slope
            x, last = math.sqrt(t_next if (t_next := t - gap / slope) > 0.0 else 0.0), x
            if x == last:
                message = "Newton stalled at floating point resolution"
                break
        else:
            message = "Newton exhausted its iteration budget"
    except ZeroDivisionError:  # every p k / (k t + de) underflowed: a root beyond float range
        message, last = "Newton's slope underflowed to zero", x
    # Every share lies below de_i / (k_i t), so the root has t < sum de_i / k_i / mass.
    bound = math.fsum(de / k for de, k in zip(instance._delta_eff, instance._k)) / mass
    raise ConvergenceError(message, (last if gap > 0.0 else 0.0, math.sqrt(bound)), gap)


def solve_total_effort(instance: ContestInstance) -> float:
    """Root of the aggregate equation by monotone Newton steps in ``t = X^2``.

    The excess mass ``g(t)`` is convex and strictly decreasing, so Newton's
    method started at ``t = 0`` climbs to the root from below without a
    bracket.  Iteration stops once the absolute residual is at most
    ``max(abs_tol, m * eps)`` for the instance's ``abs_tol``, ``m * eps`` being
    the rounding of ``m`` shares.  Raises :class:`ConvergenceError` when
    its ``max_iter`` evaluations do not get there, a step stalls, or the
    root lies beyond float range.
    """
    if instance.m < 2:
        raise ValueError("the aggregate root search needs at least two members; "
                         "singleton fields are handled by solve_contest")
    return _newton(instance)[0]


def solve_contest(instance: ContestInstance) -> ContestEquilibrium:
    """Equilibrium odds, efforts, and expected payoffs for the field.

    A singleton field wins outright at zero effort by convention.  For two
    or more members the aggregate root ``X`` is solved first; each athlete's win
    probability ``de / (k X^2 + de)``, effort, and continuation value then follow directly.
    """
    if instance.m == 1:
        aid = instance.ids[0]
        return ContestEquilibrium(
            total_effort=0.0,
            efforts={aid: 0.0},
            probs={aid: 1.0},
            continuation_values={aid: instance.delta[0]},
            residual=0.0,
        )
    x, gap, _ = _newton(instance)
    t = x * x
    probs = [de / (k * t + de) for k, de in zip(instance._k, instance._delta_eff)]
    efforts = [p * x / w for p, w in zip(probs, instance.weight)]
    values = [p * d - 0.5 * k * e * e
              for p, d, k, e in zip(probs, instance.delta, instance._k, efforts)]
    ids = instance.ids
    return ContestEquilibrium(
        total_effort=x,
        efforts=dict(zip(ids, efforts)),
        probs=dict(zip(ids, probs)),
        continuation_values=dict(zip(ids, values)),
        residual=abs(gap),
    )


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def two_player_equilibrium(instance: ContestInstance) -> ContestEquilibrium:
    """Closed-form duel equilibrium.

    With advantage ratio ``R = (delta_1/k_1) / (delta_2/k_2)`` and odds
    ratio ``rho = sqrt(R) * w_1 / w_2`` the first athlete wins with
    probability ``rho / (1 + rho)`` and efforts scale with
    ``sqrt(delta / k)``.
    """
    if instance.m != 2:
        raise ValueError(f"the duel closed form needs exactly 2 members, "
                         f"got {instance.m}")
    k = instance._k
    adv = [instance.delta[i] / k[i] for i in (0, 1)]
    rho = math.sqrt(adv[0] / adv[1]) * instance.weight[0] / instance.weight[1]
    p = (rho / (1.0 + rho), 1.0 / (1.0 + rho))
    scale = math.sqrt(rho) / (1.0 + rho)
    e = (math.sqrt(adv[0]) * scale, math.sqrt(adv[1]) * scale)
    x = instance.weight[0] * e[0] + instance.weight[1] * e[1]
    values = tuple(p[i] * instance.delta[i] - 0.5 * k[i] * e[i] * e[i] for i in (0, 1))
    ids = instance.ids
    return ContestEquilibrium(
        total_effort=x,
        efforts=dict(zip(ids, e)),
        probs=dict(zip(ids, p)),
        continuation_values=dict(zip(ids, values)),
        residual=abs(aggregate_equation(x, instance)),
    )


def symmetric_equilibrium(m: int, delta: float, cost: float,
                          psi: float) -> SymmetricEquilibrium:
    """Closed form for ``m`` identical athletes with unit weights."""
    if not (isinstance(m, int) and not isinstance(m, bool)) or m < 2:
        raise ValueError(f"the symmetric closed form needs an integer field "
                         f"size of at least 2, got {m!r}")
    for name, value in (("delta", delta), ("cost", cost), ("psi", psi)):
        if not (math.isfinite(value) and value > 0.0):
            raise DomainError(name, f"{name} must be positive, got {value}")
    effort = math.sqrt(delta * psi / cost) * math.sqrt((m - 1.0) / (m * m))
    return SymmetricEquilibrium(effort=effort, total_effort=m * effort, prob=1.0 / m)


# ---------------------------------------------------------------------------
# Verification oracles
# ---------------------------------------------------------------------------


def _best_response(delta_eff: float, k: float, weight: float, rivals: float) -> float:
    """Effort maximising ``delta w e / (w e + R) - k e^2 / 2`` against rivals' ``R > 0``.

    The first-order condition is ``y^2 (y - 1) = g`` in ``y = (w e + R) / R``
    with ``g = de / (k R^2)``.  Cardano's root ``y = 1 + d^2 / u`` has
    ``u = cbrt(1/27 + s)``, ``s = g/2 + sqrt(g/27 + g^2/4)`` and
    ``d = u - 1/3 = s / (u^2 + u/3 + 1/9)``: sums of positive terms only.
    """
    g = delta_eff / k / rivals / rivals
    if g > 1e150:
        # Rivals all but idle: w e = cbrt(de R / k) to rounding, and g^2 would overflow.
        return (delta_eff / k) ** (1.0 / 3.0) * rivals ** (1.0 / 3.0) / weight
    s = g / 2.0 + math.sqrt(g / 27.0 + g * g / 4.0)
    u = (1.0 / 27.0 + s) ** (1.0 / 3.0)
    d = s / (u * u + u / 3.0 + 1.0 / 9.0)
    return rivals * d * d / (u * weight)


def verify_nash(instance: ContestInstance, equilibrium: ContestEquilibrium,
                deviation_tol: float = 1e-6) -> NashCheck:
    """Best-response check: the largest gain from a unilateral deviation.

    Each member's gain is the payoff of its exact best response to the
    rivals' weighted effort (the own payoff is strictly concave) less the
    payoff of the effort played.  The check is relative: it passes if no gain
    exceeds ``deviation_tol + 16 eps`` times the member's payoff scale, the
    larger of those two payoffs (16 eps bounds the rounding of their
    difference), or its prize when the rivals are idle.
    """
    if instance.m == 1:
        # The lone member takes the prize at zero cost; effort only hurts.
        return NashCheck(max_gain=0.0, worst=None, passed=True)
    efforts = []
    for aid in instance.ids:
        if aid not in equilibrium.efforts:
            raise ValueError(f"equilibrium efforts are missing athlete {aid!r}")
        efforts.append(float(equilibrium.efforts[aid]))
    x_parts = [w * e for w, e in zip(instance.weight, efforts)]
    x_all = _sum_left(x_parts)
    if x_all <= 0.0:
        raise DegenerateProfileError("the equilibrium profile must carry positive total effort")
    max_gain = -math.inf
    worst: str | None = None
    passed = True
    for idx, aid in enumerate(instance.ids):
        rivals = x_all - x_parts[idx]
        delta_i = instance.delta[idx]
        k_i = instance._k[idx]
        w_i = instance.weight[idx]
        own = efforts[idx]
        if rivals <= 0.0:
            # Rivals are idle: the win is safe at any positive effort, so the
            # only improvement is shedding the current cost.
            gain, scale = 0.5 * k_i * own * own, delta_i
        else:
            best = _best_response(instance._delta_eff[idx], k_i, w_i, rivals)
            best_value, own_value = (delta_i * (w_i * e) / (w_i * e + rivals)
                                     - 0.5 * k_i * e * e for e in (best, own))
            gain = best_value - own_value
            scale = max(abs(best_value), abs(own_value))
        passed &= gain <= (deviation_tol + 16.0 * sys.float_info.epsilon) * scale
        if gain > max_gain:
            max_gain = gain
            worst = aid
    return NashCheck(max_gain=max_gain, worst=worst, passed=passed)


def _require_nash(instance: ContestInstance, equilibrium: ContestEquilibrium) -> NashCheck:
    """``verify_nash``'s passing check, else a ``RuntimeError`` naming who gains by deviating:
    a loose solver block can stop short of the equilibrium."""
    check = verify_nash(instance, equilibrium)
    if not check.passed:
        raise RuntimeError(f"contest on {instance.ids} failed the best-response check: athlete "
                           f"{check.worst!r} gains {check.max_gain:.11e} by deviating")
    return check


def payoff_curvature(instance: ContestInstance, profile: EffortProfile,
                     athlete_id: str) -> CurvatureReport:
    """Exact own-second derivative and cross partials of one athlete's payoff.

    At weighted aggregate ``X`` with own share ``x_i`` the second derivative
    is ``-2 delta_i w_i^2 (X - x_i) / X^3 - k_i`` and the cross partial with
    athlete ``j`` is ``delta_i w_i w_j (2 x_i - X) / X^3``; the cross terms
    change sign with the athlete's win probability.
    """
    idx = instance.index(athlete_id)
    efforts = []
    for aid in instance.ids:
        if aid not in profile.efforts:
            raise ValueError(f"profile is missing athlete {aid!r}")
        efforts.append(profile.efforts[aid])
    x_parts = [w * e for w, e in zip(instance.weight, efforts)]
    x_all = _sum_left(x_parts)
    if x_all <= 0.0:
        raise DegenerateProfileError("curvature is undefined at the all-zero profile")
    delta_i = instance.delta[idx]
    k_i = instance._k[idx]
    w_i = instance.weight[idx]
    x_i = x_parts[idx]
    cube = x_all ** 3
    second = -2.0 * delta_i * w_i * w_i * (x_all - x_i) / cube - k_i
    cross = {}
    for jdx, aid in enumerate(instance.ids):
        if jdx == idx:
            continue
        cross[aid] = delta_i * w_i * instance.weight[jdx] * (2.0 * x_i - x_all) / cube
    return CurvatureReport(second=second, cross=cross)
