"""Core types and primitive maps for the drafting-contest model.

The model covers a race decided in two phases.  During the swim leg each
athlete accumulates a drafting share ``D`` in ``[0, 1]`` that discounts the
effort cost of the remaining legs through the multiplier
``psi = 1 / (1 - eta * D)``.  Athletes who stay in contention then compete
for a prize differential in a lottery whose win odds are proportional to
weighted effort; leaving instead pays a fixed outside option built from the
swim time, the swim rank, and a taste shifter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

__all__ = [
    "DomainError",
    "DegenerateProfileError",
    "AthleteRecord",
    "GlobalParams",
    "Scenario",
    "SolverSettings",
    "EffortProfile",
    "drafting_multiplier",
    "outside_option",
]


class DomainError(ValueError):
    """An input lies outside its documented domain.

    ``field`` names the offending parameter so callers (for example the
    scenario loader) can attach a precise path to the message.
    """

    def __init__(self, field: str, message: str) -> None:
        super().__init__(message)
        self.field = field


class DegenerateProfileError(ValueError):
    """Raised by ``verify_nash`` and ``payoff_curvature`` at a zero-total effort profile."""


def _require(condition: bool, field: str, message: str) -> None:
    if not condition:
        raise DomainError(field, message)


def _float(value: object) -> float:
    """``float(value)``; an integer past float range is the infinity of its sign."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _finite(value: float, field: str, label: str) -> float:
    value = _float(value)
    if not math.isfinite(value):
        raise DomainError(field, f"{label} must be finite, got {value}")
    return value


# ---------------------------------------------------------------------------
# Primitive maps
# ---------------------------------------------------------------------------


def drafting_multiplier(draft_share: float, eta: float) -> float:
    """Cost-reduction multiplier earned by drafting: ``1 / (1 - eta * draft_share)``."""
    share = _float(draft_share)
    if 0.0 <= share <= 1.0 and 0.0 < (rate := _float(eta)) < 1.0:  # false for NaN
        return 1.0 / (1.0 - rate * share)
    draft_share = _finite(draft_share, "draft_share", "draft_share")
    eta = _finite(eta, "eta", "eta")
    _require(0.0 <= draft_share <= 1.0, "draft_share",
             f"draft_share must lie in [0, 1], got {draft_share}")
    raise DomainError("eta", f"eta must lie in (0,1), got {eta}")


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AthleteRecord:
    """Post-swim state and economic parameters for one athlete."""

    id: str
    t_swim: float
    r_swim: int
    draft_share: float
    base_cost: float
    prize_diff: float
    weight: float = 1.0
    theta: float = 0.0

    def __post_init__(self) -> None:
        _require(isinstance(self.id, str) and len(self.id) > 0, "id",
                 "athlete id must be a nonempty string")
        for name in ("t_swim", "r_swim", "draft_share", "base_cost", "prize_diff", "weight",
                     "theta"):
            _athlete_value(name, getattr(self, name), self.id)


# The domain of each float field of an athlete: a test on its value, and what it says.
_ATHLETE_DOMAINS = {
    "t_swim": (lambda v: v >= 0.0, "be nonnegative"), "theta": (math.isfinite, "be finite"),
    "draft_share": (lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]"),
    **dict.fromkeys(("base_cost", "prize_diff", "weight"), (lambda v: v > 0.0, "be positive"))}


def _athlete_value(name: str, value: object, athlete_id: str) -> float:
    """Check one numeric field of athlete ``athlete_id`` by its own rule; the value, as a
    float (``r_swim``, an integer rank, as it is).  Records and sweep points share it."""
    if name == "r_swim":
        integer = isinstance(value, int) and not isinstance(value, bool)
        if integer and value >= 1:
            _finite(value, name, name)  # a rank past float range
            return value
        reason = f"be a positive rank, got {value}" if integer else f"be an integer, got {value!r}"
    else:
        try:
            number = None if isinstance(value, (str, bytes)) else _float(value)
        except (TypeError, ValueError):
            number = None
        if number is None:
            reason = f"be a number, got {value!r}"
        else:
            holds, meaning = _ATHLETE_DOMAINS[name]
            if holds(_finite(number, name, name)):
                return number
            reason = f"{meaning}, got {value}"
    raise DomainError(name, f"{name} must {reason} (athlete {athlete_id!r})")


@dataclass(frozen=True)
class GlobalParams:
    """Race-wide penalty and drag parameters.

    ``psi_bounds`` is the closed interval cutoff verdicts refer to; it
    must contain the reduced-drag range ``[1, 1/(1 - eta)]``.  When omitted
    it defaults to exactly that range.
    """

    alpha: float
    beta: float
    eta: float
    psi_bounds: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        for name, value in (("alpha", self.alpha), ("beta", self.beta)):
            _finite(value, name, name)
            _require(value > 0.0, name, f"{name} must be positive, got {value}")
        _finite(self.eta, "eta", "eta")
        _require(0.0 < self.eta < 1.0, "eta", f"eta must lie in (0,1), got {self.eta}")
        top = 1.0 / (1.0 - self.eta)
        if self.psi_bounds is None:
            object.__setattr__(self, "psi_bounds", (1.0, top))
            return
        bounds = tuple(map(_float, self.psi_bounds))
        _require(len(bounds) == 2, "psi_bounds",
                 f"psi_bounds must be a (low, high) pair, got {self.psi_bounds!r}")
        lo, hi = bounds
        _finite(lo, "psi_bounds", "psi_bounds low")
        _finite(hi, "psi_bounds", "psi_bounds high")
        _require(0.0 < lo <= hi, "psi_bounds",
                 f"psi_bounds must satisfy 0 < low <= high, got {bounds}")
        _require(lo <= 1.0 and hi >= top, "psi_bounds",
                 f"psi_bounds {bounds} must contain the reduced-drag range [1, {top}]")
        object.__setattr__(self, "psi_bounds", bounds)


@dataclass(frozen=True)
class SolverSettings:
    """Tolerances and budgets for the aggregate root search.

    Newton stops at ``|g| <= max(abs_tol, m * eps) * mass``, relative to the target share
    mass (one for a contest), with ``0 < abs_tol < 1``; ``m * eps * mass`` bounds its rounding.
    """

    abs_tol: float = 1e-12
    max_iter: int = 200

    def __post_init__(self) -> None:
        if not (isinstance(self.max_iter, int) and not isinstance(self.max_iter, bool)):
            raise DomainError("max_iter", f"max_iter must be an integer, got {self.max_iter!r}")
        if self.max_iter < 1:
            raise DomainError("max_iter", f"max_iter must be at least 1, got {self.max_iter}")
        if not 0.0 < self.abs_tol < 1.0:  # false for NaN; at 1, zero effort's gap could pass
            bound = "below 1" if self.abs_tol > 0.0 else "positive"
            raise DomainError("abs_tol", f"abs_tol must be {bound}, got {self.abs_tol}")


@dataclass(frozen=True)
class Scenario:
    """Full description of one race: athletes, global parameters, graph, settings.

    ``graph`` holds who-drafted-whom ``(from, to)`` id pairs, carried, not consumed;
    ``settings`` (``None``: the defaults) tune every solve of the scenario.
    """

    athletes: tuple[AthleteRecord, ...]
    globals: GlobalParams
    graph: frozenset[tuple[str, str]] = frozenset()
    settings: SolverSettings | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.settings, (SolverSettings, type(None))):
            raise DomainError("settings", f"settings must be SolverSettings, got {self.settings!r}")
        edges = tuple(self.graph)  # read once: the caller may pass an iterator
        for edge in edges:
            _require(isinstance(edge, (tuple, list)) and len(edge) == 2, "graph",
                     f"drafting edge {edge!r} is not a (from, to) pair of ids")
        graph = frozenset((str(a), str(b)) for a, b in edges)
        for a, b in graph:
            _require(a != b, "graph", f"drafting edge ({a!r}, {b!r}) is a self-loop")
        object.__setattr__(self, "graph", graph)
        athletes = tuple(self.athletes)
        object.__setattr__(self, "athletes", athletes)
        _require(len(athletes) >= 2, "athletes",
                 f"a scenario needs at least 2 athletes, got {len(athletes)}")
        seen: set[str] = set()
        for record in athletes:
            _require(record.id not in seen, "athletes",
                     f"duplicate athlete id {record.id!r}")
            seen.add(record.id)
        for a, b in graph:
            _require(a in seen and b in seen, "graph",
                     f"drafting edge ({a!r}, {b!r}) references an unknown athlete")

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(record.id for record in self.athletes)

    @cached_property
    def _columns(self) -> tuple[tuple, ...]:
        """Athletes' ids, prizes, costs, multipliers, weights and outside options; built once."""
        eta = self.globals.eta
        return tuple(zip(*[(rec.id, float(rec.prize_diff), float(rec.base_cost),
                            drafting_multiplier(rec.draft_share, eta), float(rec.weight),
                            outside_option(rec, self.globals)) for rec in self.athletes]))

    def record(self, athlete_id: str) -> AthleteRecord:
        for record in self.athletes:
            if record.id == athlete_id:
                return record
        raise ValueError(f"unknown athlete id {athlete_id!r}")


@dataclass(frozen=True)
class EffortProfile:
    """A nonnegative effort level per athlete id."""

    efforts: Mapping[str, float]

    def __post_init__(self) -> None:
        frozen: dict[str, float] = {}
        for aid, effort in self.efforts.items():
            effort = _finite(effort, "efforts", f"effort of athlete {aid!r}")
            _require(effort >= 0.0, "efforts",
                     f"efforts must be nonnegative, got {effort} (athlete {aid!r})")
            frozen[str(aid)] = effort
        object.__setattr__(self, "efforts", frozen)


# ---------------------------------------------------------------------------
# Payoff primitives
# ---------------------------------------------------------------------------


def outside_option(athlete: AthleteRecord, params: GlobalParams) -> float:
    """Value of leaving after the swim: ``-alpha*t_swim - beta*r_swim + theta``."""
    return -params.alpha * athlete.t_swim - params.beta * athlete.r_swim + athlete.theta
