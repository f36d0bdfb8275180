"""Comparative statics, welfare accounting, grid sweeps, and prediction checks.

Derivatives of the solved contest come from one share identity at one tightened root, checked
against central differences at the parameter times ``1 +- 1e-5``: the shares ``p_l`` sum to
one at the root ``t = X^2``, so with ``a_l = p_l (1 - p_l)`` and ``V = sum a_l`` raising
``log theta_i`` moves ``log t`` by ``a_i / V`` and ``p_j`` by ``a_i (1[i=j] - a_j / V)``
(Cornes & Hartley, Economic Theory 26, 2005).  A rival's effort then rises iff that rival is
the favourite, ``p_j > 1/2`` (Dixit, AER 77, 1987).  Sweeps re-solve scenarios along a
parameter grid, optionally with the continuation stage in the loop, and the prediction report
bundles the canonical monotonicity checks.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Mapping, Sequence

from .contest import (
    ContestInstance,
    _newton,
    solve_contest,
    symmetric_equilibrium,
)
from .entry import CONTINUE, Members, _Fields, _greedy, _outcome
from .model import (AthleteRecord, DomainError, GlobalParams, Scenario, _athlete_value,
                    _finite, _float, drafting_multiplier, outside_option)

__all__ = [
    "PARAM_KINDS",
    "REL_ERR_PASS",
    "SensitivityReport",
    "WelfareReport",
    "SweepRecord",
    "PredictionSection",
    "PredictionReport",
    "total_effort_derivative",
    "sensitivity_report",
    "welfare_report",
    "sweep",
    "prediction_report",
]

PARAM_KINDS = ("psi", "delta", "cost")
TARGET_KINDS = ("total", "prob", "effort")

#: Disagreement between analytic and finite-difference derivatives, in units of the
#: response scale (see ``SensitivityReport``), up to which a sensitivity check passes.
REL_ERR_PASS = 1e-4

# Finite differences scale the parameter by 1 +- _FD_STEP and re-solve the aggregate
# root; the residual tolerance of that root and of the root the analytic derivatives
# read is tightened to keep solver noise out of both.
_FD_STEP = 1e-5
_FD_ABS_TOL = 1e-14


@dataclass(frozen=True)
class SensitivityReport:
    """Analytic derivative versus central finite difference for one target; ``rel_err`` is
    their difference over the response scale ``|d log t / d theta|``, times ``x`` for the
    total and ``x / w_j`` for an effort, so a zero derivative is judged like any other."""

    target: tuple[str, str | None]
    parameter: tuple[str, str]
    analytic: float
    finite_diff: float
    rel_err: float

    @property
    def passed(self) -> bool:
        return self.rel_err <= REL_ERR_PASS


@dataclass(frozen=True)
class WelfareReport:
    """Aggregate surplus accounting for one solved field."""

    members: Members
    total_welfare: float
    aggregate_cost: float
    aggregate_prize_intake: float
    rent_ratio: float


@dataclass(frozen=True)
class SweepRecord:
    """Solved quantities at one grid point of a parameter sweep."""

    param: str
    value: float
    total_effort: float
    efforts: Mapping[str, float]
    probs: Mapping[str, float]
    continuation_values: Mapping[str, float]
    members: Members | None = None
    actions: Mapping[str, str] | None = None


@dataclass(frozen=True)
class PredictionSection:
    """One monotonicity check inside a prediction report."""

    name: str
    status: str  # "pass" | "fail" | "reported" | "skipped"
    detail: str


@dataclass(frozen=True)
class PredictionReport:
    """Bundle of the canonical comparative-statics checks."""

    sections: tuple[PredictionSection, ...]

    @property
    def passed(self) -> bool:
        return all(section.status != "fail" for section in self.sections)


# ---------------------------------------------------------------------------
# Implicit derivatives
# ---------------------------------------------------------------------------


def _check_param(instance: ContestInstance,
                 param: tuple[str, str]) -> tuple[str, int]:
    kind, aid = param
    if kind not in PARAM_KINDS:
        raise ValueError(f"parameter kind must be one of {PARAM_KINDS}, got {kind!r}")
    idx = instance.index(aid)
    if instance.m < 2:
        raise ValueError("comparative statics need a contested field (m >= 2)")
    return kind, idx


def _solves(instance: ContestInstance) -> dict:
    """The instance's solves, kept in its ``__dict__`` like ``_k``: key ``None`` holds the
    root ``x`` every derivative reads and the tightened copy of the instance it solves;
    ``(kind, index, sign)`` a ``with_*`` variant of that copy and its root."""
    memo = instance.__dict__.setdefault("_solves", {})
    if not memo:
        settings = replace(instance.settings, abs_tol=min(instance.settings.abs_tol, _FD_ABS_TOL))
        columns = instance.ids, instance.delta, instance.cost, instance.psi, instance.weight
        tight = ContestInstance._derived(*columns, settings, instance._effective)
        memo[None] = _newton(tight)[0], tight
    return memo


def _share_response(instance: ContestInstance, kind: str,
                    i: int) -> tuple[float, float, list[float], list[float], float]:
    """Root ``x`` and ``dx``, every share ``p_j`` and ``dp_j``, and ``d log t``, per unit of
    member ``i``'s parameter ``kind``.

    At ``t = x^2`` the shares ``p_l = de_l / (k_l t + de_l)`` sum to one and move with
    ``log t`` by ``-a_l``, ``a_l = p_l (1 - p_l)``; raising ``log theta_i`` adds ``a_i`` to
    ``p_i``, with ``theta_i`` the multiplier or prize, or the cost with the opposite sign.
    So with ``V = sum a_l``, ``d log t = a_i / V`` and ``dp_j = a_i (1[i=j] - a_j / V)``.
    """
    x = _solves(instance)[None][0]
    t = x * x
    shares, spread, total = [], [], 0.0
    for k, de in zip(instance._k, instance._delta_eff):
        den = k * t + de
        shares.append(de / den)
        spread.append(shares[-1] * (k * t / den))  # 1 - p as k t / den: no cancellation
        total += spread[-1]
    gain = spread[i] / getattr(instance, kind)[i]
    if kind == "cost":
        gain = -gain
    dp = [gain * ((j == i) - a / total) for j, a in enumerate(spread)]
    return x, 0.5 * x * gain / total, shares, dp, gain / total


def total_effort_derivative(instance: ContestInstance, param: tuple[str, str]) -> float:
    """Derivative of the equilibrium aggregate effort in one parameter.

    ``param`` is a ``(kind, athlete_id)`` pair with kind ``"psi"``,
    ``"delta"``, or ``"cost"``.  Raising a multiplier or a prize pushes the
    aggregate up; raising a cost pushes it down.
    """
    return _share_response(instance, *_check_param(instance, param))[1]


def _target_at(instance: ContestInstance, kind: str, idx: int | None, x: float) -> float:
    """A target's value at the root ``x``: the root itself, or member ``idx``'s share or effort."""
    if kind == "total":
        return x
    de = instance._delta_eff[idx]
    p = de / (instance._k[idx] * x * x + de)
    return p if kind == "prob" else p * x / instance.weight[idx]


def sensitivity_report(instance: ContestInstance,
                       target: tuple[str, str | None],
                       param: tuple[str, str]) -> SensitivityReport:
    """Analytic derivative of a solved quantity against a central difference.

    ``target`` is ``("total", None)``, ``("prob", id)``, or
    ``("effort", id)``.  Both sides read one root, solved on a copy of the instance with
    ``abs_tol`` at most ``1e-14``.  The finite difference re-solves that copy at the
    parameter ``theta`` times ``1 +- 1e-5``, a step that stays inside the positive domain
    at every scale, each re-solve starting Newton from that root.  The root, the copy and
    the re-solves are kept on the instance.
    """
    t_kind = target[0]
    if t_kind not in TARGET_KINDS:
        raise ValueError(f"target kind must be one of {TARGET_KINDS}, got {t_kind!r}")
    p_kind, p_idx = _check_param(instance, param)
    t_idx = None if t_kind == "total" else instance.index(target[1])
    x, dx, shares, dp, dlog_t = _share_response(instance, p_kind, p_idx)
    analytic = (dx if t_kind == "total" else dp[t_idx] if t_kind == "prob"
                else (dp[t_idx] * x + shares[t_idx] * dx) / instance.weight[t_idx])

    # Central difference at a tightened residual tolerance.
    base = getattr(instance, p_kind)[p_idx]
    memo = _solves(instance)
    tight = memo[None][1]

    def resolved(sign: float) -> float:
        key = p_kind, p_idx, sign
        if key not in memo:
            solved = getattr(tight, f"with_{p_kind}")(param[1], base * (1.0 + sign * _FD_STEP))
            memo[key] = solved, _newton(solved, start=x)[0]
        solved, root = memo[key]
        return _target_at(solved, t_kind, t_idx, root)

    finite = (resolved(1.0) - resolved(-1.0)) / (2.0 * _FD_STEP * base)
    unit = x if t_kind == "total" else 1.0 if t_kind == "prob" else x / instance.weight[t_idx]
    rel_err = abs(analytic - finite) / (abs(dlog_t) * unit)
    return SensitivityReport(target=target, parameter=param, analytic=analytic,
                             finite_diff=finite, rel_err=rel_err)


# ---------------------------------------------------------------------------
# Welfare
# ---------------------------------------------------------------------------


def welfare_report(scenario: Scenario, members: Sequence[str]) -> WelfareReport:
    """Surplus accounting for the contest among ``members``.

    ``rent_ratio`` is aggregate effort cost over aggregate expected prize
    intake; for a symmetric field of size ``m`` it equals ``(m-1)/(2m)``.
    An empty ``members`` raises ``ValueError`` (nobody is paid, so the ratio is 0/0), and a
    contest that fails the best-response check raises ``RuntimeError``.
    """
    fields = _Fields(scenario._columns, scenario.settings)
    instance, equilibrium, _ = fields.checked(fields.mask(members))
    if instance is None:
        raise ValueError("welfare needs at least one member")
    cost = intake = welfare = 0.0
    for aid, k, delta in zip(instance.ids, instance._k, instance.delta):
        effort = equilibrium.efforts[aid]
        cost += 0.5 * k * effort * effort
        intake += equilibrium.probs[aid] * delta
        welfare += equilibrium.continuation_values[aid]
    return WelfareReport(tuple(sorted(instance.ids)), welfare, cost, intake, cost / intake)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

# Sweepable fields with their declared types: all but the id and the cutoff bounds.
_ATHLETE_FIELDS = {f.name: f.type for f in fields(AthleteRecord) if f.name != "id"}
_GLOBAL_FIELDS = {f.name: f.type for f in fields(GlobalParams) if f.name != "psi_bounds"}

# The input column (in ``Scenario._columns``) each athlete field sets: its prize, cost,
# multiplier or weight; the swim time, rank and taste set the outside option.
_COLUMN = {"prize_diff": 1, "base_cost": 2, "draft_share": 3, "weight": 4,
           "t_swim": 5, "r_swim": 5, "theta": 5}

# Largest field a sweep of ``m`` builds; checked before its columns are made.
_SWEEP_MAX_M = 100_000


def _grid_point(scenario: Scenario, param: str, value: float, point: int) -> tuple[tuple, ...]:
    """The input columns (``Scenario._columns``) at one grid point: an athlete field replaces
    its entry of one column, ``m`` repeats the first athlete's with ids ``<id>1 .. <id>m``, and
    a global field reads the scenario's with the new globals.  Errors name the grid point."""
    def fail(reason: str) -> DomainError:
        return DomainError("grid", f"grid point {point} ({value!r}) for "
                                   f"parameter {param!r}: {reason}")

    parts = param.split(".")
    try:
        _finite(value, "value", "the grid value")
        if parts[0] == "m" and len(parts) == 1:
            size = round(value)
            if abs(value - size) > 1e-9:
                raise fail("field size must be an integer")
            if size < 2:
                raise fail("field size must be at least 2")
            if size > _SWEEP_MAX_M:
                raise fail(f"field size must be at most {_SWEEP_MAX_M}")
            aid, *entries = (column[0] for column in scenario._columns)
            return (tuple(f"{aid}{i}" for i in range(1, size + 1)),
                    *((entry,) * size for entry in entries))
        if (parts[0], len(parts)) in (("globals", 2), ("athletes", 3)):
            block, field = parts[0], parts[-1]
            types = _GLOBAL_FIELDS if block == "globals" else _ATHLETE_FIELDS
            if field not in types:
                raise ValueError(f"unknown sweep parameter {param!r}; {block[:-1]} "
                                 f"fields are {tuple(types)}")
            record = scenario.globals if block == "globals" else scenario.record(parts[1])
            if types[field] == "int":
                new = int(round(value))
                if abs(value - new) > 1e-9:
                    raise fail(f"{field} must be an integer")
            else:
                new = float(value)
            if block == "globals":
                # A new eta moves the reduced-drag range, so the bounds follow it.
                reset = {"psi_bounds": None} if field == "eta" else {}
                return replace(scenario, globals=replace(record, **reset, **{field: new}))._columns
            new = _athlete_value(field, new, record.id)
            if field == "draft_share":
                new = drafting_multiplier(new, scenario.globals.eta)
            elif _COLUMN[field] == 5:
                new = outside_option(replace(record, **{field: new}), scenario.globals)
            columns = list(scenario._columns)
            at, column = columns[0].index(record.id), columns[_COLUMN[field]]
            columns[_COLUMN[field]] = column[:at] + (new,) + column[at + 1:]
            return tuple(columns)
    except DomainError as err:
        if err.field == "grid":
            raise
        raise fail(str(err)) from err
    raise ValueError(f"unknown sweep parameter {param!r}; expected "
                     f"'athletes.<id>.<field>', 'globals.<field>', or 'm'")


def sweep(scenario: Scenario, param: str, grid: Sequence[float],
          stage: str = "contest") -> list[SweepRecord]:
    """Re-solve the scenario along a strictly increasing parameter grid.

    ``param`` addresses either one athlete's field
    (``"athletes.<id>.<field>"``), a global field (``"globals.<field>"``),
    or the symmetric field size ``"m"``, which replicates the first athlete.
    With ``stage="contest"`` everybody plays; with ``stage="full"`` the
    continuation stage picks the field at every grid point: the greedy threshold field,
    where the iterative operator ends, checked like an ``assemble_spe`` result.
    Each point is the scenario's input columns with the swept entries replaced.
    """
    if stage not in ("contest", "full"):
        raise ValueError(f"stage must be 'contest' or 'full', got {stage!r}")
    values = [_float(v) for v in grid]
    if not values:
        raise ValueError("the sweep grid must not be empty")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError("the sweep grid must be strictly increasing")
    records: list[SweepRecord] = []
    for point, value in enumerate(values):
        columns = _grid_point(scenario, param, value, point)
        members = actions = None
        if stage == "contest":
            equilibrium = solve_contest(ContestInstance._derived(*columns[:5], scenario.settings))
        else:
            fields = _Fields(columns, scenario.settings)
            result = _outcome(fields, _greedy(fields), "greedy")
            equilibrium, members, actions = result.equilibrium, result.members, result.actions
        records.append(SweepRecord(
            param=param, value=value, total_effort=equilibrium.total_effort,
            efforts=equilibrium.efforts, probs=equilibrium.probs,
            continuation_values=equilibrium.continuation_values, members=members, actions=actions))
    return records


# ---------------------------------------------------------------------------
# Prediction report
# ---------------------------------------------------------------------------


def _strictly(values: Sequence[float], increasing: bool) -> bool:
    return all(b > a if increasing else b < a for a, b in zip(values, values[1:]))


def _series(values: Sequence[float]) -> str:
    return ", ".join(f"{v:.6g}" for v in values)


def prediction_report(scenario: Scenario, athlete_id: str | None = None,
                      psi_by_size: Mapping[int, float] | None = None) -> PredictionReport:
    """Run the canonical sweeps and report the observed monotonicities.

    Three sections always appear: win odds and effort rising in the own
    drafting share over 0, 0.25, 0.5 and 0.75 (asserted), symmetric effort
    falling in the field size over 2 to 10 (asserted), and the continuation
    action across the drafting sweep (reported, flagged when the field never
    reaches two members).  A ``psi_by_size`` table, keyed by two or more sizes
    in 2 to 10, adds a descriptive section tracing symmetric effort over its sizes
    when the multiplier grows with the field.  Both size sections replicate
    the first athlete and read ``symmetric_equilibrium``'s closed form.
    """
    if athlete_id is None:
        athlete_id = scenario.athletes[0].id
    else:
        scenario.record(athlete_id)
    draft_grid = (0.0, 0.25, 0.5, 0.75)
    size_grid = range(2, 11)
    for m in psi_by_size or ():
        if m not in size_grid:
            raise ValueError(f"psi_by_size key {m!r} is not a field size in 2 to 10")
    if psi_by_size is not None and len(psi_by_size) < 2:
        raise ValueError(f"psi_by_size needs two or more field sizes, got {len(psi_by_size)}")
    sections: list[PredictionSection] = []

    # Drafting share up: own odds and effort up.
    param = f"athletes.{athlete_id}.draft_share"
    records = sweep(scenario, param, draft_grid, stage="contest")
    probs = [r.probs[athlete_id] for r in records]
    efforts = [r.efforts[athlete_id] for r in records]
    ok = _strictly(probs, True) and _strictly(efforts, True)
    sections.append(PredictionSection(
        name="drafting_gain", status="pass" if ok else "fail",
        detail=f"p({athlete_id}): {_series(probs)}; "
               f"e({athlete_id}): {_series(efforts)}"))

    # Field size up: symmetric effort down.
    template = scenario.athletes[0]

    def per_head(m: int, psi: float) -> float:
        return symmetric_equilibrium(m, template.prize_diff, template.base_cost, psi).effort

    psi = drafting_multiplier(template.draft_share, scenario.globals.eta)
    efforts = [per_head(m, psi) for m in size_grid]
    ok = _strictly(efforts, False)
    sections.append(PredictionSection(
        name="field_size", status="pass" if ok else "fail",
        detail=f"e*: {_series(efforts)}"))

    # Drafting share up with the continuation stage in the loop.
    records = sweep(scenario, param, draft_grid, stage="full")
    if all(len(r.members or ()) < 2 for r in records):
        sections.append(PredictionSection(
            name="entry_response", status="skipped",
            detail="insufficient contest size: the continuation field never "
                   "reaches two members"))
    else:
        acts = [r.actions[athlete_id] for r in records]
        flags = "".join("C" if a == CONTINUE else "W" for a in acts)
        monotone = "W" not in flags.lstrip("W")
        flips = sum(1 for a, b in zip(flags, flags[1:]) if a != b)
        sections.append(PredictionSection(
            name="entry_response", status="pass" if monotone else "fail",
            detail=f"actions: {flags} ({flips} flips)"))

    # Optional: multiplier growing with the field size.
    if psi_by_size is not None:
        efforts = [per_head(m, float(psi_by_size[m])) for m in size_grid if m in psi_by_size]
        shape = ("strictly decreasing" if _strictly(efforts, False)
                 else "strictly increasing" if _strictly(efforts, True)
                 else "non-monotone")
        sections.append(PredictionSection(
            name="size_tradeoff", status="reported",
            detail=f"e* with size-dependent multiplier is {shape}: "
                   f"{_series(efforts)}"))
    return PredictionReport(sections=tuple(sections))
