"""Equilibria of a two-stage race contest with drafting-discounted costs.

The package solves the effort lottery among athletes who stayed in
contention, evaluates each athlete's stay-or-leave decision against their
outside option, and layers comparative statics, welfare accounting, and a
deterministic CLI on top.  ``import tricontest`` loads ``model``, ``contest``
and ``scenario_io``; the names from ``entry`` and ``analysis`` load on first
use, and the CLI loads ``analysis`` only for ``welfare`` and ``sweep``.
"""

import importlib
from typing import TYPE_CHECKING, Any

from .contest import (
    ContestEquilibrium,
    ContestInstance,
    ConvergenceError,
    CurvatureReport,
    NashCheck,
    SymmetricEquilibrium,
    aggregate_equation,
    payoff_curvature,
    solve_contest,
    solve_total_effort,
    symmetric_equilibrium,
    two_player_equilibrium,
    verify_nash,
)
from .model import (
    AthleteRecord,
    DegenerateProfileError,
    DomainError,
    EffortProfile,
    GlobalParams,
    Scenario,
    SolverSettings,
    drafting_multiplier,
    outside_option,
)
from .scenario_io import (
    SCHEMA_VERSION,
    ScenarioError,
    load_scenario,
    parse_scenario,
    save_scenario,
    scenario_to_dict,
)

if TYPE_CHECKING:
    from .analysis import (
        PredictionReport,
        PredictionSection,
        SensitivityReport,
        SweepRecord,
        WelfareReport,
        prediction_report,
        sensitivity_report,
        sweep,
        total_effort_derivative,
        welfare_report,
    )
    from .entry import (
        CutoffResult,
        EntryIteration,
        NetBenefit,
        SpeResult,
        assemble_spe,
        cutoff_psi,
        enumerate_equilibrium_sets,
        is_equilibrium_set,
        iterate_continuation_operator,
        net_benefit,
        net_benefit_curve,
        subset_equilibrium,
    )

__version__ = "0.1.0"

__all__ = [
    "AthleteRecord",
    "ContestEquilibrium",
    "ContestInstance",
    "ConvergenceError",
    "CurvatureReport",
    "CutoffResult",
    "DegenerateProfileError",
    "DomainError",
    "EffortProfile",
    "EntryIteration",
    "GlobalParams",
    "NashCheck",
    "NetBenefit",
    "PredictionReport",
    "PredictionSection",
    "SCHEMA_VERSION",
    "Scenario",
    "ScenarioError",
    "SensitivityReport",
    "SolverSettings",
    "SpeResult",
    "SweepRecord",
    "SymmetricEquilibrium",
    "WelfareReport",
    "aggregate_equation",
    "assemble_spe",
    "cutoff_psi",
    "drafting_multiplier",
    "enumerate_equilibrium_sets",
    "is_equilibrium_set",
    "iterate_continuation_operator",
    "load_scenario",
    "net_benefit",
    "net_benefit_curve",
    "outside_option",
    "parse_scenario",
    "payoff_curvature",
    "prediction_report",
    "save_scenario",
    "scenario_to_dict",
    "sensitivity_report",
    "solve_contest",
    "solve_total_effort",
    "subset_equilibrium",
    "sweep",
    "symmetric_equilibrium",
    "total_effort_derivative",
    "two_player_equilibrium",
    "verify_nash",
    "welfare_report",
]


def __getattr__(name: str) -> Any:
    """Import ``entry``, or ``analysis`` if the name is not there, on first use (PEP 562)."""
    if name in ("entry", "analysis"):
        return importlib.import_module(f"{__name__}.{name}")
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    layer = importlib.import_module(f"{__name__}.entry")
    if not hasattr(layer, name):
        layer = importlib.import_module(f"{__name__}.analysis")
    value = globals()[name] = getattr(layer, name)  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
