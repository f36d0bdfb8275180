"""Command line interface: scenario files in, deterministic text out.

Five subcommands cover the solver surface: ``solve`` (contest among a
field), ``cutoff`` (indifference multiplier), ``spe`` (continuation
equilibria), ``sweep`` (parameter grids), and ``welfare`` (surplus
accounting).  Every command accepts ``--output csv|table|tree``; numbers
are printed in fixed 12-significant-digit scientific notation and repeated
runs produce byte-identical output.

Exit status: 0 on success, 1 on solver failure, 2 on usage or validation
errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .analysis import sweep, welfare_report
from .contest import (
    DEFAULT_SETTINGS,
    ContestInstance,
    ConvergenceError,
    solve_contest,
    verify_nash,
)
from .entry import EntryIterationError, assemble_spe, cutoff_psi
from .model import DegenerateProfileError, DomainError, Scenario
from .scenario_io import ScenarioError, load_scenario

__all__ = ["main", "format_number"]

EXIT_OK = 0
EXIT_SOLVER = 1
EXIT_USAGE = 2

_OUTDIR_VAR = "TRICONTEST_OUTDIR"


def format_number(value: float) -> str:
    """Fixed 12-significant-digit scientific notation."""
    value = float(value)
    if value == 0.0:  # collapse negative zero
        value = 0.0
    return f"{value:.11e}"


def _jnum(value: float) -> float:
    """Float rounded to the printed precision, for structured output."""
    return float(format_number(value))


@dataclass
class RunOutput:
    """Renderable result of one CLI command."""

    command: str
    meta: list[tuple[str, str]] = field(default_factory=list)
    headers: list[str] = field(default_factory=list)
    rows: list[list[str]] = field(default_factory=list)
    summary: list[tuple[str, str]] = field(default_factory=list)
    payload: dict[str, Any] = field(default_factory=dict)


def _render_table(out: RunOutput) -> str:
    lines = [f"{key}: {value}" for key, value in out.meta]
    if out.headers:
        widths = [len(h) for h in out.headers]
        for row in out.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines.append("")
        lines.append("  ".join(h.ljust(w) for h, w in
                               zip(out.headers, widths)).rstrip())
        lines.append("  ".join("-" * w for w in widths))
        for row in out.rows:
            lines.append("  ".join(c.ljust(w) for c, w in
                                   zip(row, widths)).rstrip())
    if out.summary:
        lines.append("")
        lines.extend(f"{key}: {value}" for key, value in out.summary)
    return "\n".join(lines) + "\n"


def _render_csv(out: RunOutput) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(out.headers)
    writer.writerows(out.rows)
    return buffer.getvalue()


def _render_tree(out: RunOutput) -> str:
    return json.dumps(out.payload, indent=2) + "\n"


_RENDERERS = {"table": _render_table, "csv": _render_csv, "tree": _render_tree}


def _settings_meta(scenario: Scenario) -> tuple[list[tuple[str, str]], dict]:
    settings = scenario.settings or DEFAULT_SETTINGS
    meta = [("abs_tol", format_number(settings.abs_tol)),
            ("max_iter", str(settings.max_iter))]
    payload = {"abs_tol": _jnum(settings.abs_tol), "max_iter": settings.max_iter}
    return meta, payload


def _parse_set(raw: str | None, scenario: Scenario) -> tuple[str, ...]:
    if raw is None:
        return scenario.ids
    tokens = [token.strip() for token in raw.split(",")]
    known = set(scenario.ids)
    members: list[str] = []
    for token in tokens:
        if not token:
            raise ValueError(f"malformed --set value {raw!r}: empty member id")
        if token not in known:
            raise ValueError(f"unknown athlete id {token!r} in --set")
        if token not in members:
            members.append(token)
    return tuple(members)


def _set_label(members: tuple[str, ...]) -> str:
    return "+".join(sorted(members))


def _parse_grid(raw: str) -> list[float]:
    parts = raw.split(":")
    if len(parts) != 3:
        raise ValueError(f"malformed --grid value {raw!r}: expected A:B:N")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise ValueError(f"malformed --grid value {raw!r}: expected A:B:N "
                         f"with numeric A, B and integer N") from None
    if count < 1:
        raise ValueError(f"malformed --grid value {raw!r}: N must be at least 1")
    if count == 1:
        return [lo]
    if hi <= lo:
        raise ValueError(f"malformed --grid value {raw!r}: grid must be "
                         f"strictly increasing")
    div, delta = count - 1, hi - lo
    step = delta / div  # numpy.linspace's arithmetic, its zero-step branch included
    return [(i * step if step else i / div * delta) + lo for i in range(div)] + [hi]


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------


def _cmd_solve(ns: argparse.Namespace) -> RunOutput:
    scenario = load_scenario(ns.file)
    members = _parse_set(ns.set, scenario)
    settings = scenario.settings or DEFAULT_SETTINGS
    instance = ContestInstance.from_scenario(scenario, members)
    equilibrium = solve_contest(instance, settings)
    check = verify_nash(instance, equilibrium)
    meta_settings, payload_settings = _settings_meta(scenario)
    out = RunOutput(command="solve")
    out.meta = [("command", "solve"), ("scenario", Path(ns.file).name),
                ("set", _set_label(members))] + meta_settings
    out.headers = ["id", "psi", "k", "e_star", "p_star", "value"]
    athletes_payload = []
    for aid, psi, k in zip(instance.ids, instance.psi, instance._k):
        row = [aid, format_number(psi), format_number(k),
               format_number(equilibrium.efforts[aid]),
               format_number(equilibrium.probs[aid]),
               format_number(equilibrium.continuation_values[aid])]
        out.rows.append(row)
        athletes_payload.append({
            "id": aid, "psi": _jnum(psi), "k": _jnum(k),
            "e_star": _jnum(equilibrium.efforts[aid]),
            "p_star": _jnum(equilibrium.probs[aid]),
            "value": _jnum(equilibrium.continuation_values[aid])})
    verdict = "PASS" if check.passed else "FAIL"
    out.summary = [("total_effort", format_number(equilibrium.total_effort)),
                   ("residual", format_number(equilibrium.residual)),
                   ("nash_max_gain", format_number(check.max_gain)),
                   ("nash", verdict)]
    out.payload = {"command": "solve", "scenario": Path(ns.file).name,
                   "set": list(members), "settings": payload_settings,
                   "athletes": athletes_payload,
                   "total_effort": _jnum(equilibrium.total_effort),
                   "residual": _jnum(equilibrium.residual),
                   "nash": {"max_gain": _jnum(check.max_gain),
                            "worst": check.worst, "passed": check.passed}}
    return out


def _cmd_cutoff(ns: argparse.Namespace) -> RunOutput:
    scenario = load_scenario(ns.file)
    members = _parse_set(ns.set, scenario)
    if ns.athlete not in members:
        raise ValueError(f"athlete {ns.athlete!r} is not in the evaluated set")
    settings = scenario.settings or DEFAULT_SETTINGS
    result = cutoff_psi(scenario, members, ns.athlete, settings=settings)
    meta_settings, payload_settings = _settings_meta(scenario)
    out = RunOutput(command="cutoff")
    out.meta = [("command", "cutoff"), ("scenario", Path(ns.file).name),
                ("athlete", ns.athlete),
                ("set", _set_label(result.members))] + meta_settings
    out.headers = ["athlete", "verdict", "psi_star"]
    star = "" if result.psi_star is None else format_number(result.psi_star)
    out.rows = [[result.athlete_id, result.verdict, star]]
    lo, hi = scenario.globals.psi_bounds
    out.summary = [("psi_bounds", f"{format_number(lo)} .. {format_number(hi)}")]
    out.payload = {"command": "cutoff", "scenario": Path(ns.file).name,
                   "athlete": ns.athlete, "set": list(result.members),
                   "settings": payload_settings, "verdict": result.verdict,
                   "psi_star": (None if result.psi_star is None
                                else _jnum(result.psi_star)),
                   "psi_bounds": [_jnum(lo), _jnum(hi)]}
    return out


def _cmd_spe(ns: argparse.Namespace) -> RunOutput:
    scenario = load_scenario(ns.file)
    settings = scenario.settings or DEFAULT_SETTINGS
    results = assemble_spe(scenario, mode=ns.mode, settings=settings)
    meta_settings, payload_settings = _settings_meta(scenario)
    out = RunOutput(command="spe")
    out.meta = [("command", "spe"), ("scenario", Path(ns.file).name),
                ("mode", ns.mode)] + meta_settings
    out.headers = ["set", "method", "id", "action", "payoff"]
    results_payload = []
    for result in results:
        label = _set_label(result.members)
        block = {"members": list(result.members), "method": result.method,
                 "total_effort": _jnum(result.equilibrium.total_effort),
                 "residual": _jnum(result.equilibrium.residual),
                 "athletes": []}
        for aid in scenario.ids:
            out.rows.append([label, result.method, aid, result.actions[aid],
                             format_number(result.payoffs[aid])])
            block["athletes"].append({"id": aid, "action": result.actions[aid],
                                      "payoff": _jnum(result.payoffs[aid])})
        results_payload.append(block)
    out.summary = [("equilibria", str(len(results)))]
    out.payload = {"command": "spe", "scenario": Path(ns.file).name,
                   "mode": ns.mode, "settings": payload_settings,
                   "results": results_payload}
    return out


def _cmd_welfare(ns: argparse.Namespace) -> RunOutput:
    scenario = load_scenario(ns.file)
    members = _parse_set(ns.set, scenario)
    settings = scenario.settings or DEFAULT_SETTINGS
    report = welfare_report(scenario, members, settings)
    meta_settings, payload_settings = _settings_meta(scenario)
    out = RunOutput(command="welfare")
    out.meta = [("command", "welfare"), ("scenario", Path(ns.file).name),
                ("set", _set_label(report.members))] + meta_settings
    out.headers = ["metric", "value"]
    metrics = [("total_welfare", report.total_welfare),
               ("aggregate_cost", report.aggregate_cost),
               ("aggregate_prize_intake", report.aggregate_prize_intake),
               ("rent_ratio", report.rent_ratio)]
    out.rows = [[name, format_number(value)] for name, value in metrics]
    out.payload = {"command": "welfare", "scenario": Path(ns.file).name,
                   "set": list(report.members), "settings": payload_settings,
                   "metrics": {name: _jnum(value) for name, value in metrics}}
    return out


def _cmd_sweep(ns: argparse.Namespace) -> RunOutput:
    scenario = load_scenario(ns.file)
    settings = scenario.settings or DEFAULT_SETTINGS
    grid = _parse_grid(ns.grid)
    stage = "full" if ns.full_spe else "contest"
    records = sweep(scenario, ns.param, grid, stage=stage, settings=settings)
    meta_settings, payload_settings = _settings_meta(scenario)
    out = RunOutput(command="sweep")
    out.meta = [("command", "sweep"), ("scenario", Path(ns.file).name),
                ("param", ns.param), ("grid", ns.grid),
                ("stage", stage)] + meta_settings
    size_sweep = ns.param == "m"
    if size_sweep:
        out.headers = ["param", "value", "total_effort", "e_star", "p_star",
                       "value_star"]
        if stage == "full":
            out.headers.append("members")
    else:
        out.headers = ["param", "value", "total_effort"]
        for aid in scenario.ids:
            out.headers += [f"e_{aid}", f"p_{aid}", f"value_{aid}"]
        if stage == "full":
            out.headers.append("members")
            out.headers += [f"action_{aid}" for aid in scenario.ids]
    records_payload = []
    for record in records:
        row = [record.param, format_number(record.value),
               format_number(record.total_effort)]
        block: dict[str, Any] = {"value": _jnum(record.value),
                                 "total_effort": _jnum(record.total_effort)}
        if size_sweep:
            first = next(iter(record.efforts))
            row += [format_number(record.efforts[first]),
                    format_number(record.probs[first]),
                    format_number(record.continuation_values[first])]
            block.update(e_star=_jnum(record.efforts[first]),
                         p_star=_jnum(record.probs[first]),
                         value_star=_jnum(record.continuation_values[first]))
            if stage == "full":
                row.append(_set_label(record.members or ()))
                block["members"] = sorted(record.members or ())
        else:
            block["athletes"] = []
            for aid in scenario.ids:
                if aid in record.efforts:
                    row += [format_number(record.efforts[aid]),
                            format_number(record.probs[aid]),
                            format_number(record.continuation_values[aid])]
                    block["athletes"].append({
                        "id": aid, "e_star": _jnum(record.efforts[aid]),
                        "p_star": _jnum(record.probs[aid]),
                        "value": _jnum(record.continuation_values[aid])})
                else:
                    row += ["", "", ""]
                    block["athletes"].append({"id": aid})
            if stage == "full":
                row.append(_set_label(record.members or ()))
                block["members"] = sorted(record.members or ())
                for aid in scenario.ids:
                    action = (record.actions or {}).get(aid, "")
                    row.append(action)
                    block["athletes"][scenario.ids.index(aid)]["action"] = action
        out.rows.append(row)
        records_payload.append(block)
    out.summary = [("points", str(len(records)))]
    out.payload = {"command": "sweep", "scenario": Path(ns.file).name,
                   "param": ns.param, "grid": ns.grid, "stage": stage,
                   "settings": payload_settings, "records": records_payload}
    return out


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser, default_output: str) -> None:
    sub.add_argument("file", metavar="FILE", help="scenario file (JSON)")
    sub.add_argument("--output", choices=("csv", "table", "tree"),
                     default=default_output,
                     help=f"output format (default: {default_output})")
    sub.add_argument("--out", default=None, metavar="PATH",
                     help=f"write output to PATH instead of stdout; relative "
                          f"paths resolve under ${_OUTDIR_VAR} when set")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tricontest",
        description="Deterministic solver for a two-stage race contest with "
                    "drafting-discounted effort costs.")
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser("solve", help="solve the effort contest")
    solve.add_argument("--set", default=None, metavar="IDS",
                       help="comma-separated athlete ids (default: all)")
    _add_common(solve, "table")
    solve.set_defaults(handler=_cmd_solve)

    cutoff = commands.add_parser("cutoff",
                                 help="indifference multiplier for one athlete")
    cutoff.add_argument("--athlete", required=True, metavar="ID")
    cutoff.add_argument("--set", default=None, metavar="IDS",
                        help="comma-separated athlete ids (default: all)")
    _add_common(cutoff, "table")
    cutoff.set_defaults(handler=_cmd_cutoff)

    spe = commands.add_parser("spe", help="continuation equilibria")
    spe.add_argument("--mode", choices=("first", "all", "iterative"),
                     default="first")
    _add_common(spe, "table")
    spe.set_defaults(handler=_cmd_spe)

    sweep_cmd = commands.add_parser("sweep", help="parameter grid sweep")
    sweep_cmd.add_argument("--param", required=True, metavar="PATH",
                           help="athletes.<id>.<field>, globals.<field>, or m")
    sweep_cmd.add_argument("--grid", required=True, metavar="A:B:N",
                           help="N evenly spaced values from A to B")
    sweep_cmd.add_argument("--full-spe", action="store_true", dest="full_spe",
                           help="run the continuation stage at every point")
    _add_common(sweep_cmd, "csv")
    sweep_cmd.set_defaults(handler=_cmd_sweep)

    welfare = commands.add_parser("welfare", help="surplus accounting")
    welfare.add_argument("--set", default=None, metavar="IDS",
                         help="comma-separated athlete ids (default: all)")
    _add_common(welfare, "table")
    welfare.set_defaults(handler=_cmd_welfare)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the CLI; returns the exit status instead of calling ``sys.exit``."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        output = ns.handler(ns)
    except (ScenarioError, DomainError, DegenerateProfileError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (ConvergenceError, EntryIterationError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_SOLVER
    text = _RENDERERS[ns.output](output)
    if ns.out is not None:
        target = Path(ns.out)
        outdir = os.environ.get(_OUTDIR_VAR)
        if outdir and not target.is_absolute():
            target = Path(outdir) / target
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK
