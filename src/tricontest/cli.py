"""Command line interface: scenario files in, deterministic text out.

Five subcommands cover the solver surface: ``solve`` (contest among a
field), ``cutoff`` (indifference multiplier), ``spe`` (continuation
equilibria), ``sweep`` (parameter grids), and ``welfare`` (surplus
accounting).  Each command builds one record of raw values, and
``--output csv|table|tree`` renders that record: numbers are printed in
fixed 12-significant-digit scientific notation, the tree's numbers are
those printed values, and repeated runs produce byte-identical output.

Exit status: 0 on success, 1 on solver failure, 2 on usage or validation
errors, an output file that cannot be written among them.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

from .contest import DEFAULT_SETTINGS
from .entry import _Fields, assemble_spe, cutoff_psi
from .model import Scenario
from .scenario_io import load_scenario

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


@dataclass
class Record:
    """Result of one CLI command, in raw values, that every format renders.

    ``tree`` holds floats, strings, ints, bools, ``None`` and member tuples;
    its keys up to and including ``settings`` are the table's header lines.
    ``rows`` are the table and csv rows, keyed by column header, and
    ``summary`` the table's closing lines.
    """

    tree: dict[str, Any]
    rows: list[dict[str, Any]]
    summary: dict[str, Any] = field(default_factory=dict)


def _cell(value: Any) -> str:
    """Table and csv text of one raw value."""
    if isinstance(value, float):
        return format_number(value)
    if isinstance(value, tuple):  # a pair of numbers is a range, else a member set
        if value and isinstance(value[0], float):
            return " .. ".join(map(_cell, value))
        return "+".join(sorted(value))
    return "" if value is None else str(value)


def _plain(value: Any) -> Any:
    """JSON value of one raw value, floats rounded to their printed digits."""
    if isinstance(value, float):
        return float(format_number(value))
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


def _text_rows(record: Record) -> tuple[list[str], list[list[str]]]:
    headers = list(record.rows[0])
    return headers, [[_cell(row[h]) for h in headers] for row in record.rows]


def _render_table(record: Record) -> str:
    lines = []
    for key, value in record.tree.items():
        if key == "settings":
            lines += [f"{name}: {_cell(item)}" for name, item in value.items()]
            break
        lines.append(f"{key}: {_cell(value)}")
    headers, cells = _text_rows(record)
    widths = [max(len(cell) for cell in column) for column in zip(headers, *cells)]

    def line(row: list[str]) -> str:
        return "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()

    lines += ["", line(headers), line(["-" * w for w in widths]), *map(line, cells)]
    if record.summary:
        lines.append("")
        lines += [f"{key}: {_cell(value)}" for key, value in record.summary.items()]
    return "\n".join(lines) + "\n"


def _render_csv(record: Record) -> str:
    headers, cells = _text_rows(record)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(cells)
    return buffer.getvalue()


def _render_tree(record: Record) -> str:
    return json.dumps(_plain(record.tree), indent=2) + "\n"


_RENDERERS = {"table": _render_table, "csv": _render_csv, "tree": _render_tree}


def _head(ns: argparse.Namespace, scenario: Scenario, **keys: Any) -> dict[str, Any]:
    """The tree's leading keys: command, scenario file name, ``keys``, solver settings."""
    return {"command": ns.command, "scenario": Path(ns.file).name, **keys,
            "settings": asdict(scenario.settings or DEFAULT_SETTINGS)}


def _parse_set(raw: str | None, scenario: Scenario) -> tuple[str, ...]:
    if raw is None:
        return scenario.ids
    members = tuple(dict.fromkeys(token.strip() for token in raw.split(",")))
    if "" in members:
        raise ValueError(f"malformed --set value {raw!r}: empty member id")
    return members


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
    if not math.isfinite(hi - lo):
        raise ValueError(f"malformed --grid value {raw!r}: A, B and B - A must be finite")
    if count < 1:
        raise ValueError(f"malformed --grid value {raw!r}: N must be at least 1")
    if count == 1:
        return [lo]
    div, delta = count - 1, hi - lo
    step = delta / div  # numpy.linspace's arithmetic, its zero-step branch included
    return [(i * step if step else i / div * delta) + lo for i in range(div)] + [hi]


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------


def _cmd_solve(ns: argparse.Namespace, scenario: Scenario) -> Record:
    members = _parse_set(ns.set, scenario)
    fields = _Fields(scenario._columns, scenario.settings)
    instance, equilibrium, check = fields.checked(fields.mask(members))
    athletes = [{"id": aid, "psi": psi, "k": k,
                 "e_star": equilibrium.efforts[aid],
                 "p_star": equilibrium.probs[aid],
                 "value": equilibrium.continuation_values[aid]}
                for aid, psi, k in zip(instance.ids, instance.psi, instance._k)]
    tree = {**_head(ns, scenario, set=members), "athletes": athletes,
            "total_effort": equilibrium.total_effort,
            "residual": equilibrium.residual,
            "nash": {"max_gain": check.max_gain, "worst": check.worst,
                     "passed": check.passed}}
    return Record(tree, athletes, {
        "total_effort": equilibrium.total_effort,
        "residual": equilibrium.residual, "nash_max_gain": check.max_gain,
        "nash": "PASS"})


def _cmd_cutoff(ns: argparse.Namespace, scenario: Scenario) -> Record:
    result = cutoff_psi(scenario, _parse_set(ns.set, scenario), ns.athlete)
    bounds = scenario.globals.psi_bounds
    tree = {**_head(ns, scenario, athlete=ns.athlete, set=result.members),
            "verdict": result.verdict, "psi_star": result.psi_star,
            "psi_bounds": bounds}
    return Record(tree, [{"athlete": result.athlete_id, "verdict": result.verdict,
                          "psi_star": result.psi_star}], {"psi_bounds": bounds})


def _cmd_spe(ns: argparse.Namespace, scenario: Scenario) -> Record:
    results = assemble_spe(scenario, mode=ns.mode)
    blocks = [{"members": result.members, "method": result.method,
               "total_effort": result.equilibrium.total_effort,
               "residual": result.equilibrium.residual,
               "athletes": [{"id": aid, "action": result.actions[aid],
                             "payoff": result.payoffs[aid]}
                            for aid in scenario.ids]}
              for result in results]
    rows = [{"set": block["members"], "method": block["method"], **athlete}
            for block in blocks for athlete in block["athletes"]]
    tree = {**_head(ns, scenario, mode=ns.mode), "results": blocks}
    return Record(tree, rows, {"equilibria": len(results)})


def _cmd_welfare(ns: argparse.Namespace, scenario: Scenario) -> Record:
    from .analysis import welfare_report  # loaded only by the commands that use it
    report = welfare_report(scenario, _parse_set(ns.set, scenario))
    metrics = {name: getattr(report, name) for name in
               ("total_welfare", "aggregate_cost", "aggregate_prize_intake",
                "rent_ratio")}
    tree = {**_head(ns, scenario, set=report.members), "metrics": metrics}
    return Record(tree, [{"metric": name, "value": value}
                         for name, value in metrics.items()])


def _cmd_sweep(ns: argparse.Namespace, scenario: Scenario) -> Record:
    from .analysis import sweep
    grid = _parse_grid(ns.grid)
    stage = "full" if ns.full_spe else "contest"
    points = sweep(scenario, ns.param, grid, stage=stage)
    blocks, rows = [], []
    for point in points:
        block: dict[str, Any] = {"value": point.value,
                                 "total_effort": point.total_effort}
        row = {"param": point.param, **block}
        if ns.param == "m":  # a symmetric field: one athlete speaks for all, none if all left
            first = next(iter(point.efforts), None)
            block.update(e_star=point.efforts.get(first), p_star=point.probs.get(first),
                         value_star=point.continuation_values.get(first))
            row.update(block)
        else:
            block["athletes"] = []
            for aid in scenario.ids:
                athlete = {"id": aid}
                if aid in point.efforts:
                    athlete.update(e_star=point.efforts[aid], p_star=point.probs[aid],
                                   value=point.continuation_values[aid])
                if stage == "full":
                    athlete["action"] = point.actions[aid]
                block["athletes"].append(athlete)
                row.update({f"e_{aid}": athlete.get("e_star"),
                            f"p_{aid}": athlete.get("p_star"),
                            f"value_{aid}": athlete.get("value")})
        if stage == "full":
            block["members"] = row["members"] = point.members
            if ns.param != "m":
                row.update({f"action_{aid}": point.actions[aid] for aid in scenario.ids})
        blocks.append(block)
        rows.append(row)
    tree = {**_head(ns, scenario, param=ns.param, grid=ns.grid, stage=stage),
            "records": blocks}
    return Record(tree, rows, {"points": len(points)})


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
        scenario = load_scenario(ns.file)
        record = ns.handler(ns, scenario)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_SOLVER
    text = _RENDERERS[ns.output](record)
    if ns.out is not None:
        target = Path(ns.out)
        outdir = os.environ.get(_OUTDIR_VAR)
        if outdir and not target.is_absolute():
            target = Path(outdir) / target
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text)
        except OSError as err:  # mkdir reports a file in a parent's place as "File exists"
            reason = os.strerror(errno.ENOTDIR) if isinstance(err, FileExistsError) else err.strerror
            print(f"error: cannot write {target}: {reason}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(text)
    return EXIT_OK
