"""Scenario files: strict JSON loading, canonical saving, round-tripping.

A scenario file is a JSON document with an integer ``version``, a
``globals`` block, an ``athletes`` array, and optional ``graph`` and
``solver`` blocks.  The ``globals`` block, each athlete and the ``solver``
block are read into :class:`GlobalParams`, :class:`AthleteRecord` and
:class:`SolverSettings`: a block's allowed keys, required keys (fields
without a default), defaults and value types are those of its dataclass.
Loading is strict: unknown fields, missing fields, and out-of-range values
are rejected with the offending path in the message.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, fields
from pathlib import Path
from typing import Any

from .model import (
    AthleteRecord,
    DomainError,
    GlobalParams,
    Scenario,
    SolverSettings,
    _float,
)

__all__ = ["SCHEMA_VERSION", "ScenarioError", "load_scenario", "parse_scenario",
           "scenario_to_dict", "save_scenario"]

SCHEMA_VERSION = 1

_TOP_KEYS = {"version", "globals", "athletes", "graph", "solver"}


class ScenarioError(ValueError):
    """A scenario file failed validation; ``path`` points at the offender."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


def _object(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(path, f"expected an object, got {type(value).__name__}")
    return value


def _no_unknown(block: dict, allowed: set[str], path: str) -> None:
    unknown = sorted(set(block) - allowed)
    if unknown:
        raise ScenarioError(f"{path}.{unknown[0]}" if path else unknown[0],
                            "unknown field")


def _scalar(kind: type, noun: str):
    """Reader of a JSON scalar for a field of type ``kind``; ints pass as numbers."""
    accepted = (int, float) if kind is float else kind

    def read(value: Any, path: str) -> Any:
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise ScenarioError(path, f"expected {noun}, got {value!r}")
        return _float(value) if kind is float else kind(value)
    return read


def _pair(value: Any, path: str) -> tuple[float, float]:
    if (not isinstance(value, list) or len(value) != 2
            or any(isinstance(b, bool) or not isinstance(b, (int, float))
                   for b in value)):
        raise ScenarioError(path, f"expected a [low, high] pair of numbers, got {value!r}")
    return _float(value[0]), _float(value[1])


# The reader of each declared field type (the annotation's text).
_READERS = {
    "str": _scalar(str, "a string"),
    "int": _scalar(int, "an integer"),
    "float": _scalar(float, "a number"),
    "tuple[float, float] | None": _pair,
}


def _record(cls: type, raw: Any, path: str) -> Any:
    """Read one block into the dataclass ``cls``.

    The fields of ``cls`` are the allowed keys, those without a default are
    required, and an absent optional key takes the field's default.
    """
    block = _object(raw, path)
    specs = fields(cls)
    _no_unknown(block, {f.name for f in specs}, path)
    missing = sorted(f.name for f in specs
                     if f.default is MISSING and f.name not in block)
    if missing:
        raise ScenarioError(f"{path}.{missing[0]}", "missing field")
    values = {f.name: _READERS[f.type](block[f.name], f"{path}.{f.name}")
              for f in specs if f.name in block}
    try:
        return cls(**values)
    except DomainError as err:
        raise ScenarioError(f"{path}.{err.field}", str(err)) from err


def parse_scenario(data: Any) -> Scenario:
    """Build a validated :class:`Scenario` from decoded JSON data."""
    top = _object(data, "")
    _no_unknown(top, _TOP_KEYS, "")
    if "version" not in top:
        raise ScenarioError("version", "missing field")
    version = _READERS["int"](top["version"], "version")
    if version != SCHEMA_VERSION:
        raise ScenarioError("version", f"unsupported version {version}; this "
                                       f"build reads version {SCHEMA_VERSION}")

    params = _record(GlobalParams, top.get("globals"), "globals")
    athletes_raw = top.get("athletes")
    if not isinstance(athletes_raw, list):
        raise ScenarioError("athletes", "expected an array of athletes")
    athletes = [_record(AthleteRecord, entry, f"athletes[{i}]")
                for i, entry in enumerate(athletes_raw)]

    graph = top.get("graph", [])
    if not isinstance(graph, list):
        raise ScenarioError("graph", "expected an array of [from, to] pairs")
    for i, edge in enumerate(graph):
        if (not isinstance(edge, list) or len(edge) != 2
                or not all(isinstance(e, str) for e in edge)):
            raise ScenarioError(f"graph[{i}]",
                                f"expected a [from, to] pair of ids, got {edge!r}")

    settings = _record(SolverSettings, top["solver"], "solver") if "solver" in top else None
    try:
        return Scenario(athletes=tuple(athletes), globals=params, graph=graph,
                        settings=settings)
    except DomainError as err:
        raise ScenarioError(err.field, str(err)) from err


def load_scenario(path: str | Path) -> Scenario:
    """Read and validate a scenario file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as err:
        raise ScenarioError(str(path), f"cannot read scenario file: {err}") from err
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ScenarioError(str(path), f"invalid JSON: {err}") from err
    return parse_scenario(data)


def scenario_to_dict(scenario: Scenario) -> dict:
    """Canonical JSON-ready form of a scenario; inverse of :func:`parse_scenario`."""
    data: dict[str, Any] = {
        "version": SCHEMA_VERSION,
        "globals": {**asdict(scenario.globals),
                    "psi_bounds": list(scenario.globals.psi_bounds)},
        "athletes": [asdict(rec) for rec in scenario.athletes],
    }
    if scenario.graph:
        data["graph"] = [list(edge) for edge in sorted(scenario.graph)]
    if scenario.settings is not None:
        data["solver"] = asdict(scenario.settings)
    return data


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    """Write a scenario file that :func:`load_scenario` reads back equal."""
    Path(path).write_text(json.dumps(scenario_to_dict(scenario), indent=2) + "\n")
