"""Spans around calls into the package's public functions, taken from outside.

The traced run replaces each function below at every module attribute that
refers to it, which is the name each module imports it under (for example
``tricontest.entry.solve_contest``), and puts the originals back
afterwards.  Untraced runs never install anything.  Spans stay in memory as
``(name, start, end, parent, op)`` tuples; self times and counts are
derived from them after the pass.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

#: (span name, defining module, attribute, also wrap the defining module's
#: own binding).  ``solve_total_effort`` is wrapped only where other modules
#: import it, so its count is the direct calls from ``analysis`` and the root
#: solve inside ``solve_contest`` stays part of that function's self time.
FUNCTIONS = (
    ("contest.solve_contest", "tricontest.contest", "solve_contest", True),
    ("contest.solve_total_effort", "tricontest.contest", "solve_total_effort", False),
    ("contest.verify_nash", "tricontest.contest", "verify_nash", True),
    ("entry.assemble_spe", "tricontest.entry", "assemble_spe", True),
    ("entry.is_equilibrium_set", "tricontest.entry", "is_equilibrium_set", True),
    ("entry.net_benefit", "tricontest.entry", "net_benefit", True),
    ("entry.subset_equilibrium", "tricontest.entry", "subset_equilibrium", True),
    ("entry.cutoff_psi", "tricontest.entry", "cutoff_psi", True),
    ("analysis.sweep", "tricontest.analysis", "sweep", True),
    ("analysis.sensitivity_report", "tricontest.analysis", "sensitivity_report", True),
    ("analysis.welfare_report", "tricontest.analysis", "welfare_report", True),
    ("scenario_io.load_scenario", "tricontest.scenario_io", "load_scenario", True),
    ("cli.main", "tricontest.cli", "main", True),
)
#: (span name, defining module, class, method) for methods wrapped on the class.
METHODS = (
    ("contest.from_scenario", "tricontest.contest", "ContestInstance", "from_scenario"),
    ("contest.with_psi", "tricontest.contest", "ContestInstance", "with_psi"),
)

MARK = "__bench_traced__"


class Tracer:
    """Records spans while installed; ``op`` tags spans with the current op."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self.op = -1
        self.missing: list[str] = []
        self._undo: list = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)

        setattr(traced, MARK, True)
        return traced

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding for the duration of the block, then restore it."""
        modules = [mod for key, mod in list(sys.modules.items())
                   if mod is not None and (key == "tricontest" or key.startswith("tricontest."))]
        try:
            for name, home, attr, in_home in FUNCTIONS:
                if home not in sys.modules:
                    continue  # never imported, so never called: zero is exact
                original = getattr(sys.modules[home], attr, None)
                if original is None:
                    self.missing.append(name)
                    continue
                wrapper = self.wrap(name, original)
                for mod in modules:
                    if mod.__name__ == home and not in_home:
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, key, original))
                            setattr(mod, key, wrapper)
            for name, home, cls_name, attr in METHODS:
                if home not in sys.modules:
                    continue
                cls = getattr(sys.modules[home], cls_name, None)
                raw = None if cls is None else cls.__dict__.get(attr)
                if raw is None:
                    self.missing.append(name)
                    continue
                if isinstance(raw, classmethod):
                    wrapper = classmethod(self.wrap(name, raw.__func__))
                else:
                    wrapper = self.wrap(name, raw)
                self._undo.append((cls, attr, raw))
                setattr(cls, attr, wrapper)
            yield self
        finally:
            while self._undo:
                owner, key, original = self._undo.pop()
                setattr(owner, key, original)


def wrapped_bindings() -> list[str]:
    """Every ``module.attribute`` in the package that currently holds a wrapper."""
    found = []
    for key, mod in list(sys.modules.items()):
        if mod is None or not (key == "tricontest" or key.startswith("tricontest.")):
            continue
        for attr, value in vars(mod).items():
            if getattr(value, MARK, False):
                found.append(f"{key}.{attr}")
            if isinstance(value, type):
                for meth, raw in vars(value).items():
                    if getattr(getattr(raw, "__func__", raw), MARK, False):
                        found.append(f"{key}.{attr}.{meth}")
    return found


class Aggregate:
    """Counts and self times of one traced pass."""

    def __init__(self, spans: list, op_seconds: float) -> None:
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        #: (span name, parent span name) -> count
        self.edges: dict[tuple[str, str], int] = defaultdict(int)
        for index, (name, start, end, parent, _) in enumerate(spans):
            self.calls[name] += 1
            self.total_s[name] += end - start
            self.self_s[name] += end - start - child[index]
            self.edges[name, spans[parent][0] if parent >= 0 else ""] += 1
        self.op_seconds = op_seconds

    def counts(self) -> dict:
        return dict(sorted(list(self.calls.items()) +
                           [(f"{a}<{b}", n) for (a, b), n in self.edges.items()]))

    def mean_self(self, name: str, scale: float) -> float:
        calls = self.calls.get(name, 0)
        return self.self_s[name] / calls * scale if calls else 0.0

    def mean_total(self, name: str, scale: float) -> float:
        calls = self.calls.get(name, 0)
        return self.total_s[name] / calls * scale if calls else 0.0

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of this pass (units in ``PER_LAYER`` of run.py)."""
        solve = "contest.solve_contest"
        subset_calls = self.calls.get("entry.subset_equilibrium", 0)
        subset_solves = self.edges.get((solve, "entry.subset_equilibrium"), 0)
        cutoffs = self.calls.get("entry.cutoff_psi", 0)
        out = {
            "contest.solve_contest.calls": self.calls.get(solve, 0),
            "contest.solve_contest.self_us": self.mean_self(solve, 1e6),
            "contest.solve_contest.share": (self.self_s[solve] / self.op_seconds
                                            if self.op_seconds > 0 else 0.0),
            "contest.solve_total_effort.calls": self.calls.get("contest.solve_total_effort", 0),
            "contest.solve_total_effort.self_us": self.mean_self("contest.solve_total_effort", 1e6),
            "contest.from_scenario.calls": self.calls.get("contest.from_scenario", 0),
            "contest.from_scenario.self_us": self.mean_self("contest.from_scenario", 1e6),
            "contest.with_psi.calls": self.calls.get("contest.with_psi", 0),
            "contest.with_psi.self_us": self.mean_self("contest.with_psi", 1e6),
            "contest.verify_nash.calls": self.calls.get("contest.verify_nash", 0),
            "contest.verify_nash.self_ms": self.mean_self("contest.verify_nash", 1e3),
            "entry.assemble_spe.self_ms": self.mean_self("entry.assemble_spe", 1e3),
            "entry.is_equilibrium_set.calls": self.calls.get("entry.is_equilibrium_set", 0),
            "entry.net_benefit.calls": self.calls.get("entry.net_benefit", 0),
            "entry.subset_cache.hit_ratio": (1.0 - subset_solves / subset_calls
                                             if subset_calls else 0.0),
            "entry.subset_cache.base": subset_calls,
            "entry.cutoff_psi.self_ms": self.mean_self("entry.cutoff_psi", 1e3),
            "entry.cutoff_psi.solves_per_call": (
                self.edges.get((solve, "entry.cutoff_psi"), 0) / cutoffs if cutoffs else 0.0),
            "analysis.sweep.self_ms": self.mean_self("analysis.sweep", 1e3),
            "analysis.sensitivity_report.self_ms": self.mean_self("analysis.sensitivity_report", 1e3),
            "analysis.welfare_report.self_ms": self.mean_self("analysis.welfare_report", 1e3),
            "scenario_io.load_scenario.ms": self.mean_total("scenario_io.load_scenario", 1e3),
            "cli.main_ms": self.mean_total("cli.main", 1e3),
        }
        return out
