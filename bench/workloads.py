"""The benchmark's four workloads: seeded inputs, one op each, and its check.

Inputs are generated here from the command-line seed with the standard
library's ``random`` (never from ``tests/helpers.py``, so a test edit cannot
shift them) as plain JSON-able documents.  Scenario documents use the
scenario-file layout, so the same document feeds the in-process workloads,
the CLI workload and the independent oracle in ``oracle.py``.

A workload object turns documents into program inputs once (``prepare``),
does any per-op set-up that must stay out of the timed region
(``before``), runs one op (``run``, the only timed call) and checks the
answer against the oracle (``check``, which returns an error message or
``None``).  This module must not import ``tricontest`` or ``numpy`` at
import time: a fresh interpreter times ``import tricontest`` after loading
it.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import oracle

ALPHA, BETA, ETA = 0.001, 0.01, 0.5
PSI_HI = 1.0 / (1.0 - ETA)

#: Seed of the canonical first op that set-up time is measured on, so that
#: ``setup_s`` does not move with the workload seed.
WARMUP_SEED = 0

# Tolerances fixed before measuring.  The package stops its root search at an
# absolute residual of 1e-12 and the oracle bisects to a relative width of
# 1e-15, so honest answers agree far inside these.
REL_TOTAL = 1e-7
ABS_PROB = 1e-9
REL_VALUE = 1e-8
ABS_NET_BENEFIT = 1e-8
REL_DERIVATIVE = 1e-5
ABS_DERIVATIVE = 1e-9
RESIDUAL_TOL = 1e-12


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}/{seed}")


def fingerprint(docs: list) -> str:
    """Short digest of generated inputs; equal digests mean equal inputs."""
    text = json.dumps(docs, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def program_env(root: Path) -> dict:
    """Environment in which a child interpreter imports the package from ``root/src``."""
    env = dict(os.environ)
    src = str(root / "src")
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not old else src + os.pathsep + old
    return env


def _athlete(rng: random.Random, index: int) -> dict:
    return {
        "id": f"a{index:02d}",
        "t_swim": rng.uniform(1700.0, 1900.0),
        "r_swim": index + 1,
        "draft_share": rng.uniform(0.0, 1.0),
        "base_cost": rng.uniform(0.5, 2.0),
        "prize_diff": rng.uniform(0.5, 2.0),
        "weight": 1.0,
        "theta": 0.0,
    }


def _scenario_doc(athletes: list[dict]) -> dict:
    return {"version": 1,
            "globals": {"alpha": ALPHA, "beta": BETA, "eta": ETA},
            "athletes": athletes}


def _set_outside(athlete: dict, outside: float) -> None:
    athlete["theta"] = outside + ALPHA * athlete["t_swim"] + BETA * athlete["r_swim"]


class Case(NamedTuple):
    """One prepared op input: what the check reads, what the op gets, its kind."""

    doc: object
    arg: object
    kind: str


class Workload:
    name = ""
    why = ""
    #: Ops in one traced pass; counts are reported per pass and repeat exactly.
    trace_ops = 1

    def __init__(self, root: Path, out_dir: Path) -> None:
        self.root = root
        self.out_dir = out_dir
        self.tc = None

    def generate(self, seed: int, count: int | None = None) -> list:
        raise NotImplementedError

    def prepare(self, docs: list) -> list[Case]:
        """Program inputs for ``docs``; imports the package under test."""
        self.tc = importlib.import_module("tricontest")
        return [Case(doc, self.tc.parse_scenario(doc),
                     f"n{len(doc['athletes'])}") for doc in docs]

    def before(self, case: Case):
        """Untimed per-op set-up; returns what ``run`` gets."""
        return case.arg

    def run(self, arg):
        raise NotImplementedError

    def run_in_process(self, arg):
        """The op as a traced pass runs it; the same as ``run`` unless overridden."""
        return self.run(arg)

    def check(self, case: Case, out) -> str | None:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# effort_solve
# ---------------------------------------------------------------------------


def _check_contest(ids, sol: oracle.Solution, eq) -> str | None:
    """Aggregate, odds and efforts of a solved field against the oracle."""
    if not oracle.close(eq.total_effort, sol.total, REL_TOTAL):
        return f"total effort {eq.total_effort!r} != oracle {sol.total!r}"
    mass = 0.0
    for idx, aid in enumerate(ids):
        p = eq.probs[aid]
        mass += p
        if not abs(p - sol.probs[idx]) <= ABS_PROB:
            return f"odds of {aid} {p!r} != oracle {sol.probs[idx]!r}"
        if not oracle.close(eq.efforts[aid], sol.efforts[idx], REL_TOTAL, 1e-12):
            return f"effort of {aid} {eq.efforts[aid]!r} != oracle {sol.efforts[idx]!r}"
    if not abs(mass - 1.0) <= 1e-11:
        return f"odds sum to {mass!r}"
    return None


class EffortSolve(Workload):
    name = "effort_solve"
    why = ("closed loop, 1 client: solve_contest on fresh weighted fields of "
           "m=2,3,10 (every 50th m=1000); isolates the aggregate root solve")
    pool = 1500
    trace_ops = 150

    def generate(self, seed, count=None):
        rng = _rng(self.name, seed)
        docs = []
        for i in range(self.pool if count is None else count):
            m = 1000 if i % 50 == 49 else (2, 3, 10)[i % 3]
            docs.append({
                "delta": tuple(rng.uniform(0.1, 10.0) for _ in range(m)),
                "cost": tuple(rng.uniform(0.1, 10.0) for _ in range(m)),
                "psi": tuple(rng.uniform(1.0, 2.0) for _ in range(m)),
                "weight": tuple(rng.uniform(0.5, 2.0) for _ in range(m)),
            })
        return docs

    def prepare(self, docs):
        self.tc = importlib.import_module("tricontest")
        return [Case(doc, tuple(f"a{i:04d}" for i in range(len(doc["delta"]))),
                     f"m{len(doc['delta'])}") for doc in docs]

    def before(self, case):
        # A fresh instance per op, so no cached arrays carry over between ops.
        doc = case.doc
        return self.tc.ContestInstance(ids=case.arg, delta=doc["delta"], cost=doc["cost"],
                                       psi=doc["psi"], weight=doc["weight"])

    def run(self, arg):
        return self.tc.solve_contest(arg)

    def check(self, case, out):
        doc = case.doc
        if not out.residual <= RESIDUAL_TOL:
            return f"residual {out.residual!r} above {RESIDUAL_TOL}"
        sol = oracle.solve(doc["delta"], doc["cost"], doc["psi"], doc["weight"])
        return _check_contest(case.arg, sol, out)


# ---------------------------------------------------------------------------
# entry_enumerate
# ---------------------------------------------------------------------------

# Outside option as a multiple of the own prize.  Below zero the athlete
# always stays (a contest payoff is positive); above one they always leave
# (no field pays more than the prize).  Marginal athletes decide by field.
_STAY, _LEAVE, _MARGINAL = (-0.3, -0.05), (1.05, 1.5), (0.05, 0.9)


class EntryEnumerate(Workload):
    name = "entry_enumerate"
    why = ("closed loop, 1 client: assemble_spe(mode='all') on selective "
           "fields of n=10,11,12 (the enumeration cap); per-subset Python "
           "work and the subset cache")
    pool = 30
    trace_ops = 3

    def generate(self, seed, count=None):
        # Dominant stayers and leavers alternate at the front of the id
        # order and three marginal athletes close it.  The front athletes fix
        # which subsets the enumeration visits, so the work per op depends on
        # n and hardly on the seed, while the marginal ones keep the stable
        # sets seed-dependent (and at times more than one).
        rng = _rng(self.name, seed)
        docs = []
        for i in range(self.pool if count is None else count):
            n = (10, 11, 12)[i % 3]
            kinds = ([_STAY, _LEAVE] * n)[: n - 3] + [_MARGINAL] * 3
            athletes = []
            for j, ratio in enumerate(kinds):
                athlete = _athlete(rng, j)
                _set_outside(athlete, athlete["prize_diff"] * rng.uniform(*ratio))
                athletes.append(athlete)
            docs.append(_scenario_doc(athletes))
        return docs

    def run(self, arg):
        return self.tc.assemble_spe(arg, mode="all")

    def check(self, case, out):
        doc = case.doc
        expected, ambiguous = _oracle_stable_sets(doc)
        returned = [tuple(r.members) for r in out]
        if not expected and not ambiguous:
            best = _oracle_best_singleton(doc)
            if returned != [best] or out[0].method != "singleton_fallback":
                return f"no stable set exists; expected fallback {best}, got {returned}"
            return None
        if len(set(returned)) != len(returned):
            return f"duplicate sets in {returned}"
        if not set(expected) <= set(returned) <= set(expected) | set(ambiguous):
            return f"stable sets {returned} != oracle {sorted(expected)}"
        for result in out:
            error = _check_entry_result(doc, result)
            if error:
                return error
        return None


def _oracle_stability(doc: dict, members: tuple) -> tuple[bool, bool]:
    """``(stable, knife_edge)``: both stability conditions, by the oracle."""
    ambiguous = False
    inside = set(members)
    for athlete in doc["athletes"]:
        aid = athlete["id"]
        if aid in inside:
            value = oracle.net_benefit(doc, inside, aid)
            ok = value >= 0.0
        else:
            value = oracle.net_benefit(doc, inside | {aid}, aid)
            ok = value <= 0.0
        if abs(value) <= ABS_NET_BENEFIT:
            ambiguous = True
        elif not ok:
            return False, False
    return True, ambiguous


def _oracle_stable_sets(doc: dict) -> tuple[list, list]:
    """Stable sets found by the oracle, split into clear and knife-edge ones.

    An athlete whose outside option is negative stays in every field and one
    whose outside option exceeds the own prize leaves every field, so only
    the remaining athletes need enumerating.
    """
    stay, free = [], []
    for athlete in doc["athletes"]:
        out = oracle.outside(doc, athlete)
        if out < 0.0:
            stay.append(athlete["id"])
        elif out <= athlete["prize_diff"]:
            free.append(athlete["id"])
    clear, edge = [], []
    for mask in range(1 << len(free)):
        members = stay + [aid for bit, aid in enumerate(free) if mask >> bit & 1]
        if not members:
            continue
        stable, ambiguous = _oracle_stability(doc, tuple(members))
        key = tuple(sorted(members))
        if ambiguous:
            edge.append(key)
        elif stable:
            clear.append(key)
    return clear, edge


def _oracle_best_singleton(doc: dict) -> tuple:
    best, best_value = None, -float("inf")
    for athlete in sorted(doc["athletes"], key=lambda a: a["id"]):
        value = athlete["prize_diff"] - oracle.outside(doc, athlete)
        if value > best_value:
            best, best_value = athlete["id"], value
    return (best,)


def _check_entry_result(doc: dict, result) -> str | None:
    if result.method != "enumeration":
        return f"set {result.members} came from {result.method!r}"
    ids, sol = oracle.contest(doc, set(result.members))
    if not oracle.close(result.equilibrium.total_effort, sol.total, REL_TOTAL):
        return f"total effort of {result.members} != oracle {sol.total!r}"
    for athlete in doc["athletes"]:
        aid = athlete["id"]
        if aid in ids:
            want, action = sol.values[ids.index(aid)], "continue"
        else:
            want, action = oracle.outside(doc, athlete), "withdraw"
        if result.actions[aid] != action:
            return f"{aid} should {action} in {result.members}"
        if not oracle.close(result.payoffs[aid], want, REL_VALUE, 1e-12):
            return f"payoff of {aid} {result.payoffs[aid]!r} != oracle {want!r}"
    return None


# ---------------------------------------------------------------------------
# statics_cutoff
# ---------------------------------------------------------------------------

_GRID = tuple(j / 16 for j in range(16))
_TARGETS = ("total", "prob", "effort")
_PARAMS = ("psi", "delta", "cost")


def _perturbed(doc: dict, kind: str, aid: str, value: float):
    """``(doc, psi_override)`` with one parameter of one athlete replaced."""
    if kind == "psi":
        return doc, {aid: value}
    key = {"delta": "prize_diff", "cost": "base_cost"}[kind]
    athletes = [dict(a, **{key: value}) if a["id"] == aid else a
                for a in doc["athletes"]]
    return dict(doc, athletes=athletes), None


def _target(doc: dict, override, kind: str, aid: str) -> float:
    ids, sol = oracle.contest(doc, {a["id"] for a in doc["athletes"]}, override)
    if kind == "total":
        return sol.total
    idx = ids.index(aid)
    return sol.probs[idx] if kind == "prob" else sol.efforts[idx]


class StaticsCutoff(Workload):
    name = "statics_cutoff"
    why = ("closed loop, 1 client: what-if study of an n=8 field (8 interior "
           "cutoffs, 16-point sweep, 3x3 sensitivities, welfare); many "
           "re-solves of near-identical instances")
    pool = 24
    trace_ops = 4

    def generate(self, seed, count=None):
        rng = _rng(self.name, seed)
        return [self.interior_scenario(rng)
                for _ in range(self.pool if count is None else count)]

    @staticmethod
    def interior_scenario(rng: random.Random, n: int = 8) -> dict:
        """An n-athlete field whose every cutoff lies strictly inside [1, psi_hi]."""
        athletes = [_athlete(rng, j) for j in range(n)]
        doc = _scenario_doc(athletes)
        everyone = {a["id"] for a in athletes}
        for athlete in athletes:
            aid = athlete["id"]
            low = oracle.net_benefit(doc, everyone, aid, {aid: 1.0})
            high = oracle.net_benefit(doc, everyone, aid, {aid: PSI_HI})
            # theta is still zero here, so net benefit + base outside = value.
            base = oracle.outside(doc, athlete)
            _set_outside(athlete, base + low + rng.uniform(0.2, 0.8) * (high - low))
        return doc

    def run(self, arg):
        tc = self.tc
        ids = arg.ids
        cutoffs = [tc.cutoff_psi(arg, ids, aid) for aid in ids]
        records = tc.sweep(arg, f"athletes.{ids[0]}.draft_share", _GRID,
                           stage="contest")
        instance = tc.ContestInstance.from_scenario(arg)
        reports = [tc.sensitivity_report(instance, (t, None if t == "total" else ids[0]),
                                         (p, ids[0]))
                   for t in _TARGETS for p in _PARAMS]
        welfare = tc.welfare_report(arg, ids)
        return cutoffs, records, reports, welfare

    def check(self, case, out):
        doc = case.doc
        cutoffs, records, reports, welfare = out
        everyone = {a["id"] for a in doc["athletes"]}
        ids = tuple(a["id"] for a in doc["athletes"])
        if len(cutoffs) != len(ids):
            return f"{len(cutoffs)} cutoffs for {len(ids)} athletes"
        for result in cutoffs:
            aid = result.athlete_id
            if result.verdict != "interior" or result.psi_star is None:
                return f"cutoff of {aid} is {result.verdict!r}, expected interior"
            if not 1.0 < result.psi_star < PSI_HI:
                return f"cutoff of {aid} {result.psi_star!r} outside (1, {PSI_HI})"
            gap = oracle.net_benefit(doc, everyone, aid, {aid: result.psi_star})
            if not abs(gap) <= ABS_NET_BENEFIT:
                return f"net benefit of {aid} at its cutoff is {gap!r}"
        if [r.value for r in records] != list(_GRID):
            return "sweep grid changed"
        for record in records:
            override = {ids[0]: oracle.multiplier(record.value, ETA)}
            _, sol = oracle.contest(doc, everyone, override)
            error = _check_contest(ids, sol, record)
            if error:
                return f"sweep point {record.value}: {error}"
        _, delta, cost, psi, _ = oracle.field(doc, everyone)
        for report in reports:
            kind, aid = report.parameter
            value = {"psi": psi, "delta": delta, "cost": cost}[kind][ids.index(aid)]
            step = 1e-5
            hi = _target(*_perturbed(doc, kind, aid, value + step), report.target[0], ids[0])
            lo = _target(*_perturbed(doc, kind, aid, value - step), report.target[0], ids[0])
            finite = (hi - lo) / (2.0 * step)
            if not oracle.close(report.analytic, finite, REL_DERIVATIVE, ABS_DERIVATIVE):
                return (f"d{report.target[0]}/d{kind}: analytic {report.analytic!r} "
                        f"!= oracle difference {finite!r}")
        _, sol = oracle.contest(doc, everyone)
        spent = sum(0.5 * c / s * e * e for c, s, e in zip(cost, psi, sol.efforts))
        intake = sum(p * d for p, d in zip(sol.probs, delta))
        for label, got, want in (("total_welfare", welfare.total_welfare, sum(sol.values)),
                                 ("aggregate_cost", welfare.aggregate_cost, spent),
                                 ("aggregate_prize_intake",
                                  welfare.aggregate_prize_intake, intake),
                                 ("rent_ratio", welfare.rent_ratio, spent / intake)):
            if not oracle.close(got, want, REL_VALUE):
                return f"welfare {label} {got!r} != oracle {want!r}"
        return None


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

_SHIPPED = ("symmetric_pair", "heterogeneous_triple", "dropout_pair")
#: Argument vectors whose output is pinned by a checked-in golden file.
_GOLDEN = {("solve", "scenarios/symmetric_pair.json"): "solve_symmetric_pair.txt",
           ("solve", "scenarios/heterogeneous_triple.json"): "solve_heterogeneous_triple.txt",
           ("spe", "scenarios/dropout_pair.json"): "spe_dropout_pair.txt"}
GENERATED_NAME = "generated_n8.json"


def _commands(path: str, first_id: str) -> list[list[str]]:
    return [["solve", path],
            ["spe", "--mode", "all", path],
            ["cutoff", "--athlete", first_id, path],
            ["welfare", path],
            ["sweep", "--param", f"athletes.{first_id}.draft_share",
             "--grid", "0:0.9:8", path]]


class CliCold(Workload):
    name = "cli_cold"
    why = ("closed loop, 1 client: one 'python -m tricontest' process per op, "
           "cycling 5 commands over 3 shipped scenarios and a generated n=8 "
           "file; what a shell user pays")
    trace_ops = 21

    def __init__(self, root: Path, out_dir: Path) -> None:
        super().__init__(root, out_dir)
        self.generated = (out_dir / GENERATED_NAME).relative_to(root).as_posix()
        self.env = program_env(root)

    def generate(self, seed, count=None):
        """Argument vectors, then the generated scenario file as a last entry."""
        argvs = []
        for stem in _SHIPPED:
            first = json.loads((self.root / "scenarios" / f"{stem}.json")
                               .read_text())["athletes"][0]["id"]
            argvs += _commands(f"scenarios/{stem}.json", first)
        argvs.append(["spe", "scenarios/dropout_pair.json"])
        argvs += _commands(self.generated, "a00")
        docs = [{"argv": argv, "golden": _GOLDEN.get(tuple(argv))}
                for argv in argvs[:count]]
        if any(self.generated in doc["argv"] for doc in docs):
            docs.append({"file": self.generated,
                         "scenario": StaticsCutoff.interior_scenario(_rng(self.name, seed))})
        return docs

    def prepare(self, docs):
        """Write the generated file and record each command's in-process output."""
        self.tc = importlib.import_module("tricontest")
        importlib.import_module("tricontest.cli")
        for doc in docs:
            if "file" in doc:
                path = self.root / doc["file"]
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(json.dumps(doc["scenario"], indent=2) + "\n")
        return [Case(dict(doc, reference=self.run_in_process(doc["argv"])),
                     doc["argv"], " ".join(doc["argv"]))
                for doc in docs if "argv" in doc]

    def run(self, arg):
        done = subprocess.run([sys.executable, "-m", "tricontest", *arg],
                              cwd=self.root, env=self.env, capture_output=True,
                              timeout=120)
        return done.returncode, done.stdout.decode()

    def run_in_process(self, arg):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = self.tc.cli.main(list(arg))
        return code, buffer.getvalue()

    def check(self, case, out):
        code, text = out
        label = case.kind
        if code != 0:
            return f"{label}: exited {code}"
        if case.doc["reference"] != (0, text):
            return f"{label}: output differs from an in-process run of the same argv"
        golden = case.doc["golden"]
        if golden and text != (self.root / "tests" / "golden" / golden).read_text():
            return f"{label}: output differs from {golden}"
        return None


WORKLOADS = (EffortSolve, EntryEnumerate, StaticsCutoff, CliCold)
NAMES = tuple(cls.name for cls in WORKLOADS)


def make(name: str, root: Path, out_dir: Path) -> Workload:
    """The workload called ``name``; files it writes go under ``out_dir``."""
    return {cls.name: cls for cls in WORKLOADS}[name](root, out_dir)
