"""Package surface: exports, imports, and where solver settings come from.

Read from the source with ``ast``: the package ``__all__`` must list
exactly the public names ``__init__`` imports from the package's modules,
those under its ``if TYPE_CHECKING:`` (loaded on first use) included, every
``__all__`` entry must be defined, and no module may import a name it never
uses (imports under ``if TYPE_CHECKING:`` are for annotations and do not
count).  In fresh interpreters: ``import tricontest`` loads neither
``entry`` nor ``analysis``, each name loads only its own layer, and the CLI
loads ``analysis`` only for ``welfare`` and ``sweep``.
Read with ``inspect``: no public function takes ``settings``, which only a
scenario and a contest instance carry, the root solve takes only its instance,
a target mass and a start, and the entry and what-if functions
take no tuning knobs.  Loaded from its file: every
package name the benchmark's tracer wraps exists.  Read from the README: the
errors it names as worth catching are exactly the package's exported errors.
Every exported name but an allowlisted one has a caller outside the tests.
Every private module-level function and class has a reader in the package
outside its own definition, only ``entry._Fields.checked`` calls ``verify_nash``,
``ContestEquilibrium`` is built by ``contest._equilibrium`` alone, bar the records of a lone
member and of the empty field, and the two oracles read a profile, and the cutoff and the greedy
threshold an outside option, each in one place.
"""

from __future__ import annotations

import ast
import builtins
import dataclasses
import importlib
import importlib.util
import inspect
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tricontest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tricontest"
MODULES = sorted(PACKAGE.glob("*.py"))


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def declared_all(tree: ast.Module) -> list[str] | None:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            return [ast.literal_eval(element) for element in node.value.elts]
    return None


def imported_names(nodes) -> dict[str, int]:
    """Name each import binds, with its line, skipping ``from __future__``."""
    names = {}
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def type_checking_nodes(tree: ast.Module) -> set[int]:
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) \
                and node.test.id == "TYPE_CHECKING":
            skipped.update(id(sub) for sub in ast.walk(node))
    return skipped


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere, string annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for note in annotations:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used.update(n.id for n in ast.walk(ast.parse(note.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return used


def top_level_names(tree: ast.Module) -> set[str]:
    names = set(imported_names(tree.body))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(n.id for target in node.targets for n in ast.walk(target)
                         if isinstance(n, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def lazy_imports(tree: ast.Module) -> list[ast.stmt]:
    """Imports directly under a top-level ``if TYPE_CHECKING:``."""
    return [sub for node in tree.body if isinstance(node, ast.If)
            and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"
            for sub in node.body]


def test_package_all_lists_every_public_import():
    tree = parse(PACKAGE / "__init__.py")
    own = [node for node in tree.body + lazy_imports(tree)
           if isinstance(node, ast.ImportFrom) and node.level]
    public = {name for name in imported_names(own) if not name.startswith("_")}
    exported = declared_all(tree)
    assert len(exported) == len(set(exported))
    assert set(exported) == public
    assert len(lazy_imports(tree)) == 2  # entry and analysis, resolved by __getattr__


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_all_names_exist(path):
    tree = parse(path)
    exported = declared_all(tree) or []
    defined = top_level_names(tree)
    if path.name == "__init__.py":
        defined |= set(imported_names(lazy_imports(tree)))
    assert set(exported) <= defined


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    tree = parse(path)
    skipped = type_checking_nodes(tree)
    imports = imported_names(node for node in ast.walk(tree) if id(node) not in skipped)
    used = used_names(tree) | set(declared_all(tree) or [])
    unused = {name: line for name, line in imports.items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_scenario_functions_take_no_settings():
    takes_scenario = []
    for name in tricontest.__all__:
        value = getattr(tricontest, name)
        if not inspect.isfunction(value):
            continue
        parameters = inspect.signature(value).parameters
        first = next(iter(parameters.values()), None)
        if first is not None and first.annotation in ("Scenario", tricontest.Scenario):
            takes_scenario.append(name)
            assert "settings" not in parameters, name
    assert {"subset_equilibrium", "net_benefit", "net_benefit_curve",
            "cutoff_psi", "is_equilibrium_set", "enumerate_equilibrium_sets",
            "iterate_continuation_operator", "assemble_spe", "welfare_report", "sweep",
            "prediction_report"} <= set(takes_scenario)


def test_no_public_function_takes_settings():
    """Solver settings are data on a scenario or an instance, never a call's argument; the
    root solve under every public call reads them off its instance alone."""
    functions = {name: getattr(tricontest, name) for name in tricontest.__all__
                 if inspect.isfunction(getattr(tricontest, name))}
    assert {"solve_contest", "solve_total_effort", "sensitivity_report",
            "total_effort_derivative"} <= set(functions)
    assert [name for name, function in functions.items()
            if "settings" in inspect.signature(function).parameters] == []
    carriers = {name for name in tricontest.__all__
                if dataclasses.is_dataclass(value := getattr(tricontest, name))
                and "settings" in {field.name for field in dataclasses.fields(value)}}
    assert carriers == {"Scenario", "ContestInstance"}
    newton = importlib.import_module("tricontest.contest")._newton
    assert list(inspect.signature(newton).parameters) == ["instance", "mass", "start"]


def test_entry_and_what_if_functions_take_no_tuning_knobs():
    knobs = {"start", "max_rounds", "max_n", "step", "draft_grid", "size_grid"}
    for function in (tricontest.iterate_continuation_operator,
                     tricontest.enumerate_equilibrium_sets,
                     tricontest.sensitivity_report, tricontest.prediction_report):
        assert not knobs & set(inspect.signature(function).parameters), function.__name__


def load_tracing():
    """The benchmark's tracer module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_exists():
    """A renamed function would leave its per-layer counter reading 0 silently."""
    tracing = load_tracing()
    assert tracing.FUNCTIONS and tracing.METHODS
    for _, module, attr, _ in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
    for _, module, cls, attr in tracing.METHODS:
        assert callable(getattr(getattr(importlib.import_module(module), cls), attr)), \
            (module, cls, attr)


def test_readme_names_every_exported_error():
    """The README's "Errors worth catching" paragraph and the exported error classes agree."""
    readme = (ROOT / "README.md").read_text()
    paragraph = readme[readme.index("Errors worth catching:"):].split("\n\n")[0]
    named = {name for name in re.findall(r"`(\w+Error)`", paragraph)
             if not hasattr(builtins, name)}
    exported = {name for name in tricontest.__all__ if name.endswith("Error")}
    assert all(issubclass(getattr(tricontest, name), Exception) for name in exported)
    assert named == exported


# Exports used only where the acceptance criteria call them.
CALLED_BY_TESTS_ONLY = {"net_benefit_curve"}


def referenced_names(path: Path) -> set[str]:
    """Names and attributes the code reads; strings and definitions do not count."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(parse(path)) if isinstance(node, (ast.Name, ast.Attribute))}


def test_every_export_has_a_caller_outside_tests():
    """A public name that only tests call is a hook to delete, not a feature.

    A name counts as called where package code other than ``__init__``, a
    demo or a benchmark script reads it, where the benchmark's tracer wraps
    it, or where the README names it.
    """
    sources = [path for path in MODULES if path.name != "__init__.py"]
    sources += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    called = set().union(*map(referenced_names, sources))
    tracing = load_tracing()
    called |= {entry[2] for entry in tracing.FUNCTIONS + tracing.METHODS}
    called |= set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    uncalled = set(tricontest.__all__) - called
    assert uncalled == CALLED_BY_TESTS_ONLY


def test_every_private_definition_has_a_caller_in_the_package():
    """A private module-level function or class that no package code reads outside its own
    definition is a hook to delete; tests reading it do not count."""
    definitions, readers = [], []
    for path in MODULES:
        for node in parse(path).body:
            names = {sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node)
                     if isinstance(sub, (ast.Name, ast.Attribute))}
            readers.append((node, names))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and node.name.startswith("_") and not node.name.startswith("__"):
                definitions.append((path.name, node))
    unread = [(module, node.name) for module, node in definitions
              if not any(node.name in names for other, names in readers if other is not node)]
    assert definitions
    assert unread == []


def package_callers(function: str) -> list[str]:
    """The dotted scope (module, class, function) of each package call of ``function``."""
    callers = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and function in (
                    getattr(child.func, "id", None), getattr(child.func, "attr", None)):
                callers.append(".".join(scope))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, scope + (child.name,) if named else scope)

    for path in MODULES:
        visit(parse(path), (path.stem,))
    return callers


def test_every_best_response_check_runs_in_the_field_certifier():
    """Package code calls ``verify_nash`` only inside ``entry._Fields.checked``, the one place
    where a printed or assembled solve is certified."""
    assert package_callers("verify_nash") == ["entry._Fields.checked"]


def test_each_seam_has_one_reader():
    """Both Stage 2 oracles read a played profile through ``contest._played``, and the cutoff and
    the greedy threshold read an outside option's cases through ``entry._needed_share``."""
    assert sorted(package_callers("_played")) == ["contest.payoff_curvature",
                                                  "contest.verify_nash"]
    assert sorted(package_callers("_needed_share")) == ["entry._greedy.tau", "entry.cutoff_psi"]


def test_every_solved_record_is_built_by_one_builder():
    """Package code calls ``ContestEquilibrium`` once in ``contest._equilibrium``, the builder
    of every solved field's record, and once each for the records that solve nothing: the
    lone member's in ``solve_contest`` and the empty field's in ``entry._Fields``.  The root
    solve hands its callers the pair of root and gap."""
    assert sorted(package_callers("ContestEquilibrium")) == [
        "contest._equilibrium", "contest.solve_contest", "entry._Fields.__init__"]
    contest = importlib.import_module("tricontest.contest")
    rng = random.Random(29)
    m = rng.randint(2, 8)
    instance = contest.ContestInstance(
        ids=tuple(f"a{i}" for i in range(m)),
        **{name: tuple(rng.uniform(0.5, 2.0) for _ in range(m))
           for name in ("delta", "cost", "psi", "weight")})
    x, gap = contest._newton(instance)
    assert x > 0.0 and abs(gap) == contest.solve_contest(instance).residual


# ---------------------------------------------------------------------------
# Import boundary: what loads when
# ---------------------------------------------------------------------------

LAYERS = ("tricontest.entry", "tricontest.analysis")


def loaded_layers(code: str) -> list[str]:
    """The layers a fresh interpreter has loaded after running ``code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    probe = f"import sys\n{code}\nprint([m for m in {LAYERS!r} if m in sys.modules])"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          cwd=ROOT, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("code, layers", [
    ("import tricontest", []),
    ("import tricontest\nassert not hasattr(tricontest, 'no_such_name')", []),
    ("import tricontest\ntricontest.cutoff_psi", ["tricontest.entry"]),
    ("import tricontest\ntricontest.sweep", list(LAYERS)),
    ("import tricontest\nassert tricontest.analysis.__name__ == 'tricontest.analysis'",
     list(LAYERS)),
], ids=["import", "unknown-name", "entry-name", "analysis-name", "analysis-module"])
def test_names_load_their_layer_on_first_use(code, layers):
    assert loaded_layers(code) == layers


@pytest.mark.parametrize("argv, layers", [
    (["solve", "scenarios/symmetric_pair.json"], ["tricontest.entry"]),
    (["spe", "scenarios/symmetric_pair.json"], ["tricontest.entry"]),
    (["cutoff", "--athlete", "ada", "scenarios/symmetric_pair.json"], ["tricontest.entry"]),
    (["welfare", "scenarios/symmetric_pair.json"], list(LAYERS)),
    (["sweep", "--param", "globals.eta", "--grid", "0.2:0.4:2",
      "scenarios/symmetric_pair.json"], list(LAYERS)),
], ids=["solve", "spe", "cutoff", "welfare", "sweep"])
def test_cli_loads_analysis_only_for_welfare_and_sweep(argv, layers):
    code = f"from tricontest import cli\nassert cli.main({argv!r}) == 0"
    assert loaded_layers(code) == layers


def test_every_export_is_its_defining_module_object():
    modules = [importlib.import_module(f"tricontest.{name}") for name in
               ("model", "contest", "scenario_io", "entry", "analysis")]
    for name in tricontest.__all__:
        homes = [module for module in modules if name in module.__all__]
        assert homes, name
        assert all(getattr(tricontest, name) is getattr(module, name) for module in homes), name


def test_star_import_dir_and_unknown_names():
    namespace: dict = {}
    exec("from tricontest import *", namespace)
    assert set(tricontest.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(tricontest, name) for name in tricontest.__all__)
    assert set(tricontest.__all__) <= set(dir(tricontest))
    with pytest.raises(AttributeError, match="no_such_name"):
        tricontest.no_such_name  # noqa: B018
