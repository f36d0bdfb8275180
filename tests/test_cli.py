"""Scenario files, command-line behaviour, and golden outputs."""

from __future__ import annotations

import csv
import errno
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tricontest import (
    ScenarioError,
    SolverSettings,
    load_scenario,
    parse_scenario,
    save_scenario,
    scenario_to_dict,
)
from tricontest.cli import _parse_grid, format_number, main

from helpers import random_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden"


def minimal_payload() -> dict:
    return {
        "version": 1,
        "globals": {"alpha": 0.001, "beta": 0.01, "eta": 0.5},
        "athletes": [
            {"id": "ada", "t_swim": 1800.0, "r_swim": 1, "draft_share": 0.0,
             "base_cost": 1.0, "prize_diff": 1.0},
            {"id": "bea", "t_swim": 1800.0, "r_swim": 2, "draft_share": 0.0,
             "base_cost": 1.0, "prize_diff": 1.0},
        ],
    }


def src_env() -> dict:
    """The environment with the checkout's ``src`` first on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_cli(argv, capsys):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# Scenario parsing
# ---------------------------------------------------------------------------


def test_parse_minimal_scenario():
    scenario = parse_scenario(minimal_payload())
    assert scenario.ids == ("ada", "bea")
    assert scenario.athletes[0].weight == 1.0
    assert scenario.athletes[0].theta == 0.0
    assert scenario.settings is None


def test_parse_optional_blocks():
    payload = minimal_payload()
    payload["athletes"][0]["weight"] = 2.0
    payload["athletes"][0]["theta"] = -0.5
    payload["graph"] = [["ada", "bea"]]
    payload["solver"] = {"abs_tol": 1e-10, "max_iter": 99}
    scenario = parse_scenario(payload)
    assert scenario.athletes[0].weight == 2.0
    assert scenario.athletes[0].theta == -0.5
    assert scenario.graph == frozenset({("ada", "bea")})
    assert scenario.settings.max_iter == 99


def test_parse_error_paths():
    payload = minimal_payload()
    payload["globals"]["eta"] = 1.2
    with pytest.raises(ScenarioError) as err:
        parse_scenario(payload)
    assert str(err.value).startswith("globals.eta:")
    assert "(0,1)" in str(err.value)

    payload = minimal_payload()
    payload["version"] = 2
    with pytest.raises(ScenarioError) as err:
        parse_scenario(payload)
    assert "version" in str(err.value)

    payload = minimal_payload()
    payload["athletes"][1]["id"] = "ada"
    with pytest.raises(ScenarioError) as err:
        parse_scenario(payload)
    assert "duplicate athlete id" in str(err.value)

    payload = minimal_payload()
    del payload["athletes"][1]["prize_diff"]
    with pytest.raises(ScenarioError) as err:
        parse_scenario(payload)
    assert str(err.value).startswith("athletes[1].prize_diff:")

    payload = minimal_payload()
    payload["athletes"][0]["r_swim"] = 1.5
    with pytest.raises(ScenarioError) as err:
        parse_scenario(payload)
    assert str(err.value).startswith("athletes[0].r_swim:")

    payload = minimal_payload()
    payload["globals"]["alpha"] = True
    with pytest.raises(ScenarioError) as err:
        parse_scenario(payload)
    assert "expected a number" in str(err.value)


def test_parse_rejects_unknown_fields():
    payload = minimal_payload()
    payload["speed"] = 9
    with pytest.raises(ScenarioError) as err:
        parse_scenario(payload)
    assert str(err.value).startswith("speed:")

    payload = minimal_payload()
    payload["athletes"][0]["vo2max"] = 70
    with pytest.raises(ScenarioError) as err:
        parse_scenario(payload)
    assert str(err.value).startswith("athletes[0].vo2max:")


def test_parse_rejects_malformed_shapes():
    with pytest.raises(ScenarioError):
        parse_scenario(["not", "an", "object"])
    payload = minimal_payload()
    payload["athletes"] = "two of them"
    with pytest.raises(ScenarioError):
        parse_scenario(payload)
    payload = minimal_payload()
    payload["graph"] = [["ada"]]
    with pytest.raises(ScenarioError) as err:
        parse_scenario(payload)
    assert str(err.value).startswith("graph[0]:")
    payload = minimal_payload()
    payload["globals"]["psi_bounds"] = [1.0]
    with pytest.raises(ScenarioError) as err:
        parse_scenario(payload)
    assert str(err.value).startswith("globals.psi_bounds:")


_ABSENT = object()

_FAULTS = [
    ("globals", "psi_bounds", None,
     "globals.psi_bounds: expected a [low, high] pair of numbers, got None"),
    ("globals", "speed", 1, "globals.speed: unknown field"),
    ("solver", "speed", 1, "solver.speed: unknown field"),
    ("solver", "max_iter", 1.5, "solver.max_iter: expected an integer, got 1.5"),
    ("solver", "abs_tol", 0, "solver.abs_tol: abs_tol must be positive, got 0.0"),
    ("athlete", "id", 7, "athletes[0].id: expected a string, got 7"),
    ("athlete", "weight", -1,
     "athletes[0].weight: weight must be positive, got -1.0 (athlete 'ada')"),
    ("athlete", "theta", "x", "athletes[0].theta: expected a number, got 'x'"),
    ("top", "globals", _ABSENT, "globals: expected an object, got NoneType"),
    ("top", "version", "1", "version: expected an integer, got '1'"),
    ("top", "graph", [["ada", "ada"]], "graph: drafting edge ('ada', 'ada') is a self-loop"),
    ("top", "graph", [["ada", "zed"]],
     "graph: drafting edge ('ada', 'zed') references an unknown athlete"),
]

# A block that is absent or not of its kind.
_SHAPES = [
    ("top", "version", _ABSENT, "version: missing field"),
    ("top", "graph", {"ada": "bea"}, "graph: expected an array of [from, to] pairs"),
]

# Integers past float range, and a stop tolerance no share mass of one can use.
_OUT_OF_RANGE = [
    ("athlete", "prize_diff", 10**400,
     "athletes[0].prize_diff: prize_diff must be finite, got inf"),
    ("athlete", "r_swim", 10**400, "athletes[0].r_swim: r_swim must be finite, got inf"),
    ("globals", "alpha", 10**400, "globals.alpha: alpha must be finite, got inf"),
    ("globals", "psi_bounds", [1, 10**400],
     "globals.psi_bounds: psi_bounds high must be finite, got inf"),
    ("solver", "abs_tol", 1.0, "solver.abs_tol: abs_tol must be below 1, got 1.0"),
]


@pytest.mark.parametrize("block,key,value,message", _FAULTS + _OUT_OF_RANGE + _SHAPES,
                         ids=[f"{block}.{key}" for block, key, _, _ in _FAULTS]
                         + [f"{block}.{key}-out-of-range" for block, key, _, _ in _OUT_OF_RANGE]
                         + [f"{block}.{key}-shape" for block, key, _, _ in _SHAPES])
def test_parse_fault_messages(block, key, value, message):
    """Each single fault is reported with its exact path and text."""
    payload = minimal_payload()
    payload["solver"] = {}
    target = {"top": payload, "globals": payload["globals"],
              "solver": payload["solver"], "athlete": payload["athletes"][0]}[block]
    if value is _ABSENT:
        del target[key]
    else:
        target[key] = value
    with pytest.raises(ScenarioError) as err:
        parse_scenario(payload)
    assert str(err.value) == message


def test_scenario_error_is_a_value_error():
    assert issubclass(ScenarioError, ValueError)


def test_load_errors_carry_the_file_path(tmp_path):
    missing = tmp_path / "absent.json"
    with pytest.raises(ScenarioError) as err:
        load_scenario(missing)
    assert "absent.json" in str(err.value)

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(ScenarioError) as err:
        load_scenario(broken)
    assert "invalid JSON" in str(err.value)


@pytest.mark.parametrize("name", ["symmetric_pair.json",
                                  "heterogeneous_triple.json",
                                  "dropout_pair.json"])
def test_shipped_scenarios_round_trip(name, tmp_path):
    """Loading, saving, and reloading is the identity on scenarios."""
    original = load_scenario(SCENARIOS / name)
    copy_path = tmp_path / name
    save_scenario(original, copy_path)
    assert load_scenario(copy_path) == original


def test_scenario_with_a_graph_round_trips(tmp_path):
    payload = minimal_payload()
    payload["graph"] = [["bea", "ada"], ["ada", "bea"]]
    original = parse_scenario(payload)
    save_scenario(original, tmp_path / "graph.json")
    assert load_scenario(tmp_path / "graph.json") == original
    assert scenario_to_dict(original)["graph"] == [["ada", "bea"], ["bea", "ada"]]


def test_scenario_with_a_solver_block_round_trips(tmp_path):
    payload = minimal_payload()
    payload["solver"] = {"abs_tol": 1e-10, "max_iter": 50}
    original = parse_scenario(payload)
    assert original.settings == SolverSettings(abs_tol=1e-10, max_iter=50)
    save_scenario(original, tmp_path / "solver.json")
    assert load_scenario(tmp_path / "solver.json") == original
    assert scenario_to_dict(original)["solver"] == payload["solver"]


def test_scenario_to_dict_omits_empty_blocks():
    scenario = parse_scenario(minimal_payload())
    data = scenario_to_dict(scenario)
    assert "graph" not in data
    assert "solver" not in data
    assert data["globals"]["psi_bounds"] == [1.0, 2.0]


# ---------------------------------------------------------------------------
# Number formatting
# ---------------------------------------------------------------------------


def test_format_number_is_twelve_significant_digits():
    assert format_number(0.5) == "5.00000000000e-01"
    assert format_number(1.0) == "1.00000000000e+00"
    assert format_number(3.141592653589793) == "3.14159265359e+00"
    assert format_number(-0.25) == "-2.50000000000e-01"


def test_format_number_collapses_negative_zero():
    assert format_number(-0.0) == "0.00000000000e+00"
    # Only exact zero collapses; tiny magnitudes keep their sign.
    assert format_number(-1e-99) == "-1.00000000000e-99"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def test_solve_table(capsys):
    code, out, err = run_cli(["solve", str(SCENARIOS / "symmetric_pair.json")],
                             capsys)
    assert code == 0
    assert err == ""
    assert "scenario: symmetric_pair.json" in out
    assert str(SCENARIOS) not in out
    assert "e_star" in out
    assert "5.00000000000e-01" in out
    assert "nash: PASS" in out


def test_solve_single_member_set(capsys):
    code, out, _ = run_cli(["solve", "--set", "ada",
                            str(SCENARIOS / "symmetric_pair.json")], capsys)
    assert code == 0
    assert "1.00000000000e+00" in out  # certain win
    assert "0.00000000000e+00" in out  # at zero effort


def test_solve_csv_parses(capsys):
    code, out, _ = run_cli(["solve", "--output", "csv",
                            str(SCENARIOS / "symmetric_pair.json")], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["id", "psi", "k", "e_star", "p_star", "value"]
    assert len(rows) == 3
    assert float(rows[1][3]) == 0.5


def test_solve_tree_parses(capsys):
    code, out, _ = run_cli(["solve", "--output", "tree",
                            str(SCENARIOS / "symmetric_pair.json")], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "solve"
    assert payload["total_effort"] == 1.0
    assert payload["athletes"][0]["e_star"] == 0.5
    assert payload["nash"]["passed"] is True


def test_cutoff_command(capsys):
    code, out, _ = run_cli(["cutoff", "--athlete", "ada",
                            str(SCENARIOS / "symmetric_pair.json")], capsys)
    assert code == 0
    assert "always_continue" in out


def test_cutoff_requires_member(capsys):
    code, _, err = run_cli(["cutoff", "--athlete", "bea", "--set", "ada",
                            str(SCENARIOS / "symmetric_pair.json")], capsys)
    assert code == 2
    assert err == "error: athlete 'bea' is not in the member set\n"


def test_spe_command(capsys):
    code, out, _ = run_cli(["spe", str(SCENARIOS / "dropout_pair.json")],
                           capsys)
    assert code == 0
    assert "enumeration" in out
    assert "withdraw" in out
    assert "equilibria: 1" in out


def test_welfare_command_matches_library(capsys):
    from tricontest import welfare_report
    scenario = load_scenario(SCENARIOS / "heterogeneous_triple.json")
    report = welfare_report(scenario, scenario.ids)
    code, out, _ = run_cli(["welfare", "--output", "tree",
                            str(SCENARIOS / "heterogeneous_triple.json")],
                           capsys)
    assert code == 0
    metrics = json.loads(out)["metrics"]
    assert metrics["rent_ratio"] == pytest.approx(report.rent_ratio, rel=1e-11)
    assert metrics["total_welfare"] == pytest.approx(report.total_welfare,
                                                     rel=1e-11)


def test_sweep_csv_rows_increase(capsys):
    code, out, _ = run_cli(["sweep", "--param", "athletes.ada.draft_share",
                            "--grid", "0:0.75:4",
                            str(SCENARIOS / "symmetric_pair.json")], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:3] == ["param", "value", "total_effort"]
    assert len(rows) == 5
    probs = [float(row[rows[0].index("p_ada")]) for row in rows[1:]]
    assert all(b > a for a, b in zip(probs, probs[1:]))


def test_sweep_full_spe_adds_action_columns(capsys):
    code, out, _ = run_cli(["sweep", "--param", "athletes.ada.draft_share",
                            "--grid", "0:0.75:4", "--full-spe",
                            str(SCENARIOS / "symmetric_pair.json")], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert "members" in rows[0]
    assert "action_ada" in rows[0]
    assert rows[1][rows[0].index("action_ada")] == "continue"


def test_sweep_field_size_headers(capsys):
    code, out, _ = run_cli(["sweep", "--param", "m", "--grid", "2:6:5",
                            str(SCENARIOS / "symmetric_pair.json")], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["param", "value", "total_effort", "e_star", "p_star",
                       "value_star"]
    efforts = [float(row[3]) for row in rows[1:]]
    assert all(b < a for a, b in zip(efforts, efforts[1:]))


# ---------------------------------------------------------------------------
# Exit codes and diagnostics
# ---------------------------------------------------------------------------


def test_missing_file_is_a_usage_error(capsys):
    code, out, err = run_cli(["solve", "nowhere.json"], capsys)
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_unknown_set_member_is_a_usage_error(capsys):
    for command in (["solve"], ["cutoff", "--athlete", "ada"], ["welfare"]):
        code, out, err = run_cli([*command, "--set", "ada,zzz",
                                  str(SCENARIOS / "symmetric_pair.json")], capsys)
        assert (code, out, err) == (2, "", "error: unknown athlete id 'zzz'\n"), command


def test_malformed_set_is_a_usage_error(capsys):
    code, out, err = run_cli(["solve", "--set", ",", str(SCENARIOS / "symmetric_pair.json")],
                             capsys)
    assert (code, out, err) == (2, "", "error: malformed --set value ',': empty member id\n")


def test_help_exits_0_and_an_unknown_option_2(capsys):
    code, out, _ = run_cli(["--help"], capsys)
    assert code == 0
    assert out.startswith("usage: tricontest ")
    code, out, err = run_cli(["solve", "--bogus", str(SCENARIOS / "symmetric_pair.json")],
                             capsys)
    assert (code, out) == (2, "")
    assert err.endswith("tricontest: error: unrecognized arguments: --bogus\n")


def test_a_root_beyond_float_range_is_a_solver_error(tmp_path, capsys):
    """Valid prizes and costs whose ratio passes 1e308 end in one line and exit 1."""
    payload = minimal_payload()
    for athlete in payload["athletes"]:
        athlete.update(prize_diff=1e300, base_cost=1e-300)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(payload))
    for command in ("solve", "spe", "welfare"):
        code, out, err = run_cli([command, str(path)], capsys)
        assert (code, out) == (1, ""), command
        assert err.startswith("error: Newton's slope underflowed to zero ")
        assert err.count("\n") == 1


def test_solve_exits_1_when_its_nash_check_fails(tmp_path, capsys):
    """A loose solver block stops short of the equilibrium: solve, spe and welfare name who gains."""
    payload = json.loads((SCENARIOS / "symmetric_pair.json").read_text())
    payload["solver"] = {"abs_tol": 0.5}
    path = tmp_path / "loose.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(["solve", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err == ("error: contest on ('ada', 'bea') failed the best-response check: "
                   "athlete 'ada' gains 8.29783138966e-04 by deviating\n")
    for command in ("spe", "welfare"):
        assert run_cli([command, str(path)], capsys) == (1, "", err), command


def test_an_all_leave_field_is_the_empty_field(tmp_path, capsys):
    """Every outside option beats its prize: everyone withdraws at it, at every field size."""
    payload = json.loads((SCENARIOS / "symmetric_pair.json").read_text())
    for athlete in payload["athletes"]:
        athlete["theta"] = 5.0
    path = tmp_path / "leave.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(["spe", "--output", "csv", str(path)], capsys)
    assert (code, out) == (0, "set,method,id,action,payoff\n"
                               ",enumeration,ada,withdraw,3.19000000000e+00\n"
                               ",enumeration,bea,withdraw,3.18000000000e+00\n")
    code, out, _ = run_cli(["sweep", "--param", "m", "--grid", "2:4:3", "--full-spe",
                            str(path)], capsys)
    assert (code, out) == (0, "param,value,total_effort,e_star,p_star,value_star,members\n"
                               "m,2.00000000000e+00,0.00000000000e+00,,,,\n"
                               "m,3.00000000000e+00,0.00000000000e+00,,,,\n"
                               "m,4.00000000000e+00,0.00000000000e+00,,,,\n")


def test_a_root_below_float_range_is_a_solver_error(tmp_path, capsys):
    """Valid prizes and costs whose ratio is under 1e-308 stall Newton: one line, exit 1."""
    payload = minimal_payload()
    for athlete in payload["athletes"]:
        athlete.update(prize_diff=1e-200, base_cost=1e200)
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(payload))
    for command in ("solve", "spe", "welfare"):
        code, out, err = run_cli([command, str(path)], capsys)
        assert (code, out) == (1, ""), command
        assert err == ("error: Newton stalled at floating point resolution "
                       "(bracket [0.0, 0.0], residual 1.0)\n")


def test_unwritable_out_path_is_a_usage_error(tmp_path, capsys):
    """An ``--out`` that is a directory, or lies below a file, fails with one line."""
    blocker = tmp_path / "file.txt"
    blocker.write_text("")
    for target, reason in ((tmp_path, errno.EISDIR), (blocker / "x", errno.ENOTDIR)):
        code, out, err = run_cli(["solve", str(SCENARIOS / "symmetric_pair.json"),
                                  "--out", str(target)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {target}: {os.strerror(reason)}\n"


def test_malformed_grid_is_a_usage_error(capsys):
    base = ["sweep", "--param", "m", str(SCENARIOS / "symmetric_pair.json")]
    for grid in ("2:6", "6:2:4", "2:6:0", "a:b:c"):
        code, _, err = run_cli(base[:3] + ["--grid", grid] + base[3:], capsys)
        assert code == 2, grid
        assert "error:" in err
    for grid in ("6:2:4", "2:2:3"):
        code, _, err = run_cli(base[:3] + ["--grid", grid] + base[3:], capsys)
        assert (code, err) == (2, "error: the sweep grid must be strictly increasing\n")
    for grid in ("2:inf:2", "nan:6:3", "2:-inf:1", "-1e308:1e308:3"):
        code, _, err = run_cli(base[:3] + [f"--grid={grid}"] + base[3:], capsys)
        assert code == 2, grid
        assert err == (f"error: malformed --grid value {grid!r}: "
                       f"A, B and B - A must be finite\n")


def test_spe_past_the_enumeration_cap_points_at_the_iterative_mode(tmp_path, capsys):
    path = tmp_path / "thirteen.json"
    save_scenario(random_scenario(np.random.default_rng(0), n=13), path)
    code, _, err = run_cli(["spe", str(path)], capsys)
    assert code == 2
    assert err == ("error: enumeration over 13 athletes needs 2^13 subset solves; "
                   "use mode 'iterative' or iterate_continuation_operator\n")
    code, _, _ = run_cli(["spe", "--mode", "iterative", str(path)], capsys)
    assert code == 0


@pytest.mark.parametrize("scale", [1e10, 1e20, 1e30])
def test_spe_solves_large_prize_scales(scale, tmp_path, capsys):
    payload = json.loads((SCENARIOS / "heterogeneous_triple.json").read_text())
    for athlete in payload["athletes"]:
        athlete["prize_diff"] *= scale
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(payload))
    code, _, err = run_cli(["spe", str(path)], capsys)
    assert code == 0, err


def test_out_of_range_file_values_are_usage_errors(tmp_path, capsys):
    """A long integer literal, which JSON reads exactly, and a stop tolerance of 1, with
    which ``welfare`` and ``sweep`` printed zero efforts and exit 0: exit 2, naming the path."""
    text = json.dumps(minimal_payload())
    path = tmp_path / "bad.json"
    for bad, message in (
            (text.replace('"prize_diff": 1.0', '"prize_diff": 1' + "0" * 400, 1),
             "athletes[0].prize_diff: prize_diff must be finite, got inf"),
            (text[:-1] + ', "solver": {"abs_tol": 1.0}}',
             "solver.abs_tol: abs_tol must be below 1, got 1.0")):
        path.write_text(bad)
        for argv in (["welfare"], ["sweep", "--param", "m", "--grid", "2,3"]):
            code, out, err = run_cli(argv + [str(path)], capsys)
            assert (code, out, err) == (2, "", f"error: {message}\n"), argv


def test_degenerate_effective_prize_is_a_usage_error(tmp_path, capsys):
    """``prize_diff * weight^2`` underflows to zero: a domain error, exit 2."""
    payload = minimal_payload()
    payload["athletes"][1].update(prize_diff=1e-200, weight=1e-100)
    path = tmp_path / "underflow.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(["solve", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err == ("error: effective prize delta*weight^2 must be a normal finite "
                   "float, got 0.0 (athlete 'bea')\n")


def test_grid_matches_numpy_linspace():
    grids = [(2.0, 6.0, 5), (0.1, 0.7, 7), (-3.5, 1e-9, 11), (1.0, 1.0 + 2.0 ** -52, 5),
             (1e-300, 1e300, 9), (-1e-320, 1e-320, 1000), (0.0, 5e-324, 3),
             (0.0, 1e-323, 7), (1.0, 2.0, 2), (7.0, 9.0, 1)]
    rng = np.random.default_rng(404)
    for _ in range(2000):
        lo = float(rng.uniform(-1e3, 1e3)) * 10.0 ** int(rng.integers(-30, 30))
        hi = lo + float(rng.uniform(0.0, 1e3)) * 10.0 ** int(rng.integers(-30, 30))
        grids.append((lo, hi, int(rng.integers(2, 60))))
    for lo, hi, count in grids:
        if hi > lo:
            got = _parse_grid(f"{lo!r}:{hi!r}:{count}")
            assert got == np.linspace(lo, hi, count).tolist(), (lo, hi, count)


def test_cli_import_leaves_numpy_out():
    env = src_env()
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, tricontest.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, cwd=ROOT, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_starved_solver_is_a_solver_error(tmp_path, capsys):
    """A scenario whose iteration budget cannot reach tolerance exits 1."""
    payload = {
        "version": 1,
        "globals": {"alpha": 0.001, "beta": 0.01, "eta": 0.5},
        "athletes": [
            {"id": "ada", "t_swim": 1800.0, "r_swim": 1, "draft_share": 0.0,
             "base_cost": 1.0, "prize_diff": 1.0},
            {"id": "bea", "t_swim": 1800.0, "r_swim": 2, "draft_share": 0.0,
             "base_cost": 1.0, "prize_diff": 2.0},
            {"id": "cal", "t_swim": 1800.0, "r_swim": 3, "draft_share": 0.0,
             "base_cost": 2.0, "prize_diff": 1.0},
        ],
        "solver": {"max_iter": 2},
    }
    path = tmp_path / "starved.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(["solve", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert "error:" in err


# ---------------------------------------------------------------------------
# Determinism and file output
# ---------------------------------------------------------------------------


def test_repeated_runs_are_byte_identical(capsys):
    argv = ["solve", str(SCENARIOS / "heterogeneous_triple.json")]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second


def test_out_flag_writes_the_file(tmp_path, capsys):
    target = tmp_path / "result.csv"
    code, out, _ = run_cli(["solve", "--output", "csv", "--out", str(target),
                            str(SCENARIOS / "symmetric_pair.json")], capsys)
    assert code == 0
    assert out == ""
    rows = list(csv.reader(io.StringIO(target.read_text())))
    assert rows[0][0] == "id"


def test_outdir_env_var_anchors_relative_paths(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TRICONTEST_OUTDIR", str(tmp_path))
    code, out, _ = run_cli(["solve", "--output", "csv", "--out",
                            "nested/result.csv",
                            str(SCENARIOS / "symmetric_pair.json")], capsys)
    assert code == 0
    assert out == ""
    assert (tmp_path / "nested" / "result.csv").exists()


def test_module_entry_point_runs():
    env = src_env()
    result = subprocess.run(
        [sys.executable, "-m", "tricontest", "solve", "--output", "csv",
         str(SCENARIOS / "symmetric_pair.json")],
        capture_output=True, text=True, cwd=ROOT, env=env)
    assert result.returncode == 0
    assert result.stdout.startswith("id,psi,k,e_star,p_star,value")


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    """Each demo prints its checked-in transcript byte for byte."""
    result = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                            capture_output=True, text=True, cwd=ROOT,
                            env=src_env(), timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == (GOLDEN / f"demo_{demo[:-3]}.txt").read_text()


def test_readme_quick_start_prints_what_it_says():
    """Each ``print`` of the README's python block shows the value in its comment.

    A comment ending in ``...`` gives a prefix of the printed line; any other
    comment gives the whole line, up to two spaces before an optional remark.
    """
    readme = (ROOT / "README.md").read_text()
    code = readme.split("```python\n", 1)[1].split("```", 1)[0]
    expected = [line.split("# ", 1)[1].split("  ")[0] for line in code.splitlines()
                if line.startswith("print(")]
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, cwd=ROOT, env=src_env(), timeout=60)
    assert result.returncode == 0, result.stderr
    printed = result.stdout.splitlines()
    assert len(printed) == len(expected) == 7
    for line, comment in zip(printed, expected):
        if comment.endswith("..."):
            assert line.startswith(comment[:-3])
        else:
            assert line == comment


# ---------------------------------------------------------------------------
# Golden outputs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("golden_name,argv", [
    ("solve_symmetric_pair.txt",
     ["solve", str(SCENARIOS / "symmetric_pair.json")]),
    ("solve_heterogeneous_triple.txt",
     ["solve", str(SCENARIOS / "heterogeneous_triple.json")]),
    ("spe_dropout_pair.txt",
     ["spe", str(SCENARIOS / "dropout_pair.json")]),
    ("solve_set_bea_ada_symmetric_pair.json",
     ["solve", "--set", "bea,ada", "--output", "tree",
      str(SCENARIOS / "symmetric_pair.json")]),
    ("cutoff_ada_heterogeneous_triple.json",
     ["cutoff", "--athlete", "ada", "--output", "tree",
      str(SCENARIOS / "heterogeneous_triple.json")]),
    ("spe_all_dropout_pair.json",
     ["spe", "--mode", "all", "--output", "tree",
      str(SCENARIOS / "dropout_pair.json")]),
    ("welfare_heterogeneous_triple.txt",
     ["welfare", str(SCENARIOS / "heterogeneous_triple.json")]),
    ("welfare_heterogeneous_triple.csv",
     ["welfare", "--output", "csv", str(SCENARIOS / "heterogeneous_triple.json")]),
    ("sweep_draft_share_full_spe_symmetric_pair.csv",
     ["sweep", "--param", "athletes.ada.draft_share", "--grid", "0:0.75:4",
      "--full-spe", str(SCENARIOS / "symmetric_pair.json")]),
    ("sweep_draft_share_full_spe_symmetric_pair.json",
     ["sweep", "--param", "athletes.ada.draft_share", "--grid", "0:0.75:4",
      "--full-spe", "--output", "tree", str(SCENARIOS / "symmetric_pair.json")]),
    ("sweep_m_symmetric_pair.txt",
     ["sweep", "--param", "m", "--grid", "2:6:5", "--output", "table",
      str(SCENARIOS / "symmetric_pair.json")]),
])
def test_golden_outputs(golden_name, argv, capsys):
    """Command output matches the checked-in transcript byte for byte."""
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out == (GOLDEN / golden_name).read_text()
