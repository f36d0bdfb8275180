"""The what-if path: pinned outputs of one study, sweep points, and per-instance memos."""

from __future__ import annotations

import dataclasses
import random
from pathlib import Path

import numpy as np

from tricontest import (
    AthleteRecord,
    ContestInstance,
    GlobalParams,
    Scenario,
    SolverSettings,
    cutoff_psi,
    sensitivity_report,
    sweep,
    total_effort_derivative,
    welfare_report,
)

from helpers import pair_scenario, random_scenario, reference_sweep

GOLDEN = Path(__file__).resolve().parent / "golden"

TARGETS = ("total", "prob", "effort")
PARAMS = ("psi", "delta", "cost")

# A valid grid for every sweepable athlete field.
ATHLETE_GRIDS = {
    "t_swim": (1700.0, 1800.0, 1900.0),
    "r_swim": (1.0, 2.0, 5.0),
    "draft_share": tuple(j / 16 for j in range(16)),
    "base_cost": (0.5, 1.0, 1.75),
    "prize_diff": (0.25, 1.0, 2.5),
    "weight": (0.5, 1.0, 2.0),
    "theta": (-1.0, 0.0, 0.75),
}

# A valid grid for every sweepable global field, and one for the field size.
GLOBAL_GRIDS = {
    "alpha": (0.0005, 0.001, 0.004),
    "beta": (0.005, 0.01, 0.03),
    "eta": (0.2, 0.5, 0.8),
}
SIZE_GRID = (2.0, 3.0, 5.0)


def study_scenario(seed: int, weighted: bool, n: int = 8) -> Scenario:
    """An n-athlete field drawn with the standard library's generator; outside
    options fall between -2% and 20% of the own prize, so the cutoffs mix verdicts."""
    rng = random.Random(seed)
    alpha, beta = 0.001, 0.01
    athletes = []
    for i in range(n):
        t_swim = rng.uniform(1700.0, 1900.0)
        prize = rng.uniform(0.5, 2.0)
        athletes.append(AthleteRecord(
            id=f"a{i}", t_swim=t_swim, r_swim=i + 1,
            draft_share=rng.uniform(0.0, 1.0), base_cost=rng.uniform(0.5, 2.0),
            prize_diff=prize, weight=rng.uniform(0.5, 2.0) if weighted else 1.0,
            theta=prize * rng.uniform(-0.02, 0.2) + alpha * t_swim + beta * (i + 1)))
    return Scenario(athletes=tuple(athletes),
                    globals=GlobalParams(alpha=alpha, beta=beta, eta=0.5))


def study(scenario: Scenario) -> list:
    """Every what-if output of one field: cutoffs, sweeps, sensitivities, welfare."""
    ids = scenario.ids
    out: list = [cutoff_psi(scenario, ids, aid) for aid in ids]
    out.append(cutoff_psi(scenario, ids[:3], ids[1]))
    for field, grid in ATHLETE_GRIDS.items():
        out += sweep(scenario, f"athletes.{ids[1]}.{field}", grid)
    out += sweep(scenario, "globals.eta", (0.2, 0.6))
    out += sweep(scenario, "m", (2.0, 3.0))
    out += sweep(scenario, f"athletes.{ids[0]}.draft_share", (0.0, 0.5), stage="full")
    instance = ContestInstance.from_scenario(scenario)
    for target in (("total", None), ("prob", ids[0]), ("effort", ids[0])):
        for aid in ids[:2]:
            for kind in PARAMS:
                out.append(sensitivity_report(instance, target, (kind, aid)))
    out += [total_effort_derivative(instance, (kind, ids[2])) for kind in PARAMS]
    out.append(welfare_report(scenario, ids))
    out.append(welfare_report(scenario, ids[2:5]))
    return out


def transcript() -> str:
    lines = []
    for label, scenario in (("unweighted", study_scenario(8, False)),
                            ("weighted", study_scenario(9, True))):
        lines.append(f"# {label}")
        lines += [repr(item) for item in study(scenario)]
    return "\n".join(lines) + "\n"


def test_whatif_outputs_match_the_golden_transcript():
    """Every cutoff, sweep record, sensitivity report and welfare report, byte for byte."""
    assert transcript() == (GOLDEN / "whatif_n8.txt").read_text()


# ---------------------------------------------------------------------------
# Sweep points
# ---------------------------------------------------------------------------


def test_contest_sweeps_match_a_rebuilt_scenario_for_every_athlete_field():
    """Each point of a contest-stage sweep equals a scenario rebuilt with that value."""
    rng = np.random.default_rng(1717)
    scenarios = [study_scenario(8, False), study_scenario(9, True),
                 dataclasses.replace(random_scenario(rng, n=5),
                                     settings=SolverSettings(abs_tol=1e-10, max_iter=60))]
    scenarios += [random_scenario(rng) for _ in range(6)]
    for scenario in scenarios:
        for aid in (scenario.ids[0], scenario.ids[-1]):
            for field, grid in ATHLETE_GRIDS.items():
                param = f"athletes.{aid}.{field}"
                assert sweep(scenario, param, grid) == reference_sweep(scenario, param, grid), \
                    param


def test_sweeps_match_a_rebuilt_scenario_for_every_parameter_on_both_stages():
    """Athlete fields, global fields and the field size, with and without the entry stage."""
    rng = np.random.default_rng(1818)
    for scenario in [pair_scenario()] + [random_scenario(rng) for _ in range(20)]:
        aid = scenario.ids[-1]
        grids = {f"athletes.{aid}.{field}": grid for field, grid in ATHLETE_GRIDS.items()}
        grids.update((f"globals.{field}", grid) for field, grid in GLOBAL_GRIDS.items())
        grids["m"] = SIZE_GRID
        for param, grid in grids.items():
            for stage in ("contest", "full"):
                assert (sweep(scenario, param, grid, stage)
                        == reference_sweep(scenario, param, grid, stage)), (param, stage)


def test_a_field_size_point_builds_no_records(monkeypatch):
    """A sweep of ``m`` repeats the first athlete's input columns; it makes no record."""
    built = []
    check = AthleteRecord.__post_init__
    monkeypatch.setattr(AthleteRecord, "__post_init__",
                        lambda record: (built.append(record.id), check(record)))
    scenario = pair_scenario()
    built.clear()
    (record,) = sweep(scenario, "m", [100_000.0])
    assert built == []
    assert len(record.efforts) == 100_000
    assert list(record.efforts)[::49_999] == ["ada1", "ada50000", "ada99999"]


# ---------------------------------------------------------------------------
# Per-instance memos and per-call solves
# ---------------------------------------------------------------------------


def test_sensitivity_reports_on_one_instance_equal_reports_on_fresh_instances():
    """Shuffled, repeated and under two settings, the memo never changes a report."""
    scenario = study_scenario(9, True)
    ids = scenario.ids
    loose = SolverSettings(abs_tol=1e-9, max_iter=80)
    local = {settings: dataclasses.replace(scenario, settings=settings)
             for settings in (None, loose)}
    instances = {settings: ContestInstance.from_scenario(local[settings])
                 for settings in (None, loose)}
    cases = [(target, (kind, aid), settings)
             for target in (("total", None), ("prob", ids[1]), ("effort", ids[0]))
             for kind in PARAMS for aid in ids[:3] for settings in (None, loose)]
    order = cases * 2
    random.Random(4).shuffle(order)
    for target, param, settings in order:
        instance = instances[settings]
        fresh = ContestInstance.from_scenario(local[settings])
        assert (sensitivity_report(instance, target, param)
                == sensitivity_report(fresh, target, param)), (target, param)
        assert (total_effort_derivative(instance, param)
                == total_effort_derivative(ContestInstance.from_scenario(local[settings]), param))
    # One root per instance plus at most one re-solve per kind, member and side.
    assert [instance.settings for instance in instances.values()] == [SolverSettings(), loose]
    assert all(len(vars(instance)["_solves"]) <= 1 + 6 * instance.m
               for instance in instances.values())


def test_scenario_keeps_input_columns_only_and_instances_are_fresh():
    scenario = study_scenario(8, False)
    ids = scenario.ids
    first = ContestInstance.from_scenario(scenario)
    assert first is not ContestInstance.from_scenario(scenario)
    sensitivity_report(first, ("total", None), ("psi", ids[0]))
    assert "_solves" not in vars(ContestInstance.from_scenario(scenario))
    for aid in ids:
        cutoff_psi(scenario, ids, aid)
    sweep(scenario, f"athletes.{ids[0]}.draft_share", ATHLETE_GRIDS["draft_share"])
    welfare_report(scenario, ids)
    welfare_report(scenario, ids[:3])
    fields = {f.name for f in dataclasses.fields(Scenario)}
    assert set(vars(scenario)) == fields | {"_columns"}
    columns = vars(scenario)["_columns"]
    assert len(columns) == 6
    assert all(isinstance(column, tuple) and len(column) == len(ids) for column in columns)
    assert columns[0] == ids
    assert all(type(value) is float for column in columns[1:] for value in column)


if __name__ == "__main__":
    # Regenerate the golden: PYTHONPATH=src python tests/test_whatif.py > tests/golden/whatif_n8.txt
    print(transcript(), end="")
