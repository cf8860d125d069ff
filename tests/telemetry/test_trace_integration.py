"""End-to-end: ``trace`` runs sweep cells under telemetry.

The span/metrics/bridge checks run on ``trace figure6 --quick --cell
1``: the Stampede Mode I (RP-YARN) cell with 10k points, 5k clusters
and 8 tasks.
"""

import json

import pytest

from repro.__main__ import main
from repro.experiments.calibration import ITERATIONS
from repro.experiments.sweeps import GRIDS, build_cells, run_cell
from repro.telemetry.runner import trace_cell, write_all

NTASKS = 8


def _one_cell_per_kind():
    """The first quick cell of every (grid, kind), skipping the
    1M-point K-Means cells."""
    picked = {}
    for grid in GRIDS:
        for index, cell in enumerate(build_cells(grid, quick=True)):
            if dict(cell.params).get("points") == 1_000_000:
                continue
            picked.setdefault((grid, cell.kind), (grid, index))
    return list(picked.values())


@pytest.mark.parametrize("grid,index", _one_cell_per_kind())
def test_traced_cell_rows_equal_untraced_and_trace_loads(
        tmp_path, grid, index):
    cell = build_cells(grid, quick=True)[index]
    result, traced = trace_cell(cell)
    assert result["rows"] == run_cell(cell)["rows"]
    assert traced, "the cell built no environment"
    artifacts = write_all(traced, str(tmp_path))
    assert len({paths["trace"] for paths in artifacts}) == len(traced)
    for paths in artifacts:
        with open(paths["trace"]) as fh:
            doc = json.load(fh)
        assert {e["ph"] for e in doc["traceEvents"]} <= {"X", "M", "i"}


def test_multi_environment_cell_writes_one_set_per_environment(tmp_path):
    """``service/sharded`` builds two environments; neither overwrites
    the other's artifacts."""
    index = next(i for i, c in enumerate(build_cells("service", quick=True))
                 if c.kind == "sharded")
    assert main(["trace", "service", "--quick", "--cell", str(index),
                 "--output", str(tmp_path)]) == 0
    assert not (tmp_path / "trace.json").exists()
    for sub in ("env0", "env1"):
        for name in ("trace.json", "spans.jsonl", "events.jsonl",
                     "metrics.jsonl"):
            assert (tmp_path / sub / name).exists()


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("trace")
    cell = build_cells("figure6", quick=True)[1]
    assert dict(cell.params) == {"clusters": 5_000, "flavor": "RP-YARN",
                                 "machine": "stampede", "ntasks": NTASKS,
                                 "points": 10_000}
    result, envs = trace_cell(cell)
    assert len(envs) == 1
    write_all(envs, str(out))
    return result, envs[0], out


def test_run_validates_and_writes_artifacts(traced):
    result, _, out = traced
    (row,) = result["rows"]
    assert row["centroids_ok"]
    assert row["nodes"] == 1 and row["lrm_setup"] > 0  # Mode I setup paid
    for name in ("trace.json", "spans.jsonl", "events.jsonl",
                 "metrics.jsonl"):
        assert (out / name).exists()


def test_span_hierarchy_pilot_unit_container(traced):
    _, _, out = traced
    spans = [json.loads(line)
             for line in (out / "spans.jsonl").read_text().splitlines()
             if line.strip()]
    by_id = {s["sid"]: s for s in spans}
    by_cat = {}
    for s in spans:
        by_cat.setdefault(s["cat"], []).append(s)

    # One pilot; 2 map waves + reduce per iteration = ntasks+1 units/iter.
    assert len(by_cat["pilot"]) == 1
    n_units = (NTASKS + 1) * ITERATIONS
    assert len(by_cat["unit"]) == n_units
    assert len(by_cat["container"]) == n_units

    pilot = by_cat["pilot"][0]
    for unit in by_cat["unit"]:
        assert unit["parent"] == pilot["sid"]
        assert unit["end"] is not None
        assert unit["args"]["final_state"] == "Done"
    for container in by_cat["container"]:
        parent = by_id[container["parent"]]
        assert parent["cat"] == "unit"
        # Containers live on their unit's track and within its interval.
        assert container["track"] == parent["track"]
        assert parent["start"] <= container["start"]
        assert container["end"] <= parent["end"]
    # The agent bootstrap span nests under the pilot too.
    boots = by_cat["agent"]
    assert boots and all(b["parent"] == pilot["sid"] for b in boots)
    # Every unit went through the four pipeline phases.
    phase_names = {p["name"] for p in by_cat["unit.phase"]}
    assert phase_names == {"stage_in", "schedule", "execute", "stage_out"}
    assert len(by_cat["unit.phase"]) == 4 * n_units


def test_chrome_trace_artifact_is_valid(traced):
    _, _, out = traced
    doc = json.loads((out / "trace.json").read_text())
    events = doc["traceEvents"]
    assert {e["ph"] for e in events} <= {"X", "M", "i"}
    xs = [e for e in events if e["ph"] == "X"]
    assert all(e["ts"] >= 0 and e["dur"] >= 0 and e["pid"] == 1
               for e in xs)
    cats = {e["cat"] for e in xs}
    assert {"pilot", "unit", "container"} <= cats


def test_metrics_artifact_has_required_series(traced):
    _, _, out = traced
    rows = [json.loads(line)
            for line in (out / "metrics.jsonl").read_text().splitlines()
            if line.strip()]
    names = {r["metric"] for r in rows}
    assert "agent.scheduler.queue_depth" in names
    assert "agent.allocation_latency" in names
    assert "yarn.container.allocation_latency" in names
    assert "agent.executor.occupancy" in names
    occupancy = [r for r in rows
                 if r["metric"] == "agent.executor.occupancy"]
    assert any(r["value"] > 0 for r in occupancy)
    latency = [r for r in rows
               if r["metric"] == "yarn.container.allocation_latency"]
    assert sum(r["count"] for r in latency) >= (NTASKS + 1) * ITERATIONS


def test_profiler_bridge_feeds_phase_means(traced):
    from repro.core import profiler
    _, (_, bridge), _ = traced
    units = bridge.units()
    phase_means = profiler.phase_means(units)
    assert set(phase_means) == {"queue", "stage_in", "schedule",
                                "execute", "stage_out"}
    assert all(v is not None for v in phase_means.values())
    assert profiler.peak_concurrency(units) >= 1


def test_trace_cli_smoke(tmp_path, capsys):
    out = tmp_path / "cli"
    code = main(["trace", "figure6", "--quick", "--cell", "0",
                 "--output", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "figure6/kmeans(" in text and "centroids_ok=True" in text
    assert "environment 0: horizon" in text
    assert (out / "trace.json").exists()
    doc = json.loads((out / "trace.json").read_text())
    assert any(e.get("cat") == "unit" for e in doc["traceEvents"])


def test_trace_without_cell_lists_the_grid(capsys):
    assert main(["trace", "chaos", "--quick"]) == 0
    out = capsys.readouterr().out
    for index, cell in enumerate(build_cells("chaos", quick=True)):
        assert f"{index:>3}  {cell.key}" in out


def test_failed_validation_exits_one(monkeypatch):
    from repro.experiments import figure6
    original = figure6.run_figure6_cell

    def broken(**kwargs):
        row = original(**kwargs)
        row.centroids_ok = False
        return row

    monkeypatch.setattr(figure6, "run_figure6_cell", broken)
    assert main(["trace", "figure6", "--quick", "--cell", "0"]) == 1
