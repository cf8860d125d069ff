"""Toy-size self-test of the benchmark.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc, result


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc, result = bench("--workload", workload, "--seed", "5",
                         "--seconds", "1", "--trace", trace,
                         "--size", "toy")
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    specs = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in specs}
    for m in specs:
        assert f"{m['name']} " in proc.stdout      # printed by name
    assert "failed_frac" in proc.stdout


def test_trace_attributes_layers_to_their_workloads():
    _, kmeans = bench("--workload", "kmeans-fig6", "--seed", "1",
                      "--seconds", "1", "--trace", "1", "--size", "toy")
    _, bag = bench("--workload", "cu-bag", "--seed", "1",
                   "--seconds", "1", "--trace", "1", "--size", "toy")
    k = {name: m["value"] for name, m in kmeans["metrics"].items()}
    b = {name: m["value"] for name, m in bag["metrics"].items()}
    assert k["analytics.kmeans.payload_calls"] > 0
    assert b["analytics.kmeans.payload_calls"] == 0
    assert b["service.tickets"] == 0
    assert b["core.unit_manager.units"] == 220
    assert b["yarn.apps"] > 0 and b["core.db.ops"] > 0


def test_planted_failing_payload_counts_as_failed():
    import worker
    record = worker.run_pass("cu-bag", 2, "toy", "plain",
                             time.perf_counter(), poison=True)
    assert record["failed"] == 1
    assert run.failed_frac([record]) > 0
    clean = worker.run_pass("cu-bag", 2, "toy", "plain",
                            time.perf_counter())
    assert clean["failed"] == 0 and run.failed_frac([clean]) == 0


def copy_benchmark(dest: Path, with_sources: bool) -> Path:
    """Copy BENCHMARK.json and the benchmark's files (and, if asked, the
    program sources) to ``dest``; return the copy's ``run.py``."""
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    trees = [*SPEC["paths"], *(["src"] if with_sources else [])]
    for path in trees:
        shutil.copytree(ROOT / path, dest / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    return dest / "perfbench" / "run.py"


def test_tampered_digest_fails_the_run(tmp_path):
    script = copy_benchmark(tmp_path, with_sources=True)
    digests = tmp_path / "perfbench" / "digests.json"
    table = json.loads(digests.read_text())
    table["toy"]["service-mt"][str(workloads.input_seed(4))] = "0" * 64
    digests.write_text(json.dumps(table))
    proc, result = bench("--workload", "service-mt", "--seed", "4",
                         "--seconds", "1", "--size", "toy",
                         cwd=tmp_path, script=script)
    assert proc.returncode != 0
    assert result["correct"] is False
    assert "MISMATCH" in proc.stdout


def test_same_seed_gives_same_digest_traced_or_not():
    plain = [run.run_pass("task-stream", 6, "toy") for _ in range(2)]
    traced = run.run_pass("task-stream", 6, "toy", "traced")
    digests = {p["digest"] for p in (*plain, traced)}
    assert len(digests) == 1
    assert digests == {run.expected_digest("toy", "task-stream", 6)}


def test_fails_without_the_program_sources(tmp_path):
    script = copy_benchmark(tmp_path, with_sources=False)
    proc, result = bench("--workload", "cu-bag", "--seed", "1",
                         "--seconds", "1", cwd=tmp_path, script=script)
    assert proc.returncode != 0
    assert result is None
