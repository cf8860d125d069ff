"""Ablations A1-A3: quantifying the paper's design choices."""

import pytest

from repro.experiments.ablations import (
    AmReuseRow,
    IntegrationLevelRow,
    SparkDeployRow,
)
from repro.experiments.sweeps import ablations_cells, run_sweep
from repro.experiments.tables import format_table


def _ablation_rows(kind, row_class):
    """Run one cell of the ``ablations`` grid; its rows, rebuilt."""
    cells = [c for c in ablations_cells() if c.kind == kind]
    return [row_class(**r)
            for r in run_sweep("ablations", jobs=1, cells=cells).rows()]


@pytest.mark.figure("A1")
def test_integration_level(benchmark):
    """Agent-level YARN integration (chosen) vs Pilot-Manager-level."""
    rows = benchmark.pedantic(
        _ablation_rows, args=("integration-level", IntegrationLevelRow),
        rounds=1, iterations=1)
    by = {r.wiring: r for r in rows}
    # the rejected design is strictly slower per unit, before even
    # considering that firewalls usually forbid it outright
    assert (by["pilot-manager-level"].unit_startup
            > by["agent-level"].unit_startup + 2.0)
    for r in rows:
        benchmark.extra_info[r.wiring] = round(r.unit_startup, 1)
    print("\nA1 — YARN integration level (CU startup)\n" + format_table(
        ["wiring", "CU startup (s)", "WAN round-trips"],
        [(r.wiring, r.unit_startup, r.wan_roundtrips) for r in rows]))


@pytest.mark.figure("A2")
def test_spark_deploy_mode(benchmark):
    """Spark standalone (chosen) vs Spark-on-YARN (two frameworks)."""
    rows = benchmark.pedantic(
        _ablation_rows, args=("spark-deploy-mode", SparkDeployRow),
        rounds=1, iterations=1)
    by = {r.mode: r for r in rows}
    assert by["standalone"].cluster_ready < by["spark-on-yarn"].cluster_ready
    assert by["spark-on-yarn"].frameworks_started == 2
    for r in rows:
        benchmark.extra_info[r.mode] = round(r.cluster_ready, 1)
    print("\nA2 — Spark deployment mode (cluster-ready time)\n"
          + format_table(
              ["mode", "cluster ready (s)", "frameworks"],
              [(r.mode, r.cluster_ready, r.frameworks_started)
               for r in rows]))


@pytest.mark.figure("A3-workload")
def test_am_reuse_on_kmeans_workload(benchmark):
    """A3 on the real workload: re-running two Figure 6 cells with AM
    re-use enabled shows how far the paper's proposed optimization
    moves the YARN advantage (EXPERIMENTS.md divergence #1)."""
    from repro.experiments.figure6 import run_figure6_cell

    def run():
        out = {}
        for points, clusters, ntasks in ((10_000, 5_000, 32),
                                         (1_000_000, 50, 32)):
            rp = run_figure6_cell("stampede", "RP", points, clusters,
                                  ntasks)
            yarn = run_figure6_cell("stampede", "RP-YARN", points,
                                    clusters, ntasks)
            reuse = run_figure6_cell("stampede", "RP-YARN", points,
                                     clusters, ntasks,
                                     reuse_application_master=True)
            assert rp.centroids_ok and yarn.centroids_ok \
                and reuse.centroids_ok
            out[points] = (rp.runtime, yarn.runtime, reuse.runtime)
        return out

    spans = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for points, (rp, yarn, reuse) in sorted(spans.items()):
        # AM re-use strictly improves the YARN runtime
        assert reuse < yarn
        rows.append((f"{points:,}", rp, yarn, reuse,
                     (rp - reuse) / rp * 100))
        benchmark.extra_info[f"{points}pts"] = round(reuse, 1)
    print("\nA3 on Figure 6 cells (Stampede, 32 tasks): runtime (s)\n"
          + format_table(
              ["points", "RP", "RP-YARN", "RP-YARN + AM re-use",
               "reuse advantage vs RP (%)"], rows))


@pytest.mark.figure("A3")
def test_am_reuse(benchmark):
    """AM re-use: the optimization §IV-A says "will reduce the startup
    time significantly" — implemented and measured."""
    rows = benchmark.pedantic(
        _ablation_rows, args=("am-reuse", AmReuseRow),
        rounds=1, iterations=1)
    by = {r.mode: r for r in rows}
    saving = (by["per-unit AM"].warm_unit_startup
              - by["re-used AM"].warm_unit_startup)
    assert saving > 5.0, f"AM re-use saved only {saving:.1f}s"
    for r in rows:
        benchmark.extra_info[r.mode] = round(r.warm_unit_startup, 1)
    benchmark.extra_info["saving_s"] = round(saving, 1)
    print("\nA3 — Application Master re-use (warm CU startup)\n"
          + format_table(
              ["mode", "warm CU startup (s)"],
              [(r.mode, r.warm_unit_startup) for r in rows])
          + f"\nsaving: {saving:.1f}s per unit")
