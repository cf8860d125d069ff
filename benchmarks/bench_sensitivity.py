"""Sensitivity sweep: the RP vs RP-YARN crossover vs Lustre quality.

Regenerates the decision boundary behind Figure 6: on a machine whose
shared filesystem delivers little job-visible bandwidth (Stampede-like
under load), RP-YARN's local-disk I/O wins despite its per-unit YARN
overheads; as the shared filesystem improves, plain RP overtakes —
locating the crossover answers the discussion-section question of when
the hybrid deployment is worth it.
"""

import pytest

from repro.experiments.sensitivity import crossover_bandwidth, pair_rows
from repro.experiments.sweeps import run_sweep, sensitivity_cells
from repro.experiments.tables import format_table


def _sensitivity_rows():
    cells = sensitivity_cells(bandwidths_mb=[10, 30, 100, 400])
    return pair_rows(run_sweep("sensitivity", jobs=1, cells=cells).rows())


@pytest.mark.figure("S1")
def test_lustre_bandwidth_sweep(benchmark):
    rows = benchmark.pedantic(_sensitivity_rows, rounds=1, iterations=1)
    # advantage decreases monotonically as the shared FS improves
    advantages = [r.yarn_advantage for r in
                  sorted(rows, key=lambda r: r.lustre_bw)]
    assert all(b <= a + 0.02 for a, b in zip(advantages, advantages[1:], strict=False))
    # YARN wins on the degraded end, loses on the fat end
    assert advantages[0] > 0.10
    assert advantages[-1] < 0.0
    crossover = crossover_bandwidth(rows)
    assert crossover is not None
    for row in rows:
        benchmark.extra_info[f"{row.lustre_bw / 1e6:.0f}MBps"] = round(
            row.yarn_advantage * 100, 1)
    print("\nS1 — YARN advantage vs job-visible Lustre bandwidth "
          "(1M pts / 50 clusters / 32 tasks, Stampede)\n" + format_table(
              ["lustre share (MB/s)", "RP (s)", "RP-YARN (s)",
               "YARN advantage (%)"],
              [(f"{r.lustre_bw / 1e6:.0f}", r.rp_runtime, r.yarn_runtime,
                r.yarn_advantage * 100)
               for r in sorted(rows, key=lambda r: r.lustre_bw)])
          + f"\ncrossover at ~{crossover / 1e6:.0f} MB/s")
