"""Sensitivity analysis: where the RP vs RP-YARN crossover falls.

The paper's Figure 6 outcome hinges on the balance between the shared
filesystem's job-visible bandwidth (hurting plain RP at scale) and
YARN's fixed per-unit overheads.  This sweep varies the Lustre share
on the Stampede template and reruns the paper's most I/O-sensitive
cell (1M points / 50 clusters / 32 tasks), locating the bandwidth at
which the YARN advantage crosses zero — the "which runtime should I
use on this machine?" answer the paper's discussion asks for.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

import numpy as np

from repro.analytics.kmeans import run_kmeans_pilot
from repro.cluster.machine import stampede
from repro.cluster.storage import StorageSpec
from repro.experiments.calibration import (
    CALIBRATED_KMEANS_COST,
    agent_config,
)
from repro.experiments.harness import Testbed


@dataclass
class SensitivityRow:
    lustre_bw: float          # bytes/s (job-visible share)
    rp_runtime: float
    yarn_runtime: float

    @property
    def yarn_advantage(self) -> float:
        return (self.rp_runtime - self.yarn_runtime) / self.rp_runtime


def _run_cell(lustre_bw: float, flavor: str, points: np.ndarray,
              clusters: int, ntasks: int, nodes: int) -> float:
    spec = stampede(num_nodes=nodes)
    spec = replace(spec, shared_fs=StorageSpec(
        name="lustre-sweep", aggregate_bw=lustre_bw,
        per_stream_bw=lustre_bw, latency=0.040,
        capacity=spec.shared_fs.capacity))
    testbed = Testbed("stampede", num_nodes=nodes, spec=spec)
    lrm = "yarn" if flavor == "RP-YARN" else "fork"
    pilot, _, _ = testbed.start_pilot(nodes=nodes,
                                      agent_config=agent_config(lrm))

    def workload():
        yield from run_kmeans_pilot(
            testbed.umgr, points, clusters, ntasks=ntasks, iterations=2,
            cost=CALIBRATED_KMEANS_COST)

    t0 = testbed.env.now
    testbed.run(workload())
    span = testbed.env.now - t0
    setup = pilot.agent_info["lrm_setup_seconds"]
    return span + (setup if flavor == "RP-YARN" else 0.0)


def pair_rows(rows: List[Dict]) -> List[SensitivityRow]:
    """Pair the per-flavor row dicts of a ``sensitivity`` sweep into
    one row per bandwidth, in increasing bandwidth order."""
    runtimes: Dict[float, Dict[str, float]] = {}
    for r in rows:
        runtimes.setdefault(r["lustre_bw"], {})[r["flavor"]] = r["runtime"]
    return [SensitivityRow(lustre_bw=bw, rp_runtime=rt["RP"],
                           yarn_runtime=rt["RP-YARN"])
            for bw, rt in sorted(runtimes.items())]


def crossover_bandwidth(rows: List[SensitivityRow]) -> Optional[float]:
    """First bandwidth (by increasing bw) where YARN stops winning."""
    for row in sorted(rows, key=lambda r: r.lustre_bw):
        if row.yarn_advantage <= 0:
            return row.lustre_bw
    return None
