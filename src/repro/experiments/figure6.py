"""Figure 6: K-Means time-to-completion on Stampede and Wrangler.

Grid: 3 scenarios (10k pts/5k clusters, 100k/500, 1M/50; 3-D; 2
iterations) x task counts {8: 1 node, 16: 2, 32: 3} x machines
{Stampede, Wrangler} x runtimes {RADICAL-Pilot, RADICAL-Pilot-YARN}.

Measurement, following §IV-B: time-to-completion of the K-Means run;
"for RADICAL-Pilot-YARN the runtimes include the time required to
download and start the YARN cluster on the allocated resources" — so
the YARN rows add the Mode I LRM setup to the workload span.

K-Means executes for real (NumPy partial sums per unit); the returned
centroids are asserted against the single-process reference, so every
benchmark run re-validates numerical correctness alongside timing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analytics import generate_points, kmeans_reference
from repro.analytics.kmeans import run_kmeans_pilot
from repro.cluster.machine import MachineSpec
from repro.experiments.calibration import (
    CALIBRATED_KMEANS_COST,
    DIM,
    ITERATIONS,
    SCENARIOS,
    TASK_CONFIGS,
    agent_config,
)
from repro.experiments.harness import Testbed


@dataclass
class KMeansRow:
    """One bar of Figure 6."""

    machine: str
    flavor: str                 # "RP" | "RP-YARN"
    points: int
    clusters: int
    ntasks: int
    nodes: int
    runtime: float              # seconds, incl. YARN setup for RP-YARN
    lrm_setup: float
    centroids_ok: bool


_POINTS_CACHE: Dict[Tuple[int, int], np.ndarray] = {}


def _points_for(points: int, clusters: int) -> np.ndarray:
    key = (points, clusters)
    if key not in _POINTS_CACHE:
        _POINTS_CACHE[key] = generate_points(points, clusters, dim=DIM,
                                             seed=1234)
    return _POINTS_CACHE[key]


def run_figure6_cell(machine: str, flavor: str, points: int,
                     clusters: int, ntasks: int, seed: int = 42,
                     spec: Optional[MachineSpec] = None,
                     reuse_application_master: bool = False) -> KMeansRow:
    """Run one (machine, runtime, scenario, task-count) cell.

    ``spec`` replaces the machine template (see :class:`Testbed`), for
    the sensitivity grid's varied Lustre share.
    ``reuse_application_master=True`` measures the paper's proposed
    optimization on the real workload.
    """
    nodes = TASK_CONFIGS[ntasks]
    lrm = "yarn" if flavor == "RP-YARN" else "fork"
    testbed = Testbed(machine, num_nodes=nodes, seed=seed, spec=spec)
    pilot, _, t_active = testbed.start_pilot(
        nodes=nodes, agent_config=agent_config(
            lrm, reuse_application_master=reuse_application_master))

    data = _points_for(points, clusters)
    holder: Dict[str, object] = {}

    def workload():
        centroids, units = yield from run_kmeans_pilot(
            testbed.umgr, data, clusters, ntasks=ntasks,
            iterations=ITERATIONS, cost=CALIBRATED_KMEANS_COST)
        holder["centroids"] = centroids

    t0 = testbed.env.now
    testbed.run(workload())
    span = testbed.env.now - t0

    lrm_setup = pilot.agent_info["lrm_setup_seconds"]
    runtime = span + (lrm_setup if flavor == "RP-YARN" else 0.0)

    expected = kmeans_reference(data, clusters, iterations=ITERATIONS)
    ok = np.allclose(holder["centroids"], expected)
    return KMeansRow(machine=machine, flavor=flavor, points=points,
                     clusters=clusters, ntasks=ntasks, nodes=nodes,
                     runtime=runtime, lrm_setup=lrm_setup,
                     centroids_ok=ok)


# ------------------------------------------------------- derived metrics
def speedup(rows: List[KMeansRow], machine: str, flavor: str,
            points: int, base_tasks: int = 8,
            top_tasks: int = 32) -> float:
    """Speedup of top_tasks over base_tasks for one scenario/flavor."""
    sel = {r.ntasks: r for r in rows
           if r.machine == machine and r.flavor == flavor
           and r.points == points}
    return sel[base_tasks].runtime / sel[top_tasks].runtime


def yarn_advantage(rows: List[KMeansRow], min_tasks: int = 16) -> float:
    """Mean relative runtime reduction of RP-YARN vs RP (>= min_tasks).

    The paper: "In particular for larger number of tasks, we observed
    on average 13% shorter runtimes for RADICAL-Pilot-YARN."
    """
    pairs = []
    for r in rows:
        if r.flavor != "RP" or r.ntasks < min_tasks:
            continue
        twin = next((y for y in rows if y.flavor == "RP-YARN"
                     and y.machine == r.machine and y.points == r.points
                     and y.ntasks == r.ntasks), None)
        if twin is not None:
            pairs.append((r.runtime, twin.runtime))
    if not pairs:
        return 0.0
    return float(np.mean([(rp - ry) / rp for rp, ry in pairs]))
