"""Experiment harnesses: one module per paper figure + ablations.

Every experiment is a sweep grid (:mod:`~repro.experiments.sweeps`):
a flat list of independent cells, each with a seed derived from the
root seed and the cell's identity.  One cell builds a fresh simulated
testbed (machine template, batch system, session), runs the paper's
measurement procedure and returns flat row dicts.  The figure verbs
(``python -m repro figure5`` etc.) and ``python -m repro sweep`` run
the same grids, so a verb's table and a sweep's aggregate always agree.

* :mod:`~repro.experiments.calibration` — every tunable constant, with
  the paper statement each one is calibrated against.
* :mod:`~repro.experiments.figure5` — Pilot startup (main) and
  Compute-Unit startup (inset) for RP / RP-YARN Mode I / Mode II on
  Stampede and Wrangler.
* :mod:`~repro.experiments.figure6` — K-Means time-to-completion over
  the three scenarios x three task counts x two machines x two
  runtimes.
* :mod:`~repro.experiments.ablations` — A1 integration level, A2 Spark
  deployment mode, A3 AM re-use.
* :mod:`~repro.experiments.sensitivity` — S1, the RP vs RP-YARN
  crossover over the job-visible Lustre bandwidth.
* :mod:`~repro.experiments.chaos`, :mod:`~repro.experiments.raptor`,
  :mod:`~repro.experiments.service` — fault injection, the task
  overlay and the multi-tenant service.
* :mod:`~repro.experiments.tables` — the paper-vs-measured reports.
"""

from repro.experiments.calibration import (
    CALIBRATED_AGENT,
    CALIBRATED_KMEANS_COST,
    CALIBRATED_RMS,
    CALIBRATED_YARN,
    SCENARIOS,
    TASK_CONFIGS,
)
from repro.experiments.figure6 import run_figure6_cell

__all__ = [
    "CALIBRATED_AGENT",
    "CALIBRATED_KMEANS_COST",
    "CALIBRATED_RMS",
    "CALIBRATED_YARN",
    "SCENARIOS",
    "TASK_CONFIGS",
    "run_figure6_cell",
]
