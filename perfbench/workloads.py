"""The four benchmark workloads, driven through the package's public API.

Each workload is a function ``run(seed, size, mark)`` that builds its
inputs from ``seed``, calls ``mark()`` exactly once at the start of its
measured phase (everything before it is set-up), and returns a
:class:`Outcome`: the deterministic, simulation-side result rows that
the digest is taken over, plus the operation counts behind
``items_per_s`` and ``failed_frac``.

Why these four (recorded in ``ledger.json`` too):

* ``kmeans-fig6`` — the paper's Figure 6 application: real NumPy
  K-Means inside Compute-Units, half of it repeating identical work
  (RP and RP-YARN compute the same partial sums).
* ``cu-bag`` — the per-unit path (coordination DB, Unit-Manager, agent
  scheduler/executor, YARN's two-step AM -> container allocation) with
  no payload math.
* ``task-stream`` — one bulk stream through the raptor overlay: bound
  by the event kernel and the data-plane pipes, barely touching the DB.
* ``service-mt`` — the multi-tenant service: many small fair-share
  batches into raptor, plus an admission-overloaded tenant set.

Nothing here reads the host clock: timing belongs to ``worker.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List

#: ``--seed`` is folded onto this many distinct input seeds, so every
#: seed a run may be given has a recorded digest in ``digests.json``.
INPUT_SEEDS = 8

#: Workload sizes.  ``full`` is what the benchmark measures; ``toy`` is
#: the same code path at a size the self-test runs in seconds.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "kmeans-fig6": {"cells": 8},
        "cu-bag": {"fork_nodes": 16, "fork_units": 10_000,
                   "yarn_nodes": 16, "yarn_units": 1_000},
        "task-stream": {"tasks": 100_000, "per_unit_sample": 256},
        "service-mt": {"tenants": 64, "sessions_per_tenant": 160,
                       "overload_tenants": 16,
                       "overload_sessions_per_tenant": 200},
    },
    "toy": {
        "kmeans-fig6": {"cells": 1},
        "cu-bag": {"fork_nodes": 2, "fork_units": 200,
                   "yarn_nodes": 2, "yarn_units": 20},
        "task-stream": {"tasks": 2_000, "per_unit_sample": 16},
        "service-mt": {"tenants": 4, "sessions_per_tenant": 8,
                       "overload_tenants": 2,
                       "overload_sessions_per_tenant": 40},
    },
}


def input_seed(seed: int) -> int:
    """The simulation seed a benchmark ``--seed`` selects."""
    return seed % INPUT_SEEDS


@dataclass
class Outcome:
    """What one pass of a workload produced.

    ``attempted`` operations = ``completed`` + ``failed`` + ``refused``.
    ``refused`` are deterministic admission refusals (only the
    overloaded service set has any); ``failed`` are operations that
    should have succeeded and did not.
    """

    rows: Any
    items: int
    attempted: int
    failed: int
    refused: int = 0

    def digest(self) -> str:
        """sha256 of the canonical JSON of the result rows."""
        text = json.dumps(self.rows, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


@contextlib.contextmanager
def mark_on_first_call(owner: type, name: str,
                       mark: Callable[[], None]) -> Iterator[None]:
    """Call ``mark()`` just before the first call of ``owner.name``.

    Places the set-up/measurement boundary inside library functions
    that build their own world (``run_raptor_throughput``, ``run_load``)
    without changing them.
    """
    original = owner.__dict__[name]
    fired = []

    def hooked(*args, **kwargs):
        if not fired:
            fired.append(True)
            mark()
        return original(*args, **kwargs)

    setattr(owner, name, hooked)
    try:
        yield
    finally:
        setattr(owner, name, original)


# ----------------------------------------------------------- kmeans-fig6
def run_kmeans_fig6(seed: int, size: Dict[str, Any],
                    mark: Callable[[], None]) -> Outcome:
    """The Stampede half of ``sweep figure6 --quick``, in-process."""
    from repro.experiments.sweeps import build_cells, run_sweep

    cells = [cell for cell in build_cells("figure6", root_seed=seed,
                                          quick=True)
             if cell.param("machine") == "stampede"][:size["cells"]]
    mark()
    run = run_sweep("figure6", root_seed=seed, jobs=1, cells=cells)
    rows = run.aggregate()
    bad = sum(1 for cell in rows["cells"] for row in cell["rows"]
              if not row["centroids_ok"])
    return Outcome(rows=rows, items=len(cells), attempted=len(cells),
                   failed=bad)


# ---------------------------------------------------------------- cu-bag
def _raise_payload() -> None:
    raise RuntimeError("planted payload failure")


def _unit_rows(units) -> List[List[Any]]:
    return [[u.uid, u.state.value, u.pilot_uid,
             [[t, s.value] for t, s in u.history]] for u in units]


def run_cu_bag(seed: int, size: Dict[str, Any], mark: Callable[[], None],
               poison: bool = False) -> Outcome:
    """A bag of ``/bin/true`` CUs on a fork pilot, then on a YARN pilot.

    ``poison`` makes the first fork CU's payload raise, so the self-test
    can check that a failing CU is counted.
    """
    from repro.api import ComputeUnitDescription
    from repro.experiments.calibration import agent_config
    from repro.experiments.harness import Testbed

    beds = []
    for lrm, nodes in (("fork", size["fork_nodes"]),
                       ("yarn", size["yarn_nodes"])):
        testbed = Testbed("stampede", num_nodes=nodes, seed=seed)
        testbed.start_pilot(nodes=nodes, agent_config=agent_config(lrm))
        beds.append(testbed)
    mark()
    true = ComputeUnitDescription(executable="/bin/true",
                                  cpu_seconds=0.05, memory_mb=1024)
    rows = []
    failed = attempted = 0
    for testbed, count in zip(beds, (size["fork_units"],
                                     size["yarn_units"]), strict=True):
        descriptions = [true] * count
        if poison and not rows:
            descriptions[0] = true.replace(function=_raise_payload)
        units = testbed.umgr.submit_units(descriptions)
        testbed.env.run(testbed.umgr.wait_units(units))
        rows.append({"now": testbed.env.now, "units": _unit_rows(units)})
        attempted += len(units)
        failed += sum(1 for u in units if u.state.value != "Done")
    return Outcome(rows=rows, items=attempted - failed,
                   attempted=attempted, failed=failed)


# ----------------------------------------------------------- task-stream
def run_task_stream(seed: int, size: Dict[str, Any],
                    mark: Callable[[], None]) -> Outcome:
    """``run_raptor_throughput`` on Stampede: one bulk task stream plus
    the function's per-unit YARN sample."""
    from dataclasses import asdict

    from repro.experiments.raptor import run_raptor_throughput
    from repro.raptor.overlay import RaptorOverlay

    with mark_on_first_call(RaptorOverlay, "submit_tasks", mark):
        row = run_raptor_throughput(
            size["tasks"], machine="stampede", seed=seed,
            per_unit_sample=size["per_unit_sample"])
    return Outcome(rows=asdict(row), items=row.tasks_completed,
                   attempted=row.ntasks, failed=row.tasks_failed)


# ------------------------------------------------------------ service-mt
def run_service_mt(seed: int, size: Dict[str, Any],
                   mark: Callable[[], None]) -> Outcome:
    """``BENCH_service``'s open-loop load (at full size), then an
    admission-overloaded set, each through one ``PilotService``."""
    from repro.service import LoadSpec, PilotService, run_load

    specs = [
        LoadSpec(tenants=size["tenants"],
                 sessions_per_tenant=size["sessions_per_tenant"],
                 tasks_per_session=2, arrival_window=2.0,
                 task_seconds=5.0, raptor_workers=31, seed=seed),
        LoadSpec(tenants=size["overload_tenants"],
                 sessions_per_tenant=size["overload_sessions_per_tenant"],
                 raptor_workers=8, tick_interval=2.0, max_pending=8,
                 seed=seed),
    ]
    with mark_on_first_call(PilotService, "attach_overlay", mark):
        rows = [run_load(spec) for spec in specs]
    sessions = sum(r["sessions_opened"] for r in rows)
    refused = sum(r["tickets_rejected"] for r in rows)
    attempted = sum(r["tickets_submitted"] for r in rows) + refused
    return Outcome(rows=rows, items=sessions, attempted=attempted,
                   failed=sum(r["tickets_failed"] for r in rows),
                   refused=refused)


WORKLOADS: Dict[str, Callable[..., Outcome]] = {
    "kmeans-fig6": run_kmeans_fig6,
    "cu-bag": run_cu_bag,
    "task-stream": run_task_stream,
    "service-mt": run_service_mt,
}
