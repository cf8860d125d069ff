"""Declarative experiment sweeps with a process-pool runner.

The paper's evaluation is a grid of *independent* simulated cells —
machine x flavor x scenario x task-count x seed.  This module expresses
each figure's grid as a flat cell list and fans the cells out over a
``concurrent.futures.ProcessPoolExecutor``:

* every cell carries a deterministic seed derived from the root seed
  and the cell's identity (not its position), so subsetting or
  reordering a grid never shifts another cell's randomness;
* results are aggregated in declaration order regardless of worker
  completion order, so ``--jobs N`` produces row-for-row (and after
  canonical JSON serialization, byte-for-byte) identical aggregates to
  the sequential ``--jobs 1`` reference path;
* per-cell and total wall-clock timings are captured separately from
  the scientific rows, so timing jitter never contaminates the
  deterministic output.

Used by ``python -m repro sweep`` and the determinism regression tests.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass, field, is_dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

GRIDS = ("figure5", "figure6", "ablations", "sensitivity", "chaos",
         "raptor", "service")


@dataclass(frozen=True)
class SweepCell:
    """One independent unit of a sweep: a kind tag plus its parameters.

    ``params`` is a sorted tuple of (name, value) pairs so cells are
    hashable, picklable, and have a stable string identity.
    """

    grid: str
    kind: str
    params: Tuple[Tuple[str, Any], ...]
    seed: int

    @property
    def key(self) -> str:
        """Stable identity: grid/kind plus the sorted parameters."""
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.grid}/{self.kind}({inner})"

    def param(self, name: str) -> Any:
        return dict(self.params)[name]


def cell_seed(root_seed: int, key: str) -> int:
    """Deterministic per-cell seed from the root seed + cell identity.

    Uses sha256 (not ``hash()``) so the value is stable across
    processes and PYTHONHASHSEED settings.
    """
    digest = hashlib.sha256(f"{root_seed}:{key}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _cell(grid: str, kind: str, root_seed: int,
          **params: Any) -> SweepCell:
    ordered = tuple(sorted(params.items()))
    inner = ",".join(f"{k}={v}" for k, v in ordered)
    key = f"{grid}/{kind}({inner})"
    return SweepCell(grid=grid, kind=kind, params=ordered,
                     seed=cell_seed(root_seed, key))


# ------------------------------------------------------------ grid builders
def figure5_cells(root_seed: int = 42) -> List[SweepCell]:
    """Both Figure 5 panels: one cell per bar."""
    from repro.experiments.figure5 import PILOT_CASES, UNIT_CASES
    cells = [
        _cell("figure5", "pilot-startup", root_seed, machine=machine,
              flavor=flavor, lrm=lrm, provision=provision)
        for machine, flavor, lrm, provision in PILOT_CASES
    ]
    cells += [
        _cell("figure5", "unit-startup", root_seed, machine=machine,
              flavor=flavor, lrm=lrm)
        for machine, flavor, lrm in UNIT_CASES
    ]
    return cells


def figure6_cells(root_seed: int = 42,
                  quick: bool = False) -> List[SweepCell]:
    """The Figure 6 K-Means grid (36 cells; 16 with ``quick``)."""
    from repro.experiments.calibration import SCENARIOS, TASK_CONFIGS
    scenarios = [SCENARIOS[0], SCENARIOS[-1]] if quick else SCENARIOS
    task_counts = [8, 32] if quick else sorted(TASK_CONFIGS)
    return [
        _cell("figure6", "kmeans", root_seed, machine=machine,
              points=points, clusters=clusters, ntasks=ntasks,
              flavor=flavor)
        for machine in ("stampede", "wrangler")
        for points, clusters in scenarios
        for ntasks in task_counts
        for flavor in ("RP", "RP-YARN")
    ]


def ablations_cells(root_seed: int = 42) -> List[SweepCell]:
    return [_cell("ablations", kind, root_seed)
            for kind in ("integration-level", "spark-deploy-mode",
                         "am-reuse")]


def sensitivity_cells(root_seed: int = 42,
                      bandwidths_mb: Optional[Sequence[float]] = None
                      ) -> List[SweepCell]:
    """Lustre-bandwidth sweep: one cell per (bandwidth, flavor)."""
    return [
        _cell("sensitivity", "lustre-bw", root_seed, bw_mb=bw_mb,
              flavor=flavor)
        for bw_mb in (bandwidths_mb or [10, 30, 100, 300])
        for flavor in ("RP", "RP-YARN")
    ]


def chaos_cells(root_seed: int = 42,
                quick: bool = False) -> List[SweepCell]:
    """The fault-injection grid: bag chaos, NM loss, HDFS healing."""
    from repro.experiments.chaos import FAULT_RATES
    rates = FAULT_RATES[:2] if quick else FAULT_RATES
    cells = [
        _cell("chaos", "bag", root_seed, fault_rate=rate, flavor="RP")
        for rate in rates
    ]
    cells.append(_cell("chaos", "nm-loss", root_seed, machine="stampede"))
    cells.append(_cell("chaos", "hdfs-heal", root_seed, replication=2))
    return cells


def raptor_cells(root_seed: int = 42,
                 quick: bool = False) -> List[SweepCell]:
    """The task-overlay grid: throughput curve + equivalence + faults."""
    from repro.experiments.raptor import QUICK_NTASKS, THROUGHPUT_NTASKS
    counts = QUICK_NTASKS if quick else THROUGHPUT_NTASKS
    cells = [
        _cell("raptor", "throughput", root_seed, machine="stampede",
              ntasks=ntasks)
        for ntasks in counts
    ]
    cells.append(_cell("raptor", "equivalence", root_seed, ntasks=64))
    cells.append(_cell("raptor", "faults", root_seed,
                       ntasks=100 if quick else 400))
    return cells


def service_cells(root_seed: int = 42,
                  quick: bool = False) -> List[SweepCell]:
    """The multi-tenant service grid: load, fairness, admission,
    sharding."""
    cells = [
        _cell("service", "load", root_seed, tenants=4,
              sessions_per_tenant=8),
        _cell("service", "fairshare", root_seed, heavy_weight=4),
        _cell("service", "admission", root_seed, max_pending=8),
        _cell("service", "sharded", root_seed, shards=2, tenants=6),
    ]
    if not quick:
        cells.insert(1, _cell("service", "load", root_seed, tenants=8,
                              sessions_per_tenant=32))
    return cells


#: Grid name -> builder(root_seed, quick).  ``GRIDS`` (the public list
#: the CLI exposes) is asserted against this registry in the tests.
_GRID_BUILDERS = {
    "figure5": lambda root_seed, quick: figure5_cells(root_seed),
    "figure6": figure6_cells,
    "ablations": lambda root_seed, quick: ablations_cells(root_seed),
    "sensitivity": lambda root_seed, quick: sensitivity_cells(root_seed),
    "chaos": chaos_cells,
    "raptor": raptor_cells,
    "service": service_cells,
}


def build_cells(grid: str, root_seed: int = 42,
                quick: bool = False) -> List[SweepCell]:
    """The named grid's declarative cell list.

    Guarantees cell-key uniqueness: two cells with the same key would
    share a seed and silently shadow each other in keyed aggregates.
    """
    builder = _GRID_BUILDERS.get(grid)
    if builder is None:
        raise ValueError(f"unknown sweep grid {grid!r}; known: {GRIDS}")
    cells = builder(root_seed, quick)
    seen: Dict[str, SweepCell] = {}
    for cell in cells:
        if cell.key in seen:
            raise ValueError(
                f"duplicate sweep cell key {cell.key!r} in grid {grid!r}")
        seen[cell.key] = cell
    return cells


# ------------------------------------------------------------ cell runners
def _jsonify(value: Any) -> Any:
    """Dataclasses / numpy scalars -> plain JSON-serializable values."""
    if is_dataclass(value) and not isinstance(value, type):
        return _jsonify(asdict(value))
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if hasattr(value, "item") and not isinstance(
            value, (bool, int, float, str)):
        return value.item()          # numpy scalar
    return value


def _run_figure5_cell(cell: SweepCell) -> List[Dict[str, Any]]:
    from repro.experiments import figure5
    params = dict(cell.params)
    if cell.kind == "pilot-startup":
        row = figure5.run_pilot_startup(
            params["machine"], params["flavor"], params["lrm"],
            params["provision"], seed=cell.seed)
    elif cell.kind == "unit-startup":
        row = figure5.run_unit_startup(
            params["machine"], params["flavor"], params["lrm"],
            seed=cell.seed)
    else:
        raise ValueError(f"unknown figure5 cell kind {cell.kind!r}")
    return [_jsonify(row)]


def _run_figure6_cell(cell: SweepCell) -> List[Dict[str, Any]]:
    from repro.experiments.figure6 import run_figure6_cell
    params = dict(cell.params)
    row = run_figure6_cell(
        params["machine"], params["flavor"], params["points"],
        params["clusters"], params["ntasks"], seed=cell.seed)
    return [_jsonify(row)]


def _run_ablations_cell(cell: SweepCell) -> List[Dict[str, Any]]:
    from repro.experiments import ablations
    runner = {
        "integration-level": ablations.run_integration_level,
        "spark-deploy-mode": ablations.run_spark_deploy_mode,
        "am-reuse": ablations.run_am_reuse,
    }[cell.kind]
    rows = runner(seed=cell.seed)
    return [_jsonify(r) for r in rows]


def _run_sensitivity_cell(cell: SweepCell) -> List[Dict[str, Any]]:
    from repro.experiments import sensitivity
    from repro.experiments.figure6 import _points_for
    params = dict(cell.params)
    points, clusters, ntasks, nodes = 1_000_000, 50, 32, 3
    data = _points_for(points, clusters)
    bw = params["bw_mb"] * 1e6
    runtime = sensitivity._run_cell(bw, params["flavor"], data, clusters,
                                    ntasks, nodes)
    return [{"lustre_bw": bw, "flavor": params["flavor"],
             "runtime": runtime}]


def _run_chaos_cell(cell: SweepCell) -> List[Dict[str, Any]]:
    from repro.experiments.chaos import run_chaos_cell
    params = dict(cell.params)
    row = run_chaos_cell(cell.kind, seed=cell.seed,
                         flavor=params.get("flavor", "RP"),
                         fault_rate=params.get("fault_rate"))
    return [_jsonify(row)]


def _run_raptor_cell(cell: SweepCell) -> List[Dict[str, Any]]:
    from repro.experiments import raptor
    params = dict(cell.params)
    if cell.kind == "throughput":
        row = raptor.run_raptor_throughput(
            params["ntasks"], machine=params["machine"], seed=cell.seed)
    elif cell.kind == "equivalence":
        row = raptor.run_raptor_equivalence(
            params["ntasks"], seed=cell.seed)
    elif cell.kind == "faults":
        row = raptor.run_raptor_faults(params["ntasks"], seed=cell.seed)
    else:
        raise ValueError(f"unknown raptor cell kind {cell.kind!r}")
    return [_jsonify(row)]


def _run_service_cell(cell: SweepCell) -> List[Dict[str, Any]]:
    from repro.experiments import service as service_exp
    params = dict(cell.params)
    if cell.kind == "load":
        row = service_exp.run_service_load(
            seed=cell.seed, tenants=params["tenants"],
            sessions_per_tenant=params["sessions_per_tenant"])
    elif cell.kind == "fairshare":
        row = service_exp.run_service_fairshare(
            seed=cell.seed, heavy_weight=float(params["heavy_weight"]))
    elif cell.kind == "admission":
        row = service_exp.run_service_admission(
            seed=cell.seed, max_pending=params["max_pending"])
    elif cell.kind == "sharded":
        row = service_exp.run_service_sharded(
            seed=cell.seed, shards=params["shards"],
            tenants=params["tenants"])
    else:
        raise ValueError(f"unknown service cell kind {cell.kind!r}")
    return [_jsonify(row)]


_CELL_RUNNERS = {
    "figure5": _run_figure5_cell,
    "figure6": _run_figure6_cell,
    "ablations": _run_ablations_cell,
    "sensitivity": _run_sensitivity_cell,
    "chaos": _run_chaos_cell,
    "raptor": _run_raptor_cell,
    "service": _run_service_cell,
}


def run_cell(cell: SweepCell) -> Dict[str, Any]:
    """Execute one cell (in this process) and capture its wall time.

    Top-level and picklable by name, so it doubles as the process-pool
    work function.
    """
    # Host-side wall time of the runner, reported but never fed back
    # into the simulation — results stay seed-deterministic.
    t0 = time.perf_counter()  # simlint: disable=SIM001
    rows = _CELL_RUNNERS[cell.grid](cell)
    wall = time.perf_counter() - t0  # simlint: disable=SIM001
    return {"key": cell.key, "seed": cell.seed, "rows": rows,
            "wall_seconds": wall, "pid": os.getpid()}


# ------------------------------------------------------------ sweep driver
@dataclass
class SweepRun:
    """Everything one sweep produced: deterministic rows + timing meta.

    ``results`` holds completed cells in declaration order — journaled
    cells recovered on resume and freshly executed ones merged into one
    list, so the aggregate (and its digest) is byte-identical whether a
    sweep ran uninterrupted or was killed and resumed any number of
    times.
    """

    grid: str
    root_seed: int
    jobs: int
    results: List[Dict[str, Any]] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: Cells freshly executed by *this* call (resume skips journaled
    #: ones; ``max_cells`` truncates).
    executed: int = -1
    #: Cells recovered from the journal instead of re-run.
    skipped: int = 0
    #: Whether every cell of the grid has a result.
    complete: bool = True
    #: The journal directory, when this run was crash-safe.
    run_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.executed < 0:
            self.executed = len(self.results)

    def aggregate(self) -> Dict[str, Any]:
        """The deterministic aggregate: cells in declaration order, no
        timings.  Identical for any ``jobs`` value."""
        return {
            "grid": self.grid,
            "root_seed": self.root_seed,
            "cells": [{"key": r["key"], "seed": r["seed"],
                       "rows": r["rows"]} for r in self.results],
        }

    def rows(self) -> List[Dict[str, Any]]:
        """Every cell's row dicts, flattened in declaration order."""
        return [row for r in self.results for row in r["rows"]]

    def aggregate_json(self) -> str:
        """Canonical JSON of :meth:`aggregate` — byte-comparable."""
        return json.dumps(self.aggregate(), sort_keys=True,
                          separators=(",", ":"))

    def digest(self) -> str:
        """sha256 of the canonical aggregate, for quick comparisons."""
        return hashlib.sha256(self.aggregate_json().encode()).hexdigest()

    def report(self) -> Dict[str, Any]:
        """Aggregate + timing metadata (the JSON artifact written by
        ``repro sweep --output``)."""
        return {
            **self.aggregate(),
            "jobs": self.jobs,
            "wall_seconds": self.wall_seconds,
            "digest": self.digest(),
            "complete": self.complete,
            "executed": self.executed,
            "skipped": self.skipped,
            "cell_timings": {r["key"]: r["wall_seconds"]
                             for r in self.results},
        }


def sweep_spec(grid: str, root_seed: int, quick: bool,
               cells: List[SweepCell]) -> Dict[str, Any]:
    """A sweep's journaled identity: everything that defines its rows.

    ``jobs`` is deliberately absent — the aggregate is independent of
    parallelism, so a sweep may be killed under ``--jobs 8`` and
    resumed under ``--jobs 1`` against the same journal.
    """
    return {"grid": grid, "root_seed": root_seed, "quick": quick,
            "cells": [{"key": c.key, "seed": c.seed} for c in cells]}


def run_sweep(grid: str, root_seed: int = 42, jobs: Optional[int] = None,
              quick: bool = False,
              cells: Optional[List[SweepCell]] = None,
              run_dir: Optional[str] = None, resume: bool = False,
              max_cells: Optional[int] = None) -> SweepRun:
    """Run a grid, sequentially (``jobs=1``) or over a process pool.

    ``jobs=None`` uses ``os.cpu_count()``.  ``jobs=1`` is the in-process
    sequential reference path — no pool, no pickling — and is guaranteed
    to produce the same aggregate as any parallel run.

    ``run_dir`` makes the run crash-safe: the sweep's identity is
    committed to ``spec.json`` before any cell starts, and each cell's
    result is journaled durably (fsync) the moment it completes — in
    the parent process, so this works under the process pool too.
    ``resume=True`` re-runs only cells the journal does not already
    hold; resuming a complete journal executes nothing and returns the
    recovered (byte-identical) run.  ``max_cells`` caps how many cells
    *this* call executes, for incremental runs and deterministic
    interruption tests.
    """
    if cells is None:
        cells = build_cells(grid, root_seed=root_seed, quick=quick)
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if max_cells is not None and max_cells < 0:
        raise ValueError(f"max_cells must be >= 0, got {max_cells}")
    journal = None
    done: Dict[str, Dict[str, Any]] = {}
    if run_dir is not None:
        from repro.persist import JournalError, SweepJournal
        journal = SweepJournal(run_dir)
        journal.write_spec(sweep_spec(grid, root_seed, quick, cells))
        done = journal.completed()
        if done and not resume:
            raise JournalError(
                f"run dir {run_dir} already journals {len(done)} "
                f"completed cell(s); resume with --resume or start a "
                f"fresh run dir")
    elif resume:
        raise ValueError("resume=True requires a run_dir")
    pending = [cell for cell in cells if cell.key not in done]
    if max_cells is not None:
        pending = pending[:max_cells]
    # Host-side sweep wall time (progress reporting only, not results).
    t0 = time.perf_counter()  # simlint: disable=SIM001
    fresh: Dict[str, Dict[str, Any]] = {}
    try:
        if jobs == 1 or len(pending) <= 1:
            for cell in pending:
                result = run_cell(cell)
                fresh[result["key"]] = result
                if journal is not None:
                    journal.record(result["key"], result)
        else:
            with ProcessPoolExecutor(
                    max_workers=min(jobs, len(pending))) as ex:
                # Journal in completion order for earliest durability;
                # the aggregate is reassembled in declaration order
                # below, so worker finish order never shows through.
                futures = {ex.submit(run_cell, cell): cell
                           for cell in pending}
                for future in as_completed(futures):
                    result = future.result()
                    fresh[result["key"]] = result
                    if journal is not None:
                        journal.record(result["key"], result)
    finally:
        if journal is not None:
            journal.close()
    wall = time.perf_counter() - t0  # simlint: disable=SIM001
    merged = {**done, **fresh}
    results = [merged[cell.key] for cell in cells if cell.key in merged]
    return SweepRun(grid=grid, root_seed=root_seed, jobs=jobs,
                    results=results, wall_seconds=wall,
                    executed=len(fresh), skipped=len(done),
                    complete=len(results) == len(cells),
                    run_dir=None if run_dir is None else str(run_dir))


class Sweep:
    """The object-level sweep API: configure, run, resume.

    A thin, picklable-free wrapper over :func:`run_sweep` that pairs a
    grid configuration with an optional crash-safe run directory::

        run = Sweep("figure5").run("runs/fig5")      # journaled
        ...                                          # kill -9 here
        run = Sweep.resume("runs/fig5")              # finishes the rest
        assert run.complete
    """

    def __init__(self, grid: str, root_seed: int = 42,
                 quick: bool = False, jobs: Optional[int] = None,
                 max_cells: Optional[int] = None):
        if grid not in _GRID_BUILDERS:
            raise ValueError(
                f"unknown sweep grid {grid!r}; known: {GRIDS}")
        self.grid = grid
        self.root_seed = root_seed
        self.quick = quick
        self.jobs = jobs
        self.max_cells = max_cells

    def cells(self) -> List[SweepCell]:
        return build_cells(self.grid, root_seed=self.root_seed,
                           quick=self.quick)

    def run(self, run_dir: Optional[str] = None,
            resume: bool = False) -> SweepRun:
        return run_sweep(self.grid, root_seed=self.root_seed,
                         jobs=self.jobs, quick=self.quick,
                         run_dir=run_dir, resume=resume,
                         max_cells=self.max_cells)

    @classmethod
    def resume(cls, run_dir: str, jobs: Optional[int] = None,
               max_cells: Optional[int] = None) -> SweepRun:
        """Continue a journaled sweep from its run directory alone.

        The sweep's identity is read back from ``spec.json``, so the
        caller needs no memory of the original grid or seed.
        """
        from repro.persist import JournalError, SweepJournal
        spec = SweepJournal(run_dir).read_spec()
        if spec is None:
            raise JournalError(
                f"no sweep journal in {run_dir} (missing spec.json)")
        sweep = cls(grid=spec["grid"], root_seed=spec["root_seed"],
                    quick=spec["quick"], jobs=jobs, max_cells=max_cells)
        return sweep.run(run_dir=run_dir, resume=True)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Sweep {self.grid} root_seed={self.root_seed} "
                f"quick={self.quick}>")
