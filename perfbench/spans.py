"""Span recorder: host time per layer, measured from outside the program.

Nothing in ``src/`` is changed.  :meth:`SpanRecorder.install` patches,
from this file, the calls *into* each layer:

* every public function and method defined in a layer's modules
  (generator functions excepted: they run as simulation processes);
* the kernel's public entry points (``SIM_ENTRY_POINTS``);
* each simulation-process resume, attributed to the layer of the
  innermost generator being resumed (the frame the resume re-enters);
* each other event callback, attributed to the layer of the module
  that defined it;
* the K-Means payload (``_partial_sums``), which is private but is the
  function every map Compute-Unit runs.

Each span records (name, start, end, parent) in flat arrays, kept in
memory and written out by :meth:`write` at the end.  A span's self time
is its duration minus its child spans; time inside no span, or in spans
of modules outside every layer, is ``unattributed``.  Spans nest
strictly (the simulation is single-threaded and each wrapped call
returns before its caller continues), so the layer self times plus the
unattributed time add up to the traced wall time.  :meth:`summary`
reports each as a share of that wall time (``<layer>.self_share``).
"""

from __future__ import annotations

import enum
import functools
import hashlib
import inspect
import statistics
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

#: Layer name -> the module prefixes it covers.  Layer names follow the
#: modules; a module under none of them is ``unattributed``.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "analytics.kmeans": ("repro.analytics.kmeans",),
    "core.db": ("repro.core.db",),
    "core.unit_manager": ("repro.core.unit_manager",),
    "core.agent": ("repro.core.agent",),
    "yarn": ("repro.yarn",),
    "hdfs": ("repro.hdfs",),
    "sim": ("repro.sim",),
    "cluster.storage": ("repro.cluster.storage",),
    "cluster.network": ("repro.cluster.network",),
    "raptor": ("repro.raptor",),
    "service": ("repro.service",),
    "telemetry": ("repro.telemetry",),
}
#: The recorder's own work that must run inside the workload (hashing
#: K-Means inputs), kept apart so it is charged to no layer.
TRACE = "trace"
UNATTRIBUTED = "unattributed"

#: Kernel entry points wrapped in the ``sim`` layer.  The rest of
#: ``repro.sim`` is reached through these or through event callbacks.
SIM_ENTRY_POINTS = ("Environment.run", "Environment.step",
                    "Environment.timeout", "Environment.process",
                    "Environment.event", "Environment.all_of",
                    "Environment.any_of", "Event.succeed", "Event.fail")


def layer_of_module(module: str) -> str:
    """The layer a ``repro`` module belongs to (longest prefix wins)."""
    best, best_len = UNATTRIBUTED, 0
    for layer, prefixes in LAYERS.items():
        for prefix in prefixes:
            if ((module == prefix or module.startswith(prefix + "."))
                    and len(prefix) > best_len):
                best, best_len = layer, len(prefix)
    return best


class SpanRecorder:
    """Records spans at layer boundaries; see the module docstring."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._layer_of_name: List[str] = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self.counters: Dict[str, float] = defaultdict(float)
        self._at_mark: Dict[str, float] = {}
        self._patches: List[Tuple[Any, str, Any]] = []
        self._code_layer: Dict[Any, int] = {}
        self._file_module: Dict[str, str] = {}
        self._counts: Dict[Tuple[str, str], Callable] = {}
        self._kmeans_calls: List[Tuple[int, bool]] = []
        #: Recorder cost per span, from :meth:`calibrate`: a no-op
        #: span's own duration, and what it adds to its parent.
        self.span_cost = 0.0
        self.parent_cost = 0.0

    # ----------------------------------------------------------- spans
    def span_id(self, layer: str, what: str) -> int:
        name = f"{layer}:{what}"
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._layer_of_name.append(layer)
        return nid

    def _enter(self, nid: int) -> int:
        index = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _exit(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn: Callable, nid: int, count: Callable = None
              ) -> Callable:
        enter, leave = self._enter, self._exit

        if count is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                index = enter(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(index)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                index = enter(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    leave(index)
                count(args, kwargs, result)
                return result
        return wrapper

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def calibrate(self, calls: int = 5000, rounds: int = 5) -> None:
        """Measure the recorder's own cost per span on a no-op function.

        :meth:`summary` moves that cost out of the layers' self times
        into the ``trace`` layer; without it, a layer reached by many
        small calls (the DB) and its callers look slower than they are.
        """
        def noop():
            return None

        nid = self.span_id(TRACE, "calibration")
        wrapped = self._wrap(noop, nid)
        perf = time.perf_counter
        span_costs, parent_costs = [], []
        for _ in range(rounds):
            t0 = perf()
            for _ in range(calls):
                noop()
            direct = perf() - t0
            outer = self._enter(nid)
            for _ in range(calls):
                wrapped()
            self._exit(outer)
            inner = sum(self.ends[i] - self.starts[i]
                        for i in range(outer + 1, outer + 1 + calls))
            outer_self = self.ends[outer] - self.starts[outer] - inner
            span_costs.append(inner / calls)
            parent_costs.append(max(0.0, (outer_self - direct) / calls))
            for column in (self.name_ids, self.parents, self.starts,
                           self.ends):
                del column[outer:]
        self.span_cost = statistics.median(span_costs)
        self.parent_cost = statistics.median(parent_costs)

    def mark(self) -> None:
        """Start of the measured phase: counts are taken from here on."""
        self._at_mark = dict(self.counters)

    # ------------------------------------------------- layer resolution
    def _layer_id_of_code(self, code) -> int:
        nid = self._code_layer.get(code)
        if nid is None:
            module = self._file_module.get(code.co_filename)
            if module is None:      # a module imported after install()
                self._index_modules()
                module = self._file_module.get(code.co_filename, "")
            nid = self.span_id(layer_of_module(module), "callback")
            self._code_layer[code] = nid
        return nid

    def _resume_id(self, generator) -> int:
        """Span id for resuming ``generator``: its innermost delegate's
        layer (the frame the resume actually re-enters)."""
        while True:
            inner = getattr(generator, "gi_yieldfrom", None)
            if inner is None or not hasattr(inner, "gi_code"):
                break
            generator = inner
        return self._layer_id_of_code(generator.gi_code)

    def _callback_id(self, callback) -> int:
        func = getattr(callback, "__func__", callback)
        func = getattr(func, "__wrapped__", func)
        code = getattr(func, "__code__", None)
        if code is None:
            return self.span_id(UNATTRIBUTED, "callback")
        return self._layer_id_of_code(code)

    def _index_modules(self) -> Dict[str, Any]:
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if name.startswith("repro") and mod is not None}
        for name, mod in modules.items():
            path = getattr(mod, "__file__", None)
            if path:
                self._file_module[path] = name
        return modules

    # ----------------------------------------------------- installation
    def install(self) -> None:
        """Patch every layer boundary.  Call before building a world."""
        import repro.api  # noqa: F401  (load every layer module)
        import repro.experiments.figure6  # noqa: F401
        import repro.experiments.raptor  # noqa: F401
        import repro.experiments.sweeps  # noqa: F401
        import repro.service  # noqa: F401
        import repro.telemetry  # noqa: F401

        modules = self._index_modules()
        self._define_counts()
        replaced: Dict[Any, Callable] = {}
        self._install_kmeans(replaced)
        for name in sorted(modules):
            layer = layer_of_module(name)
            if layer not in (UNATTRIBUTED, "sim"):
                self._install_module(modules[name], layer, replaced)
        self._install_sim()
        # ``from x import f`` copies: point them at the wrappers too.
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replaced \
                        and value.__module__ != mod.__name__:
                    self._patch(mod, attr, replaced[value])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _install_module(self, mod, layer: str,
                        replaced: Dict[Any, Callable]) -> None:
        for attr, value in list(vars(mod).items()):
            if attr.startswith("_") or hasattr(value, "__wrapped__"):
                continue            # private, or wrapped already
            if inspect.isfunction(value) and value.__module__ == mod.__name__:
                if not inspect.isgeneratorfunction(value):
                    wrapper = self._wrap(value, self.span_id(layer, attr))
                    replaced[value] = wrapper
                    self._patch(mod, attr, wrapper)
            elif (inspect.isclass(value)
                  and value.__module__ == mod.__name__
                  and not issubclass(value, (enum.Enum, BaseException))):
                for meth, fn in list(vars(value).items()):
                    if (meth.startswith("_") or not inspect.isfunction(fn)
                            or inspect.isgeneratorfunction(fn)):
                        continue
                    qualname = f"{value.__name__}.{meth}"
                    nid = self.span_id(layer, qualname)
                    count = self._counts.get((mod.__name__, qualname))
                    self._patch(value, meth, self._wrap(fn, nid, count))

    def _install_sim(self) -> None:
        from repro.sim import engine

        for qualname in SIM_ENTRY_POINTS:
            cls_name, meth = qualname.split(".")
            cls = getattr(engine, cls_name)
            fn = cls.__dict__[meth]
            wrap = self._wrap_run if meth in ("run", "step") else self._wrap
            self._patch(cls, meth, wrap(fn, self.span_id("sim", qualname)))

        enter, leave = self._enter, self._exit
        resume_id, callback_id = self._resume_id, self._callback_id
        resume = engine.Process._resume
        sleep_callbacks = engine._Sleep._run_callbacks

        def run_callbacks(event):
            # Event._run_callbacks, with one span per callback.
            callbacks, event.callbacks = event.callbacks, None
            event._processed = True
            for callback in callbacks or ():
                if getattr(callback, "__func__", None) is resume:
                    nid = resume_id(callback.__self__._generator)
                else:
                    nid = callback_id(callback)
                index = enter(nid)
                try:
                    callback(event)
                finally:
                    leave(index)

        def run_sleep(slot):
            proc = slot.proc
            if proc is None:
                return sleep_callbacks(slot)
            index = enter(resume_id(proc._generator))
            try:
                return sleep_callbacks(slot)
            finally:
                leave(index)

        self._patch(engine.Event, "_run_callbacks", run_callbacks)
        self._patch(engine._Sleep, "_run_callbacks", run_sleep)

    def _wrap_run(self, fn: Callable, nid: int) -> Callable:
        """``Environment.run``/``step``: a sim span that also counts the
        events processed and the simulated time advanced."""
        enter, leave, counters = self._enter, self._exit, self.counters

        @functools.wraps(fn)
        def wrapper(env, *args, **kwargs):
            steps, now = env.steps, env.now
            index = enter(nid)
            try:
                return fn(env, *args, **kwargs)
            finally:
                leave(index)
                counters["sim.events"] += env.steps - steps
                counters["sim.horizon"] += env.now - now
        return wrapper

    def _define_counts(self) -> None:
        """Work counts, taken at the boundaries where the work happens."""
        from repro.service.admission import RequestState

        counters = self.counters

        def calls(key: str):
            def count(args, kwargs, result):
                counters[key] += 1
            return count

        def units(args, kwargs, result):
            counters["core.unit_manager.units"] += len(result)

        def pipe_transfer(args, kwargs, result):
            counters["cluster.storage.transfers"] += 1
            counters["cluster.storage.bytes"] += (
                args[1] if len(args) > 1 else kwargs["nbytes"])

        def raptor_tasks(args, kwargs, result):
            counters["raptor.tasks"] += len(args[1])

        def ticket(args, kwargs, result):
            counters["service.tickets"] += 1
            if result.state == RequestState.THROTTLED:
                counters["service.throttled"] += 1
            elif result.state == RequestState.REJECTED:
                counters["service.rejected"] += 1

        self._counts = {
            ("repro.core.unit_manager", "UnitManager.submit_units"): units,
            ("repro.core.agent.scheduler", "ContinuousScheduler.allocate"):
                calls("core.agent.allocs"),
            ("repro.core.agent.scheduler", "YarnAgentScheduler.allocate"):
                calls("core.agent.allocs"),
            ("repro.yarn.resource_manager",
             "ResourceManager.submit_application"): calls("yarn.apps"),
            ("repro.cluster.storage", "SharedBandwidthPipe.transfer"):
                pipe_transfer,
            ("repro.cluster.network", "Interconnect.send"):
                calls("cluster.network.transfers"),
            ("repro.cluster.network", "Interconnect.send_many"):
                calls("cluster.network.transfers"),
            ("repro.raptor.master", "RaptorMaster.submit_batch"):
                raptor_tasks,
            ("repro.service.service", "ServiceSession.submit_units"): ticket,
            ("repro.service.service", "ServiceSession.submit_raptor"):
                ticket,
            ("repro.service.service", "ServiceSession.submit_pilot"):
                ticket,
        }
        # Retries happen inside the master; count them where they do.
        from repro.raptor.master import RaptorMaster

        lost = RaptorMaster.__dict__["_handle_lost_task"]
        nid = self.span_id("raptor", "RaptorMaster._handle_lost_task")
        enter, leave = self._enter, self._exit

        @functools.wraps(lost)
        def handle_lost_task(master, *args, **kwargs):
            before = master.tasks_retried
            index = enter(nid)
            try:
                return lost(master, *args, **kwargs)
            finally:
                leave(index)
                counters["raptor.retries"] += master.tasks_retried - before

        self._patch(RaptorMaster, "_handle_lost_task", handle_lost_task)

    def _install_kmeans(self, replaced: Dict[Any, Callable]) -> None:
        """The payload and the reference, with work-sharing keys and
        computed operation and byte counts."""
        import numpy as np

        from repro.analytics import kmeans

        payload_id = self.span_id("analytics.kmeans", "payload")
        reference_id = self.span_id("analytics.kmeans", "reference")
        hash_id = self.span_id(TRACE, "input-hash")
        enter, leave = self._enter, self._exit
        counters, calls = self.counters, self._kmeans_calls
        seen = set()
        in_reference = []

        def enter_keyed(fn, nid, *inputs) -> int:
            """Open ``fn``'s span, noting whether its inputs (sha256 of
            qualname plus input bytes) were already seen in this run."""
            index = enter(hash_id)
            try:
                digest = hashlib.sha256(fn.__qualname__.encode())
                for value in inputs:
                    if isinstance(value, np.ndarray):
                        digest.update(repr((value.shape, value.dtype.str))
                                      .encode())
                        digest.update(np.ascontiguousarray(value).data)
                    else:
                        digest.update(repr(value).encode())
                key = digest.digest()
            finally:
                leave(index)
            repeated = key in seen
            seen.add(key)
            index = enter(nid)
            calls.append((index, repeated))
            return index

        payload = kmeans._partial_sums

        @functools.wraps(payload)
        def partial_sums(points, centroids):
            # Computed from shapes, not measured.  flops: the GEMM
            # (2nkd), the centroid norms (2kd), scale+subtract+argmin
            # over the n x k matrix (3nk), the bincounts (n(d+1)).
            # bytes: points read twice (GEMM, bincounts), three n x k
            # float64 temporaries each written and read once, labels
            # written once and read d+1 times.
            n, d = points.shape
            k = centroids.shape[0]
            counters["analytics.kmeans.flops"] += (
                2 * n * k * d + 3 * n * k + 2 * k * d + n * (d + 1))
            counters["analytics.kmeans.bytes"] += 8 * (
                2 * n * d + 6 * n * k + (d + 2) * n)
            if in_reference:
                return payload(points, centroids)
            counters["analytics.kmeans.payload_calls"] += 1
            index = enter_keyed(payload, payload_id, points, centroids)
            try:
                return payload(points, centroids)
            finally:
                leave(index)

        reference = kmeans.kmeans_reference

        @functools.wraps(reference)
        def kmeans_reference(points, k, iterations=2, initial=None):
            counters["analytics.kmeans.reference_calls"] += 1
            index = enter_keyed(reference, reference_id, points, k,
                                iterations, initial)
            in_reference.append(True)
            try:
                return reference(points, k, iterations=iterations,
                                 initial=initial)
            finally:
                in_reference.pop()
                leave(index)

        self._patch(kmeans, "_partial_sums", partial_sums)
        self._patch(kmeans, "kmeans_reference", kmeans_reference)
        replaced[reference] = kmeans_reference

    # ---------------------------------------------------------- results
    def summary(self, t_start: float, t_end: float) -> Dict[str, float]:
        """Per-layer metrics over the measured window [t_start, t_end].

        Times are shares of the window (the traced wall time): a layer
        the workload never enters reads 0 as a share, not as a time.
        """
        import numpy as np

        if len(self._stack) != 1:
            raise RuntimeError(f"{len(self._stack) - 1} spans still open")
        raw_starts = np.frombuffer(self.starts, dtype=np.float64)
        raw_ends = np.frombuffer(self.ends, dtype=np.float64)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        name_ids = np.frombuffer(self.name_ids, dtype=np.int32)
        starts = np.clip(raw_starts, t_start, t_end)
        durations = np.clip(raw_ends, t_start, t_end) - starts
        children = np.bincount(parents + 1, weights=durations,
                               minlength=len(durations) + 1)[1:]
        self_times = durations - children
        if len(self_times) and self_times.min() < -1e-6:
            raise RuntimeError("a child span outlasts its parent")
        in_window = (raw_ends > t_start) & (raw_starts < t_end)
        # Move the recorder's calibrated cost out of the layers.
        spans_below = np.bincount(parents + 1, weights=in_window,
                                  minlength=len(durations) + 1)[1:]
        cost = self.span_cost * in_window + self.parent_cost * spans_below
        cost = np.minimum(np.maximum(self_times, 0.0), cost)
        self_times = self_times - cost
        wall = t_end - t_start
        nnames = len(self.names)
        self_by_name = np.bincount(name_ids, weights=self_times,
                                   minlength=nnames)
        calls_by_name = np.bincount(name_ids[in_window], minlength=nnames)

        layers: Dict[str, float] = defaultdict(float)
        ops: Dict[str, int] = defaultdict(int)
        for nid, name in enumerate(self.names):
            layer = self._layer_of_name[nid]
            layers[layer] += float(self_by_name[nid])
            if not name.endswith(":callback"):
                ops[layer] += int(calls_by_name[nid])
        root = float(durations[parents == -1].sum())

        layers[TRACE] += float(cost.sum())
        layers[UNATTRIBUTED] += wall - root
        out: Dict[str, float] = {
            f"{layer}.self_share": layers[layer] / wall
            for layer in (*LAYERS, TRACE, UNATTRIBUTED)}
        out["trace.wall_s"] = wall
        out["core.db.ops"] = ops["core.db"]
        out["hdfs.ops"] = ops["hdfs"]
        for key, value in self.counters.items():
            out[key] = value - self._at_mark.get(key, 0.0)

        seconds = {"payload": 0.0, "reference": 0.0, "repeated": 0.0}
        payload_id = self._name_ids["analytics.kmeans:payload"]
        for index, repeated in self._kmeans_calls:
            duration = float(durations[index])
            kind = "payload" if name_ids[index] == payload_id \
                else "reference"
            seconds[kind] += duration
            if repeated:
                seconds["repeated"] += duration
        out["analytics.kmeans.payload_share"] = seconds["payload"] / wall
        out["analytics.kmeans.reference_share"] = seconds["reference"] / wall
        total = seconds["payload"] + seconds["reference"]
        out["analytics.kmeans.repeat_share"] = (
            seconds["repeated"] / total if total > 0 else 0.0)
        return out

    def write(self, path: Path) -> None:
        """Write every span (name, start, end, parent) as ``.npz``."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names),
                 name_ids=np.frombuffer(self.name_ids, dtype=np.int32),
                 parents=np.frombuffer(self.parents, dtype=np.int32),
                 starts=np.frombuffer(self.starts, dtype=np.float64),
                 ends=np.frombuffer(self.ends, dtype=np.float64))
