"""One pass of one workload in a fresh process; prints one JSON line.

``run.py`` starts this script once per pass, so every pass pays the
same imports and world build a user's fresh ``python -m repro`` pays,
and ``ru_maxrss`` is the peak of that pass alone.  Modes:

* ``plain``     — untraced; the end-to-end timings;
* ``traced``    — under the span recorder (``spans.py``);
* ``telemetry`` — untraced, with ``repro.telemetry.install(env)`` on
  every Testbed's Environment before its pilot is submitted;
* ``setup``     — untraced, stopped at the start of the measured phase:
  one more set-up sample.

``--t0`` is the parent's ``time.perf_counter()`` just before it started
this process (CLOCK_MONOTONIC, so comparable across processes on
Linux); set-up time runs from there to the workload's ``mark()``.

Untraced passes also run a :class:`SpeedProbe` and report
``ref_setup_s`` and ``ref_wall_s``: the set-up and measured-phase times
rescaled to a reference host speed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The probe times its fixed work once every this many seconds.
PROBE_INTERVAL_S = 0.02
#: The probe work's duration at the reference speed, the speed of the
#: 2-vCPU VM the ledger was recorded on at its usual load.
PROBE_REF_S = 400e-6


def _probe_work() -> None:
    """A fixed piece of interpreter work (dict updates on a small,
    cache-resident table), about 0.4 ms on the reference host."""
    table = {}
    for i in range(2000):
        table[i & 255] = table.get(i & 255, 0) + i


class SpeedProbe:
    """Samples the host's speed on the workload's own CPU while it runs.

    On a shared VM (measured on a 2-vCPU one) the CPU speed drifts by
    15-30 % over seconds with other tenants' load, and the vCPUs drift
    independently, so a probe run before or beside a pass does not see
    the speed the pass saw.  This one times :func:`_probe_work` from a
    ``SIGALRM`` handler every ``PROBE_INTERVAL_S`` of the pass, in the
    workload's process, so its samples follow the speed the workload
    ran at (about 2 % of the pass).  The handler runs between bytecodes:
    it cannot change what the simulation computes, and the digests
    check that.  :meth:`split` divides the samples between set-up and
    the measured phase.
    """

    def __init__(self) -> None:
        self.samples = []
        self.split_at = 0
        for _ in range(3):         # the interpreter specialises the loop
            _probe_work()

    def _sample(self, *_) -> None:
        t = time.perf_counter()
        _probe_work()
        self.samples.append(time.perf_counter() - t)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        self._sample()

    def split(self) -> None:
        """Later samples belong to the measured phase (one is taken now,
        so each phase has at least one)."""
        self.split_at = len(self.samples)
        self._sample()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @staticmethod
    def ref_seconds(seconds: float, samples: list) -> float:
        """``seconds`` less the probe's own time in them, rescaled to
        the reference speed by the mean probe time (time-weighted, as
        the samples are evenly spaced in time)."""
        mean = sum(samples) / len(samples)
        return (seconds - sum(samples)) * PROBE_REF_S / mean

    def ref_setup(self, seconds: float) -> float:
        return self.ref_seconds(seconds, self.samples[:self.split_at])

    def ref_wall(self, seconds: float) -> float:
        return self.ref_seconds(seconds, self.samples[self.split_at:])


class SetupDone(BaseException):
    """Ends a ``setup`` pass at its ``mark()``.  A BaseException, so no
    ``except Exception`` in the program between the workload and its
    mark can swallow it."""


def _import_program() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro
    if not Path(repro.__file__).resolve().is_relative_to(src):
        raise ImportError(f"repro imported from {repro.__file__}, "
                          f"not from {src}")


@contextlib.contextmanager
def telemetry_on_every_testbed():
    """Install telemetry on each Testbed's Environment at construction,
    i.e. before any pilot is submitted into it."""
    from repro import telemetry
    from repro.experiments.harness import Testbed

    original = Testbed.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        telemetry.install(self.env)

    Testbed.__init__ = init
    try:
        yield
    finally:
        Testbed.__init__ = original


def run_pass(workload: str, seed: int, size: str, mode: str,
             t0: float, spans_out: Path = None, poison: bool = False
             ) -> dict:
    """Run the workload once and return the pass record.  A ``setup``
    pass stops at the workload's ``mark()`` and records set-up only."""
    probe = None if mode == "traced" else SpeedProbe()
    if probe is not None:
        probe.start()
    _import_program()
    import workloads

    fn = workloads.WORKLOADS[workload]
    params = workloads.SIZES[size][workload]
    marks = []

    def mark() -> None:
        if marks:
            raise RuntimeError(f"{workload} marked its measured phase twice")
        marks.append(time.perf_counter())
        if recorder is not None:
            recorder.mark()
        else:
            probe.split()
        if mode == "setup":
            raise SetupDone

    kwargs = {"poison": True} if poison else {}
    recorder = None
    if mode == "traced":
        import spans
        recorder = spans.SpanRecorder()
        recorder.calibrate()
        recorder.install()
    context = (telemetry_on_every_testbed() if mode == "telemetry"
               else contextlib.nullcontext())
    outcome = None
    try:
        with context:
            outcome = fn(workloads.input_seed(seed), params, mark,
                         **kwargs)
    except SetupDone:
        pass
    finally:
        if probe is not None:
            probe.stop()
        t_end = time.perf_counter()
        if recorder is not None:
            recorder.uninstall()
    if not marks:
        raise RuntimeError(f"{workload} never marked its measured phase")
    record = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "mode": mode,
        "setup_s": marks[0] - t0,
    }
    if probe is not None:
        record["ref_setup_s"] = probe.ref_setup(record["setup_s"])
    if outcome is None:
        return record
    record.update({
        "wall_s": t_end - marks[0],
        "items": outcome.items,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "refused": outcome.refused,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": outcome.digest(),
    })
    if probe is not None:
        record["ref_wall_s"] = probe.ref_wall(record["wall_s"])
    if recorder is not None:
        record["layers"] = recorder.summary(marks[0], t_end)
        if spans_out is not None:
            recorder.write(spans_out)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--mode", default="plain",
                        choices=("plain", "traced", "telemetry", "setup"))
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--spans-out", type=Path, default=None)
    args = parser.parse_args(argv)
    record = run_pass(args.workload, args.seed, args.size, args.mode,
                      args.t0, spans_out=args.spans_out)
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
