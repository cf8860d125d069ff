"""Repository benchmark: four workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cu-bag --seed 1 --seconds 20 --trace 0

``--trace 0`` runs fresh-process passes of the workload (``worker.py``)
until ``--seconds`` is spent, and reports the median of each
end-to-end metric over the passes; ``setup_s`` is the median over at
least ``SETUP_SAMPLES`` set-ups, topped up with set-up-only passes.
The timed end-to-end metrics are taken at a reference host speed
(``ref_wall_s``, ``ref_items_per_s``, ``setup_s``; see
``worker.SpeedProbe``): a shared VM's speed can drift by 15-30 % over
seconds, more than any bound a later change could be held to.
``--trace 1`` runs three passes: untraced, traced under the span
recorder (``spans.py``) and with telemetry installed, and reports the
per-layer metrics.  Every pass's result digest must equal the one
recorded in ``digests.json`` for its input seed, so tracing provably
leaves the simulation unchanged.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The lines before it
print every metric by name with its unit, plus ``failed_frac`` (the
share of attempted operations that failed or were refused) and the
plain host-clock ``wall_s``, ``items_per_s`` and ``host_setup_s``.

Metric names, units and directions live in ``BENCHMARK.json`` at the
root; workload definitions and the per-layer ledger in ``ledger.json``
next to this file.  ``record.py`` regenerates the digests and ledger.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

#: The whole run, passes included, ends within this many seconds: a
#: pass still going then is killed and the run fails.
RUN_DEADLINE_S = 175.0
#: No new untraced pass starts once this much of the run has gone.
RUN_BUDGET_S = 120.0
#: An untraced run reports set-up time over at least this many set-ups.
SETUP_SAMPLES = 7
#: The traced run fails if more than this share of the traced wall time
#: is unattributed (in no span, or in spans of modules outside every
#: layer): the layer self times and the recorder's own cost must cover
#: the rest.  A layer entry point that loses its wrapper, or a
#: sim-process resume that is never timed, moves its time there.
#: Recorded runs stay at or below 0.03.
UNATTRIBUTED_LIMIT = 0.05
#: Recorded result digests, by size, workload and input seed.
DIGESTS = HERE / "digests.json"


class PassError(RuntimeError):
    """A worker pass exited non-zero or printed no record."""


def pass_env() -> dict:
    """One thread for the numeric libraries and no opt-in sanitizer:
    the workload runs as one single-threaded process.  Bytecode caches
    are written, so set-up is timed with the program's bytecode cached,
    as an installed package has it (only a fresh checkout's first pass
    compiles)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env.pop("REPRO_SANITIZE", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_pass(workload: str, seed: int, size: str, mode: str = "plain",
             spans_out: Path = None, deadline: float = None) -> dict:
    """Run one pass of ``workload`` in a fresh process, killing it if
    it is still running at ``deadline`` (a ``perf_counter`` value)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--mode", mode]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    t0 = time.perf_counter()
    timeout = None if deadline is None else max(0.0, deadline - t0)
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT,
                              env=pass_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"{mode} pass of {workload} still running at "
                        f"the run's deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"{mode} pass of {workload} exited "
                        f"{proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def end_to_end(passes: list, setups: list) -> dict:
    """Median over the passes (over ``setups`` for set-up time) of every
    end-to-end metric, and of the host-clock times printed beside them."""
    return {
        "ref_wall_s": statistics.median(p["ref_wall_s"] for p in passes),
        "ref_items_per_s": statistics.median(p["items"] / p["ref_wall_s"]
                                             for p in passes),
        "setup_s": statistics.median(p["ref_setup_s"] for p in setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"]
                                         for p in passes),
        "host_setup_s": statistics.median(p["setup_s"] for p in setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "items_per_s": statistics.median(p["items"] / p["wall_s"]
                                         for p in passes),
    }


def failed_frac(passes: list) -> float:
    """Failed or refused operations over attempted ones."""
    return (sum(p["failed"] + p["refused"] for p in passes)
            / sum(p["attempted"] for p in passes))


def per_layer(plain: dict, traced: dict, telemetry: dict,
              names: list) -> dict:
    """The traced pass's layer metrics plus the ratios between passes.

    ``telemetry.on_overhead`` and ``sim.events_per_s`` use the probed
    ``ref_wall_s``.  The traced pass runs no probe (it would land in the
    spans), so ``trace.overhead_ratio`` is a plain host-clock ratio and
    carries the host's drift.
    """
    layers = dict(traced["layers"])
    layers["sim.events_per_s"] = layers.get("sim.events", 0.0) \
        / plain["ref_wall_s"]
    layers["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    layers["telemetry.on_overhead"] = (telemetry["ref_wall_s"]
                                       / plain["ref_wall_s"])
    # A counter never incremented on this workload is a zero count.
    return {name: float(layers.get(name, 0.0)) for name in names}


def expected_digest(size: str, workload: str, seed: int):
    """The recorded digest for this input seed (``None``: unrecorded)."""
    if not DIGESTS.is_file():
        return None
    table = json.loads(DIGESTS.read_text())
    return table.get(size, {}).get(workload, {}).get(
        str(workloads.input_seed(seed)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload; see perfbench/run.py.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES),
                        default="full",
                        help="'toy' runs the same paths at self-test size")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    start = time.perf_counter()
    deadline = start + RUN_DEADLINE_S
    try:
        if args.trace:
            plain = run_pass(args.workload, args.seed, args.size,
                             deadline=deadline)
            traced = run_pass(
                args.workload, args.seed, args.size, "traced",
                spans_out=ROOT / ".perfbench" / f"spans-{args.workload}.npz",
                deadline=deadline)
            telemetry = run_pass(args.workload, args.seed, args.size,
                                 "telemetry", deadline=deadline)
            passes = [plain, traced, telemetry]
        else:
            passes = []
            while True:
                passes.append(run_pass(args.workload, args.seed,
                                       args.size, deadline=deadline))
                spent = time.perf_counter() - start
                if (spent + spent / len(passes) > args.seconds
                        or spent > RUN_BUDGET_S):
                    break
            setups = list(passes)
            while len(setups) < SETUP_SAMPLES:
                setups.append(run_pass(args.workload, args.seed, args.size,
                                       "setup", deadline=deadline))
    except PassError as exc:
        print(exc, file=sys.stderr)
        return 1

    expected = expected_digest(args.size, args.workload, args.seed)
    correct = True
    for number, p in enumerate(passes, 1):
        verdict = "ok" if p["digest"] == expected else "MISMATCH"
        correct &= verdict == "ok"
        ref = (f" (ref {p['ref_setup_s']:.3f} s, {p['ref_wall_s']:.3f} s)"
               if "ref_wall_s" in p else "")
        print(f"pass {number} ({p['mode']}): setup {p['setup_s']:.3f} s, "
              f"wall {p['wall_s']:.3f} s{ref}, {p['items']} items, "
              f"rss {p['peak_rss_mb']:.1f} MB, digest {p['digest'][:16]} "
              f"{verdict}")
    if expected is None:
        print(f"no recorded digest for {args.workload} ({args.size}) "
              f"input seed {workloads.input_seed(args.seed)}")

    printed = {"failed_frac": failed_frac(passes)}
    if args.trace:
        specs = spec["per_layer"]
        metrics = per_layer(plain, traced, telemetry,
                            [m["name"] for m in specs])
        unattributed = metrics["unattributed.self_share"]
        print(f"unattributed share of the traced wall: {unattributed:.2%} "
              f"(limit {UNATTRIBUTED_LIMIT:.0%})")
        correct &= unattributed <= UNATTRIBUTED_LIMIT
    else:
        specs = spec["end_to_end"]
        metrics = end_to_end(passes, setups)
        for name in ("wall_s", "items_per_s", "host_setup_s"):
            printed[name] = metrics.pop(name)
        print(f"{len(setups)} set-ups, {len(setups) - len(passes)} of them "
              f"in set-up-only passes")
    for m in specs:
        print(f"{m['name']:<36} {metrics[m['name']]:>16.6g} {m['unit']}")
    units = {"failed_frac": "ratio", "wall_s": "s", "items_per_s": "1/s",
             "host_setup_s": "s"}
    for name, value in printed.items():
        print(f"{name:<36} {value:>16.6g} {units[name]} (printed, not "
              f"gated)")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in specs},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
