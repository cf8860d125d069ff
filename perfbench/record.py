"""Regenerate ``digests.json`` and the measured part of ``ledger.json``.

Run from the root of a checkout after a change that is *meant* to alter
simulation results (a digest records what the program computes, so an
unintended change fails every benchmark run until it is explained)::

    python3 perfbench/record.py digests [--size full|toy]
    python3 perfbench/record.py ledger [--seed N]

``digests`` runs one untraced pass per workload and input seed.
``ledger`` runs ``run.py --trace 1`` per workload and stores each
layer's share of the traced wall time, the line later performance
changes cite.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

DIGESTS = HERE / "digests.json"
LEDGER = HERE / "ledger.json"


def record_digests(sizes) -> None:
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    for size in sizes:
        for workload in workloads.WORKLOADS:
            row = table.setdefault(size, {}).setdefault(workload, {})
            for seed in range(workloads.INPUT_SEEDS):
                record = run.run_pass(workload, seed, size)
                if record["failed"]:
                    raise SystemExit(f"{workload} seed {seed}: "
                                     f"{record['failed']} failed")
                row[str(seed)] = record["digest"]
                print(f"{size} {workload} seed {seed}: "
                      f"{record['digest'][:16]} "
                      f"({record['wall_s']:.2f} s)", flush=True)
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")


def record_ledger(seed: int) -> None:
    ledger = json.loads(LEDGER.read_text())
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", "1", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        metrics = {k: v["value"] for k, v in json.loads(
            proc.stdout.strip().splitlines()[-1])["metrics"].items()}
        # Shares of the program's own time: the traced wall minus the
        # recorder's cost, which is reported on its own.
        program = 1.0 - metrics["trace.self_share"]
        shares = {k[:-len(".self_share")]: round(v / program, 4)
                  for k, v in metrics.items()
                  if k.endswith(".self_share") and k != "trace.self_share"}
        ledger["self_time_shares"][workload] = dict(
            sorted(shares.items(), key=lambda kv: -kv[1]))
        ledger["recorder_share_of_traced_wall"][workload] = round(
            metrics["trace.self_share"], 4)
        ledger["traced_counts"][workload] = {
            k: v for k, v in metrics.items()
            if not k.endswith(".self_share") and v}
        print(f"{workload}: {ledger['self_time_shares'][workload]}",
              flush=True)
    ledger["ledger_seed"] = seed
    LEDGER.write_text(json.dumps(ledger, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="what", required=True)
    digests = sub.add_parser("digests")
    digests.add_argument("--size", choices=sorted(workloads.SIZES),
                         action="append")
    ledger = sub.add_parser("ledger")
    ledger.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.what == "digests":
        record_digests(args.size or sorted(workloads.SIZES))
    else:
        record_ledger(args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
