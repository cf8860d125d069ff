"""Declarative subcommand registry for ``python -m repro``.

Every CLI verb is one :class:`Command` spec — name, argument specs,
runner, documented exit codes — collected in :data:`REGISTRY`.  The
parser is *derived* from the registry, so adding a verb is adding one
entry, and the help text, dispatch table and exit-code contract can
never drift apart.

Renamed flags keep their old spellings as **deprecation-gated
aliases**: the old flag still works, stores to the same destination,
and emits a :class:`DeprecationWarning` naming the replacement.  The
test suite runs with ``-W error::DeprecationWarning``, so nothing in
the repo may still use an old spelling.

Current aliases:

===================  ==================  =====================
command              deprecated          replacement
===================  ==================  =====================
``sweep``            ``--out``           ``--output``
``trace``            ``--out``           ``--output``
``audit-state``      ``--update``        ``--update-manifest``
===================  ==================  =====================
"""

from __future__ import annotations

import argparse
import sys
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.experiments.sweeps import GRIDS


# ----------------------------------------------------------- argument specs
def _deprecated_action(primary: str, store_true: bool):
    """An argparse action for an old flag spelling: warn, then store."""

    class _Alias(argparse.Action):
        def __init__(self, option_strings, dest, **kwargs):
            if store_true:
                kwargs["nargs"] = 0
            super().__init__(option_strings, dest, **kwargs)

        def __call__(self, parser, namespace, values, option_string=None):
            warnings.warn(
                f"{option_string} is deprecated; use {primary}",
                DeprecationWarning, stacklevel=2)
            setattr(namespace, self.dest,
                    True if store_true else values)

    return _Alias


@dataclass(frozen=True)
class Arg:
    """One ``add_argument`` call, plus optional deprecated spellings."""

    flags: Tuple[str, ...]
    kwargs: Dict[str, Any] = field(default_factory=dict)
    deprecated: Tuple[str, ...] = ()

    def add_to(self, parser: argparse.ArgumentParser) -> None:
        action = parser.add_argument(*self.flags, **self.kwargs)
        store_true = self.kwargs.get("action") == "store_true"
        for old in self.deprecated:
            parser.add_argument(
                old, dest=action.dest,
                action=_deprecated_action(self.flags[0], store_true),
                default=argparse.SUPPRESS, help=argparse.SUPPRESS)


def arg(*flags: str, deprecated: Tuple[str, ...] = (),
        **kwargs: Any) -> Arg:
    return Arg(flags=flags, kwargs=kwargs, deprecated=tuple(deprecated))


@dataclass(frozen=True)
class Command:
    """One CLI verb: its arguments, runner and exit-code contract."""

    name: str
    help: str
    runner: Callable[[argparse.Namespace], int]
    args: Tuple[Arg, ...] = ()
    exit_codes: Tuple[Tuple[int, str], ...] = (
        (0, "success"), (2, "usage error"))
    description: Optional[str] = None

    def add_to(self, subparsers) -> None:
        epilog = "exit codes: " + "; ".join(
            f"{code} = {meaning}" for code, meaning in self.exit_codes)
        parser = subparsers.add_parser(
            self.name, help=self.help,
            description=self.description or self.help, epilog=epilog)
        for spec in self.args:
            spec.add_to(parser)


# ----------------------------------------------------------------- runners
def _figure5() -> None:
    from repro.experiments.figure5 import split_rows
    from repro.experiments.sweeps import run_sweep
    from repro.experiments.tables import figure5_report
    run = run_sweep("figure5", jobs=1)
    print(figure5_report(*split_rows(run.rows())))


def _figure6(quick: bool) -> None:
    from repro.experiments.figure6 import KMeansRow
    from repro.experiments.sweeps import run_sweep
    from repro.experiments.tables import figure6_report
    run = run_sweep("figure6", jobs=1, quick=quick)
    print(figure6_report([KMeansRow(**r) for r in run.rows()]))


def _ablations() -> None:
    from repro.experiments.sweeps import run_sweep
    from repro.experiments.tables import format_table
    run = run_sweep("ablations", jobs=1)
    a1, a2, a3 = (result["rows"] for result in run.results)
    print("A1 — YARN integration level (CU startup)")
    print(format_table(["wiring", "CU startup (s)", "WAN round-trips"],
                       [(r["wiring"], r["unit_startup"],
                         r["wan_roundtrips"]) for r in a1]))
    print("\nA2 — Spark deployment mode (cluster-ready time)")
    print(format_table(["mode", "cluster ready (s)", "frameworks"],
                       [(r["mode"], r["cluster_ready"],
                         r["frameworks_started"]) for r in a2]))
    print("\nA3 — Application Master re-use (warm CU startup)")
    print(format_table(["mode", "warm CU startup (s)"],
                       [(r["mode"], r["warm_unit_startup"]) for r in a3]))


def _sensitivity() -> None:
    from repro.experiments.sensitivity import crossover_bandwidth, pair_rows
    from repro.experiments.sweeps import run_sweep
    from repro.experiments.tables import format_table
    rows = pair_rows(run_sweep("sensitivity", jobs=1).rows())
    print("S1 — YARN advantage vs job-visible Lustre bandwidth")
    print(format_table(
        ["lustre share (MB/s)", "RP (s)", "RP-YARN (s)", "advantage (%)"],
        [(f"{r.lustre_bw / 1e6:.0f}", r.rp_runtime, r.yarn_runtime,
          r.yarn_advantage * 100) for r in rows]))
    crossover = crossover_bandwidth(rows)
    if crossover is not None:
        print(f"crossover at ~{crossover / 1e6:.0f} MB/s")


def _run_figure5(args: argparse.Namespace) -> int:
    _figure5()
    print()
    return 0


def _run_figure6(args: argparse.Namespace) -> int:
    _figure6(args.quick)
    print()
    return 0


def _run_ablations(args: argparse.Namespace) -> int:
    _ablations()
    print()
    return 0


def _run_sensitivity(args: argparse.Namespace) -> int:
    _sensitivity()
    return 0


def _run_all(args: argparse.Namespace) -> int:
    _figure5()
    print()
    _figure6(args.quick)
    print()
    _ablations()
    print()
    _sensitivity()
    return 0


def _run_trace(args: argparse.Namespace) -> int:
    from repro.telemetry.runner import format_report, run_traced_kmeans
    try:
        run = run_traced_kmeans(
            machine=args.machine, flavor=args.flavor, points=args.points,
            clusters=args.clusters, ntasks=args.ntasks,
            iterations=args.iterations, seed=args.seed,
            out_dir=args.output)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_report(run))
    return 0 if run.centroids_ok else 1


def _run_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.sweeps import build_cells, run_sweep
    from repro.experiments.tables import format_table
    from repro.persist import JournalError
    if args.list or args.grid is None:
        # Discoverability: list every registered grid with its size, so
        # new grids never need a trip through the source.
        print("registered sweep grids:")
        for name in GRIDS:
            cells = build_cells(name, root_seed=args.seed,
                                quick=args.quick)
            print(f"  {name:<12} {len(cells)} cells")
        if args.grid is None and not args.list:
            print("\nusage: python -m repro sweep GRID [--jobs N] "
                  "[--quick] [--output FILE] [--run-dir DIR [--resume]]")
        return 0
    try:
        run = run_sweep(args.grid, root_seed=args.seed, jobs=args.jobs,
                        quick=args.quick, run_dir=args.run_dir,
                        resume=args.resume, max_cells=args.max_cells)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except JournalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    status = "" if run.complete else \
        f" (INCOMPLETE: {len(run.results)} of the grid journaled)"
    print(f"sweep {run.grid}: {len(run.results)} cells "
          f"({run.executed} run, {run.skipped} resumed), "
          f"jobs={run.jobs}, wall {run.wall_seconds:.2f}s, "
          f"digest {run.digest()[:12]}{status}")
    print(format_table(
        ["cell", "wall (s)"],
        [(r["key"], r["wall_seconds"]) for r in run.results]))
    if run.grid == "raptor":
        # The headline comparison: overlay vs. per-unit tasks/sec.
        for result in run.results:
            for row in result["rows"]:
                if "speedup" in row:
                    print(f"{row['ntasks']} tasks: overlay "
                          f"{row['overlay_tasks_per_sec']:.0f} tasks/s "
                          f"vs per-unit YARN "
                          f"{row['per_unit_tasks_per_sec']:.2f} tasks/s "
                          f"-> {row['speedup']:.0f}x")
                elif "identical" in row:
                    state = "identical" if row["identical"] else "DIVERGED"
                    print(f"equivalence ({row['ntasks']} tasks): "
                          f"overlay and per-unit results {state}")
    if args.output:
        import json
        with open(args.output, "w") as fh:
            json.dump(run.report(), fh, indent=2, sort_keys=True)
        print(f"wrote {args.output}")
    return 0


def _run_lint(args: argparse.Namespace) -> int:
    from repro.analysis.simlint import lint_command
    return lint_command(
        paths=args.paths, output=args.format, check=args.check,
        baseline_path=args.baseline,
        update_baseline=args.update_baseline,
        list_rules=args.list_rules,
        flow=args.flow, graph_cache=args.graph_cache)


def _run_audit_state(args: argparse.Namespace) -> int:
    from repro.analysis.snapshot import audit_command
    return audit_command(
        paths=args.paths, roots=args.root or None,
        manifest_path=args.manifest, baseline_path=args.baseline,
        output=args.format, check=args.check,
        update=args.update_manifest, graph_cache=args.graph_cache)


def _parse_param(item: str) -> Tuple[str, Any]:
    """``K=V`` with JSON-ish value coercion (int, float, bool, str)."""
    if "=" not in item:
        raise ValueError(f"--param needs K=V, got {item!r}")
    key, raw = item.split("=", 1)
    import json
    try:
        return key, json.loads(raw)
    except json.JSONDecodeError:
        return key, raw


def _run_checkpoint(args: argparse.Namespace) -> int:
    from repro.persist import PersistError, launch, scenario_names
    if args.list or args.scenario is None:
        print("registered checkpoint scenarios:")
        for name in scenario_names():
            print(f"  {name}")
        if args.scenario is None and not args.list:
            print("\nusage: python -m repro checkpoint SCENARIO "
                  "--store DIR [--at T] [--seed N] [--param K=V]...")
        return 0
    try:
        params = dict(_parse_param(item) for item in args.param)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        session = launch(args.scenario, seed=args.seed, **params)
    except (PersistError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.at is not None:
        if args.at < session.env.now:
            print(f"error: --at {args.at} lies before the scenario's "
                  f"own end time {session.env.now:.3f}", file=sys.stderr)
            return 2
        session.env.run(until=args.at)
    try:
        info = session.checkpoint(args.store, ref=args.ref)
    except PersistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"checkpointed scenario {info.scenario!r} at "
          f"t={info.now:.3f} (step {info.steps})")
    print(f"  store: {args.store}")
    print(f"  ref:   {args.ref} -> {info.digest[:16]}")
    print(f"  state: {info.state_digest}")
    return 0


def _run_restore(args: argparse.Namespace) -> int:
    from repro.persist import PersistError, state_digest
    from repro.persist import restore as restore_session
    try:
        session = restore_session(args.store, ref=args.ref)
    except PersistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    prov = session.provenance
    print(f"restored scenario {prov.name!r} (seed {prov.seed}) at "
          f"t={session.env.now:.3f} (step {session.env.steps}); "
          f"state digest verified")
    if args.until is not None:
        if args.until < session.env.now:
            print(f"error: --until {args.until} lies before the "
                  f"restored clock {session.env.now:.3f}",
                  file=sys.stderr)
            return 2
        session.env.run(until=args.until)
        print(f"ran to t={session.env.now:.3f} (step "
              f"{session.env.steps}), state digest "
              f"{state_digest(session)[:16]}")
    return 0


# ---------------------------------------------------------------- registry
_QUICK = arg("--quick", action="store_true",
             help="figure6: run a reduced 16-cell grid")

COMMANDS: Tuple[Command, ...] = (
    Command(name="figure5", runner=_run_figure5,
            help="run the figure5 experiment(s)"),
    Command(name="figure6", runner=_run_figure6,
            help="run the figure6 experiment(s)", args=(_QUICK,)),
    Command(name="ablations", runner=_run_ablations,
            help="run the ablations experiment(s)"),
    Command(name="sensitivity", runner=_run_sensitivity,
            help="run the sensitivity experiment(s)"),
    Command(name="all", runner=_run_all,
            help="run the all experiment(s)", args=(_QUICK,)),
    Command(
        name="sweep", runner=_run_sweep,
        help="run an experiment grid over a process pool "
             f"({', '.join(GRIDS)})",
        args=(
            arg("grid", nargs="?", default=None, choices=list(GRIDS),
                help="grid to run; omit (or --list) to list the "
                     "registered grids"),
            arg("--list", action="store_true",
                help="list the registered sweep grids and exit"),
            arg("--jobs", type=int, default=None, metavar="N",
                help="worker processes (default: all cores; "
                     "1 = sequential reference path)"),
            arg("--seed", type=int, default=42,
                help="root seed; per-cell seeds derive from it"),
            arg("--quick", action="store_true",
                help="figure6/chaos/raptor/service: run a reduced grid"),
            arg("--output", default=None, metavar="FILE",
                deprecated=("--out",),
                help="write the structured JSON result here"),
            arg("--run-dir", default=None, metavar="DIR",
                help="journal per-cell completion here (crash-safe; "
                     "enables --resume)"),
            arg("--resume", action="store_true",
                help="re-run only cells the --run-dir journal does "
                     "not already hold"),
            arg("--max-cells", type=int, default=None, metavar="N",
                help="execute at most N cells this invocation "
                     "(incremental runs)"),
        ),
        exit_codes=((0, "success"), (1, "journal mismatch"),
                    (2, "usage error"))),
    Command(
        name="lint", runner=_run_lint,
        help="run simlint, the determinism linter, over the sources",
        args=(
            arg("paths", nargs="*", default=["src/repro"],
                help="files or directories to lint (default: src/repro)"),
            arg("--format", default="text", choices=["text", "json"],
                dest="format", help="finding output format"),
            arg("--check", action="store_true",
                help="exit 1 when findings differ from the baseline "
                     "(CI mode)"),
            arg("--baseline", default="simlint-baseline.json",
                metavar="FILE",
                help="baseline file of accepted findings"),
            arg("--update-baseline", action="store_true",
                help="rewrite the baseline from this run's findings"),
            arg("--list-rules", action="store_true",
                help="list the registered rules and exit"),
            arg("--flow", action="store_true",
                help="also run the cross-module SIM10x taint pass "
                     "(import-graph-aware)"),
            arg("--graph-cache", default=None, metavar="FILE",
                help="cache the import-graph analysis here "
                     "(shared with audit-state in CI)"),
        ),
        exit_codes=((0, "clean"), (1, "new findings in --check mode"),
                    (2, "usage error"))),
    Command(
        name="audit-state", runner=_run_audit_state,
        help="audit snapshot state reachable from Session/Environment/"
             "PilotService (SIM11x)",
        args=(
            arg("paths", nargs="*", default=["src/repro"],
                help="files or directories to analyze "
                     "(default: src/repro)"),
            arg("--root", action="append", default=[],
                metavar="DOTTED.Class",
                help="override the audited root classes (repeatable)"),
            arg("--manifest", default="state-manifest.json",
                metavar="FILE",
                help="committed state-manifest contract file"),
            arg("--baseline", default="simlint-baseline.json",
                metavar="FILE",
                help="shared baseline ledger of accepted findings"),
            arg("--format", default="text", choices=["text", "json"],
                dest="format", help="finding output format"),
            arg("--check", action="store_true",
                help="exit 1 on manifest/checkpoint-schema drift or "
                     "findings that differ from the baseline (CI mode)"),
            arg("--update-manifest", action="store_true",
                deprecated=("--update",),
                help="rewrite the state manifest from this run"),
            arg("--graph-cache", default=None, metavar="FILE",
                help="cache the import-graph analysis here "
                     "(shared with lint --flow in CI)"),
        ),
        exit_codes=((0, "clean"),
                    (1, "manifest drift or new findings in --check "
                        "mode"),
                    (2, "usage error"))),
    Command(
        name="trace", runner=_run_trace,
        help="run one telemetry-enabled K-Means cell and export traces",
        args=(
            arg("--machine", default="stampede",
                choices=["stampede", "wrangler"]),
            arg("--flavor", default="RP-YARN", choices=["RP", "RP-YARN"],
                help="plain pilot (fork) or Mode I YARN pilot"),
            arg("--points", type=int, default=10_000),
            arg("--clusters", type=int, default=8),
            arg("--ntasks", type=int, default=8),
            arg("--iterations", type=int, default=2),
            arg("--seed", type=int, default=42),
            arg("--output", default=None, metavar="DIR",
                deprecated=("--out",),
                help="write trace.json / spans.jsonl / events.jsonl / "
                     "metrics.jsonl here"),
        ),
        exit_codes=((0, "success"), (1, "centroid validation failed"),
                    (2, "usage error"))),
    Command(
        name="checkpoint", runner=_run_checkpoint,
        help="launch a registered scenario and checkpoint it into a "
             "snapshot store",
        args=(
            arg("scenario", nargs="?", default=None,
                help="registered scenario name; omit (or --list) to "
                     "list them"),
            arg("--list", action="store_true",
                help="list the registered scenarios and exit"),
            arg("--store", default="checkpoint-store", metavar="DIR",
                help="snapshot store directory "
                     "(default: checkpoint-store)"),
            arg("--at", type=float, default=None, metavar="T",
                help="advance the simulation clock to T before "
                     "checkpointing"),
            arg("--seed", type=int, default=42,
                help="scenario seed"),
            arg("--param", action="append", default=[], metavar="K=V",
                help="scenario parameter override (repeatable; JSON "
                     "values)"),
            arg("--ref", default="latest", metavar="NAME",
                help="named ref to point at the snapshot "
                     "(default: latest)"),
        ),
        exit_codes=((0, "success"), (1, "checkpoint failed"),
                    (2, "usage error"))),
    Command(
        name="restore", runner=_run_restore,
        help="restore a checkpointed session and verify its state "
             "digest",
        args=(
            arg("store", metavar="STORE",
                help="snapshot store directory to restore from"),
            arg("--ref", default="latest", metavar="NAME",
                help="snapshot ref or raw digest (default: latest)"),
            arg("--until", type=float, default=None, metavar="T",
                help="after the verified restore, advance the "
                     "simulation clock to T"),
        ),
        exit_codes=((0, "restored and verified"),
                    (1, "restore or verification failed"),
                    (2, "usage error"))),
)

REGISTRY: Dict[str, Command] = {command.name: command
                                for command in COMMANDS}


def build_parser() -> argparse.ArgumentParser:
    """Derive the full CLI parser from :data:`REGISTRY`."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's experiments on the "
                    "simulated testbed.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")
    for command in COMMANDS:
        command.add_to(sub)
    return parser


def main(argv=None) -> int:
    """Parse and dispatch; returns the process exit code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # bad args (or --help): report, don't raise
        code = exc.code
        return code if isinstance(code, int) else 2
    return REGISTRY[args.command].runner(args)
