"""Command-line entry point: regenerate the paper's experiments.

Usage::

    python -m repro figure5              # pilot + CU startup tables
    python -m repro figure6 [--quick]    # the K-Means grid
    python -m repro ablations            # A1-A3
    python -m repro sensitivity          # the Lustre-bandwidth sweep
    python -m repro all [--quick]        # everything above
    python -m repro trace figure6 --quick           # list the cells
    python -m repro trace figure6 --quick --cell 1 --output DIR
    python -m repro sweep figure6 --jobs 4 --output results.json
    python -m repro sweep --list         # list the registered grids
    python -m repro sweep chaos --run-dir runs/c1       # crash-safe
    python -m repro sweep chaos --run-dir runs/c1 --resume
    python -m repro lint [--check]       # determinism linter (simlint)
    python -m repro lint --flow [--check]   # + cross-module taint (SIM10x)
    python -m repro audit-state [--check]   # snapshot-safety audit (SIM11x)
    python -m repro checkpoint bag --store ckpt --at 120
    python -m repro restore ckpt [--until T]

``--quick`` restricts Figure 6 to the smallest and largest scenarios
at 8 and 32 tasks (16 cells instead of 36).

``trace GRID --cell INDEX`` runs one cell of a sweep grid (``--cell``
omitted lists the grid's cells) with telemetry on every environment the
cell builds, prints its rows and per-environment telemetry, and writes
Chrome ``trace_event`` JSON (Perfetto/chrome://tracing), span, event
and metrics files — see :mod:`repro.telemetry.runner`.

``sweep`` runs a cell grid — one of ``figure5``, ``figure6``,
``ablations``, ``sensitivity``, ``chaos`` (fault injection),
``raptor`` (the task-overlay throughput comparison) or ``service``
(the multi-tenant pilot service) — over a process
pool (parallel by default, ``--jobs 1`` for the sequential reference
path) and writes a structured JSON result; ``sweep --list`` (or plain
``sweep``) prints the registered grid names — see
:mod:`repro.experiments.sweeps`.  With ``--run-dir`` the sweep is
crash-safe: the grid's identity is committed up front and every
finished cell is journaled durably, so a killed run resumed with
``--resume`` re-runs only the unfinished cells and produces a
byte-identical aggregate digest; ``--max-cells N`` bounds one
invocation for incremental runs.

``lint`` runs simlint, the determinism linter, over the simulation
sources (wall-clock calls, unseeded RNG, salted ``hash()``, module
globals, unordered iteration, swallowed exceptions) — see
:mod:`repro.analysis.simlint`.  ``--check`` makes new-vs-baseline
findings a non-zero exit for CI.  ``--flow`` adds the import-graph-
aware SIM10x taint pass (:mod:`repro.analysis.simflow`): wall-clock /
global-RNG / salted-hash / process-environment values tracked across
assignments, returns and module boundaries until they reach an
event-schedule, digest, aggregate-row or telemetry sink.

``audit-state`` walks every class reachable from ``Session`` /
``Environment`` / ``PilotService`` and classifies each attribute as
snapshot-safe or hazardous (open handles, live generators, executor
handles, bound callables, module-global backrefs — SIM11x), deriving
the committed ``state-manifest.json`` contract the checkpoint layer
serializes against — see :mod:`repro.analysis.snapshot`.  ``--check``
fails on manifest (= checkpoint-schema) drift or un-baselined hazards;
``--update-manifest`` rewrites the manifest.  Both passes share
``lint``'s suppression and baseline machinery and a ``--graph-cache``
that reuses one import-graph build across CI steps.

``checkpoint`` launches a registered scenario (``checkpoint --list``
names them), optionally advances the clock with ``--at T``, and writes
a crash-safe snapshot into a content-addressed store; ``restore``
rebuilds the session in a fresh process by deterministic replay and
*proves* the state digest matches before exiting 0 — see
:mod:`repro.persist`.

Every verb is declared in the :data:`repro.cli.REGISTRY` command
registry (name, arguments, runner, exit codes); renamed flags keep
their old spellings as deprecation-gated aliases (``--out`` for
``--output`` on ``sweep``/``trace``, ``--update`` for
``--update-manifest`` on ``audit-state``).

``main`` returns the process exit code (0 success, 2 usage errors)
instead of raising ``SystemExit``, so it doubles as the console-script
entry point.
"""

from __future__ import annotations

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main())
