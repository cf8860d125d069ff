"""The cell runner behind ``python -m repro trace``.

Runs one sweep cell (any grid, any kind — see
:mod:`repro.experiments.sweeps`) exactly as ``sweep`` does, with
telemetry installed on every :class:`~repro.sim.engine.Environment` the
cell constructs, then writes each environment's observability
artifacts:

* ``trace.json``   — Chrome ``trace_event`` JSON; open in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing``;
* ``spans.jsonl``  — the raw span records with explicit parent ids;
* ``events.jsonl`` — every bus event (state transitions, heartbeats,
  container lifecycle, HDFS commits...);
* ``metrics.jsonl``— counters/gauges/histograms keyed on sim time.

A one-environment cell writes the four files into the output directory
itself; a cell that builds several environments writes one set per
environment into ``env0/``, ``env1/``, ... in construction order.
Telemetry only observes, so the traced rows equal ``run_cell``'s.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Tuple

from repro.telemetry import ProfilerBridge, Telemetry

#: One traced environment: its hub and the bridge subscribed to it
#: from construction on.
Traced = Tuple[Telemetry, ProfilerBridge]


def trace_cell(cell) -> Tuple[Dict[str, Any], List[Traced]]:
    """Run ``cell`` with telemetry on every environment it constructs.

    Returns ``run_cell``'s result and the traced environments in
    construction order.
    """
    from repro import telemetry
    from repro.experiments.sweeps import run_cell
    from repro.sim.engine import ON_NEW_ENVIRONMENT

    traced: List[Traced] = []

    def install(env) -> None:
        tel = telemetry.install(env)
        traced.append((tel, tel.profiler_bridge()))

    token = ON_NEW_ENVIRONMENT.set(install)
    try:
        result = run_cell(cell)
    finally:
        ON_NEW_ENVIRONMENT.reset(token)
    return result, traced


def write_artifacts(tel, out_dir: str) -> Dict[str, str]:
    """Dump trace/spans/events/metrics files; returns name -> path."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "trace": os.path.join(out_dir, "trace.json"),
        "spans": os.path.join(out_dir, "spans.jsonl"),
        "events": os.path.join(out_dir, "events.jsonl"),
        "metrics": os.path.join(out_dir, "metrics.jsonl"),
    }
    with open(paths["trace"], "w") as fh:
        json.dump(tel.tracer.chrome_trace(instants=tel.bus.events), fh)
    with open(paths["spans"], "w") as fh:
        fh.write(tel.tracer.to_jsonl() + "\n")
    with open(paths["events"], "w") as fh:
        fh.write(tel.bus.to_jsonl() + "\n")
    with open(paths["metrics"], "w") as fh:
        fh.write(tel.metrics.to_jsonl() + "\n")
    return paths


def write_all(traced: List[Traced], out_dir: str) -> List[Dict[str, str]]:
    """Write every traced environment's artifacts: into ``out_dir``
    itself for a one-environment cell, else into ``out_dir/env<i>``."""
    if len(traced) == 1:
        return [write_artifacts(traced[0][0], out_dir)]
    return [write_artifacts(tel, os.path.join(out_dir, f"env{i}"))
            for i, (tel, _) in enumerate(traced)]


def format_report(result: Dict[str, Any], traced: List[Traced],
                  artifacts: Optional[List[Dict[str, str]]] = None) -> str:
    """Human-readable summary for the CLI: the cell's rows, then one
    block per traced environment."""
    from repro.core import profiler

    lines = [f"trace: {result['key']} (seed {result['seed']}, "
             f"{len(traced)} environment(s))"]
    for row in result["rows"]:
        lines.append("  row " + ", ".join(
            f"{k}={v}" for k, v in sorted(row.items())))
    for i, (tel, bridge) in enumerate(traced):
        env = tel.env
        units = bridge.units()
        lines += [
            f"environment {i}: horizon {env.now:.1f} s, "
            f"{env.steps} events processed",
            f"  spans recorded     {len(tel.tracer.spans)}",
            f"  events recorded    {len(tel.bus.events)}",
            f"  metrics recorded   {len(tel.metrics.names())}",
            f"  peak concurrency   {profiler.peak_concurrency(units)}",
            "  phase means (s, via live ProfilerBridge):",
        ]
        for label, value in profiler.phase_means(units).items():
            shown = "-" if value is None else f"{value:.2f}"
            lines.append(f"    {label:<10} {shown}")
        for name, path in (artifacts[i] if artifacts else {}).items():
            lines.append(f"  wrote {name:<8} {path}")
    if artifacts:
        lines.append("open trace.json in https://ui.perfetto.dev "
                     "or chrome://tracing")
    return "\n".join(lines)
