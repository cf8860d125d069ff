"""YARN configuration: resources and timing constants.

Field names echo the ``yarn-site.xml`` properties they stand in for;
values are calibrated so the end-to-end choreography reproduces the
overheads of the paper's Figure 5 (see DESIGN.md §5).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class YarnConfig:
    """Cluster-wide YARN settings."""

    # --- resources (yarn.nodemanager.resource.*) -------------------------
    #: Memory a NodeManager offers, as a fraction of node RAM (the rest
    #: is left to the OS and daemons, as admins configure in practice).
    nm_memory_fraction: float = 0.8
    #: Vcores offered per NM, as a multiple of physical cores.
    nm_vcore_ratio: float = 1.0
    #: Scheduler minimum/maximum single-container allocation (MB).
    min_allocation_mb: int = 256
    max_allocation_mb: int = 1024 * 1024

    # --- protocol cadence -------------------------------------------------
    #: NodeManager -> RM heartbeat; allocations happen on these ticks.
    nm_heartbeat: float = 1.0
    #: Containers assigned per node heartbeat (classic YARN assigns
    #: one; bounding this spreads load across nodes instead of piling
    #: every pending request onto whichever NM heartbeats first).
    max_assignments_per_heartbeat: int = 4
    #: ApplicationMaster -> RM allocate() polling interval.
    am_heartbeat: float = 1.0
    #: Heartbeats to wait for a node-local slot before relaxing locality.
    locality_delay_heartbeats: int = 3
    #: Consecutive missed NM heartbeats before the RM declares the node
    #: LOST and reclaims its containers
    #: (yarn.nm.liveness-monitor.expiry-interval-ms, in beats).
    nm_liveness_heartbeats: int = 3

    # --- fault tolerance (yarn.resourcemanager.am.max-attempts et al.) -----
    #: Container (re-)attempts per unit inside the per-unit AM; 1 =
    #: single shot (the seed behaviour — failures surface immediately).
    am_max_attempts: int = 1
    #: Base backoff before a container re-attempt (seconds), growing by
    #: ``am_retry_backoff_factor`` per attempt, capped at
    #: ``am_retry_backoff_cap`` — YARN's capped exponential policy.
    am_retry_backoff: float = 2.0
    am_retry_backoff_factor: float = 2.0
    am_retry_backoff_cap: float = 60.0

    # --- launch costs (the JVM tax) ----------------------------------------
    #: ``yarn jar`` client JVM start + app submission RPC.
    client_submit_seconds: float = 4.0
    #: Container launch: localization + JVM spin-up.
    container_launch_seconds: float = 7.0
    #: AM business logic from launch to registered-with-RM.
    am_register_seconds: float = 2.0
    #: RM-side bookkeeping per submitted application.
    rm_submit_latency: float = 0.5

    # --- daemon startup (paid by the Mode I bootstrap) ---------------------
    rm_startup_seconds: float = 5.0
    nm_startup_seconds: float = 3.0

    def scaled(self, cpu_speed: float) -> "YarnConfig":
        """Timing constants scaled for faster/slower CPUs.

        JVM spin-up, client startup and daemon boot are CPU-bound, so
        a machine with ``cpu_speed`` > 1 (e.g. Wrangler) pays
        proportionally less; protocol cadence (heartbeats) stays fixed.
        """
        from dataclasses import replace
        s = 1.0 / cpu_speed
        return replace(
            self,
            client_submit_seconds=self.client_submit_seconds * s,
            container_launch_seconds=self.container_launch_seconds * s,
            am_register_seconds=self.am_register_seconds * s,
            rm_startup_seconds=self.rm_startup_seconds * s,
            nm_startup_seconds=self.nm_startup_seconds * s)

    def nm_memory_mb(self, node_memory_bytes: float) -> int:
        """Memory (MB) a NodeManager on this node advertises."""
        return int(node_memory_bytes * self.nm_memory_fraction // (1024 ** 2))

    def nm_vcores(self, node_cores: int) -> int:
        return max(1, int(node_cores * self.nm_vcore_ratio))
