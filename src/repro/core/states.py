"""Pilot and Compute-Unit state models (after RADICAL-Pilot's)."""

from __future__ import annotations

import enum


class PilotState(enum.Enum):
    """Lifecycle of a ComputePilot.

    ``NEW -> PENDING_LAUNCH -> LAUNCHING -> PENDING_ACTIVE -> ACTIVE``
    then one of ``DONE`` (walltime/agent exit), ``CANCELED``, ``FAILED``.
    """

    NEW = "New"
    PENDING_LAUNCH = "PendingLaunch"
    LAUNCHING = "Launching"
    PENDING_ACTIVE = "PendingActive"
    ACTIVE = "Active"
    DONE = "Done"
    CANCELED = "Canceled"
    FAILED = "Failed"

    @property
    def is_final(self) -> bool:
        return self in (PilotState.DONE, PilotState.CANCELED,
                        PilotState.FAILED)


PILOT_TRANSITIONS = {
    PilotState.NEW: {PilotState.PENDING_LAUNCH, PilotState.CANCELED},
    PilotState.PENDING_LAUNCH: {PilotState.LAUNCHING, PilotState.CANCELED,
                                PilotState.FAILED},
    PilotState.LAUNCHING: {PilotState.PENDING_ACTIVE, PilotState.CANCELED,
                           PilotState.FAILED},
    PilotState.PENDING_ACTIVE: {PilotState.ACTIVE, PilotState.CANCELED,
                                PilotState.FAILED},
    PilotState.ACTIVE: {PilotState.DONE, PilotState.CANCELED,
                        PilotState.FAILED},
}


class UnitState(enum.Enum):
    """Lifecycle of a Compute-Unit.

    ``NEW -> UMGR_SCHEDULING -> AGENT_STAGING_INPUT ->
    AGENT_SCHEDULING -> EXECUTING -> AGENT_STAGING_OUTPUT -> DONE``
    with ``FAILED``/``CANCELED`` reachable from any non-final state.
    """

    NEW = "New"
    UMGR_SCHEDULING = "UmgrScheduling"
    AGENT_STAGING_INPUT = "AgentStagingInput"
    AGENT_SCHEDULING = "AgentScheduling"
    EXECUTING = "Executing"
    AGENT_STAGING_OUTPUT = "AgentStagingOutput"
    DONE = "Done"
    CANCELED = "Canceled"
    FAILED = "Failed"

    @property
    def is_final(self) -> bool:
        return self in (UnitState.DONE, UnitState.CANCELED, UnitState.FAILED)


_UNIT_ORDER = [
    UnitState.NEW, UnitState.UMGR_SCHEDULING, UnitState.AGENT_STAGING_INPUT,
    UnitState.AGENT_SCHEDULING, UnitState.EXECUTING,
    UnitState.AGENT_STAGING_OUTPUT, UnitState.DONE,
]

UNIT_TRANSITIONS = {
    state: {_UNIT_ORDER[i + 1], UnitState.FAILED, UnitState.CANCELED}
    for i, state in enumerate(_UNIT_ORDER[:-1])
}


class ServiceState:
    """Coarse Pilot-API state strings (the BigJob vocabulary).

    The first-generation Pilot-API exposed six string states; both the
    :mod:`repro.pilot_api` facade and the :mod:`repro.service` query
    surface report them.  This is the single source of truth.
    """

    UNKNOWN = "Unknown"
    NEW = "New"
    RUNNING = "Running"
    DONE = "Done"
    CANCELED = "Canceled"
    FAILED = "Failed"

    FINAL = (DONE, CANCELED, FAILED)

    @classmethod
    def is_final(cls, state: str) -> bool:
        return state in cls.FINAL


#: Fine-grained pilot state -> coarse Pilot-API string.
COARSE_PILOT_STATES = {
    PilotState.NEW: ServiceState.NEW,
    PilotState.PENDING_LAUNCH: ServiceState.NEW,
    PilotState.LAUNCHING: ServiceState.NEW,
    PilotState.PENDING_ACTIVE: ServiceState.NEW,
    PilotState.ACTIVE: ServiceState.RUNNING,
    PilotState.DONE: ServiceState.DONE,
    PilotState.CANCELED: ServiceState.CANCELED,
    PilotState.FAILED: ServiceState.FAILED,
}

#: Fine-grained unit state -> coarse Pilot-API string.
COARSE_UNIT_STATES = {
    UnitState.NEW: ServiceState.NEW,
    UnitState.UMGR_SCHEDULING: ServiceState.NEW,
    UnitState.AGENT_STAGING_INPUT: ServiceState.NEW,
    UnitState.AGENT_SCHEDULING: ServiceState.NEW,
    UnitState.EXECUTING: ServiceState.RUNNING,
    UnitState.AGENT_STAGING_OUTPUT: ServiceState.RUNNING,
    UnitState.DONE: ServiceState.DONE,
    UnitState.CANCELED: ServiceState.CANCELED,
    UnitState.FAILED: ServiceState.FAILED,
}


def check_transition(table, current, new) -> None:
    """Raise ``ValueError`` unless ``current -> new`` is in ``table``."""
    allowed = table.get(current, set())
    if new not in allowed:
        raise ValueError(
            f"illegal transition {current.value} -> {new.value}")
