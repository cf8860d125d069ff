"""The repro.api facade, and repro.core as a plain package of submodules."""

import importlib
import re
import warnings
from pathlib import Path

import pytest

import repro.api
import repro.core
from repro.api import PilotManager, Session, UnitManager
from repro.faults.plan import FaultPlan


def test_api_surface_is_complete():
    for name in repro.api.__all__:
        assert getattr(repro.api, name) is not None, name
    # the headline objects are the canonical ones, not copies
    from repro.core.session import Session as home_session
    assert repro.api.Session is home_session


def test_session_facade_hands_out_singletons(stack):
    env, registry, session, pmgr, umgr = stack
    assert session.pilot_manager() is session.pilot_manager()
    assert session.unit_manager() is session.unit_manager()
    assert isinstance(session.pilot_manager(), PilotManager)
    assert isinstance(session.unit_manager(), UnitManager)


def test_session_facade_kwargs_build_fresh_managers(stack):
    env, registry, session, pmgr, umgr = stack
    from repro.api import BackfillScheduler, RestartPolicy
    singleton = session.unit_manager()
    custom = session.unit_manager(restart_policy=RestartPolicy())
    assert custom is not singleton
    assert custom.restart_policy is not None
    assert session.unit_manager() is singleton
    assert session.unit_manager(
        scheduler=BackfillScheduler()) is not singleton
    fresh_pmgr = session.pilot_manager(heartbeat_timeout=10.0)
    assert fresh_pmgr is not session.pilot_manager()


def test_session_faults_installs_injector(stack):
    env, registry, session, pmgr, umgr = stack
    assert env.faults is None
    plan = session.faults
    assert isinstance(plan, FaultPlan)
    assert session.faults is plan            # cached
    assert env.faults is plan.injector       # installed on the env


def test_session_telemetry_installs_hub(stack):
    env, registry, session, pmgr, umgr = stack
    tel = session.telemetry
    assert env.telemetry is tel
    assert session.telemetry is tel


def test_core_submodule_imports_stay_silent():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        core_session = importlib.import_module("repro.core.session")
        assert core_session.Session is Session


def test_core_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="Nonsense"):
        repro.core.Nonsense


def test_no_deprecated_core_imports_left_in_src():
    """The migration gate: src/ imports the facade's names from
    repro.api, never from repro.core."""
    src = Path(repro.api.__file__).resolve().parents[1]
    pattern = re.compile(
        r"^\s*from repro\.core import (?P<names>[^(\n]+)$", re.MULTILINE)
    aliased = set(repro.api.__all__)
    offenders = []
    for path in sorted(src.rglob("*.py")):
        for match in pattern.finditer(path.read_text()):
            names = {n.strip() for n in match.group("names").split(",")}
            if names & aliased:
                offenders.append(f"{path.name}: {sorted(names & aliased)}")
    assert not offenders, offenders
