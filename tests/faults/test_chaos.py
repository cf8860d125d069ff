"""Chaos sweep: grid shape, determinism, and scenario invariants."""

import dataclasses

import pytest

from repro.experiments.chaos import drain_bag, run_chaos_bag, run_nm_loss
from repro.experiments.sweeps import (
    build_cells,
    chaos_cells,
    run_cell,
    run_sweep,
)
from repro.persist import launch, restore


def _cell(kind, **params):
    matches = [c for c in chaos_cells(42)
               if c.kind == kind
               and all(dict(c.params).get(k) == v
                       for k, v in params.items())]
    assert matches, (kind, params)
    return matches[0]


def test_chaos_grid_shape():
    assert len(chaos_cells(42)) == 5
    assert len(chaos_cells(42, quick=True)) == 4
    assert build_cells("chaos", 42) == chaos_cells(42)
    kinds = {c.kind for c in chaos_cells(42)}
    assert kinds == {"bag", "nm-loss", "hdfs-heal"}


def test_hdfs_heal_cell_restores_replication_and_is_hermetic():
    cell = _cell("hdfs-heal")
    first, second = run_cell(cell), run_cell(cell)
    assert first["rows"] == second["rows"]
    row = first["rows"][0]
    assert row["rf_before"] == 2
    assert row["rf_after_loss"] == 1
    assert row["rf_restored"] == 2     # replication factor restored
    assert row["mttr"] > 0


def test_chaos_bag_restarts_recover_every_poisoned_unit():
    clean = run_chaos_bag(fault_rate=0.0, ntasks=8, seed=7)
    chaotic = run_chaos_bag(fault_rate=0.5, ntasks=8, seed=7)
    assert clean.poisoned == 0 and clean.restarts == 0
    assert clean.done == chaotic.done == 8
    assert chaotic.poisoned == 4
    assert chaotic.restarts == 4       # one restart per poisoned unit
    assert chaotic.recovered == 4      # each finished under a new uid
    assert chaotic.makespan > clean.makespan


def test_nm_loss_reattempts_finish_every_unit():
    row = run_nm_loss(ntasks=6, seed=7)
    assert row.done == row.units == 6
    assert row.nodes_lost == 1
    assert row.reattempts >= 1


def test_chaos_sweep_parallel_matches_sequential():
    cells = [_cell("bag", fault_rate=0.25), _cell("hdfs-heal")]
    sequential = run_sweep("chaos", root_seed=42, jobs=1, cells=cells)
    parallel = run_sweep("chaos", root_seed=42, jobs=2, cells=cells)
    assert parallel.aggregate_json() == sequential.aggregate_json()
    assert parallel.digest() == sequential.digest()


def test_chaos_cell_identical_with_sanitizer_armed(monkeypatch):
    cell = _cell("bag", fault_rate=0.25)
    plain = run_cell(cell)["rows"]
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sanitized = run_cell(cell)["rows"]
    assert sanitized == plain


def test_bag_scenario_and_chaos_bag_share_defaults():
    """The ``bag`` scenario and the chaos bag cell default alike, so a
    chaos cell's own parameters launch exactly the grid's bag."""
    import inspect

    from repro.persist.scenarios import bag

    def defaults(fn):
        return {name: p.default
                for name, p in inspect.signature(fn).parameters.items()
                if p.default is not inspect.Parameter.empty}

    assert defaults(bag) == {
        name: value for name, value in defaults(run_chaos_bag).items()
        if name != "seed"}
    assert defaults(bag)["ntasks"] == 16 and defaults(bag)["nodes"] == 2


@pytest.mark.parametrize("offset", [1.0, 45.0, 90.0])
def test_bag_cell_checkpoint_restore_drain_matches_uninterrupted(
        tmp_path, offset):
    """A real grid cell survives a checkpoint: launch the ``bag``
    scenario with a chaos cell's parameters, checkpoint it ``offset``
    simulated seconds after submission, restore, drain — the row is
    the uninterrupted cell's."""
    cell = _cell("bag", fault_rate=0.25)
    params = dict(cell.params)
    expected = run_chaos_bag(seed=cell.seed, **params)
    assert run_cell(cell)["rows"] == [dataclasses.asdict(expected)]

    session = launch("bag", seed=cell.seed, **params)
    session.env.run(until=session.handles["t_submit"] + offset)
    session.checkpoint(tmp_path / "ckpt")
    restored = restore(tmp_path / "ckpt")
    assert restored.env.now == session.env.now
    assert drain_bag(restored) == expected
    assert drain_bag(session) == expected
