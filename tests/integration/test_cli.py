"""Tests for the ``python -m repro`` command-line interface."""

from repro.__main__ import main


def test_figure5_cli(capsys):
    assert main(["figure5"]) == 0
    out = capsys.readouterr().out
    assert "Figure 5 (main)" in out
    assert "RP-YARN (Mode I)" in out
    assert "Compute-Unit startup" in out


def test_figure5_cli_renders_the_sweep_rows(capsys):
    """The verb and ``sweep figure5`` are one path: same cells, same
    per-cell seeds, same table."""
    from repro.experiments.figure5 import StartupRow, UnitStartupRow
    from repro.experiments.sweeps import run_sweep
    from repro.experiments.tables import figure5_report

    rows = [row for result in run_sweep("figure5", jobs=1).results
            for row in result["rows"]]
    expected = figure5_report(
        [StartupRow(**r) for r in rows if "pilot_startup" in r],
        [UnitStartupRow(**r) for r in rows if "unit_startup" in r])
    assert main(["figure5"]) == 0
    assert capsys.readouterr().out == expected + "\n\n"


def test_figure6_quick_cli(capsys):
    assert main(["figure6", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "Figure 6" in out
    assert "mean RP-YARN advantage" in out
    assert out.count("OK") >= 8  # every quick-grid cell validated


def test_ablations_cli(capsys):
    assert main(["ablations"]) == 0
    out = capsys.readouterr().out
    assert "A1" in out and "A2" in out and "A3" in out


def test_sensitivity_cli(capsys):
    assert main(["sensitivity"]) == 0
    out = capsys.readouterr().out
    assert "crossover" in out


def test_unknown_experiment_rejected():
    # main() is also the console-script entry point: usage errors come
    # back as exit code 2 rather than an escaping SystemExit.
    assert main(["figure7"]) == 2


def test_no_command_rejected():
    assert main([]) == 2


def test_trace_unknown_grid_rejected(capsys):
    assert main(["trace", "figure99", "--cell", "0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_trace_out_of_range_cell_rejected(capsys):
    assert main(["trace", "chaos", "--quick", "--cell", "4"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["trace", "chaos", "--quick", "--cell", "-1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_help_exits_zero():
    assert main(["--help"]) == 0


def test_sweep_list_prints_registered_grids(capsys):
    from repro.experiments.sweeps import GRIDS
    assert main(["sweep", "--list"]) == 0
    out = capsys.readouterr().out
    assert "registered sweep grids:" in out
    for name in GRIDS:
        assert name in out, f"sweep --list omits grid {name!r}"
    assert "cells" in out


def test_bare_sweep_lists_grids_and_usage(capsys):
    assert main(["sweep"]) == 0
    out = capsys.readouterr().out
    assert "registered sweep grids:" in out
    assert "usage: python -m repro sweep GRID" in out


def test_help_and_docstring_list_every_grid(capsys):
    """The CLI help and module docstring never drift from the grid
    registry (a previous release shipped help text missing ``chaos``)."""
    import repro.__main__ as cli
    from repro.experiments.sweeps import GRIDS
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for name in GRIDS:
        assert name in out, f"--help omits sweep grid {name!r}"
        assert name in cli.__doc__, \
            f"module docstring omits sweep grid {name!r}"


def test_raptor_sweep_quick_cli(capsys):
    assert main(["sweep", "raptor", "--quick", "--jobs", "1"]) == 0
    out = capsys.readouterr().out
    assert "sweep raptor:" in out
    assert "per-unit YARN" in out          # the headline speedup lines
    assert "equivalence" in out and "identical" in out


# ---------------------------------------------------------------------------
# Persistence verbs, resumable sweeps, and the declarative registry
# ---------------------------------------------------------------------------

import pytest


def test_registry_sanity():
    """Every verb is declared once, carries help text, and documents a
    success exit code."""
    from repro.cli import COMMANDS, REGISTRY
    names = [cmd.name for cmd in COMMANDS]
    assert len(names) == len(set(names))
    for cmd in COMMANDS:
        assert REGISTRY[cmd.name] is cmd
        assert cmd.help
        assert any(code == 0 for code, _ in cmd.exit_codes)


def test_deprecated_alias_table_matches_docs():
    from repro.cli import COMMANDS
    aliases = {(cmd.name, old)
               for cmd in COMMANDS
               for spec in cmd.args
               for old in spec.deprecated}
    assert ("sweep", "--out") in aliases
    assert ("trace", "--out") in aliases
    assert ("audit-state", "--update") in aliases


def test_deprecated_alias_warns_and_still_works(tmp_path):
    with pytest.warns(DeprecationWarning, match="--out is deprecated"):
        assert main(["sweep", "--list", "--out",
                     str(tmp_path / "ignored.json")]) == 0


def test_subcommand_help_documents_exit_codes(capsys):
    assert main(["checkpoint", "--help"]) == 0
    out = capsys.readouterr().out
    assert "exit codes" in out


def test_checkpoint_list_scenarios(capsys):
    assert main(["checkpoint", "--list"]) == 0
    out = capsys.readouterr().out
    assert "bag" in out and "raptor-stream" in out


def test_checkpoint_restore_cli_round_trip(tmp_path, capsys):
    store = str(tmp_path / "ckpt")
    assert main(["checkpoint", "bag", "--store", store, "--at", "80",
                 "--seed", "9", "--param", "ntasks=4",
                 "--param", "fault_rate=0.5"]) == 0
    out = capsys.readouterr().out
    assert "checkpointed scenario 'bag'" in out
    assert main(["restore", store, "--until", "120"]) == 0
    out = capsys.readouterr().out
    assert "state digest verified" in out
    assert "ran to t=" in out


def test_checkpoint_usage_errors(tmp_path):
    store = str(tmp_path / "ckpt")
    assert main(["checkpoint", "no-such-scenario", "--store", store]) == 2
    assert main(["checkpoint", "bag", "--store", store,
                 "--param", "missing-equals"]) == 2


def test_restore_missing_store_fails_cleanly(tmp_path, capsys):
    assert main(["restore", str(tmp_path / "nowhere")]) == 1
    assert "error:" in capsys.readouterr().err


def test_sweep_run_dir_resume_cli(tmp_path, capsys):
    run_dir = str(tmp_path / "run")
    base = ["sweep", "chaos", "--quick", "--jobs", "1",
            "--run-dir", run_dir]
    assert main(base + ["--max-cells", "2"]) == 0
    out = capsys.readouterr().out
    assert "INCOMPLETE" in out
    # same run dir without --resume is refused, not silently re-run
    assert main(base) == 1
    assert "--resume" in capsys.readouterr().err
    assert main(base + ["--resume"]) == 0
    out = capsys.readouterr().out
    assert "2 resumed" in out
    assert "INCOMPLETE" not in out
