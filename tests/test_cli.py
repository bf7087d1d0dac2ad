"""Tests for the command-line interface."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import build_parser, main

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_sim_options_parsed(self):
        args = build_parser().parse_args(
            ["fig2-sim", "--nodes", "20", "--duration", "60",
             "--topologies", "2"]
        )
        assert args.nodes == 20
        assert args.duration == 60.0
        assert args.topologies == 2

    def test_testbed_options_parsed(self):
        args = build_parser().parse_args(
            ["testbed", "--duration", "120", "--runs", "3", "--seed", "7"]
        )
        assert args.duration == 120.0
        assert args.runs == 3
        assert args.seed == 7


class TestAnalyticCommands:
    def test_fig1_prints_paper_values(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "6.000" in out and "5.000" in out
        assert "METX" in out

    def test_fig3_prints_paper_values(self, capsys):
        assert main(["fig3"]) == 0
        out = capsys.readouterr().out
        assert "3.750" in out and "0.512" in out


class TestSimulationCommands:
    def test_fig2_sim_tiny_run(self, capsys):
        code = main([
            "fig2-sim", "--nodes", "14", "--duration", "40",
            "--topologies", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Throughput-simulations" in out
        assert "Delay" in out
        assert "odmrp" in out and "spp" in out

    def test_table1_tiny_run(self, capsys):
        code = main([
            "table1", "--nodes", "14", "--duration", "40",
            "--topologies", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "overhead" in out
        assert "ett" in out and "spp" in out


class TestRunCommand:
    def test_dry_run_with_example_spec(self, capsys):
        code = main([
            "run", "--spec", str(EXAMPLES_DIR / "paper_spec.toml"),
            "--dry-run",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "experiment: paper-baseline" in out
        assert "6 protocols x 10 topologies = 60" in out
        assert "dry run" in out

    def test_dry_run_protocol_override(self, capsys):
        code = main([
            "run", "--spec", str(EXAMPLES_DIR / "maodv_sweep.toml"),
            "--protocols", "maodv,maodv-spp", "--seeds", "4",
            "--dry-run",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 protocols x 1 topologies = 2" in out
        assert "maodv-spp" in out
        assert "MaodvRouter" in out

    def test_dry_run_states_the_adaptive_run_cap(self, capsys):
        code = main([
            "run", "--spec", str(EXAMPLES_DIR / "adaptive_sweep.toml"),
            "--dry-run",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "runs: 3 protocols x up to 12 seeds = at most 36" in out
        assert "topologies" not in out

    def test_typoed_protocol_fails_with_suggestion(self, capsys):
        code = main([
            "run", "--protocols", "sppp", "--dry-run",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "unknown protocol 'sppp'" in err
        assert "did you mean" in err

    def test_missing_spec_file_fails_cleanly(self, capsys):
        code = main(["run", "--spec", "no/such/spec.toml", "--dry-run"])
        assert code == 1
        assert "ERROR" in capsys.readouterr().err

    def test_bad_seeds_rejected(self, capsys):
        code = main(["run", "--seeds", "1,two", "--dry-run"])
        assert code == 1
        assert "--seeds" in capsys.readouterr().err

    def test_run_tiny_spec_end_to_end(self, tmp_path, capsys):
        from repro.experiments.spec import ExperimentSpec
        from repro.experiments.scenarios import SimulationScenarioConfig

        spec = ExperimentSpec(
            name="cli-tiny",
            protocols=("odmrp", "spp"),
            seeds=(1,),
            config=SimulationScenarioConfig(
                num_nodes=8, area_width_m=450.0, area_height_m=450.0,
                num_groups=1, members_per_group=3,
                duration_s=10.0, warmup_s=4.0,
            ),
        )
        spec_path = tmp_path / "tiny.toml"
        report_path = tmp_path / "report.md"
        spec.save(str(spec_path))
        code = main([
            "run", "--spec", str(spec_path),
            "--report", str(report_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "# cli-tiny" in out
        assert report_path.exists()
        assert "Normalized throughput" in report_path.read_text()


class TestValidateCommand:
    def test_invalid_spec_fails_like_run(self, tmp_path, capsys):
        spec_path = tmp_path / "bad.toml"
        spec_path.write_text(
            'schema = 1\nname = "bad"\nprotocols = ["odmrp", "nosuch"]\n'
            "seeds = [1]\n"
        )
        for command in ("run", "validate"):
            assert main([command, "--spec", str(spec_path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("ERROR: unknown protocol 'nosuch'")

    def test_campaign_table_names_the_removal(self, tmp_path, capsys):
        spec_path = tmp_path / "old.toml"
        spec_path.write_text(
            'schema = 1\nname = "old"\nprotocols = ["odmrp"]\n'
            "seeds = [1]\n\n[campaign]\ndraws = 4\n"
        )
        for command in ("run", "validate"):
            assert main([command, "--spec", str(spec_path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("ERROR: ")
            assert "spec key 'campaign' is no longer supported" in err
            assert "delete the [campaign] table" in err
            assert "config.faults" not in err and "Traceback" not in err


class TestRemovedMobilitySurface:
    @pytest.mark.parametrize("table", [
        'mobility_models = ["static"]\n',
        '[config.mobility]\nmodel = "random-waypoint"\n',
        "[config.energy]\nenabled = true\n",
        "max_retries = 1\n",
        "[[config.obstacles.obstacles]]\nx_min_m = 100.0\n",
        "[[config.faults.outages]]\nnode_id = 2\nstart_s = 3.0\n"
        "end_s = 5.0\n",
        "[config.probing]\nadaptive = true\n",
    ], ids=["mobility_models", "config.mobility", "config.energy",
            "max_retries", "config.obstacles", "config.faults",
            "config.probing.adaptive"])
    def test_dry_run_names_the_removal(self, tmp_path, capsys, table):
        spec_path = tmp_path / "old.toml"
        spec_path.write_text(
            'schema = 1\nname = "old"\nprotocols = ["odmrp"]\n'
            "seeds = [1]\n" + table
        )
        assert main(["run", "--spec", str(spec_path), "--dry-run"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"ERROR: {spec_path}: ")
        assert "is no longer supported" in captured.err
        assert "was removed" in captured.err
        assert "Traceback" not in captured.err + captured.out

    def test_mobility_models_flag_exits_nonzero(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--mobility-models", "static", "--dry-run"])
        assert exc.value.code != 0


class TestRemovedFleetSurface:
    def test_backend_flag_and_worker_command_exit_nonzero(self):
        for argv in (["run", "--backend", "dir://x", "--dry-run"],
                     ["worker"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code != 0


class TestRemovedRetrySurface:
    @pytest.mark.parametrize("argv", [
        ["run", "--max-retries", "1", "--dry-run"],
        ["run", "--max-retries=1", "--dry-run"],
    ])
    def test_max_retries_flag_names_the_removal(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code != 0
        err = capsys.readouterr().err
        assert "--max-retries is no longer supported" in err
        assert "--resume" in err


class TestRunResume:
    def test_run_and_resume_are_bit_identical(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.experiments.spec import ExperimentSpec
        from repro.experiments.scenarios import SimulationScenarioConfig

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        spec = ExperimentSpec(
            name="cli-resume",
            protocols=("odmrp", "spp"),
            seeds=(1,),
            config=SimulationScenarioConfig(
                num_nodes=6, area_width_m=400.0, area_height_m=400.0,
                num_groups=1, members_per_group=3,
                duration_s=4.0, warmup_s=1.0,
            ),
        )
        spec_path = tmp_path / "resume.toml"
        spec.save(str(spec_path))
        first = tmp_path / "first.md"
        second = tmp_path / "second.md"
        # A run timeout stores every finished run, even under --no-cache.
        assert main([
            "run", "--spec", str(spec_path), "--jobs", "2",
            "--run-timeout", "120", "--no-cache", "--report", str(first),
        ]) == 0
        capsys.readouterr()
        # --resume replays every stored run without re-simulating, to
        # the byte-identical report.
        assert main([
            "run", "--spec", str(spec_path), "--jobs", "2",
            "--run-timeout", "120", "--no-cache", "--resume",
            "--report", str(second),
        ]) == 0
        assert "running" not in capsys.readouterr().out
        assert first.read_text() == second.read_text()


class TestProtocolsCommand:
    def test_lists_registry(self, capsys):
        assert main(["protocols"]) == 0
        out = capsys.readouterr().out
        assert "registered protocols" in out
        for name in ("odmrp", "spp", "maodv-spp", "wcett"):
            assert name in out
        assert "MaodvRouter" in out and "OdmrpRouter" in out


class TestTestbedCommands:
    def test_fig4(self, capsys):
        assert main(["fig4", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "2-5" in out and "lossy" in out

    def test_fig5_short_run(self, capsys):
        code = main(["fig5", "--duration", "90", "--runs", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "odmrp" in out and "pp" in out
        assert "lossy-link share" in out

    def test_testbed_short_run(self, capsys):
        code = main(["testbed", "--duration", "60", "--runs", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Throughput-testbed" in out
