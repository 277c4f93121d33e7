"""Tests for the command-line interface."""

from dataclasses import replace

import pytest

from repro.cli import _parse_kill_shard, build_parser, main


class TestCLI:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "mini_fasterm" in out
        assert "camera_pan" in out

    def test_firstorder(self, capsys):
        assert main(["firstorder", "--network", "faster16"]) == 0
        out = capsys.readouterr().out
        assert "conv5_3" in out
        assert "1.71e+11" in out

    def test_hardware(self, capsys):
        assert main(["hardware", "--network", "fasterm"]) == 0
        out = capsys.readouterr().out
        assert "EVA2 area" in out

    def test_run_static_interval(self, capsys):
        assert main([
            "run", "--scenario", "slow", "--seed", "1",
            "--frames", "6", "--interval", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "key frames: 2/6" in out

    def test_run_adaptive(self, capsys):
        assert main([
            "run", "--scenario", "static", "--seed", "1",
            "--frames", "5", "--threshold", "5.0",
        ]) == 0
        out = capsys.readouterr().out
        assert "key frames: 1/5" in out

    def test_run_workload_summary(self, capsys):
        assert main([
            "run", "--clips", "2", "--batch", "--frames", "4",
            "--scenario", "static",
        ]) == 0
        out = capsys.readouterr().out
        assert "lockstep" in out
        assert "frames/s" in out

    def test_serve_summary_and_verify(self, capsys):
        assert main([
            "serve", "--clips", "4", "--frames", "4", "--max-batch", "2",
            "--arrival-rate", "500", "--scenario", "static", "--verify",
        ]) == 0
        out = capsys.readouterr().out
        assert "serving" in out
        assert "mean occupancy" in out
        assert "bit-identical to its serial run: yes" in out

    def test_serve_sharded_verify(self, capsys):
        assert main([
            "serve", "--clips", "4", "--frames", "4", "--max-batch", "2",
            "--arrival-rate", "500", "--scenario", "static",
            "--serve-workers", "2", "--shard-backend", "serial", "--verify",
        ]) == 0
        out = capsys.readouterr().out
        assert "serve workers" in out
        assert "shard default/" in out
        assert "enqueue p99 ms" in out
        assert "bit-identical to its serial run: yes" in out

    def test_run_pipelined_workload(self, capsys):
        """The default policy estimates, so every lockstep step but the
        first consumes a head run during the previous step's tail."""
        assert main([
            "run", "--clips", "3", "--batch", "--frames", "5",
            "--scenario", "static",
        ]) == 0
        out = capsys.readouterr().out
        assert "lockstep" in out
        assert "pipelined steps" in out
        assert out.split("pipelined steps")[1].split()[0] == "4/5"

    def test_serve_shared_admission_verify(self, capsys):
        assert main([
            "serve", "--clips", "4", "--frames", "4", "--max-batch", "2",
            "--arrival-rate", "500", "--scenario", "static",
            "--serve-workers", "2", "--shard-backend", "serial",
            "--deadline", "5", "--verify",
        ]) == 0
        out = capsys.readouterr().out
        assert "shard default/0" in out and "shard default/1" in out
        assert "bit-identical to its serial run: yes" in out

    def test_serve_pipelined_verify(self, capsys):
        assert main([
            "serve", "--clips", "4", "--frames", "4", "--max-batch", "2",
            "--arrival-rate", "500", "--scenario", "static", "--verify",
        ]) == 0
        out = capsys.readouterr().out
        assert "bit-identical to its serial run: yes" in out

    @pytest.mark.parametrize("threshold", ["nan", "-1"])
    def test_bad_threshold_rejected(self, capsys, threshold):
        for command in ("run", "serve"):
            assert main([command, f"--threshold={threshold}"]) == 2
            assert "--threshold" in capsys.readouterr().err

    def test_serve_bad_serve_workers_rejected(self, capsys):
        assert main(["serve", "--serve-workers", "0"]) == 2
        assert "--serve-workers" in capsys.readouterr().err

    def test_serve_bad_arrival_rate_rejected(self, capsys):
        assert main(["serve", "--arrival-rate", "0"]) == 2
        assert "--arrival-rate" in capsys.readouterr().err

    def test_serve_bad_max_batch_rejected(self, capsys):
        assert main(["serve", "--max-batch", "0"]) == 2
        assert "--max-batch" in capsys.readouterr().err

    def test_workload_flags_require_multiple_clips(self, capsys):
        assert main(["run", "--batch"]) == 2
        assert "--clips" in capsys.readouterr().err

    def test_zero_clips_rejected(self, capsys):
        assert main(["run", "--clips", "0"]) == 2
        assert "--clips" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run", "--clips", "4", "--workers", "2"],
        ["run", "--speculate"],
        ["run", "--no-speculate"],
        ["serve", "--speculate"],
        ["serve", "--no-speculate"],
        ["run", "--clips", "2", "--batch", "--pipeline-depth", "1"],
        ["serve", "--pipeline-depth", "1"],
    ], ids=["run-workers", "run-speculate", "run-no-speculate",
            "serve-speculate", "serve-no-speculate",
            "run-pipeline-depth", "serve-pipeline-depth"])
    def test_removed_flags_rejected(self, argv):
        """The clip pool, speculative pipelining and the pipeline-depth
        knob are gone; their flags are argparse errors, not silently
        ignored."""
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["teleport"])

    def test_bad_network_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["hardware", "--network", "resnet"])


class TestCorrectnessPaths:
    """The int8 tolerance check behind ``serve --verify-tolerance`` and
    the ``--kill-shard`` parser, driven in process through ``main``."""

    SERVE = ["serve", "--clips", "6", "--frames", "8"]

    def test_verify_tolerance_met(self, capsys):
        assert main(self.SERVE + ["--dtype", "int8",
                                  "--verify-tolerance"]) == 0
        out = capsys.readouterr().out
        assert "tolerance contract (int8)" in out
        assert "tolerance contract met" in out

    def test_verify_tolerance_needs_a_quantized_dtype(self, capsys):
        assert main(self.SERVE + ["--dtype", "float64",
                                  "--verify-tolerance"]) == 2
        assert "needs a quantized --dtype" in capsys.readouterr().err

    def test_verify_tolerance_violation_fails(self, capsys, monkeypatch):
        from repro.nn.train import get_trained_network

        plan = get_trained_network(
            "mini_fasterm", fresh_copy=False
        ).inference_plan(1, "int8")
        monkeypatch.setattr(
            plan, "tolerance", replace(plan.tolerance, max_abs_error=1e-9)
        )
        assert main(self.SERVE + ["--dtype", "int8",
                                  "--verify-tolerance"]) == 1
        captured = capsys.readouterr()
        assert "(bound 0.0000)" in captured.out
        assert "violate the tolerance contract" in captured.err

    def test_kill_shard_parses(self):
        event = _parse_kill_shard("1@0.25")
        assert (event.kind, event.lane, event.shard, event.at) == (
            "kill", "default", 1, 0.25
        )

    def test_bad_kill_shard_rejected(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["serve", "--kill-shard", "x"])
        assert info.value.code == 2
        assert "SHARD@SECONDS" in capsys.readouterr().err
