"""CLI smoke tests (every subcommand exercised through main())."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main


class TestCli:
    def test_render(self, capsys):
        assert main(["render", "sklansky", "8"]) == 0
        out = capsys.readouterr().out
        assert "compute_nodes=12" in out

    def test_render_with_grid(self, capsys):
        assert main(["render", "brent_kung", "8", "--grid"]) == 0
        out = capsys.readouterr().out
        assert " I" in out  # grid view marker

    def test_eval_json(self, capsys):
        assert main(["eval", "kogge_stone", "16"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["compute_nodes"] == 49
        assert data["depth"] == 4

    def test_build_saves_design(self, tmp_path, capsys):
        out_file = tmp_path / "design.json"
        assert main(["build", "sklansky", "8", "--out", str(out_file)]) == 0
        data = json.loads(out_file.read_text())
        assert data["n"] == 8

    def test_roundtrip_through_file(self, tmp_path, capsys):
        out_file = tmp_path / "d.json"
        main(["build", "han_carlson", "8", "--out", str(out_file)])
        capsys.readouterr()
        assert main(["eval", str(out_file)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["n"] == 8

    def test_synth_prints_curve(self, capsys):
        assert main(["synth", "sklansky", "8", "--library", "industrial8nm"]) == 0
        out = capsys.readouterr().out
        assert "delay (ns)" in out
        assert len(out.strip().splitlines()) >= 3

    def test_unknown_structure_exits(self):
        with pytest.raises(SystemExit):
            main(["eval", "no_such_structure", "8"])

    def test_unknown_library_exits(self):
        with pytest.raises(SystemExit):
            main(["synth", "sklansky", "8", "--library", "tsmc3"])

    def test_sweep_runs_small(self, capsys):
        assert main(["sweep", "6", "--weights", "2", "--steps", "25",
                     "--blocks", "0", "--channels", "4"]) == 0
        out = capsys.readouterr().out
        assert "frontier" in out


class TestCliRuntime:
    """The train subcommand's runtime/checkpoint flags."""

    TRAIN = ["train", "6", "--steps", "40", "--seed", "3",
             "--blocks", "0", "--channels", "4"]

    def test_preempt_then_resume_matches_uninterrupted(self, tmp_path, capsys):
        # `train` is the one deterministic stepper.
        assert main(self.TRAIN) == 0
        expected = capsys.readouterr().out

        ckpt = str(tmp_path / "ckpt")
        assert main(self.TRAIN + ["--checkpoint-dir", ckpt, "--stop-after", "15"]) == 0
        captured = capsys.readouterr()
        assert "checkpointed at step 15" in captured.err
        assert "trained" not in captured.out

        assert main(self.TRAIN + ["--checkpoint-dir", ckpt, "--resume"]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize(
        "flag", [["--runtime", "async"], ["--actors", "2"], ["--envs-per-actor", "2"], ["--publish-every", "1"]],
        ids=lambda flag: flag[0],
    )
    def test_async_runtime_flags_are_gone(self, flag, capsys):
        """``train`` is the one deterministic stepper; multi-actor training
        on one host is ``repro cluster``, which keeps its own fleet flags."""
        with pytest.raises(SystemExit) as exit_info:
            main(self.TRAIN + flag)
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "cluster"])
    def test_fast_conv_flag_is_gone(self, command, capsys):
        """The Q-network has one numeric path; there is nothing to opt into."""
        with pytest.raises(SystemExit) as exit_info:
            main([command, "8", "--fast-conv"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --fast-conv" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [
            ["cluster", "8", "--inference"],
            ["serve-learner", "8", "--inference"],
            ["cluster", "8", "--inference-max-batch", "64"],
            ["serve-learner", "8", "--inference-max-wait", "0.01"],
            ["actor", "--connect", "127.0.0.1:1", "--inference", "127.0.0.1:2"],
        ],
        ids=lambda command: " ".join(command[:1] + command[-2:]),
    )
    def test_inference_flags_are_gone(self, command, capsys):
        """Every actor runs the one policy on its own snapshot network; the
        shared inference server (2.5x slower per request) left with its flags."""
        with pytest.raises(SystemExit) as exit_info:
            main(command)
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --inference" in capsys.readouterr().err

    def test_same_seed_twice_prints_the_same_bytes(self, capsys):
        """The differential-CLI fingerprint command is a function of its seed."""
        command = ["train", "8", "--steps", "60", "--seed", "3"]
        assert main(command) == 0
        first = capsys.readouterr().out
        assert main(command) == 0
        assert capsys.readouterr().out == first and "frontier" in first

    def test_checkpoint_flags_require_dir(self):
        with pytest.raises(SystemExit, match="checkpoint-dir"):
            main(self.TRAIN + ["--stop-after", "10"])
        with pytest.raises(SystemExit, match="checkpoint-dir"):
            # 0 is falsy but still a request to stop.
            main(self.TRAIN + ["--stop-after", "0"])

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_stop_after_before_the_first_step_exits(self, value, tmp_path):
        with pytest.raises(SystemExit, match="stop_after must be a positive env step"):
            main(self.TRAIN + ["--checkpoint-dir", str(tmp_path), "--stop-after", value])
        assert not any(tmp_path.iterdir())

    def test_resume_without_checkpoint_fails_clearly(self, tmp_path):
        from repro.rl import CheckpointError

        with pytest.raises(CheckpointError, match="no checkpoint found"):
            main(self.TRAIN + ["--resume", "--checkpoint-dir", str(tmp_path / "empty")])


class TestClusterKnobRanges:
    """A fleet knob out of range stops a cluster command before it binds a
    socket or spawns a process, with a message naming the field."""

    @pytest.mark.parametrize(
        "command, field",
        [
            (["cluster", "4", "--actors", "1", "--envs-per-actor", "0"], "envs_per_actor"),
            (["cluster", "4", "--farm-workers", "-1"], "farm_workers"),
            (["cluster", "4", "--heartbeat-timeout", "0"], "heartbeat_timeout"),
            (["cluster", "4", "--restart-budget", "-1"], "restart_budget"),
            (["serve-learner", "4", "--cluster-wait", "nan"], "cluster_wait"),
            (["serve-learner", "4", "--actors", "0"], "actors"),
            (["serve-learner", "4", "--publish-every", "0"], "publish_every"),
            (["actor", "--connect", "127.0.0.1:1", "--front-cache", "0"], "front_cache"),
            (["actor", "--connect", "127.0.0.1:1", "--heartbeat-timeout", "-1"], "heartbeat_timeout"),
        ],
        ids=lambda item: " ".join(item) if isinstance(item, list) else item,
    )
    def test_exits_naming_the_field_and_spawns_nothing(self, command, field, monkeypatch):
        import socket
        import subprocess

        def forbidden(*args, **kwargs):
            raise AssertionError("a rejected knob must not reach the network or a subprocess")

        monkeypatch.setattr(socket, "socket", forbidden)
        monkeypatch.setattr(subprocess, "Popen", forbidden)
        with pytest.raises(SystemExit, match=f"^{field} must be"):
            main(command)


class TestInputErrors:
    """A bad argument exits with one line naming it and its value — no
    traceback — before anything is built or written."""

    @pytest.mark.parametrize(
        "argv, argument, value",
        [
            (["build", "sklansky", "0"], "width", "0"),
            (["eval", "sklansky", "1"], "width", "1"),
            (["synth", "sklansky", "-3"], "width", "-3"),
            (["render", "kogge_stone", "1"], "width", "1"),
            (["train", "1"], "width", "1"),
            (["train", "2"], "width", "2"),
            (["sweep", "1"], "width", "1"),
            (["train", "--steps", "-5"], "--steps", "-5"),
            (["train", "--w-area", "1.5"], "--w-area", "1.5"),
            (["train", "--w-area", "-0.25"], "--w-area", "-0.25"),
            (["sweep", "--weights", "0"], "--weights", "0"),
            (["stats", "--connect", "127.0.0.1:1", "--interval", "-1"], "--interval", "-1.0"),
            (["stats", "--connect", "127.0.0.1:1", "--interval", "0"], "--interval", "0.0"),
            (["stats", "--connect", "127.0.0.1:1", "--interval", "nan"], "--interval", "nan"),
            (["obs", "report", "runs", "--rounds", "-1"], "--rounds", "-1"),
        ],
    )
    def test_out_of_range_argument_exits_naming_it(self, argv, argument, value, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        if argv[0] == "build":
            argv = argv + ["--out", "design.json"]
        if argv[0] == "train":
            argv = argv + ["--checkpoint-dir", "ckpt", "--store-dir", "store"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        message = exc.value.code
        assert isinstance(message, str) and "\n" not in message
        assert message.startswith(f"argument {argument}:") and message.endswith(f"got {value}")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "content, problem",
        [
            (None, "No such file"),
            ("{not json", "JSONDecodeError"),
            ("[]", "TypeError"),
            ('{"n": 4}', "KeyError"),
            ('{"n": 4, "interior_nodes": [[9, 1]]}', "outside the lower triangle"),
            ('{"n": 4, "interior_nodes": [[3, 1.5]]}', "IndexError"),
        ],
        ids=["missing", "malformed", "not-an-object", "no-nodes", "illegal-node", "float-node"],
    )
    def test_unloadable_design_file_exits_naming_it(self, content, problem, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        if content is not None:
            (tmp_path / "d.json").write_text(content)
        before = sorted(tmp_path.iterdir())
        for command in ("build", "eval", "synth", "render"):
            argv = [command, "d.json"] + (["--out", "out.json"] if command == "build" else [])
            with pytest.raises(SystemExit) as exc:
                main(argv)
            message = exc.value.code
            assert isinstance(message, str) and "\n" not in message
            assert message.startswith("argument structure: cannot load design file 'd.json'")
            assert problem in message
        assert sorted(tmp_path.iterdir()) == before

    def test_the_process_prints_one_stderr_line_and_fails(self, tmp_path):
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "build", "missing.json"],
            capture_output=True, text=True, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("argument structure: cannot load design file 'missing.json'")
