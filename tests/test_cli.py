"""CLI smoke tests (every subcommand exercised through main())."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli
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
        """``train`` is the one deterministic stepper; multi-replica
        training is its ``--envs``."""
        with pytest.raises(SystemExit) as exit_info:
            main(self.TRAIN + flag)
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    def test_fast_conv_flag_is_gone(self, capsys):
        """The Q-network has one numeric path; there is nothing to opt into."""
        with pytest.raises(SystemExit) as exit_info:
            main(["train", "8", "--fast-conv"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --fast-conv" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["serve-learner", "cluster", "actor", "farm-worker", "stats", "obs"])
    def test_fleet_commands_are_gone(self, command, capsys):
        """One process trains at every size: the socket fleet went, and
        with it ``obs``, which reported the event ledgers fleet processes wrote."""
        with pytest.raises(SystemExit) as exit_info:
            main([command])
        assert exit_info.value.code == 2
        assert f"invalid choice: '{command}'" in capsys.readouterr().err

    def test_same_seed_twice_prints_the_same_bytes(self, capsys):
        """The differential-CLI fingerprint command is a function of its seed."""
        command = ["train", "8", "--steps", "60", "--seed", "3"]
        assert main(command) == 0
        first = capsys.readouterr().out
        assert main(command) == 0
        assert capsys.readouterr().out == first and "frontier" in first

    def test_same_run_twice_writes_the_same_checkpoint(self, tmp_path, capsys):
        """A snapshot holds only its own run's state: a run earlier in the
        same process leaves no trace in its bytes."""
        snapshots = []
        for name in ("first", "second"):
            command = ["train", "8", "--steps", "40", "--seed", "3", "--checkpoint-dir", str(tmp_path / name)]
            assert main(command) == 0
            snapshots.append((tmp_path / name / "step-00000040" / "state.json").read_bytes())
        assert snapshots[0] == snapshots[1]

    def test_envs_run_twice_prints_the_same_bytes(self, capsys):
        """E lockstep replicas are as deterministic as one env."""
        command = ["train", "8", "--steps", "60", "--seed", "3", "--envs", "3"]
        assert main(command) == 0
        first = capsys.readouterr().out
        assert main(command) == 0
        assert capsys.readouterr().out == first and "trained 60 steps" in first

    def test_envs_preempt_then_resume_matches_uninterrupted(self, tmp_path, capsys):
        """Over E=3 replicas ``--stop-after 25`` halts at the round boundary
        (step 27) and the resume finishes with the uninterrupted bytes."""
        command = self.TRAIN + ["--envs", "3"]
        assert main(command) == 0
        expected = capsys.readouterr().out

        ckpt = str(tmp_path / "ckpt")
        assert main(command + ["--checkpoint-dir", ckpt, "--stop-after", "25"]) == 0
        assert "checkpointed at step 27" in capsys.readouterr().err
        assert main(command + ["--checkpoint-dir", ckpt, "--resume"]) == 0
        assert capsys.readouterr().out == expected

    def test_resume_with_another_replica_count_is_refused(self, tmp_path, capsys):
        ckpt = str(tmp_path / "ckpt")
        assert main(self.TRAIN + ["--envs", "3", "--checkpoint-dir", ckpt, "--stop-after", "9"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit, match="holds 3 env replicas, this run steps 2; resume with --envs 3"):
            main(self.TRAIN + ["--envs", "2", "--checkpoint-dir", ckpt, "--resume"])

    @pytest.mark.parametrize(
        "resume, message",
        [
            (["train", "7"] + TRAIN[2:], "checkpoint's agent is 6 bits wide, this run's is 7; resume with width 6"),
            (TRAIN[:-1] + ["8"], "checkpoint's local network does not fit this agent: body.stages.0.bias is (4,)"),
        ],
    )
    def test_resume_into_another_network_is_refused_in_one_line(self, resume, message, tmp_path):
        """The refusal comes before anything loads (``TestARefusedResumeLeavesTheRunUntouched``
        holds the live run unchanged) and prints one line, no traceback."""
        ckpt = str(tmp_path / "ckpt")
        assert main(self.TRAIN + ["--checkpoint-dir", ckpt, "--stop-after", "20"]) == 0
        with pytest.raises(SystemExit) as excinfo:
            main(resume + ["--checkpoint-dir", ckpt, "--resume"])
        assert str(excinfo.value).startswith(message) and "\n" not in str(excinfo.value)

    def test_checkpoint_flags_require_dir(self):
        with pytest.raises(SystemExit, match="checkpoint-dir"):
            main(self.TRAIN + ["--stop-after", "10"])
        with pytest.raises(SystemExit, match="checkpoint-dir"):
            # 0 is falsy but still a request to stop.
            main(self.TRAIN + ["--stop-after", "0"])

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_stop_after_before_the_first_step_exits(self, value, tmp_path):
        with pytest.raises(SystemExit, match=f"argument --stop-after: must be a positive env step, got {value}"):
            main(self.TRAIN + ["--checkpoint-dir", str(tmp_path), "--stop-after", value])
        assert not any(tmp_path.iterdir())

    def test_resume_without_checkpoint_fails_clearly(self, tmp_path):
        with pytest.raises(SystemExit, match="no checkpoint found"):
            main(self.TRAIN + ["--resume", "--checkpoint-dir", str(tmp_path / "empty")])


class TestEnvsFlag:
    """``train --envs E``: E lockstep replicas in one process."""

    TRAIN = TestCliRuntime.TRAIN

    def run(self, argv, capsys):
        assert main(argv) == 0
        return capsys.readouterr()

    @pytest.mark.parametrize("envs", ["1", "2", "4", "6"])
    def test_a_seed_prints_the_same_bytes_twice(self, envs, capsys):
        command = self.TRAIN + ["--envs", envs]
        first = self.run(command, capsys).out
        assert self.run(command, capsys).out == first
        assert first.startswith("trained 40 steps (")

    @pytest.mark.parametrize("seed", ["0", "3", "7"])
    def test_one_replica_is_the_default_run(self, seed, capsys):
        command = ["train", "6", "--steps", "30", "--seed", seed, "--blocks", "0", "--channels", "4"]
        assert self.run(command + ["--envs", "1"], capsys).out == self.run(command, capsys).out

    @pytest.mark.parametrize("stop", [1, 13, 30])
    @pytest.mark.parametrize("envs", [2, 4])
    def test_preempt_then_resume_matches_uninterrupted(self, envs, stop, tmp_path, capsys):
        command = self.TRAIN + ["--envs", str(envs)]
        expected = self.run(command, capsys).out
        ckpt = ["--checkpoint-dir", str(tmp_path / "ckpt")]
        halted = self.run(command + ckpt + ["--stop-after", str(stop)], capsys)
        boundary = -(-stop // envs) * envs
        assert halted.out == ""
        assert halted.err.startswith(f"checkpointed at step {boundary} into ")
        assert self.run(command + ckpt + ["--resume"], capsys).out == expected

    def test_more_replicas_than_the_budget_still_trains_the_budget(self, capsys):
        out = self.run(["train", "6", "--steps", "5", "--seed", "1", "--blocks", "0", "--channels", "4",
                        "--envs", "8"], capsys).out
        assert out.startswith("trained 5 steps (0 gradient steps)\n")

    @pytest.mark.parametrize("value", ["x", "1.5", "", "2e0"])
    def test_a_non_integer_count_is_a_usage_error(self, value, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(self.TRAIN + ["--envs", value])
        assert exit_info.value.code == 2
        assert f"argument --envs: invalid int value: '{value}'" in capsys.readouterr().err

    def test_a_warm_store_rerun_pays_zero_misses(self, tmp_path, capsys):
        command = self.TRAIN + ["--envs", "3", "--store-dir", str(tmp_path / "store")]
        cold = self.run(command, capsys).out
        warm = self.run(command, capsys).out
        cold_lines, warm_lines = cold.splitlines(), warm.splitlines()
        # Same training, same frontier; only the cache line differs.
        assert cold_lines[0] == warm_lines[0] and cold_lines[2:] == warm_lines[2:]
        assert "misses=0" not in cold_lines[1] and "misses=0" in warm_lines[1]

    @pytest.mark.parametrize(
        "flag",
        [
            ["--connect", "127.0.0.1:1"], ["--farm", "127.0.0.1:2"], ["--farm-workers", "2"],
            ["--restart-budget", "1"], ["--listen", "127.0.0.1:0"], ["--heartbeat-timeout", "5"],
            ["--cluster-wait", "5"], ["--reconnect-attempts", "3"], ["--front-cache", "64"],
            ["--backpressure-lag", "4"], ["--throttle-seconds", "0.5"], ["--obs-dir", "obs"],
        ],
        ids=lambda flag: flag[0],
    )
    def test_fleet_knobs_are_gone(self, flag, capsys):
        """The fleet's rows left the flag table with the fleet."""
        with pytest.raises(SystemExit) as exit_info:
            main(self.TRAIN + flag)
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


COMMANDS = ["build", "eval", "synth", "train", "sweep", "render"]


class TestCommandList:
    """The top-level ``--help``, which ``scripts/diff_cli.sh`` pins, names
    every command; nothing else is one."""

    def test_help_lists_exactly_the_commands(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert f"{{{','.join(COMMANDS)}}}" in out
        assert re.findall(r"^    (\S+) ", out, flags=re.MULTILINE) == COMMANDS

    @pytest.mark.parametrize("command", COMMANDS)
    def test_every_listed_command_has_its_own_help(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: prefixrl {command} ")

    @pytest.mark.parametrize(
        "argv", [["obs", "report", "x"], ["obs", "report", "--rounds", "-1"]], ids=["report-dir", "report-rounds"]
    )
    def test_obs_report_is_an_invalid_choice(self, argv, tmp_path, monkeypatch, capsys):
        """Whatever follows it, ``obs`` is refused by argparse before
        anything is read or written."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "invalid choice: 'obs'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestFlagTable:
    def test_every_command_flag_is_declared(self):
        for command, (names, overrides) in cli._COMMANDS.items():
            assert set(names) <= set(cli._FLAGS), command
            assert set(overrides) <= set(names), command

    def test_every_declared_flag_has_a_command(self):
        """A row no command registers is dead."""
        used = {name for names, _overrides in cli._COMMANDS.values() for name in names}
        assert used == set(cli._FLAGS)

    def test_train_defaults(self):
        got = vars(cli.build_parser().parse_args(["train"]))
        names = ("width", "steps", "envs", "checkpoint_every", "stop_after", "resume", "store_dir")
        assert {k: got[k] for k in names} == {
            "width": 8, "steps": 150, "envs": 1, "checkpoint_every": 0, "stop_after": None, "resume": False,
            "store_dir": None,
        }


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
            (["train", "--envs", "0"], "--envs", "0"),
            (["train", "--envs", "-2"], "--envs", "-2"),
            (["train", "--stop-after", "0"], "--stop-after", "0"),
            (["train", "--checkpoint-every", "-1"], "--checkpoint-every", "-1"),
            (["sweep", "--weights", "0"], "--weights", "0"),
            (["sweep", "--steps", "0"], "--steps", "0"),
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
