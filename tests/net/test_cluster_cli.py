"""End-to-end CLI cluster: learner + real actor subprocesses, resume.

This is the acceptance check of the cluster PR: ``repro cluster
--actors 2`` on localhost completes a short run with *OS-process* actors,
writes a checkpoint, and ``--resume`` extends it to the full budget. The
CI cluster-smoke job runs this file on its own.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[2] / "src")


def run_cli(*args, timeout=240):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )


@pytest.mark.slow
def test_cluster_preempt_resume_end_to_end_with_farm(tmp_path):
    ckpt = tmp_path / "ckpt"
    first = run_cli(
        "cluster", "8",
        "--steps", "24",
        "--actors", "2",
        "--envs-per-actor", "2",
        "--farm-workers", "1",
        "--checkpoint-dir", str(ckpt),
        "--stop-after", "12",
        "--seed", "3",
    )
    assert first.returncode == 0, first.stderr
    assert "rerun with --resume" in first.stderr
    assert "warning: actor subprocess" not in first.stderr, first.stderr
    assert "farm workers listening on" in first.stderr
    # At least one actor routed at least one synthesis miss through the
    # farm-worker daemon (the actor→farm routing the CLI flag wires up).
    routed = re.findall(r"farm routed: dispatched=(\d+)", first.stderr)
    assert routed and sum(int(r) for r in routed) >= 1, first.stderr
    assert (ckpt / "LATEST").is_file()

    resumed = run_cli(
        "cluster", "8",
        "--actors", "2",
        "--envs-per-actor", "2",
        "--farm-workers", "1",
        "--checkpoint-dir", str(ckpt),
        "--resume",
        "--seed", "3",
    )
    assert resumed.returncode == 0, resumed.stderr
    assert "warning: actor subprocess" not in resumed.stderr, resumed.stderr
    assert "trained 24 steps" in resumed.stdout
    assert "shared cache:" in resumed.stdout
    assert "lease dedup:" in resumed.stderr
    assert "history frontier" in resumed.stdout
    # Both snapshots exist (preemption point and completion).
    steps = sorted(p.name for p in ckpt.iterdir() if p.name.startswith("step-"))
    assert steps == ["step-00000012", "step-00000024"]


@pytest.mark.slow
def test_cluster_obs_dir_produces_a_traceable_ledger(tmp_path):
    """``--obs-dir``: the whole fleet (learner, actor subprocesses, farm
    worker) writes one merged JSONL ledger — well-formed spans, at least
    one trace crossing process boundaries — and ``repro obs report``
    reconstructs the round breakdown from it after the run."""
    obs_dir = tmp_path / "obs"
    result = run_cli(
        "cluster", "8",
        "--steps", "12",
        "--actors", "2",
        "--envs-per-actor", "2",
        "--farm-workers", "1",
        "--obs-dir", str(obs_dir),
        "--seed", "3",
    )
    assert result.returncode == 0, result.stderr
    assert "warning: actor subprocess" not in result.stderr, result.stderr

    # One JSONL per process, named for its role.
    roles = {p.name.rsplit("-", 1)[0] for p in obs_dir.glob("*.jsonl")}
    assert {"learner", "actor", "farm"} <= roles, sorted(obs_dir.iterdir())

    sys.path.insert(0, SRC)
    from repro.obs.report import cross_process_traces, load_events, span_problems

    events = load_events(obs_dir)
    assert span_problems(events) == []
    # Everyone stamped the learner-minted run id.
    assert len({e["run"] for e in events if "run" in e}) == 1
    # At least one round's trace crossed a process boundary, and at least
    # one reached all the way through learner, actor and farm worker.
    crossing = cross_process_traces(events)
    assert crossing
    trace_roles = [
        {e.get("role") for e in trace_events} for trace_events in crossing.values()
    ]
    assert any({"learner", "actor"} <= roles_ for roles_ in trace_roles)
    assert any("farm" in roles_ for roles_ in trace_roles), (
        "no trace reached the farm worker"
    )

    report = run_cli("obs", "report", str(obs_dir))
    assert report.returncode == 0, report.stderr
    assert "spans: well-formed" in report.stdout
    assert "cross-process" in report.stdout
    assert "slowest rounds" in report.stdout


@pytest.mark.slow
def test_stats_cli_renders_a_live_fleet(tmp_path):
    """``repro stats --connect`` dials a live learner as an observer and
    renders the fleet table (membership, cache, merged obs counters)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve-learner", "8", "--steps", "12"],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
    )
    try:
        line = proc.stdout.readline()
        assert "learner listening on" in line, line
        address = line.strip().rsplit(" ", 1)[-1]

        result = run_cli("stats", "--connect", address)
        assert result.returncode == 0, result.stderr
        assert f"fleet @ {address}:" in result.stdout
        assert "membership: joins=0" in result.stdout
        assert "cache: entries=" in result.stdout
        assert "obs sources:" in result.stdout
    finally:
        proc.terminate()
        proc.wait(timeout=10)
        proc.stdout.close()

    # An unreachable learner is a clean failure, not a traceback.
    dead = run_cli("stats", "--connect", "127.0.0.1:9")
    assert dead.returncode == 1
    assert "cannot reach learner" in dead.stderr


@pytest.mark.slow
def test_farm_worker_cli_serves(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "farm-worker", "--listen", "127.0.0.1:0"],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        line = proc.stdout.readline()
        assert "farm worker listening on" in line
        address = line.strip().rsplit(" ", 1)[-1]

        sys.path.insert(0, SRC)
        from repro.net import RemoteFarmPool
        from repro.prefix import sklansky

        farm = RemoteFarmPool([address], "nangate45")
        curves = farm.run([sklansky(8)])
        assert len(curves) == 1 and len(curves[0].points()) >= 2
        farm.close()
    finally:
        proc.terminate()
        proc.wait(timeout=10)
        proc.stdout.close()
