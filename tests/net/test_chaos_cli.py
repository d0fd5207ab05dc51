"""Chaos e2e: SIGKILL fleet children mid-run; the cluster still lands.

The acceptance run of the elastic-fleet PR (and the CI chaos-smoke job):
``repro cluster`` with real OS-process actors and a farm-worker daemon
takes a SIGKILL to one actor *and* the farm worker mid-run. The
supervisor respawns both within its restart budget, training reaches the
preemption point, and a chaos-free ``--resume`` extends the checkpoint to
the full budget — recovery never costs correctness. Every wait here is
``wait_until`` with a deadline and a message; no sleep-and-hope.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[2] / "src")
sys.path.insert(0, SRC) if SRC not in sys.path else None

from repro.net import wait_until  # noqa: E402


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def run_cli(*args, timeout=240):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=cli_env(),
    )


def children_of(pid: int) -> "list[tuple[int, str]]":
    """(pid, cmdline) of every live direct child — /proc, pure stdlib."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
            ppid = int(stat.rsplit(")", 1)[1].split()[1])
            if ppid != pid:
                continue
            cmd = Path(f"/proc/{entry}/cmdline").read_bytes()
            out.append((int(entry), cmd.decode(errors="replace").replace("\0", " ")))
        except (OSError, ValueError, IndexError):
            continue
    return out


def find_child(pid: int, needle: str) -> "int | None":
    for child_pid, cmd in children_of(pid):
        if needle in cmd:
            return child_pid
    return None


@pytest.mark.slow
def test_cluster_survives_killed_actor_and_farm_worker(tmp_path):
    ckpt = tmp_path / "ckpt"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro",
            "cluster", "8",
            "--steps", "24",
            "--actors", "2",
            "--envs-per-actor", "2",
            "--farm-workers", "1",
            "--checkpoint-dir", str(ckpt),
            "--stop-after", "12",
            "--restart-budget", "2",
            "--seed", "3",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=cli_env(),
    )
    stderr_lines: "list[str]" = []
    stdout_lines: "list[str]" = []

    def drain(stream, into):
        for line in stream:
            into.append(line)

    threads = [
        threading.Thread(target=drain, args=(proc.stderr, stderr_lines), daemon=True),
        threading.Thread(target=drain, args=(proc.stdout, stdout_lines), daemon=True),
    ]
    for t in threads:
        t.start()
    try:
        # Wait for the fleet to exist: the farm daemon announced itself and
        # both actor subprocesses are alive under the cluster process.
        wait_until(
            lambda: any("farm workers listening on" in l for l in stderr_lines),
            timeout=120.0,
            message="the farm worker to announce itself",
        )
        wait_until(
            lambda: find_child(proc.pid, " actor --connect") is not None,
            timeout=120.0,
            message="an actor subprocess to appear",
        )
        farm_pid = wait_until(
            lambda: find_child(proc.pid, "farm-worker"),
            timeout=120.0,
            message="the farm-worker subprocess to appear",
        )
        actor_pid = find_child(proc.pid, " actor --connect")

        # Chaos: SIGKILL one actor and the only farm worker mid-run.
        os.kill(actor_pid, signal.SIGKILL)
        os.kill(farm_pid, signal.SIGKILL)

        # The supervisor notices and respawns both within its budget.
        wait_until(
            lambda: sum("supervisor: respawned" in l for l in stderr_lines) >= 2,
            timeout=120.0,
            message="the supervisor to respawn both children",
        )
        assert proc.wait(timeout=240) == 0, "".join(stderr_lines)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        for t in threads:
            t.join(timeout=10)
        proc.stdout.close()
        proc.stderr.close()

    stderr = "".join(stderr_lines)
    stdout = "".join(stdout_lines)
    assert any("respawned actor-" in l for l in stderr_lines), stderr
    assert any("respawned farm-worker-" in l for l in stderr_lines), stderr
    # Recovery, not luck: the fleet summary admits the chaos it absorbed.
    assert "fleet: respawns=2" in stderr, stderr
    assert "fleet: joins=" in stderr, stderr
    # A SIGKILLed actor is a *crash*; only respawned replacements may
    # exit nonzero — and none did (the run preempted cleanly).
    assert "rerun with --resume" in stderr, stderr
    assert (ckpt / "LATEST").is_file(), stdout

    # The chaos-free resume extends the same checkpoint to the budget:
    # the recovered run's state was sane enough to train on top of.
    resumed = run_cli(
        "cluster", "8",
        "--actors", "2",
        "--envs-per-actor", "2",
        "--checkpoint-dir", str(ckpt),
        "--resume",
        "--seed", "3",
    )
    assert resumed.returncode == 0, resumed.stderr
    assert "trained 24 steps" in resumed.stdout
    assert "warning: actor subprocess" not in resumed.stderr, resumed.stderr
    steps = sorted(p.name for p in ckpt.iterdir() if p.name.startswith("step-"))
    assert steps == ["step-00000012", "step-00000024"]


@pytest.mark.slow
def test_cluster_sigint_is_a_clean_fleet_shutdown(tmp_path):
    """Ctrl-C mid-run: the supervisor pauses (no respawn storm), every
    child is reaped, and the exit code is the conventional 130."""
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro",
            "cluster", "8",
            "--steps", "200",
            "--actors", "2",
            "--envs-per-actor", "2",
            "--seed", "3",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=cli_env(),
    )
    try:
        wait_until(
            lambda: find_child(proc.pid, " actor --connect") is not None,
            timeout=120.0,
            message="an actor subprocess to appear",
        )
        proc.send_signal(signal.SIGINT)
        _stdout, stderr = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    assert proc.returncode == 130, stderr
    assert "interrupted: shutting the fleet down" in stderr
    # No orphans: every subprocess the cluster spawned is gone.
    wait_until(
        lambda: not children_of(proc.pid),
        timeout=30.0,
        message="all fleet children to be reaped",
    )
