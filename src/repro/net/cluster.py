"""Localhost cluster orchestration: one learner, N actor OS processes.

``repro cluster --actors N`` is the zero-config proof of the network
subsystem: it binds the learner server on a loopback port, spawns ``N``
``repro actor --connect`` *subprocesses* (real OS processes — each with
its own interpreter and GIL, so the actors' Q-network passes run beside
the learner's instead of queueing for one GIL), drives the learner loop to the step budget, and reaps
the actors. The same actor command pointed at a routable address is the
multi-host deployment; nothing here is loopback-specific except the
default bind.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro import obs


def actor_command(
    address: "tuple[str, int]", extra_args: "list[str] | None" = None
) -> "list[str]":
    """The argv that runs one remote actor against ``address``."""
    return [
        sys.executable,
        "-m",
        "repro",
        "actor",
        "--connect",
        f"{address[0]}:{address[1]}",
        *(extra_args or []),
    ]


def _actor_env() -> "dict[str, str]":
    """Subprocess environment with this repro importable on PYTHONPATH."""
    import repro

    src_root = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    parts = [src_root] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))
    return env


def launch_farm_workers(
    count: int, extra_args: "list[str] | None" = None
) -> "tuple[list[subprocess.Popen], list[str]]":
    """Spawn ``count`` ``repro farm-worker`` daemons on ephemeral ports.

    Returns ``(processes, addresses)`` — each daemon prints its bound
    address on stdout, which is read back here so actors can be pointed
    at the workers (``repro actor --farm``).
    """
    if count < 1:
        raise ValueError("need at least one farm worker")
    env = _actor_env()
    procs = []
    addresses = []
    try:
        for _ in range(count):
            proc = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "farm-worker",
                    "--listen",
                    "127.0.0.1:0",
                    *(extra_args or []),
                ],
                stdout=subprocess.PIPE,
                text=True,
                env=env,
            )
            procs.append(proc)
            line = proc.stdout.readline()
            if "listening on" not in line:
                raise RuntimeError(
                    f"farm worker failed to start (got {line.strip()!r})"
                )
            addresses.append(line.strip().rsplit(" ", 1)[-1])
    except BaseException:
        stop_farm_workers(procs)
        raise
    obs.emit("farm_workers_launched", count=count, addresses=addresses)
    return procs, addresses


def stop_farm_workers(procs: "list[subprocess.Popen]", timeout: float = 10.0) -> None:
    """Terminate farm-worker daemons (they serve until told to stop)."""
    for proc in procs:
        proc.terminate()
    for proc in procs:
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def respawn_farm_worker(
    address: str, extra_args: "list[str] | None" = None
) -> subprocess.Popen:
    """Relaunch a farm worker pinned to its old ``host:port``.

    Same-port rebinding is what keeps the actors' ``--farm`` lists valid
    across a crash (the server sets ``allow_reuse_address``, so the old
    socket's TIME_WAIT does not block the restart).
    """
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "farm-worker",
            "--listen",
            address,
            *(extra_args or []),
        ],
        stdout=subprocess.PIPE,
        text=True,
        env=_actor_env(),
    )
    line = proc.stdout.readline()
    if "listening on" not in line:
        proc.terminate()
        proc.wait(timeout=10.0)
        raise RuntimeError(
            f"farm worker failed to restart on {address} (got {line.strip()!r})"
        )
    return proc


class FleetSupervisor:
    """Respawn crashed fleet children within per-child restart budgets.

    :meth:`watch` registers a subprocess with an optional ``respawn``
    closure; the monitor thread (:meth:`start`) polls, and a child that
    exits non-zero while the supervisor is active is relaunched — up to
    ``restart_budget`` times per name, after which (or without a closure)
    the death lands in :attr:`failures` and :meth:`exit_code` turns
    non-zero. :meth:`pause` disables respawning for orderly shutdown
    (children exiting because training ended are not crashes), and
    :meth:`terminate` is the SIGINT path: pause, TERM every watched
    child, escalate to KILL — no orphaned daemons.
    """

    def __init__(
        self,
        restart_budget: int = 2,
        poll_interval: float = 0.2,
        on_event=None,
    ):
        if restart_budget < 0:
            raise ValueError("restart_budget must be >= 0")
        self.restart_budget = restart_budget
        self.poll_interval = poll_interval
        self.on_event = on_event
        self.respawns: "dict[str, int]" = {}
        self.failures: "list[tuple[str, int]]" = []
        self._children: "dict[str, dict]" = {}
        self._lock = threading.Lock()
        self._paused = False
        self._stop = False
        self._thread: "threading.Thread | None" = None

    def _emit(self, message: str) -> None:
        if self.on_event is not None:
            self.on_event(message)

    def watch(self, name: str, proc, respawn=None, kind: str = "child") -> None:
        with self._lock:
            self._children[name] = {
                "proc": proc,
                "respawn": respawn,
                "kind": kind,
                "restarts": 0,
                "done": False,
            }

    def procs(self, kind: "str | None" = None) -> "list":
        """The currently-watched processes (respawns replace originals)."""
        with self._lock:
            return [
                c["proc"]
                for c in self._children.values()
                if kind is None or c["kind"] == kind
            ]

    def start(self) -> "FleetSupervisor":
        if self._thread is None or not self._thread.is_alive():
            self._stop = False
            self._thread = threading.Thread(
                target=self._run, name="fleet-supervisor", daemon=True
            )
            self._thread.start()
        return self

    def pause(self) -> None:
        with self._lock:
            self._paused = True

    def stop(self) -> None:
        self._stop = True
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def terminate(self, kind: "str | None" = None, timeout: float = 10.0) -> None:
        """Pause, TERM every watched child (of ``kind``), escalate to KILL."""
        self.pause()
        procs = self.procs(kind)
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    def exit_code(self) -> int:
        """0 iff no child died past its restart budget."""
        return 1 if self.failures else 0

    # -- monitor ---------------------------------------------------------

    def _run(self) -> None:
        while not self._stop:
            self.poll_once()
            time.sleep(self.poll_interval)

    def poll_once(self) -> None:
        """One supervision pass (public so tests can step deterministically)."""
        with self._lock:
            if self._paused:
                return
            for name, child in self._children.items():
                if child["done"]:
                    continue
                code = child["proc"].poll()
                if code is None:
                    continue
                if code == 0:
                    child["done"] = True
                    continue
                if (
                    child["respawn"] is not None
                    and child["restarts"] < self.restart_budget
                ):
                    try:
                        replacement = child["respawn"]()
                    except Exception as exc:
                        child["done"] = True
                        self.failures.append((name, code))
                        self._emit(f"supervisor: respawn of {name} failed: {exc}")
                        continue
                    child["restarts"] += 1
                    child["proc"] = replacement
                    self.respawns[name] = self.respawns.get(name, 0) + 1
                    self._emit(
                        f"supervisor: respawned {name} after exit code {code} "
                        f"(restart {child['restarts']}/{self.restart_budget})"
                    )
                else:
                    child["done"] = True
                    self.failures.append((name, code))
                    self._emit(
                        f"supervisor: {name} exited {code} with no restart "
                        "budget left"
                    )


def launch_actors(
    address: "tuple[str, int]",
    count: int,
    extra_args: "list[str] | None" = None,
) -> "list[subprocess.Popen]":
    """Spawn ``count`` actor subprocesses dialing ``address``."""
    if count < 1:
        raise ValueError("need at least one actor")
    env = _actor_env()
    procs = [
        subprocess.Popen(actor_command(address, extra_args), env=env)
        for _ in range(count)
    ]
    obs.emit("actors_launched", count=count)
    return procs


def reap_actors(
    procs: "list[subprocess.Popen]", timeout: float = 60.0
) -> "list[int]":
    """Wait for actor subprocesses; escalate to kill past the timeout.

    Returns the exit codes (killed actors report their signal-negative
    code — the caller decides whether that is a failure).
    """
    deadline = time.monotonic() + timeout
    codes = []
    for proc in procs:
        remaining = max(deadline - time.monotonic(), 0.1)
        try:
            codes.append(proc.wait(timeout=remaining))
        except subprocess.TimeoutExpired:
            proc.terminate()
            try:
                codes.append(proc.wait(timeout=5.0))
            except subprocess.TimeoutExpired:
                proc.kill()
                codes.append(proc.wait())
    return codes


def run_local_cluster(
    runtime,
    steps: "int | None" = None,
    resume: bool = False,
    actor_args: "list[str] | None" = None,
    reap_timeout: float = 60.0,
    supervisor: "FleetSupervisor | None" = None,
):
    """Bind, spawn actors, train, reap; returns ``(history, exit_codes)``.

    ``runtime`` must be a :class:`repro.rl.runtime.TrainingRuntime` in
    cluster mode; one actor is spawned per slot of its spec's
    ``config.actors``. Actors that outlive the learner (it stops serving once
    the budget is met) exit on their next round's stop reply; stragglers
    are terminated after ``reap_timeout``. With a ``supervisor`` the
    actors are watched and respawned on crash until training completes
    (the supervisor is paused before the final reap, so stop-reply exits
    are not treated as crashes).
    """
    address = runtime.bind()
    procs = launch_actors(address, runtime.cluster.config.actors, extra_args=actor_args)
    if supervisor is not None:
        env = _actor_env()
        for i, proc in enumerate(procs):

            def respawn(address=address, actor_args=actor_args, env=env):
                return subprocess.Popen(
                    actor_command(address, actor_args), env=env
                )

            supervisor.watch(f"actor-{i}", proc, respawn=respawn, kind="actor")
        supervisor.start()
    try:
        history = runtime.run(steps=steps, resume=resume)
    except BaseException:
        if supervisor is not None:
            supervisor.pause()
            procs = supervisor.procs("actor")
        for proc in procs:
            proc.terminate()
        reap_actors(procs, timeout=5.0)
        raise
    if supervisor is not None:
        supervisor.pause()
        procs = supervisor.procs("actor")
    codes = reap_actors(procs, timeout=reap_timeout)
    return history, codes
