"""Helpers for tests that run and kill child processes."""

from __future__ import annotations

import signal
import time


def kill_process(proc, sig: int = signal.SIGKILL, timeout: float = 10.0) -> int:
    """Deliver ``sig`` and reap; returns the exit code (signal-negative)."""
    if proc.poll() is None:
        proc.send_signal(sig)
    return proc.wait(timeout=timeout)


def wait_until(predicate, timeout: float, interval: float = 0.02, message: str = "condition"):
    """Poll ``predicate`` until truthy; raise with ``message`` at deadline.

    A bounded wait with a failure message naming what never happened —
    never sleep-and-hope.
    """
    deadline = time.monotonic() + timeout
    while True:
        value = predicate()
        if value:
            return value
        if time.monotonic() >= deadline:
            raise TimeoutError(f"timed out after {timeout:.1f}s waiting for {message}")
        time.sleep(interval)
