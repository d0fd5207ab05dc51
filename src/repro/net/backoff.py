"""Shared reconnect policy: exponential backoff with jitter.

The redial loop in repro.net — the actor's supervised reconnect
(:class:`repro.net.actor.RemoteActorWorker`) — takes its delays from this
policy object instead of growing its own ad-hoc timer. Exponential
growth keeps a dead learner from being hammered; jitter keeps a fleet of
actors that all lost the same server from redialing in lockstep (the
thundering-herd reconnect storm).

The jitter source is injectable so tests pin exact delays.
"""

from __future__ import annotations

import time

from repro.utils.rng import ensure_rng


class Backoff:
    """Exponential delays in ``[raw * (1 - jitter), raw]``, ``raw`` capped.

    ``next_delay()`` returns the wait before attempt ``attempts + 1`` and
    advances the sequence; ``reset()`` rewinds after a success so the next
    failure starts cheap again.
    """

    def __init__(
        self,
        base: float = 0.5,
        cap: float = 30.0,
        multiplier: float = 2.0,
        jitter: float = 0.5,
        rng=None,
    ):
        if base <= 0:
            raise ValueError("base must be positive")
        if cap < base:
            raise ValueError("cap must be >= base")
        if multiplier < 1:
            raise ValueError("multiplier must be >= 1")
        if not 0 <= jitter <= 1:
            raise ValueError("jitter must be in [0, 1]")
        self.base = base
        self.cap = cap
        self.multiplier = multiplier
        self.jitter = jitter
        self.attempts = 0
        self._rng = ensure_rng(rng)

    def next_delay(self) -> float:
        raw = min(self.base * self.multiplier**self.attempts, self.cap)
        self.attempts += 1
        if self.jitter:
            raw *= 1.0 - self.jitter * float(self._rng.random())
        return raw

    def reset(self) -> None:
        self.attempts = 0

    def sleep(self) -> float:
        """Sleep one backoff step; returns the delay actually slept."""
        delay = self.next_delay()
        time.sleep(delay)
        return delay
