"""Experience replay: one array-backed ring buffer.

Stores dense feature tensors plus next-state legal masks (needed for the
masked double-DQN argmax) — the paper's setup ("an experience buffer with
up to 4x10^5 elements"). :class:`ReplayBuffer` is one ring of preallocated
arrays with fully vectorized sampling (a batch is one fancy-index per
field, no Python loop over transitions); its RNG consumption is identical
to the historical list-backed buffer, so trained trajectories are
preserved bit for bit.

The buffer takes no lock of its own: a training run is single-threaded.
``state_dict`` /
``load_state_dict`` let a checkpoint capture the exact buffer contents,
ring position and sampling-RNG stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import ensure_rng, rng_state, set_rng_state

_FIELDS = ("states", "actions", "rewards", "next_states", "next_masks", "dones")


@dataclass
class Transition:
    """One environment transition, already featurized."""

    state: np.ndarray        # (4, N, N)
    action: int              # flat action index
    reward: np.ndarray       # (2,) scaled [r_area, r_delay]
    next_state: np.ndarray   # (4, N, N)
    next_mask: np.ndarray    # (A,) legal actions in the next state
    done: bool


class ReplayBuffer:
    """Fixed-capacity ring buffer with uniform vectorized batch sampling."""

    def __init__(self, capacity: int, rng=None):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._rng = ensure_rng(rng)
        self._arrays: "dict[str, np.ndarray] | None" = None
        self._size = 0
        self._cursor = 0

    def _allocate(self, state_shape, reward_shape, mask_shape) -> None:
        """Size the ring: states float32 (the network's dtype), rewards float64."""
        cap = self.capacity
        self._arrays = {
            "states": np.empty((cap, *state_shape), dtype=np.float32),
            "actions": np.empty(cap, dtype=np.int64),
            "rewards": np.empty((cap, *reward_shape), dtype=np.float64),
            "next_states": np.empty((cap, *state_shape), dtype=np.float32),
            "next_masks": np.empty((cap, *mask_shape), dtype=bool),
            "dones": np.empty(cap, dtype=bool),
        }

    def push(self, transition: Transition) -> None:
        """Insert, overwriting the oldest entry once full."""
        if self._arrays is None:
            self._allocate(
                np.shape(transition.state), np.shape(transition.reward), np.shape(transition.next_mask)
            )
        arrays = self._arrays
        i = self._cursor
        arrays["states"][i] = transition.state
        arrays["actions"][i] = transition.action
        arrays["rewards"][i] = transition.reward
        arrays["next_states"][i] = transition.next_state
        arrays["next_masks"][i] = transition.next_mask
        arrays["dones"][i] = transition.done
        self._cursor = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def __len__(self) -> int:
        return self._size

    def gather(self, idx: np.ndarray) -> "dict[str, np.ndarray]":
        """Stack the transitions at ring positions ``idx`` (one fancy-index
        per field). Positions must be < ``len(self)``."""
        arrays = self._arrays
        return {name: arrays[name][idx] for name in _FIELDS}

    def draw(self, batch_size: int, size: "int | None" = None) -> np.ndarray:
        """The ring positions of one uniform batch over the first ``size``
        positions (default: ``len(self)``), one draw from the sampling RNG.

        A caller that knows how full the ring will be after its next pushes
        draws over that size now and gathers later (:meth:`gather`): the
        RNG stream is consumed exactly as :meth:`sample` would consume it then.
        """
        size = self._size if size is None else size
        if not size:
            raise ValueError("cannot sample from an empty buffer")
        return self._rng.integers(size, size=batch_size)

    def written(self, count: int) -> np.ndarray:
        """The ring positions the next ``count`` pushes will write."""
        return (self._cursor + np.arange(count)) % self.capacity

    def sample(self, batch_size: int) -> "dict[str, np.ndarray]":
        """Uniformly sample a batch as stacked arrays: ``gather(draw(batch_size))``.

        Keys: ``states (B,4,N,N)``, ``actions (B,)``, ``rewards (B,2)``,
        ``next_states (B,4,N,N)``, ``next_masks (B,A)``, ``dones (B,)``.
        """
        return self.gather(self.draw(batch_size))

    # -- persistence -----------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot of contents, ring position and sampling-RNG stream.

        Arrays are trimmed to the filled prefix (physical ring order), so a
        warm 1%-full paper-scale buffer checkpoints at 1% of capacity.
        """
        out = {
            "capacity": self.capacity,
            "size": self._size,
            "cursor": self._cursor,
            "rng": rng_state(self._rng),
        }
        if self._arrays is not None:
            out["arrays"] = {
                name: self._arrays[name][: self._size].copy() for name in _FIELDS
            }
        return out

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (capacity must match)."""
        if state["capacity"] != self.capacity:
            raise ValueError(
                f"buffer capacity mismatch: checkpoint has {state['capacity']}, "
                f"live buffer has {self.capacity}"
            )
        self._size = int(state["size"])
        self._cursor = int(state["cursor"])
        set_rng_state(self._rng, state["rng"])
        arrays = state.get("arrays")
        if arrays is None:
            self._arrays = None
            return
        # The ring's dtypes are this tree's, not the checkpoint's: float64 states load by cast.
        self._allocate(*(np.shape(arrays[name])[1:] for name in ("states", "rewards", "next_masks")))
        for name in _FIELDS:
            self._arrays[name][: self._size] = arrays[name]

