"""The scalarized Double-DQN agent (Eqs. 4-6 of the paper).

Vector Q values are kept per objective; action selection and the double-DQN
argmax both scalarize with the agent's weight vector; the TD regression is
per-objective. Illegal actions are masked to -inf before any argmax
(Section IV-C: "we use nodelist and minlist to set the Q values of illegal
actions to -inf so that they are never chosen").
"""

from __future__ import annotations

import numpy as np

from repro.env.actions import ActionSpace
from repro.nn.loss import huber_loss
from repro.nn.optim import Adam
from repro.nn.qnet import QNetwork
from repro.utils.rng import ensure_rng, rng_state, set_rng_state


def masked_argmax(flat_q: np.ndarray, w: np.ndarray, legal_masks) -> np.ndarray:
    """Eq. 6: per row, the legal action maximizing ``w . Q`` — the one
    masked argmax acting and the double-DQN target share.

    ``flat_q`` is ``(B, A, 2)`` vector Q values; a row without a legal
    action yields index 0 (callers exclude such rows).
    """
    return np.argmax(np.where(legal_masks, flat_q @ w, -np.inf), axis=1)


def epsilon_greedy(net, actions: ActionSpace, w, features, legal_masks, epsilon: float, rng) -> np.ndarray:
    """The epsilon-greedy policy over ``E`` stacked states — the only one.

    Replicas draw in order: ``rng.random()`` decides exploration, and only
    a replica that explores draws ``rng.integers()`` for its uniform legal
    action. ``net.predict`` then sees only the rows that exploit — no call
    at all when none do (at epsilon 1 a round costs no convolutions) — so
    the RNG stream does not depend on the network.
    """
    legal_masks = np.asarray(legal_masks)
    if not legal_masks.any(axis=1).all():
        raise ValueError("no legal actions available in some state")
    chosen = np.empty(legal_masks.shape[0], dtype=np.int64)
    exploit = []
    for e, mask in enumerate(legal_masks):
        if epsilon > 0 and rng.random() < epsilon:
            legal_idx = np.nonzero(mask)[0]
            chosen[e] = legal_idx[rng.integers(legal_idx.size)]
        else:
            exploit.append(e)
    if exploit:
        flat = actions.qmaps_to_flat(net.predict(np.asarray(features)[exploit]))
        chosen[exploit] = masked_argmax(flat, w, legal_masks[exploit])
    return chosen


class ScalarizedDoubleDQN:
    """Agent owning the local/target networks and the optimizer.

    Args:
        n: bit width (defines action space and network spatial size).
        w_area / w_delay: scalarization weights (nonnegative; the paper
            normalizes them to sum to 1).
        blocks / channels: Q-network capacity (paper: 32 / 256). Both
            networks and the Adam moments are float32; rewards, the TD
            targets and the scalarization weights stay float64.
        lr: Adam learning rate (paper: 4e-5).
        gamma: discount (paper: 0.75).
        target_sync_every: gradient steps between target-network syncs
            (paper: 60).
        rng: seed or generator for weight init and exploration.

    Only :meth:`sync_target` and :meth:`load_state_dict` may change
    ``self.target``'s weights, and both empty the target memo: between them
    the target is frozen, so :meth:`train_step` computes each distinct
    successor row's target Q map once and reads it back from the memo for
    the rest of the sync window (see :meth:`_target_predict`).
    """

    def __init__(
        self,
        n: int,
        w_area: float = 0.5,
        w_delay: float = 0.5,
        blocks: int = 2,
        channels: int = 16,
        lr: float = 4e-5,
        gamma: float = 0.75,
        target_sync_every: int = 60,
        grad_clip: "float | None" = 1.0,
        double: bool = True,
        rng=None,
    ):
        if w_area < 0 or w_delay < 0 or (w_area + w_delay) <= 0:
            raise ValueError("weights must be nonnegative and not both zero")
        if not 0.0 <= gamma <= 1.0:
            raise ValueError("gamma must be in [0, 1]")
        if target_sync_every < 1:
            raise ValueError(f"target_sync_every must be >= 1 gradient step, got {target_sync_every}")
        self._rng = ensure_rng(rng)
        self.n = n
        self.actions = ActionSpace(n)
        total = w_area + w_delay
        self.w = np.array([w_area / total, w_delay / total], dtype=np.float64)
        self.gamma = gamma
        self.target_sync_every = target_sync_every
        self.double = double
        self.local = QNetwork(n, blocks=blocks, channels=channels, rng=self._rng)
        self.target = QNetwork(n, blocks=blocks, channels=channels, rng=self._rng)
        self.target.copy_from(self.local)
        self.target.eval()
        self.optimizer = Adam(self.local.parameters(), lr=lr, grad_clip=grad_clip)
        self.gradient_steps = 0
        self._target_memo: "dict[bytes, np.ndarray]" = {}

    # ------------------------------------------------------------------
    # Acting
    # ------------------------------------------------------------------

    def q_values(self, features: np.ndarray) -> np.ndarray:
        """Per-action vector Q for one state: shape ``(A, 2)``."""
        qmap = self.local.predict(features[None])[0]
        return self.actions.qmap_to_flat(qmap)

    def act(self, features: np.ndarray, legal_mask: np.ndarray, epsilon: float = 0.0) -> int:
        """Epsilon-greedy scalarized policy for one state: :meth:`act_batch` at E=1."""
        return int(self.act_batch(features[None], np.asarray(legal_mask)[None], epsilon)[0])

    def act_batch(
        self,
        features: np.ndarray,
        legal_masks: np.ndarray,
        epsilon: float = 0.0,
        rng=None,
    ) -> np.ndarray:
        """Epsilon-greedy actions for ``E`` states: :func:`epsilon_greedy`
        on the local network.

        Args:
            features: stacked feature tensors, ``(E, 4, N, N)``.
            legal_masks: stacked legal-action masks, ``(E, A)``.
            epsilon: per-state exploration probability.
            rng: generator for the exploration draws (default: the agent's).

        Returns:
            int64 array of ``E`` flat action indices.
        """
        rng = self._rng if rng is None else rng
        return epsilon_greedy(self.local, self.actions, self.w, features, legal_masks, epsilon, rng)

    # ------------------------------------------------------------------
    # Learning
    # ------------------------------------------------------------------

    def train_step(self, batch: "dict[str, np.ndarray]") -> float:
        """One double-DQN gradient step on a sampled batch; returns the loss."""
        states = batch["states"]
        actions = batch["actions"]
        rewards = batch["rewards"]
        next_states = batch["next_states"]
        next_masks = batch["next_masks"]
        dones = batch["dones"]
        b = states.shape[0]

        # a* = argmax_a w . Q(s', a) over legal actions (Eq. 6 on s').
        # Double-DQN (the paper's choice) takes the argmax on the local
        # network and reads the value from the target network; the vanilla
        # ablation uses the target network for both. The whole batch is
        # scored with stacked gathers — no per-sample Python loop.
        q_next_target = self._target_predict(next_states)
        flat_target = self.actions.qmaps_to_flat(q_next_target)  # (B, A, 2)
        if self.double:
            flat_select = self.actions.qmaps_to_flat(self.local.predict(next_states))
        else:
            flat_select = flat_target
        a_star = masked_argmax(flat_select, self.w, next_masks)
        use = ~np.asarray(dones, dtype=bool) & np.asarray(next_masks, dtype=bool).any(axis=1)
        targets_vec = np.array(rewards, dtype=np.float64)
        targets_vec[use] += self.gamma * flat_target[use, a_star[use]]

        # Dense regression mask: only the taken action's two planes learn.
        self.local.train()
        qmap = self.local.forward(states)
        target_map = qmap.copy()
        mask = np.zeros_like(qmap)
        pa, pd, ms, ls = self.actions.qmap_position_arrays(np.asarray(actions, dtype=np.int64))
        bi = np.arange(b)
        target_map[bi, pa, ms, ls] = targets_vec[:, 0]
        target_map[bi, pd, ms, ls] = targets_vec[:, 1]
        mask[bi, pa, ms, ls] = 1.0
        mask[bi, pd, ms, ls] = 1.0

        loss, dpred = huber_loss(qmap, target_map, mask=mask)
        self.local.zero_grad()
        self.local.backward(dpred)
        self.optimizer.step()

        self.gradient_steps += 1
        if self.gradient_steps % self.target_sync_every == 0:
            self.sync_target()
        return loss

    def _target_predict(self, next_states: np.ndarray) -> np.ndarray:
        """``self.target.predict(next_states)``, each row computed once per sync window.

        Rows are keyed as ``QNetwork.predict`` keys them, by their bytes in
        the network dtype. The rows the memo lacks go to ``self.target.predict``
        in first-seen order, one call (none when every row is known), and the
        batch is gathered from the memo in the caller's order. This is exact
        because a predict pass is row-independent bit for bit and the target
        is frozen until the next sync. The memo holds at most
        ``target_sync_every * batch_size`` rows, each a ``16 * n**2``-byte key
        and a Q map of the same size: 7.5 MiB at n=16, batch 16, sync 60.
        """
        x = np.asarray(next_states, dtype=self.target.dtype)
        keys = [row.tobytes() for row in x]
        missing: "dict[bytes, int]" = {}
        for i, key in enumerate(keys):
            if key not in self._target_memo:
                missing.setdefault(key, i)
        if missing:
            self._target_memo.update(zip(missing, self.target.predict(x[list(missing.values())])))
        return np.stack([self._target_memo[k] for k in keys])

    def sync_target(self) -> None:
        """Copy local weights into the target network; the target memo empties."""
        self.target.copy_from(self.local)
        self.target.eval()
        self._target_memo.clear()

    # -- persistence -----------------------------------------------------

    def state_dict(self) -> dict:
        """Everything a checkpoint needs to resume training bit-for-bit:
        both networks, optimizer moments, step counters and the
        exploration RNG stream."""
        return {
            "n": self.n,
            "gamma": self.gamma,
            "double": self.double,
            "target_sync_every": self.target_sync_every,
            "w": self.w.copy(),
            "gradient_steps": self.gradient_steps,
            "rng": rng_state(self._rng),
            "local": {k: v.copy() for k, v in self.local.state_arrays().items()},
            "target": {k: v.copy() for k, v in self.target.state_arrays().items()},
            "optimizer": self.optimizer.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot onto a same-shape agent.

        Both networks, the optimizer state and the scalars are checked
        before anything is assigned, so a refused snapshot leaves the agent
        untouched.
        """
        if int(state["n"]) != self.n:
            raise ValueError(
                f"agent width mismatch: checkpoint n={state['n']}, agent n={self.n}"
            )
        self.local.check_state_arrays(state["local"])
        self.target.check_state_arrays(state["target"])
        self.optimizer.check_state_dict(state["optimizer"])
        gamma, double = float(state["gamma"]), bool(state["double"])
        target_sync_every, gradient_steps = int(state["target_sync_every"]), int(state["gradient_steps"])
        w = np.asarray(state["w"], dtype=np.float64)
        set_rng_state(self._rng, state["rng"])  # checks the bit generator before it writes
        self.gamma, self.double, self.w = gamma, double, w
        self.target_sync_every, self.gradient_steps = target_sync_every, gradient_steps
        self.local.load_state_arrays(state["local"])
        self.target.load_state_arrays(state["target"])
        self.target.eval()
        self._target_memo.clear()
        self.optimizer.load_state_dict(state["optimizer"])
