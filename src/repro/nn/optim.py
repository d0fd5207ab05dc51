"""Optimizers over :class:`repro.nn.layers.Parameter` lists."""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Parameter


class SGD:
    """Plain stochastic gradient descent with optional momentum."""

    def __init__(self, params: "list[Parameter]", lr: float = 0.01, momentum: float = 0.0):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.value) for p in self.params]

    def step(self) -> None:
        """Apply one update from the accumulated gradients."""
        for p, v in zip(self.params, self._velocity):
            if self.momentum:
                v *= self.momentum
                v += p.grad
                p.value -= self.lr * v
            else:
                p.value -= self.lr * p.grad

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


class Adam:
    """Adam (Kingma & Ba) — the paper trains with lr 4e-5 (Section IV-C)."""

    def __init__(
        self,
        params: "list[Parameter]",
        lr: float = 4e-5,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        grad_clip: "float | None" = None,
    ):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if grad_clip is not None and not (np.isfinite(grad_clip) and grad_clip > 0):
            # 0 would zero every gradient; a negative bound inverts np.clip's and sets every element to it.
            raise ValueError(f"grad_clip must be None or a finite positive number, got {grad_clip}")
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.grad_clip = grad_clip
        self._m = [np.zeros_like(p.value) for p in self.params]
        self._v = [np.zeros_like(p.value) for p in self.params]
        self._t = 0

    def step(self) -> None:
        """Apply one bias-corrected Adam update."""
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        correction1 = 1.0 - b1**self._t
        correction2 = 1.0 - b2**self._t
        for p, m, v in zip(self.params, self._m, self._v):
            grad = p.grad
            if self.grad_clip is not None:
                grad = np.clip(grad, -self.grad_clip, self.grad_clip)
            m *= b1
            m += (1 - b1) * grad
            v *= b2
            v += (1 - b2) * grad**2
            mhat = m / correction1
            vhat = v / correction2
            p.value -= self.lr * mhat / (np.sqrt(vhat) + self.eps)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    # -- persistence -----------------------------------------------------

    def state_dict(self) -> dict:
        """Moment estimates and step count (parameter order is positional)."""
        return {
            "t": self._t,
            "m": [m.copy() for m in self._m],
            "v": [v.copy() for v in self._v],
        }

    def check_state_dict(self, state: dict) -> None:
        """Raise ``ValueError`` unless ``state`` fits this optimizer's parameter list."""
        m, v = state["m"], state["v"]
        if len(m) != len(self.params) or len(v) != len(self.params):
            raise ValueError(f"optimizer state has {len(m)} slots, optimizer tracks {len(self.params)} parameters")
        for slots, arrays in ((self._m, m), (self._v, v)):
            for slot, arr in zip(slots, arrays):
                if slot.shape != np.shape(arr):
                    raise ValueError(f"optimizer moment shape mismatch: {np.shape(arr)} vs {slot.shape}")

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output onto the same parameter list;
        the whole state is checked before anything is written."""
        self.check_state_dict(state)
        self._t = int(state["t"])
        for slots, arrays in ((self._m, state["m"]), (self._v, state["v"])):
            for slot, arr in zip(slots, arrays):
                slot[...] = arr  # into the live (float32) slot: a float64 checkpoint's moments load by cast
