"""Run-scale configuration.

The paper's headline experiments run at 32b/64b with 5e5 environment steps on
a GPU cluster. This reproduction runs on one CPU, so every benchmark reads a
scale profile that sets bit widths, network capacity and the search budget.

``REPRO_SCALE=ci`` (default) finishes in minutes; ``REPRO_SCALE=paper``
restores the paper's widths and capacities (days of CPU — provided for
completeness, not exercised in CI).
"""

from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass(frozen=True)
class RunScale:
    """Scale profile consumed by benchmarks and examples.

    Attributes:
        name: profile identifier (``ci`` or ``paper``).
        width_small: stand-in for the paper's 32b setting.
        width_large: stand-in for the paper's 64b setting.
        budget: distinct designs each search may spend per weight, the
            one budget of every series (RL, SA, PS) in the figures. At
            ``ci`` it is what an RL sweep of 400 env steps per weight
            spent at the small width (Fig. 4a: 1401 over 5 weights); at
            ``medium`` and ``paper`` it is the env-step count, since at
            n >= 16 nearly every env step finds a new design.
        num_weights: number of area/delay scalarization weights swept.
        residual_blocks: Q-network residual blocks (paper: 32).
        channels: Q-network channels (paper: 256).
        batch_size: training batch size (paper: 96 per GPU).
        delay_targets: synthesis delay targets used when binning Pareto
            fronts (paper: 40).
    """

    name: str
    width_small: int
    width_large: int
    budget: int
    num_weights: int
    residual_blocks: int
    channels: int
    batch_size: int
    delay_targets: int


_PROFILES = {
    "ci": RunScale(
        name="ci",
        width_small=8,
        width_large=16,
        budget=280,
        num_weights=5,
        residual_blocks=2,
        channels=16,
        batch_size=16,
        delay_targets=12,
    ),
    "medium": RunScale(
        name="medium",
        width_small=16,
        width_large=32,
        budget=3000,
        num_weights=9,
        residual_blocks=4,
        channels=32,
        batch_size=32,
        delay_targets=24,
    ),
    "paper": RunScale(
        name="paper",
        width_small=32,
        width_large=64,
        budget=500_000,
        num_weights=15,
        residual_blocks=32,
        channels=256,
        batch_size=96,
        delay_targets=40,
    ),
}


def run_scale(name: "str | None" = None) -> RunScale:
    """Return the requested scale profile (default: ``$REPRO_SCALE`` or ci)."""
    key = name if name is not None else os.environ.get("REPRO_SCALE", "ci")
    if key not in _PROFILES:
        known = ", ".join(sorted(_PROFILES))
        raise KeyError(f"unknown REPRO_SCALE {key!r}; expected one of: {known}")
    return _PROFILES[key]
