"""Shared utilities: seeded RNG plumbing, run-scale configuration, ASCII plots.

These helpers keep the rest of the library deterministic (every stochastic
component receives an explicit :class:`numpy.random.Generator`) and free of
ad-hoc environment probing (all scale knobs go through :func:`run_scale`).
"""

from repro.utils.rng import (
    ensure_rng,
    rng_state,
    set_rng_state,
    spawn_rngs,
)
from repro.utils.config import RunScale, run_scale
from repro.utils.ascii_plot import scatter_plot, format_table

__all__ = [
    "ensure_rng",
    "rng_state",
    "set_rng_state",
    "spawn_rngs",
    "RunScale",
    "run_scale",
    "scatter_plot",
    "format_table",
]
