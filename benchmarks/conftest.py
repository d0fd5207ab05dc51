"""Shared fixtures for the figure/table benchmarks.

The expensive artifacts — synthesis-in-the-loop RL sweeps at the small
("32b") and large ("64b") stand-in widths — are computed once per session
and shared by every figure that needs them (Fig. 4a/5a/6b/7 share the small
sweep; Fig. 4b/5b the large one), exactly as the paper reuses one set of
trained agents across its evaluation.

One seed cannot carry a comparison whose margin is smaller than the
seed-to-seed spread, so the small sweep runs at every seed of
:data:`SEEDS`. A small-width figure computes its statistic once per seed,
with seed ``s`` added to every ``frontier`` seed it uses (seed 0 is the
figure's own), prints the per-seed table and asserts on the median.

Scale is set by ``REPRO_SCALE`` (see ``repro.utils.config``); the default
``ci`` profile keeps the full bench suite in the ~5 minute range.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cells import nangate45
from repro.pareto import frontier, pareto_front
from repro.prefix import REGULAR_STRUCTURES
from repro.rl import TrainerConfig
from repro.rl.sweep import rl_search, weight_grid
from repro.synth import (
    SynthesisCache,
    SynthesisEvaluator,
    Synthesizer,
    calibrate_scaling,
    synthesize_curve,
)
from repro.utils import run_scale

SEEDS = range(5)


def pytest_collection_modifyitems(config, items):
    """Mark every benchmark test ``slow``.

    The figure/table benchmarks share multi-minute session fixtures (full
    RL sweeps); ``pytest -m "not slow"`` is the fast verify loop that runs
    only the unit suite.
    """
    for item in items:
        if "benchmarks" in item.path.parts:
            item.add_marker(pytest.mark.slow)


@pytest.fixture(scope="session")
def scale():
    return run_scale()


@pytest.fixture(scope="session")
def fig6_store():
    """Cross-bench handoff: Fig. 6a deposits its design sets for Fig. 6b.

    Benches run in file order (6a before 6b); if 6b runs standalone it
    recomputes the experiment itself.
    """
    return {}


def curve_series(curve, num_points: int) -> "list[tuple[float, float]]":
    """Sample a synthesis curve into (area, delay) pairs for plotting."""
    delays = np.linspace(curve.min_delay, curve.max_delay, num_points)
    return [(curve.area_at(float(d)), float(d)) for d in delays]


def regular_structure_series(library, synthesizer, n, num_points):
    """Name -> sampled (area, delay) series for every regular structure."""
    series = {}
    for name, ctor in REGULAR_STRUCTURES.items():
        if name == "ripple" and n > 8:
            continue  # off-scale slow; the paper's figures omit it too
        curve = synthesize_curve(ctor(n), library, synthesizer)
        series[name] = curve_series(curve, num_points)
    return series


def median_over_seeds(title, rows):
    """Print each statistic at every seed and its median; return the medians.

    ``rows`` holds one ``{statistic: value}`` dict per seed of :data:`SEEDS`.
    """
    names = list(rows[0])
    width = max(len(name) for name in names)
    medians = {name: float(np.median([row[name] for row in rows])) for name in names}
    print(f"\n{title}")
    print(f"{'':>{width}s}  " + "".join(f"{f'seed {s}':>9s}" for s in SEEDS) + f"{'median':>9s}")
    for name in names:
        print(f"{name:>{width}s}  " + "".join(f"{row[name]:9.3f}" for row in rows) + f"{medians[name]:9.3f}")
    return medians


def _run_synthesis_sweep(n, scale, budget, num_weights, horizon, seed=0):
    """One synthesis-in-the-loop multi-weight RL sweep with a shared cache.

    Each weight's agent trains until it has spent ``budget`` distinct
    designs (or its evaluator's stall rule ends it).
    """
    library = nangate45()
    synthesizer = Synthesizer()
    cache = SynthesisCache()

    calib_points = []
    regular_curves = {}
    for name, ctor in REGULAR_STRUCTURES.items():
        curve = synthesize_curve(ctor(n), library, synthesizer)
        regular_curves[name] = curve
        calib_points.extend((a, d) for d, a in curve.points())
    c_area, c_delay = calibrate_scaling(calib_points)

    def evaluator_factory(w_area, w_delay):
        return SynthesisEvaluator(
            library,
            synthesizer=synthesizer,
            w_area=w_area,
            w_delay=w_delay,
            cache=cache,
            c_area=c_area,
            c_delay=c_delay,
        )

    search = rl_search(
        agent_kwargs=dict(
            blocks=scale.residual_blocks,
            channels=scale.channels,
            lr=3e-4,
        ),
        trainer_config=TrainerConfig(
            batch_size=scale.batch_size,
            buffer_capacity=20_000,
            warmup_steps=max(scale.batch_size, 16),
        ),
        horizon=horizon,
    )
    archive, spent = frontier(search, n, evaluator_factory, weight_grid(num_weights), budget, seed=seed)
    return {
        "archive": archive,
        "spent": spent,
        "cache": cache,
        "library": library,
        "synthesizer": synthesizer,
        "calibration": (c_area, c_delay),
        "regular_curves": regular_curves,
        "n": n,
        "seed": seed,
    }


def _small_sweep(scale, seed):
    return _run_synthesis_sweep(
        n=scale.width_small,
        scale=scale,
        budget=scale.budget,
        num_weights=min(scale.num_weights, 5),
        horizon=24,
        seed=seed,
    )


@pytest.fixture(scope="session")
def rl_sweep_small(scale):
    """Synthesis-in-loop sweep at the paper's '32b' stand-in width (seed 0)."""
    return _small_sweep(scale, seed=0)


@pytest.fixture(scope="session")
def rl_sweeps_small(scale, rl_sweep_small):
    """The small sweep at every seed of :data:`SEEDS`, seed 0 first."""
    return [rl_sweep_small] + [_small_sweep(scale, seed) for seed in SEEDS[1:]]


@pytest.fixture(scope="session")
def rl_sweep_large(scale):
    """Synthesis-in-loop sweep at the paper's '64b' stand-in width.

    Larger synthesis cost per state, so fewer weights/steps (the paper makes
    the same concession at 64b: "we kept [capacity] equal ... while training
    takes roughly twice as many environment steps" with reduced batch).
    """
    return _run_synthesis_sweep(
        n=scale.width_large,
        scale=scale,
        budget=max(scale.budget // 2, 50),
        num_weights=min(scale.num_weights, 3),
        horizon=32,
    )


def frontier_design_series(bundle, num_points, max_designs=16):
    """Synthesis-curve samples of a sweep's Pareto-frontier designs."""
    points = []
    designs = [g for _, _, g in bundle["archive"].entries()][:max_designs]
    for graph in designs:
        curve = synthesize_curve(graph, bundle["library"], bundle["synthesizer"])
        points.extend(curve_series(curve, num_points))
    return pareto_front(points), designs
