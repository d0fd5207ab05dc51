"""Hot-path throughput benchmark: features, trainer, synthesis, farm, store.

Measures the layers this repo's training loop touches per step and
writes the numbers to JSON, one section each (the names ``--profile``
takes):

1. ``graph_features``: throughput (graphs/sec) at n in {16, 32, 64} over
   a fixed corpus of regular structures and random-walk graphs;
2. ``trainer``: ``Trainer.run`` environment-steps/sec at n in {16, 32}
   (plus, when the running tree supports it, the 8-env vectorized variant);
3. ``synthesis``: ``synthesize_curve`` throughput (graphs/sec) at n in
   {16, 32} — the paper's true cost center, the target of the
   incremental-STA engine;
4. ``sta_backward``: the same curves under a recovery-heavy synthesizer
   (``recovery_passes`` cranked up) so area recovery — slack queries
   after every trial downsize — dominates; this is the workload the
   incremental required-time worklist and the downsize prune exist for;
5. ``analytical``: raw analytical-delay evals/sec over the feature
   corpus plus the deep-ripple worst case (depth-bound fixpoint in old
   trees vs the one-pass topological sweep);
6. ``synthesis_farm``: the Section V-C workload through a backend whose
   runner is a warm ``SynthesisFarm`` pool, against the plain per-graph
   ``synthesize_curve`` loop;

and, when the running tree has them — 1-CPU work and cost records, not
speedup claims:

7. ``store``: curve-store append, cold reopen and warm-hit latency
   against the synthesis a warm hit replaces.

Sections 1-5 are restricted to APIs that exist in the seed tree, and the
newer ones skip themselves in trees without their API, so the *same*
workload can be measured before and after the optimization PRs (except
``synthesis_farm``, which needs a backend with a ``runner``: older trees
keep their recorded numbers)::

    # at the seed commit (e.g. in a worktree)
    PYTHONPATH=<seed>/src python benchmarks/bench_hotpath.py --output seed.json
    # at the previous release (for sections newer than the seed baseline)
    PYTHONPATH=<parent>/src python benchmarks/bench_hotpath.py --output parent.json
    # at HEAD, merging the recorded baselines and computing speedups
    PYTHONPATH=src python benchmarks/bench_hotpath.py \
        --baseline seed.json --parent-baseline parent.json \
        --output BENCH_hotpath.json

``--smoke`` runs a seconds-scale version of every section (tiny widths,
one trainer run, a 2-worker farm) for CI: it asserts the sections and
speedup keys exist without producing publishable numbers.

``--profile <section>`` runs one bench section under ``cProfile``
(stdlib only) and prints the top functions by cumulative time — the
quickest way to answer "what actually dominates synthesize_curve now";
combine with ``--smoke`` for a fast, non-publishable profile workload.

Corpus note: the random-walk graphs start from sklansky and the feature
corpus excludes the ripple structure at n > 8, matching the figure
benchmarks (``benchmarks/conftest.py`` notes ripple is off-scale there
too); deep ripple-like graphs bound the level analysis and are reported
separately in the per-width detail (``ripple_ms_per_graph``)."""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import time

import numpy as np

from repro.cells import nangate45
from repro.distributed import SynthesisFarm
from repro.env import PrefixEnv, graph_features
from repro.prefix import PrefixGraph, REGULAR_STRUCTURES, ripple_carry, sklansky
from repro.rl import ScalarizedDoubleDQN, Trainer, TrainerConfig
from repro.synth import AnalyticalEvaluator, synthesize_curve

try:
    from repro.env import VectorPrefixEnv
except ImportError:  # seed tree: no vectorized environment yet
    VectorPrefixEnv = None

try:  # seed/parent trees: no persistent curve store yet
    from repro.store import DiskStore
    from repro.synth import AreaDelayCurve

    STORE_AVAILABLE = True
except ImportError:
    STORE_AVAILABLE = False

try:  # older trees: no configurable synthesizer (recovery_passes) yet
    from repro.synth import Synthesizer
except ImportError:
    Synthesizer = None

try:  # older trees: no standalone analytical model yet
    from repro.analytical import analytical_delay
except ImportError:
    analytical_delay = None

FEATURE_WIDTHS = (16, 32, 64)
TRAINER_WIDTHS = (16, 32)
TRAINER_STEPS = 160
TRAINER_CONFIG = dict(batch_size=16, warmup_steps=32, learn_every=1)
NUM_VECTOR_ENVS = 8
SYNTHESIS_WIDTHS = (16, 32)
SYNTHESIS_REPEATS = {16: 3, 32: 1}
STA_WIDTHS = (16, 32)
STA_RECOVERY_PASSES = 4         # recovery-heavy: the backward pass dominates
STA_REPEATS = {16: 3, 32: 1}
STA_ROUNDS = 2                  # best-of timing rounds (noise guard)
ANALYTICAL_WIDTHS = (32, 64)
ANALYTICAL_REPS = 300           # target analytical_delay calls per width
ANALYTICAL_RIPPLE_REPS = 100    # deep-ripple worst-case calls
FARM_WIDTH = 16
FARM_WORKERS = 4
FARM_REPEATS = 3
STORE_ENTRIES = 512             # curves per store round
STORE_POINTS = 8                # frontier points per stored curve
STORE_ROUNDS = 3
STORE_SYNTH_WIDTH = 16
STORE_SYNTH_GRAPHS = 4          # synthesize_curve calls timed for the ratio


def random_walk_grid(n: int, steps: int, rng: np.random.Generator) -> np.ndarray:
    """Deterministic random legal graph (API identical in seed and HEAD)."""
    g = sklansky(n)
    for _ in range(steps):
        actions = [("add", m, l) for m in range(n) for l in range(1, m) if g.can_add(m, l)]
        actions += [("del", m, l) for m in range(n) for l in range(1, m) if g.can_delete(m, l)]
        if not actions:
            break
        kind, m, l = actions[int(rng.integers(len(actions)))]
        g = g.add_node(m, l) if kind == "add" else g.delete_node(m, l)
    return np.array(g.grid)


def feature_corpus(n: int) -> "list[np.ndarray]":
    rng = np.random.default_rng(1234)
    grids = [
        np.array(ctor(n).grid)
        for name, ctor in REGULAR_STRUCTURES.items()
        if not (name == "ripple" and n > 8)
    ]
    grids += [random_walk_grid(n, 12, rng) for _ in range(4)]
    return grids


def bench_features() -> dict:
    out = {}
    for n in FEATURE_WIDTHS:
        grids = feature_corpus(n)
        # Warm numpy / imports off the clock.
        for grid in grids:
            graph_features(PrefixGraph(grid, _validated=True))
        reps = max(1, int(200 // len(grids)))
        start = time.perf_counter()
        for _ in range(reps):
            for grid in grids:
                graph_features(PrefixGraph(grid, _validated=True))
        wall = time.perf_counter() - start
        calls = reps * len(grids)
        # Ripple separately: the deep-graph worst case for level analysis.
        rip = np.array(ripple_carry(n).grid)
        start = time.perf_counter()
        for _ in range(50):
            graph_features(PrefixGraph(rip, _validated=True))
        rip_wall = time.perf_counter() - start
        out[str(n)] = {
            "corpus_size": len(grids),
            "graphs_per_sec": calls / wall,
            "ms_per_graph": wall / calls * 1000,
            "ripple_ms_per_graph": rip_wall / 50 * 1000,
        }
        print(f"features n={n}: {calls / wall:8.1f} graphs/s "
              f"({wall / calls * 1000:.3f} ms; ripple {rip_wall / 50 * 1000:.3f} ms)")
    return out


def _trainer_throughput(n: int, env) -> float:
    agent = ScalarizedDoubleDQN(n, blocks=1, channels=8, rng=0)
    trainer = Trainer(env, agent, TrainerConfig(**TRAINER_CONFIG), rng=0)
    start = time.perf_counter()
    history = trainer.run(TRAINER_STEPS)
    wall = time.perf_counter() - start
    return history.env_steps / wall


def bench_trainer() -> dict:
    out = {}
    for n in TRAINER_WIDTHS:
        row = {}
        env = PrefixEnv(n, AnalyticalEvaluator(), horizon=24, rng=0)
        row["single_env_steps_per_sec"] = _trainer_throughput(n, env)
        if VectorPrefixEnv is not None:
            venv = VectorPrefixEnv.make(
                n, AnalyticalEvaluator(), num_envs=NUM_VECTOR_ENVS, horizon=24, seed=0
            )
            row["vector8_steps_per_sec"] = _trainer_throughput(n, venv)
        out[str(n)] = row
        print(f"trainer n={n}: " + ", ".join(f"{k}={v:.2f}" for k, v in row.items()))
    return out


def synthesis_corpus(n: int) -> "list[PrefixGraph]":
    rng = np.random.default_rng(99)
    graphs = [
        ctor(n)
        for name, ctor in REGULAR_STRUCTURES.items()
        if not (name == "ripple" and n > 8)
    ]
    graphs += [PrefixGraph(random_walk_grid(n, 10, rng), _validated=True) for _ in range(2)]
    return graphs


def bench_synthesis() -> dict:
    """``synthesize_curve`` throughput — the synthesis-in-the-loop cost center."""
    lib = nangate45()
    out = {}
    for n in SYNTHESIS_WIDTHS:
        graphs = synthesis_corpus(n)
        reps = SYNTHESIS_REPEATS[n]
        synthesize_curve(graphs[0], lib)  # warm library build off the clock
        start = time.perf_counter()
        for _ in range(reps):
            for g in graphs:
                synthesize_curve(g, lib)
        wall = time.perf_counter() - start
        calls = reps * len(graphs)
        out[str(n)] = {
            "corpus_size": len(graphs),
            "graphs_per_sec": calls / wall,
            "ms_per_graph": wall / calls * 1000,
        }
        print(f"synthesis n={n}: {calls / wall:6.2f} graphs/s ({wall / calls * 1000:.1f} ms)")
    return out


def bench_sta_backward() -> "dict | None":
    """Recovery-heavy ``synthesize_curve``: the backward-pass cost center.

    ``recovery_passes`` is cranked above the default so area recovery —
    a slack query after every trial downsize — dominates the run. This
    is the workload the incremental required-time worklist and the
    ``downsize_rejected`` prune were built for. Only parent-era APIs
    (``Synthesizer(recovery_passes=...)``) are used, so the identical
    section runs in the previous release's worktree and the vs-parent
    ratio is apples-to-apples.
    """
    if Synthesizer is None:
        return None
    lib = nangate45()
    synth = Synthesizer(recovery_passes=STA_RECOVERY_PASSES)
    out = {}
    for n in STA_WIDTHS:
        graphs = synthesis_corpus(n)
        reps = STA_REPEATS[n]
        synthesize_curve(graphs[0], lib, synth)  # warm off the clock
        best = float("inf")
        for _ in range(STA_ROUNDS):
            start = time.perf_counter()
            for _ in range(reps):
                for g in graphs:
                    synthesize_curve(g, lib, synth)
            best = min(best, time.perf_counter() - start)
        calls = reps * len(graphs)
        out[str(n)] = {
            "corpus_size": len(graphs),
            "recovery_passes": STA_RECOVERY_PASSES,
            "graphs_per_sec": calls / best,
            "ms_per_graph": best / calls * 1000,
        }
        print(f"sta_backward n={n} (rp={STA_RECOVERY_PASSES}): "
              f"{calls / best:6.2f} graphs/s ({best / calls * 1000:.1f} ms)")
    return out


def bench_analytical() -> "dict | None":
    """Raw analytical-delay sweeps, including the deep-ripple worst case.

    Measured on *warm* graph instances: the first call populates the
    per-instance walk (node table) and fanout caches off the clock, so the
    timed loop is the arrival sweep itself. In the env loop the evaluator
    scores a fresh successor first and pays the walk that
    ``graph_features`` and the legal mask then reuse.
    """
    if analytical_delay is None:
        return None
    out = {}
    for n in ANALYTICAL_WIDTHS:
        graphs = [PrefixGraph(grid, _validated=True) for grid in feature_corpus(n)]
        for g in graphs:  # warm numpy + per-instance caches off the clock
            analytical_delay(g)
        reps = max(1, int(ANALYTICAL_REPS // len(graphs)))
        start = time.perf_counter()
        for _ in range(reps):
            for g in graphs:
                analytical_delay(g)
        wall = time.perf_counter() - start
        calls = reps * len(graphs)
        rip = ripple_carry(n)
        analytical_delay(rip)
        start = time.perf_counter()
        for _ in range(ANALYTICAL_RIPPLE_REPS):
            analytical_delay(rip)
        rip_wall = time.perf_counter() - start
        out[str(n)] = {
            "corpus_size": len(graphs),
            "graphs_per_sec": calls / wall,
            "ms_per_graph": wall / calls * 1000,
            "ripple_ms_per_graph": rip_wall / ANALYTICAL_RIPPLE_REPS * 1000,
        }
        print(f"analytical n={n}: {calls / wall:8.1f} evals/s "
              f"({wall / calls * 1000:.3f} ms; ripple "
              f"{rip_wall / ANALYTICAL_RIPPLE_REPS * 1000:.3f} ms)")
    return out


def bench_farm() -> dict:
    """Sec. V-C: a warm process pool behind a backend (dedup + chunked
    dispatch) vs the plain per-graph ``synthesize_curve`` loop."""
    from repro.distributed.farm import chunk_tasks
    from repro.synth import EvaluationBackend

    lib = nangate45()
    graphs = [ctor(FARM_WIDTH) for ctor in REGULAR_STRUCTURES.values()] * FARM_REPEATS
    start = time.perf_counter()
    for g in graphs:
        synthesize_curve(g, lib)
    serial_seconds = time.perf_counter() - start
    with SynthesisFarm("nangate45", num_workers=FARM_WORKERS) as farm:
        backend = EvaluationBackend(lib, runner=farm)
        start = time.perf_counter()
        backend.evaluate_many(graphs)
        pool_seconds = time.perf_counter() - start
    stats = backend.stats()
    unique = list({g.key(): g for g in graphs}.values())
    speedup = serial_seconds / max(pool_seconds, 1e-9)
    out = {
        "num_graphs": len(graphs),
        "serial_seconds": serial_seconds,
        "pool_seconds": pool_seconds,
        "pool_mode": farm.name.removeprefix("farm-"),
        "pool_speedup": speedup,
        "unique_graphs": stats["unique_designs"],
        "dispatched": stats["synthesized"],
        "chunks": len(chunk_tasks(unique, farm.width)),
    }
    print(f"farm n={FARM_WIDTH}: serial {serial_seconds:.2f}s, "
          f"pool {pool_seconds:.2f}s -> {speedup:.2f}x")
    return out


def _store_corpus() -> "list[tuple[tuple, AreaDelayCurve]]":
    entries = []
    for i in range(STORE_ENTRIES):
        points = [
            (0.05 * (j + 1) + 1e-4 * i, 100.0 + i - 10.0 * j)
            for j in range(STORE_POINTS)
        ]
        key = (f"digest-{i:08x}", "nangate45", "openphysyn")
        entries.append((key, AreaDelayCurve(points)))
    return entries


def bench_store() -> "dict | None":
    """Curve-store hit latency vs the synthesis a warm hit replaces.

    Best-of rounds over a throwaway store directory: append (write-
    through cost on the training path), cold reopen (segment replay a
    restarted trainer pays once), and warm ``get_many`` (the per-design
    cost of *not* re-synthesizing). The headline ratio is one warm disk
    hit against one ``synthesize_curve`` call on this host — a
    work-avoidance record, not a parallelism claim.
    """
    if not STORE_AVAILABLE:
        return None
    import tempfile

    entries = _store_corpus()
    keys = [key for key, _ in entries]
    best = {"append": float("inf"), "replay": float("inf"), "read": float("inf")}
    bytes_total = segments = 0
    for _ in range(STORE_ROUNDS):
        with tempfile.TemporaryDirectory() as root:
            store = DiskStore(root)
            start = time.perf_counter()
            store.put_many(entries)
            best["append"] = min(best["append"], time.perf_counter() - start)
            stats = store.stats()
            bytes_total, segments = stats["bytes"], stats["segments"]
            store.close()
            start = time.perf_counter()
            warm = DiskStore(root)
            best["replay"] = min(best["replay"], time.perf_counter() - start)
            start = time.perf_counter()
            got = warm.get_many(keys)
            best["read"] = min(best["read"], time.perf_counter() - start)
            warm.close()
            assert all(value is not None for value in got)
    lib = nangate45()
    graphs = synthesis_corpus(STORE_SYNTH_WIDTH)[:STORE_SYNTH_GRAPHS]
    synthesize_curve(graphs[0], lib)  # warm library build off the clock
    start = time.perf_counter()
    for g in graphs:
        synthesize_curve(g, lib)
    synth_ms = (time.perf_counter() - start) / len(graphs) * 1000
    n = len(entries)
    warm_us = best["read"] / n * 1e6
    row = {
        "entries": n,
        "points_per_curve": STORE_POINTS,
        "rounds": STORE_ROUNDS,
        "bytes_per_curve": bytes_total / n,
        "segments": segments,
        "append_us_per_curve": best["append"] / n * 1e6,
        "reopen_replay_ms": best["replay"] * 1000,
        "warm_read_us_per_curve": warm_us,
        "synthesis_ms_per_curve": synth_ms,
        "warm_read_over_synthesis": synth_ms * 1000 / max(warm_us, 1e-9),
    }
    print(
        f"store n={n}: append {row['append_us_per_curve']:.1f} us/curve, "
        f"reopen {row['reopen_replay_ms']:.1f} ms, warm read "
        f"{warm_us:.1f} us/curve vs synthesis {synth_ms:.1f} ms "
        f"-> {row['warm_read_over_synthesis']:.0f}x avoided"
    )
    return {str(n): row}


def measure() -> dict:
    out = {
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpus": len(os.sched_getaffinity(0)),
        },
        "workload": {
            "trainer_steps": TRAINER_STEPS,
            "trainer_config": TRAINER_CONFIG,
            "num_vector_envs": NUM_VECTOR_ENVS,
            "farm": {"width": FARM_WIDTH, "workers": FARM_WORKERS, "repeats": FARM_REPEATS},
        },
        "graph_features": bench_features(),
        "trainer": bench_trainer(),
        "synthesis": bench_synthesis(),
        "synthesis_farm": bench_farm(),
    }
    sta = bench_sta_backward()
    if sta is not None:
        out["sta_backward"] = sta
    analytical_rows = bench_analytical()
    if analytical_rows is not None:
        out["analytical"] = analytical_rows
    store = bench_store()
    if store is not None:
        out["store"] = store
    return out


def _section_speedups(baseline: dict, current: dict) -> dict:
    """Per-section throughput ratios of ``current`` over ``baseline``."""
    speedups = {}
    for n, row in current["graph_features"].items():
        base = baseline.get("graph_features", {}).get(n)
        if base:
            speedups[f"graph_features_n{n}"] = row["graphs_per_sec"] / base["graphs_per_sec"]
            speedups[f"ripple_features_n{n}"] = (
                base["ripple_ms_per_graph"] / row["ripple_ms_per_graph"]
            )
    for n, row in current["trainer"].items():
        base = baseline.get("trainer", {}).get(n, {}).get("single_env_steps_per_sec")
        if not base:
            continue
        best = max(v for v in row.values())
        speedups[f"trainer_n{n}_single"] = row["single_env_steps_per_sec"] / base
        speedups[f"trainer_n{n}_best"] = best / base
    for n, row in current.get("synthesis", {}).items():
        base = baseline.get("synthesis", {}).get(n)
        if base:
            speedups[f"synthesize_curve_n{n}"] = (
                row["graphs_per_sec"] / base["graphs_per_sec"]
            )
    for n, row in current.get("sta_backward", {}).items():
        base = baseline.get("sta_backward", {}).get(n)
        if base:
            speedups[f"sta_recovery_n{n}"] = (
                row["graphs_per_sec"] / base["graphs_per_sec"]
            )
    for n, row in current.get("analytical", {}).items():
        base = baseline.get("analytical", {}).get(n)
        if base:
            speedups[f"analytical_n{n}"] = (
                row["graphs_per_sec"] / base["graphs_per_sec"]
            )
            speedups[f"analytical_ripple_n{n}"] = (
                base["ripple_ms_per_graph"] / row["ripple_ms_per_graph"]
            )
    return speedups


def merge(baseline: dict, current: dict, parent: "dict | None" = None) -> dict:
    """Combine recorded baselines with the current measurements.

    ``baseline`` is the seed-commit measurement (historical reference);
    ``parent`` optionally carries the previous release's numbers, so
    sections introduced after the seed (e.g. ``synthesis``) get a
    meaningful before/after ratio in ``speedups_vs_parent``.
    """
    speedups = _section_speedups(baseline, current)
    speedups["farm_pool_over_serial"] = current["synthesis_farm"]["pool_speedup"]
    for row in current.get("store", {}).values():
        # Work-avoidance ratio: one warm disk hit vs the synthesize_curve
        # call it replaces after a restart.
        speedups["store_warm_read_over_synthesis"] = row["warm_read_over_synthesis"]
    result = {"seed_baseline": baseline, "optimized": current, "speedups": speedups}
    if parent is not None:
        result["parent_baseline"] = parent
        result["speedups_vs_parent"] = _section_speedups(parent, current)
    return result


def apply_smoke_workload() -> None:
    """Shrink every section to a seconds-scale CI smoke workload."""
    global FEATURE_WIDTHS, TRAINER_WIDTHS, TRAINER_STEPS, NUM_VECTOR_ENVS
    global SYNTHESIS_WIDTHS, SYNTHESIS_REPEATS, FARM_WIDTH, FARM_WORKERS, FARM_REPEATS
    global STA_WIDTHS, STA_RECOVERY_PASSES, STA_REPEATS, STA_ROUNDS
    global ANALYTICAL_WIDTHS, ANALYTICAL_REPS, ANALYTICAL_RIPPLE_REPS
    global STORE_ENTRIES, STORE_ROUNDS, STORE_SYNTH_WIDTH, STORE_SYNTH_GRAPHS
    FEATURE_WIDTHS = (8, 16)
    TRAINER_WIDTHS = (8,)
    TRAINER_STEPS = 24
    NUM_VECTOR_ENVS = 2
    SYNTHESIS_WIDTHS = (8,)
    SYNTHESIS_REPEATS = {8: 1}
    STA_WIDTHS = (8,)
    STA_RECOVERY_PASSES = 2
    STA_REPEATS = {8: 1}
    STA_ROUNDS = 1
    ANALYTICAL_WIDTHS = (8,)
    ANALYTICAL_REPS = 20
    ANALYTICAL_RIPPLE_REPS = 10
    FARM_WIDTH = 8
    FARM_WORKERS = 2
    FARM_REPEATS = 1
    STORE_ENTRIES = 64
    STORE_ROUNDS = 1
    STORE_SYNTH_WIDTH = 8
    STORE_SYNTH_GRAPHS = 2


_HIGHER_IS_BETTER = ("graphs_per_sec", "steps_per_sec")
_LOWER_IS_BETTER = ("ms_per_graph",)


def check_against(recorded: dict, result: dict, tolerance: float) -> "list[str]":
    """Bench-regression gate: compare structure strictly, numbers loosely.

    ``recorded`` is the committed ``BENCH_hotpath.json``; ``result`` is the
    current (typically ``--smoke``) measurement. Strict: every recorded
    bench section and every recorded speedup-key *family* (width suffixes
    normalized, ``_n16`` -> ``_n*``) must still materialize — a key that
    silently disappears means a bench or API regressed. Loose: where the
    recorded and current runs share a width, throughput must not fall
    below ``tolerance`` times the recorded value (and ms-per-item must not
    exceed it by the inverse) — CI hosts differ from the recording host,
    so the tolerance is generous noise-awareness, catching only
    order-of-magnitude regressions.
    """
    problems = []
    rec_opt = recorded.get("optimized", {})
    cur_opt = result.get("optimized", {})
    skip = ("machine", "workload")
    for section in rec_opt:
        if section not in skip and section not in cur_opt:
            problems.append(f"bench section {section!r} disappeared")

    def family(key: str) -> str:
        return re.sub(r"_n\d+", "_n*", key)

    rec_keys = {family(k) for k in recorded.get("speedups", {})}
    cur_keys = {family(k) for k in result.get("speedups", {})}
    for key in sorted(rec_keys - cur_keys):
        problems.append(f"speedup key family {key!r} disappeared")

    for section, rows in rec_opt.items():
        if section in skip or not isinstance(rows, dict):
            continue
        cur_rows = cur_opt.get(section)
        if not isinstance(cur_rows, dict):
            continue
        for width, row in rows.items():
            cur_row = cur_rows.get(width)
            if not isinstance(row, dict) or not isinstance(cur_row, dict):
                continue
            for metric, value in row.items():
                cur_value = cur_row.get(metric)
                if not isinstance(value, (int, float)) or not isinstance(
                    cur_value, (int, float)
                ):
                    continue
                if metric.endswith(_HIGHER_IS_BETTER) and cur_value < value * tolerance:
                    problems.append(
                        f"{section}[{width}].{metric} regressed: "
                        f"{cur_value:.3f} < {tolerance} * recorded {value:.3f}"
                    )
                elif metric.endswith(_LOWER_IS_BETTER) and cur_value > value / tolerance:
                    problems.append(
                        f"{section}[{width}].{metric} regressed: "
                        f"{cur_value:.3f} > recorded {value:.3f} / {tolerance}"
                    )
    return problems


def run_smoke(output: "str | None") -> dict:
    """CI gate: every section runs and every speedup key materializes.

    Merges the measurement against itself (all ratios 1.0) purely to
    exercise the key-generation path — the numbers are not publishable.
    """
    apply_smoke_workload()
    current = measure()
    result = merge(current, current, parent=current)
    for section in ("graph_features", "trainer", "synthesis", "synthesis_farm"):
        assert section in current, f"missing bench section {section!r}"
    speedups = result["speedups"]
    expected = [
        "graph_features_n8",
        "ripple_features_n8",
        "trainer_n8_single",
        "synthesize_curve_n8",
        "farm_pool_over_serial",
    ]
    if Synthesizer is not None:
        assert "sta_backward" in current, "missing bench section 'sta_backward'"
        expected.append(f"sta_recovery_n{STA_WIDTHS[0]}")
    if analytical_delay is not None:
        assert "analytical" in current, "missing bench section 'analytical'"
        expected.append(f"analytical_n{ANALYTICAL_WIDTHS[0]}")
        expected.append(f"analytical_ripple_n{ANALYTICAL_WIDTHS[0]}")
    if STORE_AVAILABLE:
        assert "store" in current, "missing bench section 'store'"
        expected.append("store_warm_read_over_synthesis")
    missing = [k for k in expected if k not in speedups]
    assert not missing, f"missing speedup keys: {missing}"
    assert "synthesize_curve_n8" in result["speedups_vs_parent"]
    print("smoke OK: sections", sorted(current), "keys", sorted(speedups))
    if output:
        with open(output, "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {output}")
    return result


def profile_sections() -> dict:
    """Name -> section callable, for ``--profile``."""
    return {
        "graph_features": bench_features,
        "trainer": bench_trainer,
        "synthesis": bench_synthesis,
        "sta_backward": bench_sta_backward,
        "analytical": bench_analytical,
        "synthesis_farm": bench_farm,
        "store": bench_store,
    }


def run_profile(section: str, top: int) -> None:
    """Run one bench section under cProfile and print a top-N breakdown."""
    import cProfile
    import pstats

    sections = profile_sections()
    fn = sections.get(section)
    if fn is None:
        raise SystemExit(
            f"unknown --profile section {section!r}; choose from: "
            + ", ".join(sorted(sections))
        )
    prof = cProfile.Profile()
    prof.enable()
    result = fn()
    prof.disable()
    if result is None:
        print(f"section {section!r} is unavailable in this tree; nothing profiled")
        return
    print(f"\n--- cProfile {section}: top {top} by cumulative time ---")
    stats = pstats.Stats(prof)
    stats.sort_stats("cumulative")
    stats.print_stats(top)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default=None, help="write JSON here")
    parser.add_argument(
        "--baseline", default=None,
        help="seed-measurement JSON to merge against (adds a speedups section)",
    )
    parser.add_argument(
        "--parent-baseline", default=None,
        help="previous-release JSON (adds a speedups_vs_parent section)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny CI workload; asserts sections and speedup keys exist",
    )
    parser.add_argument(
        "--check-against", default=None, metavar="BENCH_JSON",
        help="regression gate: fail if a section/speedup key recorded in this "
             "JSON is missing, or a shared-width metric regresses beyond "
             "--tolerance (requires --smoke or --baseline)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.2,
        help="loose numeric gate for --check-against: current throughput must "
             "stay above tolerance * recorded (default 0.2, i.e. within 5x — "
             "CI hosts differ from the recording host)",
    )
    parser.add_argument(
        "--profile", default=None, metavar="SECTION",
        help="run one bench section under cProfile and print the hottest "
             "functions instead of measuring; combine with --smoke for a "
             f"fast workload (sections: {', '.join(profile_sections())})",
    )
    parser.add_argument(
        "--profile-top", type=int, default=30,
        help="rows of pstats output for --profile (default 30)",
    )
    args = parser.parse_args()

    if args.profile:
        if args.smoke:
            apply_smoke_workload()
        run_profile(args.profile, args.profile_top)
        return

    if args.check_against:
        if not args.smoke and not args.baseline:
            parser.error("--check-against requires --smoke or --baseline")
        if not os.path.exists(args.check_against):
            parser.error(f"check-against file not found: {args.check_against}")

    def run_gate(result: dict) -> None:
        if not args.check_against:
            return
        with open(args.check_against) as fh:
            recorded = json.load(fh)
        problems = check_against(recorded, result, args.tolerance)
        for problem in problems:
            print(f"REGRESSION: {problem}")
        if problems:
            raise SystemExit(1)
        print(f"regression gate OK vs {args.check_against} "
              f"(tolerance {args.tolerance})")

    if args.smoke:
        run_gate(run_smoke(args.output))
        return

    if args.baseline and not os.path.exists(args.baseline):
        parser.error(f"baseline file not found: {args.baseline}")
    if args.parent_baseline and not os.path.exists(args.parent_baseline):
        parser.error(f"parent baseline file not found: {args.parent_baseline}")

    current = measure()
    if args.baseline:
        parent = None
        if args.parent_baseline:
            with open(args.parent_baseline) as fh:
                parent = json.load(fh)
        with open(args.baseline) as fh:
            result = merge(json.load(fh), current, parent=parent)
        for key, value in sorted(result["speedups"].items()):
            print(f"speedup {key}: {value:.2f}x")
        for key, value in sorted(result.get("speedups_vs_parent", {}).items()):
            print(f"vs-parent {key}: {value:.2f}x")
    else:
        result = current

    if args.output:
        with open(args.output, "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.output}")
    run_gate(result)


if __name__ == "__main__":
    main()
