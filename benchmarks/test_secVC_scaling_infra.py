"""Section V-C / IV-D — training-system engineering claims.

Three measurable mechanisms from the paper's infrastructure sections:

1. **Parallel synthesis speedup** — the paper reports >8x from its
   distributed farm; here a backend with a warm process-pool runner vs the
   plain per-graph ``synthesize_curve`` loop on the same graph batch (the
   ratio scales with worker count, task size and the batch's duplicates).
2. **Synthesis cache hit rates** — "the cache hit percentage becomes 50%
   in the 32b case and 10% in the 64b case": measured from the shared
   caches of the two RL sweeps — the smaller width must cache-hit more.
3. **Batched acting throughput** — pipelined experience generation: many
   environments per network forward vs one.
"""

import time

from repro.cells import nangate45
from repro.distributed import BatchedActor, SynthesisFarm
from repro.env import PrefixEnv
from repro.prefix import REGULAR_STRUCTURES
from repro.rl import ScalarizedDoubleDQN
from repro.synth import AnalyticalEvaluator, EvaluationBackend, synthesize_curve
from repro.utils import format_table


def run_farm_comparison(n, num_workers=4, repeats=3):
    """``(serial_seconds, pool_seconds, pool backend stats)`` on one batch."""
    lib = nangate45()
    graphs = [ctor(n) for ctor in REGULAR_STRUCTURES.values()] * repeats
    start = time.perf_counter()
    for g in graphs:
        synthesize_curve(g, lib)
    serial_seconds = time.perf_counter() - start
    with SynthesisFarm("nangate45", num_workers=num_workers) as farm:
        backend = EvaluationBackend(lib, runner=farm)
        start = time.perf_counter()
        backend.evaluate_many(graphs)
        pool_seconds = time.perf_counter() - start
    return serial_seconds, pool_seconds, backend.stats()


def run_batched_acting(n=8, num_envs=8, rounds=12):
    agent = ScalarizedDoubleDQN(n, blocks=1, channels=8, rng=0)
    batched_envs = [PrefixEnv(n, AnalyticalEvaluator(), horizon=16, rng=i) for i in range(num_envs)]
    single_env = [PrefixEnv(n, AnalyticalEvaluator(), horizon=16, rng=99)]
    batched = BatchedActor(batched_envs, agent, rng=0).collect(rounds=rounds, epsilon=0.1)
    single = BatchedActor(single_env, agent, rng=0).collect(rounds=rounds * num_envs, epsilon=0.1)
    return batched, single


def run_all(scale):
    farm = run_farm_comparison(scale.width_large)
    batched, single = run_batched_acting()
    return farm, batched, single


def test_secVC_scaling_infra(benchmark, scale, rl_sweep_small, rl_sweep_large):
    (serial_seconds, pool_seconds, pool_stats), batched, single = benchmark.pedantic(
        run_all, args=(scale,), rounds=1, iterations=1
    )

    speedup = serial_seconds / max(pool_seconds, 1e-9)
    cache_small = rl_sweep_small["cache"]
    cache_large = rl_sweep_large["cache"]
    acting_speedup = batched.steps_per_second / max(single.steps_per_second, 1e-9)

    print("\n=== Section V-C / IV-D: training-system engineering ===")
    print(format_table(
        ["mechanism", "measured", "paper"],
        [
            ["synthesis farm speedup", f"{speedup:.2f}x ({pool_stats['backend']})", ">8x (192 workers)"],
            [f"cache hit rate @ n={rl_sweep_small['n']}", f"{cache_small.hit_rate:.1%}", "50% (32b)"],
            [f"cache hit rate @ n={rl_sweep_large['n']}", f"{cache_large.hit_rate:.1%}", "10% (64b)"],
            ["batched acting speedup", f"{acting_speedup:.2f}x (8 envs)", "192 async workers"],
        ],
    ))
    print(f"serial: {pool_stats['designs']} graphs in {serial_seconds:.2f}s | "
          f"pool: {pool_seconds:.2f}s "
          f"({pool_stats['unique_designs']} unique, {pool_stats['synthesized']} dispatched)")

    # Shape checks: the pool-backed backend (dedup + chunked submission
    # to a warm pool) must beat the naive serial loop, and the cache-hit
    # ordering must hold.
    assert speedup > 1.0, "process pool must beat serial synthesis"
    assert cache_small.hit_rate > cache_large.hit_rate, (
        "smaller width must have the higher cache hit rate (Sec IV-D)"
    )
    assert cache_small.hits > 0
