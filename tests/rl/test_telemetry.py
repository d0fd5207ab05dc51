"""Trainer telemetry: synthesis cache/farm stats surfaced per run."""

import numpy as np

from repro.cells import nangate45
from repro.env import PrefixEnv, VectorPrefixEnv
from repro.rl import ScalarizedDoubleDQN, Trainer, TrainerConfig
from repro.synth import AnalyticalEvaluator, SynthesisCache, SynthesisEvaluator


def test_analytical_run_reports_no_synthesis_stats():
    env = PrefixEnv(6, AnalyticalEvaluator(), horizon=4, rng=0)
    agent = ScalarizedDoubleDQN(6, blocks=0, channels=4, rng=0)
    hist = Trainer(env, agent, TrainerConfig(steps=8, warmup_steps=1000), rng=0).run()
    assert hist.synthesis_stats is None


def test_single_env_synthesis_stats():
    env = PrefixEnv(8, SynthesisEvaluator(nangate45()), horizon=4, rng=0)
    agent = ScalarizedDoubleDQN(8, blocks=0, channels=4, rng=0)
    hist = Trainer(env, agent, TrainerConfig(steps=6, warmup_steps=1000), rng=0).run()
    stats = hist.synthesis_stats
    assert stats is not None
    assert stats["backend"] == "local"
    cache = stats["cache"]
    assert cache["misses"] > 0
    assert cache["entries"] > 0
    assert cache["hits"] + cache["misses"] >= hist.env_steps
    assert stats["synthesized"] == cache["misses"]
    assert "farm" not in stats


def test_vector_env_stats_are_its_backends():
    shared = SynthesisCache()
    evaluator = SynthesisEvaluator(nangate45(), cache=shared)
    venv = VectorPrefixEnv.make(8, evaluator, num_envs=3, horizon=4, seed=0)
    agent = ScalarizedDoubleDQN(8, blocks=0, channels=4, rng=0)
    hist = Trainer(venv, agent, TrainerConfig(steps=9, warmup_steps=1000), rng=0).run()
    stats = hist.synthesis_stats
    assert stats == venv.backend.stats() == evaluator.backend.stats()
    assert stats["cache"]["entries"] == len(shared)
    assert stats["cache"]["hit_rate"] == shared.hit_rate
    # Three replicas' rounds went through one batch each.
    assert stats["batches"] >= 3 and stats["designs"] >= 9
    # Revisited designs (duplicate states across replicas/steps) hit.
    assert stats["cache"]["hits"] > 0


def test_farm_backed_run_reports_farm_backend_stats():
    from repro.distributed import SynthesisFarm
    from repro.store import make_store
    from repro.synth import EvaluationBackend

    lib = nangate45()
    with SynthesisFarm("nangate45", num_workers=1) as farm:
        backend = EvaluationBackend(lib, store=make_store(), runner=farm)
        env = PrefixEnv(8, SynthesisEvaluator(lib, backend=backend), horizon=3, rng=0)
        agent = ScalarizedDoubleDQN(8, blocks=0, channels=4, rng=0)
        hist = Trainer(env, agent, TrainerConfig(steps=3, warmup_steps=1000), rng=0).run()
    stats = hist.synthesis_stats
    assert stats is not None
    assert stats["backend"] == "farm-pool[1]"
    assert stats["synthesized"] == stats["cache_misses"] > 0
    assert np.isfinite(stats["cache"]["hit_rate"])
