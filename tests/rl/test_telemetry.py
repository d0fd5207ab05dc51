"""Run telemetry: a run's synthesis cache/farm counts are its env's ``backend.stats()``."""

import numpy as np

from repro.cells import nangate45
from repro.env import PrefixEnv, VectorPrefixEnv
from repro.rl import ScalarizedDoubleDQN, Trainer, TrainerConfig
from repro.synth import AnalyticalEvaluator, SynthesisCache, SynthesisEvaluator


def test_analytical_run_has_no_backend():
    env = PrefixEnv(6, AnalyticalEvaluator(), horizon=4, rng=0)
    agent = ScalarizedDoubleDQN(6, blocks=0, channels=4, rng=0)
    trainer = Trainer(env, agent, TrainerConfig(warmup_steps=1000), rng=0)
    assert trainer.run(8).env_steps == 8
    assert trainer.env.backend is None


def test_single_env_backend_stats():
    env = PrefixEnv(8, SynthesisEvaluator(nangate45()), horizon=4, rng=0)
    agent = ScalarizedDoubleDQN(8, blocks=0, channels=4, rng=0)
    trainer = Trainer(env, agent, TrainerConfig(warmup_steps=1000), rng=0)
    hist = trainer.run(6)
    stats = trainer.env.backend.stats()
    assert stats == env.evaluator.backend.stats()
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
    Trainer(venv, agent, TrainerConfig(warmup_steps=1000), rng=0).run(9)
    stats = venv.backend.stats()
    assert stats == evaluator.backend.stats()
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
        Trainer(env, agent, TrainerConfig(warmup_steps=1000), rng=0).run(3)
    stats = backend.stats()
    assert stats["backend"] == "farm-pool[1]"
    assert stats["synthesized"] == stats["cache_misses"] > 0
    assert np.isfinite(stats["cache"]["hit_rate"])
