"""Training over E lockstep replicas: the one path every multi-replica run takes.

``repro train --envs E`` is :class:`TrainingRuntime` over
``VectorPrefixEnv.make(n, evaluator, E)``. These tests hold that path to
the promises the runtime makes at every replica count: the env-step
budget is exact, a seed is one run, a preempted run halts at the first
round boundary at or past ``stop_after`` and resumes bit-identically,
periodic checkpoints land on round boundaries, a checkpoint only resumes
on its own replica count, one replica is the bare env, and a synthesis
evaluator is asked once per round.
"""

import numpy as np
import pytest

from repro.cells import nangate45
from repro.distributed import SynthesisFarm
from repro.env import PrefixEnv, VectorPrefixEnv
from repro.pareto import ArchivingEvaluator, dominates
from repro.rl import (
    CheckpointError,
    CheckpointManager,
    RuntimeConfig,
    ScalarizedDoubleDQN,
    Trainer,
    TrainerConfig,
    TrainingRuntime,
)
from repro.rl.trainer import TrainingHistory, fold_round, grads_allowed
from repro.store import make_store
from repro.synth import STATS_KEYS, AnalyticalEvaluator, EvaluationBackend, SynthesisEvaluator

N = 6
HORIZON = 12
CFG = TrainerConfig(steps=40, batch_size=4, warmup_steps=8)


def make_agent(seed=0):
    return ScalarizedDoubleDQN(N, 0.5, 0.5, blocks=0, channels=4, lr=1e-3, rng=seed)


def make_venv(num_envs, seed=0, evaluator=None, horizon=HORIZON, n=N):
    evaluator = evaluator if evaluator is not None else AnalyticalEvaluator(0.5, 0.5)
    return VectorPrefixEnv.make(n, evaluator, num_envs, horizon=horizon, seed=seed)


def assert_same_run(history_a, agent_a, history_b, agent_b):
    assert history_a.env_steps == history_b.env_steps
    assert history_a.gradient_steps == history_b.gradient_steps
    for name in ("losses", "episode_returns", "areas", "delays", "epsilon_trace"):
        assert getattr(history_a, name) == getattr(history_b, name), name
    arrays_a, arrays_b = agent_a.local.state_arrays(), agent_b.local.state_arrays()
    assert list(arrays_a) == list(arrays_b)
    for key in arrays_a:
        np.testing.assert_array_equal(arrays_a[key], arrays_b[key])


def round_boundary(step, num_envs):
    """The first multiple of ``num_envs`` at or past ``step``."""
    return -(-step // num_envs) * num_envs


def kept_per_replica(steps, num_envs):
    """Transitions each replica contributes to a ``steps`` budget: whole
    rounds for everyone, the last partial round's first replicas once more."""
    rounds, extra = divmod(steps, num_envs)
    return [rounds + (i < extra) for i in range(num_envs)]


class TestBudget:
    @pytest.mark.parametrize("learn_every", [1, 3])
    @pytest.mark.parametrize("steps", [1, 13, 24])
    @pytest.mark.parametrize("num_envs", [1, 2, 3, 5, 8])
    def test_the_env_step_budget_is_exact(self, num_envs, steps, learn_every):
        """Whatever E, the history, the replay buffer and the gradient
        cadence see exactly ``steps`` transitions: a last round that
        overshoots the budget is dropped, not recorded."""
        cfg = TrainerConfig(steps=steps, batch_size=4, warmup_steps=8, learn_every=learn_every)
        runtime = TrainingRuntime(make_venv(num_envs), make_agent(), cfg, rng=0)
        history = runtime.run()
        assert history.env_steps == steps
        for name in ("areas", "delays", "epsilon_trace"):
            assert len(getattr(history, name)) == steps, name
        assert len(runtime.buffer) == steps
        assert history.gradient_steps == len(history.losses) == grads_allowed(steps, cfg)
        # Replicas are recorded in replica order, so an episode ends for
        # every HORIZON transitions a replica contributed.
        kept = kept_per_replica(steps, num_envs)
        assert len(history.episode_returns) == sum(k // HORIZON for k in kept)

    @pytest.mark.parametrize("num_envs", [1, 2, 4])
    def test_a_zero_budget_steps_no_replica(self, num_envs):
        venv = make_venv(num_envs)
        runtime = TrainingRuntime(venv, make_agent(), TrainerConfig(steps=0, batch_size=4, warmup_steps=8), rng=0)
        history = runtime.run()
        assert history.env_steps == history.gradient_steps == 0
        assert len(runtime.buffer) == 0
        assert [env.total_steps for env in venv.envs] == [0] * num_envs

    @pytest.mark.parametrize("num_envs", [1, 2, 3, 5])
    def test_a_round_acts_on_one_epsilon(self, num_envs):
        """Epsilon is read once per round, at the round's first env step."""
        schedule = CFG.schedule(CFG.steps)
        history = TrainingRuntime(make_venv(num_envs), make_agent(), CFG, rng=0).run()
        expected = [schedule((k // num_envs) * num_envs) for k in range(CFG.steps)]
        assert history.epsilon_trace == expected

    @pytest.mark.parametrize("num_envs", [1, 2, 3, 5])
    def test_the_buffer_holds_the_kept_transitions_in_replica_order(self, num_envs):
        """Transition ``k`` of the run is replica ``k % E`` in round
        ``k // E``; its ``done`` flag marks that replica's episode end."""
        cfg = TrainerConfig(steps=30, batch_size=4, warmup_steps=8, buffer_capacity=64)
        horizon = 4
        runtime = TrainingRuntime(make_venv(num_envs, horizon=horizon), make_agent(), cfg, rng=0)
        runtime.run()
        dones = runtime.buffer.state_dict()["arrays"]["dones"]
        expected = [(k // num_envs + 1) % horizon == 0 for k in range(cfg.steps)]
        assert dones.tolist() == expected


class TestCadence:
    @pytest.mark.parametrize("learn_every", [1, 2, 3, 5])
    @pytest.mark.parametrize("warmup", [1, 2, 7, 8])
    def test_grads_allowed_counts_the_steps_its_docstring_names(self, warmup, learn_every):
        """One gradient step per 0-indexed env step ``s`` with
        ``s % learn_every == 0`` and ``s >= warmup - 1``."""
        cfg = TrainerConfig(warmup_steps=warmup, learn_every=learn_every)
        for env_steps in range(60):
            literal = sum(1 for s in range(env_steps) if s >= warmup - 1 and s % learn_every == 0)
            assert grads_allowed(env_steps, cfg) == literal, env_steps


def synthetic_round(num_envs, dones):
    return {
        "rewards": np.array([[float(i + 1), 0.0] for i in range(num_envs)]),
        "dones": np.array(dones),
        "areas": np.arange(num_envs, dtype=float) + 10.0,
        "delays": np.arange(num_envs, dtype=float) + 20.0,
    }


class TestFoldRound:
    @pytest.mark.parametrize("room", [0, 1, 2, None])
    @pytest.mark.parametrize("num_envs", [1, 2, 3, 4])
    def test_replicas_are_kept_in_order_up_to_the_budget(self, num_envs, room):
        """``room`` env steps are left in the budget (None: the whole round
        fits). Kept replicas extend the history and close their episodes;
        dropped ones leave it and their running returns untouched."""
        history = TrainingHistory(env_steps=5)
        limit = 5 + (num_envs if room is None else room)
        dones = [i % 2 == 0 for i in range(num_envs)]
        returns = [0.5] * num_envs
        kept = fold_round(history, returns, np.array([1.0, 0.0]), synthetic_round(num_envs, dones), 0.25, limit)
        assert kept == min(num_envs, limit - 5)
        assert history.env_steps == 5 + kept
        assert history.areas == [10.0 + i for i in range(kept)]
        assert history.delays == [20.0 + i for i in range(kept)]
        assert history.epsilon_trace == [0.25] * kept
        assert history.episode_returns == [0.5 + i + 1 for i in range(kept) if dones[i]]
        assert returns == [0.0 if dones[i] else 0.5 + i + 1 for i in range(kept)] + [0.5] * (num_envs - kept)


class TestOneSeedOneRun:
    @pytest.mark.parametrize("num_envs", [1, 2, 3, 4, 5, 6])
    def test_trainer_and_runtime_give_one_run_per_seed(self, num_envs):
        agent_a, agent_b = make_agent(), make_agent()
        history_a = Trainer(make_venv(num_envs), agent_a, CFG, rng=0).run()
        history_b = TrainingRuntime(make_venv(num_envs), agent_b, CFG, RuntimeConfig(), rng=0).run()
        assert history_a.gradient_steps > 0
        assert_same_run(history_a, agent_a, history_b, agent_b)

    @pytest.mark.parametrize("n", [5, 6, 8])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_one_replica_is_the_bare_env(self, n, seed):
        """``--envs 1`` is today's env: replica 0 of ``make(seed=s)`` draws
        from the stream a bare ``PrefixEnv(rng=s)`` draws from."""
        cfg = TrainerConfig(steps=30, batch_size=4, warmup_steps=8)

        def agent():
            return ScalarizedDoubleDQN(n, 0.5, 0.5, blocks=0, channels=4, lr=1e-3, rng=seed)

        bare_agent, vec_agent = agent(), agent()
        bare = PrefixEnv(n, AnalyticalEvaluator(0.5, 0.5), horizon=HORIZON, rng=seed)
        h_bare = TrainingRuntime(bare, bare_agent, cfg, rng=seed).run()
        h_vec = TrainingRuntime(make_venv(1, seed=seed, n=n), vec_agent, cfg, rng=seed).run()
        assert_same_run(h_bare, bare_agent, h_vec, vec_agent)

    @pytest.mark.parametrize("num_envs", [2, 3, 5])
    def test_replica_i_draws_the_stream_of_seed_plus_i(self, num_envs):
        """``make(seed=s)`` gives replica ``i`` the start-state stream of a
        bare env seeded ``s + i``, across auto-resets."""
        seed, horizon = 7, 2
        venv = make_venv(num_envs, seed=seed, horizon=horizon)
        bare = [PrefixEnv(N, AnalyticalEvaluator(0.5, 0.5), horizon=horizon, rng=seed + i) for i in range(num_envs)]
        assert [s.key() for s in venv.reset()] == [env.reset().key() for env in bare]
        for _ in range(3 * horizon):
            actions = [int(np.flatnonzero(mask)[0]) for mask in venv.legal_masks()]
            results = venv.step(actions, venv.successors(actions))
            for i, (env, action, result) in enumerate(zip(bare, actions, results)):
                expected = env.step(env.action_space.action(action))
                np.testing.assert_array_equal(result.reward, expected.reward)
                assert result.done == expected.done
                if expected.done:
                    env.reset()
                assert venv.states[i].key() == env.state.key()


class TestPreemption:
    @pytest.mark.parametrize("stop", [1, 10, 23, 33])
    @pytest.mark.parametrize("num_envs", [1, 2, 3, 4])
    def test_halts_at_the_round_boundary_and_resumes_bit_identically(self, num_envs, stop, tmp_path):
        part = TrainingRuntime(
            make_venv(num_envs), make_agent(), CFG, RuntimeConfig(stop_after=stop),
            checkpoint_dir=tmp_path, rng=0,
        )
        halted = part.run()
        boundary = round_boundary(stop, num_envs)
        assert part.preempted and halted.env_steps == boundary
        assert part.manager.steps() == [boundary]

        full_agent, resumed_agent = make_agent(), make_agent()
        h_full = Trainer(make_venv(num_envs), full_agent, CFG, rng=0).run()
        resumed = TrainingRuntime(
            make_venv(num_envs), resumed_agent, CFG, RuntimeConfig(), checkpoint_dir=tmp_path, rng=0
        )
        h_resumed = resumed.run(resume=True)
        assert not resumed.preempted
        assert_same_run(h_full, full_agent, h_resumed, resumed_agent)

    @pytest.mark.parametrize("stop", [40, 55])
    @pytest.mark.parametrize("num_envs", [1, 3, 4])
    def test_a_stop_at_or_past_the_budget_completes_the_run(self, num_envs, stop, tmp_path):
        """The last round reaches the budget before the stop: the run
        completes, with its final checkpoint at the budget."""
        full_agent, agent = make_agent(), make_agent()
        h_full = Trainer(make_venv(num_envs), full_agent, CFG, rng=0).run()
        runtime = TrainingRuntime(
            make_venv(num_envs), agent, CFG, RuntimeConfig(stop_after=stop),
            checkpoint_dir=tmp_path, rng=0,
        )
        history = runtime.run()
        assert not runtime.preempted
        assert runtime.manager.steps() == [CFG.steps]
        assert_same_run(h_full, full_agent, history, agent)

    @pytest.mark.parametrize("num_envs", [2, 3])
    def test_two_preemptions_then_completion(self, num_envs, tmp_path):
        full_agent, last_agent = make_agent(), make_agent()
        h_full = Trainer(make_venv(num_envs), full_agent, CFG, rng=0).run()
        for stop in (7, 20):
            runtime = TrainingRuntime(
                make_venv(num_envs), make_agent(), CFG, RuntimeConfig(stop_after=stop),
                checkpoint_dir=tmp_path, rng=0,
            )
            history = runtime.run(resume=stop != 7)
            assert runtime.preempted and history.env_steps == round_boundary(stop, num_envs)
        h_last = TrainingRuntime(
            make_venv(num_envs), last_agent, CFG, RuntimeConfig(), checkpoint_dir=tmp_path, rng=0,
        ).run(resume=True)
        assert_same_run(h_full, full_agent, h_last, last_agent)


def due_snapshots(num_envs, every):
    """The steps a run of ``CFG`` checkpoints at: once ``every`` env steps
    passed since the last snapshot, checked after each round, and once
    more when the run completes."""
    expected, last, step = [], 0, 0
    while step < CFG.steps:
        step = min(step + num_envs, CFG.steps)
        if step - last >= every:
            expected.append(step)
            last = step
    if expected[-1] != CFG.steps:
        expected.append(CFG.steps)
    return expected


class TestPeriodicCheckpoints:
    @pytest.mark.parametrize("every", [5, 16])
    @pytest.mark.parametrize("num_envs", [1, 2, 3, 4])
    def test_snapshots_land_on_round_boundaries(self, num_envs, every, tmp_path):
        runtime = TrainingRuntime(
            make_venv(num_envs), make_agent(), CFG, RuntimeConfig(checkpoint_every=every),
            checkpoint_dir=tmp_path, rng=0,
        )
        runtime.manager = CheckpointManager(tmp_path, keep_last=None)  # every snapshot stays to be counted
        runtime.run()
        assert runtime.manager.steps() == due_snapshots(num_envs, every)

    @pytest.mark.parametrize("num_envs", [1, 3])
    def test_retention_keeps_the_three_newest_snapshots(self, num_envs, tmp_path):
        runtime = TrainingRuntime(
            make_venv(num_envs), make_agent(), CFG, RuntimeConfig(checkpoint_every=6),
            checkpoint_dir=tmp_path, rng=0,
        )
        runtime.run()
        assert runtime.manager.steps() == due_snapshots(num_envs, 6)[-3:]


RESUME_PAIRS = [(saved, live) for saved in (1, 2, 3, 4) for live in (1, 2, 3, 4) if saved != live]


class TestReplicaCount:
    @pytest.mark.parametrize("saved, live", RESUME_PAIRS, ids=[f"{s}to{l}" for s, l in RESUME_PAIRS])
    def test_another_count_is_refused_before_anything_is_restored(self, saved, live, tmp_path):
        TrainingRuntime(
            make_venv(saved), make_agent(), CFG, RuntimeConfig(stop_after=12),
            checkpoint_dir=tmp_path, rng=0,
        ).run()
        agent = make_agent(seed=5)
        before = {k: v.copy() for k, v in agent.local.state_arrays().items()}
        venv = make_venv(live)
        runtime = TrainingRuntime(venv, agent, CFG, RuntimeConfig(), checkpoint_dir=tmp_path, rng=0)
        with pytest.raises(
            CheckpointError,
            match=f"holds {saved} env replicas, this run steps {live}; resume with --envs {saved}",
        ):
            runtime.run(resume=True)
        for key, value in agent.local.state_arrays().items():
            np.testing.assert_array_equal(value, before[key])
        assert agent.gradient_steps == 0 and len(runtime.buffer) == 0
        assert venv.states == [None] * live


def backend_records(tmp_path, evaluator, num_envs):
    """Preempt a run over ``evaluator`` into ``tmp_path``."""
    TrainingRuntime(
        make_venv(num_envs, evaluator=evaluator), make_agent(), CFG, RuntimeConfig(stop_after=6),
        checkpoint_dir=tmp_path, rng=0,
    ).run()


def synthesis_evaluator(library, store=None, runner=None):
    backend = EvaluationBackend(library, store=store if store is not None else make_store(), runner=runner)
    return ArchivingEvaluator(SynthesisEvaluator(library, w_area=0.5, w_delay=0.5, backend=backend))


class OneAtATime:
    """A synthesis evaluator without ``evaluate_many``: replicas holding it
    step themselves, one evaluation each."""

    def __init__(self, inner):
        self.inner = inner
        self.c_area, self.c_delay = inner.c_area, inner.c_delay

    def evaluate(self, graph):
        return self.inner.evaluate(graph)

    def scalarize(self, metrics):
        return self.inner.scalarize(metrics)


@pytest.fixture(scope="module")
def lib():
    return nangate45()


class TestSynthesisReplicas:
    SCFG = TrainerConfig(steps=30, batch_size=4, warmup_steps=8)

    @pytest.mark.parametrize("num_envs", [1, 2, 3, 4, 6])
    def test_one_synthesis_batch_per_round(self, lib, num_envs):
        """Each replica's first start is evaluated alone; after that every
        round is one batch of E successors, and every round that ends the
        replicas' episodes one more batch of E fresh starts."""
        horizon = 4
        venv = make_venv(num_envs, evaluator=synthesis_evaluator(lib), horizon=horizon)
        history = Trainer(venv, make_agent(), self.SCFG, rng=0).run()
        rounds = round_boundary(self.SCFG.steps, num_envs) // num_envs
        batches = num_envs + rounds + rounds // horizon
        stats = history.synthesis_stats
        assert stats["batches"] == batches
        assert stats["designs"] == num_envs + num_envs * (rounds + rounds // horizon)

    @pytest.mark.parametrize("horizon", [1, 3])
    @pytest.mark.parametrize("num_envs", [2, 3, 5])
    def test_batched_rounds_record_what_self_stepping_records(self, lib, num_envs, horizon):
        """The round batch only overlaps latency: histories, weights and
        the shared frontier equal those of replicas that evaluate one
        design at a time (horizon 1 resets every replica every round)."""
        batched_eval = synthesis_evaluator(lib)
        serial_eval = ArchivingEvaluator(OneAtATime(synthesis_evaluator(lib).evaluator))
        agents = make_agent(), make_agent()
        histories = [
            Trainer(make_venv(num_envs, evaluator=evaluator, horizon=horizon), agent, self.SCFG, rng=0).run()
            for evaluator, agent in zip((batched_eval, serial_eval), agents)
        ]
        assert histories[0].synthesis_stats is not None and histories[1].synthesis_stats is None
        assert_same_run(histories[0], agents[0], histories[1], agents[1])
        assert batched_eval.archive.points() == serial_eval.archive.points()

    @pytest.mark.parametrize("num_envs", [1, 2, 4])
    def test_every_replica_records_into_the_one_archive(self, lib, num_envs):
        evaluator = synthesis_evaluator(lib)
        venv = make_venv(num_envs, evaluator=evaluator)
        history = Trainer(venv, make_agent(), self.SCFG, rng=0).run()
        assert all(env.archive is evaluator.archive for env in venv.envs)
        frontier = evaluator.archive.points()
        assert frontier and not any(dominates(p, q) for p in frontier for q in frontier)
        # No recorded design is dominated by nothing on the frontier.
        for point in zip(history.areas, history.delays):
            assert point in frontier or any(dominates(q, point) or q == point for q in frontier)

    @pytest.mark.parametrize("num_envs", [1, 2, 3])
    def test_backend_counters_and_frontier_resume_bit_identically(self, lib, num_envs, tmp_path):
        full_eval = synthesis_evaluator(lib)
        full_agent, resumed_agent = make_agent(), make_agent()
        h_full = Trainer(make_venv(num_envs, evaluator=full_eval), full_agent, self.SCFG, rng=0).run()
        TrainingRuntime(
            make_venv(num_envs, evaluator=synthesis_evaluator(lib)), make_agent(), self.SCFG,
            RuntimeConfig(stop_after=10), checkpoint_dir=tmp_path, rng=0,
        ).run()
        resumed_eval = synthesis_evaluator(lib)
        h_resumed = TrainingRuntime(
            make_venv(num_envs, evaluator=resumed_eval), resumed_agent, self.SCFG,
            checkpoint_dir=tmp_path, rng=0,
        ).run(resume=True)
        assert_same_run(h_full, full_agent, h_resumed, resumed_agent)
        assert h_resumed.synthesis_stats == h_full.synthesis_stats
        assert resumed_eval.archive.entries() == full_eval.archive.entries()

    def test_a_preempted_run_reports_its_synthesis_counts(self, lib, tmp_path):
        """A halted run's history carries the counts it synthesized; the
        checkpoint does not hold them, so the resumed run's stats are the
        uninterrupted run's."""
        venv = make_venv(2, evaluator=synthesis_evaluator(lib), n=6)
        part = TrainingRuntime(
            venv, make_agent(), self.SCFG, RuntimeConfig(stop_after=10), checkpoint_dir=tmp_path, rng=0,
        )
        halted = part.run()
        assert part.preempted
        assert halted.synthesis_stats == venv.backend.stats() and halted.synthesis_stats["synthesized"] > 0
        state, _ = part.manager.load()
        assert "synthesis_stats" not in state["history"]
        h_full = Trainer(make_venv(2, evaluator=synthesis_evaluator(lib)), make_agent(), self.SCFG, rng=0).run()
        h_resumed = TrainingRuntime(
            make_venv(2, evaluator=synthesis_evaluator(lib)), make_agent(), self.SCFG,
            checkpoint_dir=tmp_path, rng=0,
        ).run(resume=True)
        assert h_resumed.synthesis_stats == h_full.synthesis_stats

    @pytest.mark.parametrize("num_envs", [1, 2, 4])
    def test_stats_carry_the_one_schema(self, lib, num_envs):
        history = Trainer(make_venv(num_envs, evaluator=synthesis_evaluator(lib)), make_agent(), self.SCFG, rng=0).run()
        stats = history.synthesis_stats
        assert list(stats) == list(STATS_KEYS) and stats["backend"] == "local"
        assert stats["dedup_saved"] == stats["designs"] - stats["unique_designs"]
        assert stats["cache_hits"] + stats["cache_misses"] == stats["unique_designs"]
        assert stats["synthesized"] == stats["cache_misses"] == stats["cache"]["entries"]

    @pytest.mark.parametrize("num_envs", [2, 3])
    def test_a_pool_runner_gives_the_in_process_run(self, lib, num_envs):
        local_agent, pool_agent = make_agent(), make_agent()
        h_local = Trainer(make_venv(num_envs, evaluator=synthesis_evaluator(lib)), local_agent, self.SCFG, rng=0).run()
        with SynthesisFarm("nangate45", num_workers=2) as farm:
            h_pool = Trainer(
                make_venv(num_envs, evaluator=synthesis_evaluator(lib, runner=farm)), pool_agent, self.SCFG, rng=0,
            ).run()
        assert_same_run(h_local, local_agent, h_pool, pool_agent)
        assert h_pool.synthesis_stats["backend"] == farm.name
        assert {k: v for k, v in h_pool.synthesis_stats.items() if k != "backend"} == {
            k: v for k, v in h_local.synthesis_stats.items() if k != "backend"
        }

    @pytest.mark.parametrize("num_envs", [1, 3])
    def test_a_rerun_on_a_durable_store_synthesizes_nothing(self, lib, num_envs, tmp_path):
        runs = []
        for _ in range(2):
            store = make_store(str(tmp_path / "store"))
            try:
                agent = make_agent()
                history = Trainer(
                    make_venv(num_envs, evaluator=synthesis_evaluator(lib, store=store)), agent, self.SCFG, rng=0,
                ).run()
            finally:
                store.close()
            runs.append((history, agent))
        (h_cold, a_cold), (h_warm, a_warm) = runs
        assert h_cold.synthesis_stats["synthesized"] > 0
        assert h_warm.synthesis_stats["synthesized"] == h_warm.synthesis_stats["cache_misses"] == 0
        assert_same_run(h_cold, a_cold, h_warm, a_warm)


class TestBackendRecords:
    """A vector env resolves through at most one backend, whatever E: the
    checkpoint's backend record must match the live env's."""

    @pytest.mark.parametrize("num_envs", [1, 3])
    def test_an_analytical_checkpoint_is_refused_by_a_synthesis_run(self, lib, num_envs, tmp_path):
        backend_records(tmp_path, AnalyticalEvaluator(0.5, 0.5), num_envs)
        runtime = TrainingRuntime(
            make_venv(num_envs, evaluator=synthesis_evaluator(lib)), make_agent(), CFG, checkpoint_dir=tmp_path, rng=0,
        )
        with pytest.raises(
            CheckpointError, match="0 evaluation-backend records, the live environment resolves through 1"
        ):
            runtime.run(resume=True)

    @pytest.mark.parametrize("num_envs", [1, 3])
    def test_a_synthesis_checkpoint_is_refused_by_an_analytical_run(self, lib, num_envs, tmp_path):
        backend_records(tmp_path, synthesis_evaluator(lib), num_envs)
        runtime = TrainingRuntime(make_venv(num_envs), make_agent(), CFG, checkpoint_dir=tmp_path, rng=0)
        with pytest.raises(
            CheckpointError, match="1 evaluation-backend records, the live environment resolves through 0"
        ):
            runtime.run(resume=True)

    @pytest.mark.parametrize("num_envs", [1, 3])
    def test_cache_contents_are_refused_by_a_storeless_backend(self, lib, num_envs, tmp_path):
        backend_records(tmp_path, synthesis_evaluator(lib), num_envs)
        storeless = ArchivingEvaluator(
            SynthesisEvaluator(lib, w_area=0.5, w_delay=0.5, backend=EvaluationBackend(lib))
        )
        runtime = TrainingRuntime(
            make_venv(num_envs, evaluator=storeless), make_agent(), CFG, checkpoint_dir=tmp_path, rng=0,
        )
        with pytest.raises(CheckpointError, match=r"cache contents for a backend \(local\) that has no local store"):
            runtime.run(resume=True)
