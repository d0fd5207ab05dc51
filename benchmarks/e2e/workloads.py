"""The four end-to-end workloads.

Each workload drives the program only through what ``examples/`` and
``repro.cli`` already use, and never tells it which workload it is serving:
the program sees generated inputs and nothing else. One workload is

- ``inputs(seed, ops)``  — harness-side input fabrication (not set-up);
- ``setup(inputs, workdir)`` — what a user pays before the first op;
- ``roots(state)``      — the objects the tracer may wrap;
- ``items(state, inputs, tracer)`` — the closed loop as ``(is_op, call)``
  pairs; the runner times each call, work between yields is the harness's;
- ``finish(state, inputs)`` — output checks, digest, program-made counts;
- ``close(state)``.

Op counts are frozen per workload for :data:`REF_SECONDS` of measuring on
the host the benchmark was sized on; ``--seconds`` scales them linearly so
that a run's inputs (and therefore its digest and counts) depend only on
``(seed, seconds)``, never on how fast the host happens to be.
"""

from __future__ import annotations

import hashlib
from contextlib import nullcontext
from functools import partial
from types import SimpleNamespace

import numpy as np

from repro.cells import nangate45
from repro.distributed import BatchedActor
from repro.env import PrefixEnv
from repro.netlist import prefix_adder_netlist, verify_adder
from repro.pareto import hypervolume_2d, pareto_front
from repro.prefix import REGULAR_STRUCTURES
from repro.rl import (
    ReplayBuffer,
    ScalarizedDoubleDQN,
    Trainer,
    TrainerConfig,
    TrainingHistory,
    make_loop,
)
from repro.store import make_store
from repro.synth import (
    AnalyticalEvaluator,
    AreaDelayCurve,
    SynthesisEvaluator,
    Synthesizer,
    calibrate_scaling,
    synthesize_curve,
)

REF_SECONDS = 12


def child_seeds(seed: int, count: int) -> "list[int]":
    """Independent generator seeds derived from the one ``--seed``."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def sha256_arrays(arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def synthesis_stack(n: int, store):
    """Library, calibrated synthesis evaluator over ``store`` and the regular
    structures' curves — the construction ``examples/synthesis_in_the_loop.py``
    and ``repro train`` both perform before the first step."""
    library = nangate45()
    synthesizer = Synthesizer()
    regular = [synthesize_curve(ctor(n), library, synthesizer) for ctor in REGULAR_STRUCTURES.values()]
    c_area, c_delay = calibrate_scaling([(a, d) for curve in regular for d, a in curve.points()])
    evaluator = SynthesisEvaluator(
        library, synthesizer=synthesizer, cache=store, c_area=c_area, c_delay=c_delay
    )
    return SimpleNamespace(
        library=library, synthesizer=synthesizer, evaluator=evaluator, regular=regular, store=store
    )


#: Counts the program makes itself (they repeat exactly for a given seed);
#: a workload reports 0 for the layers it never enters.
NO_COUNTS = dict.fromkeys(
    (
        "rl.env_steps", "rl.gradient_steps", "rl.loss_tail_mean", "env.episodes", "synth.synthesized",
        "store.front_hit_rate", "store.disk_hits", "store.appends", "store.bytes", "store.rewrites",
        "pareto.front_size", "pareto.front_hv_ratio",
    ),
    0,
)


def store_counts(snapshots: "list[dict]") -> dict:
    """Store-layer counts summed over every store instance a run opened.

    ``snapshots`` are ``CurveStore.stats()`` dicts. A layered store reports
    its tiers under ``front``/``disk``; an in-memory cache is all front.
    """
    fronts = [s.get("front", s) for s in snapshots]
    disks = [s.get("disk", {}) for s in snapshots]
    hits = sum(f["hits"] for f in fronts)
    lookups = hits + sum(f["misses"] for f in fronts)
    return {
        "store.front_hit_rate": hits / lookups if lookups else 0.0,
        "store.disk_hits": sum(d.get("hits", 0) for d in disks),
        "store.appends": sum(d.get("appends", 0) for d in disks),
        "store.rewrites": sum(d.get("rewrites", 0) for d in disks),
        "store.bytes": disks[-1].get("bytes", 0),
    }


class TrainSynthN16:
    """The paper's loop: synthesis-in-the-loop double-DQN on a 16b adder."""

    name = "train_synth_n16"
    n = 16
    replay_warmup = 32
    replay_fill = replay_warmup - 1  # the step that pushes the 32nd transition already trains
    ref_ops = 72
    min_ops = 8
    warm_ops = 4

    def inputs(self, seed: int, ops: int):
        return SimpleNamespace(seeds=child_seeds(seed, 3), steps=ops)

    def setup(self, inputs, workdir):
        state = synthesis_stack(self.n, make_store())
        env_seed, agent_seed, replay_seed = inputs.seeds
        state.env = PrefixEnv(self.n, state.evaluator, horizon=24, rng=env_seed)
        state.agent = ScalarizedDoubleDQN(self.n, blocks=2, channels=16, lr=3e-4, rng=agent_seed)
        config = TrainerConfig(batch_size=16, warmup_steps=self.replay_warmup)
        trainer = Trainer(state.env, state.agent, config, rng=replay_seed)
        state.buffer = trainer.buffer
        state.history = TrainingHistory()
        # The stepper `Trainer.run` drives, held here so each tick is one op.
        total = self.replay_fill + inputs.steps
        state.loop = make_loop(
            state.env, state.agent, trainer.buffer, config, total, config.schedule(total), state.history
        )
        state.loop.start()
        return state

    def roots(self, state) -> dict:
        return {
            "loop": state.loop, "agent": state.agent, "buffer": state.buffer, "envs": [state.env],
            "synth": state.evaluator, "synthesizer": state.synthesizer, "store": state.store,
        }

    def items(self, state, inputs, tracer):
        # Filling the replay buffer is on the clock but is not an op: those
        # steps take no gradient step (~12 ms against ~160 ms), and counting
        # them would make the rate a blend and every percentile bimodal.
        for _ in range(self.replay_fill):
            yield False, state.loop.tick
        for _ in range(inputs.steps):
            yield True, state.loop.tick

    def finish(self, state, inputs):
        history, evaluator = state.history, state.evaluator
        failed = 0
        front = state.env.archive.entries()
        for _, _, graph in front:
            try:
                graph.validate()
                ok = verify_adder(prefix_adder_netlist(graph, state.library), self.n, rng=0)
            except ValueError:
                ok = False
            failed += not ok
        weights = (evaluator.w_area, evaluator.w_delay, evaluator.c_area, evaluator.c_delay)
        regular = [curve.w_optimal(*weights) for curve in state.regular]
        corner = (1.1 * max(a for a, _ in regular), 1.1 * max(d for _, d in regular))
        counts = {
            **NO_COUNTS,
            "rl.env_steps": history.env_steps,
            "rl.gradient_steps": history.gradient_steps,
            "rl.loss_tail_mean": float(np.mean(history.losses[-10:])) if history.losses else 0.0,
            "env.episodes": len(history.episode_returns),
            "synth.synthesized": evaluator.backend.stats()["synthesized"],
            "pareto.front_size": len(front),
            "pareto.front_hv_ratio": (
                hypervolume_2d(state.env.archive.points(), corner) / hypervolume_2d(regular, corner)
            ),
            **store_counts([state.store.stats()]),
        }
        digest = sha256_arrays([history.losses, history.areas, history.delays])
        return SimpleNamespace(failed=failed, digest=digest, counts=counts)

    def close(self, state):
        state.store.close()


def walk_corpus(n: int, count: int, seed: int) -> list:
    """``count`` distinct legal ``n``-bit graphs: the regular structures, then
    designs met on epsilon=1 walks of horizon 24 from ripple-carry and from
    Sklansky, dealt out sklansky, ripple, sklansky, ...

    Designs near ripple-carry cost about two thirds of designs near Sklansky
    to synthesise. The fixed deal gives every stretch of the corpus the same
    mix whatever the seed, and two in three from the costlier family puts the
    median op inside one family, not in the gap between the two.
    """
    rng = np.random.default_rng(seed)
    env = PrefixEnv(n, AnalyticalEvaluator(), horizon=24)
    corpus = [ctor(n) for ctor in REGULAR_STRUCTURES.values()]
    seen = {graph.key() for graph in corpus}
    deal = ("sklansky", "ripple", "sklansky")
    share = -(-(count - len(corpus)) // len(deal))
    pools = {"ripple": [], "sklansky": []}
    want = {"ripple": share, "sklansky": 2 * share}
    while any(len(pools[name]) < want[name] for name in pools):
        for name, pool in pools.items():
            state = env.reset(start=REGULAR_STRUCTURES[name](n))
            for _ in range(env.horizon):
                legal = np.nonzero(env.legal_mask(state))[0]
                action = env.action_space.action(int(legal[rng.integers(legal.size)]))
                state = env.step(action).next_state
                if state.key() not in seen:
                    seen.add(state.key())
                    pool.append(state)
    for name in deal * share:
        corpus.append(pools[name].pop())
    return corpus[:count]


class SynthSweepN32:
    """Evaluation only: distinct 32b designs against a cold disk-backed store."""

    name = "synth_sweep_n32"
    n = 32
    ref_ops = 500
    min_ops = 32
    warm_ops = 10
    check_every = 16

    def inputs(self, seed: int, ops: int):
        return SimpleNamespace(corpus=walk_corpus(self.n, ops, child_seeds(seed, 1)[0]))

    def setup(self, inputs, workdir):
        return synthesis_stack(self.n, make_store(workdir))

    def roots(self, state) -> dict:
        return {"synth": state.evaluator, "synthesizer": state.synthesizer, "store": state.store}

    def items(self, state, inputs, tracer):
        for graph in inputs.corpus:
            yield True, partial(state.evaluator.evaluate, graph)

    def finish(self, state, inputs):
        # Counters first: reading the curves back below is a round of hits.
        counts = {
            **NO_COUNTS,
            "synth.synthesized": state.evaluator.backend.stats()["synthesized"],
            **store_counts([state.store.stats()]),
        }
        curves = [state.evaluator.curve(graph) for graph in inputs.corpus]
        failed = 0
        synthesizer = state.synthesizer
        for index, (graph, curve) in enumerate(zip(inputs.corpus, curves)):
            ok = bool(np.all(np.diff(curve.delays) > 0) and np.all(np.diff(curve.areas) <= 0))
            if ok and index % self.check_every == 0:
                # Re-derive the ladder's two end points and hold the stored
                # curve to them, then simulate both optimised netlists.
                prepared = synthesizer.prepare(prefix_adder_netlist(graph, state.library))
                tight = synthesizer.optimize_prepared(prepared, target=0.0)
                relaxed = synthesizer.optimize_prepared(prepared, target=max(tight.delay * 4.0, 1e-3))
                for result in (tight, relaxed):
                    ok = ok and curve.min_delay <= result.delay + 1e-12
                    ok = ok and curve.area_at(result.delay) <= result.area + 1e-9
                    ok = ok and verify_adder(result.netlist, self.n, rng=0)
            failed += not ok
        digest = sha256_arrays(a for curve in curves for a in (curve.delays, curve.areas))
        return SimpleNamespace(failed=failed, digest=digest, counts=counts)

    def close(self, state):
        state.store.close()


class CollectVec8N32:
    """Actor-side collection with no learner: 8 lockstep 32b analytical envs."""

    name = "collect_vec8_n32"
    n = 32
    num_envs = 8
    ref_ops = 190
    min_ops = 16
    warm_ops = 10

    def inputs(self, seed: int, ops: int):
        return SimpleNamespace(seeds=child_seeds(seed, self.num_envs + 3), rounds=ops)

    def setup(self, inputs, workdir):
        *env_seeds, agent_seed, actor_seed, replay_seed = inputs.seeds
        envs = [PrefixEnv(self.n, AnalyticalEvaluator(), horizon=24, rng=s) for s in env_seeds]
        agent = ScalarizedDoubleDQN(self.n, blocks=2, channels=16, lr=3e-4, rng=agent_seed)
        return SimpleNamespace(
            envs=envs,
            agent=agent,
            actor=BatchedActor(envs, agent, rng=actor_seed),
            # Sized to keep every transition, so the check below sees them all.
            buffer=ReplayBuffer(inputs.rounds * self.num_envs, rng=replay_seed),
        )

    def roots(self, state) -> dict:
        return {
            "actor": state.actor, "agent": state.agent, "buffer": state.buffer, "envs": state.envs,
            "analytical": [env.evaluator for env in state.envs],
        }

    def items(self, state, inputs, tracer):
        collect = partial(state.actor.collect, 1, state.buffer, epsilon=0.1)
        for _ in range(inputs.rounds):
            yield True, collect

    def finish(self, state, inputs):
        buffer, env = state.buffer, state.envs[0]
        data = buffer.gather(np.arange(len(buffer)))
        starts = [
            (env.observe(graph), env.legal_mask(graph))
            for graph in (REGULAR_STRUCTURES["ripple"](self.n), REGULAR_STRUCTURES["sklansky"](self.n))
        ]
        # Transitions land in replica order each round, so replica e's action
        # must be legal under its previous transition's next-state mask — or,
        # at an episode start, under the start state the features match.
        failed = 0
        mask_of = [None] * self.num_envs
        for index in range(len(buffer)):
            replica = index % self.num_envs
            mask = mask_of[replica]
            if mask is None:
                features = data["states"][index]
                mask = next((m for f, m in starts if np.array_equal(f, features)), None)
            legal = mask is not None and bool(mask[data["actions"][index]])
            failed += not (legal and np.isfinite(data["rewards"][index]).all())
            mask_of[replica] = None if data["dones"][index] else data["next_masks"][index]
        counts = {
            **NO_COUNTS,
            "rl.env_steps": len(buffer),
            "env.episodes": int(data["dones"].sum()),
            "pareto.front_size": len(pareto_front([p for e in state.envs for p in e.archive.points()])),
        }
        digest = sha256_arrays([data["actions"], data["rewards"]])
        return SimpleNamespace(failed=failed, digest=digest, counts=counts)

    def close(self, state):
        pass


class StoreMixedN32:
    """The evaluation stack's store used warm: Zipf reads, fresh writes, reopen."""

    name = "store_mixed_n32"
    ref_ops = 2400
    min_ops = 60
    warm_ops = 30
    batch = 64
    fill = 5000
    front_entries = 2048
    pool_size = 512

    def inputs(self, seed: int, ops: int):
        rng = np.random.default_rng(child_seeds(seed, 1)[0])
        pool = []
        for _ in range(self.pool_size):
            delays = rng.uniform(0.2, 0.6) * np.cumprod(rng.uniform(1.05, 1.5, size=4))
            areas = rng.uniform(500.0, 3000.0) / np.cumprod(rng.uniform(1.05, 1.3, size=4))
            pool.append(AreaDelayCurve(list(zip(delays.tolist(), areas.tolist()))))
        # A fixed 2:1 mix: get, get, put, ... — reads draw Zipf(1.1) ranks
        # over the keys present at that point, writes take the next fresh keys.
        plan = []
        present = self.fill
        for op in range(ops):
            if op % 3 == 2:
                plan.append(("put", range(present, present + self.batch)))
                present += self.batch
            else:
                plan.append(("get", (rng.zipf(1.1, size=self.batch) - 1) % present))
        keys = [
            (hashlib.sha256(f"{seed}:{i}".encode()).hexdigest(), "nangate45", "openphysyn")
            for i in range(present)
        ]
        return SimpleNamespace(pool=pool, plan=plan, keys=keys)

    def _items_for(self, inputs, indices) -> list:
        return [(inputs.keys[i], inputs.pool[i % self.pool_size]) for i in indices]

    def _open(self, workdir):
        return make_store(workdir, front_entries=self.front_entries)

    def setup(self, inputs, workdir):
        store = self._open(workdir)
        for start in range(0, self.fill, self.batch):
            store.put_many(self._items_for(inputs, range(start, min(start + self.batch, self.fill))))
        store.close()
        return SimpleNamespace(
            workdir=workdir, store=self._open(workdir), closed=[], failed=0, digest=hashlib.sha256()
        )

    def roots(self, state) -> dict:
        return {"store": state.store}

    def _reopen(self, state, tracer=None):
        state.closed.append(state.store.stats())
        with tracer.span("store.reopen") if tracer else nullcontext():
            state.store.close()
            state.store = self._open(state.workdir)
        if tracer:
            tracer.attach(self.roots(state))

    def items(self, state, inputs, tracer):
        pool = inputs.pool
        for op, (kind, indices) in enumerate(inputs.plan):
            if op == len(inputs.plan) // 2:
                yield False, partial(self._reopen, state, tracer)
            if kind == "put":
                yield True, partial(state.store.put_many, self._items_for(inputs, indices))
                continue
            got = []
            keys = [inputs.keys[i] for i in indices]
            yield True, lambda: got.extend(state.store.get_many(keys))
            # Checked here, between ops and off the clock: every read returns
            # exactly the points that were put under that key.
            ok = len(got) == len(keys)
            for index, curve in zip(indices, got):
                want = pool[index % self.pool_size]
                ok = ok and curve is not None
                ok = ok and np.array_equal(curve.delays, want.delays) and np.array_equal(curve.areas, want.areas)
                if ok:
                    state.digest.update(curve.delays.tobytes() + curve.areas.tobytes())
            state.failed += not ok

    def finish(self, state, inputs):
        self._reopen(state)
        snapshots = state.closed + [state.store.stats()]
        counts = {**NO_COUNTS, **store_counts(snapshots)}
        failed = state.failed
        failed += len(state.store) != len(inputs.keys)
        failed += counts["store.rewrites"] != 0
        return SimpleNamespace(failed=failed, digest=state.digest.hexdigest(), counts=counts)

    def close(self, state):
        state.store.close()


WORKLOADS = {w.name: w for w in (TrainSynthN16(), SynthSweepN32(), CollectVec8N32(), StoreMixedN32())}
