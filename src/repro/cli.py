"""Command-line interface: ``prefixrl`` (or ``python -m repro``).

Subcommands mirror the library's main entry points:

- ``build``   — construct a regular structure and print/render/save it
- ``eval``    — analytical metrics of a structure or design file
- ``synth``   — synthesize a design's area-delay curve
- ``train``   — run a small synthesis-in-the-loop training
- ``sweep``   — multi-weight analytical sweep and frontier dump
- ``render``  — network/grid diagrams of a design

Cluster commands (the :mod:`repro.net` subsystem):

- ``serve-learner`` — run the learner half of a cluster and wait for actors
- ``actor``         — run one remote actor process against a learner
- ``cluster``       — localhost convenience: learner + N actor subprocesses
- ``farm-worker``   — run one remote synthesis-farm worker daemon

Observability (the :mod:`repro.obs` subsystem):

- ``stats``         — live fleet table from a learner's ``stats`` RPC
- ``obs report``    — post-run trace/latency report over an ``--obs-dir``
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields
from pathlib import Path


def _configure_obs(fleet, role: str) -> None:
    """Open this process's JSONL event log when ``--obs-dir`` was given.

    A no-op without the flag — the default CLI surface (stdout included)
    stays byte-identical with observability off.
    """
    if fleet.obs_dir:
        from repro import obs

        obs.configure(fleet.obs_dir, role)


def _fleet_event(message: str) -> None:
    """Fleet lifecycle messages: a structured obs event plus the exact
    stderr line the ad-hoc ``on_event`` lambdas used to print."""
    from repro import obs

    obs.emit("fleet_event", message=message)
    print(message, file=sys.stderr, flush=True)


def _require(ok: bool, argument: str, value, need: str) -> None:
    """Exit with one line naming a bad command-line argument and its value."""
    if not ok:
        raise SystemExit(f"argument {argument}: {need}, got {value!r}")


def _load_graph(spec: str, width: int):
    from repro.prefix import REGULAR_STRUCTURES, graph_from_json

    if spec.endswith(".json"):
        try:
            return graph_from_json(Path(spec).read_text())
        except (OSError, KeyError, TypeError, ValueError, IndexError) as exc:
            raise SystemExit(
                f"argument structure: cannot load design file {spec!r}: {exc!r}"
            ) from None
    if spec not in REGULAR_STRUCTURES:
        known = ", ".join(sorted(REGULAR_STRUCTURES))
        raise SystemExit(f"unknown structure {spec!r}; known: {known} (or a .json file)")
    _require(width >= 2, "width", width, "prefix structures need width >= 2")
    return REGULAR_STRUCTURES[spec](width)


def _check_training_args(args) -> None:
    """Range checks for the flags ``train``, ``sweep`` and the cluster
    learners share, run before anything is built or written."""
    _require(args.width >= 3, "width", args.width, "the action space needs width >= 3")
    _require(args.steps >= 0, "--steps", args.steps, "must be >= 0")
    w_area = getattr(args, "w_area", 0.5)
    _require(0.0 <= w_area <= 1.0, "--w-area", w_area, "must be in [0, 1]")


def _library(name: str):
    from repro.cells import LIBRARIES, library_by_name

    if name not in LIBRARIES:
        raise SystemExit(f"unknown library {name!r}; known: {', '.join(LIBRARIES)}")
    return library_by_name(name)


def cmd_build(args) -> int:
    from repro.prefix import graph_to_json, render_network

    graph = _load_graph(args.structure, args.width)
    print(render_network(graph))
    if args.out:
        Path(args.out).write_text(graph_to_json(graph))
        print(f"saved to {args.out}")
    return 0


def cmd_eval(args) -> int:
    from repro.analytical import evaluate_analytical

    graph = _load_graph(args.structure, args.width)
    m = evaluate_analytical(graph)
    print(json.dumps({
        "n": graph.n,
        "compute_nodes": graph.num_compute_nodes,
        "depth": graph.depth(),
        "max_fanout": graph.max_fanout(),
        "analytical_area": m.area,
        "analytical_delay": m.delay,
    }, indent=2))
    return 0


def cmd_synth(args) -> int:
    from repro.synth import synthesize_curve

    graph = _load_graph(args.structure, args.width)
    curve = synthesize_curve(graph, _library(args.library))
    print(f"{'delay (ns)':>12s}  {'area (um2)':>12s}")
    for delay, area in curve.points():
        print(f"{delay:12.4f}  {area:12.2f}")
    return 0


def _require_checkpoint_dir(args) -> None:
    if args.checkpoint_every or args.stop_after is not None or args.resume:
        if not args.checkpoint_dir:
            raise SystemExit(
                "--checkpoint-every/--stop-after/--resume require --checkpoint-dir"
            )


def _print_preempted(history, args) -> None:
    print(
        f"checkpointed at step {history.env_steps} into {args.checkpoint_dir}; "
        "rerun with --resume to continue",
        file=sys.stderr,
    )


def _calibrated_scaling(library, width: int):
    """``(c_area, c_delay)`` calibrated on the regular structures' curves."""
    from repro.prefix import REGULAR_STRUCTURES
    from repro.synth import calibrate_scaling, synthesize_curve

    calib = []
    for ctor in REGULAR_STRUCTURES.values():
        curve = synthesize_curve(ctor(width), library)
        calib.extend((a, d) for d, a in curve.points())
    return calibrate_scaling(calib)


# The episode length every training command runs; fixed, not a flag.
_HORIZON = 24


def _agent_kwargs(args) -> dict:
    """The network shape and learning rate every training command's agents get."""
    return dict(blocks=args.blocks, channels=args.channels, lr=3e-4)


def _trainer_config(args):
    """Every training command's trainer config; only the step budget is a flag."""
    from repro.rl import TrainerConfig

    return TrainerConfig(steps=args.steps, batch_size=8, warmup_steps=16)


def _runtime_config(args):
    """The :class:`RuntimeConfig` of ``train`` and the cluster learners; an
    out-of-range value exits with the message naming its field."""
    from repro.rl import RuntimeConfig

    try:
        return RuntimeConfig(checkpoint_every=args.checkpoint_every, stop_after=args.stop_after)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _cluster_config(args):
    """A fleet command's :class:`ClusterConfig`, built once from the flags
    named after its fields; an out-of-range value exits with the message
    naming its field."""
    from repro.net.config import ClusterConfig

    try:
        return ClusterConfig(**{f.name: getattr(args, f.name) for f in fields(ClusterConfig) if hasattr(args, f.name)})
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _training_setup(args):
    """What ``train`` and the cluster learners build alike, so a cluster
    learner and a local ``train`` run score designs identically: the
    runtime config, the library and its calibrated ``(c_area, c_delay)``,
    the agent and the trainer config."""
    from repro.rl import ScalarizedDoubleDQN

    runtime_config = _runtime_config(args)
    library = _library(args.library)
    scaling = _calibrated_scaling(library, args.width)
    agent = ScalarizedDoubleDQN(
        args.width, w_area=args.w_area, w_delay=1 - args.w_area, rng=args.seed, **_agent_kwargs(args)
    )
    return runtime_config, library, scaling, agent, _trainer_config(args)


def cmd_train(args) -> int:
    from repro.env import PrefixEnv
    from repro.rl import TrainingRuntime
    from repro.store import make_store
    from repro.synth import SynthesisEvaluator

    _check_training_args(args)
    _require_checkpoint_dir(args)
    runtime_config, library, (c_area, c_delay), agent, config = _training_setup(args)
    # Default: the in-memory SynthesisCache (repr unchanged). With
    # --store-dir: a memory front over a durable DiskStore, so a rerun
    # against the same directory starts warm.
    cache = make_store(args.store_dir)
    evaluator = SynthesisEvaluator(
        library, w_area=args.w_area, w_delay=1 - args.w_area,
        cache=cache, c_area=c_area, c_delay=c_delay,
    )
    env = PrefixEnv(args.width, evaluator, horizon=_HORIZON, rng=args.seed)
    runtime = TrainingRuntime(
        env, agent, config, runtime_config, checkpoint_dir=args.checkpoint_dir, rng=args.seed,
    )
    history = runtime.run(
        steps=None if args.resume else args.steps, resume=args.resume
    )
    if runtime.preempted:
        _print_preempted(history, args)
        return 0

    print(f"trained {history.env_steps} steps ({history.gradient_steps} gradient steps)")
    print(f"cache: {cache}")
    print("frontier (area um2, delay ns):")
    for area, delay, _ in env.archive.entries():
        print(f"  {area:10.2f}  {delay:.4f}")
    return 0


def _learner(args):
    """The fleet config and cluster learner runtime of ``serve-learner`` and
    ``cluster``: every flag is checked before anything is built. The
    calibration constants ride to actors inside the ClusterSpec instead of
    being recomputed there, beside the fleet config the learner reads."""
    from repro.net import ClusterSpec
    from repro.rl import TrainingRuntime

    _check_training_args(args)
    fleet = _cluster_config(args)
    _require_checkpoint_dir(args)
    _configure_obs(fleet, "learner")
    runtime_config, _lib, (c_area, c_delay), agent, config = _training_setup(args)
    spec = ClusterSpec.for_agent(
        agent, horizon=_HORIZON, library=args.library, c_area=c_area, c_delay=c_delay,
        seed=args.seed, config=fleet,
    )
    runtime = TrainingRuntime(
        None, agent, config, runtime_config, checkpoint_dir=args.checkpoint_dir, rng=args.seed, cluster=spec,
    )
    return fleet, runtime


def _print_cluster_summary(history) -> None:
    from repro.pareto import pareto_front

    print(f"trained {history.env_steps} steps ({history.gradient_steps} gradient steps)")
    stats = history.synthesis_stats or {}
    cache = stats.get("cache")
    if cache:
        print(
            f"shared cache: entries={cache['entries']}, hits={cache['hits']}, "
            f"misses={cache['misses']}, hit_rate={cache['hit_rate']:.1%}"
        )
    lease = stats.get("lease")
    if lease:
        print(
            f"lease dedup: granted={lease['granted']}, fulfilled={lease['fulfilled']}, "
            f"duplicate waits={lease['waits']}, reclaimed={lease['reclaimed']}",
            file=sys.stderr,
        )
    store = stats.get("store")
    if store:
        print(
            f"curve store: entries={store['entries']}, appends={store['appends']}, "
            f"rewrites={store['rewrites']}, segments={store['segments']}, "
            f"bytes={store['bytes']}",
            file=sys.stderr,
        )
    # Cluster actors keep their archives in their own processes, so the
    # learner summarizes the (area, delay) telemetry it ingested.
    print("history frontier (area um2, delay ns):")
    for area, delay in pareto_front(list(zip(history.areas, history.delays))):
        print(f"  {area:10.2f}  {delay:.4f}")


def _print_fleet_summary(runtime, supervisor=None) -> None:
    membership = getattr(runtime, "membership_stats", None)
    if membership:
        print(
            f"fleet: joins={membership['joins']} rejoins={membership['rejoins']} "
            f"evictions={membership['evictions']} "
            f"throttled_batches={membership['throttled_batches']}",
            file=sys.stderr,
        )
    if supervisor is not None and supervisor.respawns:
        print(
            f"fleet: respawns={sum(supervisor.respawns.values())} "
            f"({', '.join(sorted(supervisor.respawns))})",
            file=sys.stderr,
        )


def cmd_serve_learner(args) -> int:
    _fleet, runtime = _learner(args)
    host, port = runtime.bind()
    print(f"learner listening on {host}:{port}", flush=True)
    # 0.0.0.0 accepts from anywhere but is not a dialable address.
    dial_host = "<this-host>" if host == "0.0.0.0" else host
    print(
        f"dial with: python -m repro actor --connect {dial_host}:{port}",
        file=sys.stderr, flush=True,
    )
    history = runtime.run(
        steps=None if args.resume else args.steps, resume=args.resume
    )
    _print_fleet_summary(runtime)
    if runtime.preempted:
        _print_preempted(history, args)
        return 0
    _print_cluster_summary(history)
    return 0


def cmd_actor(args) -> int:
    from repro.net import (
        LEARNER_UNREACHABLE_EXIT,
        LearnerUnreachable,
        RemoteActorWorker,
        parse_address,
    )

    fleet = _cluster_config(args)
    _configure_obs(fleet, "actor")
    farm_workers = [
        address
        for spec in (args.farm or [])
        for address in spec.split(",")
        if address
    ]
    worker = RemoteActorWorker(
        parse_address(args.connect),
        front_cache_entries=fleet.front_cache,
        farm_workers=farm_workers or None,
        heartbeat_timeout=fleet.heartbeat_timeout,
        reconnect_attempts=fleet.reconnect_attempts,
    )
    try:
        stats = worker.run()
    except LearnerUnreachable as exc:
        # A distinct exit code: the fleet orchestrator treats this as
        # benign when the run completed (the learner left first).
        print(f"actor: {exc}", file=sys.stderr)
        return LEARNER_UNREACHABLE_EXIT
    backend = stats.get("backend") or {}
    print(
        f"actor {stats['actor_id']}: {stats['rounds']} rounds, "
        f"{stats['env_steps_kept']} env steps kept in {stats['wall_seconds']:.1f}s "
        f"(cache {stats['cache_hits']} hits / {stats['cache_misses']} misses, "
        f"synthesized {backend.get('synthesized', 0)})",
        file=sys.stderr,
    )
    if stats.get("reconnects") or stats.get("rounds_lost") or stats.get(
        "throttled_rounds"
    ):
        print(
            f"actor {stats['actor_id']} resilience: "
            f"reconnects={stats['reconnects']} "
            f"rounds_lost={stats['rounds_lost']} "
            f"throttled_rounds={stats['throttled_rounds']} "
            f"reconnect_seconds={stats['reconnect_seconds']:.2f}",
            file=sys.stderr,
        )
    remote = backend.get("remote")
    if remote:
        # With a farm attached every granted lease crosses to a worker.
        print(
            f"actor {stats['actor_id']} farm routed: "
            f"dispatched={backend['synthesized']} workers={remote['workers']} "
            f"redispatched={remote['redispatched_tasks']}",
            file=sys.stderr,
        )
    return 0


def cmd_cluster(args) -> int:
    from repro.net import (
        FleetSupervisor,
        launch_farm_workers,
        respawn_farm_worker,
        run_local_cluster,
        stop_farm_workers,
    )

    fleet, runtime = _learner(args)
    supervisor = FleetSupervisor(
        restart_budget=fleet.restart_budget,
        on_event=_fleet_event,
    )
    farm_procs: list = []
    farm_addresses: list = []
    actor_args: list = []
    if fleet.obs_dir:
        # Spawned actors and farm workers write their own JSONL files
        # into the same directory; REPRO_OBS_RUN (exported by
        # _configure_obs above) stamps them all with this run's id.
        actor_args += ["--obs-dir", fleet.obs_dir]

    def farm_store_args(j):
        # A DiskStore directory has exactly one writer, so each worker
        # gets its own subdirectory — stable across respawns and reruns
        # (worker j always reopens farm-<j>, restarting warm).
        extra = ["--obs-dir", fleet.obs_dir] if fleet.obs_dir else []
        if not fleet.store_dir:
            return extra or None
        return ["--store-dir", str(Path(fleet.store_dir) / f"farm-{j}"), *extra]

    if fleet.farm_workers:
        for j in range(fleet.farm_workers):
            procs_j, addresses_j = launch_farm_workers(
                1, extra_args=farm_store_args(j)
            )
            farm_procs += procs_j
            farm_addresses += addresses_j
        print(
            f"farm workers listening on {', '.join(farm_addresses)}",
            file=sys.stderr, flush=True,
        )
        actor_args += ["--farm", ",".join(farm_addresses)]
        for j, (proc, worker_address) in enumerate(zip(farm_procs, farm_addresses)):

            def respawn(worker_address=worker_address, j=j):
                return respawn_farm_worker(
                    worker_address, extra_args=farm_store_args(j)
                )

            supervisor.watch(
                f"farm-worker-{j}", proc, respawn=respawn, kind="farm"
            )
        supervisor.start()
    try:
        history, codes = run_local_cluster(
            runtime,
            steps=None if args.resume else args.steps,
            resume=args.resume,
            actor_args=actor_args or None,
            supervisor=supervisor,
        )
    except KeyboardInterrupt:
        # SIGINT: pause respawning, TERM every watched child (actors and
        # respawned farm workers alike), reap — no orphaned daemons.
        print("interrupted: shutting the fleet down", file=sys.stderr)
        supervisor.terminate()
        supervisor.stop()
        stop_farm_workers([p for p in farm_procs if p.poll() is None])
        return 130
    finally:
        supervisor.pause()
        # Farm workers may have been respawned: stop the *current* ones.
        watched_farm = supervisor.procs("farm")
        stop_farm_workers(watched_farm if watched_farm else farm_procs)
        supervisor.stop()
    from repro.net import LEARNER_UNREACHABLE_EXIT

    for i, code in enumerate(codes):
        if code == LEARNER_UNREACHABLE_EXIT:
            # The run completed (we are past run_local_cluster): an actor
            # that never reached the learner lost the dial race against
            # the run ending — a late respawn, not a failure.
            print(
                f"note: actor subprocess {i} never reached the learner "
                "before it stopped (benign after a completed run)",
                file=sys.stderr,
            )
        elif code != 0:
            print(f"warning: actor subprocess {i} exited with {code}", file=sys.stderr)
    _print_fleet_summary(runtime, supervisor)
    rc = supervisor.exit_code()
    if any(code not in (0, LEARNER_UNREACHABLE_EXIT) for code in codes):
        rc = rc or 1
    if runtime.preempted:
        _print_preempted(history, args)
        return rc
    _print_cluster_summary(history)
    return rc


def cmd_farm_worker(args) -> int:
    from repro.net import FarmWorkerServer, parse_address

    fleet = _cluster_config(args)
    _configure_obs(fleet, "farm")
    server = FarmWorkerServer(parse_address(fleet.listen), store_dir=fleet.store_dir)
    host, port = server.address
    print(f"farm worker listening on {host}:{port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.closing = True
        if server.store is not None:
            stats = server.store.stats()
            print(
                f"farm worker store: entries={stats['entries']}, "
                f"hits={stats['hits']}, appends={stats['appends']}",
                file=sys.stderr,
            )
        server.server_close()
    return 0


def cmd_stats(args) -> int:
    import time

    from repro.net.protocol import ProtocolError, RemoteError, connect, parse_address
    from repro.obs.report import render_fleet

    _require(0 < args.interval < math.inf, "--interval", args.interval, "must be finite and > 0")
    address = parse_address(args.connect)
    try:
        conn, _welcome = connect(address, role="observer")
    except (ProtocolError, OSError) as exc:
        print(f"stats: cannot reach learner at {args.connect}: {exc}", file=sys.stderr)
        return 1
    try:
        while True:
            reply = conn.call("stats", {})
            print(render_fleet(reply, args.connect), flush=True)
            if not args.watch:
                return 0
            time.sleep(args.interval)
            print(flush=True)
    except KeyboardInterrupt:
        return 0
    except (ProtocolError, RemoteError, OSError) as exc:
        print(f"stats: lost the learner: {exc}", file=sys.stderr)
        return 1
    finally:
        conn.close(bye=True)


def cmd_obs_report(args) -> int:
    from repro.obs.report import render_report

    _require(args.rounds >= 0, "--rounds", args.rounds, "must be >= 0")
    if not Path(args.obs_dir).is_dir():
        print(f"obs report: no such directory: {args.obs_dir}", file=sys.stderr)
        return 1
    print(render_report(args.obs_dir, max_rounds=args.rounds))
    return 0


def cmd_sweep(args) -> int:
    from repro.rl.sweep import pareto_sweep, weight_grid
    from repro.synth import AnalyticalEvaluator

    _check_training_args(args)
    _require(args.weights >= 1, "--weights", args.weights, "must be >= 1")
    result = pareto_sweep(
        n=args.width,
        evaluator_factory=lambda wa, wd: AnalyticalEvaluator(wa, wd),
        weights=weight_grid(args.weights),
        steps_per_weight=args.steps,
        agent_kwargs=_agent_kwargs(args),
        trainer_config=_trainer_config(args),
        horizon=_HORIZON,
        seed=args.seed,
    )
    print("merged analytical frontier (area, delay):")
    for area, delay in result.frontier():
        print(f"  {area:8.1f}  {delay:8.2f}")
    return 0


def cmd_render(args) -> int:
    from repro.prefix import render_grid, render_network

    graph = _load_graph(args.structure, args.width)
    print(render_network(graph))
    if args.grid:
        print(render_grid(graph))
    return 0


# Every flag of the training and fleet commands, declared once: dest name ->
# argparse keywords, with the help text the CLI ships. A flag named after a
# ClusterConfig field takes the field's default. ``width`` is positional.
_FLAGS = {
    "width": dict(type=int, nargs="?", default=8),
    "weights": dict(type=int, default=3),
    "steps": dict(type=int, default=150, help="env-step budget (ignored with --resume)"),
    "w_area": dict(type=float, default=0.5),
    "blocks": dict(type=int, default=1),
    "channels": dict(type=int, default=8),
    "library": dict(default="nangate45"),
    "seed": dict(type=int, default=0),
    "connect": dict(required=True, metavar="HOST:PORT", help="learner address (printed by serve-learner)"),
    "farm": dict(
        action="append", metavar="HOST:PORT[,HOST:PORT...]",
        help="route this actor's leased synthesis to farm-worker daemons (repeat or comma-separate for several)",
    ),
    "actors": dict(type=int, help="actor process slots (replay shards)"),
    "envs_per_actor": dict(type=int, help="lockstep env replicas per actor process"),
    "publish_every": dict(type=int, help="gradient steps between weight publications"),
    "farm_workers": dict(
        type=int,
        help="also spawn this many farm-worker daemons and point every actor's synthesis at them",
    ),
    "restart_budget": dict(
        type=int,
        help="crash respawns allowed per fleet child before its death counts as a launcher failure",
    ),
    "listen": dict(help="learner bind address (default: loopback, ephemeral port)"),
    "heartbeat_timeout": dict(
        type=float,
        help="drop an actor silent this long (seconds); must exceed one acting round's synthesis time",
    ),
    "cluster_wait": dict(type=float, help="abort if no actor is connected for this long (seconds)"),
    "reconnect_attempts": dict(
        type=int,
        help="consecutive failed redials tolerated before the supervised reconnect loop gives up",
    ),
    "store_dir": dict(
        help="persistent content-addressed curve store directory: synthesized curves are durable across "
             "restarts, so a rerun against the same dir starts warm (default: in-memory only)",
    ),
    "checkpoint_dir": dict(help="checkpoint root (cluster checkpoints capture the learner state)"),
    "checkpoint_every": dict(type=int, default=0, help="env steps between checkpoints (0: only at halt/completion)"),
    "stop_after": dict(type=int, help="checkpoint and halt at this env step (simulated preemption)"),
    "resume": dict(action="store_true", help="resume from the latest checkpoint in --checkpoint-dir"),
    "front_cache": dict(type=int, help="actor-local front cache entries over the shared cache"),
    "backpressure_lag": dict(
        type=int,
        help="gradient-cadence deficit beyond which push replies carry a throttle hint (0 disables backpressure)",
    ),
    "throttle_seconds": dict(
        type=float, help="seconds an actor pauses when the learner signals backpressure",
    ),
    "obs_dir": dict(
        help="write structured observability events (JSONL, one file per process) under this directory; "
             "cluster mode forwards the flag to every spawned actor and farm worker (default: off)",
    ),
}

_TRAINING = ("width", "steps", "w_area", "blocks", "channels", "library", "seed")
_LEARNER = _TRAINING + (
    "actors", "envs_per_actor", "publish_every", "listen", "heartbeat_timeout", "cluster_wait", "store_dir",
    "checkpoint_dir", "checkpoint_every", "stop_after", "resume", "backpressure_lag", "throttle_seconds", "obs_dir",
)

# Each command's flags in ``--help`` order, and the keywords where its
# shipped flag differs from the table's.
_COMMANDS = {
    "train": (
        _TRAINING + ("checkpoint_dir", "checkpoint_every", "stop_after", "resume", "store_dir"),
        {
            "steps": dict(help="env-step budget (ignored with --resume: the checkpoint's budget is used)"),
            "checkpoint_dir": dict(help="checkpoint root (enables checkpointing)"),
            "stop_after": dict(
                help="checkpoint and halt at this env step (simulated preemption); exact for train's one env, "
                     "while a runtime over E lockstep replicas halts at the first round boundary at or past it, "
                     "the point a resume continues from bit-identically",
            ),
        },
    ),
    "sweep": (("width", "weights", "steps", "blocks", "channels", "seed"), {"steps": dict(default=300, help=None)}),
    "serve-learner": (_LEARNER, {}),
    "cluster": (_LEARNER + ("farm_workers", "restart_budget"), {}),
    "actor": (
        ("connect", "farm", "front_cache", "heartbeat_timeout", "reconnect_attempts", "obs_dir"),
        {"heartbeat_timeout": dict(default=300.0, help="give up if the learner is silent this long (seconds)")},
    ),
    "farm-worker": (
        ("listen", "store_dir", "obs_dir"),
        {
            "listen": dict(help="bind address (default: loopback, ephemeral port)"),
            "store_dir": dict(
                help="persistent curve store directory: serve synth_batch tasks from the store when the curve "
                     "is already known, append fresh curves for future runs",
            ),
        },
    ),
}


def _add_flags(parser, command: str) -> None:
    """Register ``command``'s flags from the table."""
    from repro.net.config import ClusterConfig

    field_defaults = {f.name: f.default for f in fields(ClusterConfig)}
    names, overrides = _COMMANDS[command]
    for name in names:
        kwargs = {**_FLAGS[name], **overrides.get(name, {})}
        if name in field_defaults:
            kwargs.setdefault("default", field_defaults[name])
        parser.add_argument(name if name == "width" else "--" + name.replace("_", "-"), **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prefixrl",
        description="PrefixRL reproduction: RL optimization of parallel prefix circuits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("structure", help="structure name or design .json file")
        p.add_argument("width", type=int, nargs="?", default=16, help="bit width (default 16)")

    p = sub.add_parser("build", help="construct and save a prefix structure")
    add_common(p)
    p.add_argument("--out", help="write the design JSON here")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("eval", help="analytical metrics of a design")
    add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="synthesize a design's area-delay curve")
    add_common(p)
    p.add_argument("--library", default="nangate45")
    p.set_defaults(func=cmd_synth)

    for command, func, help_text in (
        ("train", cmd_train, "synthesis-in-the-loop RL training"),
        ("serve-learner", cmd_serve_learner, "run a cluster learner server and wait for remote actors"),
        ("actor", cmd_actor, "run one remote actor against a learner"),
        ("cluster", cmd_cluster, "localhost cluster: learner + N actor subprocesses"),
        ("farm-worker", cmd_farm_worker, "run a remote synthesis-farm worker"),
    ):
        p = sub.add_parser(command, help=help_text)
        _add_flags(p, command)
        p.set_defaults(func=func)

    p = sub.add_parser("stats", help="live fleet metrics from a learner")
    p.add_argument("--connect", required=True, metavar="HOST:PORT",
                   help="learner address (printed by serve-learner/cluster)")
    p.add_argument("--watch", action="store_true",
                   help="keep refreshing until interrupted")
    p.add_argument("--interval", type=float, default=2.0,
                   help="seconds between --watch refreshes (default 2)")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("obs", help="observability utilities")
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    rp = obs_sub.add_parser(
        "report", help="post-run trace/latency report over an --obs-dir"
    )
    rp.add_argument("obs_dir", help="directory of per-process JSONL event logs")
    rp.add_argument("--rounds", type=int, default=5,
                    help="slowest traced rounds to break down (default 5)")
    rp.set_defaults(func=cmd_obs_report)

    p = sub.add_parser("sweep", help="multi-weight analytical sweep")
    _add_flags(p, "sweep")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("render", help="render a design")
    add_common(p)
    p.add_argument("--grid", action="store_true", help="also print the MSB/LSB grid")
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    """Entry point for ``prefixrl`` and ``python -m repro``."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
