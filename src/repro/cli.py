"""Command-line interface: ``prefixrl`` (or ``python -m repro``).

Subcommands mirror the library's main entry points:

- ``build``   — construct a regular structure and print/render/save it
- ``eval``    — analytical metrics of a structure or design file
- ``synth``   — synthesize a design's area-delay curve
- ``train``   — run a small synthesis-in-the-loop training
- ``sweep``   — multi-weight analytical sweep and frontier dump
- ``render``  — network/grid diagrams of a design
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


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
    """Range checks for the flags ``train`` and ``sweep`` share, run before
    anything is built or written."""
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


def _trainer_config():
    """Every training command's trainer config; the step budget is its own flag."""
    from repro.rl import TrainerConfig

    return TrainerConfig(batch_size=8, warmup_steps=16)


def cmd_train(args) -> int:
    from repro.env import VectorPrefixEnv
    from repro.pareto import ArchivingEvaluator
    from repro.rl import CheckpointError, ScalarizedDoubleDQN, Trainer
    from repro.store import make_store
    from repro.synth import SynthesisEvaluator

    _check_training_args(args)
    _require(args.envs >= 1, "--envs", args.envs, "must be >= 1")
    _require_checkpoint_dir(args)
    _require(args.checkpoint_every >= 0, "--checkpoint-every", args.checkpoint_every, "must be >= 0")
    _require(args.stop_after is None or args.stop_after >= 1, "--stop-after", args.stop_after,
             "must be a positive env step")
    library = _library(args.library)
    c_area, c_delay = _calibrated_scaling(library, args.width)
    agent = ScalarizedDoubleDQN(
        args.width, w_area=args.w_area, w_delay=1 - args.w_area, rng=args.seed, **_agent_kwargs(args)
    )
    # Default: the in-memory SynthesisCache (repr unchanged). With
    # --store-dir: a memory front over a durable DiskStore, so a rerun
    # against the same directory starts warm.
    cache = make_store(args.store_dir)
    synthesis = SynthesisEvaluator(
        library, w_area=args.w_area, w_delay=1 - args.w_area, cache=cache, c_area=c_area, c_delay=c_delay,
    )
    try:
        # Every replica records into one archive, so the frontier is the run's.
        evaluator = ArchivingEvaluator(synthesis)
        env = VectorPrefixEnv.make(args.width, evaluator, args.envs, horizon=_HORIZON, seed=args.seed)
        trainer = Trainer(
            env, agent, _trainer_config(), rng=args.seed, checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every, stop_after=args.stop_after,
        )
        try:
            history = trainer.run(None if args.resume else args.steps, resume=args.resume)
        except CheckpointError as exc:
            raise SystemExit(str(exc)) from None
        if trainer.preempted:
            print(
                f"checkpointed at step {history.env_steps} into {args.checkpoint_dir}; "
                "rerun with --resume to continue",
                file=sys.stderr,
            )
            return 0

        print(f"trained {history.env_steps} steps ({history.gradient_steps} gradient steps)")
        print(f"cache: {cache}")
        print("frontier (area um2, delay ns):")
        for area, delay, _ in evaluator.archive.entries():
            print(f"  {area:10.2f}  {delay:.4f}")
        return 0
    finally:
        # Stop the synthesis worker; release a --store-dir store's files and its one-writer lock.
        synthesis.backend.close()
        cache.close()


def cmd_sweep(args) -> int:
    from repro.pareto import frontier
    from repro.rl.sweep import rl_search, weight_grid
    from repro.synth import AnalyticalEvaluator

    _check_training_args(args)
    _require(args.steps >= 1, "--steps", args.steps, "a search budget must be >= 1")
    _require(args.weights >= 1, "--weights", args.weights, "must be >= 1")
    # Each weight's agent trains until it has spent --steps distinct designs.
    archive, _ = frontier(
        rl_search(_agent_kwargs(args), _trainer_config(), _HORIZON),
        args.width,
        lambda wa, wd: AnalyticalEvaluator(wa, wd),
        weight_grid(args.weights),
        args.steps,
        seed=args.seed,
    )
    print("merged analytical frontier (area, delay):")
    for area, delay in archive.points():
        print(f"  {area:8.1f}  {delay:8.2f}")
    return 0


def cmd_render(args) -> int:
    from repro.prefix import render_grid, render_network

    graph = _load_graph(args.structure, args.width)
    print(render_network(graph))
    if args.grid:
        print(render_grid(graph))
    return 0


# Every flag of the training commands, declared once: dest name -> argparse
# keywords, with the help text the CLI ships. ``width`` is positional.
_FLAGS = {
    "width": dict(type=int, nargs="?", default=8),
    "weights": dict(type=int, default=3),
    "steps": dict(
        type=int, default=150,
        help="env-step budget (ignored with --resume: the checkpoint's budget is used)",
    ),
    "w_area": dict(type=float, default=0.5),
    "blocks": dict(type=int, default=1),
    "channels": dict(type=int, default=8),
    "library": dict(default="nangate45"),
    "seed": dict(type=int, default=0),
    "envs": dict(
        type=int, default=1,
        help="env replicas stepped in lockstep: one batched Q-network forward and one synthesis batch per round",
    ),
    "checkpoint_dir": dict(help="checkpoint root (enables checkpointing)"),
    "checkpoint_every": dict(type=int, default=0, help="env steps between checkpoints (0: only at halt/completion)"),
    "stop_after": dict(
        type=int,
        help="checkpoint and halt at this env step (simulated preemption); exact for train's one env, "
             "while a runtime over E lockstep replicas halts at the first round boundary at or past it, "
             "the point a resume continues from bit-identically",
    ),
    "resume": dict(action="store_true", help="resume from the latest checkpoint in --checkpoint-dir"),
    "store_dir": dict(
        help="persistent content-addressed curve store directory: synthesized curves are durable across "
             "restarts, so a rerun against the same dir starts warm (default: in-memory only)",
    ),
}

# Each command's flags in ``--help`` order, and the keywords where its
# shipped flag differs from the table's.
_COMMANDS = {
    "train": (
        ("width", "steps", "w_area", "blocks", "channels", "library", "seed", "envs",
         "checkpoint_dir", "checkpoint_every", "stop_after", "resume", "store_dir"),
        {},
    ),
    "sweep": (
        ("width", "weights", "steps", "blocks", "channels", "seed"),
        {"steps": dict(default=300, help="distinct designs per weight (the search budget)")},
    ),
}


def _add_flags(parser, command: str) -> None:
    """Register ``command``'s flags from the table."""
    names, overrides = _COMMANDS[command]
    for name in names:
        kwargs = {**_FLAGS[name], **overrides.get(name, {})}
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

    p = sub.add_parser("train", help="synthesis-in-the-loop RL training")
    _add_flags(p, "train")
    p.set_defaults(func=cmd_train)

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
