#!/usr/bin/env python3
"""The repo's end-to-end benchmark: one command, every metric by name.

Two ways in, one measuring code path:

``run.py --workload W --seed N --seconds S --trace 0|1``
    One run of one workload in this process (what ``BENCHMARK.json``'s
    ``command`` gets). Prints a table, then as the last line one JSON object
    ``{"correct", "attempted", "failed", "metrics"}`` holding the end-to-end
    metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).

``run.py [--seed N] [--workload W] [--smoke] [--out F]``
    The full protocol: three interleaved rounds per workload, each in its
    own child process, plus one traced child per workload; prints one table
    of every metric with unit, sample count and round-to-round spread, then
    the report as JSON. ``--smoke`` is one traced child per workload at a
    fifth of the ops.

Names, units, directions and bounds come from ``BENCHMARK.json`` alone.
See ``README.md`` for the workloads and how to read the numbers.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"  # scratch stores, child reports and span logs; git-ignored
sys.path.insert(0, str(ROOT / "src"))

import stats  # noqa: E402  (sits beside this file)

ROUNDS = 3
SMOKE_SHARE = 5
IMPORT_REPEATS = 7
SETUP_REPEATS = 9
MAX_TRACEBACKS = 3
BLOCKS = 8


def declared() -> dict:
    """``BENCHMARK.json``: the one place metric names, units and bounds live."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# One run of one workload, in this process
# ----------------------------------------------------------------------


def time_program_import() -> "list[float]":
    """Seconds to import what the workloads import, from a clean module table.

    Repeated so the quartile reported is a warm-bytecode import of the program
    alone: the first pass also pays numpy/scipy and any ``.pyc`` compilation.
    Must run before anything holds a reference into ``repro``.
    """
    times = []
    for _ in range(IMPORT_REPEATS):
        for name in [m for m in sys.modules if m == "workloads" or m.split(".")[0] == "repro"]:
            del sys.modules[name]
        start = perf_counter()
        importlib.import_module("workloads")
        times.append(perf_counter() - start)
    return times


def latency_metrics(samples_ms: "list[float]") -> dict:
    """Rate and latency of one run, from the quiet quarter of its blocks.

    Each figure is taken per block of consecutive ops, and the quartile on
    the fast side over the blocks is reported. Interference from the host's
    other tenants only ever adds time, comes in phases of seconds to minutes
    (measured here: the same ops 2x slower for half a run) and so ruins a
    whole-run mean, a pooled percentile and, when it covers half the run, a
    median over blocks too. A change to the program moves every block, the
    quiet ones included. Every workload's ops are one kind of work in a fixed
    order, so each block is a fair sample of the run.
    """
    parts = stats.blocks(samples_ms, BLOCKS)
    return {
        "ops_per_s": stats.percentile([1e3 * len(part) / sum(part) for part in parts], 75),
        "op_ms_p50": stats.percentile([stats.percentile(part, 50) for part in parts], 25),
        "op_ms_p95": stats.percentile([stats.percentile(part, 95) for part in parts], 25),
    }


def drive(workload, state, inputs, tracer=None):
    """The closed loop: one call after the previous returns, each timed.

    Returns ``(per-op seconds, loop seconds, calls that raised)``. Loop
    seconds are the sum of the timed calls (ops plus in-loop work such as a
    store reopen); the harness's own checking between calls is off the clock.
    """
    samples, loop_s, raised = [], 0.0, 0
    if tracer is not None:
        tracer.attach(workload.roots(state))
        tracer.active = True
    try:
        for is_op, call in workload.items(state, inputs, tracer):
            start = perf_counter()
            try:
                call()
            except Exception:  # an op that raises is a failed op, not a failed benchmark
                raised += 1
                if raised <= MAX_TRACEBACKS:
                    traceback.print_exc()
            elapsed = perf_counter() - start
            loop_s += elapsed
            if is_op:
                samples.append(elapsed)
    finally:
        if tracer is not None:
            tracer.active = False
            tracer.detach()
    return samples, loop_s, raised


def measure(name: str, seed: int, seconds: float, trace: bool, import_times=None) -> dict:
    """Warm up, set up (several times), run ``name`` untraced and, with
    ``trace``, once more under the tracer. Returns the run's full detail."""
    import spans
    from workloads import REF_SECONDS, WORKLOADS

    workload = WORKLOADS[name]
    import_s = stats.percentile(import_times, 25) if import_times else 0.0
    ops = max(workload.min_ops, round(workload.ref_ops * seconds / REF_SECONDS))
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    setup_times = []

    def fresh_state(run_inputs, timed=True):
        workdir = tempfile.mkdtemp(dir=scratch)
        start = perf_counter()
        state = workload.setup(run_inputs, workdir)
        if timed:
            setup_times.append(perf_counter() - start)
        return state

    def one_pass(run_inputs, tracer=None, timed=True):
        state = fresh_state(run_inputs, timed)
        try:
            samples, loop_s, raised = drive(workload, state, run_inputs, tracer)
            outcome = workload.finish(state, run_inputs)
        finally:
            workload.close(state)
        outcome.failed = min(len(samples), raised + outcome.failed)
        return samples, loop_s, outcome

    try:
        # Untimed miniature first: a fresh process runs its first ops slower.
        one_pass(workload.inputs(seed, workload.warm_ops), timed=False)

        start = perf_counter()
        inputs = workload.inputs(seed, ops)
        inputs_s = perf_counter() - start
        for _ in range(SETUP_REPEATS - 1):
            workload.close(fresh_state(inputs))

        samples, loop_s, outcome = one_pass(inputs)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        detail = {
            "attempted": len(samples),
            "failed": outcome.failed,
            "digest": outcome.digest,
            "samples_ms": [1e3 * s for s in samples],
        }
        if trace:
            tracer = spans.Tracer()
            _, traced_s, traced = one_pass(inputs, tracer)
            tracer.write_jsonl(OUT / f"spans-{name}-seed{seed}.jsonl")
            detail["traced_digest"] = traced.digest
            detail["failed"] = max(outcome.failed, traced.failed)
            detail["per_layer"] = {
                **spans.layer_metrics(tracer, traced_s),
                **traced.counts,
                "trace.overhead_pct": 100.0 * (traced_s - loop_s) / loop_s,
                "harness.inputs_s": inputs_s,
                "harness.import_s": import_s,
            }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    detail["end_to_end"] = {
        **latency_metrics(detail["samples_ms"]),
        # The quiet quartile again: set-up is 0.1-0.2 s, and one burst from a
        # neighbour doubles a sample.
        "setup_s": import_s + stats.percentile(setup_times, 25),
        "peak_rss_mb": peak_rss_mb,
    }
    detail["samples"] = {
        "ops_per_s": len(samples), "op_ms_p50": len(samples), "op_ms_p95": len(samples),
        "setup_s": len(setup_times), "peak_rss_mb": 1,
    }
    detail["correct"] = detail["failed"] == 0 and detail.get("traced_digest", outcome.digest) == outcome.digest
    return detail


def run_once(args) -> int:
    """``--seconds`` given: one run here, the contract's JSON as the last line."""
    import_times = time_program_import()
    detail = measure(args.workload, args.seed, args.seconds, bool(args.trace), import_times)
    if args.detail:
        Path(args.detail).write_text(json.dumps(detail))
    group = "per_layer" if args.trace else "end_to_end"
    values = detail[group]
    rows = []
    metrics = {}
    for spec in declared()[group]:
        value = values[spec["name"]]
        rows.append((spec["name"], value, spec["unit"], f"n={detail['samples'].get(spec['name'], 1)}"))
        # A layer whose wrap target is gone has no measurement; the contract
        # line carries numbers only, and `trace.missing` says how many are 0
        # for that reason.
        metrics[spec["name"]] = {"value": 0.0 if value is None else value, "unit": spec["unit"]}
    print_table(f"{args.workload}  seed={args.seed}  ops={detail['attempted']}  digest={detail['digest'][:12]}", rows)
    print(
        json.dumps(
            {
                "correct": detail["correct"],
                "attempted": detail["attempted"],
                "failed": detail["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


def print_table(title: str, rows) -> None:
    """``rows`` of ``(name, value, unit, note)``."""
    print(title)
    for name, value, unit, note in rows:
        text = "null" if value is None else str(value) if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name:<28s} {text:>14s} {unit:<6s} {note}")


# ----------------------------------------------------------------------
# The full protocol: children, rounds, aggregation
# ----------------------------------------------------------------------


def run_child(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload run in its own process; returns its detail."""
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        detail_path = Path(tmp) / "detail.json"
        subprocess.run(
            [
                sys.executable, str(HERE / "run.py"),
                "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(trace), "--detail", str(detail_path),
            ],
            check=True,
            stdout=subprocess.DEVNULL,
        )
        return json.loads(detail_path.read_text())


def aggregate(rounds: "list[dict]", traced: dict, spec: dict) -> dict:
    """One workload's report: each end-to-end metric is the median of its rounds."""
    per_round = {m: [r["end_to_end"][m] for r in rounds] for m in rounds[0]["end_to_end"]}
    per_round["failed_ops_share"] = [r["failed"] / r["attempted"] for r in rounds]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["failed_ops_share"] = "ratio"
    samples = {m: sum(r["samples"][m] for r in rounds) for m in rounds[0]["samples"]}
    samples["failed_ops_share"] = samples["ops_per_s"]
    digests = {r["digest"] for r in rounds} | {traced["digest"], traced["traced_digest"]}
    return {
        "ops": rounds[0]["attempted"],
        "digest": rounds[0]["digest"],
        "digests_agree": len(digests) == 1,
        "correct": len(digests) == 1 and all(r["correct"] for r in rounds + [traced]),
        "end_to_end": {
            m: {
                "value": statistics.median(values),
                "unit": units[m],
                "samples": samples[m],
                "spread": stats.spread(values),
                "rounds": values,
            }
            for m, values in per_round.items()
        },
        "per_layer": {m: {"value": v, "unit": units.get(m, "")} for m, v in traced["per_layer"].items()},
    }


def run_protocol(args) -> int:
    spec = declared()
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"] / SMOKE_SHARE if args.smoke else spec["run_seconds"]
    rounds = {name: [] for name in names}
    traced = {}
    # Interleaved W1 W2 W3 W4 W1 ...: the host drifts over minutes, so no
    # workload may own one stretch of the clock.
    for _ in range(0 if args.smoke else ROUNDS):
        for name in names:
            rounds[name].append(run_child(name, args.seed, seconds, trace=0))
    for name in names:
        traced[name] = run_child(name, args.seed, seconds, trace=1)
    report = {
        "benchmark": "e2e",
        "seed": args.seed,
        "smoke": args.smoke,
        "seconds": seconds,
        # The smoke has no separate rounds: the traced child's untraced pass is its round.
        "workloads": {
            name: aggregate(rounds[name] or [traced[name]], traced[name], spec) for name in names
        },
    }
    for name, result in report["workloads"].items():
        rows = [
            (m, v["value"], v["unit"], f"n={v['samples']}  spread={v['spread']:.3f}")
            for m, v in result["end_to_end"].items()
        ]
        print_table(f"{name}  ops={result['ops']}  digest={result['digest'][:12]}  end to end", rows)
        rows = [(m, v["value"], v["unit"], "") for m, v in result["per_layer"].items()]
        print_table(f"{name}  per layer (traced run)", rows)
    text = json.dumps(report)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1))
    print(text)
    return 0 if all(r["correct"] for r in report["workloads"].values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measure one run of --workload for this long, in this process")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one traced round at a fifth of the ops")
    parser.add_argument("--out", help="also write the report here")
    parser.add_argument("--detail", help=argparse.SUPPRESS)  # child -> parent hand-over
    args = parser.parse_args(argv)
    if args.seconds is None:
        return run_protocol(args)
    if not args.workload:
        parser.error("--seconds needs --workload")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
