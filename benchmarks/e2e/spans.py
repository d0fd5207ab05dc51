"""Outside-in tracer: wraps public callables of the program from one table.

The program under test is not edited. Each row of :data:`LAYER_TABLE` names
a span and the dotted path of a *public* callable: either a method reached
from an object the workload built (``agent.local.forward`` — the first
component is a key of the workload's ``roots`` dict; a list root applies
the row to every element) or a function patched at its call-site module
(``repro.synth.curve.prefix_adder_netlist``). A stack of open spans gives
parent/child; a layer's self time is its duration minus its direct
children's. Spans stay in memory and are written as JSONL when the run ends.

A row whose target no longer resolves is recorded in ``Tracer.missing`` and
makes that span's metrics null — a refactor of the program can starve the
layer table of rows, never crash the benchmark.
"""

from __future__ import annotations

import importlib
import json
from contextlib import contextmanager
from time import perf_counter

#: (span name, dotted path). Roots: loop, actor, agent, buffer, envs,
#: analytical, synth, synthesizer, store — whichever the workload built.
LAYER_TABLE = (
    ("rl.loop", "loop.tick"),
    ("rl.loop", "actor.collect"),
    ("rl.act", "agent.act"),
    ("rl.act", "agent.act_batch"),
    ("rl.train_step", "agent.train_step"),
    ("nn.predict", "agent.local.predict"),
    ("nn.predict", "agent.target.predict"),
    ("nn.forward", "agent.local.forward"),
    ("nn.backward", "agent.local.backward"),
    ("nn.adam", "agent.optimizer.step"),
    ("rl.replay_push", "buffer.push"),
    ("rl.replay_sample", "buffer.sample"),
    ("env.step", "envs.step"),
    ("env.observe", "repro.env.environment.graph_features"),
    ("env.observe", "repro.env.vector.graph_features"),
    ("env.legal_mask", "envs.action_space.legal_mask"),
    ("prefix.apply", "envs.action_space.apply"),
    ("analytical.evaluate", "analytical.evaluate"),
    ("synth.evaluate", "synth.evaluate"),
    ("synth.curve", "repro.synth.backend.synthesize_curve"),
    ("netlist.build", "repro.synth.curve.prefix_adder_netlist"),
    ("synth.prepare", "synthesizer.prepare"),
    ("synth.optimize", "synthesizer.optimize_prepared"),
    ("store.get", "store.get_many"),
    ("store.put", "store.put_many"),
)

#: Spans that swallow nested wrapped calls: ``QNetwork.predict`` runs
#: ``self.forward``, which must stay predict time, not training-forward time.
LEAF_SPANS = frozenset({"nn.predict"})

#: Counts read off a wrapped call's return value, at the boundary where the
#: work happens (``SynthesisResult.moves``/``.met``, ``Netlist.instances``).
SPAN_COUNTS = {
    "synth.optimize": lambda result: {
        "accepted_moves": sum(v for k, v in result.moves.items() if k != "pin_swap"),
        "met": int(result.met),
    },
    "netlist.build": lambda netlist: {"instances": len(netlist.instances)},
}

#: ``curve_from_prepared`` runs the tight target first, the relaxed one
#: second and the interpolated ones after; a ``synth.optimize`` span is named
#: by that position among its siblings.
LADDER_NAMES = ("synth.optimize_tight", "synth.optimize_relaxed")
LADDER_REST = "synth.optimize_mid"


class Tracer:
    """Records spans around wrapped callables while :attr:`active`."""

    def __init__(self, table=LAYER_TABLE):
        self.table = tuple(table)
        self.active = False
        self.spans: "list[list]" = []  # [name, parent index, start, end, counts]
        self.missing: "list[tuple[str, str]]" = []  # (span name, dotted path)
        self._stack: "list[int]" = []
        self._in_leaf = False
        self._undo: "list" = []
        self._modules_patched = False

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn):
        """A callable that runs ``fn`` inside a span named ``name``."""
        spans, stack = self.spans, self._stack
        leaf = name in LEAF_SPANS
        counts = SPAN_COUNTS.get(name)

        def traced(*args, **kwargs):
            if not self.active or self._in_leaf:
                return fn(*args, **kwargs)
            record = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(record)
            if leaf:
                self._in_leaf = True
            record[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                stack.pop()
                if leaf:
                    self._in_leaf = False
            if counts is not None:
                record[4] = counts(result)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around harness-driven work (e.g. a store close → reopen)."""
        if not self.active:
            yield
            return
        record = [name, self._stack[-1] if self._stack else -1, perf_counter(), 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[3] = perf_counter()
            self._stack.pop()

    # -- attaching to the program -------------------------------------------

    def attach(self, roots: dict) -> None:
        """Wrap every table row that applies to ``roots`` (and module rows once)."""
        for name, path in self.table:
            head, _, rest = path.partition(".")
            if head == "repro":
                if not self._modules_patched:
                    self._patch_module(name, path)
                continue
            if head not in roots:
                continue  # this workload builds no such object
            targets = roots[head]
            for target in targets if isinstance(targets, (list, tuple)) else [targets]:
                self._patch_object(name, path, target, rest.split("."))
        self._modules_patched = True

    def _patch_module(self, name: str, path: str) -> None:
        module_name, _, attr = path.rpartition(".")
        try:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
        except (ImportError, AttributeError):
            self._lost(name, path)
            return
        setattr(module, attr, self.wrap(name, original))
        self._undo.append(lambda: setattr(module, attr, original))

    def _patch_object(self, name: str, path: str, target, attrs: "list[str]") -> None:
        try:
            for attr in attrs[:-1]:
                target = getattr(target, attr)
            original = getattr(target, attrs[-1])
            if not callable(original):
                raise AttributeError(path)
            # An instance attribute shadows the class's method for this
            # object only; the class (and every other instance) is untouched.
            setattr(target, attrs[-1], self.wrap(name, original))
        except AttributeError:
            self._lost(name, path)
            return
        self._undo.append(lambda: delattr(target, attrs[-1]))

    def _lost(self, name: str, path: str) -> None:
        if (name, path) not in self.missing:
            self.missing.append((name, path))

    def detach(self) -> None:
        """Restore every patched callable."""
        while self._undo:
            self._undo.pop()()
        self._modules_patched = False

    # -- reading the spans ---------------------------------------------------

    def layers(self) -> "dict[str, dict]":
        """Per span name: total self seconds, calls and summed counts."""
        spans = named_by_ladder(self.spans)
        child_time = [0.0] * len(spans)
        for name, parent, start, end, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        layers: "dict[str, dict]" = {}
        for (name, _, start, end, counts), children in zip(spans, child_time):
            layer = layers.setdefault(name, {"self_s": 0.0, "calls": 0, "counts": {}})
            layer["self_s"] += (end - start) - children
            layer["calls"] += 1
            for key, value in (counts or {}).items():
                layer["counts"][key] = layer["counts"].get(key, 0) + value
        return layers

    def missing_spans(self) -> "set[str]":
        """Span names that lost at least one table row."""
        return {name for name, _ in self.missing}

    def write_jsonl(self, path) -> None:
        """One JSON object per span: id, parent, root (the op it belongs to),
        name, start/end seconds from the first span, counts."""
        spans = named_by_ladder(self.spans)
        origin = spans[0][2] if spans else 0.0
        roots: "list[int]" = []
        with open(path, "w") as out:
            for index, (name, parent, start, end, counts) in enumerate(spans):
                roots.append(index if parent < 0 else roots[parent])
                row = {
                    "id": index,
                    "parent": parent if parent >= 0 else None,
                    "root": roots[index],
                    "name": name,
                    "start": start - origin,
                    "end": end - origin,
                }
                if counts:
                    row["counts"] = counts
                out.write(json.dumps(row) + "\n")


def named_by_ladder(spans: "list[list]") -> "list[list]":
    """Copy of ``spans`` with each ``synth.optimize`` renamed by ladder position."""
    seen: "dict[int, int]" = {}
    out = []
    for span in spans:
        name, parent = span[0], span[1]
        if name == "synth.optimize" and parent >= 0:
            rank = seen.get(parent, 0)
            seen[parent] = rank + 1
            name = LADDER_NAMES[rank] if rank < len(LADDER_NAMES) else LADDER_REST
        out.append([name, *span[1:]])
    return out


#: Per-layer metric name -> (span name, "self_s" | "calls"). Every timing is
#: total self seconds, so the ``*_s`` rows of one run sum to its traced wall.
SPAN_METRICS = {
    "nn.forward_s": ("nn.forward", "self_s"),
    "nn.backward_s": ("nn.backward", "self_s"),
    "nn.adam_s": ("nn.adam", "self_s"),
    "nn.predict_s": ("nn.predict", "self_s"),
    "nn.predict_calls": ("nn.predict", "calls"),
    "rl.train_step_self_s": ("rl.train_step", "self_s"),
    "rl.act_self_s": ("rl.act", "self_s"),
    "rl.replay_push_s": ("rl.replay_push", "self_s"),
    "rl.replay_sample_s": ("rl.replay_sample", "self_s"),
    "rl.loop_self_s": ("rl.loop", "self_s"),
    "env.step_self_s": ("env.step", "self_s"),
    "env.observe_s": ("env.observe", "self_s"),
    "env.legal_mask_s": ("env.legal_mask", "self_s"),
    "prefix.apply_s": ("prefix.apply", "self_s"),
    "prefix.apply_calls": ("prefix.apply", "calls"),
    "analytical.evaluate_s": ("analytical.evaluate", "self_s"),
    "netlist.build_s": ("netlist.build", "self_s"),
    "synth.prepare_s": ("synth.prepare", "self_s"),
    "synth.optimize_tight_s": ("synth.optimize_tight", "self_s"),
    "synth.optimize_mid_s": ("synth.optimize_mid", "self_s"),
    "synth.optimize_relaxed_s": ("synth.optimize_relaxed", "self_s"),
    "synth.curve_self_s": ("synth.curve", "self_s"),
    "synth.evaluate_self_s": ("synth.evaluate", "self_s"),
    "store.get_s": ("store.get", "self_s"),
    "store.put_s": ("store.put", "self_s"),
    "store.get_calls": ("store.get", "calls"),
    "store.put_calls": ("store.put", "calls"),
    "store.reopen_s": ("store.reopen", "self_s"),
}


#: Counts read off return values, and the span whose loss makes each null.
DERIVED_METRICS = {
    "synth.optimize_calls": "synth.optimize",
    "synth.accepted_moves": "synth.optimize",
    "synth.met_share": "synth.optimize",
    "netlist.instances_mean": "netlist.build",
}


def layer_metrics(tracer: Tracer, traced_wall_s: float) -> "dict[str, float | None]":
    """Every span-derived per-layer metric of one traced run.

    A metric whose span lost a table row is ``None`` (and counted in
    ``trace.missing``); a layer the workload never entered is 0.
    """
    layers = tracer.layers()
    empty = {"self_s": 0.0, "calls": 0, "counts": {}}
    metrics = {metric: layers.get(span, empty)[field] for metric, (span, field) in SPAN_METRICS.items()}
    covered = sum(value for metric, value in metrics.items() if SPAN_METRICS[metric][1] == "self_s")

    ladder = [layers.get(name, empty) for name in (*LADDER_NAMES, LADDER_REST)]
    calls = sum(layer["calls"] for layer in ladder)
    builds = layers.get("netlist.build", empty)
    metrics["synth.optimize_calls"] = calls
    metrics["synth.accepted_moves"] = sum(layer["counts"].get("accepted_moves", 0) for layer in ladder)
    metrics["synth.met_share"] = sum(layer["counts"].get("met", 0) for layer in ladder) / calls if calls else 0.0
    metrics["netlist.instances_mean"] = (
        builds["counts"].get("instances", 0) / builds["calls"] if builds["calls"] else 0.0
    )

    lost = tracer.missing_spans()
    if "synth.optimize" in lost:
        lost |= {*LADDER_NAMES, LADDER_REST}
    sources = {**{metric: span for metric, (span, _) in SPAN_METRICS.items()}, **DERIVED_METRICS}
    for metric, span in sources.items():
        if span in lost:
            metrics[metric] = None
    metrics["trace.coverage_pct"] = 100.0 * covered / traced_wall_s
    metrics["trace.missing"] = len(tracer.missing)
    return metrics
