"""Self-tests of the end-to-end benchmark's own maths and tracer."""

import pytest

import compare
import run
import spans
import stats


def test_percentile_interpolates_between_ranks():
    samples = [4.0, 1.0, 3.0, 2.0]
    assert stats.percentile(samples, 0) == 1.0
    assert stats.percentile(samples, 50) == 2.5
    assert stats.percentile(samples, 100) == 4.0
    assert stats.percentile(list(range(101)), 95) == 95
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_spread_and_blocks():
    assert stats.spread([10.0]) == 0.0
    assert stats.spread([9.0, 10.0, 12.0]) == pytest.approx(0.3)
    assert stats.blocks(list(range(10)), 4) == [[0, 1], [2, 3, 4], [5, 6], [7, 8, 9]]
    assert stats.blocks([1.0, 2.0], 8) == [[1.0], [2.0]]


def test_latency_metrics_take_the_quiet_quartile_of_blocks():
    # Eight blocks of ten 1 ms ops; five blocks are hit by a 3x slowdown.
    samples = ([1.0] * 10 + [3.0] * 10) * 3 + [3.0] * 20
    metrics = run.latency_metrics(samples)
    assert metrics["ops_per_s"] == pytest.approx(1000.0)
    assert metrics["op_ms_p50"] == pytest.approx(1.0)
    assert metrics["op_ms_p95"] == pytest.approx(1.0)


def test_worse_by_follows_the_metric_direction():
    assert stats.worse_by(100.0, 90.0, "higher") == pytest.approx(0.10)
    assert stats.worse_by(100.0, 90.0, "lower") == pytest.approx(-0.10)
    assert stats.worse_by(0.0, 0.0, "lower") == 0.0


def test_compare_verdicts():
    row = lambda value, spread=0.01: {"value": value, "spread": spread}  # noqa: E731
    assert compare.verdict(row(100.0), row(85.0), "higher", 0.10)[0] == "worse"
    assert compare.verdict(row(100.0), row(95.0), "higher", 0.10)[0] == "not worse"
    assert compare.verdict(row(100.0), row(95.0, spread=0.2), "higher", 0.10)[0] == "unresolved"


def test_self_time_from_a_hand_built_span_tree():
    tracer = spans.Tracer(table=())
    # op [0, 10] > evaluate [1, 9] > curve [2, 8] > optimize [2, 4], [4, 5], [5, 8]; then a second op [10, 11]
    tracer.spans = [
        ["rl.loop", -1, 0.0, 10.0, None],
        ["synth.evaluate", 0, 1.0, 9.0, None],
        ["synth.curve", 1, 2.0, 8.0, None],
        ["synth.optimize", 2, 2.0, 4.0, {"accepted_moves": 3, "met": 1}],
        ["synth.optimize", 2, 4.0, 5.0, {"accepted_moves": 0, "met": 1}],
        ["synth.optimize", 2, 5.0, 8.0, {"accepted_moves": 2, "met": 0}],
        ["rl.loop", -1, 10.0, 11.0, None],
    ]
    layers = tracer.layers()
    assert layers["rl.loop"] == {"self_s": 3.0, "calls": 2, "counts": {}}
    assert layers["synth.evaluate"]["self_s"] == 2.0
    assert layers["synth.curve"]["self_s"] == 0.0
    assert layers["synth.optimize_tight"]["self_s"] == 2.0
    assert layers["synth.optimize_relaxed"]["self_s"] == 1.0
    assert layers["synth.optimize_mid"]["self_s"] == 3.0
    metrics = spans.layer_metrics(tracer, traced_wall_s=11.0)
    assert metrics["trace.coverage_pct"] == pytest.approx(100.0)
    assert metrics["synth.optimize_calls"] == 3
    assert metrics["synth.accepted_moves"] == 5
    assert metrics["synth.met_share"] == pytest.approx(2 / 3)
    assert metrics["nn.forward_s"] == 0.0


def test_wrapped_calls_nest_and_leaf_spans_swallow_their_children():
    class Net:
        def forward(self, x):
            return x + 1

        def predict(self, x):
            return self.forward(x)

    class Agent:
        def __init__(self):
            self.local = Net()

        def train_step(self, x):
            return self.local.forward(x) + self.local.predict(x)

    agent = Agent()
    tracer = spans.Tracer(
        table=(
            ("rl.train_step", "agent.train_step"),
            ("nn.forward", "agent.local.forward"),
            ("nn.predict", "agent.local.predict"),
        )
    )
    tracer.attach({"agent": agent})
    tracer.active = True
    assert agent.train_step(1) == 4
    tracer.active = False
    tracer.detach()
    assert [(s[0], s[1]) for s in tracer.spans] == [("rl.train_step", -1), ("nn.forward", 0), ("nn.predict", 0)]
    assert "forward" not in vars(agent.local) and agent.train_step(1) == 4
    assert len(tracer.spans) == 3


def test_missing_wrap_target_is_a_null_metric_not_a_crash():
    class Agent:
        def act(self):
            return 0

    tracer = spans.Tracer(table=(("rl.act", "agent.act"), ("rl.train_step", "agent.no_such_method")))
    tracer.attach({"agent": Agent()})
    tracer.detach()
    metrics = spans.layer_metrics(tracer, traced_wall_s=1.0)
    assert metrics["trace.missing"] == 1
    assert metrics["rl.train_step_self_s"] is None
    assert metrics["rl.act_self_s"] == 0.0


def test_traced_train_run_matches_untraced_and_emits_every_declared_metric():
    detail = run.measure("train_synth_n16", seed=3, seconds=10 / 3, trace=True)
    assert detail["attempted"] == 20 and detail["failed"] == 0
    assert detail["traced_digest"] == detail["digest"] and detail["correct"]
    layers = detail["per_layer"]
    assert layers["trace.missing"] == 0
    assert layers["trace.coverage_pct"] >= 95.0
    assert layers["rl.gradient_steps"] == 20 and layers["nn.predict_calls"] > 0
    declared = run.declared()
    assert {m["name"] for m in declared["end_to_end"]} <= set(detail["end_to_end"])
    assert {m["name"] for m in declared["per_layer"]} <= set(layers)
