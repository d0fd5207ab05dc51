"""The report layer: JSONL loading, span health, trace stitching, the report."""

from __future__ import annotations

import json

from repro.obs.report import (
    cross_process_traces,
    load_events,
    render_report,
    span_problems,
    traces,
)


def ev(event, role="actor", pid=1, ts=0.0, **fields):
    return {"ts": ts, "mono": ts, "run": "r1", "pid": pid, "role": role,
            "event": event, **fields}


def write_jsonl(path, events):
    path.write_text("".join(json.dumps(e) + "\n" for e in events))


class TestLoadEvents:
    def test_merges_files_sorted_by_timestamp(self, tmp_path):
        write_jsonl(tmp_path / "actor-1.jsonl", [ev("b", ts=2.0)])
        write_jsonl(tmp_path / "learner-2.jsonl", [ev("a", role="learner", ts=1.0)])
        events = load_events(tmp_path)
        assert [e["event"] for e in events] == ["a", "b"]

    def test_torn_tail_is_skipped(self, tmp_path):
        path = tmp_path / "actor-1.jsonl"
        path.write_text(json.dumps(ev("ok")) + "\n" + '{"torn": tru')
        assert [e["event"] for e in load_events(tmp_path)] == ["ok"]


class TestSpanProblems:
    def test_matched_spans_are_clean(self):
        events = [ev("begin", span="s1", name="x"), ev("end", span="s1", name="x")]
        assert span_problems(events) == []

    def test_orphans_are_reported_both_ways(self):
        problems = span_problems(
            [ev("begin", span="s1", name="x"), ev("end", span="s9", name="y")]
        )
        assert any("begin without end" in p for p in problems)
        assert any("end without begin" in p for p in problems)


class TestTraces:
    def test_grouped_by_trace_and_cross_process_detected(self):
        events = [
            ev("begin", trace="t1", span="s1", name="actor.round"),
            ev("begin", role="learner", pid=2, trace="t1", span="s2", name="rpc"),
            ev("begin", trace="t2", span="s3", name="actor.round"),
            ev("untraced"),
        ]
        assert set(traces(events)) == {"t1", "t2"}
        assert set(cross_process_traces(events)) == {"t1"}


class TestRenderReport:
    def test_report_reconstructs_a_cross_process_round(self, tmp_path):
        write_jsonl(tmp_path / "actor-1.jsonl", [
            ev("begin", ts=1.0, trace="t1", span="s1", name="actor.round"),
            ev("end", ts=1.5, trace="t1", span="s1", name="actor.round", dur=0.5),
            ev("begin", ts=1.1, trace="t1", span="s2", name="actor.push"),
            ev("end", ts=1.2, trace="t1", span="s2", name="actor.push", dur=0.1),
        ])
        write_jsonl(tmp_path / "learner-2.jsonl", [
            ev("begin", role="learner", pid=2, ts=1.12, trace="t1",
               span="s3", name="rpc.push_batch"),
            ev("end", role="learner", pid=2, ts=1.18, trace="t1",
               span="s3", name="rpc.push_batch", dur=0.06),
        ])
        text = render_report(str(tmp_path))
        assert "processes: 2" in text
        assert "spans: well-formed" in text
        assert "1 cross-process" in text
        assert "slowest rounds" in text
        assert "actor/learner" in text
        assert "learner:rpc.push_batch" in text

    def test_span_problems_surface_in_the_report(self, tmp_path):
        write_jsonl(tmp_path / "actor-1.jsonl", [
            ev("begin", ts=1.0, span="s1", name="actor.round"),
        ])
        assert "span problems: 1" in render_report(str(tmp_path))
