"""Render obs data: post-run JSONL reports.

``repro obs report <dir>`` reads every ``*.jsonl`` event log under a
directory written through :func:`repro.obs.configure`, checks span
well-formedness (every ``begin`` must have an ``end``), stitches spans
back into per-trace trees across processes and prints a round-latency
breakdown. No command writes such a directory today; a training run that
calls :func:`repro.obs.configure` does.
"""

from __future__ import annotations

import glob
import json
import os


def load_events(obs_dir: str) -> "list[dict]":
    """Every event in every per-process JSONL under ``obs_dir``.

    Lines that fail to parse are skipped (a crashed writer can leave a
    torn tail); the result is sorted by wall-clock timestamp.
    """
    events = []
    for path in sorted(glob.glob(os.path.join(obs_dir, "*.jsonl"))):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(record, dict):
                    events.append(record)
    events.sort(key=lambda e: e.get("ts", 0.0))
    return events


def span_problems(events: "list[dict]") -> "list[str]":
    """Well-formedness violations: begins without ends and vice versa."""
    begins: "dict[str, dict]" = {}
    problems = []
    for event in events:
        kind = event.get("event")
        if kind == "begin":
            begins[event.get("span")] = event
        elif kind == "end":
            if begins.pop(event.get("span"), None) is None:
                problems.append(
                    f"end without begin: {event.get('name')} "
                    f"span={event.get('span')}"
                )
    for event in begins.values():
        problems.append(
            f"begin without end: {event.get('name')} span={event.get('span')}"
        )
    return problems


def traces(events: "list[dict]") -> "dict[str, list[dict]]":
    """Events grouped by trace id (events without a trace are dropped)."""
    by_trace: "dict[str, list[dict]]" = {}
    for event in events:
        trace_id = event.get("trace")
        if trace_id:
            by_trace.setdefault(trace_id, []).append(event)
    return by_trace


def _trace_processes(trace_events: "list[dict]") -> "set[tuple]":
    return {(e.get("role"), e.get("pid")) for e in trace_events}


def cross_process_traces(events: "list[dict]") -> "dict[str, list[dict]]":
    """Traces whose events span more than one process."""
    return {
        trace_id: trace_events
        for trace_id, trace_events in traces(events).items()
        if len(_trace_processes(trace_events)) >= 2
    }


def _span_durations(trace_events: "list[dict]") -> "list[tuple[str, str, float]]":
    """(role, span name, seconds) for every completed span in a trace."""
    out = []
    for event in trace_events:
        if event.get("event") == "end" and "dur" in event:
            out.append(
                (event.get("role", "?"), event.get("name", "?"), float(event["dur"]))
            )
    return out


def render_report(obs_dir: str, max_rounds: int = 5) -> str:
    """The post-run report: file inventory, span health, slowest rounds."""
    events = load_events(obs_dir)
    lines = [f"obs report: {obs_dir}"]
    by_proc: "dict[tuple, int]" = {}
    for event in events:
        key = (event.get("role", "?"), event.get("pid", 0))
        by_proc[key] = by_proc.get(key, 0) + 1
    lines.append(f"  processes: {len(by_proc)}  events: {len(events)}")
    for (role, pid), count in sorted(by_proc.items()):
        lines.append(f"    {role}[{pid}]: {count} events")

    problems = span_problems(events)
    if problems:
        lines.append(f"  span problems: {len(problems)}")
        lines.extend(f"    {p}" for p in problems[:10])
    else:
        lines.append("  spans: well-formed (every begin has an end)")

    by_trace = traces(events)
    crossing = cross_process_traces(events)
    lines.append(
        f"  traces: {len(by_trace)} total, {len(crossing)} cross-process"
    )

    rounds = []
    for trace_id, trace_events in by_trace.items():
        durations = _span_durations(trace_events)
        round_spans = [d for _, name, d in durations if name == "actor.round"]
        if round_spans:
            rounds.append((max(round_spans), trace_id, trace_events, durations))
    rounds.sort(reverse=True)
    if rounds:
        lines.append(f"  slowest rounds (of {len(rounds)} traced):")
        for total, trace_id, trace_events, durations in rounds[:max_rounds]:
            roles = sorted({r for r, _ in _trace_processes(trace_events)})
            lines.append(
                f"    trace {trace_id} — {total * 1000:.1f} ms "
                f"across {'/'.join(roles)}"
            )
            parts: "dict[tuple[str, str], float]" = {}
            for role, name, dur in durations:
                if name == "actor.round":
                    continue
                key = (role, name)
                parts[key] = parts.get(key, 0.0) + dur
            for (role, name), dur in sorted(
                parts.items(), key=lambda kv: -kv[1]
            ):
                lines.append(f"      {role}:{name:<24} {dur * 1000:8.2f} ms")
    return "\n".join(lines)
