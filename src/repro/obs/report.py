"""Render obs data: post-run JSONL reports and the live fleet table.

``repro obs report <dir>`` reads every ``*.jsonl`` the fleet wrote under
``--obs-dir``, checks span well-formedness (every ``begin`` must have an
``end``), stitches spans back into per-trace trees across processes and
prints a round-latency breakdown. ``repro stats --connect`` renders the
learner's ``stats`` RPC reply — including the merged fleet metric
snapshot — as a table.
"""

from __future__ import annotations

import glob
import json
import os

from repro.obs.metrics import quantile


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


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def render_fleet(stats: dict, address: "str | None" = None) -> str:
    """The live fleet table for ``repro stats`` from a stats RPC reply."""
    where = f" @ {address}" if address else ""
    lines = [
        f"fleet{where}: env_steps={stats.get('env_steps', 0)}"
        f"/{stats.get('total', 0)}"
        f" gradient_steps={stats.get('gradient_steps', 0)}"
        f" actors={stats.get('actors_connected', 0)}"
        f" buffer={stats.get('buffer_size', 0)}",
        f"  membership: joins={stats.get('joins', 0)}"
        f" rejoins={stats.get('rejoins', 0)}"
        f" evictions={stats.get('evictions', 0)}"
        f" throttled_batches={stats.get('throttled_batches', 0)}",
        f"  cache: entries={stats.get('cache_entries', 0)}"
        f" active_leases={stats.get('active_leases', 0)}",
    ]
    obs = stats["obs"]
    sources = obs.get("sources", {})
    lines.append(
        f"  obs sources: live={sources.get('live_sources', 0)}"
        f" retired={sources.get('retired_sources', 0)}"
    )
    from repro.obs.metrics import merge_snapshots

    merged = merge_snapshots(obs.get("learner"), obs.get("fleet"))
    counters = merged.get("counters", {})
    if counters:
        lines.append("  counters:")
        width = max(len(name) for name in counters)
        for name, value in sorted(counters.items()):
            lines.append(f"    {name:<{width}}  {_fmt(value)}")
    gauges = merged.get("gauges", {})
    if gauges:
        lines.append("  gauges:")
        width = max(len(name) for name in gauges)
        for name, value in sorted(gauges.items()):
            lines.append(f"    {name:<{width}}  {_fmt(value)}")
    histograms = merged.get("histograms", {})
    if histograms:
        lines.append("  histograms (p50/p90 seconds, count):")
        width = max(len(name) for name in histograms)
        for name, data in sorted(histograms.items()):
            lines.append(
                f"    {name:<{width}}  p50={quantile(data, 0.5):.4g}"
                f" p90={quantile(data, 0.9):.4g} n={data['count']}"
            )
    return "\n".join(lines)
