"""Observability: metrics, structured events, trace propagation.

The package is stdlib-only and has three independent layers:

- :mod:`repro.obs.metrics` — named counters, gauges and fixed-bucket
  histograms with per-thread recording cells (no lock on the hot path),
  plain-dict snapshots that merge across processes, ``state_dict`` round
  trips (metrics survive checkpoints), and Prometheus-style text
  exposition.
- :mod:`repro.obs.events` — an append-only JSONL event log (one file per
  process) with run/process/role fields and ``begin``/``end`` span events
  carrying monotonic durations. Everything is a no-op until
  :func:`configure` is called, so instrumented code costs one ``None``
  check per event when observability is off.
- :mod:`repro.obs.trace` — contextvar-held trace ids, so one round's tree
  of spans can be reconstructed from the merged JSONL of every process.

:mod:`repro.obs.report` renders the post-run round-latency breakdown
behind ``repro obs report``.
"""

from repro.obs import trace
from repro.obs.events import configure, emit, enabled, run_id, shutdown, span
from repro.obs.metrics import (
    REGISTRY,
    MetricsRegistry,
    counter,
    gauge,
    histogram,
    merge_snapshots,
    render_prometheus,
)

__all__ = [
    "REGISTRY",
    "MetricsRegistry",
    "configure",
    "counter",
    "emit",
    "enabled",
    "gauge",
    "histogram",
    "merge_snapshots",
    "render_prometheus",
    "run_id",
    "shutdown",
    "span",
    "trace",
]
