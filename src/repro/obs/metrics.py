"""Counters, gauges and fixed-bucket histograms with mergeable snapshots.

Recording never takes a lock on the hot path: each metric hands every
thread its own mutable cell (a plain list), registered once under a lock
and then bumped lock-free — correct under the GIL because a single
``cell[i] += x`` on a thread-private object never races. Reads
(``snapshot()``) take the registration lock and fold the cells.

Snapshots are plain JSON-able dicts, so they merge across processes
(:func:`merge_snapshots`) and round-trip through checkpoints
(:meth:`MetricsRegistry.state_dict` / ``load_state_dict``) — the
restored totals land in a ``_base`` term that live cells add onto, which
is how metrics survive a resume.
"""

from __future__ import annotations

import threading
from bisect import bisect_left

# Default bounds for latency histograms, in seconds. The implicit last
# bucket is +Inf (counts[len(bounds)]).
DEFAULT_SECONDS_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _num(value: float):
    """Render integral floats as ints so JSON snapshots stay readable."""
    value = float(value)
    return int(value) if value.is_integer() else value


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("_base", "_cells", "_local", "_lock")

    def __init__(self):
        self._lock = threading.Lock()
        self._cells: "list[list[float]]" = []
        self._local = threading.local()
        self._base = 0.0

    def _cell(self) -> "list[float]":
        cell = getattr(self._local, "cell", None)
        if cell is None:
            cell = [0.0]
            with self._lock:
                self._cells.append(cell)
            self._local.cell = cell
        return cell

    def inc(self, amount: float = 1) -> None:
        self._cell()[0] += amount

    def value(self) -> float:
        with self._lock:
            return self._base + sum(cell[0] for cell in self._cells)

    def _load(self, value: float) -> None:
        with self._lock:
            self._base = float(value) - sum(cell[0] for cell in self._cells)


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta

    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """A fixed-bucket (cumulative-``le`` style) histogram.

    ``bounds`` are ascending upper bounds; an observation lands in the
    first bucket whose bound is >= the value, or the implicit +Inf
    bucket past the end.
    """

    __slots__ = ("_base", "_cells", "_local", "_lock", "bounds")

    def __init__(self, bounds=DEFAULT_SECONDS_BUCKETS):
        self.bounds = tuple(float(b) for b in bounds)
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram bounds must be ascending")
        self._lock = threading.Lock()
        self._cells: "list[dict]" = []
        self._local = threading.local()
        self._base = {
            "counts": [0] * (len(self.bounds) + 1), "sum": 0.0, "count": 0,
        }

    def _cell(self) -> dict:
        cell = getattr(self._local, "cell", None)
        if cell is None:
            cell = {
                "counts": [0] * (len(self.bounds) + 1), "sum": 0.0, "count": 0,
            }
            with self._lock:
                self._cells.append(cell)
            self._local.cell = cell
        return cell

    def observe(self, value: float) -> None:
        cell = self._cell()
        cell["counts"][bisect_left(self.bounds, value)] += 1
        cell["sum"] += value
        cell["count"] += 1

    def data(self) -> dict:
        with self._lock:
            counts = list(self._base["counts"])
            total = self._base["sum"]
            count = self._base["count"]
            for cell in self._cells:
                for i, c in enumerate(cell["counts"]):
                    counts[i] += c
                total += cell["sum"]
                count += cell["count"]
        return {
            "buckets": list(self.bounds),
            "counts": counts,
            "sum": _num(round(total, 9)),
            "count": count,
        }

    def _load(self, data: dict) -> None:
        counts = [int(c) for c in data["counts"]]
        if len(counts) != len(self.bounds) + 1:
            raise ValueError(
                f"histogram state has {len(counts)} buckets, "
                f"metric has {len(self.bounds) + 1}"
            )
        with self._lock:
            self._base = {
                "counts": counts,
                "sum": float(data["sum"]),
                "count": int(data["count"]),
            }


class MetricsRegistry:
    """A namespace of metrics with one snapshot/merge/state_dict surface."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: "dict[str, Counter]" = {}
        self._gauges: "dict[str, Gauge]" = {}
        self._histograms: "dict[str, Histogram]" = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                metric = self._counters[name] = Counter()
            return metric

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                metric = self._gauges[name] = Gauge()
            return metric

    def histogram(self, name: str, bounds=DEFAULT_SECONDS_BUCKETS) -> Histogram:
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                metric = self._histograms[name] = Histogram(bounds)
            return metric

    def snapshot(self) -> dict:
        """The registry's current totals as a plain JSON-able dict."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {n: _num(m.value()) for n, m in sorted(counters.items())},
            "gauges": {n: _num(m.value()) for n, m in sorted(gauges.items())},
            "histograms": {n: m.data() for n, m in sorted(histograms.items())},
        }

    # -- checkpoint round trip ------------------------------------------

    def state_dict(self) -> dict:
        return self.snapshot()

    def load_state_dict(self, state: dict) -> None:
        for name, value in state.get("counters", {}).items():
            self.counter(name)._load(value)
        for name, value in state.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, data in state.get("histograms", {}).items():
            self.histogram(name, data["buckets"])._load(data)

    def reset(self) -> None:
        """Drop every metric (test isolation helper)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


def empty_snapshot() -> dict:
    return {"counters": {}, "gauges": {}, "histograms": {}}


def merge_snapshots(base: "dict | None", extra: "dict | None") -> dict:
    """Fold two snapshot dicts: counters and histograms sum, gauges take
    the right-hand (most recent) value. Inputs are not mutated."""
    out = empty_snapshot()
    for snap in (base, extra):
        if not snap:
            continue
        for name, value in snap.get("counters", {}).items():
            out["counters"][name] = _num(out["counters"].get(name, 0) + value)
        for name, value in snap.get("gauges", {}).items():
            out["gauges"][name] = _num(value)
        for name, data in snap.get("histograms", {}).items():
            seen = out["histograms"].get(name)
            if seen is None or list(seen["buckets"]) != list(data["buckets"]):
                out["histograms"][name] = {
                    "buckets": list(data["buckets"]),
                    "counts": list(data["counts"]),
                    "sum": _num(data["sum"]),
                    "count": int(data["count"]),
                }
            else:
                seen["counts"] = [
                    a + b for a, b in zip(seen["counts"], data["counts"])
                ]
                seen["sum"] = _num(seen["sum"] + data["sum"])
                seen["count"] += int(data["count"])
    return out


def quantile(data: dict, q: float) -> float:
    """Estimate the ``q`` quantile of a histogram snapshot (bucket upper
    bound of the bucket holding the target rank; +Inf clamps to the last
    finite bound)."""
    count = data["count"]
    if count <= 0:
        return 0.0
    rank = q * count
    seen = 0
    bounds = data["buckets"]
    for i, c in enumerate(data["counts"]):
        seen += c
        if seen >= rank:
            return float(bounds[i]) if i < len(bounds) else float(bounds[-1])
    return float(bounds[-1])


def _prom_name(name: str) -> "tuple[str, str]":
    """Split ``base{label=value,...}`` metric names into exposition parts."""
    labels = ""
    if "{" in name and name.endswith("}"):
        name, rest = name.split("{", 1)
        pairs = []
        for part in rest[:-1].split(","):
            key, _, value = part.partition("=")
            pairs.append(f'{key.strip()}="{value.strip()}"')
        labels = "{" + ",".join(pairs) + "}"
    safe = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    return safe, labels


def render_prometheus(snapshot: dict) -> str:
    """Prometheus-style text exposition of a snapshot dict."""
    lines = []
    for name, value in snapshot.get("counters", {}).items():
        base, labels = _prom_name(name)
        lines.append(f"# TYPE {base}_total counter")
        lines.append(f"{base}_total{labels} {value}")
    for name, value in snapshot.get("gauges", {}).items():
        base, labels = _prom_name(name)
        lines.append(f"# TYPE {base} gauge")
        lines.append(f"{base}{labels} {value}")
    for name, data in snapshot.get("histograms", {}).items():
        base, labels = _prom_name(name)
        inner = labels[1:-1] if labels else ""
        lines.append(f"# TYPE {base} histogram")
        cumulative = 0
        for bound, count in zip(data["buckets"], data["counts"]):
            cumulative += count
            label = ",".join(x for x in (inner, f'le="{bound}"') if x)
            lines.append(f"{base}_bucket{{{label}}} {cumulative}")
        label = ",".join(x for x in (inner, 'le="+Inf"') if x)
        lines.append(f"{base}_bucket{{{label}}} {data['count']}")
        lines.append(f"{base}_sum{labels} {data['sum']}")
        lines.append(f"{base}_count{labels} {data['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


#: The process-wide registry instrumented code records into.
REGISTRY = MetricsRegistry()


def counter(name: str) -> Counter:
    return REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    return REGISTRY.gauge(name)


def histogram(name: str, bounds=DEFAULT_SECONDS_BUCKETS) -> Histogram:
    return REGISTRY.histogram(name, bounds)
