"""Append-only structured event log (JSONL, one file per process).

The log is opt-in: until :func:`configure` is called,
:func:`emit` is one ``None`` check and :func:`span` still measures its
body (callers use ``span.seconds`` in place of ad-hoc ``perf_counter``
pairs) but writes nothing — that is the <2%-overhead-off contract the
``obs`` bench section records.

Every line carries ``ts`` (wall clock), ``mono`` (monotonic, for
in-process duration math), ``run`` (run id, shared across
processes via ``REPRO_OBS_RUN``), ``pid``, ``role`` and ``event``.
Span events come in ``begin``/``end`` pairs sharing a ``span`` id; the
``end`` line carries the monotonic duration ``dur``. Both attach the
current trace id (:mod:`repro.obs.trace`) when one is installed, which
is what makes cross-process round reconstruction possible.
"""

from __future__ import annotations

import atexit
import json
import os
import threading
import time

from repro.obs import trace as _trace

#: Environment variable that shares one run id with child processes.
RUN_ENV = "REPRO_OBS_RUN"

_LOG: "EventLog | None" = None


class EventLog:
    """A thread-safe JSONL writer for one process."""

    def __init__(self, path: str, role: str, run: str):
        self.path = path
        self.role = role
        self.run = run
        self.pid = os.getpid()
        self._lock = threading.Lock()
        self._fh = open(path, "a", encoding="utf-8")

    def emit(self, event: str, **fields) -> None:
        record = {
            "ts": round(time.time(), 6),
            "mono": round(time.monotonic(), 6),
            "run": self.run,
            "pid": self.pid,
            "role": self.role,
            "event": event,
        }
        trace_id = _trace.current_id()
        if trace_id is not None:
            record["trace"] = trace_id
        for key, value in fields.items():
            if value is not None:
                record[key] = value
        line = json.dumps(record, separators=(",", ":"), sort_keys=False)
        with self._lock:
            self._fh.write(line + "\n")
            self._fh.flush()

    def close(self) -> None:
        with self._lock:
            self._fh.close()


def configure(
    obs_dir: "str | None", role: str, run: "str | None" = None
) -> "EventLog | None":
    """Open this process's event log under ``obs_dir`` (None: disable).

    The run id is taken from (in order) the ``run`` argument, the
    ``REPRO_OBS_RUN`` environment variable, or freshly minted — and is
    exported back into the environment so subprocesses launched from
    here join the same run.
    """
    global _LOG
    if _LOG is not None:
        _LOG.close()
        _LOG = None
    if obs_dir is None:
        return None
    run = run or os.environ.get(RUN_ENV) or _trace.new_id()
    os.environ[RUN_ENV] = run
    os.makedirs(obs_dir, exist_ok=True)
    path = os.path.join(obs_dir, f"{role}-{os.getpid()}.jsonl")
    _LOG = EventLog(path, role, run)
    _LOG.emit("process_start", argv_role=role)
    # A clean exit always closes the span ledger with a process_end.
    atexit.register(shutdown)
    return _LOG


def shutdown() -> None:
    global _LOG
    if _LOG is not None:
        _LOG.emit("process_end")
        _LOG.close()
        _LOG = None


def enabled() -> bool:
    return _LOG is not None


def run_id() -> "str | None":
    return _LOG.run if _LOG is not None else os.environ.get(RUN_ENV)


def emit(event: str, **fields) -> None:
    log = _LOG
    if log is not None:
        log.emit(event, **fields)


class _Span:
    """Times its body always; emits ``begin``/``end`` when the log is on."""

    __slots__ = ("_token", "fields", "name", "seconds", "span_id", "t0")

    def __init__(self, name: str, fields: dict):
        self.name = name
        self.fields = fields
        self.seconds = 0.0
        self.span_id = None
        self._token = None

    def __enter__(self) -> "_Span":
        log = _LOG
        if log is not None:
            self.span_id = _trace.new_id()
            parent = _trace.current_span()
            self._token = _trace.push_span(self.span_id)
            log.emit(
                "begin",
                name=self.name,
                span=self.span_id,
                parent=parent,
                **self.fields,
            )
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.seconds = time.perf_counter() - self.t0
        if self.span_id is not None:
            _trace.pop_span(self._token)
            log = _LOG
            if log is not None:
                log.emit(
                    "end",
                    name=self.name,
                    span=self.span_id,
                    dur=round(self.seconds, 6),
                    error=(exc_type.__name__ if exc_type is not None else None),
                )


def span(name: str, **fields) -> _Span:
    """A context manager timing its body; ``.seconds`` after exit."""
    return _Span(name, fields)
