"""Cross-process trace propagation via contextvars.

A *trace* is a dict ``{"id": hex, "run": run-id}``. :func:`scope`
installs one for the duration of a unit of work (a round), and every span
opened under it carries its id, so one round's spans can be stitched back
together from the merged JSONL of every process that took part. A trace
crosses a process boundary as :func:`wire_context`, which adds the
caller's current span id as ``parent``, so a span the receiver opens
under :func:`scope` nests under the span that sent the work.
"""

from __future__ import annotations

import contextvars
import os
from contextlib import contextmanager

_TRACE: "contextvars.ContextVar[dict | None]" = contextvars.ContextVar(
    "repro_obs_trace", default=None
)
_SPAN: "contextvars.ContextVar[str | None]" = contextvars.ContextVar(
    "repro_obs_span", default=None
)


def new_id() -> str:
    return os.urandom(8).hex()


def new_trace(run: "str | None" = None) -> dict:
    """Mint a fresh trace context (``run`` ties traces to one fleet run)."""
    trace = {"id": new_id()}
    if run:
        trace["run"] = run
    return trace


def current() -> "dict | None":
    return _TRACE.get()


def current_id() -> "str | None":
    trace = _TRACE.get()
    return trace.get("id") if trace else None


def current_span() -> "str | None":
    return _SPAN.get()


def push_span(span_id: "str | None"):
    return _SPAN.set(span_id)


def pop_span(token) -> None:
    _SPAN.reset(token)


def wire_context() -> "dict | None":
    """The dict a framed CALL should carry (``None``: nothing to attach)."""
    trace = _TRACE.get()
    if trace is None:
        return None
    ctx = dict(trace)
    span = _SPAN.get()
    if span is not None:
        ctx["parent"] = span
    return ctx


@contextmanager
def scope(trace: "dict | None"):
    """Install ``trace`` (a :func:`wire_context`-shaped dict) as current.

    ``None`` (or a malformed value off the wire) is a no-op, so call
    sites never need to branch.
    """
    if not isinstance(trace, dict) or "id" not in trace:
        yield
        return
    parent = trace.get("parent")
    tok = _TRACE.set({k: v for k, v in trace.items() if k != "parent"})
    tok_span = _SPAN.set(parent if isinstance(parent, str) else None)
    try:
        yield
    finally:
        _SPAN.reset(tok_span)
        _TRACE.reset(tok)
