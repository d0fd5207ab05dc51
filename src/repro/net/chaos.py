"""Fault injection for the cluster: a schedulable TCP chaos proxy.

:class:`ChaosProxy` sits between a framed-protocol client and a real
server, forwarding bytes both ways while letting a test (or the chaos CI
gate) inject the failures a production fleet actually sees:

- ``delay`` — added per-chunk latency (slow links, GC pauses);
- ``blackhole`` — accept traffic but forward nothing (partitions that
  look like a live peer going silent: the heartbeat-timeout case);
- ``truncate_next()`` — forward half of the next chunk, then sever that
  link (the mid-frame disconnect every ``recv_exactly`` loop must treat
  as :class:`~repro.net.protocol.ConnectionClosed`);
- ``sever()`` — cut every live link at once (process kill, host reboot);
- ``sever_after_bytes(n)`` — schedule a sever once ``n`` more forwarded
  bytes cross, so a failure lands mid-round without the test sleeping
  and hoping.

The proxy is pure stdlib and deliberately dumb: it never parses frames,
so what the endpoints observe is exactly what a broken network produces.

:func:`kill_process` / :func:`wait_until` are the subprocess-kill and
bounded-wait halves of the chaos test suite — every wait in a chaos test
is ``wait_until`` with a deadline and a message, never a bare sleep.
"""

from __future__ import annotations

import signal
import socket
import threading
import time

_CHUNK = 65536


class ChaosProxy:
    """A TCP proxy with injectable faults between ``listen`` and ``target``."""

    def __init__(
        self,
        target: "tuple[str, int]",
        listen: "tuple[str, int]" = ("127.0.0.1", 0),
    ):
        self.target = target
        self.delay = 0.0
        self.blackhole = False
        self._truncate_next = False
        self._sever_at: "int | None" = None
        self.connections = 0
        self.bytes_forwarded = 0
        self.bytes_dropped = 0
        self.severed = 0
        self._lock = threading.Lock()
        self._links: "set[socket.socket]" = set()
        self._closing = False
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        # A short accept timeout lets the loop notice `_closing` promptly;
        # closing a listener does not reliably wake a blocked accept().
        self._listener.settimeout(0.25)
        self._listener.bind(listen)
        self._listener.listen()
        self._accept_thread: "threading.Thread | None" = None

    @property
    def address(self) -> "tuple[str, int]":
        return self._listener.getsockname()[:2]

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "ChaosProxy":
        if self._accept_thread is not None:
            raise RuntimeError("proxy already started")
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="chaos-proxy-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        self._closing = True
        self._listener.close()
        self.sever()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
            self._accept_thread = None

    def __enter__(self) -> "ChaosProxy":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- fault controls --------------------------------------------------

    def sever(self) -> int:
        """Cut every live link now; returns how many sockets were closed."""
        with self._lock:
            links, self._links = self._links, set()
        if links and not self._closing:
            # Counted before the sockets close: a peer woken by the close
            # must already see the sever recorded.
            self.severed += 1
        for sock in links:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()
        return len(links)

    def truncate_next(self) -> None:
        """Sever the next forwarding link mid-chunk (a torn frame)."""
        self._truncate_next = True

    def sever_after_bytes(self, more: int) -> None:
        """One-shot: sever all links once ``more`` further bytes forward."""
        self._sever_at = self.bytes_forwarded + more

    # -- plumbing --------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                client, _addr = self._listener.accept()
            except TimeoutError:
                continue
            except OSError:
                return
            try:
                upstream = socket.create_connection(self.target, timeout=10.0)
            except OSError:
                client.close()
                continue
            # The pumps are a dumb pipe: block forever, never idle out
            # (accepted sockets may inherit the listener's accept timeout,
            # and create_connection leaves its dial timeout armed).
            client.settimeout(None)
            upstream.settimeout(None)
            self.connections += 1
            with self._lock:
                self._links.add(client)
                self._links.add(upstream)
            for src, dst in ((client, upstream), (upstream, client)):
                threading.Thread(
                    target=self._pump, args=(src, dst), daemon=True
                ).start()

    def _close_pair(self, *socks: socket.socket) -> None:
        with self._lock:
            for sock in socks:
                self._links.discard(sock)
        for sock in socks:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()

    def _pump(self, src: socket.socket, dst: socket.socket) -> None:
        while True:
            try:
                chunk = src.recv(_CHUNK)
            except OSError:
                chunk = b""
            if not chunk:
                self._close_pair(src, dst)
                return
            if self.blackhole:
                self.bytes_dropped += len(chunk)
                continue
            if self.delay:
                time.sleep(self.delay)
            if self._truncate_next:
                self._truncate_next = False
                half = chunk[: max(len(chunk) // 2, 1)]
                try:
                    dst.sendall(half)
                except OSError:
                    pass
                self.bytes_forwarded += len(half)
                self.bytes_dropped += len(chunk) - len(half)
                self.severed += 1
                self._close_pair(src, dst)
                return
            try:
                dst.sendall(chunk)
            except OSError:
                self._close_pair(src, dst)
                return
            self.bytes_forwarded += len(chunk)
            if self._sever_at is not None and self.bytes_forwarded >= self._sever_at:
                self._sever_at = None
                self.sever()
                return


def kill_process(proc, sig: int = signal.SIGKILL, timeout: float = 10.0) -> int:
    """Deliver ``sig`` and reap; returns the exit code (signal-negative)."""
    if proc.poll() is None:
        proc.send_signal(sig)
    return proc.wait(timeout=timeout)


def wait_until(
    predicate,
    timeout: float,
    interval: float = 0.02,
    message: str = "condition",
):
    """Poll ``predicate`` until truthy; raise with ``message`` at deadline.

    The chaos suite's one sanctioned wait: bounded, with a failure message
    naming what never happened — never sleep-and-hope.
    """
    deadline = time.monotonic() + timeout
    while True:
        value = predicate()
        if value:
            return value
        if time.monotonic() >= deadline:
            raise TimeoutError(f"timed out after {timeout:.1f}s waiting for {message}")
        time.sleep(interval)
