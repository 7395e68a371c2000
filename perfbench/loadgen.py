"""Open-loop HTTP load generator for the serve plane.

One thread drives up to two keep-alive connections.  Every request has a
due time on a fixed-rate schedule; it is sent as soon as it falls due
(pipelined behind the connection with the fewest requests outstanding)
and its latency is measured from the due time, so a stall in the server
charges every request queued behind it.

The sender spins through the last couple of milliseconds before a send:
epoll timeouts round up to whole milliseconds, so a selector-driven wait
would send ~1 ms late, three times the latency being measured.  How late
the generator ran is recorded per request (``lateness``) so a run can be
rejected when the generator, not the program, set the numbers.
"""

from __future__ import annotations

import selectors
import socket
import time
from collections import deque
from dataclasses import dataclass, field

__all__ = [
    "KeepAliveClient",
    "LoadResult",
    "Request",
    "closed_loop",
    "encode_get",
    "encode_post",
    "http_get",
    "open_loop",
]

#: Below this wait the sender polls instead of sleeping in the selector.
#: At 500 requests/s (a 2 ms interval) the sender always polls, on a core
#: ``serve`` does not use: sleeping from 1.2 ms instead left lateness p90
#: at ~0.05 ms and added ~0.07 ms to latency p50 in waking the client.
_SPIN_S = 0.002


@dataclass(frozen=True, slots=True)
class Request:
    """One pre-encoded request of a plan."""

    kind: str  # "address" | "screen"
    target: str
    wire: bytes
    body: bytes = b""
    request_id: str = ""


def encode_get(target: str, request_id: str) -> bytes:
    return (
        f"GET {target} HTTP/1.1\r\nHost: bench\r\nX-Request-Id: {request_id}\r\n\r\n"
    ).encode("latin-1")


def encode_post(target: str, body: bytes, request_id: str) -> bytes:
    return (
        f"POST {target} HTTP/1.1\r\nHost: bench\r\nX-Request-Id: {request_id}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode("latin-1") + body


@dataclass
class LoadResult:
    """Per-request timings (``perf_counter`` seconds) of one load phase."""

    due: list[float]
    sent: list[float]
    done: list[float]
    status: list[int]
    size: list[int]
    bodies: dict[int, bytes] = field(default_factory=dict)
    #: Requests never answered (timed out or still outstanding at the end).
    unanswered: int = 0

    @property
    def count(self) -> int:
        return len(self.due)

    def latency_s(self, i: int) -> float:
        return self.done[i] - self.due[i]

    def lateness_s(self, i: int) -> float:
        return self.sent[i] - self.due[i]

    @classmethod
    def joined(cls, parts: list["LoadResult"]) -> "LoadResult":
        """Consecutive slices of one plan, sent one after another, as one
        result indexed like the plan."""
        out = cls([], [], [], [], [])
        for part in parts:
            offset = out.count
            for name in ("due", "sent", "done", "status", "size"):
                getattr(out, name).extend(getattr(part, name))
            out.bodies.update({i + offset: body for i, body in part.bodies.items()})
            out.unanswered += part.unanswered
        return out


class _Conn:
    __slots__ = ("sock", "buf", "pending")

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=10.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = bytearray()
        self.pending: deque[int] = deque()

    def close(self) -> None:
        self.sock.close()


def _parse(buf: bytearray):
    """Pop complete responses off ``buf`` as ``(status, body)``."""
    out = []
    while True:
        head_end = buf.find(b"\r\n\r\n")
        if head_end < 0:
            return out
        head = bytes(buf[:head_end]).decode("latin-1")
        lines = head.split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.lower() == "content-length":
                length = int(value.strip())
                break
        end = head_end + 4 + length
        if len(buf) < end:
            return out
        out.append((status, bytes(buf[head_end + 4 : end])))
        del buf[:end]


def open_loop(
    host: str,
    port: int,
    plan: list[Request],
    rate: float,
    connections: int = 2,
    keep_body=None,
    drain_s: float = 5.0,
) -> LoadResult:
    """Send ``plan`` at ``rate`` requests/s from due times; returns timings.

    ``keep_body(i)`` selects the requests whose response bodies are kept
    for output checks.  Requests still unanswered ``drain_s`` after the
    last due time count as ``unanswered``.
    """
    n = len(plan)
    conns = [_Conn(host, port) for _ in range(connections)]
    sel = selectors.DefaultSelector()
    for conn in conns:
        sel.register(conn.sock, selectors.EVENT_READ, conn)
    due = [0.0] * n
    sent = [0.0] * n
    done = [0.0] * n
    status = [0] * n
    size = [0] * n
    bodies: dict[int, bytes] = {}
    interval = 1.0 / rate
    outstanding = 0
    i = 0
    start = time.perf_counter() + 0.01
    deadline = start + n * interval + drain_s
    perf = time.perf_counter
    try:
        while i < n or outstanding:
            now = perf()
            if i < n:
                d = start + i * interval
                if now >= d:
                    conn = min(conns, key=lambda c: len(c.pending))
                    conn.sock.sendall(plan[i].wire)
                    due[i] = d
                    sent[i] = perf()
                    conn.pending.append(i)
                    outstanding += 1
                    i += 1
                    continue
                wait = d - now
                timeout = wait - _SPIN_S if wait > _SPIN_S else 0
            else:
                if now > deadline:
                    break
                timeout = min(0.05, deadline - now)
            for key, _ in sel.select(timeout):
                conn = key.data
                chunk = conn.sock.recv(1 << 16)
                if not chunk:
                    raise ConnectionError("server closed a keep-alive connection")
                conn.buf += chunk
                finished = perf()
                for code, body in _parse(conn.buf):
                    j = conn.pending.popleft()
                    done[j] = finished
                    status[j] = code
                    size[j] = len(body)
                    if keep_body is not None and keep_body(j):
                        bodies[j] = body
                    outstanding -= 1
    finally:
        sel.close()
        for conn in conns:
            conn.close()
    return LoadResult(due, sent, done, status, size, bodies, unanswered=outstanding)


def closed_loop(host: str, port: int, plan: list[Request], connections: int = 2) -> int:
    """Send ``plan`` back to back (one request in flight per connection);
    returns the count of non-2xx/404 answers.  Used for warm-up."""
    conns = [_Conn(host, port) for _ in range(connections)]
    bad = 0
    try:
        for start in range(0, len(plan), connections):
            batch = list(zip(conns, plan[start : start + connections]))
            for conn, req in batch:
                conn.sock.sendall(req.wire)
            for conn, _ in batch:
                while True:
                    parsed = _parse(conn.buf)
                    if parsed:
                        code = parsed[0][0]
                        if not (200 <= code < 300 or code == 404):
                            bad += 1
                        break
                    chunk = conn.sock.recv(1 << 16)
                    if not chunk:
                        raise ConnectionError("server closed a keep-alive connection")
                    conn.buf += chunk
    finally:
        for conn in conns:
            conn.close()
    return bad


class KeepAliveClient:
    """Sequential GETs over one keep-alive connection."""

    def __init__(self, host: str, port: int) -> None:
        self._conn = _Conn(host, port)

    def get(self, target: str) -> tuple[int, bytes]:
        conn = self._conn
        conn.sock.sendall(f"GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n".encode())
        while True:
            parsed = _parse(conn.buf)
            if parsed:
                return parsed[0]
            chunk = conn.sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("server closed a keep-alive connection")
            conn.buf += chunk

    def close(self) -> None:
        self._conn.close()


def http_get(host: str, port: int, target: str, timeout: float = 2.0) -> tuple[int, bytes]:
    """One blocking GET on a fresh connection: ``(status, body)``."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(
            f"GET {target} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n".encode()
        )
        buf = bytearray()
        while True:
            chunk = sock.recv(1 << 16)
            if not chunk:
                break
            buf += chunk
    parsed = _parse(buf)
    if not parsed:
        raise ConnectionError(f"no complete response to GET {target}")
    return parsed[0]
