"""Asyncio transport for the ``/v1`` intelligence query service.

The :class:`AsyncIntelServer` is the service's one HTTP front end: an
event loop multiplexing thousands of persistent keep-alive connections
over one :class:`~repro.serve.handler.IntelHandlerCore`, which owns
routing, admission bookkeeping and the response bytes.  Its cost is
paid once per *connection*, not per request: a client pool opens N
sockets and streams batch screenings down them back to back (measured
in ``benchmarks/out/perf_serve.json``).

Each connection is one :class:`asyncio.Protocol` and protocol handling
is a deliberately minimal HTTP/1.1 pipeline.  Received bytes go to a
per-connection buffer, and every complete request in it is answered
inside the callback that completed it: framing, admission,
``core.handle`` and one ``transport.write``.  A request costs no task
and no extra event-loop iteration.

* framing: a request line over ``\n``-terminated header lines (CRLF or
  bare LF), then ``Content-Length`` body bytes.  Unparseable framing
  answers ``400`` and closes, as soon as the bad line has arrived; so
  does a ``Content-Length`` that is not plain ASCII digits or that
  repeats with another value, once the head has ended.  A head over
  32 KiB answers ``400`` "headers too large", also when no head
  terminator has arrived yet.  A ``Content-Length`` over
  ``max_body_bytes`` answers ``413`` and closes (the body is never
  read);
* one deadline per request (``read_timeout_s``): a client whose next
  request, head and body, has not fully arrived within that long of
  the connection opening or of its previous answer is dropped, so slow
  or idle sockets cannot pin connection state forever (counted in
  ``daas_serve_read_timeouts_total``).  A client that drips a request
  a line at a time gets no longer than one that sends nothing;
* write backpressure: while the transport's send buffer is over its
  high-water mark the connection stops reading and answering, and
  resumes once the client has read;
* fairness: a connection answers at most ``_ANSWERS_PER_TURN``
  pipelined requests per event-loop turn, then yields the loop to
  other connections and timers before it answers the rest;
* responses carry ``Content-Length`` (or chunked framing for streamed
  screening verdicts) so connections stay reusable; ``Connection:
  close`` is honored both ways.

Admission control: request counter, then a per-client token bucket
(``429`` + ``Retry-After``).  Hot reload is the zero-drop
:meth:`~repro.serve.handler.IntelHandlerCore.reload`.

For multi-core boxes, :func:`preforked_sockets` binds N ``SO_REUSEPORT``
listeners on one port so ``--serve-workers N`` can fork N processes,
each running its own loop over its own copy of the immutable
content-hash-versioned index (deployment topologies in
``docs/serving.md``, sizing in ``docs/capacity.md``).
"""

from __future__ import annotations

import asyncio
import os
import socket
import threading
import time
from dataclasses import dataclass
from http import HTTPStatus

from repro.obs import Observability, RequestContext
from repro.obs.request import REQUEST_ID_HEADER
from repro.serve.handler import IntelHandlerCore, ServeResponse
from repro.serve.index import IntelIndex
from repro.serve.query import QueryEngine

__all__ = ["AsyncIntelServer", "PreforkedListeners", "preforked_sockets"]

#: Hard cap on request-line + header bytes per request.
_MAX_HEADER_BYTES = 32768

#: Requests one connection answers per event-loop turn before it lets
#: other connections and timers run.
_ANSWERS_PER_TURN = 32

#: Status line reason phrases (the table ``http.client.responses`` holds,
#: without importing ``http.client`` and the ``email`` package under it).
_REASONS = {status.value: status.phrase for status in HTTPStatus}


@dataclass(frozen=True)
class PreforkedListeners:
    """The SO_REUSEPORT listener set one pre-forked worker fleet shares."""

    sockets: tuple[socket.socket, ...]
    port: int

    def close(self) -> None:
        for sock in self.sockets:
            sock.close()


def preforked_sockets(host: str, port: int, workers: int) -> PreforkedListeners:
    """Bind ``workers`` SO_REUSEPORT listeners on one port.

    The kernel load-balances accepted connections across the listeners,
    so each forked worker process gets its own accept queue with no
    userspace coordination.  Binding happens in the parent *before*
    forking: the first socket resolves ``port=0`` to a concrete port and
    the rest bind to the resolved port, so all workers share one
    address.  Raises ``OSError`` where SO_REUSEPORT is unavailable.
    """
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    if not hasattr(socket, "SO_REUSEPORT"):
        raise OSError("SO_REUSEPORT is not available on this platform")
    sockets: list[socket.socket] = []
    bound = port
    try:
        for _ in range(workers):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            sock.bind((host, bound))
            if bound == 0:
                bound = sock.getsockname()[1]
            sock.listen(1024)
            sock.setblocking(False)
            sockets.append(sock)
    except BaseException:
        for sock in sockets:
            sock.close()
        raise
    return PreforkedListeners(sockets=tuple(sockets), port=bound)


class AsyncIntelServer:
    """Event-loop HTTP server over one hot-swappable handler core.

    Two ways to run it: :meth:`start`/:meth:`stop` spin the loop on a
    daemon thread (tests, notebooks, embedding next to a pipeline run);
    :meth:`run_async` serves in the caller's loop until cancelled or
    :meth:`request_stop` (the path ``daas-repro serve`` runs in each
    worker process's main thread).
    """

    def __init__(
        self,
        index: IntelIndex | None = None,
        obs: Observability | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        rate_limit: float = 0.0,
        burst: float | None = None,
        max_batch: int = 4096,
        cache_size: int = 4096,
        max_body_bytes: int = 1 << 20,
        reload_timeout_s: float = 30.0,
        read_timeout_s: float = 30.0,
        clock=time.monotonic,
        access_log_path: str | None = None,
        access_log_sample: int = 1,
        slow_request_ms: float = 500.0,
        worker_id: int = 0,
        status_dir: str | None = None,
        status_every_s: float = 5.0,
        health=None,
    ) -> None:
        self.core = IntelHandlerCore(
            index=index,
            obs=obs,
            rate_limit=rate_limit,
            burst=burst,
            max_batch=max_batch,
            cache_size=cache_size,
            max_body_bytes=max_body_bytes,
            reload_timeout_s=reload_timeout_s,
            clock=clock,
            access_log_path=access_log_path,
            access_log_sample=access_log_sample,
            slow_request_ms=slow_request_ms,
            worker_id=worker_id,
            status_dir=status_dir,
            health=health,
        )
        self.host = host
        self.requested_port = port
        self.max_batch = max_batch
        self.read_timeout_s = read_timeout_s
        self.status_every_s = status_every_s
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._port = 0
        #: Open connections, closed by :meth:`run_async` on its way out.
        self._live: set[_Connection] = set()

        metrics = self.core.obs.metrics
        self._connections = metrics.counter(
            "daas_serve_connections_total",
            help_text="Client connections accepted by the async transport.",
        )
        self._open_connections = metrics.gauge(
            "daas_serve_open_connections",
            help_text="Client connections currently open on the async transport.",
        )
        self._workers_gauge = metrics.gauge(
            "daas_serve_workers",
            help_text="Serving worker processes sharing this port.",
        )

    # -- core delegation -----------------------------------------------------

    @property
    def obs(self) -> Observability:
        return self.core.obs

    @property
    def limiter(self):
        return self.core.limiter

    @property
    def engine(self) -> QueryEngine | None:
        return self.core.engine

    @property
    def index_version(self) -> str | None:
        return self.core.index_version

    def load_index(self, index: IntelIndex) -> str:
        """Install ``index`` (hot-swap when one is already serving)."""
        return self.core.load_index(index)

    def reload(self, path: str) -> str | None:
        """Load an index file and hot-swap it in, under a time budget."""
        return self.core.reload(path)

    # -- lifecycle -----------------------------------------------------------

    @property
    def port(self) -> int:
        return self._port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def loop(self) -> asyncio.AbstractEventLoop | None:
        return self._loop

    async def run_async(
        self,
        sock: socket.socket | None = None,
        reload_path: str | None = None,
        reload_every: float = 0.0,
        workers: int = 1,
        started: threading.Event | None = None,
    ) -> None:
        """Serve until cancelled or :meth:`request_stop` is called.

        ``sock`` (a pre-bound listener, e.g. one of
        :func:`preforked_sockets`) overrides ``host``/``port``.  With
        ``reload_path``/``reload_every`` a watcher task polls the index
        file's mtime off-loop and hot-swaps on change.
        """
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        if sock is not None:
            server = await self._loop.create_server(
                lambda: _Connection(self), sock=sock)
        else:
            server = await self._loop.create_server(
                lambda: _Connection(self), self.host, self.requested_port)
        self._port = server.sockets[0].getsockname()[1]
        self._workers_gauge.set(workers)
        self.obs.event("serve.started", url=self.url,
                       index_version=self.index_version, transport="asyncio",
                       workers=workers)
        if started is not None:
            started.set()
        watcher = None
        if reload_path and reload_every > 0:
            watcher = asyncio.create_task(
                self._watch_index(reload_path, reload_every)
            )
        # Publish an eager snapshot so siblings see this worker from the
        # first request, then keep it fresh on a timer.
        self.core.write_status_snapshot()
        snapshotter = None
        if self.core.status_dir and self.status_every_s > 0:
            snapshotter = asyncio.create_task(
                self._write_snapshots(self.status_every_s)
            )
        try:
            await self._stop.wait()
        finally:
            # Idle keep-alive and half-sent requests would otherwise
            # outlive the loop: drop every connection with the listener.
            server.close()
            for conn in tuple(self._live):
                conn.transport.abort()
            if watcher is not None:
                watcher.cancel()
            if snapshotter is not None:
                snapshotter.cancel()
            self.core.write_status_snapshot()
            self.core.close()
            self._loop = None
            self.obs.event("serve.stopped")

    def request_stop(self) -> None:
        """Ask a running :meth:`run_async` to return (thread-safe)."""
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None:
            loop.call_soon_threadsafe(stop.set)

    def start(self) -> "AsyncIntelServer":
        """Run the event loop on a daemon thread; returns once bound.

        A failure to start is raised in the caller as it was raised on
        the thread: a port that is taken raises its ``OSError``."""
        if self._thread is not None:
            return self
        started = threading.Event()
        failure: list[BaseException] = []

        def _runner() -> None:
            try:
                asyncio.run(self.run_async(started=started))
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                failure.append(exc)
                started.set()

        self._thread = threading.Thread(
            target=_runner, name="serve-intel-async", daemon=True
        )
        self._thread.start()
        if not started.wait(timeout=10.0):
            raise RuntimeError("async server did not start within 10s")
        if failure:
            self._thread = None
            raise failure[0]
        return self

    def stop(self) -> None:
        self.request_stop()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    async def _watch_index(self, path: str, every: float) -> None:
        def _mtime() -> float | None:
            try:
                return os.stat(path).st_mtime
            except OSError:
                return None

        last = await asyncio.to_thread(_mtime)
        while True:
            await asyncio.sleep(every)
            current = await asyncio.to_thread(_mtime)
            if current is not None and current != last:
                last = current
                await asyncio.to_thread(self.core.reload, path)

    async def _write_snapshots(self, every: float) -> None:
        while True:
            await asyncio.sleep(every)
            await asyncio.to_thread(self.core.write_status_snapshot)


def _split_request_line(line: str) -> list[str] | None:
    """``[method, target, http_version]``, or ``None`` when malformed."""
    parts = line.rstrip("\r").split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        return None
    return parts


def _parse_head(head: bytes | bytearray):
    """``(method, target, http_version, headers, error)`` of one head.

    ``head`` is the request line and header lines, each ended by
    ``\n`` (a ``\r`` before it is optional), through the blank line
    that ends the head or through a bad line that arrived before it.
    The checks run in the order a line reader meets them: the request
    line, then per header line the running byte total against
    :data:`_MAX_HEADER_BYTES`, the blank line, the colon, and a
    ``Content-Length`` that repeats with another value.  ``error`` is
    the 400 reason or ``None``; on a reject, ``method``, ``target`` and
    ``headers`` hold what was parsed before it.  A head that ends
    without a blank line or a bad line is too large: the caller passes
    such a head only once it has outgrown the cap.
    """
    lines = head.decode("latin-1").split("\n")
    headers: dict[str, str] = {}
    if len(lines) == 1:  # not even the request line has ended
        return "?", "*", "", headers, "headers too large"
    parts = _split_request_line(lines[0])
    if parts is None:
        return "?", "*", "", headers, "bad request line"
    method, target, version = parts
    total = len(lines[0]) + 1
    for line in lines[1:]:
        total += len(line) + 1
        if total > _MAX_HEADER_BYTES:
            break
        if line == "\r" or not line:
            return method, target, version, headers, None
        name, sep, value = line.partition(":")
        if not sep:
            return method, target, version, headers, "bad header line"
        name, value = name.strip().lower(), value.strip()
        if name == "content-length" and headers.get(name, value) != value:
            return method, target, version, headers, "bad Content-Length"
        headers[name] = value
    return method, target, version, headers, "headers too large"


def _wants_keep_alive(http_version: str, headers: dict[str, str]) -> bool:
    connection = headers.get("connection", "").lower()
    if http_version == "HTTP/1.0":
        return connection == "keep-alive"
    return connection != "close"


def _encode_response(
    response: ServeResponse, keep_alive: bool, request_id: str | None
) -> bytes:
    """The status line, headers and body of ``response`` as wire bytes."""
    reason = _REASONS.get(response.status, "Unknown")
    head = [f"HTTP/1.1 {response.status} {reason}",
            f"Content-Type: {response.content_type}"]
    # Attached at write time, never stored on the (cached, shared)
    # ServeResponse — a baked-in id would replay on every cache hit.
    if request_id is not None:
        head.append(f"{REQUEST_ID_HEADER}: {request_id}")
    head += [f"{key}: {value}" for key, value in response.headers]
    if response.close or not keep_alive:
        head.append("Connection: close")
    if response.status == 304:
        head.append("Content-Length: 0")
        return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
    if response.chunks is not None:
        head.append("Transfer-Encoding: chunked")
        out = [("\r\n".join(head) + "\r\n\r\n").encode("latin-1")]
        out += [
            f"{len(chunk):x}\r\n".encode() + chunk + b"\r\n"
            for chunk in response.chunks if chunk
        ]
        out.append(b"0\r\n\r\n")
        return b"".join(out)
    head.append(f"Content-Length: {len(response.body)}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + response.body


class _Connection(asyncio.Protocol):
    """One client connection: buffers what arrives and answers every
    complete request in it, in order, inside the callback that
    completed it, or over several loop turns for a deep pipeline.

    Answering stops while the answer cannot go on: while the transport's
    send buffer is over its high-water mark (``pause_writing``), and for
    one loop turn after :data:`_ANSWERS_PER_TURN` answers.  Reading is
    paused for as long, so the buffer holds at most what arrived before,
    and a client's EOF is only seen once every complete request before
    it is answered; the connection then closes after its answers flush
    (the ``eof_received`` default).
    """

    def __init__(self, server: AsyncIntelServer) -> None:
        self.server = server
        self.core = server.core
        self.loop = server._loop
        self.transport: asyncio.Transport | None = None
        self.peer_host = "unknown"
        self.buffer = bytearray()
        #: Bytes at the start of the buffer, all whole lines of a head
        #: still arriving, that :meth:`_bad_line_end` found good.
        self.checked = 0
        #: Loop time by which the next request must have fully arrived.
        self.deadline = 0.0
        self.timer: asyncio.TimerHandle | None = None
        self.writes_paused = False

    # -- asyncio.Protocol ------------------------------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport
        # asyncio turns Nagle off only on sockets created with protocol
        # IPPROTO_TCP; ``socket.create_server`` and ``preforked_sockets``
        # listeners accept protocol-0 sockets, on which a pipelined
        # client would wait out Nagle plus a delayed ACK between answers.
        sock = transport.get_extra_info("socket")
        if sock is not None and sock.family in (socket.AF_INET, socket.AF_INET6):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        server = self.server
        server._live.add(self)
        server._connections.inc()
        server._open_connections.inc()
        peer = transport.get_extra_info("peername")
        if isinstance(peer, tuple):
            self.peer_host = peer[0]
        self.deadline = self.loop.time() + server.read_timeout_s
        self.timer = self.loop.call_at(self.deadline, self._on_deadline)

    def connection_lost(self, exc: Exception | None) -> None:
        self.server._live.discard(self)
        self.server._open_connections.inc(-1)
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None

    def data_received(self, data: bytes) -> None:
        self.buffer += data
        self._answer_buffered()

    def pause_writing(self) -> None:
        self.writes_paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.writes_paused = False
        self._resume()

    # -- the request pipeline --------------------------------------------------

    def _resume(self) -> None:
        if self.writes_paused or self.transport.is_closing():
            return
        self.transport.resume_reading()
        self._answer_buffered()

    def _answer_buffered(self) -> None:
        """Frame and answer the complete requests in the buffer, up to
        :data:`_ANSWERS_PER_TURN` before the loop runs anything else."""
        buf = self.buffer
        transport = self.transport
        core = self.core
        pos = 0
        answered = 0
        try:
            while not (self.writes_paused or transport.is_closing()):
                if answered == _ANSWERS_PER_TURN:
                    # Pause like backpressure does, for one loop turn.
                    transport.pause_reading()
                    self.loop.call_soon(self._resume)
                    break
                # The head ends at the first blank line, CRLF or bare LF.
                limit = pos + _MAX_HEADER_BYTES
                crlf = buf.find(b"\n\r\n", pos, limit)
                lf = buf.find(b"\n\n", pos, limit if crlf < 0 else crlf + 1)
                if lf >= 0:
                    end = lf + 2
                elif crlf >= 0:
                    end = crlf + 3
                else:
                    end = self._bad_line_end(pos)
                    if end < 0:
                        if len(buf) - pos <= _MAX_HEADER_BYTES:
                            break  # the head is still arriving
                        end = limit + 1  # unended past the cap: a 400 below
                self.checked = 0
                method, target, version, headers, error = _parse_head(
                    buf[pos:end])
                if error is not None:
                    self._reject(core.malformed_response(error),
                                 method, target, headers)
                    return
                # 1*DIGIT only (RFC 9110 §8.6): int() would also take a
                # sign, "_" separators and non-ASCII digits.
                declared = headers.get("content-length", "0")
                if not (declared.isascii() and declared.isdigit()):
                    self._reject(core.malformed_response("bad Content-Length"),
                                 method, target, headers)
                    return
                length = int(declared)
                if length > core.max_body_bytes:
                    self._reject(core.oversized_response(length),
                                 method, target, headers, bytes_in=length)
                    return
                body = b""
                if length > 0:
                    if len(buf) < end + length:
                        break  # the body is still arriving
                    body = bytes(buf[end:end + length])
                    end += length
                pos = end
                answered += 1
                self._answer(method, target, version, headers, body)
        finally:
            del buf[:pos]

    def _bad_line_end(self, pos: int) -> int:
        """End of the first whole line of the head arriving at ``pos``
        that a line reader rejects at once, or ``-1`` when none has.

        Such a client gets its 400 now, not at the deadline.  Good
        lines are counted in :attr:`checked` and not scanned again.
        """
        buf = self.buffer
        start = pos + self.checked
        limit = pos + _MAX_HEADER_BYTES
        while (nl := buf.find(b"\n", start, limit)) >= 0:
            line = buf[start:nl].decode("latin-1")
            if start == pos:
                bad = _split_request_line(line) is None
            else:
                bad = ":" not in line
            if bad:
                return nl + 1
            start = nl + 1
        self.checked = start - pos
        return -1

    def _answer(self, method: str, target: str, version: str,
                headers: dict[str, str], body: bytes) -> None:
        core = self.core
        ctx = core.begin_request(
            method, target, client=self.peer_host,
            request_id=headers.get("x-request-id"), bytes_in=len(body),
        )
        keep_alive = _wants_keep_alive(version, headers)
        core.count_request(ctx.endpoint)
        response = core.check_rate(headers.get("x-client-id") or self.peer_host)
        if response is None:
            with core.obs.span("serve.request", endpoint=ctx.endpoint,
                               method=method, request_id=ctx.request_id):
                response = core.handle(
                    method, target, body=body,
                    if_none_match=headers.get("if-none-match"),
                )
        self._send(ctx, response, keep_alive)

    def _send(self, ctx: RequestContext, response: ServeResponse,
              keep_alive: bool) -> None:
        self.core.finish_request(ctx, response)
        keep_alive = keep_alive and not response.close
        self.transport.write(
            _encode_response(response, keep_alive, ctx.request_id))
        if keep_alive:
            self.deadline = self.loop.time() + self.server.read_timeout_s
        else:
            self.transport.close()

    def _reject(self, response: ServeResponse, method: str, target: str,
                headers: dict[str, str], bytes_in: int = 0) -> None:
        """Answer a protocol-level rejection (400/413) and close.

        Framing failures never reach admission, but they still get a
        request id (echoing an inbound one when the headers parsed that
        far), a latency/size observation, and an always-on access-log
        error record.
        """
        ctx = self.core.begin_request(
            method, target, client=self.peer_host,
            request_id=headers.get("x-request-id"), bytes_in=bytes_in,
        )
        self._send(ctx, response, False)

    def _on_deadline(self) -> None:
        """The per-connection deadline timer, re-armed lazily: answers
        move :attr:`deadline` and the timer follows only when it fires."""
        if self.transport.is_closing():
            self.timer = None
            return
        now = self.loop.time()
        if self.writes_paused:
            # The server owes this client an answer, not the reverse.
            self.timer = self.loop.call_at(
                now + self.server.read_timeout_s, self._on_deadline)
        elif now < self.deadline:
            self.timer = self.loop.call_at(self.deadline, self._on_deadline)
        else:
            self.timer = None
            self.core.metrics.read_timeouts.inc()
            self.transport.close()
