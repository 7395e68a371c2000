"""Asyncio transport for the ``/v1`` intelligence query service.

The :class:`AsyncIntelServer` is the service's one HTTP front end: an
``asyncio.start_server`` event loop multiplexing thousands of
persistent keep-alive connections over one
:class:`~repro.serve.handler.IntelHandlerCore`, which owns routing,
admission bookkeeping and the response bytes.  Its cost is paid once
per *connection*, not per request: a client pool opens N sockets and
streams batch screenings down them back to back (measured in
``benchmarks/out/perf_serve.json``).

Protocol handling is a deliberately minimal HTTP/1.1 pipeline:

* request line + headers parsed with bounded reads — unparseable
  framing answers ``400`` and closes, headers over the cap answer
  ``400``, a ``Content-Length`` over ``max_body_bytes`` answers ``413``
  and closes (the body is never read);
* a per-read deadline (``read_timeout_s``) drops slow or idle clients
  so stalled sockets cannot pin the loop's connection state forever
  (counted in ``daas_serve_read_timeouts_total``);
* responses carry ``Content-Length`` (or chunked framing for streamed
  screening verdicts) so connections stay reusable; ``Connection:
  close`` is honored both ways.

Admission control: request counter, per-client token bucket (``429`` +
``Retry-After``), then a bounded concurrency gate (``503`` after
``busy_timeout_s``).  Hot reload is the zero-drop
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
from http.client import responses as _REASONS

from repro.obs import Observability, RequestContext
from repro.obs.request import REQUEST_ID_HEADER
from repro.serve.handler import IntelHandlerCore, ServeResponse
from repro.serve.index import IntelIndex
from repro.serve.query import QueryEngine

__all__ = ["AsyncIntelServer", "PreforkedListeners", "preforked_sockets"]

#: Hard cap on request-line + header bytes per request.
_MAX_HEADER_BYTES = 32768


@dataclass(frozen=True)
class PreforkedListeners:
    """The SO_REUSEPORT listener set one pre-forked worker fleet shares."""

    sockets: tuple[socket.socket, ...]
    port: int

    def __iter__(self):
        # Allows ``sockets, port = preforked_sockets(...)`` unpacking.
        return iter((list(self.sockets), self.port))

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
        max_concurrency: int = 64,
        max_batch: int = 4096,
        cache_size: int = 4096,
        max_body_bytes: int = 1 << 20,
        reload_timeout_s: float = 30.0,
        busy_timeout_s: float = 0.5,
        read_timeout_s: float = 30.0,
        clock=time.monotonic,
        access_log_path: str | None = None,
        access_log_sample: int = 1,
        slow_request_ms: float = 500.0,
        worker_id: int = 0,
        status_dir: str | None = None,
        status_every_s: float = 5.0,
    ) -> None:
        self.core = IntelHandlerCore(
            index=index,
            obs=obs,
            rate_limit=rate_limit,
            burst=burst,
            max_concurrency=max_concurrency,
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
        )
        self.host = host
        self.requested_port = port
        self.max_concurrency = max_concurrency
        self.max_batch = max_batch
        self.busy_timeout_s = busy_timeout_s
        self.read_timeout_s = read_timeout_s
        self.status_every_s = status_every_s
        self._gate: asyncio.BoundedSemaphore | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._port = 0

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
        self._gate = asyncio.BoundedSemaphore(self.max_concurrency)
        if sock is not None:
            server = await asyncio.start_server(self._serve_connection, sock=sock)
        else:
            server = await asyncio.start_server(
                self._serve_connection, self.host, self.requested_port
            )
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
            async with server:
                await self._stop.wait()
        finally:
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
        """Run the event loop on a daemon thread; returns once bound."""
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
            raise RuntimeError(f"async server failed to start: {failure[0]!r}")
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

    # -- connection handling -------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.inc()
        self._open_connections.inc()
        peer = writer.get_extra_info("peername")
        peer_host = peer[0] if isinstance(peer, tuple) else "unknown"
        try:
            while True:
                request = await self._read_request(reader, writer, peer_host)
                if request is None:
                    return
                method, target, http_version, headers, body = request
                ctx = self.core.begin_request(
                    method, target, client=peer_host,
                    request_id=headers.get("x-request-id"),
                    bytes_in=len(body),
                )
                keep_alive = self._wants_keep_alive(http_version, headers)
                response = await self._admit(ctx, method, target, headers,
                                             body, peer_host)
                self.core.finish_request(ctx, response)
                await self._write_response(writer, response,
                                           keep_alive and not response.close,
                                           request_id=ctx.request_id)
                if response.close or not keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            return
        except asyncio.CancelledError:
            return  # loop shutdown: end the task cleanly, not "cancelled"
        finally:
            self._open_connections.inc(-1)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _reject(
        self,
        writer: asyncio.StreamWriter,
        response: ServeResponse,
        peer_host: str,
        method: str = "?",
        target: str = "*",
        headers: dict[str, str] | None = None,
        bytes_in: int = 0,
    ) -> None:
        """Write a protocol-level rejection (400/413) with full telemetry.

        Framing failures never reach :meth:`_admit`, but they still get a
        request id (echoing an inbound one when the headers parsed that
        far), a latency/size observation, and an always-on access-log
        error record.
        """
        ctx = self.core.begin_request(
            method, target, client=peer_host,
            request_id=(headers or {}).get("x-request-id"),
            bytes_in=bytes_in,
        )
        self.core.finish_request(ctx, response)
        await self._write_response(writer, response, False,
                                   request_id=ctx.request_id)

    async def _read_request(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        peer_host: str,
    ):
        """One parsed request, or ``None`` after EOF / timeout / bad framing
        (the rejection response, if any, is already written)."""
        core = self.core
        try:
            line = await asyncio.wait_for(reader.readline(),
                                          timeout=self.read_timeout_s)
        except asyncio.TimeoutError:
            core.metrics.read_timeouts.inc()
            return None
        if not line:
            return None  # clean EOF between requests
        parts = line.decode("latin-1").rstrip("\r\n").split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            await self._reject(
                writer, core.malformed_response("bad request line"), peer_host)
            return None
        method, target = parts[0], parts[1]

        headers: dict[str, str] = {}
        total = len(line)
        while True:
            try:
                raw = await asyncio.wait_for(reader.readline(),
                                             timeout=self.read_timeout_s)
            except asyncio.TimeoutError:
                core.metrics.read_timeouts.inc()
                return None
            total += len(raw)
            if total > _MAX_HEADER_BYTES:
                await self._reject(
                    writer, core.malformed_response("headers too large"),
                    peer_host, method=method, target=target, headers=headers)
                return None
            if raw in (b"\r\n", b"\n"):
                break
            if not raw:
                return None  # EOF mid-headers
            name, sep, value = raw.decode("latin-1").partition(":")
            if not sep:
                await self._reject(
                    writer, core.malformed_response("bad header line"),
                    peer_host, method=method, target=target, headers=headers)
                return None
            headers[name.strip().lower()] = value.strip()

        body = b""
        raw_length = headers.get("content-length", "0")
        try:
            length = int(raw_length)
        except ValueError:
            await self._reject(
                writer, core.malformed_response("bad Content-Length"),
                peer_host, method=method, target=target, headers=headers)
            return None
        if length > core.max_body_bytes:
            await self._reject(
                writer, core.oversized_response(length), peer_host,
                method=method, target=target, headers=headers, bytes_in=length)
            return None
        if length > 0:
            try:
                body = await asyncio.wait_for(reader.readexactly(length),
                                              timeout=self.read_timeout_s)
            except asyncio.TimeoutError:
                core.metrics.read_timeouts.inc()
                return None
            except asyncio.IncompleteReadError:
                return None
        return parts[0], parts[1], parts[2], headers, body

    @staticmethod
    def _wants_keep_alive(http_version: str, headers: dict[str, str]) -> bool:
        connection = headers.get("connection", "").lower()
        if http_version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"

    async def _admit(
        self,
        ctx: RequestContext,
        method: str,
        target: str,
        headers: dict[str, str],
        body: bytes,
        peer_host: str,
    ) -> ServeResponse:
        core = self.core
        core.count_request(ctx.endpoint)

        client_id = headers.get("x-client-id") or peer_host
        rejected = core.check_rate(client_id)
        if rejected is not None:
            return rejected
        assert self._gate is not None
        try:
            await asyncio.wait_for(self._gate.acquire(),
                                   timeout=self.busy_timeout_s)
        except asyncio.TimeoutError:
            return core.busy_response()
        core.metrics.inflight.inc()
        try:
            # The span wraps only the synchronous handle() call: spans
            # nest on a thread-local stack, so crossing an await under
            # interleaved requests would corrupt the pop order.
            with self.obs.span("serve.request", endpoint=ctx.endpoint,
                               method=method, request_id=ctx.request_id):
                return core.handle(
                    method, target, body=body,
                    if_none_match=headers.get("if-none-match"),
                )
        finally:
            core.metrics.inflight.inc(-1)
            self._gate.release()

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        response: ServeResponse,
        keep_alive: bool = True,
        request_id: str | None = None,
    ) -> None:
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
            writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        elif response.chunks is not None:
            head.append("Transfer-Encoding: chunked")
            out = [("\r\n".join(head) + "\r\n\r\n").encode("latin-1")]
            out += [
                f"{len(chunk):x}\r\n".encode() + chunk + b"\r\n"
                for chunk in response.chunks if chunk
            ]
            out.append(b"0\r\n\r\n")
            writer.write(b"".join(out))
        else:
            head.append(f"Content-Length: {len(response.body)}")
            writer.write(
                ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + response.body
            )
        await writer.drain()
