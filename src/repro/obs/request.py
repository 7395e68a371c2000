"""Per-request telemetry for the serve plane: ids, histograms, access log.

Three concerns of the HTTP transport, factored out of it:

* **request identity** — every response carries an ``X-Request-Id``
  header: an inbound id (a well-formed header token) is echoed verbatim
  so callers can stitch their own traces together, anything else gets a
  fresh process-unique id.  The id is attached by the *transport* at
  write time, never baked into a :class:`~repro.serve.handler.
  ServeResponse` — cached responses are shared across requests, and a
  stored id would replay on every cache hit;
* **request accounting** — one :class:`RequestContext` per request
  records ``daas_serve_request_seconds{endpoint,status}`` plus
  request/response byte-size histograms, with the three instrument
  handles cached together per ``(endpoint, status)`` so the hot path
  is one dict lookup;
* **the access log** — :class:`AccessLog`, a sampled structured JSONL
  stream (``--access-log`` / ``--access-log-sample N``): every Nth
  request is written in full, and slow requests (over
  ``--slow-request-ms``) or errored ones (status >= 400) are *always*
  captured regardless of the sampling rate.

The cardinal rule of ``repro.obs`` applies: none of this perturbs
response bodies.  ``tests/serve/test_telemetry.py`` drives the endpoint
matrix through the server with telemetry on and off and compares
bodies byte-for-byte; ``benchmarks/bench_serve.py`` asserts the
throughput overhead stays under 5%.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from typing import Any

from repro.obs.metrics import SERVE_LATENCY_BUCKETS, SERVE_SIZE_BUCKETS

__all__ = [
    "AccessLog",
    "REQUEST_ID_HEADER",
    "RequestContext",
    "RequestTelemetry",
    "sanitize_request_id",
]

#: The per-request correlation header, honored inbound and echoed on
#: every response (including 4xx/5xx and protocol-level rejections).
REQUEST_ID_HEADER = "X-Request-Id"

_ID_MAX_LEN = 128
_ID_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._:-"
)


def sanitize_request_id(value: str | None) -> str | None:
    """An inbound ``X-Request-Id`` fit to echo, else ``None``.

    Only header-safe tokens come back out — anything empty, over
    ``128`` chars, or containing characters outside ``[A-Za-z0-9._:-]``
    (notably CR/LF, which would split the response head) is rejected
    and the caller generates a fresh id instead.
    """
    if not value or len(value) > _ID_MAX_LEN:
        return None
    if not all(ch in _ID_CHARS for ch in value):
        return None
    return value


class AccessLog:
    """Sampled structured JSONL access log with always-on slow/error capture.

    One JSON object per line; the ``event`` field distinguishes why the
    record was captured (``serve.access`` for a sampled request,
    ``serve.access.slow`` / ``serve.access.error`` for the always-logged
    cases).  ``sample=1`` logs every request, ``sample=N`` every Nth,
    ``sample=0`` only slow/errored ones.  Writes are flushed per record
    so a tailing reader (or a crashed process's last request) never
    waits on a buffer.
    """

    def __init__(
        self,
        path: str,
        sample: int = 1,
        run_id: str = "",
        worker_id: int = 0,
        metrics: Any = None,
    ) -> None:
        self.path = str(path)
        self.sample = max(0, int(sample))
        self.run_id = run_id
        self.worker_id = worker_id
        self._lock = threading.Lock()
        self._handle: Any = None
        # itertools.count is C-level and thread-safe, so the sampling
        # decision on the hot path never takes the lock — only actual
        # writes do.
        self._seen = itertools.count(1)
        self._records: dict[str, Any] = {}
        if metrics is not None:
            self._records = {
                reason: metrics.counter(
                    "daas_serve_access_log_records_total",
                    help_text="Access-log records written, by capture reason.",
                    reason=reason,
                )
                for reason in ("sampled", "slow", "error")
            }

    def record(
        self,
        ctx: "RequestContext",
        status: int,
        seconds: float,
        bytes_out: int,
        slow: bool,
        error: bool,
    ) -> bool:
        """Maybe write one record; returns True when it was written."""
        sampled = self.sample > 0 and next(self._seen) % self.sample == 0
        if not (sampled or slow or error):
            return False
        if slow:
            event, reason = "serve.access.slow", "slow"
        elif error:
            event, reason = "serve.access.error", "error"
        else:
            event, reason = "serve.access", "sampled"
        doc = {
            "event": event,
            "ts": round(time.time(), 6),
            "run": self.run_id,
            "worker": self.worker_id,
            "request_id": ctx.request_id,
            "client": ctx.client,
            "method": ctx.method,
            "target": ctx.target,
            "endpoint": ctx.endpoint,
            "status": status,
            "duration_ms": round(seconds * 1000.0, 3),
            "bytes_in": ctx.bytes_in,
            "bytes_out": bytes_out,
        }
        line = json.dumps(doc, separators=(",", ":")) + "\n"
        with self._lock:
            if self._handle is None:
                self._handle = open(self.path, "a", encoding="utf-8")
            self._handle.write(line)
            self._handle.flush()
        counter = self._records.get(reason)
        if counter is not None:
            counter.inc()
        return True

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


class RequestContext:
    """One in-flight request's identity and timings."""

    __slots__ = (
        "telemetry", "method", "target", "endpoint", "client",
        "request_id", "inbound_id", "bytes_in", "started", "finished",
    )

    def __init__(
        self,
        telemetry: "RequestTelemetry",
        method: str,
        target: str,
        endpoint: str,
        client: str | None,
        request_id: str,
        inbound_id: bool,
        bytes_in: int,
    ) -> None:
        self.telemetry = telemetry
        self.method = method
        self.target = target
        self.endpoint = endpoint
        self.client = client
        self.request_id = request_id
        self.inbound_id = inbound_id
        self.bytes_in = bytes_in
        self.started = time.perf_counter()
        self.finished = False

    def finish(self, response: Any) -> Any:
        """Record latency/size histograms and the access-log entry.

        Idempotent: the first call wins, so a transport can finish a
        context on its error path without double counting.  Returns the
        response for call-through convenience.
        """
        if self.finished:
            return response
        self.finished = True
        self.telemetry._observe(self, response)
        return response


class RequestTelemetry:
    """The serve plane's per-request instrument panel.

    One per :class:`~repro.serve.handler.IntelHandlerCore`; the
    transport drives it through ``begin()``/``finish()``.  Histogram
    handles are resolved lazily and memoized per ``(endpoint, status)``,
    so steady traffic pays one dict hit, not a registry lock.
    """

    def __init__(
        self,
        obs: Any,
        access_log: AccessLog | None = None,
        slow_request_ms: float = 500.0,
        worker_id: int = 0,
    ) -> None:
        self.obs = obs
        self.access_log = access_log
        self.slow_request_s = max(0.0, slow_request_ms) / 1000.0
        self.worker_id = worker_id
        self._ids = itertools.count(1)
        self._id_prefix = f"req-{os.getpid():x}.{worker_id:x}-"
        #: (endpoint, status) -> (latency, request bytes, response bytes).
        self._histograms: dict[tuple[str, int], tuple[Any, Any, Any]] = {}

    def new_request_id(self) -> str:
        return f"{self._id_prefix}{next(self._ids):x}"

    def begin(
        self,
        method: str,
        target: str,
        endpoint: str,
        client: str | None = None,
        request_id: str | None = None,
        bytes_in: int = 0,
    ) -> RequestContext:
        rid = sanitize_request_id(request_id) if request_id else None
        inbound = rid is not None
        return RequestContext(
            telemetry=self,
            method=method,
            target=target,
            endpoint=endpoint,
            client=client,
            request_id=rid if inbound else self.new_request_id(),
            inbound_id=inbound,
            bytes_in=bytes_in,
        )

    def close(self) -> None:
        if self.access_log is not None:
            self.access_log.close()

    # -- recording (via RequestContext.finish) -------------------------------

    def _histograms_for(self, endpoint: str, status: int) -> tuple[Any, Any, Any]:
        metrics = self.obs.metrics
        hists = self._histograms[(endpoint, status)] = (
            metrics.histogram(
                "daas_serve_request_seconds",
                buckets=SERVE_LATENCY_BUCKETS,
                help_text="Query-service request latency, by endpoint and status.",
                endpoint=endpoint,
                status=str(status),
            ),
            metrics.histogram(
                "daas_serve_request_bytes",
                buckets=SERVE_SIZE_BUCKETS,
                help_text="Request body sizes, by endpoint.",
                endpoint=endpoint,
            ),
            metrics.histogram(
                "daas_serve_response_bytes",
                buckets=SERVE_SIZE_BUCKETS,
                help_text="Response body sizes, by endpoint.",
                endpoint=endpoint,
            ),
        )
        return hists

    def _observe(self, ctx: RequestContext, response: Any) -> None:
        seconds = time.perf_counter() - ctx.started
        status = int(getattr(response, "status", 0))
        bytes_out = len(getattr(response, "body", b""))
        hists = self._histograms.get((ctx.endpoint, status))
        if hists is None:
            hists = self._histograms_for(ctx.endpoint, status)
        latency, hist_in, hist_out = hists
        latency.observe(seconds)
        hist_in.observe(ctx.bytes_in)
        hist_out.observe(bytes_out)
        log = self.access_log
        if log is not None:
            slow = 0.0 < self.slow_request_s <= seconds
            error = status >= 400
            log.record(ctx, status, seconds, bytes_out, slow=slow, error=error)
