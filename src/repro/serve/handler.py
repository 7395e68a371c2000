"""Transport-agnostic core of the ``/v1`` query service.

The asyncio :class:`~repro.serve.aserver.AsyncIntelServer` is a thin
transport over one :class:`IntelHandlerCore`.  The core owns everything
that is *not* a socket: routing, request validation, JSON
serialization, the per-client rate limiter, the ``daas_serve_*``
instruments, index lifecycle (load / hot reload under a time budget),
and a pre-serialized response cache so hot lookups and repeated
screening batches are answered from cached bytes without touching
``json.dumps`` again.

The transport adds framing, never bytes: for any ``(method, target,
body, if_none_match)``, :meth:`IntelHandlerCore.handle` returns one
:class:`ServeResponse`, and the body the server sends is exactly its
``body``.  ``tests/serve/test_aserver.py`` drives the full endpoint
matrix over HTTP and compares every status and body with a fresh
in-process core fed the same requests; ``benchmarks/bench_serve.py``
re-asserts it on the benchmark index.

The ops probes (:data:`PROBE_ROUTES`: ``/metrics /healthz /readyz
/statusz``) are answered from a *health source*.  Under ``serve`` that
is the core itself: its index and its fleet view.  A pipeline run's
``--serve-metrics`` port is a core with no index whose health source is
the run's :class:`~repro.obs.live.LiveOps`; it serves the probes only.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any
from urllib.parse import parse_qs, unquote

from repro.obs import AccessLog, Observability, RequestContext, RequestTelemetry
from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE
from repro.runtime.cache import ReadThroughCache
from repro.serve.fleet import (
    ServeAggregator,
    SnapshotScan,
    render_fleet_prometheus,
    write_worker_snapshot,
)
from repro.serve.index import IndexFormatError, IntelIndex
from repro.serve.query import SCREEN_SCHEMA_VERSION, QueryEngine
from repro.serve.ratelimit import ClientRateLimiter

__all__ = ["IntelHandlerCore", "ServeResponse"]

#: The ops probes every core answers from its health source, in the
#: order a pipeline run's 404 lists them.
PROBE_ROUTES = ("/metrics", "/healthz", "/readyz", "/statusz")

#: Endpoint label values (route templates, so cardinality stays fixed).
_ENDPOINTS = (
    "/v1/address", "/v1/domain", "/v1/screen", "/v1/families",
    "/v1/index", *PROBE_ROUTES, "other",
)

#: Every route the service answers, as shown in 404 bodies and verified
#: against ``docs/serving.md`` by ``scripts/check_docs.py``.
ROUTE_HELP = [
    "/v1/address/{addr}",
    "/v1/address?batch=0x..,0x..",
    "/v1/domain/{name}",
    "/v1/screen",
    "/v1/families",
    "/v1/index",
    "/healthz",
    "/readyz",
    "/statusz",
    "/metrics",
]

#: Cache-gauge publication cadence: refreshing the hit/miss gauges on
#: every request would put registry lookups on the hot path, so the
#: core republishes them every N observed requests (and on load/reload).
_GAUGE_EVERY = 64


@dataclass(frozen=True, slots=True)
class ServeResponse:
    """One fully-formed response, ready for any transport to send.

    ``chunks`` set means the transport should stream the parts with
    ``Transfer-Encoding: chunked`` (one part per chunk); ``body`` is
    always the full payload (the concatenation of the chunks), so
    non-streaming consumers and parity checks need no special case.
    ``close`` asks the transport to drop the connection after sending —
    used for protocol-level failures where the request framing can no
    longer be trusted (oversized bodies, malformed requests).
    """

    status: int
    body: bytes = b""
    content_type: str = "application/json"
    headers: tuple[tuple[str, str], ...] = ()
    chunks: tuple[bytes, ...] | None = None
    close: bool = False


@dataclass
class _CoreMetrics:
    """The ``daas_serve_*`` instrument handles, resolved once."""

    requests: dict[str, Any] = field(default_factory=dict)
    rate_limited: Any = None
    oversized: Any = None
    malformed: Any = None
    read_timeouts: Any = None
    index_loaded: Any = None
    reloads: dict[str, Any] = field(default_factory=dict)
    screened: Any = None
    snapshots: Any = None


class IntelHandlerCore:
    """Routing + serialization + admission bookkeeping, transport-free."""

    def __init__(
        self,
        index: IntelIndex | None = None,
        obs: Observability | None = None,
        rate_limit: float = 0.0,
        burst: float | None = None,
        max_batch: int = 256,
        cache_size: int = 4096,
        max_body_bytes: int = 1 << 20,
        reload_timeout_s: float = 30.0,
        clock=time.monotonic,
        access_log_path: str | None = None,
        access_log_sample: int = 1,
        slow_request_ms: float = 500.0,
        worker_id: int = 0,
        status_dir: str | None = None,
        health=None,
    ) -> None:
        self.obs = obs if obs is not None else Observability.disabled()
        #: What the probes report: this core's own fleet view under
        #: ``serve``, a pipeline run's ``LiveOps`` on its probe port.
        self.health = health if health is not None else self
        self.max_batch = max_batch
        self.cache_size = cache_size
        self.max_body_bytes = max_body_bytes
        self.reload_timeout_s = reload_timeout_s
        self.worker_id = int(worker_id)
        self.status_dir = str(status_dir) if status_dir else None
        self.limiter = ClientRateLimiter(rate_limit, burst=burst, clock=clock)
        access_log = (
            AccessLog(
                access_log_path,
                sample=access_log_sample,
                run_id=self.obs.run_id,
                worker_id=self.worker_id,
                metrics=self.obs.metrics,
            )
            if access_log_path
            else None
        )
        #: Per-request ids + latency/size histograms + the access log;
        #: the transport drives it via begin_request()/finish_request().
        self.telemetry = RequestTelemetry(
            self.obs,
            access_log=access_log,
            slow_request_ms=slow_request_ms,
            worker_id=self.worker_id,
        )
        #: Merges this worker's live registry with the other workers'
        #: snapshot files for the fleet-wide /statusz and /metrics views.
        self.aggregator = ServeAggregator(obs=self.obs)
        self._engine: QueryEngine | None = (
            QueryEngine(index, cache_size=cache_size, obs=self.obs)
            if index is not None
            else None
        )
        #: Pre-serialized responses: (kind, index version, key) -> the
        #: exact ServeResponse previously built.  Hot addresses and
        #: repeated screening batches skip json.dumps entirely — the
        #: transport writes the cached bytes as-is (zero re-encode).
        self._responses = ReadThroughCache("serve.response", max_size=cache_size)
        self._observed = 0

        metrics = self.obs.metrics
        m = self.metrics = _CoreMetrics()
        m.requests = {
            endpoint: metrics.counter(
                "daas_serve_requests_total",
                help_text="Query-service requests, by endpoint.",
                endpoint=endpoint,
            )
            for endpoint in _ENDPOINTS
        }
        m.rate_limited = metrics.counter(
            "daas_serve_rate_limited_total",
            help_text="Requests rejected 429 by the per-client token bucket.",
        )
        m.oversized = metrics.counter(
            "daas_serve_oversized_total",
            help_text="Requests rejected 413 for a body over the byte cap.",
        )
        m.malformed = metrics.counter(
            "daas_serve_malformed_total",
            help_text="Connections rejected 400 for unparseable HTTP framing.",
        )
        m.read_timeouts = metrics.counter(
            "daas_serve_read_timeouts_total",
            help_text="Connections closed by the slow-client read deadline.",
        )
        m.index_loaded = metrics.gauge(
            "daas_serve_index_loaded",
            help_text="1 when an intelligence index is loaded and serving.",
        )
        m.reloads = {
            result: metrics.counter(
                "daas_serve_reloads_total",
                help_text="Index reload attempts, by result.",
                result=result,
            )
            for result in ("ok", "error", "timeout")
        }
        m.screened = metrics.counter(
            "daas_serve_screened_addresses_total",
            help_text="Addresses screened through POST /v1/screen.",
        )
        m.snapshots = metrics.counter(
            "daas_serve_status_snapshots_total",
            help_text="Worker metrics snapshots written to --status-dir.",
        )
        m.index_loaded.set(1 if self._engine is not None else 0)
        self._publish_index_gauges()

    # -- index lifecycle -----------------------------------------------------

    @property
    def engine(self) -> QueryEngine | None:
        return self._engine

    @property
    def index_version(self) -> str | None:
        engine = self._engine
        return engine.index_version if engine is not None else None

    def load_index(self, index: IntelIndex) -> str:
        """Install ``index`` (hot-swap when one is already serving).

        In-flight requests are never dropped: each request resolves its
        engine once at admission and finishes against it.  The response
        cache is version-keyed, so stale bytes simply stop being hit.
        """
        engine = self._engine
        if engine is None:
            self._engine = QueryEngine(index, cache_size=self.cache_size,
                                       obs=self.obs)
        else:
            engine.swap_index(index)
        self._responses.clear()
        self.metrics.index_loaded.set(1)
        self.metrics.reloads["ok"].inc()
        self._publish_index_gauges()
        self.obs.event("serve.index_loaded", version=index.version,
                       addresses=len(index))
        return index.version

    def reload(self, path: str) -> str | None:
        """Load an index file and hot-swap it in, under a time budget.

        The read+parse runs on a worker thread bounded by
        ``reload_timeout_s``; on timeout or a bad file the current index
        keeps serving and ``None`` is returned (the failure is counted
        in ``daas_serve_reloads_total`` and logged).
        """
        box: dict[str, Any] = {}

        def _load() -> None:
            try:
                box["index"] = IntelIndex.load(path)
            except (IndexFormatError, OSError) as exc:
                box["error"] = str(exc)

        worker = threading.Thread(target=_load, name="serve-index-reload", daemon=True)
        worker.start()
        worker.join(self.reload_timeout_s)
        if worker.is_alive():
            self.metrics.reloads["timeout"].inc()
            self.obs.event("serve.reload_failed", level="warning",
                           path=str(path), reason="timeout",
                           timeout_s=self.reload_timeout_s)
            return None
        if "error" in box:
            self.metrics.reloads["error"].inc()
            self.obs.event("serve.reload_failed", level="warning",
                           path=str(path), reason=box["error"])
            return None
        return self.load_index(box["index"])

    def _publish_index_gauges(self) -> None:
        engine = self._engine
        counts = engine.index.counts() if engine is not None else {}
        for kind in ("addresses", "domains", "families"):
            self.obs.metrics.gauge(
                "daas_serve_index_entries",
                help_text="Entries in the serving index, by kind.",
                kind=kind,
            ).set(counts.get(kind, 0))

    def publish_cache_gauges(self) -> None:
        engine = self._engine
        if engine is None:
            return
        metrics = self.obs.metrics
        stats = engine.cache.stats
        metrics.gauge("daas_serve_cache_hits",
                      help_text="Query result-cache hits.").set(stats.hits)
        metrics.gauge("daas_serve_cache_misses",
                      help_text="Query result-cache misses.").set(stats.misses)
        metrics.gauge("daas_serve_cache_evictions",
                      help_text="Query result-cache evictions.").set(stats.evictions)
        responses = self._responses.stats
        metrics.gauge("daas_serve_response_cache_hits",
                      help_text="Pre-serialized response-cache hits.",
                      ).set(responses.hits)
        metrics.gauge("daas_serve_response_cache_misses",
                      help_text="Pre-serialized response-cache misses.",
                      ).set(responses.misses)

    # -- admission bookkeeping (the transport calls these in order) ----------

    @staticmethod
    def endpoint_of(path: str) -> str:
        path = path.partition("?")[0]
        parts = path.split("/", 3)
        if len(parts) >= 3 and parts[1] == "v1":
            candidate = "/v1/" + parts[2]
            return candidate if candidate in _ENDPOINTS else "other"
        path = path.rstrip("/") or "/"
        return path if path in PROBE_ROUTES else "other"

    def count_request(self, endpoint: str) -> None:
        self.metrics.requests[endpoint].inc()

    def check_rate(self, client_id: str) -> ServeResponse | None:
        """``None`` when admitted, else the finished 429 response."""
        wait = self.limiter.check(client_id)
        if wait <= 0:
            return None
        self.metrics.rate_limited.inc()
        return self._json(
            429,
            {"error": "rate limit exceeded", "retry_after_s": round(wait, 3)},
            extra_headers=(("Retry-After", str(max(1, int(wait + 0.999)))),),
        )

    def oversized_response(self, length: int) -> ServeResponse:
        self.metrics.oversized.inc()
        return self._json(413, {
            "error": f"body of {length} bytes exceeds max {self.max_body_bytes}",
        }, close=True)

    def malformed_response(self, reason: str) -> ServeResponse:
        self.metrics.malformed.inc()
        return self._json(400, {"error": f"malformed request: {reason}"},
                          close=True)

    def begin_request(
        self,
        method: str,
        target: str,
        client: str | None = None,
        request_id: str | None = None,
        bytes_in: int = 0,
        endpoint: str | None = None,
    ) -> RequestContext:
        """Open the per-request telemetry context.

        The transport calls this as soon as the request line and headers
        are framed (and for *unframeable* requests, with whatever is
        known), so even protocol-level 400/413 rejections get an id, a
        latency observation, and an access-log error record.
        """
        if endpoint is None:
            endpoint = self.endpoint_of(target)
        return self.telemetry.begin(
            method, target, endpoint,
            client=client, request_id=request_id, bytes_in=bytes_in,
        )

    def finish_request(self, ctx: RequestContext, response: ServeResponse) -> ServeResponse:
        """Per-request epilogue: histograms + access log + periodic gauges."""
        ctx.finish(response)
        self._observed += 1
        if self._observed % _GAUGE_EVERY == 0:
            self.publish_cache_gauges()
        return response

    def close(self) -> None:
        """Release per-request telemetry resources (the access log)."""
        self.telemetry.close()

    # -- routing -------------------------------------------------------------

    def handle(
        self,
        method: str,
        target: str,
        body: bytes = b"",
        if_none_match: str | None = None,
    ) -> ServeResponse:
        """Route one admitted request to its response (pure, no I/O)."""
        raw_path, _, query = target.partition("?")
        path = raw_path.rstrip("/") or "/"
        # The probes answer even with no index loaded — an operator
        # diagnosing a worker that failed to load needs them most then.
        if path in PROBE_ROUTES:
            return self._probe(method, path)
        # Everything under /v1 needs a loaded index; resolve the engine
        # exactly once so a concurrent hot-reload cannot split a request
        # across index versions.
        engine = self._engine
        if engine is None:
            if self.health is not self:
                # A pipeline run's probe port serves the probes only.
                return self._json(404, {
                    "error": f"no such endpoint: {path}",
                    "endpoints": list(PROBE_ROUTES),
                })
            return self._json(503, {
                "error": "no intelligence index loaded",
                "hint": "build one with `daas-repro index build` and "
                        "start the server with --index",
            })
        version = engine.index_version
        if if_none_match == f'"{version}"':
            return ServeResponse(304, b"", "application/json",
                                 headers=self._version_headers(version))

        endpoint = self.endpoint_of(path)
        if endpoint == "/v1/screen":
            if method != "POST":
                return self._json(405, {"error": "use POST for /v1/screen"},
                                  version=version)
            return self._screen(engine, version, body, query)
        if method != "GET":
            return self._json(405, {"error": f"{method} not supported"},
                              version=version)

        parts = [unquote(p) for p in path.split("/") if p]
        if endpoint == "/v1/address" and len(parts) == 3:
            return self._address(engine, parts[2], version)
        if endpoint == "/v1/address" and len(parts) == 2 and query:
            return self._address_batch(engine, version, query)
        if endpoint == "/v1/domain" and len(parts) == 3:
            return self._domain(engine, parts[2], version)
        if endpoint == "/v1/families" and len(parts) == 2:
            return self._json(200, {
                "index_version": version,
                "families": [f.to_payload() for f in engine.families()],
            }, version=version)
        if endpoint == "/v1/families" and len(parts) == 3:
            record = engine.family_summary(parts[2])
            if record is None:
                return self._json(404, {"error": f"no such family: {parts[2]}"},
                                  version=version)
            return self._json(200, record.to_payload(), version=version)
        if endpoint == "/v1/index" and len(parts) == 2:
            return self._json(200, {
                "index_version": version,
                "format": IntelIndex.FORMAT,
                "format_version": IntelIndex.FORMAT_VERSION,
                "counts": engine.index.counts(),
                "cache": engine.cache.stats.snapshot(),
            }, version=version)
        return self._json(404, {
            "error": f"no such endpoint: {path}",
            "endpoints": list(ROUTE_HELP),
        }, version=version)

    # -- the fleet aggregation plane -----------------------------------------

    def write_status_snapshot(self) -> str | None:
        """Atomically publish this worker's registry to ``--status-dir``.

        Called eagerly at startup, periodically while serving, and once
        more at shutdown, so sibling workers (and ``live-status``) always
        find a recent snapshot.  Failures are logged and counted,
        never raised — publishing status must not take down serving.
        """
        if not self.status_dir:
            return None
        try:
            path = write_worker_snapshot(
                self.status_dir, self.worker_id, self.obs,
                index_version=self.index_version,
            )
        except OSError as exc:
            self.obs.event("serve.snapshot_failed", level="warning",
                           path=str(self.status_dir), reason=str(exc))
            return None
        self.metrics.snapshots.inc()
        return path

    def fleet_snapshots(self) -> SnapshotScan:
        """This worker's live registry + every sibling's snapshot file."""
        own = {
            "ts": time.time(),
            "worker": self.worker_id,
            "pid": os.getpid(),
            "run": self.obs.run_id,
            "index_version": self.index_version,
            "live": True,
            "metrics": self.obs.metrics.to_json(),
        }
        if not self.status_dir:
            return SnapshotScan(snapshots=[own], skipped=0)
        scan = self.aggregator.read_snapshots(
            self.status_dir, exclude_worker=self.worker_id
        )
        return SnapshotScan(snapshots=[own] + scan.snapshots, skipped=scan.skipped)

    # -- serve's health source: this worker's index and fleet view ----------

    def health_doc(self) -> dict[str, Any]:
        engine = self._engine
        if engine is None:
            return {"status": "no-index"}
        return {"status": "ok", "index_version": engine.index_version}

    def ready(self) -> bool:
        return self._engine is not None

    def status_doc(self) -> dict[str, Any]:
        scan = self.fleet_snapshots()
        doc = self.aggregator.fleet_doc(scan.snapshots, skipped=scan.skipped)
        doc.pop("metrics", None)  # the raw registry is what /metrics is for
        return doc

    def exposition(self) -> str:
        scan = self.fleet_snapshots()
        return render_fleet_prometheus(self.aggregator.merge(scan.snapshots))

    # -- endpoint bodies -----------------------------------------------------

    def _probe(self, method: str, path: str) -> ServeResponse:
        """One of :data:`PROBE_ROUTES`, answered from the health source:
        a health document whose ``status`` is ``"ok"`` is 200 and any
        other 503; readiness likewise; the status document and the
        exposition text only to GET."""
        health = self.health
        if path == "/healthz":
            doc = health.health_doc()
            return self._json(200 if doc.get("status") == "ok" else 503, doc)
        if path == "/readyz":
            ready = health.ready()
            return self._json(200 if ready else 503, {"ready": ready})
        if method != "GET":
            return self._json(405, {"error": f"use GET for {path}"})
        if path == "/statusz":
            return self._json(200, health.status_doc())
        return ServeResponse(
            200, health.exposition().encode("utf-8"), PROMETHEUS_CONTENT_TYPE
        )

    def _address_doc(self, engine: QueryEngine, addr: str) -> dict:
        intel = engine.lookup_address(addr)
        if intel is None:
            return {"address": addr, "error": "unknown address", "flagged": False}
        doc = intel.to_payload()
        doc["risk"] = engine.risk(intel)
        fused = engine.fused_verdict(intel)
        if fused is not None:
            # Only signal-bearing records grow the versioned fused block;
            # legacy records keep the exact pre-fusion payload bytes.
            doc["schema_version"] = SCREEN_SCHEMA_VERSION
            doc["fused"] = fused.to_payload()
        return doc

    def _address(self, engine: QueryEngine, addr: str, version: str) -> ServeResponse:
        def build() -> ServeResponse:
            doc = self._address_doc(engine, addr)
            if "error" in doc:
                return self._json(404, doc, version=version)
            doc["index_version"] = version
            return self._json(200, doc, version=version)

        return self._responses.get_or_compute(("addr", version, addr), build)

    def _address_batch(
        self, engine: QueryEngine, version: str, query: str
    ) -> ServeResponse:
        params = parse_qs(query)
        raw = ",".join(params.get("batch", []))
        addresses = [a for a in raw.split(",") if a]
        if not addresses:
            return self._json(400, {
                "error": "expected ?batch=0x..,0x.. with at least one address",
            }, version=version)
        if len(addresses) > self.max_batch:
            return self._json(400, {
                "error": f"batch of {len(addresses)} exceeds max {self.max_batch}",
            }, version=version)

        def build() -> ServeResponse:
            results = [self._address_doc(engine, a) for a in addresses]
            doc: dict[str, Any] = {}
            if any("fused" in r for r in results):
                doc["schema_version"] = SCREEN_SCHEMA_VERSION
            doc.update({
                "index_version": version,
                "requested": len(addresses),
                "found": sum(1 for r in results if "error" not in r),
                "results": results,
            })
            return self._json(200, doc, version=version)

        return self._responses.get_or_compute(
            ("addr-batch", version, tuple(addresses)), build
        )

    def _domain(self, engine: QueryEngine, name: str, version: str) -> ServeResponse:
        intel = engine.lookup_domain(name)
        if intel is None:
            return self._json(404, {
                "domain": name, "error": "unknown domain",
            }, version=version)
        doc = intel.to_payload()
        doc["index_version"] = version
        return self._json(200, doc, version=version)

    def _screen(
        self, engine: QueryEngine, version: str, body: bytes, query: str
    ) -> ServeResponse:
        try:
            doc = json.loads(body or b"{}")
        except (ValueError, json.JSONDecodeError):
            return self._json(400, {"error": "body is not valid JSON"},
                              version=version)
        addresses = doc.get("addresses") if isinstance(doc, dict) else None
        if not isinstance(addresses, list) or not all(
            isinstance(a, str) for a in addresses
        ):
            return self._json(400, {
                "error": 'expected {"addresses": ["0x...", ...]}',
            }, version=version)
        if len(addresses) > self.max_batch:
            return self._json(400, {
                "error": f"batch of {len(addresses)} exceeds max {self.max_batch}",
            }, version=version)
        self.metrics.screened.inc(len(addresses))
        stream = parse_qs(query).get("stream", ["0"])[-1] not in ("", "0")
        kind = "screen-stream" if stream else "screen"
        key = (kind, version, tuple(addresses))

        def build() -> ServeResponse:
            verdicts = engine.screen_batch(addresses)
            # The envelope announces the verdict schema only when a
            # verdict actually carries it — batches of signal-free
            # addresses keep the exact pre-fusion response bytes.
            fused_any = any(v.schema >= SCREEN_SCHEMA_VERSION for v in verdicts)
            if stream:
                meta: dict[str, Any] = {}
                if fused_any:
                    meta["schema_version"] = SCREEN_SCHEMA_VERSION
                meta.update({"index_version": version, "count": len(verdicts)})
                head = json.dumps(meta, separators=(",", ":"))
                parts = [(head + "\n").encode()]
                parts += [
                    (json.dumps(v.to_payload(), separators=(",", ":")) + "\n").encode()
                    for v in verdicts
                ]
                return ServeResponse(
                    200, b"".join(parts), "application/x-ndjson",
                    headers=self._version_headers(version), chunks=tuple(parts),
                )
            doc: dict[str, Any] = {}
            if fused_any:
                doc["schema_version"] = SCREEN_SCHEMA_VERSION
            doc.update({
                "index_version": version,
                "flagged": sum(1 for v in verdicts if v.flagged),
                "verdicts": [v.to_payload() for v in verdicts],
            })
            return self._json(200, doc, version=version)

        return self._responses.get_or_compute(key, build)

    # -- response assembly ---------------------------------------------------

    @staticmethod
    def _version_headers(version: str) -> tuple[tuple[str, str], ...]:
        return (("X-Index-Version", version), ("ETag", f'"{version}"'))

    @classmethod
    def _json(
        cls,
        status: int,
        doc: dict[str, Any],
        version: str | None = None,
        extra_headers: tuple[tuple[str, str], ...] = (),
        close: bool = False,
    ) -> ServeResponse:
        headers = cls._version_headers(version) if version is not None else ()
        return ServeResponse(
            status,
            (json.dumps(doc, indent=2) + "\n").encode("utf-8"),
            "application/json",
            headers=headers + extra_headers,
            close=close,
        )
