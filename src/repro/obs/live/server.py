"""The live HTTP endpoint: ``/metrics``, ``/healthz``, ``/readyz``, ``/statusz``.

A stdlib :class:`~http.server.ThreadingHTTPServer` on a daemon thread —
no dependency beyond the standard library, cheap enough to leave on for
a months-long detection run.  Endpoints:

* ``/metrics`` — the registry in Prometheus text exposition format
  (``text/plain; version=0.0.4``), scrape-able mid-run;
* ``/healthz`` — liveness: 200 ``ok`` / 503 ``degraded`` with reasons;
  every probe runs the watchdog check first, so health is computed at
  observation time (no polling thread to wedge);
* ``/readyz``  — readiness: 503 until the run's first stage starts;
* ``/statusz`` — the full JSON status document (run id, uptime, current
  stage, stages done, watchdog state, alert rule states); alert rules
  are re-evaluated per request so the document is current even without
  a snapshotter.

Binding to port 0 picks an ephemeral port, exposed as
:attr:`MetricsServer.port` and printed by the CLI.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable

from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE

__all__ = ["MetricsServer"]


class MetricsServer:
    """Daemon-thread HTTP server over one run's live state."""

    def __init__(
        self,
        obs,
        status=None,
        watchdog=None,
        alert_engine=None,
        host: str = "127.0.0.1",
        port: int = 0,
        status_doc: Callable[[], dict[str, Any]] | None = None,
    ) -> None:
        self.obs = obs
        self.status = status
        self.watchdog = watchdog
        self.alert_engine = alert_engine
        self.host = host
        self.requested_port = port
        self._status_doc = status_doc
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self._scrapes = {
            path: obs.metrics.counter(
                "daas_live_scrapes_total",
                help_text="HTTP requests served by the live endpoint, by path.",
                path=path,
            )
            for path in ("/metrics", "/healthz", "/readyz", "/statusz", "other")
        }

    # -- lifecycle -----------------------------------------------------------

    @property
    def port(self) -> int:
        return self._httpd.server_address[1] if self._httpd is not None else 0

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "MetricsServer":
        if self._httpd is not None:
            return self
        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - http.server API
                server._handle(self)

            def log_message(self, format: str, *args: Any) -> None:
                pass  # stay quiet; scrapes are counted in the registry

        self._httpd = ThreadingHTTPServer((self.host, self.requested_port), Handler)
        self._httpd.daemon_threads = True
        # A short poll interval keeps shutdown() from blocking its caller
        # for the default 0.5 s — teardown is on the pipeline's exit path.
        self._thread = threading.Thread(
            target=lambda: self._httpd.serve_forever(poll_interval=0.05),
            name="obs-metrics-server", daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    # -- request handling ----------------------------------------------------

    def _handle(self, request: BaseHTTPRequestHandler) -> None:
        path = request.path.split("?", 1)[0]
        self._scrapes.get(path, self._scrapes["other"]).inc()
        if path == "/metrics":
            self._respond(request, 200, self.obs.metrics.to_prometheus(),
                          PROMETHEUS_CONTENT_TYPE)
        elif path == "/healthz":
            self._health(request)
        elif path == "/readyz":
            ready = self.status.ready if self.status is not None else True
            self._respond_json(request, 200 if ready else 503, {"ready": ready})
        elif path == "/statusz":
            self._respond_json(request, 200, self.status_doc())
        else:
            self._respond_json(request, 404, {
                "error": f"no such endpoint: {path}",
                "endpoints": ["/metrics", "/healthz", "/readyz", "/statusz"],
            })

    def _health(self, request: BaseHTTPRequestHandler) -> None:
        if self.watchdog is not None:
            self.watchdog.check()
        if self.status is not None:
            state = self.status.state
            reasons = self.status.degraded_reasons()
        else:
            state, reasons = "ok", []
        self._respond_json(
            request, 200 if state == "ok" else 503,
            {"status": state, "reasons": reasons},
        )

    def status_doc(self) -> dict[str, Any]:
        """The /statusz document (also reused by the LiveOps bundle)."""
        if self._status_doc is not None:
            return self._status_doc()
        if self.watchdog is not None:
            # Before the status snapshot, so a stall this probe detects
            # is reflected in the document it returns.
            self.watchdog.check()
        doc: dict[str, Any] = {
            "status": self.status.snapshot() if self.status is not None else {},
        }
        if self.watchdog is not None:
            doc["watchdog"] = self.watchdog.snapshot()
        if self.alert_engine is not None:
            self.alert_engine.evaluate(self.obs.metrics)
            doc["alerts"] = self.alert_engine.snapshot()
            doc["firing"] = self.alert_engine.firing()
        return doc

    @staticmethod
    def _respond(request, code: int, body: str, content_type: str) -> None:
        payload = body.encode("utf-8")
        request.send_response(code)
        request.send_header("Content-Type", content_type)
        request.send_header("Content-Length", str(len(payload)))
        request.end_headers()
        request.wfile.write(payload)

    @classmethod
    def _respond_json(cls, request, code: int, doc: dict[str, Any]) -> None:
        cls._respond(request, code, json.dumps(doc, indent=2) + "\n",
                     "application/json")
