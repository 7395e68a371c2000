"""Observability for the measurement pipeline: traces, metrics, logs.

Three pillars, one handle:

* :mod:`repro.obs.trace`   — hierarchical spans with parent/child links,
  wall/CPU time, and a JSON-lines trace writer (``--trace-out``);
* :mod:`repro.obs.metrics` — counters, gauges, fixed-bucket histograms,
  exported as JSON or Prometheus text format (``--metrics-out``);
* :mod:`repro.obs.logging` — structured run-id-stamped events with JSON
  and quiet human renderers (``--log-json``);
* :mod:`repro.obs.summary` — the ``trace-summary`` flame table over a
  written trace file;
* :mod:`repro.obs.live`    — the *operations* layer for long-running
  runs: ``/metrics`` HTTP server, health/readiness probes, snapshot
  time-series, stage watchdog, and declarative alert rules
  (``--serve-metrics`` / ``--snapshot-out`` / ``--alerts``).

:class:`Observability` bundles one tracer, one registry, and one logger
under a shared run id; every :class:`~repro.runtime.engine.ExecutionEngine`
owns one and the pipeline stages report through it.  The cardinal rule,
enforced by ``tests/obs/test_obs_regression.py``: observability NEVER
perturbs results — a run with tracing on is byte-identical to a run with
it off.  Event/span/metric names are catalogued in
``docs/observability.md``.
"""

from __future__ import annotations

import os
import time
from typing import IO, Any

from repro.obs.logging import StructuredLogger, render_human, render_json
from repro.obs.metrics import (
    CACHE_RATIO_BUCKETS,
    LATENCY_BUCKETS,
    SERVE_LATENCY_BUCKETS,
    SERVE_SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    escape_help,
    escape_label_value,
)
from repro.obs.request import (
    REQUEST_ID_HEADER,
    AccessLog,
    RequestContext,
    RequestTelemetry,
    sanitize_request_id,
)
from repro.obs.summary import (
    StageRow,
    aggregate_trace,
    render_trace_summary,
    summarize_file,
)
from repro.obs.trace import NULL_SPAN, Span, Tracer, load_trace

__all__ = [
    "CACHE_RATIO_BUCKETS",
    "LATENCY_BUCKETS",
    "NULL_SPAN",
    "REQUEST_ID_HEADER",
    "SERVE_LATENCY_BUCKETS",
    "SERVE_SIZE_BUCKETS",
    "AccessLog",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "RequestContext",
    "RequestTelemetry",
    "Span",
    "StageRow",
    "StructuredLogger",
    "Tracer",
    "aggregate_trace",
    "escape_help",
    "escape_label_value",
    "load_trace",
    "new_run_id",
    "render_human",
    "render_json",
    "render_trace_summary",
    "summarize_file",
]


def new_run_id() -> str:
    """Short, unique-enough run id: epoch seconds + pid, base36-ish."""
    return f"r{int(time.time()):x}-{os.getpid():x}"


class Observability:
    """One run's tracer + metrics registry + structured logger."""

    def __init__(
        self,
        run_id: str | None = None,
        enabled: bool = True,
        log_stream: IO[str] | None = None,
        log_fmt: str = "human",
        log_level: str = "info",
    ) -> None:
        self.run_id = run_id if run_id is not None else new_run_id()
        self.enabled = enabled
        #: Optional :class:`repro.obs.live.LiveOps` attachment.  ``None``
        #: for ordinary runs; the stage/heartbeat shims below make call
        #: sites unconditional either way.
        self.live: Any = None
        self.tracer = Tracer(run_id=self.run_id)
        self.tracer.enabled = enabled
        self.metrics = MetricsRegistry(enabled=enabled)
        self.log = StructuredLogger(
            run_id=self.run_id,
            stream=log_stream if enabled else None,
            fmt=log_fmt,
            min_level=log_level,
        )

    @classmethod
    def disabled(cls) -> "Observability":
        """The no-op baseline: spans yield :data:`NULL_SPAN`, metrics are
        shared null instruments, the logger still buffers (cheap)."""
        return cls(enabled=False)

    # -- recording shorthands ------------------------------------------------

    def span(self, name: str, **attrs: Any):
        return self.tracer.span(name, **attrs)

    def event(self, name: str, level: str = "info", **fields: Any) -> dict[str, Any]:
        if not self.enabled:
            return {}
        return self.log.event(name, level=level, **fields)

    # -- live-layer shims ----------------------------------------------------
    # No-ops unless a LiveOps handle is attached, so pipeline code can
    # report liveness unconditionally without importing repro.obs.live.

    def stage_started(self, name: str) -> None:
        if self.live is not None:
            self.live.stage_started(name)

    def stage_finished(self, name: str) -> None:
        if self.live is not None:
            self.live.stage_finished(name)

    def heartbeat(self, name: str | None = None) -> None:
        """Signal forward progress inside a long stage (watchdog food)."""
        if self.live is not None:
            self.live.heartbeat(name)

    # -- export --------------------------------------------------------------

    def write_trace(self, path: str) -> int:
        """Write the trace JSONL file; returns the span count."""
        return self.tracer.write(path)

    def write_metrics(self, path: str, fmt: str | None = None) -> None:
        """Write the registry (``.json`` paths get JSON, else Prometheus)."""
        if fmt is None:
            fmt = "json" if str(path).endswith(".json") else "prom"
        text = (
            self.metrics.to_json_text() if fmt == "json" else self.metrics.to_prometheus()
        )
        with open(path, "w") as handle:
            handle.write(text)

    def snapshot(self) -> dict[str, Any]:
        """In-memory summary (span/event counts + metric values)."""
        return {
            "run": self.run_id,
            "enabled": self.enabled,
            "spans": len(self.tracer),
            "events": len(self.log.events),
            "metrics": self.metrics.to_json(),
        }
