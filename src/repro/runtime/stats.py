"""Lightweight pipeline instrumentation.

One :class:`RuntimeStats` instance rides along with an
:class:`~repro.runtime.engine.ExecutionEngine` and accumulates

* per-stage wall-clock time (``seed``, ``snowball``, ...),
* monotonic counters (contracts classified, transactions scanned,
  cache invalidations),

from which throughput (transactions classified per second) is derived.
Counter updates may come from several threads, so they are guarded by a
lock; the cost is negligible next to the classification work itself.

Since PR 2 the stats object is a *view* into the observability layer:
when constructed with a :class:`~repro.obs.metrics.MetricsRegistry`
(the engine always passes its own), every ``bump`` mirrors into the
``daas_pipeline_events_total`` counter family and every stage into
``daas_stage_seconds_total``, so ``--metrics-out`` exports supersede the
flat dict without breaking the dict-shaped API callers already use.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry

__all__ = ["RuntimeStats"]


class RuntimeStats:
    """Per-stage wall time + named counters for one pipeline run."""

    def __init__(self, metrics: "MetricsRegistry | None" = None) -> None:
        self._lock = threading.Lock()
        self._metrics = metrics
        self._event_counters: dict[str, object] = {}
        self.stage_wall: dict[str, float] = {}
        self.counters: dict[str, int] = {}

    # -- recording ----------------------------------------------------------

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time a pipeline stage; nested calls of the same name accumulate."""
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            with self._lock:
                self.stage_wall[name] = self.stage_wall.get(name, 0.0) + elapsed
            if self._metrics is not None:
                self._metrics.counter(
                    "daas_stage_seconds_total",
                    help_text="Cumulative wall time spent per pipeline stage.",
                    stage=name,
                ).inc(elapsed)

    def bump(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n
        if self._metrics is not None:
            # bump rides on the per-contract hot path; memoize the registry
            # lookup so repeat bumps pay one dict get, not a label sort.
            counter = self._event_counters.get(name)
            if counter is None:
                counter = self._metrics.counter(
                    "daas_pipeline_events_total",
                    help_text="Pipeline work counters (classifications, invalidations, ...).",
                    event=name,
                )
                self._event_counters[name] = counter
            counter.inc(n)

    # -- reading ------------------------------------------------------------

    def count(self, name: str) -> int:
        return self.counters.get(name, 0)

    def wall(self, name: str) -> float:
        return self.stage_wall.get(name, 0.0)

    def total_wall(self) -> float:
        """Sum of the construction stages' wall times (``seed`` +
        ``snowball``; measurement stages are tracked separately so the
        throughput denominator stays the classification work)."""
        return sum(
            wall for name, wall in self.stage_wall.items()
            if not name.startswith("measure.")
        )

    def txs_per_second(self) -> float:
        """Classification throughput over the timed stages."""
        wall = self.total_wall()
        return self.count("txs_classified") / wall if wall > 0 else 0.0

    def snapshot(self) -> dict:
        return {
            "stages": {k: round(v, 6) for k, v in sorted(self.stage_wall.items())},
            "counters": dict(sorted(self.counters.items())),
            "txs_per_second": round(self.txs_per_second(), 1),
        }
