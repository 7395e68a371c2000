"""Live operations for long-running detection: serve, snapshot, watch, alert.

The paper's website detection ran continuously for 17 months; PR 2's
observability is post-hoc (traces and metrics written at exit), which
leaves a wedged CT tail or a stalled snowball round invisible until the
process dies.  This package layers an *operations* plane on the existing
:class:`~repro.obs.Observability` handle:

* the probe port — ``/metrics`` (Prometheus text), ``/healthz``,
  ``/readyz``, ``/statusz`` on the serve plane's asyncio transport
  (:class:`~repro.serve.aserver.AsyncIntelServer`, no index), run on a
  daemon thread with :class:`LiveOps` as its health source;
* :class:`~repro.obs.live.snapshot.Snapshotter`   — timestamped registry
  snapshots appended to a JSONL time-series file on a cadence;
* :class:`~repro.obs.live.watchdog.Watchdog`      — stage heartbeats vs.
  deadlines; stalls degrade health and emit ``stage.stalled`` events;
* :class:`~repro.obs.live.alerts.AlertEngine`     — declarative
  threshold/ratio/absence rules loaded from JSON/TOML, evaluated each
  snapshot tick, surfaced on ``/statusz``.

:class:`LiveOps` bundles all four behind one handle, attached to an
``Observability`` via :meth:`LiveOps.start` — pipeline code reports
liveness through the unconditional ``obs.stage_started`` /
``obs.heartbeat`` shims and never imports this package.  The cardinal
rule is inherited from PR 2 and enforced by
``tests/obs/test_live_server.py``: the live layer NEVER perturbs
results — dataset JSON is byte-identical with it on or off.  Operator
documentation lives in ``docs/operations.md``.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from repro.obs.live.alerts import AlertEngine, AlertRule, load_alert_rules, parse_alert_rules
from repro.obs.live.health import RunStatus
from repro.obs.live.snapshot import Snapshotter
from repro.obs.live.status import (
    LiveStatusError,
    load_status_source,
    render_live_status,
    render_status,
    status_state,
)
from repro.obs.live.watchdog import Watchdog

__all__ = [
    "AlertEngine",
    "AlertRule",
    "LiveOps",
    "LiveStatusError",
    "RunStatus",
    "Snapshotter",
    "Watchdog",
    "load_alert_rules",
    "load_status_source",
    "parse_alert_rules",
    "render_live_status",
    "render_status",
    "status_state",
]


class LiveOps:
    """One run's live-operations bundle, attached to an Observability.

    It is also the health source of the run's probe port: the four
    answers below are what ``/healthz``, ``/readyz``, ``/statusz`` and
    ``/metrics`` report, each computed when it is asked for.
    """

    def __init__(
        self,
        obs,
        *,
        serve_port: int | None = None,
        host: str = "127.0.0.1",
        snapshot_path: str | None = None,
        snapshot_every: float = 1.0,
        alert_rules: list[AlertRule] | None = None,
        stage_deadline_s: float = 300.0,
        stage_deadlines: dict[str, float] | None = None,
        clock: Callable[[], float] = time.time,
        monotonic: Callable[[], float] = time.monotonic,
        before_tick: Callable[[], None] | None = None,
    ) -> None:
        self.obs = obs
        self.status = RunStatus(run_id=obs.run_id, clock=clock)
        self.watchdog = Watchdog(
            self.status,
            obs=obs,
            default_deadline_s=stage_deadline_s,
            deadlines=stage_deadlines,
            clock=monotonic,
        )
        self.alert_engine = (
            AlertEngine(alert_rules, obs=obs) if alert_rules else None
        )
        #: Refresh hook run before every snapshot tick and before every
        #: probe but ``/readyz`` (the CLI wires the engine's metrics here).
        self.before_tick = before_tick
        self.server = None
        if serve_port is not None:
            from repro.serve.aserver import AsyncIntelServer

            self.server = AsyncIntelServer(
                obs=obs, host=host, port=serve_port, health=self
            )
        self.snapshotter = (
            Snapshotter(
                obs,
                snapshot_path,
                every_s=snapshot_every,
                status=self.status,
                watchdog=self.watchdog,
                alert_engine=self.alert_engine,
                clock=clock,
                before_tick=before_tick,
            )
            if snapshot_path
            else None
        )
        self._started = False

    # -- lifecycle -----------------------------------------------------------

    def start(self, background: bool = True) -> "LiveOps":
        """Attach to the Observability, bind the server, start the
        snapshot cadence (``background=False`` skips the thread — callers
        then drive :meth:`tick` themselves, as the tests do)."""
        if self._started:
            return self
        if self.server is not None:
            self.server.start()  # OSError when the port is taken
            self.obs.event("live.serving", url=self.server.url, port=self.server.port)
        self._started = True
        self.obs.live = self
        if self.snapshotter is not None and background:
            self.snapshotter.start()
        return self

    def stop(self) -> None:
        """Final snapshot tick, then tear the threads down and detach."""
        if not self._started:
            return
        if self.snapshotter is not None:
            self.snapshotter.stop(final_tick=True)
        if self.server is not None:
            self.server.stop()
        if self.obs.live is self:
            self.obs.live = None
        self._started = False

    def __enter__(self) -> "LiveOps":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- forwarding targets for the Observability shims ----------------------

    def stage_started(self, name: str) -> None:
        self.status.stage_started(name)
        self.watchdog.stage_started(name)

    def stage_finished(self, name: str) -> None:
        self.status.stage_finished(name)
        self.watchdog.stage_finished(name)

    def heartbeat(self, name: str | None = None) -> None:
        self.watchdog.beat(name)

    # -- the probe port's health source ---------------------------------------

    def _refresh(self) -> None:
        if self.before_tick is not None:
            self.before_tick()
        self.watchdog.check()

    def health_doc(self) -> dict[str, Any]:
        self._refresh()
        return {"status": self.status.state,
                "reasons": self.status.degraded_reasons()}

    def ready(self) -> bool:
        return self.status.ready

    def status_doc(self) -> dict[str, Any]:
        """Run status, watchdog and (re-evaluated) alert rules."""
        self._refresh()
        doc: dict[str, Any] = {
            "status": self.status.snapshot(),
            "watchdog": self.watchdog.snapshot(),
        }
        if self.alert_engine is not None:
            self.alert_engine.evaluate(self.obs.metrics)
            doc["alerts"] = self.alert_engine.snapshot()
            doc["firing"] = self.alert_engine.firing()
        return doc

    def exposition(self) -> str:
        self._refresh()
        return self.obs.metrics.to_prometheus()

    def tick(self, now: float | None = None) -> dict[str, Any] | None:
        """Manual snapshot tick (no-op without a snapshotter)."""
        if self.snapshotter is None:
            self.watchdog.check()
            if self.alert_engine is not None:
                self.alert_engine.evaluate(self.obs.metrics)
            return None
        return self.snapshotter.tick(now)
