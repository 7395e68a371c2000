"""Versioned index deltas and bounded-staleness publication.

A streamed :class:`~repro.serve.index.IntelIndex` changes a little per
tick, so the publisher ships **deltas**: :func:`compute_index_delta`
diffs two indexes into per-kind upserts/removals (payload-level, the
same canonical dicts the index serializes; a record that is the same
object in both indexes is unchanged without a look), and
:func:`apply_index_delta` replays a delta onto the base index with two
hard checks — the base content-hash must match (no silent divergence)
and the rebuilt index's version must equal the delta's target (no
corrupt application).  The rebuilt index keeps the base's encoded
fragments for untouched keys and encodes the upserts from the delta's
own payloads, so the target check hashes the bytes the delta carries.
A delta that survives both is *proof* the applied index is
byte-identical to the builder's; that property is what lets the parity
tests compare streamed bytes against cold rebuilds.

Publication is the serve plane's existing zero-drop path: the on-disk
file is swapped with :func:`~repro.runtime.atomicio.atomic_write_bytes`
(readers see the old or the new complete index, never a torn one) and
the in-process :class:`~repro.serve.query.QueryEngine` /
``IntelHandlerCore`` hot-reload finishes in-flight queries against the
index they started with.

Freshness is a first-class signal: ``daas_stream_staleness_seconds``
gauges the age of the published index, and when it exceeds the
configured bound the run's health degrades (reason ``stream.stale``) —
visible on ``/healthz`` and ``/statusz``, which re-check the bound when
probed; ``/readyz`` is a startup latch and stays up — recovering
automatically on the next publish.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.runtime.atomicio import atomic_write_bytes
from repro.serve.index import (
    AddressIntel,
    DomainIntel,
    FamilyRecord,
    IntelIndex,
    encode_entry,
)

__all__ = [
    "IndexDelta",
    "IndexDeltaError",
    "PublishReceipt",
    "StreamPublisher",
    "apply_index_delta",
    "compute_index_delta",
]

#: Health-degradation reason registered when the staleness bound trips.
STALE_REASON = "stream.stale"

_KINDS = ("addresses", "domains", "families")
_CODECS = {
    "addresses": AddressIntel,
    "domains": DomainIntel,
    "families": FamilyRecord,
}


class IndexDeltaError(ValueError):
    """A delta cannot be applied (base mismatch or corrupt target)."""


@dataclass(frozen=True, slots=True)
class IndexDelta:
    """The difference between two index versions, as canonical payloads."""

    base_version: str
    target_version: str
    #: kind -> {key: canonical record payload} for added/changed records.
    upserts: dict = field(default_factory=dict)
    #: kind -> sorted keys present in base but absent from target.
    removals: dict = field(default_factory=dict)

    @property
    def empty(self) -> bool:
        return self.upsert_count == 0 and self.removal_count == 0

    @property
    def upsert_count(self) -> int:
        return sum(len(self.upserts.get(kind, {})) for kind in _KINDS)

    @property
    def removal_count(self) -> int:
        return sum(len(self.removals.get(kind, ())) for kind in _KINDS)

    def counts(self) -> dict[str, dict[str, int]]:
        return {
            kind: {
                "upserts": len(self.upserts.get(kind, {})),
                "removals": len(self.removals.get(kind, ())),
            }
            for kind in _KINDS
        }


def compute_index_delta(old: IntelIndex, new: IntelIndex) -> IndexDelta:
    """Payload-level diff ``old -> new`` (pure; order-insensitive)."""
    upserts: dict[str, dict] = {}
    removals: dict[str, list[str]] = {}
    for kind in _KINDS:
        old_map = getattr(old, kind)
        new_map = getattr(new, kind)
        kind_upserts: dict[str, dict] = {}
        for key in sorted(new_map):
            record = new_map[key]
            previous = old_map.get(key)
            if previous is record:
                continue
            payload = record.to_payload()
            if previous is None or previous.to_payload() != payload:
                kind_upserts[key] = payload
        kind_removals = sorted(k for k in old_map if k not in new_map)
        if kind_upserts:
            upserts[kind] = kind_upserts
        if kind_removals:
            removals[kind] = kind_removals
    return IndexDelta(
        base_version=old.version,
        target_version=new.version,
        upserts=upserts,
        removals=removals,
    )


def apply_index_delta(base: IntelIndex, delta: IndexDelta) -> IntelIndex:
    """Replay ``delta`` onto ``base``; refuses mismatched bases and
    verifies the rebuilt content hash against the delta's target."""
    if base.version != delta.base_version:
        raise IndexDeltaError(
            f"delta expects base {delta.base_version}, "
            f"but the published index is {base.version}"
        )
    records: dict[str, dict] = {}
    fragments: dict[str, dict[str, bytes]] = {}
    for kind in _KINDS:
        codec = _CODECS[kind]
        upserts = delta.upserts.get(kind, {})
        records[kind] = {key: codec.from_payload(p) for key, p in upserts.items()}
        fragments[kind] = {key: encode_entry(key, p) for key, p in upserts.items()}
    rebuilt = base.with_changes(
        upserts=records, removals=delta.removals, fragments=fragments
    )
    if rebuilt.version != delta.target_version:
        raise IndexDeltaError(
            f"applied delta produced version {rebuilt.version}, "
            f"expected {delta.target_version} (corrupt delta?)"
        )
    return rebuilt


@dataclass(frozen=True, slots=True)
class PublishReceipt:
    """What one publish call did."""

    version: str
    mode: str  # "full" | "delta" | "noop"
    upserts: int = 0
    removals: int = 0
    watermark_ts: int | None = None


class StreamPublisher:
    """Applies versioned deltas atomically to every configured sink.

    Sinks are all optional: an on-disk ``path`` (atomic replace), an
    in-process :class:`~repro.serve.query.QueryEngine` (``swap_index``)
    and/or a serve-plane handler exposing ``load_index``.  The first
    publish is a full load; every subsequent one is computed, verified,
    and applied as a delta — the serve plane always receives the
    delta-*applied* object, so a delta bug can never ship silently.
    """

    def __init__(
        self,
        path=None,
        obs=None,
        engine=None,
        handler=None,
        health=None,
        staleness_bound_s: float = 30.0,
        clock=time.time,
    ) -> None:
        if obs is None:
            from repro.obs import Observability

            obs = Observability.disabled()
        self.path = path
        self.obs = obs
        self.engine = engine
        self.handler = handler
        self.health = health
        self.staleness_bound_s = staleness_bound_s
        self.clock = clock
        self.published: IntelIndex | None = None
        self.published_at: float | None = None
        self.publishes = 0
        self.last_delta: IndexDelta | None = None

    def publish(
        self,
        index: IntelIndex,
        watermark_ts: int | None = None,
        tick: int | None = None,
    ) -> PublishReceipt:
        """Make ``index`` the served truth (file + hot-reload), by delta
        when a previous version is live.  ``tick`` (the stream tick the
        index is current through) is stamped on the span and event next
        to the version and watermark, so a served version walks back to
        the tick that produced it."""
        with self.obs.span(
            "stream.publish",
            version=index.version,
            tick=tick,
            watermark_ts=watermark_ts,
        ):
            if self.published is None:
                receipt = self._publish_full(index, watermark_ts, tick)
            else:
                receipt = self._publish_delta(index, watermark_ts, tick)
        self.published_at = self.clock()
        self._observe_staleness(0.0)
        return receipt

    def _publish_full(self, index, watermark_ts, tick) -> PublishReceipt:
        self._install(index)
        self._count_publish("full")
        self.obs.event(
            "stream.published",
            version=index.version,
            mode="full",
            records=len(index),
            watermark_ts=watermark_ts,
            tick=tick,
        )
        return PublishReceipt(
            version=index.version, mode="full", watermark_ts=watermark_ts
        )

    def _publish_delta(self, index, watermark_ts, tick) -> PublishReceipt:
        # A stream tick that changed nothing hands back the served index.
        unchanged = index is self.published
        delta = None if unchanged else compute_index_delta(self.published, index)
        if unchanged or delta.empty:
            self._count_publish("noop")
            return PublishReceipt(
                version=self.published.version, mode="noop",
                watermark_ts=watermark_ts,
            )
        # Serve the delta-applied object: apply_index_delta verifies the
        # target content hash, so a diff/apply bug fails loudly here
        # instead of shipping a divergent index.
        applied = apply_index_delta(self.published, delta)
        self.last_delta = delta
        self._install(applied)
        self._count_publish("delta")
        for kind, ops in delta.counts().items():
            for op, count in ops.items():
                if count:
                    self.obs.metrics.counter(
                        "daas_stream_delta_entries_total",
                        help_text="Index-delta records applied, by kind and op.",
                        kind=kind,
                        op=op,
                    ).inc(count)
        self.obs.event(
            "stream.published",
            version=applied.version,
            mode="delta",
            base=delta.base_version,
            upserts=delta.upsert_count,
            removals=delta.removal_count,
            watermark_ts=watermark_ts,
            tick=tick,
        )
        return PublishReceipt(
            version=applied.version,
            mode="delta",
            upserts=delta.upsert_count,
            removals=delta.removal_count,
            watermark_ts=watermark_ts,
        )

    def _install(self, index: IntelIndex) -> None:
        if self.path is not None:
            atomic_write_bytes(self.path, index.to_bytes())
        if self.engine is not None:
            self.engine.swap_index(index)
        if self.handler is not None:
            self.handler.load_index(index)
        self.published = index
        self.publishes += 1

    def _count_publish(self, mode: str) -> None:
        self.obs.metrics.counter(
            "daas_stream_publishes_total",
            help_text="Stream index publications, by mode.",
            mode=mode,
        ).inc()

    # -- freshness -----------------------------------------------------------

    def staleness(self, now: float | None = None) -> float:
        """Seconds since the last publish (inf before the first one)."""
        if self.published_at is None:
            return float("inf")
        return max(0.0, (now if now is not None else self.clock()) - self.published_at)

    def check_staleness(self, now: float | None = None) -> float:
        """Gauge the current staleness and trip/clear health on the bound."""
        age = self.staleness(now)
        self._observe_staleness(age)
        return age

    def _observe_staleness(self, age: float) -> None:
        self.obs.metrics.gauge(
            "daas_stream_staleness_seconds",
            help_text="Age of the published stream index.",
        ).set(round(age, 6) if age != float("inf") else -1.0)
        if self.health is None or not self.staleness_bound_s:
            return
        if age > self.staleness_bound_s:
            if self.health.degrade(STALE_REASON):
                self.obs.event(
                    "stream.stale",
                    level="warning",
                    staleness_s=round(age, 3) if age != float("inf") else None,
                    bound_s=self.staleness_bound_s,
                )
        elif self.health.recover(STALE_REASON):
            self.obs.event("stream.recovered", staleness_s=round(age, 3))
