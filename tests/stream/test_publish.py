"""Index deltas and the bounded-staleness publisher."""

from __future__ import annotations

import pytest

from repro.obs import Observability
from repro.obs.live import RunStatus
from repro.serve import IntelIndex, QueryEngine
from repro.serve.index import AddressIntel, DomainIntel, FamilyRecord
from repro.stream import (
    IndexDeltaError,
    StreamPublisher,
    apply_index_delta,
    compute_index_delta,
)
from repro.stream.publish import STALE_REASON


def _intel(address: str, family: str = "fam-a", tx_count: int = 1) -> AddressIntel:
    return AddressIntel(
        address=address, role="contract", family=family, tx_count=tx_count
    )


def _index(n: int = 3, family: str = "fam-a", domains: int = 1) -> IntelIndex:
    return IntelIndex(
        addresses={f"0x{i:03d}": _intel(f"0x{i:03d}", family) for i in range(n)},
        domains={
            f"wallet-{i}.app": DomainIntel(domain=f"wallet-{i}.app", verdict="phishing")
            for i in range(domains)
        },
        families={family: FamilyRecord(name=family, contract_count=n)},
    )


class _FakeClock:
    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


class TestIndexDelta:
    def test_roundtrip_hits_target_version(self):
        old, new = _index(3), _index(5, domains=2)
        delta = compute_index_delta(old, new)
        applied = apply_index_delta(old, delta)
        assert applied.version == new.version
        assert applied.to_bytes() == new.to_bytes()

    def test_delta_covers_upserts_changes_and_removals(self):
        old = _index(4)
        new = IntelIndex(
            addresses={
                "0x000": _intel("0x000"),            # unchanged
                "0x001": _intel("0x001", tx_count=9),  # changed
                "0x005": _intel("0x005"),            # added
            },
            domains=dict(old.domains),
            families=dict(old.families),
        )
        delta = compute_index_delta(old, new)
        assert set(delta.upserts["addresses"]) == {"0x001", "0x005"}
        assert delta.removals["addresses"] == ["0x002", "0x003"]
        assert apply_index_delta(old, delta).to_bytes() == new.to_bytes()

    def test_identical_indexes_produce_empty_delta(self):
        delta = compute_index_delta(_index(3), _index(3))
        assert delta.empty
        assert delta.base_version == delta.target_version

    def test_apply_refuses_wrong_base(self):
        old, new = _index(3), _index(5)
        delta = compute_index_delta(old, new)
        with pytest.raises(IndexDeltaError, match="expects base"):
            apply_index_delta(_index(4), delta)

    def test_apply_detects_corrupt_delta(self):
        old, new = _index(3), _index(5)
        delta = compute_index_delta(old, new)
        delta.upserts["addresses"]["0x004"]["tx_count"] = 999
        with pytest.raises(IndexDeltaError, match="corrupt"):
            apply_index_delta(old, delta)


class TestStreamPublisher:
    def test_full_then_delta_then_noop(self, tmp_path):
        path = tmp_path / "intel.json"
        engine = QueryEngine(IntelIndex())
        obs = Observability(run_id="pub")
        publisher = StreamPublisher(path=path, obs=obs, engine=engine)

        first = publisher.publish(_index(3), watermark_ts=100, tick=1)
        assert first.mode == "full"
        # Two new addresses plus the changed family record.
        second = publisher.publish(_index(5), watermark_ts=200, tick=2)
        assert second.mode == "delta" and second.upserts == 3
        third = publisher.publish(_index(5), watermark_ts=300, tick=3)
        assert third.mode == "noop"
        # Handing back the served index itself is a noop without a diff.
        fourth = publisher.publish(publisher.published, watermark_ts=400, tick=4)
        assert fourth.mode == "noop"

        # Every sink converged on the delta-applied object.
        assert engine.index_version == _index(5).version
        assert IntelIndex.load(path).version == _index(5).version
        published = [e for e in obs.log.events if e["event"] == "stream.published"]
        assert [(e["mode"], e["tick"]) for e in published] == [("full", 1), ("delta", 2)]
        spans = [s for s in obs.tracer.finished if s.name == "stream.publish"]
        assert [(s.attrs["tick"], s.attrs["watermark_ts"]) for s in spans] == [
            (1, 100), (2, 200), (3, 300), (4, 400)
        ]

    def test_delta_metrics_count_kinds_and_ops(self):
        obs = Observability(run_id="pub-m")
        publisher = StreamPublisher(obs=obs)
        publisher.publish(_index(4, domains=2))
        publisher.publish(_index(2, domains=1))
        assert obs.metrics.value(
            "daas_stream_delta_entries_total", kind="addresses", op="removals"
        ) == 2
        assert obs.metrics.value(
            "daas_stream_delta_entries_total", kind="domains", op="removals"
        ) == 1
        assert obs.metrics.value(
            "daas_stream_publishes_total", mode="delta"
        ) == 1


class TestStaleness:
    def _make(self, bound: float = 30.0):
        clock = _FakeClock()
        obs = Observability(run_id="stale")
        health = RunStatus(run_id="stale", clock=clock)
        publisher = StreamPublisher(
            obs=obs, health=health, staleness_bound_s=bound, clock=clock
        )
        return clock, obs, health, publisher

    def test_unpublished_gauge_is_sentinel(self):
        clock, obs, health, publisher = self._make()
        assert publisher.staleness() == float("inf")
        publisher.check_staleness()
        assert obs.metrics.value("daas_stream_staleness_seconds") == -1.0
        # inf exceeds any bound: a stream that never published is stale.
        assert health.state == "degraded"

    def test_bound_trips_and_recovers_health(self):
        clock, obs, health, publisher = self._make(bound=30.0)
        publisher.publish(_index(3))
        assert health.state == "ok"

        clock.now += 31.0
        age = publisher.check_staleness()
        assert age == pytest.approx(31.0)
        assert health.state == "degraded"
        assert health.degraded_reasons() == [STALE_REASON]
        warnings = [e for e in obs.log.events if e["event"] == "stream.stale"]
        assert len(warnings) == 1 and warnings[0]["level"] == "warning"

        # Repeated checks while stale do not re-fire the event.
        clock.now += 10.0
        publisher.check_staleness()
        assert len(
            [e for e in obs.log.events if e["event"] == "stream.stale"]
        ) == 1

        publisher.publish(_index(5))
        assert health.state == "ok"
        assert obs.metrics.value("daas_stream_staleness_seconds") == 0.0
        assert any(e["event"] == "stream.recovered" for e in obs.log.events)

    def test_zero_bound_disables_health_wiring(self):
        clock, obs, health, publisher = self._make(bound=0.0)
        publisher.publish(_index(3))
        clock.now += 10_000.0
        publisher.check_staleness()
        assert health.state == "ok"
