"""StreamPipeline behaviour: resume parity, cadence, loud drops, guards."""

from __future__ import annotations

import pytest

from repro.core.pipeline import ContractAnalyzer
from repro.obs import Observability
from repro.runtime import CheckpointManager, ExecutionEngine
from repro.stream import StreamPipeline, StreamPublisher
from repro.webdetect.streaming import StreamingSiteDetector


def _observed_analyzer(world, obs: Observability) -> ContractAnalyzer:
    """A fresh analyzer whose engine carries a recording ``obs``."""
    return ContractAnalyzer(
        world.rpc, world.explorer, world.oracle, engine=ExecutionEngine(obs=obs)
    )


class TestCheckpointResume:
    def test_resume_is_byte_equivalent_to_uninterrupted(
        self, world, stream_ctx, web_world, web_db, tmp_path
    ):
        """Kill after 6 ticks, rehydrate a fresh pipeline from the
        checkpoint, finish — the index must match an uninterrupted run."""
        analyzer, seeds = stream_ctx
        manager = CheckpointManager(tmp_path / "ck.json")

        first = StreamPipeline(
            world, analyzer, seeds, web=web_world, db=web_db,
            checkpoint=manager, delta_batch=32,
        )
        for _ in range(6):
            first.tick()
        first.save_checkpoint()

        resumed = StreamPipeline(
            world, analyzer, seeds, web=web_world, db=web_db,
            checkpoint=manager, delta_batch=32,
        )
        assert resumed.restore(manager.load()) is True
        assert resumed.ticks == 6
        assert resumed.cursor == first.cursor
        for _ in range(6):
            resumed.tick()

        control = StreamPipeline(
            world, analyzer, seeds, web=web_world, db=web_db, delta_batch=32
        )
        for _ in range(12):
            control.tick()
        assert resumed.watermark_ts == control.watermark_ts
        assert (
            resumed.build_index_at().to_bytes()
            == control.build_index_at().to_bytes()
        )

    def test_restore_then_incremental_publish_matches(
        self, world, stream_ctx, web_world, web_db, tmp_path
    ):
        """A restored pipeline rebuilds its derived caches on its first
        publish (every key dirty), then publishes per-tick deltas that
        land on the uninterrupted run's bytes."""
        analyzer, seeds = stream_ctx
        manager = CheckpointManager(tmp_path / "ck.json")

        def make(name, **kwargs):
            return StreamPipeline(
                world, analyzer, seeds, web=web_world, db=web_db, delta_batch=16,
                publisher=StreamPublisher(path=tmp_path / name), **kwargs,
            )

        first = make("first.json", checkpoint=manager)
        for _ in range(5):
            first.tick()
            first.publish()
        first.save_checkpoint()

        resumed = make("resumed.json", checkpoint=manager)
        assert resumed.restore(manager.load()) is True
        control = make("control.json")
        for _ in range(5):
            control.tick()
            control.publish()
        modes = []
        for _ in range(8):
            resumed.tick()
            control.tick()
            modes.append(resumed.publish().mode)
            control.publish()
            assert (tmp_path / "resumed.json").read_bytes() == (
                tmp_path / "control.json"
            ).read_bytes()
        assert modes[0] == "full" and "delta" in modes[1:]

    def test_restore_rejects_other_stages(self, make_pipeline):
        pipe = make_pipeline(web=False)
        assert pipe.restore({"stage": "snowball"}) is False
        assert pipe.ticks == 0


class TestRunLoop:
    def test_run_publishes_on_cadence_and_at_the_end(self, make_pipeline):
        publisher = StreamPublisher()
        pipe = make_pipeline(web=False, publisher=publisher, delta_batch=64)
        summary = pipe.run(max_ticks=7, publish_every=3)
        assert summary.ticks == 7
        # Ticks 3 and 6 on cadence, plus the final catch-up publish.
        assert summary.publishes == 3
        assert publisher.published is not None
        assert summary.final_version == publisher.published.version
        assert summary.final_version == pipe.build_index_at().version

    def test_drain_stops_and_reports_totals(self, make_pipeline, world):
        pipe = make_pipeline(web=False, delta_batch=512)
        summary = pipe.run()
        assert pipe.source.drained(pipe.cursor)
        assert summary.blocks == len(world.chain.blocks)
        assert summary.txs == sum(
            len(b.transactions) for b in world.chain.blocks.values()
        )
        assert pipe.tick() is None  # drained streams stay drained

    def test_tick_metrics_accumulate(self, world, stream_ctx):
        _, seeds = stream_ctx
        obs = Observability(run_id="tick-m")
        pipe = StreamPipeline(
            world, _observed_analyzer(world, obs), seeds, delta_batch=16
        )
        for _ in range(4):
            pipe.tick()
        assert obs.metrics.value("daas_stream_ticks_total") == 4
        assert obs.metrics.value("daas_stream_blocks_total") == 64
        assert obs.metrics.value("daas_stream_watermark_ts") == pipe.watermark_ts
        spans = {s.name for s in obs.tracer.finished}
        assert {"stream.tick", "stream.expand", "stream.cluster"} <= spans


class TestGuards:
    def test_web_without_db_is_rejected(self, world, stream_ctx, web_world):
        analyzer, seeds = stream_ctx
        with pytest.raises(ValueError, match="FingerprintDB"):
            StreamPipeline(world, analyzer, seeds, web=web_world)

    def test_min_ps_txs_guard(self, world, stream_ctx):
        _, seeds = stream_ctx
        strict = ContractAnalyzer(
            world.rpc, world.explorer, world.oracle, min_ps_txs=2
        )
        with pytest.raises(ValueError, match="min_ps_txs"):
            StreamPipeline(world, strict, seeds)

    def test_watermark_cannot_move_backwards(self, make_pipeline):
        pipe = make_pipeline(web=False, delta_batch=8)
        pipe.tick()
        with pytest.raises(ValueError, match="backwards"):
            pipe.expander.advance(pipe.watermark_ts - 1)


class TestLoudDrops:
    def test_stream_review_queue_abandons_loudly(self, world, stream_ctx, web_world, web_db):
        """Overflowing the bounded review queue must emit the abandonment
        event and count the drop — never silently discard a candidate."""
        _, seeds = stream_ctx
        obs = Observability(run_id="drops")
        pipe = StreamPipeline(
            world,
            _observed_analyzer(world, obs),
            seeds,
            web=web_world,
            db=web_db,
            delta_batch=256,
            max_review_queue=1,
        )
        while pipe.tick() is not None:
            pass
        abandoned = [
            e for e in obs.log.events if e["event"] == "stream.entry_abandoned"
        ]
        assert abandoned, "expected review-queue overflow on the full backlog"
        assert all(e["queue"] == "stream" for e in abandoned)
        assert all(e["level"] == "warning" for e in abandoned)
        assert obs.metrics.value(
            "daas_stream_entries_abandoned_total", queue="stream"
        ) == len(abandoned)
        assert len(pipe._review) == 1

    def test_webdetect_retry_queue_abandons_loudly(self, web_world, web_db):
        obs = Observability(run_id="drops-web")
        detector = StreamingSiteDetector(
            web_world, web_db, max_retry_queue=1, obs=obs
        )
        _, stats = detector.run()
        abandoned = [
            e for e in obs.log.events if e["event"] == "stream.entry_abandoned"
        ]
        assert stats.retry_evictions > 0
        assert len(abandoned) == stats.retry_evictions
        assert all(e["queue"] == "webdetect" for e in abandoned)
        assert obs.metrics.value(
            "daas_stream_entries_abandoned_total", queue="webdetect"
        ) == stats.retry_evictions


class TestEmptyWorldEdge:
    def test_pipeline_without_entries_never_opens_webdetect_span(
        self, world, stream_ctx
    ):
        _, seeds = stream_ctx
        obs = Observability(run_id="no-web")
        pipe = StreamPipeline(
            world, _observed_analyzer(world, obs), seeds, delta_batch=32
        )
        pipe.tick()
        assert "stream.webdetect" not in {s.name for s in obs.tracer.finished}

    def test_ct_only_tail_tick(self, world, stream_ctx, web_world, web_db):
        """A pipeline whose chain is drained still flushes remaining CT
        entries in one final block-less tick."""
        analyzer, seeds = stream_ctx
        pipe = StreamPipeline(
            world, analyzer, seeds, web=web_world, db=web_db, delta_batch=10**9
        )
        first = pipe.tick()
        assert first.blocks == len(world.chain.blocks)
        tail = pipe.tick()
        if tail is not None:  # only when the CT log outlives the chain
            assert tail.blocks == 0 and tail.entries > 0
        assert pipe.tick() is None


class TestIncrementalPublish:
    """Publish cost follows the delta: a clean tick derives nothing."""

    @pytest.fixture()
    def observed(self, world, stream_ctx, tmp_path):
        _, seeds = stream_ctx
        obs = Observability(run_id="incremental")
        clock = _Clock()
        publisher = StreamPublisher(path=tmp_path / "intel.json", obs=obs, clock=clock)
        pipe = StreamPipeline(
            world, _observed_analyzer(world, obs), seeds,
            publisher=publisher, delta_batch=1,
        )
        pipe.tick()
        assert pipe.publish().mode == "full"
        return pipe, obs, clock

    @staticmethod
    def _rederived(obs) -> float:
        return sum(
            obs.metrics.value("daas_stream_rederived_total", kind=kind) or 0
            for kind in ("addresses", "domains", "families")
        )

    def test_clean_tick_publishes_noop_and_refreshes_staleness(self, observed):
        pipe, obs, clock = observed
        while True:
            assert pipe.tick() is not None
            if pipe.deriver.clean:
                break
            pipe.publish()
        served = pipe.publisher.published
        clock.now += 12.0
        assert pipe.publisher.check_staleness() == pytest.approx(12.0)
        derives = sum(1 for s in obs.tracer.finished if s.name == "stream.derive")
        before = self._rederived(obs)
        noops = obs.metrics.value("daas_stream_publishes_total", mode="noop") or 0

        receipt = pipe.publish()
        assert receipt.mode == "noop"
        assert receipt.version == served.version
        assert pipe.publisher.published is served
        assert self._rederived(obs) == before
        assert sum(1 for s in obs.tracer.finished if s.name == "stream.derive") == derives
        assert obs.metrics.value("daas_stream_staleness_seconds") == 0.0
        assert obs.metrics.value("daas_stream_publishes_total", mode="noop") == noops + 1

    def test_one_contract_delta_rederives_few_records(self, observed):
        pipe, obs, _ = observed
        while True:
            assert pipe.tick() is not None
            if len(pipe.deriver._dirty) == 1 and pipe.deriver._new_sites == []:
                break
            pipe.publish()
        before = obs.metrics.value("daas_stream_rederived_total", kind="addresses") or 0
        receipt = pipe.publish()
        added = obs.metrics.value("daas_stream_rederived_total", kind="addresses") - before
        assert receipt.mode == "delta"
        assert 0 < added <= len(pipe.publisher.published) // 4
        published = [e for e in obs.log.events if e["event"] == "stream.published"]
        assert published[-1]["tick"] == pipe.ticks
        span = [s for s in obs.tracer.finished if s.name == "stream.publish"][-1]
        assert span.attrs["tick"] == pipe.ticks
        assert span.attrs["watermark_ts"] == pipe.watermark_ts


class _Clock:
    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now
