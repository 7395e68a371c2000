"""The streaming plane's one invariant: batching must not matter.

After any sequence of ticks ending at watermark ``W``, the bytes the
stream *published* must equal a cold, from-scratch rebuild at ``W``
(:func:`repro.stream.batch_rebuild` — full-history expansion, BFS
components, one-pass site confirmation, whole-dataset ``build_index``;
nothing shared with the incremental code paths beyond the admission
rule and the per-record functions).

The tier-1 matrix drives the first ``_PREFIX_BLOCKS`` blocks through
every delta batch size in {1, 7, 64} plus shuffled (randomly sized)
arrival plans, all ending at the same watermark, with a file-sink
publisher publishing every tick — so every intermediate delta is
applied and verified on the way; the ``stream_soak`` variant
(``pytest --run-soak``) runs the same matrix over the session world's
*full* backlog, CT tail included.  :class:`TestPublishedBytesPerTick`
checks every tick's published file against a from-scratch
``build_index`` of the same state.
"""

from __future__ import annotations

import random

import pytest

from repro.serve.index import build_index
from repro.stream import (
    StreamPipeline,
    StreamPublisher,
    batch_rebuild,
    derive_clustering,
)

#: lcm-friendly prefix (divisible by every fixed batch size), chosen
#: deep enough that the watermark has released CT entries — the matrix
#: exercises the chain *and* web halves of the incremental state.
_PREFIX_BLOCKS = 2240
_BATCH_SIZES = (1, 7, 64)
_SHUFFLE_SEEDS = (11, 23, 47)


def _plan_fixed(total: int, batch: int) -> list[int]:
    plan = [batch] * (total // batch)
    if total % batch:
        plan.append(total % batch)
    return plan


def _plan_shuffled(total: int, seed: int) -> list[int]:
    """A random partition of ``total`` blocks into tick-sized deltas."""
    rng = random.Random(seed)
    plan: list[int] = []
    remaining = total
    while remaining:
        size = min(remaining, rng.randint(1, 16))
        plan.append(size)
        remaining -= size
    return plan


def _drive(pipe: StreamPipeline, plan: list[int]) -> None:
    for size in plan:
        pipe.delta_batch = size
        assert pipe.tick() is not None


def _drain(pipe: StreamPipeline) -> None:
    while pipe.tick() is not None:
        pass


def _publish_plan(pipe: StreamPipeline, plan: list[int], every: int = 1) -> bytes:
    """Tick through ``plan``, publishing every ``every`` ticks and once
    after the last; returns the published file's bytes."""
    for n, size in enumerate(plan, 1):
        pipe.delta_batch = size
        assert pipe.tick() is not None
        if n % every == 0:
            pipe.publish()
    if len(plan) % every:
        pipe.publish()
    return pipe.publisher.path.read_bytes()


@pytest.fixture()
def publishing(make_pipeline, tmp_path):
    """Pipelines publishing to a fresh index file."""

    def _make(**kwargs) -> StreamPipeline:
        return make_pipeline(
            publisher=StreamPublisher(path=tmp_path / "intel.json"), **kwargs
        )

    return _make


class TestParityMatrix:
    """{1, 7, 64} × shuffled arrival plans, all pinned at one watermark."""

    @pytest.fixture(scope="class")
    def oracle(self, world, stream_ctx, web_world, web_db):
        """Cold rebuild at the prefix watermark, computed once."""
        analyzer, seeds = stream_ctx
        probe = StreamPipeline(
            world, analyzer, seeds, web=web_world, db=web_db
        )
        _drive(probe, _plan_fixed(_PREFIX_BLOCKS, 64))
        cold = batch_rebuild(
            world, analyzer, seeds, web=web_world, db=web_db,
            watermark_ts=probe.watermark_ts,
        )
        return probe.watermark_ts, cold

    @pytest.mark.parametrize("batch", _BATCH_SIZES)
    def test_fixed_batch_sizes(self, publishing, oracle, batch):
        watermark_ts, cold = oracle
        pipe = publishing()
        published = _publish_plan(pipe, _plan_fixed(_PREFIX_BLOCKS, batch))
        assert pipe.watermark_ts == watermark_ts
        assert published == cold.to_bytes()

    @pytest.mark.parametrize("seed", _SHUFFLE_SEEDS)
    def test_shuffled_arrival_plans(self, publishing, oracle, seed):
        watermark_ts, cold = oracle
        pipe = publishing()
        published = _publish_plan(pipe, _plan_shuffled(_PREFIX_BLOCKS, seed))
        assert pipe.watermark_ts == watermark_ts
        assert published == cold.to_bytes()

    def test_publish_every_third_tick(self, publishing, oracle):
        """Deltas spanning several ticks' dirty keys land on the same bytes."""
        watermark_ts, cold = oracle
        pipe = publishing()
        published = _publish_plan(pipe, _plan_shuffled(_PREFIX_BLOCKS, 5), every=3)
        assert pipe.watermark_ts == watermark_ts
        assert published == cold.to_bytes()

    def test_signal_free_publication(
        self, publishing, oracle, world, stream_ctx, web_world, web_db
    ):
        watermark_ts, _ = oracle
        analyzer, seeds = stream_ctx
        pipe = publishing(signals=False)
        published = _publish_plan(pipe, _plan_fixed(_PREFIX_BLOCKS, 64))
        cold = batch_rebuild(
            world, analyzer, seeds, web=web_world, db=web_db,
            signals=False, watermark_ts=watermark_ts,
        )
        assert published == cold.to_bytes()


class TestPublishedBytesPerTick:
    def test_every_publish_equals_a_full_rebuild_of_its_state(
        self, publishing, stream_ctx
    ):
        """After every tick, the published file equals ``build_index``
        over the state re-derived whole — the full rebuild survives as
        this verifier of the per-key deriver."""
        analyzer, _ = stream_ctx
        pipe = publishing()
        modes = set()
        for size in _plan_fixed(_PREFIX_BLOCKS, 64):
            pipe.delta_batch = size
            assert pipe.tick() is not None
            modes.add(pipe.publish().mode)
            dataset = pipe.expander.derive_dataset()
            clustering = derive_clustering(
                dataset, pipe.families.components(), analyzer.explorer
            )
            full = build_index(
                dataset, clustering=clustering, site_reports=list(pipe.site_reports)
            )
            assert pipe.publisher.path.read_bytes() == full.to_bytes()
        assert {"full", "delta"} <= modes


class TestFullDrainParity:
    def test_three_delta_smoke(self, make_pipeline, world, stream_ctx):
        """The fast tier-1 smoke: three deltas, no web half."""
        analyzer, seeds = stream_ctx
        pipe = make_pipeline(web=False, delta_batch=16)
        for _ in range(3):
            assert pipe.tick() is not None
        cold = batch_rebuild(
            world, analyzer, seeds, watermark_ts=pipe.watermark_ts
        )
        assert pipe.build_index_at().to_bytes() == cold.to_bytes()

    def test_full_drain_with_ct_tail(
        self, make_pipeline, world, stream_ctx, web_world, web_db
    ):
        """Draining the whole backlog — including the CT entries issued
        after the final block, flushed by the tail tick — matches the
        default (fully drained) cold rebuild."""
        analyzer, seeds = stream_ctx
        pipe = make_pipeline(delta_batch=64)
        _drain(pipe)
        assert pipe.source.drained(pipe.cursor)
        cold = batch_rebuild(
            world, analyzer, seeds, web=web_world, db=web_db
        )
        assert pipe.build_index_at().to_bytes() == cold.to_bytes()

    def test_signals_flag_propagates(self, publishing, world, stream_ctx):
        analyzer, seeds = stream_ctx
        pipe = publishing(web=False, delta_batch=512, signals=False)
        while pipe.tick() is not None:
            pipe.publish()
        cold = batch_rebuild(world, analyzer, seeds, signals=False)
        assert pipe.publisher.path.read_bytes() == cold.to_bytes()
        index = pipe.build_index_at()
        assert all(not i.signals for i in index.addresses.values())


@pytest.mark.stream_soak
class TestFullScaleSoak:
    """The full-backlog matrix: every batch size and shuffle plan,
    publishing every tick, must land on the fully drained oracle, web
    half included."""

    @pytest.fixture(scope="class")
    def full_oracle(self, world, stream_ctx, web_world, web_db):
        analyzer, seeds = stream_ctx
        return batch_rebuild(
            world, analyzer, seeds, web=web_world, db=web_db
        )

    @staticmethod
    def _drain_publishing(pipe: StreamPipeline, sizes) -> bytes:
        while True:
            pipe.delta_batch = next(sizes)
            if pipe.tick() is None:
                break
            pipe.publish()
        return pipe.publisher.path.read_bytes()

    @pytest.mark.parametrize("batch", _BATCH_SIZES)
    def test_fixed_batch_sizes(self, publishing, full_oracle, batch):
        published = self._drain_publishing(publishing(), iter(lambda: batch, None))
        assert published == full_oracle.to_bytes()

    @pytest.mark.parametrize("seed", _SHUFFLE_SEEDS)
    def test_shuffled_arrival_plans(self, publishing, full_oracle, seed):
        rng = random.Random(seed)
        sizes = iter(lambda: rng.randint(1, 16), None)
        published = self._drain_publishing(publishing(), sizes)
        assert published == full_oracle.to_bytes()
