"""Each workload's output check accepts the program's output and rejects
a tampered index."""

from __future__ import annotations

import dataclasses

import pytest

from batch_build import differing_versions
from loadgen import Request, encode_get
from serve_wallet import hot_set, make_plan, mismatched_bodies
from stream_live import matches_rebuild


@pytest.fixture(scope="module")
def small():
    from repro.api import PipelineConfig, run_pipeline
    from repro.simulation import SimulationParams, build_world

    world = build_world(SimulationParams(scale=0.02, seed=3))
    index = run_pipeline(PipelineConfig(world=world)).build_intel_index()
    return world, index


def _tampered(index):
    from repro.serve import IntelIndex

    key = sorted(index.addresses)[0]
    addresses = dict(index.addresses)
    record = addresses[key]
    addresses[key] = dataclasses.replace(record, profit_usd=record.profit_usd + 1.0)
    return IntelIndex(addresses=addresses, domains=index.domains,
                      families=index.families), key


def test_batch_build_rejects_a_differing_index(small):
    _, index = small
    tampered, _ = _tampered(index)
    assert differing_versions([index.version] * 3, index.version) == 0
    assert differing_versions([index.version, tampered.version], index.version) == 1


def test_serve_wallet_rejects_bodies_from_a_tampered_index(small):
    from repro.serve import IntelHandlerCore

    _, index = small
    tampered, key = _tampered(index)
    addresses = sorted(index.addresses)
    plan = make_plan(addresses, hot_set(index), 5, "t", 40)
    target = f"/v1/address/{key}"
    plan.append(Request("address", target, encode_get(target, "k"), request_id="k"))
    served = IntelHandlerCore(index=tampered, max_batch=4096)
    bodies = {
        i: served.handle("POST" if r.kind == "screen" else "GET", r.target,
                         body=r.body).body
        for i, r in enumerate(plan)
    }
    assert mismatched_bodies(tampered, plan, bodies) == 0
    assert mismatched_bodies(index, plan, bodies) >= 1


def test_stream_live_rejects_a_tampered_publish(small):
    from repro.core import ContractAnalyzer, SeedBuilder
    from repro.runtime import ExecutionEngine
    from repro.serve import IntelIndex
    from repro.stream import StreamPipeline

    world, _ = small
    analyzer = ContractAnalyzer(world.rpc, world.explorer, world.oracle,
                                engine=ExecutionEngine())
    seeds, _ = SeedBuilder(analyzer, world.feeds).build()
    pipeline = StreamPipeline(world, analyzer, seeds, delta_batch=256)
    for _ in range(3):
        pipeline.tick()
    published = pipeline.build_index_at().to_bytes()
    assert matches_rebuild(world, published, pipeline.watermark_ts)
    tampered, _ = _tampered(IntelIndex.from_bytes(published))
    assert not matches_rebuild(world, tampered.to_bytes(), pipeline.watermark_ts)
