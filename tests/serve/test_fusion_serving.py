"""Fusion through the serving layer: persistence, schema, byte-compat.

Covers the ISSUE acceptance paths: stage signals persist inside the
content-hash-versioned index and survive a save/load round trip, fused
indexes are byte-identical across serial / parallel / process-sharded
pipeline builds, ``/v1`` responses carry ``schema_version`` exactly
when a verdict is fused, and signal-free indexes (and the responses
served from them) keep the pre-fusion payload shape byte-for-byte —
cache and ETag behavior included.
"""

from __future__ import annotations

import json

import pytest

from repro.api import PipelineConfig, run_pipeline
from repro.obs import Observability
from repro.serve import (
    SCREEN_SCHEMA_VERSION,
    AsyncIntelServer,
    IntelIndex,
    QueryEngine,
    build_index,
)
from tests.serve.test_server import get, post

#: The exact pre-fusion payload shapes — the byte-compat contract.
LEGACY_ADDRESS_KEYS = [
    "address", "role", "family", "ratio_bps", "profit_usd", "tx_count",
    "first_seen_ts", "last_seen_ts", "stage", "source", "victim_count",
    "operators", "affiliates", "contracts", "evidence",
]
LEGACY_VERDICT_KEYS = ["address", "flagged", "risk", "role", "family", "reasons"]


@pytest.fixture(scope="module")
def plain_index(pipeline):
    """The pre-fusion index shape: same inputs, no stage signals."""
    return build_index(
        pipeline.dataset,
        clustering=pipeline.clustering,
        victim_report=pipeline.victim_report,
        signals=False,
    )


@pytest.fixture(scope="module")
def an_operator(pipeline) -> str:
    return sorted(pipeline.dataset.operators)[0]


class TestSignalPersistence:
    def test_pipeline_index_carries_signals(self, pipeline, intel_index):
        assert intel_index.counts()["signals"] > 0
        for address in sorted(pipeline.dataset.operators):
            intel = intel_index.lookup_address(address)
            assert intel.signals, f"{address} has no stage signals"
            stages = {s.stage for s in intel.signals}
            assert "exploitation" in stages

    def test_signals_survive_save_load_round_trip(self, intel_index, tmp_path):
        path = tmp_path / "fused-index.json"
        intel_index.save(path)
        loaded = IntelIndex.load(path)
        assert loaded.to_bytes() == intel_index.to_bytes()
        assert loaded.version == intel_index.version
        for address, intel in intel_index.addresses.items():
            assert loaded.addresses[address].signals == intel.signals

    def test_laundering_report_adds_the_fourth_stage(self, pipeline):
        laundering = pipeline.trace_laundering()
        index = pipeline.build_intel_index(laundering_report=laundering)
        stages = {
            s.stage
            for intel in index.addresses.values()
            for s in intel.signals
        }
        assert "laundering" in stages


class TestFusedIndexDeterminism:
    def test_serial_parallel_sharded_builds_are_byte_identical(
        self, world, pipeline
    ):
        """Same dataset -> byte-identical fused index, regardless of how
        the pipeline that produced it was executed."""
        serial = pipeline.build_intel_index()
        parallel = run_pipeline(
            PipelineConfig(world=world, shards=2, processes=2)
        ).build_intel_index()
        sharded = run_pipeline(
            PipelineConfig(world=world, shards=2, processes=1)
        ).build_intel_index()
        assert parallel.to_bytes() == serial.to_bytes()
        assert sharded.to_bytes() == serial.to_bytes()
        assert serial.counts()["signals"] > 0


class TestSignalFreeByteCompat:
    def test_plain_index_has_no_signal_keys(self, plain_index):
        assert "signals" not in plain_index.counts()
        for intel in plain_index.addresses.values():
            assert intel.signals == ()
            payload = intel.to_payload()
            assert list(payload) == LEGACY_ADDRESS_KEYS

    def test_fused_payload_is_additive_only(self, intel_index):
        # Removing the one new key restores the legacy shape exactly.
        for intel in intel_index.addresses.values():
            payload = intel.to_payload()
            payload.pop("signals", None)
            assert list(payload) == LEGACY_ADDRESS_KEYS

    def test_plain_verdicts_keep_the_legacy_schema(self, plain_index, an_operator):
        engine = QueryEngine(plain_index)
        verdict = engine.screen(an_operator)
        assert verdict.schema == 1
        assert verdict.stages == () and verdict.evidence == ()
        assert list(verdict.to_payload()) == LEGACY_VERDICT_KEYS

    def test_unknown_addresses_stay_schema_one(self, intel_index):
        verdict = QueryEngine(intel_index).screen("0x" + "11" * 20)
        assert verdict.schema == 1
        assert list(verdict.to_payload()) == LEGACY_VERDICT_KEYS

    def test_plain_risk_matches_the_legacy_formula(self, plain_index):
        engine = QueryEngine(plain_index)
        for intel in plain_index.addresses.values():
            base = {"contract": 0.95, "operator": 0.90, "affiliate": 0.80}
            expected = round(
                min(1.0, base[intel.role] + min(0.05, intel.tx_count * 0.001)), 4
            )
            assert engine.risk(intel) == expected


class TestRiskScoreShimRemoved:
    def test_risk_score_is_gone(self):
        import repro.serve
        import repro.serve.query as query_module

        assert not hasattr(repro.serve, "risk_score")
        assert not hasattr(query_module, "risk_score")
        assert "risk_score" not in repro.serve.__all__

    def test_engine_risk_replaces_the_shim(self, plain_index):
        import repro.serve.query as query_module

        engine = QueryEngine(plain_index)
        intel = next(iter(plain_index.addresses.values()))
        assert engine.risk(intel) == query_module._role_score(intel)


@pytest.fixture()
def fused_server(intel_index):
    srv = AsyncIntelServer(index=intel_index,
                           obs=Observability(run_id="fusedserve"))
    srv.start()
    yield srv
    srv.stop()


@pytest.fixture()
def plain_server(plain_index):
    srv = AsyncIntelServer(index=plain_index,
                           obs=Observability(run_id="plainserve"))
    srv.start()
    yield srv
    srv.stop()


class TestServedSchema:
    def test_fused_address_doc_carries_versioned_fused_block(
        self, fused_server, an_operator
    ):
        code, body, _ = get(f"{fused_server.url}/v1/address/{an_operator}")
        assert code == 200
        doc = json.loads(body)
        assert doc["schema_version"] == SCREEN_SCHEMA_VERSION
        fused = doc["fused"]
        assert 0.0 <= fused["score"] <= 1.0
        assert fused["stages"]
        assert fused["evidence"]
        for record in fused["evidence"]:
            assert set(record) == {"stage", "kind", "detail", "ref", "weight"}

    def test_fused_screen_envelope_and_verdicts(self, fused_server, an_operator):
        code, body, _ = post(f"{fused_server.url}/v1/screen",
                             {"addresses": [an_operator]})
        assert code == 200
        doc = json.loads(body)
        assert doc["schema_version"] == SCREEN_SCHEMA_VERSION
        verdict = doc["verdicts"][0]
        assert verdict["schema"] == SCREEN_SCHEMA_VERSION
        assert verdict["stages"]
        assert verdict["evidence"]
        assert verdict["flagged"] is True

    def test_fused_batch_lookup_announces_schema(self, fused_server, an_operator):
        code, body, _ = get(
            f"{fused_server.url}/v1/address?batch={an_operator}"
        )
        assert code == 200
        doc = json.loads(body)
        assert doc["schema_version"] == SCREEN_SCHEMA_VERSION
        assert doc["results"][0]["fused"]["stages"]

    def test_fused_stream_head_announces_schema(self, fused_server, an_operator):
        code, body, _ = post(
            f"{fused_server.url}/v1/screen?stream=1",
            {"addresses": [an_operator]},
        )
        assert code == 200
        head = json.loads(body.splitlines()[0])
        assert head["schema_version"] == SCREEN_SCHEMA_VERSION

    def test_unknown_only_batches_keep_the_legacy_bytes(self, fused_server):
        # Even on a fused index: no fused verdict in the batch -> the
        # envelope and verdicts are the exact pre-fusion shape.
        unknown = "0x" + "11" * 20
        code, body, _ = post(f"{fused_server.url}/v1/screen",
                             {"addresses": [unknown]})
        assert code == 200
        doc = json.loads(body, object_pairs_hook=list)
        assert [k for k, _ in doc] == ["index_version", "flagged", "verdicts"]
        verdict = dict(doc)["verdicts"][0]
        assert [k for k, _ in verdict] == LEGACY_VERDICT_KEYS


class TestSignalFreeServingBytes:
    def test_plain_screen_response_keeps_the_legacy_shape(
        self, plain_server, pipeline
    ):
        addresses = sorted(pipeline.dataset.operators)[:3]
        code, body, _ = post(f"{plain_server.url}/v1/screen",
                             {"addresses": addresses})
        assert code == 200
        doc = json.loads(body, object_pairs_hook=list)
        assert [k for k, _ in doc] == ["index_version", "flagged", "verdicts"]
        for verdict in dict(doc)["verdicts"]:
            assert [k for k, _ in verdict] == LEGACY_VERDICT_KEYS

    def test_plain_screen_is_byte_stable_and_cached(
        self, plain_server, an_operator
    ):
        _, first, _ = post(f"{plain_server.url}/v1/screen",
                           {"addresses": [an_operator]})
        _, second, _ = post(f"{plain_server.url}/v1/screen",
                            {"addresses": [an_operator]})
        assert first == second

    def test_plain_address_doc_has_no_schema_keys(
        self, plain_server, an_operator
    ):
        code, body, _ = get(f"{plain_server.url}/v1/address/{an_operator}")
        assert code == 200
        doc = json.loads(body)
        assert "schema_version" not in doc
        assert "fused" not in doc
        assert "signals" not in doc

    def test_etag_304_preserved_on_both_indexes(
        self, plain_server, fused_server, plain_index, intel_index, an_operator
    ):
        for server, index in ((plain_server, plain_index),
                              (fused_server, intel_index)):
            code, _, headers = get(f"{server.url}/v1/address/{an_operator}")
            assert code == 200
            assert headers["ETag"] == f'"{index.version}"'
            code, body, _ = get(
                f"{server.url}/v1/address/{an_operator}",
                {"If-None-Match": headers["ETag"]},
            )
            assert code == 304 and body == ""

    def test_fused_and_plain_indexes_version_apart(
        self, plain_index, intel_index
    ):
        # Signals are index content: the content-hash version (and so
        # the ETag) must change when they are present.
        assert plain_index.version != intel_index.version
