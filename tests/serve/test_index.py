"""IntelIndex construction: determinism, completeness, serialization."""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

from repro.runtime import atomicio
from repro.serve import IndexFormatError, IntelIndex, build_index
from repro.stream import IndexDeltaError, apply_index_delta, compute_index_delta


class TestDeterminism:
    def test_rebuild_is_byte_identical(self, pipeline):
        a = build_index(pipeline.dataset, clustering=pipeline.clustering,
                        victim_report=pipeline.victim_report)
        b = build_index(pipeline.dataset, clustering=pipeline.clustering,
                        victim_report=pipeline.victim_report)
        assert a.to_bytes() == b.to_bytes()
        assert a.version == b.version

    def test_roundtrip_preserves_bytes_and_version(self, intel_index, tmp_path):
        path = tmp_path / "index.json"
        intel_index.save(path)
        loaded = IntelIndex.load(path)
        assert loaded.version == intel_index.version
        assert loaded.to_bytes() == intel_index.to_bytes()

    def test_version_tracks_content(self, pipeline):
        with_families = build_index(pipeline.dataset, clustering=pipeline.clustering)
        without = build_index(pipeline.dataset)
        assert with_families.version != without.version


class TestCompleteness:
    """Every entity of the fixture dataset answers with the right role."""

    def test_every_contract_indexed(self, pipeline, intel_index):
        for address in pipeline.dataset.contracts:
            intel = intel_index.lookup_address(address)
            assert intel is not None and intel.role == "contract"

    def test_every_operator_indexed(self, pipeline, intel_index):
        for address in pipeline.dataset.operators:
            intel = intel_index.lookup_address(address)
            assert intel is not None and intel.role == "operator"

    def test_every_affiliate_indexed(self, pipeline, intel_index):
        for address in pipeline.dataset.affiliates:
            intel = intel_index.lookup_address(address)
            assert intel is not None and intel.role == "affiliate"

    def test_family_labels_match_clustering(self, pipeline, intel_index):
        for family in pipeline.clustering.families:
            for operator in family.operators:
                intel = intel_index.lookup_address(operator)
                assert intel.family == family.name
            record = intel_index.family(family.name)
            assert record is not None
            assert record.victim_count == len(family.victims)

    def test_contract_carries_profit_sharing_evidence(self, pipeline, intel_index):
        record = max(pipeline.dataset.transactions, key=lambda t: t.total_usd)
        intel = intel_index.lookup_address(record.contract)
        assert record.operator in intel.operators
        assert record.affiliate in intel.affiliates
        assert intel.evidence  # sample tx hashes
        assert intel.tx_count >= 1
        assert intel.first_seen_ts <= record.timestamp <= intel.last_seen_ts

    def test_profit_totals_match_dataset(self, pipeline, intel_index):
        indexed_operator_profit = sum(
            i.profit_usd for i in intel_index.addresses.values()
            if i.role == "operator"
        )
        assert indexed_operator_profit == pytest.approx(
            pipeline.dataset.operator_profit_usd()
        )


class TestLookupSemantics:
    def test_lookup_is_case_insensitive(self, pipeline, intel_index):
        address = sorted(pipeline.dataset.operators)[0]
        assert intel_index.lookup_address(address.upper().replace("0X", "0x"))
        assert intel_index.lookup_address(address.lower())
        assert address in intel_index
        assert address.lower() in intel_index

    def test_unknown_address_is_none(self, intel_index):
        assert intel_index.lookup_address("0x" + "00" * 20) is None
        assert "0x" + "00" * 20 not in intel_index

    def test_scan_prefix_is_sorted_and_bounded(self, intel_index):
        everything = intel_index.scan_prefix("0x", limit=10_000)
        assert len(everything) == len(intel_index)
        addresses = [i.address.lower() for i in everything]
        assert addresses == sorted(addresses)
        assert len(intel_index.scan_prefix("0x", limit=3)) == 3
        assert intel_index.scan_prefix("0xzz") == []

    def test_counts_roles_sum(self, intel_index):
        counts = intel_index.counts()
        assert counts["addresses"] == (
            counts["contracts"] + counts["operators"] + counts["affiliates"]
        )


class TestFormatErrors:
    def test_not_json(self):
        with pytest.raises(IndexFormatError):
            IntelIndex.from_bytes(b"not json at all")

    def test_wrong_marker(self):
        with pytest.raises(IndexFormatError, match="marker"):
            IntelIndex.from_bytes(b'{"format": "something-else"}')

    def test_wrong_format_version(self):
        with pytest.raises(IndexFormatError, match="format_version"):
            IntelIndex.from_bytes(
                b'{"format": "daas-intel-index", "format_version": 999}'
            )

    def test_missing_file(self, tmp_path):
        with pytest.raises(IndexFormatError, match="no such index file"):
            IntelIndex.load(tmp_path / "absent.json")


def _whole_body_bytes(index: IntelIndex) -> bytes:
    """The canonical body encoded in one ``json.dumps``: what the
    per-entry fragments must reproduce byte for byte."""
    body = {
        "format": IntelIndex.FORMAT,
        "format_version": IntelIndex.FORMAT_VERSION,
        "counts": index.counts(),
        "addresses": {a: r.to_payload() for a, r in index.addresses.items()},
        "domains": {d: r.to_payload() for d, r in index.domains.items()},
        "families": {f: r.to_payload() for f, r in index.families.items()},
    }
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode()


def _expected_bytes(index: IntelIndex) -> tuple[str, bytes]:
    body = _whole_body_bytes(index)
    version = hashlib.sha256(body).hexdigest()[:16]
    doc = json.loads(body)
    doc["version"] = version
    return version, json.dumps(doc, sort_keys=True, separators=(",", ":")).encode() + b"\n"


class TestFragmentEncoding:
    """``version`` and ``to_bytes`` are assembled from cached per-entry
    fragments; they must equal one whole-body ``json.dumps``."""

    def _assert_canonical(self, index: IntelIndex) -> None:
        version, raw = _expected_bytes(index)
        assert index.version == version
        assert index.to_bytes() == raw

    def test_empty_index(self):
        self._assert_canonical(IntelIndex())

    def test_signal_free_index(self, pipeline):
        index = build_index(pipeline.dataset, clustering=pipeline.clustering,
                            signals=False)
        assert all(not r.signals for r in index.addresses.values())
        self._assert_canonical(index)

    def test_fused_index(self, intel_index):
        assert any(r.signals for r in intel_index.addresses.values())
        self._assert_canonical(intel_index)

    def test_delta_applied_index(self, intel_index):
        keys = sorted(intel_index.addresses)
        changed = {
            k: replace(intel_index.addresses[k], tx_count=999) for k in keys[:3]
        }
        new = intel_index.with_changes(
            upserts={"addresses": changed},
            removals={"addresses": keys[-2:], "families": sorted(intel_index.families)[:1]},
        )
        applied = apply_index_delta(intel_index, compute_index_delta(intel_index, new))
        # Untouched keys inherit the base's encoded fragment objects.
        untouched = keys[5]
        assert (
            applied._fragments["addresses"][untouched]
            is intel_index._fragments["addresses"][untouched]
        )
        self._assert_canonical(applied)
        assert applied.to_bytes() == new.to_bytes()

    def test_load_computes_no_fragments(self, intel_index):
        loaded = IntelIndex.from_bytes(intel_index.to_bytes())
        assert loaded.version == intel_index.version
        assert all(not cached for cached in loaded._fragments.values())
        assert loaded._pieces is None


class TestDeltaVerification:
    """apply_index_delta checks real bytes even when the base's fragments
    were inherited from an earlier index."""

    @pytest.fixture()
    def inherited(self, intel_index):
        key = sorted(intel_index.addresses)[0]
        base = intel_index.with_changes(
            upserts={"addresses": {key: replace(intel_index.addresses[key], tx_count=7)}}
        )
        base.version  # encodes only the changed key; inherits the rest
        return base

    def test_refuses_wrong_base(self, intel_index, inherited):
        delta = compute_index_delta(intel_index, inherited)
        with pytest.raises(IndexDeltaError, match="expects base"):
            apply_index_delta(inherited, delta)

    def test_refuses_tampered_upsert(self, inherited):
        key = sorted(inherited.addresses)[1]
        target = inherited.with_changes(
            upserts={"addresses": {key: replace(inherited.addresses[key], tx_count=8)}}
        )
        delta = compute_index_delta(inherited, target)
        assert list(delta.upserts["addresses"]) == [key]
        delta.upserts["addresses"][key]["tx_count"] = 9
        with pytest.raises(IndexDeltaError, match="corrupt"):
            apply_index_delta(inherited, delta)


class TestAtomicSave:
    def test_failed_write_keeps_previous_file(self, intel_index, tmp_path, monkeypatch):
        path = tmp_path / "index.json"
        IntelIndex().save(path)
        previous = path.read_bytes()

        real_open = open

        class _HalfWriter:
            """A file whose write stores half the payload, then fails."""

            def __init__(self, handle):
                self._handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._handle.close()

            def write(self, data):
                self._handle.write(data[: len(data) // 2])
                raise OSError("disk full")

        monkeypatch.setattr(
            atomicio, "open", lambda *a, **k: _HalfWriter(real_open(*a, **k)),
            raising=False,
        )
        with pytest.raises(OSError, match="disk full"):
            intel_index.save(path)
        assert path.read_bytes() == previous
        assert sorted(p.name for p in tmp_path.iterdir()) == ["index.json"]
