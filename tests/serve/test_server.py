"""The /v1 HTTP service's endpoints, through a stock HTTP client.

Every operator/affiliate/contract in the fixture dataset answers with
the correct role and family, the error surface (404 unknown entity, 405
wrong method, 400 bad batch) behaves, conditional requests hit 304, and
requests are counted.  Admission control (429), the no-index 503 and
hot reload are pinned in ``test_aserver.py``.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from urllib.parse import quote

import pytest

from repro.obs import Observability
from repro.serve import AsyncIntelServer, build_index
from repro.serve.handler import PROBE_ROUTES


def get(url: str, headers: dict | None = None):
    request = urllib.request.Request(url, headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=5.0) as response:
            return response.status, response.read().decode(), response.headers
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode(), exc.headers


def post(url: str, doc, headers: dict | None = None):
    request = urllib.request.Request(
        url, data=json.dumps(doc).encode(), method="POST",
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=5.0) as response:
            return response.status, response.read().decode(), response.headers
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode(), exc.headers


@pytest.fixture()
def server(intel_index):
    srv = AsyncIntelServer(index=intel_index,
                           obs=Observability(run_id="servetest"))
    srv.start()
    yield srv
    srv.stop()


class TestAddressEndpoint:
    def test_every_dataset_entity_answers_correctly(
        self, pipeline, intel_index, server
    ):
        """The acceptance check: correct role/family for every operator,
        affiliate, and contract of the tier-1 fixture dataset."""
        for role, members in (
            ("contract", pipeline.dataset.contracts),
            ("operator", pipeline.dataset.operators),
            ("affiliate", pipeline.dataset.affiliates),
        ):
            for address in sorted(members):
                code, body, headers = get(f"{server.url}/v1/address/{address}")
                assert code == 200
                doc = json.loads(body)
                assert doc["role"] == role
                expected = intel_index.lookup_address(address)
                assert doc["family"] == expected.family
                assert doc["risk"] > 0
                assert headers["X-Index-Version"] == intel_index.version

    def test_unknown_address_404(self, server):
        code, body, _ = get(f"{server.url}/v1/address/0x{'00' * 20}")
        assert code == 404
        assert json.loads(body)["flagged"] is False

    def test_etag_roundtrip_304(self, pipeline, server, intel_index):
        address = sorted(pipeline.dataset.operators)[0]
        code, _, headers = get(f"{server.url}/v1/address/{address}")
        assert code == 200
        assert headers["ETag"] == f'"{intel_index.version}"'
        code, body, _ = get(
            f"{server.url}/v1/address/{address}",
            {"If-None-Match": headers["ETag"]},
        )
        assert code == 304 and body == ""


class TestOtherEndpoints:
    def test_domain_lookup_and_404(self, pipeline, server):
        reports = [
            type("R", (), {"domain": "fake-claim.xyz", "family": "Angel Drainer",
                           "detected_at": 5, "matched_keyword": "claim"})()
        ]
        index = build_index(pipeline.dataset, site_reports=reports)
        server.load_index(index)
        code, body, _ = get(f"{server.url}/v1/domain/fake-claim.xyz")
        assert code == 200
        doc = json.loads(body)
        assert doc["verdict"] == "phishing" and doc["family"] == "Angel Drainer"
        code, _, _ = get(f"{server.url}/v1/domain/benign.example")
        assert code == 404

    def test_families_listing_and_detail(self, pipeline, server):
        code, body, _ = get(f"{server.url}/v1/families")
        assert code == 200
        families = json.loads(body)["families"]
        assert len(families) == pipeline.clustering.family_count
        name = families[0]["name"]
        code, body, _ = get(f"{server.url}/v1/families/{quote(name)}")
        assert code == 200 and json.loads(body)["name"] == name
        code, _, _ = get(f"{server.url}/v1/families/NoSuchFamily")
        assert code == 404

    def test_index_metadata(self, server, intel_index):
        code, body, _ = get(f"{server.url}/v1/index")
        assert code == 200
        doc = json.loads(body)
        assert doc["index_version"] == intel_index.version
        assert doc["counts"]["addresses"] == len(intel_index)

    def test_screen_batch(self, pipeline, server):
        known = sorted(pipeline.dataset.contracts)[0]
        code, body, _ = post(f"{server.url}/v1/screen",
                             {"addresses": [known, "0x" + "11" * 20]})
        assert code == 200
        doc = json.loads(body)
        assert doc["flagged"] == 1
        assert [v["flagged"] for v in doc["verdicts"]] == [True, False]

    def test_screen_rejects_bad_bodies(self, server):
        code, _, _ = post(f"{server.url}/v1/screen", {"addresses": "not-a-list"})
        assert code == 400
        code, _, _ = post(f"{server.url}/v1/screen", {"addresses": [1, 2]})
        assert code == 400
        request = urllib.request.Request(
            f"{server.url}/v1/screen", data=b"{broken", method="POST")
        try:
            with urllib.request.urlopen(request, timeout=5.0) as response:
                code = response.status
        except urllib.error.HTTPError as exc:
            code = exc.code
        assert code == 400

    def test_screen_batch_cap(self, intel_index):
        server = AsyncIntelServer(index=intel_index, max_batch=2).start()
        try:
            code, body, _ = post(f"{server.url}/v1/screen",
                                 {"addresses": ["0x1", "0x2", "0x3"]})
            assert code == 400 and "exceeds max 2" in body
        finally:
            server.stop()

    def test_screen_requires_post(self, server):
        code, _, _ = get(f"{server.url}/v1/screen")
        assert code == 405

    def test_unknown_route_404(self, server):
        for target in ("/v1/nope", "/nope"):
            code, body, _ = get(f"{server.url}{target}")
            assert code == 404
            assert set(PROBE_ROUTES) <= set(json.loads(body)["endpoints"])


class TestObservability:
    def test_requests_and_latency_are_counted(self, intel_index):
        obs = Observability(run_id="metrics")
        server = AsyncIntelServer(index=intel_index, obs=obs).start()
        try:
            get(f"{server.url}/healthz")
            get(f"{server.url}/v1/index")
            get(f"{server.url}/v1/index")
        finally:
            server.stop()
        exported = obs.metrics.to_prometheus()
        assert 'daas_serve_requests_total{endpoint="/healthz"} 1' in exported
        assert 'daas_serve_requests_total{endpoint="/v1/index"} 2' in exported
        assert "daas_serve_request_seconds" in exported
        assert "daas_serve_index_loaded 1" in exported
