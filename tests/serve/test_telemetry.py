"""Request telemetry: byte parity, access-log semantics, histogram labels.

The cardinal invariant of ``repro.obs`` extended to the serve plane:
request telemetry (ids, latency/size histograms, the access log) must
never perturb a response *body*.  The server replays the full
endpoint matrix with telemetry fully on (access log sampling every
request, aggressive slow threshold) and fully off (disabled registry,
no access log) and the bodies are compared byte-for-byte.

The access log's capture rules are pinned here too: ``sample=N`` writes
every Nth request, ``sample=0`` writes none — except slow or errored
requests, which are *always* captured regardless of the sampling rate.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import AccessLog, Observability, RequestTelemetry
from repro.serve import AsyncIntelServer, IntelHandlerCore

from tests.serve.test_aserver import RawClient


def _matrix(pipeline, intel_index):
    known = sorted(pipeline.dataset.contracts)[0]
    operator = sorted(pipeline.dataset.operators)[0]
    ghost = "0x" + "00" * 20
    screen = json.dumps({"addresses": [known, ghost]}).encode()
    etag = f'"{intel_index.version}"'
    return [
        ("GET", "/healthz", None, b""),
        ("GET", f"/v1/address/{known}", None, b""),
        ("GET", f"/v1/address/{known}", None, b""),  # cache hit
        ("GET", f"/v1/address?batch={known},{ghost},{operator}", None, b""),
        ("GET", "/v1/families", None, b""),
        ("GET", "/v1/index", None, b""),
        ("POST", "/v1/screen", None, screen),
        ("POST", "/v1/screen", None, b"{broken"),
        ("POST", "/v1/screen?stream=1", None, screen),
        ("GET", "/v1/screen", None, b""),  # 405
        ("GET", f"/v1/address/{known}", {"If-None-Match": etag}, b""),
        ("GET", "/v1/nope", None, b""),
    ]


def _drive(server, requests):
    server.start()
    try:
        client = RawClient(server.port)
        out = [client.request(m, t, h, b) for m, t, h, b in requests]
        client.close()
        return out
    finally:
        server.stop()


def test_bodies_byte_identical_with_telemetry_on_and_off(
    pipeline, intel_index, tmp_path
):
    requests = _matrix(pipeline, intel_index)
    off = _drive(
        AsyncIntelServer(index=intel_index, obs=Observability.disabled()),
        requests)
    on = _drive(
        AsyncIntelServer(
            index=intel_index,
            obs=Observability(run_id="telemetry-on"),
            access_log_path=str(tmp_path / "access.jsonl"),
            access_log_sample=1,
            slow_request_ms=0.0001,  # everything counts as slow
        ),
        requests,
    )
    for (method, target, _, _), a, b in zip(requests, off, on):
        assert a[0] == b[0], f"{method} {target}: status differs"
        assert a[2] == b[2], f"{method} {target}: body differs"


def test_latency_and_size_histograms_labeled(pipeline, intel_index):
    obs = Observability(run_id="histo")
    server = AsyncIntelServer(index=intel_index, obs=obs).start()
    try:
        known = sorted(pipeline.dataset.contracts)[0]
        client = RawClient(server.port)
        assert client.request("GET", f"/v1/address/{known}")[0] == 200
        assert client.request("GET", "/v1/nope")[0] == 404
        body = json.dumps({"addresses": [known]}).encode()
        assert client.request("POST", "/v1/screen", None, body)[0] == 200
        client.close()
    finally:
        server.stop()
    doc = obs.metrics.to_json()
    latency = {
        (s["labels"]["endpoint"], s["labels"]["status"]): s["count"]
        for s in doc["daas_serve_request_seconds"]["samples"]
    }
    assert latency[("/v1/address", "200")] == 1
    assert latency[("other", "404")] == 1
    assert latency[("/v1/screen", "200")] == 1
    sizes_in = {
        s["labels"]["endpoint"]: s
        for s in doc["daas_serve_request_bytes"]["samples"]
    }
    assert sizes_in["/v1/screen"]["sum"] == len(body)
    sizes_out = {
        s["labels"]["endpoint"]: s
        for s in doc["daas_serve_response_bytes"]["samples"]
    }
    assert sizes_out["/v1/address"]["sum"] > 0


class TestAccessLog:
    def _read(self, path):
        return [
            json.loads(line)
            for line in path.read_text().splitlines()
        ]

    def test_sample_1_logs_every_request(self, intel_index, tmp_path):
        path = tmp_path / "access.jsonl"
        server = AsyncIntelServer(
            index=intel_index, access_log_path=str(path), access_log_sample=1,
        ).start()
        try:
            client = RawClient(server.port)
            for _ in range(5):
                assert client.request("GET", "/healthz")[0] == 200
            client.close()
        finally:
            server.stop()
        records = self._read(path)
        assert len(records) == 5
        assert all(r["event"] == "serve.access" for r in records)
        assert all(r["endpoint"] == "/healthz" for r in records)
        assert all(r["status"] == 200 for r in records)
        assert len({r["request_id"] for r in records}) == 5

    def test_sample_n_logs_every_nth(self, intel_index, tmp_path):
        path = tmp_path / "access.jsonl"
        server = AsyncIntelServer(
            index=intel_index, access_log_path=str(path), access_log_sample=3,
        ).start()
        try:
            client = RawClient(server.port)
            for _ in range(9):
                assert client.request("GET", "/healthz")[0] == 200
            client.close()
        finally:
            server.stop()
        assert len(self._read(path)) == 3

    def test_sample_0_still_captures_errors(self, intel_index, tmp_path):
        path = tmp_path / "access.jsonl"
        obs = Observability(run_id="errcap")
        server = AsyncIntelServer(
            index=intel_index, obs=obs,
            access_log_path=str(path), access_log_sample=0,
        ).start()
        try:
            client = RawClient(server.port)
            for _ in range(5):
                assert client.request("GET", "/healthz")[0] == 200
            assert client.request("GET", "/v1/nope")[0] == 404
            assert client.request("POST", "/v1/screen", None, b"{nope")[0] == 400
            client.close()
        finally:
            server.stop()
        records = self._read(path)
        assert [r["event"] for r in records] == [
            "serve.access.error", "serve.access.error"]
        assert [r["status"] for r in records] == [404, 400]
        assert obs.metrics.value(
            "daas_serve_access_log_records_total", reason="error") == 2

    def test_slow_requests_always_captured(self, intel_index, tmp_path):
        path = tmp_path / "access.jsonl"
        server = AsyncIntelServer(
            index=intel_index, access_log_path=str(path),
            access_log_sample=0, slow_request_ms=0.0001,
        ).start()
        try:
            client = RawClient(server.port)
            assert client.request("GET", "/healthz")[0] == 200
            client.close()
        finally:
            server.stop()
        records = self._read(path)
        assert len(records) == 1
        assert records[0]["event"] == "serve.access.slow"
        assert records[0]["duration_ms"] > 0

    def test_record_fields(self, intel_index, tmp_path):
        path = tmp_path / "access.jsonl"
        server = AsyncIntelServer(
            index=intel_index, obs=Observability(run_id="fields"),
            access_log_path=str(path), access_log_sample=1,
        ).start()
        try:
            client = RawClient(server.port)
            body = json.dumps({"addresses": ["0x" + "11" * 20]}).encode()
            status, headers, payload = client.request(
                "POST", "/v1/screen", {"X-Request-Id": "field-test"}, body)
            assert status == 200
            client.close()
        finally:
            server.stop()
        (record,) = self._read(path)
        assert record["run"] == "fields"
        assert record["worker"] == 0
        assert record["request_id"] == "field-test"
        assert record["method"] == "POST"
        assert record["target"] == "/v1/screen"
        assert record["endpoint"] == "/v1/screen"
        assert record["bytes_in"] == len(body)
        assert record["bytes_out"] == len(payload)
        assert record["client"] == "127.0.0.1"

    def test_direct_api_sampling_arithmetic(self, tmp_path):
        """Unit-level: sample interplay without a server in the loop."""
        path = tmp_path / "direct.jsonl"
        log = AccessLog(str(path), sample=2, run_id="r", worker_id=3)
        telemetry = RequestTelemetry(
            Observability.disabled(), access_log=log, slow_request_ms=0.0)

        class FakeResponse:
            status = 200
            body = b"ok"

        written = 0
        for _ in range(6):
            ctx = telemetry.begin("GET", "/x", "/x")
            if log.record(ctx, 200, 0.001, 2, slow=False, error=False):
                written += 1
        log.close()
        assert written == 3
        assert len(path.read_text().splitlines()) == 3


@pytest.mark.parametrize("target, label", [
    ("/healthz", "/healthz"),
    ("/healthz/", "/healthz"),
    ("/statusz?x=1", "/statusz"),
    ("/metrics", "/metrics"),
    ("/v1/address/0xabc", "/v1/address"),
    ("/v1/address?batch=0xa,0xb", "/v1/address"),
    ("/v1/address/", "/v1/address"),
    ("/v1/domain/a.example/", "/v1/domain"),
    ("/v1/screen?stream=1", "/v1/screen"),
    ("/v1/families", "/v1/families"),
    ("/v1/index", "/v1/index"),
    ("x/v1/address", "/v1/address"),
    ("/v1/nope", "other"),
    ("/v1/healthz", "other"),
    ("/v1", "other"),
    ("/v1/", "other"),
    ("/v1//address", "other"),
    ("/v2/address", "other"),
    ("/healthz/x", "other"),
    ("//healthz", "other"),
    ("/", "other"),
    ("*", "other"),
    ("", "other"),
])
def test_endpoint_label(target, label):
    """The ``endpoint`` label every request metric and access-log record
    carries: a known route, or ``other`` so labels stay bounded."""
    assert IntelHandlerCore.endpoint_of(target) == label
