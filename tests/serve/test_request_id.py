"""X-Request-Id conformance: every response carries one.

The acceptance bar from the request-telemetry work: *no* response leaves
the serve plane without an ``X-Request-Id`` — success, conditional,
client error, admission rejection, protocol-level rejection, or chunked
stream alike — and an inbound well-formed id is echoed back verbatim so
callers can stitch distributed traces together.  Malformed inbound ids
(oversized, unsafe characters) are replaced with a fresh one, never
echoed.
"""

from __future__ import annotations

import json
import socket

from repro.obs import REQUEST_ID_HEADER, sanitize_request_id
from repro.serve import AsyncIntelServer

from tests.serve.test_aserver import FakeClock, RawClient

_HEADER = REQUEST_ID_HEADER.lower()


def _matrix(pipeline, intel_index):
    """(method, target, headers, body, expected_status) spanning every
    response class the handler core can produce."""
    known = sorted(pipeline.dataset.contracts)[0]
    etag = f'"{intel_index.version}"'
    screen = json.dumps({"addresses": [known]}).encode()
    return [
        ("GET", "/healthz", None, b"", 200),
        ("GET", f"/v1/address/{known}", None, b"", 200),
        ("GET", f"/v1/address/{known}", {"If-None-Match": etag}, b"", 304),
        ("GET", "/v1/address/0x" + "00" * 20, None, b"", 404),
        ("GET", "/v1/nope", None, b"", 404),
        ("GET", "/v1/screen", None, b"", 405),
        ("POST", "/v1/screen", None, b"{broken", 400),
        ("POST", "/v1/screen?stream=1", None, screen, 200),  # chunked NDJSON
        ("GET", "/statusz", None, b"", 200),
        ("GET", "/metrics", None, b"", 200),
    ]


class TestEveryResponseCarriesAnId:
    def test_full_matrix_has_ids(self, pipeline, intel_index):
        server = AsyncIntelServer(index=intel_index).start()
        try:
            client = RawClient(server.port)
            seen: list[str] = []
            for method, target, headers, body, expected in _matrix(
                pipeline, intel_index
            ):
                status, response_headers, _ = client.request(
                    method, target, headers, body)
                assert status == expected, f"{method} {target}"
                rid = response_headers.get(_HEADER)
                assert rid, f"{method} {target}: no {REQUEST_ID_HEADER}"
                assert sanitize_request_id(rid) == rid
                seen.append(rid)
            client.close()
            # Generated ids are unique per request, even on cache hits.
            assert len(set(seen)) == len(seen)
        finally:
            server.stop()

    def test_inbound_id_echoed_verbatim(self, intel_index):
        server = AsyncIntelServer(index=intel_index).start()
        try:
            client = RawClient(server.port)
            for inbound in ("my-id-123", "trace:a.b_c-9", "x" * 128):
                _, headers, _ = client.request(
                    "GET", "/healthz", {"X-Request-Id": inbound})
                assert headers[_HEADER] == inbound
            # Echoed on error responses too.
            status, headers, _ = client.request(
                "GET", "/v1/nope", {"X-Request-Id": "err-trace-1"})
            assert status == 404 and headers[_HEADER] == "err-trace-1"
            client.close()
        finally:
            server.stop()

    def test_malformed_inbound_id_replaced(self, intel_index):
        server = AsyncIntelServer(index=intel_index).start()
        try:
            client = RawClient(server.port)
            for bad in ("has spaces", "x" * 129, "semi;colon", "utéf"):
                _, headers, _ = client.request(
                    "GET", "/healthz", {"X-Request-Id": bad})
                rid = headers[_HEADER]
                assert rid != bad and rid.startswith("req-")
            client.close()
        finally:
            server.stop()

    def test_503_no_index_has_id(self):
        server = AsyncIntelServer().start()
        try:
            client = RawClient(server.port)
            status, headers, _ = client.request("GET", "/v1/address/0xabc")
            assert status == 503 and headers[_HEADER].startswith("req-")
            status, headers, _ = client.request(
                "GET", "/healthz", {"X-Request-Id": "probe-7"})
            assert status == 503 and headers[_HEADER] == "probe-7"
            client.close()
        finally:
            server.stop()

    def test_429_rate_limited_has_id(self, intel_index):
        server = AsyncIntelServer(
            index=intel_index, rate_limit=1.0, burst=1.0, clock=FakeClock(),
        ).start()
        try:
            client = RawClient(server.port)
            assert client.request("GET", "/healthz")[0] == 200
            status, headers, _ = client.request(
                "GET", "/healthz", {"X-Request-Id": "limited-1"})
            assert status == 429 and headers[_HEADER] == "limited-1"
            client.close()
        finally:
            server.stop()

    def test_413_oversized_has_id(self, intel_index):
        server = AsyncIntelServer(index=intel_index, max_body_bytes=64).start()
        try:
            client = RawClient(server.port)
            status, headers, _ = client.request(
                "POST", "/v1/screen", {"X-Request-Id": "big-1"}, b"x" * 100)
            assert status == 413 and headers[_HEADER] == "big-1"
            client.close()
        finally:
            server.stop()


class TestAsyncFramingRejections:
    """Protocol-level 400s and 413s never reach the handler core, but
    the transport still stamps them."""

    def test_bad_request_line_400_has_id(self, intel_index):
        server = AsyncIntelServer(index=intel_index).start()
        try:
            sock = socket.create_connection(
                ("127.0.0.1", server.port), timeout=5)
            sock.sendall(b"NOT A REQUEST\r\n\r\n")
            data = sock.recv(65536)
            sock.close()
            assert data.startswith(b"HTTP/1.1 400")
            assert b"X-Request-Id: req-" in data
        finally:
            server.stop()

    def test_bad_content_length_400_echoes_inbound_id(self, intel_index):
        server = AsyncIntelServer(index=intel_index).start()
        try:
            sock = socket.create_connection(
                ("127.0.0.1", server.port), timeout=5)
            sock.sendall(
                b"POST /v1/screen HTTP/1.1\r\nHost: t\r\n"
                b"X-Request-Id: framing-9\r\n"
                b"Content-Length: nope\r\n\r\n"
            )
            data = sock.recv(65536)
            sock.close()
            assert data.startswith(b"HTTP/1.1 400")
            assert b"X-Request-Id: framing-9" in data
        finally:
            server.stop()

    def test_oversized_declared_body_413_has_id(self, intel_index):
        server = AsyncIntelServer(index=intel_index, max_body_bytes=64).start()
        try:
            sock = socket.create_connection(
                ("127.0.0.1", server.port), timeout=5)
            sock.sendall(
                b"POST /v1/screen HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: 100000\r\n\r\n"
            )
            data = sock.recv(65536)
            sock.close()
            assert data.startswith(b"HTTP/1.1 413")
            assert b"X-Request-Id: req-" in data
        finally:
            server.stop()
