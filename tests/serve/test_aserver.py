"""AsyncIntelServer: HTTP conformance, parity with the handler core.

The acceptance matrix for the asyncio transport:

* every status and body of the full endpoint matrix equals what a fresh
  in-process :meth:`IntelHandlerCore.handle` returns for the same
  request sequence (same history — the ``/v1/index`` body embeds cache
  statistics);
* HTTP/1.1 conformance — keep-alive reuse across 100+ requests on one
  connection, chunked verdict streaming, 400 on malformed framing and
  on heads over the cap, 413 on oversized bodies, the slow-client read
  deadline;
* protocol edges — pipelined requests answered in order (also with a
  body that arrives late), bare-LF heads, a bad line answered before
  its head ends, ``Connection: close`` either way, one deadline per
  request, write backpressure against a client that stops reading,
  and a deep pipeline yielding to other connections;
* admission control and hot reload (429 + recovery, zero-drop reload
  under concurrent load);
* :func:`preforked_sockets` binding semantics, including a real forked
  two-worker round-robin under the ``multiproc`` marker.

All requests here speak raw sockets: the point is to exercise the
hand-rolled HTTP pipeline, not urllib's view of it.
"""

from __future__ import annotations

import asyncio
import json
import select
import socket
import threading
import time

import pytest

from repro.obs import Observability
from repro.serve import (
    AsyncIntelServer,
    IntelHandlerCore,
    build_index,
    preforked_sockets,
)


class FakeClock:
    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class RawClient:
    """One persistent keep-alive connection speaking raw HTTP/1.1."""

    def __init__(self, port: int, timeout: float = 5.0) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self.buffer = b""

    def close(self) -> None:
        self.sock.close()

    def _read_until(self, marker: bytes) -> bytes:
        while marker not in self.buffer:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self.buffer += chunk
        cut = self.buffer.index(marker) + len(marker)
        out, self.buffer = self.buffer[:cut], self.buffer[cut:]
        return out

    def _read_exactly(self, n: int) -> bytes:
        while len(self.buffer) < n:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self.buffer += chunk
        out, self.buffer = self.buffer[:n], self.buffer[n:]
        return out

    def request(
        self,
        method: str,
        target: str,
        headers: dict | None = None,
        body: bytes = b"",
    ):
        lines = [f"{method} {target} HTTP/1.1", "Host: test"]
        if body or method == "POST":
            lines.append(f"Content-Length: {len(body)}")
        for key, value in (headers or {}).items():
            lines.append(f"{key}: {value}")
        self.sock.sendall(("\r\n".join(lines) + "\r\n\r\n").encode() + body)
        return self.read_response()

    def read_response(self):
        """``(status, headers, body)`` for exactly one response."""
        raw = self._read_until(b"\r\n\r\n").decode("latin-1")
        head = raw.split("\r\n")
        status = int(head[0].split(" ")[1])
        headers: dict[str, str] = {}
        for line in head[1:]:
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        if headers.get("transfer-encoding") == "chunked":
            body = b""
            while True:
                size = int(self._read_until(b"\r\n").strip(), 16)
                if size == 0:
                    self._read_until(b"\r\n")
                    return status, headers, body
                body += self._read_exactly(size)
                self._read_until(b"\r\n")
        return status, headers, self._read_exactly(
            int(headers.get("content-length", "0"))
        )


@pytest.fixture()
def aserver(intel_index):
    srv = AsyncIntelServer(
        index=intel_index, obs=Observability(run_id="aservetest")
    ).start()
    yield srv
    srv.stop()


def _sequence(pipeline, intel_index):
    """The full endpoint matrix as one ordered request list."""
    known = sorted(pipeline.dataset.contracts)[0]
    operator = sorted(pipeline.dataset.operators)[0]
    ghost = "0x" + "00" * 20
    screen = json.dumps(
        {"addresses": [known, operator, "0x" + "11" * 20]}
    ).encode()
    etag = f'"{intel_index.version}"'
    return [
        ("GET", "/healthz", None, b""),
        ("GET", f"/v1/address/{known}", None, b""),
        ("GET", f"/v1/address/{known}", None, b""),  # response-cache hit
        ("GET", f"/v1/address/{ghost}", None, b""),
        ("GET", f"/v1/address?batch={known},{ghost},{operator}", None, b""),
        ("GET", "/v1/domain/not-indexed.example", None, b""),
        ("GET", "/v1/families", None, b""),
        ("GET", "/v1/families/NoSuchFamily", None, b""),
        ("GET", "/v1/index", None, b""),
        ("POST", "/v1/screen", None, screen),
        ("POST", "/v1/screen", None, screen),  # response-cache hit
        ("POST", "/v1/screen", None, b"{broken"),
        ("POST", "/v1/screen", None, json.dumps({"addresses": "no"}).encode()),
        ("GET", "/v1/screen", None, b""),  # 405
        ("GET", "/v1/nope", None, b""),
        ("GET", f"/v1/address/{known}", {"If-None-Match": etag}, b""),
        ("GET", "/v1/index", None, b""),  # cache stats must still agree
    ]


class TestCoreParity:
    """The transport adds framing, never bytes: each status and body
    equals a fresh in-process core's answer to the same request."""

    @staticmethod
    def _served_and_expected(index, requests, max_batch=4096):
        server = AsyncIntelServer(index=index, max_batch=max_batch).start()
        try:
            client = RawClient(server.port)
            served = [client.request(m, t, h, b) for m, t, h, b in requests]
            client.close()
        finally:
            server.stop()
        core = IntelHandlerCore(index=index, max_batch=max_batch)
        expected = [
            core.handle(m, t, body=b,
                        if_none_match=(h or {}).get("If-None-Match"))
            for m, t, h, b in requests
        ]
        return served, expected

    def test_full_matrix_byte_identical(self, pipeline, intel_index):
        requests = _sequence(pipeline, intel_index)
        served, expected = self._served_and_expected(intel_index, requests)
        for (m, t, _, _), got, want in zip(requests, served, expected):
            assert got[0] == want.status, f"{m} {t}: status {got[0]} != {want.status}"
            assert got[2] == want.body, f"{m} {t}: bodies differ"

    def test_batch_cap_parity(self, intel_index):
        batch = json.dumps({"addresses": ["0x1", "0x2", "0x3"]}).encode()
        ((status, _, body),), (want,) = self._served_and_expected(
            intel_index, [("POST", "/v1/screen", None, batch)], max_batch=2)
        assert status == want.status == 400
        assert b"exceeds max 2" in body and body == want.body


class TestHTTPConformance:
    def test_keep_alive_reuse_100_requests(self, aserver, pipeline):
        addresses = sorted(pipeline.dataset.contracts)[:4]
        client = RawClient(aserver.port)
        for i in range(100):
            if i % 10 == 9:
                body = json.dumps({"addresses": addresses}).encode()
                status, _, payload = client.request(
                    "POST", "/v1/screen", None, body)
                assert status == 200
                assert json.loads(payload)["flagged"] == len(addresses)
            else:
                status, _, _ = client.request(
                    "GET", f"/v1/address/{addresses[i % 4]}")
                assert status == 200
        client.close()
        assert aserver.obs.metrics.value("daas_serve_connections_total") == 1

    def test_screen_stream_chunked_ndjson(self, aserver, pipeline):
        addresses = sorted(pipeline.dataset.contracts)[:3] + ["0x" + "11" * 20]
        client = RawClient(aserver.port)
        body = json.dumps({"addresses": addresses}).encode()
        status, headers, payload = client.request(
            "POST", "/v1/screen?stream=1", None, body)
        assert status == 200
        assert headers["transfer-encoding"] == "chunked"
        assert headers["content-type"] == "application/x-ndjson"
        lines = payload.decode().splitlines()
        meta = json.loads(lines[0])
        assert meta["count"] == len(addresses)
        verdicts = [json.loads(line) for line in lines[1:]]
        assert [v["address"] for v in verdicts] == addresses
        assert [v["flagged"] for v in verdicts] == [True, True, True, False]
        # The connection survives the stream: next request still works.
        assert client.request("GET", "/healthz")[0] == 200
        client.close()

    def test_address_batch_orders_and_caps(self, intel_index, pipeline):
        server = AsyncIntelServer(index=intel_index, max_batch=3).start()
        try:
            client = RawClient(server.port)
            a, b = sorted(pipeline.dataset.contracts)[:2]
            ghost = "0x" + "00" * 20
            status, _, payload = client.request(
                "GET", f"/v1/address?batch={ghost},{b},{a}")
            assert status == 200
            doc = json.loads(payload)
            assert [r["address"] for r in doc["results"]] == [ghost, b, a]
            assert doc["found"] == 2 and doc["requested"] == 3
            status, _, payload = client.request(
                "GET", f"/v1/address?batch={a},{b},{ghost},{ghost}")
            assert status == 400
            assert b"exceeds max 3" in payload
            status, _, payload = client.request("GET", "/v1/address?batch=")
            assert status == 400
            client.close()
        finally:
            server.stop()

    def test_malformed_request_400_and_close(self, aserver):
        sock = socket.create_connection(("127.0.0.1", aserver.port), timeout=5)
        sock.sendall(b"NOT A REQUEST\r\n\r\n")
        data = sock.recv(65536)
        assert data.startswith(b"HTTP/1.1 400")
        assert b"malformed request" in data
        assert sock.recv(65536) == b""  # server closed
        sock.close()
        assert aserver.obs.metrics.value("daas_serve_malformed_total") >= 1

    def test_oversized_body_413_and_close(self, intel_index):
        obs = Observability(run_id="oversized")
        server = AsyncIntelServer(
            index=intel_index, obs=obs, max_body_bytes=64).start()
        try:
            sock = socket.create_connection(("127.0.0.1", server.port), timeout=5)
            sock.sendall(
                b"POST /v1/screen HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: 100000\r\n\r\n"
            )
            data = sock.recv(65536)
            assert data.startswith(b"HTTP/1.1 413")
            assert b"exceeds max 64" in data
            assert sock.recv(65536) == b""
            sock.close()
            assert obs.metrics.value("daas_serve_oversized_total") == 1
        finally:
            server.stop()

    def test_slow_client_read_deadline(self, intel_index):
        obs = Observability(run_id="slowpoke")
        server = AsyncIntelServer(
            index=intel_index, obs=obs, read_timeout_s=0.2).start()
        try:
            sock = socket.create_connection(("127.0.0.1", server.port), timeout=5)
            sock.sendall(b"GET /healthz HTTP/1.1\r\n")  # never finishes headers
            sock.settimeout(5.0)
            assert sock.recv(65536) == b""  # dropped by the deadline
            sock.close()
            assert obs.metrics.value("daas_serve_read_timeouts_total") >= 1
            # The server itself is fine afterwards.
            client = RawClient(server.port)
            assert client.request("GET", "/healthz")[0] == 200
            client.close()
        finally:
            server.stop()


class TestProtocolEdges:
    """Framing edges a rewrite of the transport can break."""

    def test_head_over_64k_gets_400_headers_too_large(self, intel_index):
        obs = Observability(run_id="bighead")
        server = AsyncIntelServer(index=intel_index, obs=obs).start()
        big = "a" * 70_000
        heads = [
            f"GET /healthz HTTP/1.1\r\nHost: t\r\nX-Big: {big}\r\n\r\n",
            f"GET /v1/address/{big} HTTP/1.1\r\nHost: t\r\n\r\n",
        ]
        try:
            for head in heads:
                client = RawClient(server.port)
                client.sock.sendall(head.encode())
                status, headers, body = client.read_response()
                assert status == 400
                assert headers["connection"] == "close"
                assert json.loads(body)["error"] == \
                    "malformed request: headers too large"
                # Closed: a FIN, or a RST when the close left the rest of
                # the head unread (the answer still arrived before it).
                try:
                    assert client.sock.recv(65536) == b""
                except ConnectionResetError:
                    pass
                client.close()
            assert obs.metrics.value("daas_serve_malformed_total") == 2
        finally:
            server.stop()

    @pytest.mark.parametrize("head, reason", [
        (b"NOT-HTTP\r\n", "bad request line"),
        (b"GET /healthz HTTP/1.1\r\nHost: t\r\nno colon\r\n",
         "bad header line"),
    ], ids=["request-line", "header-line"])
    def test_bad_line_answered_before_head_ends(self, intel_index, head,
                                                reason):
        """A bad line gets its 400 once it has arrived, without waiting
        for the rest of the head or for the read deadline."""
        obs = Observability(run_id="badline")
        server = AsyncIntelServer(
            index=intel_index, obs=obs, read_timeout_s=30.0).start()
        try:
            client = RawClient(server.port, timeout=2.0)
            client.sock.sendall(head)
            status, headers, body = client.read_response()
            assert status == 400 and headers["connection"] == "close"
            assert json.loads(body)["error"] == f"malformed request: {reason}"
            assert client.sock.recv(65536) == b""
            client.close()
            assert obs.metrics.value("daas_serve_malformed_total") == 1
            assert obs.metrics.value("daas_serve_read_timeouts_total") == 0
        finally:
            server.stop()

    @pytest.mark.parametrize("lengths", [
        ["-44"], ["+0"], ["0_0"], ["44", "0"], ["0", "44"],
    ], ids=["negative", "signed", "underscore", "repeat-44-0", "repeat-0-44"])
    def test_bad_content_length_400_and_close(self, aserver, lengths):
        """A length ``int()`` would take but RFC 9110's ``1*DIGIT``
        does not, or a repeat with another value, is a 400 and a close:
        the request behind it is never answered."""
        client = RawClient(aserver.port, timeout=2.0)
        client.sock.sendall(
            b"POST /v1/screen HTTP/1.1\r\nHost: t\r\n"
            + b"".join(f"Content-Length: {n}\r\n".encode() for n in lengths)
            + b"\r\nGET /v1/index HTTP/1.1\r\nHost: t\r\n\r\n")
        status, headers, body = client.read_response()
        assert status == 400 and headers["connection"] == "close"
        assert json.loads(body)["error"] == \
            "malformed request: bad Content-Length"
        assert client.buffer == b""
        try:  # a FIN, or a RST when the close left the GET unread
            assert client.sock.recv(65536) == b""
        except ConnectionResetError:
            pass
        client.close()
        assert aserver.obs.metrics.value("daas_serve_malformed_total") == 1

    def test_rate_limited_post_keeps_connection_framed(self, intel_index,
                                                       pipeline):
        """A POST answered 429 still has its body read, so the next
        request on the connection parses and is answered."""
        server = AsyncIntelServer(
            index=intel_index, rate_limit=1.0, burst=1.0, clock=FakeClock(),
        ).start()
        address = sorted(pipeline.dataset.contracts)[0]
        screen = json.dumps({"addresses": [address]}).encode()
        try:
            client = RawClient(server.port)
            wallet_a = {"X-Client-Id": "wallet-a"}
            assert client.request(
                "POST", "/v1/screen", wallet_a, screen)[0] == 200
            assert client.request(
                "POST", "/v1/screen", wallet_a, screen)[0] == 429
            status, _, body = client.request(
                "POST", "/v1/screen", {"X-Client-Id": "wallet-b"}, screen)
            assert status == 200
            assert [v["address"] for v in json.loads(body)["verdicts"]] == \
                [address]
            client.close()
        finally:
            server.stop()

    def test_pipelined_requests_answered_in_order(self, aserver, pipeline):
        address = sorted(pipeline.dataset.contracts)[0]
        screen = json.dumps({"addresses": [address]}).encode()
        client = RawClient(aserver.port)
        client.sock.sendall(
            b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
            + f"GET /v1/address/{address} HTTP/1.1\r\nHost: t\r\n\r\n".encode()
            + b"POST /v1/screen HTTP/1.1\r\nHost: t\r\n"
            + f"Content-Length: {len(screen)}\r\n\r\n".encode())
        time.sleep(0.05)
        client.sock.sendall(screen)
        answers = [client.read_response() for _ in range(3)]
        client.close()
        assert [status for status, _, _ in answers] == [200, 200, 200]
        assert json.loads(answers[0][2])["status"] == "ok"
        assert json.loads(answers[1][2])["address"] == address
        verdicts = json.loads(answers[2][2])["verdicts"]
        assert [v["address"] for v in verdicts] == [address]

    def test_bare_lf_head_answered(self, aserver):
        client = RawClient(aserver.port)
        client.sock.sendall(b"GET /healthz HTTP/1.1\nHost: t\n\n")
        status, _, body = client.read_response()
        assert status == 200 and json.loads(body)["status"] == "ok"
        # The connection stays usable for the next request.
        assert client.request("GET", "/healthz")[0] == 200
        client.close()

    @pytest.mark.parametrize("head", [
        b"GET /healthz HTTP/1.0\r\nHost: t\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    ], ids=["http10", "http11-close"])
    def test_connection_close_then_eof(self, aserver, head):
        client = RawClient(aserver.port)
        client.sock.sendall(head)
        status, headers, _ = client.read_response()
        assert status == 200 and headers["connection"] == "close"
        assert client.buffer == b"" and client.sock.recv(65536) == b""
        client.close()

    def test_slow_drip_head_dropped_by_one_deadline(self, intel_index):
        """A client that sends one header line every 0.1 s never ends its
        head within a 0.3 s deadline: it is dropped, not answered."""
        obs = Observability(run_id="drip")
        server = AsyncIntelServer(
            index=intel_index, obs=obs, read_timeout_s=0.3).start()
        try:
            sock = socket.create_connection(("127.0.0.1", server.port), timeout=5)
            started = time.monotonic()
            sock.sendall(b"GET /healthz HTTP/1.1\r\n")
            answer = None
            for i in range(15):
                if select.select([sock], [], [], 0.1)[0]:
                    answer = sock.recv(65536)
                    break
                try:
                    sock.sendall(f"X-Drip-{i}: x\r\n".encode())
                except OSError:
                    answer = b""
                    break
            else:
                sock.sendall(b"\r\n")
                answer = sock.recv(65536)
            elapsed = time.monotonic() - started
            sock.close()
            assert answer == b"", f"answered after {elapsed:.2f}s: {answer[:40]!r}"
            assert elapsed < 1.0
            assert obs.metrics.value("daas_serve_read_timeouts_total") == 1
        finally:
            server.stop()

    def test_idle_keep_alive_dropped_after_answer(self, intel_index):
        obs = Observability(run_id="idle")
        server = AsyncIntelServer(
            index=intel_index, obs=obs, read_timeout_s=0.3).start()
        try:
            client = RawClient(server.port)
            assert client.request("GET", "/healthz")[0] == 200
            started = time.monotonic()
            assert client.sock.recv(65536) == b""
            assert time.monotonic() - started < 1.0
            client.close()
            assert obs.metrics.value("daas_serve_read_timeouts_total") == 1
        finally:
            server.stop()

    def test_backpressure_keeps_20k_pipelined_answers_in_order(
        self, aserver, pipeline
    ):
        """The client sends 20,000 GETs and reads nothing for 2 s: the
        server stops answering while its send buffer is full, then
        delivers every answer in order once the client reads."""
        n = 20_000
        address = sorted(pipeline.dataset.contracts)[0]
        wire = b"".join(
            f"GET /v1/address/{address} HTTP/1.1\r\nHost: t\r\n"
            f"X-Request-Id: p{i}\r\n\r\n".encode()
            for i in range(n)
        )
        client = RawClient(aserver.port, timeout=30.0)
        # Sent from a thread: once both sides' buffers fill, sendall
        # blocks until this side starts reading.
        sender = threading.Thread(target=client.sock.sendall, args=(wire,))
        sender.start()
        time.sleep(2.0)
        ids = []
        for _ in range(n):
            status, headers, _ = client.read_response()
            assert status == 200
            ids.append(headers["x-request-id"])
        sender.join(timeout=10.0)
        assert not sender.is_alive()
        client.close()
        assert ids == [f"p{i}" for i in range(n)]

    def test_deep_pipeline_yields_to_other_connections(
        self, intel_index, tmp_path
    ):
        """A request that arrives beside a deep pipeline is answered
        after a bounded number of the pipeline's answers, not after
        all of them."""
        path = tmp_path / "access.jsonl"
        server = AsyncIntelServer(
            index=intel_index, access_log_path=str(path),
            access_log_sample=1).start()
        n = 1000
        try:
            deep, other = RawClient(server.port), RawClient(server.port)
            assert deep.request("GET", "/healthz")[0] == 200
            assert other.request("GET", "/healthz")[0] == 200
            # Hold the loop while both requests arrive, so the same loop
            # turn finds both connections readable, the deep one first.
            held, release = threading.Event(), threading.Event()
            server.loop.call_soon_threadsafe(
                lambda: (held.set(), release.wait(5.0)))
            assert held.wait(5.0)
            deep.sock.sendall(b"".join(
                f"GET /healthz HTTP/1.1\r\nX-Request-Id: d{i}\r\n\r\n"
                .encode() for i in range(n)))
            other.sock.sendall(
                b"GET /healthz HTTP/1.1\r\nX-Request-Id: other\r\n\r\n")
            release.set()
            assert other.read_response()[0] == 200
            for _ in range(n):
                assert deep.read_response()[0] == 200
            deep.close()
            other.close()
        finally:
            server.stop()
        ids = [json.loads(line)["request_id"]
               for line in path.read_text().splitlines()[2:]]
        assert sorted(ids) == sorted([f"d{i}" for i in range(n)] + ["other"])
        assert ids.index("other") < n // 10


class TestAdmissionControl:
    def test_rate_limit_429_and_recovery(self, intel_index):
        clock = FakeClock()
        server = AsyncIntelServer(
            index=intel_index, rate_limit=1.0, burst=2.0, clock=clock,
        ).start()
        try:
            client = RawClient(server.port)
            headers = {"X-Client-Id": "wallet-a"}
            assert client.request("GET", "/healthz", headers)[0] == 200
            assert client.request("GET", "/healthz", headers)[0] == 200
            status, response_headers, body = client.request(
                "GET", "/healthz", headers)
            assert status == 429
            assert int(response_headers["retry-after"]) >= 1
            assert "retry_after_s" in json.loads(body)
            assert client.request(
                "GET", "/healthz", {"X-Client-Id": "wallet-b"})[0] == 200
            clock.advance(5.0)
            assert client.request("GET", "/healthz", headers)[0] == 200
            client.close()
        finally:
            server.stop()

    def test_no_index_503_until_loaded(self, intel_index):
        server = AsyncIntelServer().start()
        try:
            client = RawClient(server.port)
            status, _, body = client.request("GET", "/healthz")
            assert status == 503 and json.loads(body)["status"] == "no-index"
            status, _, body = client.request("GET", "/v1/address/0xabc")
            assert status == 503
            assert "no intelligence index" in json.loads(body)["error"]
            server.load_index(intel_index)
            status, _, body = client.request("GET", "/healthz")
            assert status == 200
            assert json.loads(body)["index_version"] == intel_index.version
            assert client.request("GET", "/v1/families")[0] == 200
            client.close()
        finally:
            server.stop()


class TestHotReload:
    def test_hot_reload_drops_no_inflight_requests(self, pipeline, intel_index):
        """Swap index versions repeatedly while clients hammer lookups
        on persistent connections: every response must succeed against
        one coherent version."""
        other = build_index(pipeline.dataset)
        assert other.version != intel_index.version
        server = AsyncIntelServer(index=intel_index).start()
        addresses = sorted(pipeline.dataset.contracts)[:8]
        versions = {intel_index.version, other.version}
        failures: list = []
        stop = threading.Event()

        def hammer() -> None:
            client = RawClient(server.port)
            i = 0
            while not stop.is_set():
                address = addresses[i % len(addresses)]
                try:
                    status, headers, _ = client.request(
                        "GET", f"/v1/address/{address}")
                except Exception as exc:  # noqa: BLE001 - any failure counts
                    failures.append(repr(exc))
                    client = RawClient(server.port)
                    continue
                if status != 200 or headers["x-index-version"] not in versions:
                    failures.append((status, headers.get("x-index-version")))
                i += 1
            client.close()

        workers = [threading.Thread(target=hammer) for _ in range(4)]
        for worker in workers:
            worker.start()
        try:
            for flip in range(6):
                server.load_index(other if flip % 2 == 0 else intel_index)
        finally:
            stop.set()
            for worker in workers:
                worker.join(timeout=10.0)
            server.stop()
        assert failures == []

    def test_reload_from_file_and_bad_file_keeps_serving(
        self, pipeline, intel_index, tmp_path
    ):
        server = AsyncIntelServer(index=intel_index).start()
        try:
            other = build_index(pipeline.dataset)
            path = tmp_path / "next.json"
            other.save(path)
            assert server.reload(str(path)) == other.version
            assert server.index_version == other.version
            # A corrupt file must not take the service down.
            bad = tmp_path / "bad.json"
            bad.write_text("{nope")
            assert server.reload(str(bad)) is None
            assert server.index_version == other.version
            client = RawClient(server.port)
            assert client.request("GET", "/healthz")[0] == 200
            client.close()
        finally:
            server.stop()


class TestNagle:
    @pytest.mark.parametrize("listener", ["create_server", "preforked_sockets"])
    def test_accepted_connection_sets_tcp_nodelay(self, intel_index, listener):
        """Both listeners ``serve`` binds have protocol 0, on which
        asyncio leaves Nagle on; every accepted connection turns it off."""
        if listener == "create_server":
            sock = socket.create_server(("127.0.0.1", 0))
        elif hasattr(socket, "SO_REUSEPORT"):
            sock = preforked_sockets("127.0.0.1", 0, 1).sockets[0]
        else:
            pytest.skip("SO_REUSEPORT not available")
        server = AsyncIntelServer(index=intel_index)
        started = threading.Event()
        thread = threading.Thread(
            target=lambda: asyncio.run(server.run_async(sock=sock, started=started)),
            daemon=True,
        )
        thread.start()
        client = None
        try:
            assert started.wait(timeout=10.0)
            client = RawClient(server.port)
            assert client.request("GET", "/healthz")[0] == 200
            (conn,) = tuple(server._live)
            accepted = conn.transport.get_extra_info("socket")
            assert accepted.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) == 1
        finally:
            if client is not None:
                client.close()
            server.request_stop()
            thread.join(timeout=5.0)
        assert not thread.is_alive()


class TestPreforkedSockets:
    def test_binds_n_listeners_on_one_port(self):
        if not hasattr(socket, "SO_REUSEPORT"):
            pytest.skip("SO_REUSEPORT not available")
        listeners = preforked_sockets("127.0.0.1", 0, 3)
        try:
            assert len(listeners.sockets) == 3 and listeners.port > 0
            assert all(s.getsockname()[1] == listeners.port
                       for s in listeners.sockets)
        finally:
            listeners.close()

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="at least one worker"):
            preforked_sockets("127.0.0.1", 0, 0)

    @pytest.mark.multiproc
    def test_forked_two_worker_round_robin(self, intel_index, tmp_path):
        import os
        import signal

        if not hasattr(socket, "SO_REUSEPORT") or not hasattr(os, "fork"):
            pytest.skip("needs SO_REUSEPORT and os.fork")
        path = tmp_path / "idx.json"
        intel_index.save(path)
        listeners = preforked_sockets("127.0.0.1", 0, 2)
        sockets, port = listeners.sockets, listeners.port
        pids = []
        for sock in sockets:
            pid = os.fork()
            if pid == 0:
                for other in sockets:
                    if other is not sock:
                        other.close()
                from repro.serve import IntelIndex

                server = AsyncIntelServer(index=IntelIndex.load(path))
                try:
                    asyncio.run(server.run_async(sock=sock, workers=2))
                finally:
                    os._exit(0)
            pids.append(pid)
        for sock in sockets:
            sock.close()
        try:
            deadline = time.monotonic() + 10.0
            ok = 0
            while ok < 8 and time.monotonic() < deadline:
                try:
                    client = RawClient(port, timeout=2.0)
                    status, _, body = client.request("GET", "/healthz")
                    client.close()
                except (ConnectionError, OSError):
                    time.sleep(0.1)
                    continue
                if status == 200:
                    assert json.loads(body)["index_version"] == \
                        intel_index.version
                    ok += 1
            assert ok == 8
        finally:
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
