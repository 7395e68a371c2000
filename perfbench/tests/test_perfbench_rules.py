"""The benchmark's own rules: percentiles, lateness accounting, rate
search and the result line."""

from __future__ import annotations

import socket
import threading
import time

import pytest

from common import MIN_TAIL, BenchError, Report, manifest, percentile, segmented_percentile
from loadgen import Request, encode_get, open_loop
from serve_wallet import LATENESS_LIMIT, lateness_ok, rate_search


class TestPercentileRule:
    def test_p50_needs_twenty_samples(self):
        assert percentile(list(range(19)), 0.5) is None
        assert percentile(list(range(20)), 0.5) == 9

    def test_p90_needs_a_hundred_samples(self):
        assert percentile(list(range(99)), 0.9) is None
        assert percentile(list(range(100)), 0.9) == 89

    def test_ten_samples_lie_above_every_reported_percentile(self):
        for n in (20, 57, 100, 345):
            for q in (0.5, 0.9, 0.99):
                value = percentile(list(range(n)), q)
                if value is not None:
                    assert sum(1 for x in range(n) if x > value) >= MIN_TAIL

    def test_empty(self):
        assert percentile([], 0.5) is None

    def test_segmented_is_median_of_segment_percentiles(self):
        calm = [1.0] * 100
        stalled = [50.0] * 100
        samples = calm + stalled + calm
        assert segmented_percentile(samples, 0.9, 100) == 1.0
        assert percentile(samples, 0.9) == 50.0

    def test_segmented_refuses_short_segments(self):
        assert segmented_percentile(list(range(250)), 0.9, 50) is None


class _SlowServer:
    """A keep-alive HTTP stub answering each request after ``delay_s``."""

    def __init__(self, delay_s: float) -> None:
        self.delay_s = delay_s
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen()
        self.port = self.sock.getsockname()[1]
        self.threads = []
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self):
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            thread = threading.Thread(target=self._serve, args=(conn,), daemon=True)
            thread.start()
            self.threads.append(thread)

    def _serve(self, conn):
        buf = b""
        with conn:
            while True:
                while b"\r\n\r\n" not in buf:
                    chunk = conn.recv(4096)
                    if not chunk:
                        return
                    buf += chunk
                _, buf = buf.split(b"\r\n\r\n", 1)
                time.sleep(self.delay_s)
                conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")

    def close(self):
        self.sock.close()


def _plan(n):
    return [Request("address", "/x", encode_get("/x", f"r{i}"), request_id=f"r{i}")
            for i in range(n)]


class TestLatenessAccounting:
    def test_due_times_follow_the_rate_and_latency_counts_from_due(self):
        server = _SlowServer(0.0)
        try:
            result = open_loop("127.0.0.1", server.port, _plan(200), rate=1000.0)
        finally:
            server.close()
        assert result.unanswered == 0
        gaps = [b - a for a, b in zip(result.due, result.due[1:])]
        assert all(abs(g - 0.001) < 1e-9 for g in gaps)
        for i in range(result.count):
            assert result.sent[i] >= result.due[i]
            assert result.latency_s(i) >= result.lateness_s(i) >= 0.0

    def test_a_stalled_server_charges_the_requests_queued_behind_it(self):
        # 5 ms per answer at 1000/s offered on one connection: the queue
        # grows, so latency from due time grows while lateness does not.
        server = _SlowServer(0.005)
        try:
            result = open_loop("127.0.0.1", server.port, _plan(60), rate=1000.0,
                               connections=1)
        finally:
            server.close()
        assert result.unanswered == 0
        assert result.latency_s(59) > result.latency_s(0) + 0.1
        late = [result.lateness_s(i) for i in range(result.count)]
        assert percentile(late, 0.5) < 0.005

    def test_lateness_guard(self):
        assert lateness_ok(0.01, 0.5)
        assert not lateness_ok(LATENESS_LIMIT * 0.5 + 1e-6, 0.5)
        assert not lateness_ok(None, 0.5)


class TestRateSearch:
    @pytest.mark.parametrize("knee", [700.0, 1333.0, 2000.0, 2450.0, 9000.0])
    def test_finds_the_knee_of_a_synthetic_latency_curve(self, knee):
        def probe(rate):
            # Queueing-style p90: flat, then blowing up near capacity.
            p90_ms = 0.5 / max(1e-9, 1.0 - rate / (knee * 1.3))
            return rate < knee * 1.3 and p90_ms <= 0.5 / (1 - 1 / 1.3)

        found, probes = rate_search(probe, resolution=1.04, max_probes=12)
        assert found is not None
        assert knee / 1.04 <= found <= knee
        assert len(probes) <= 12

    def test_none_when_nothing_passes(self):
        found, probes = rate_search(lambda rate: False, max_probes=5)
        assert found is None and len(probes) == 5


class TestResultLine:
    def test_manifest_names_each_metric_once(self):
        names = [name for name, _ in manifest(False) + manifest(True)]
        assert "setup_s" in names
        assert len(names) == len(set(names))

    def test_an_unmeasured_end_to_end_metric_is_an_error(self):
        report = Report({"workload": "w", "traced": False})
        report.metric("setup_s", 1.5, "s", 5)
        with pytest.raises(BenchError):
            report.result_metrics([("setup_s", "s"), ("latency_p50_ms", "ms")])

    def test_a_layer_the_workload_never_calls_reads_zero(self):
        report = Report({"workload": "w", "traced": True})
        report.metric("serve.reload_ms", 2.5, "ms", 10)
        assert report.result_metrics([("serve.reload_ms", "ms"), ("chain.reads", "count")]) == {
            "serve.reload_ms": {"value": 2.5, "unit": "ms"},
            "chain.reads": {"value": 0.0, "unit": "count"},
        }

    def test_units_follow_the_manifest(self):
        report = Report({"workload": "w", "traced": True})
        report.metric("serve.reload_ms", 0.0025, "s", 10)
        with pytest.raises(BenchError):
            report.result_metrics([("serve.reload_ms", "ms")])
