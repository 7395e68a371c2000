"""The trace-summary flame table, including the committed golden file."""

from __future__ import annotations

import json
from pathlib import Path

from repro.cli import main
from repro.obs import aggregate_trace, render_trace_summary, summarize_file

GOLDEN = Path(__file__).parent / "golden_trace_summary.txt"


def _span(span, parent, name, wall, cpu, status="ok"):
    return {
        "run": "r1", "span": span, "parent": parent, "name": name,
        "ts": 0.0, "wall_s": wall, "cpu_s": cpu, "status": status,
    }


def _fixture_spans():
    """A miniature but representative run: seed with per-contract children,
    two snowball rounds, one erroring span, one orphan."""
    return [
        _span("s1", None, "seed", 2.0, 1.8),
        _span("s2", "s1", "analyze.contract", 0.5, 0.5),
        _span("s3", "s1", "analyze.contract", 0.7, 0.6),
        _span("s4", None, "snowball", 6.0, 5.0),
        _span("s5", "s4", "snowball.round", 3.5, 3.0),
        _span("s6", "s5", "engine.analyze_many", 3.0, 2.6),
        _span("s7", "s6", "analyze.contract", 1.5, 1.4),
        _span("s8", "s6", "analyze.contract", 1.2, 1.1, status="error"),
        _span("s9", "s4", "snowball.round", 2.0, 1.8),
        _span("s10", "s9", "engine.analyze_many", 1.0, 0.9),
        # parent id never written (dropped span) -> treated as a root
        _span("s11", "missing", "measure.victims", 1.0, 1.0),
    ]


def test_aggregate_groups_by_path():
    rows = aggregate_trace(_fixture_spans())
    by_path = {row.path: row for row in rows}

    rounds = by_path[("snowball", "snowball.round")]
    assert rounds.calls == 2
    assert rounds.wall_s == 5.5
    # self = (3.5 - 3.0) + (2.0 - 1.0)
    assert abs(rounds.self_s - 1.5) < 1e-9

    contracts = by_path[
        ("snowball", "snowball.round", "engine.analyze_many", "analyze.contract")
    ]
    assert contracts.calls == 2
    assert contracts.errors == 1

    # orphan became a root
    assert ("measure.victims",) in by_path
    assert by_path[("measure.victims",)].depth == 0


def test_ordering_heaviest_subtree_first():
    rows = aggregate_trace(_fixture_spans())
    roots = [row.name for row in rows if row.depth == 0]
    assert roots == ["snowball", "seed", "measure.victims"]
    # depth-first: children follow their parent immediately
    names = [row.name for row in rows]
    assert names.index("snowball.round") == names.index("snowball") + 1


def test_render_matches_golden_file():
    rendered = render_trace_summary(_fixture_spans())
    assert rendered == GOLDEN.read_text().rstrip("\n")


def test_render_empty_trace():
    assert "empty trace" in render_trace_summary([])


def test_top_truncation_keeps_totals():
    full = render_trace_summary(_fixture_spans())
    truncated = render_trace_summary(_fixture_spans(), top=2)
    assert len(truncated.splitlines()) < len(full.splitlines())
    # the footer still reports the whole run
    assert full.splitlines()[-1] == truncated.splitlines()[-1]


def test_cycle_in_parent_links_terminates():
    spans = [
        _span("a", "b", "x", 1.0, 1.0),
        _span("b", "a", "y", 1.0, 1.0),
    ]
    rows = aggregate_trace(spans)  # must not hang
    assert sum(row.calls for row in rows) == 2


def test_summarize_file_and_cli(tmp_path, capsys):
    path = tmp_path / "t.jsonl"
    path.write_text(
        "".join(json.dumps(s) + "\n" for s in _fixture_spans())
    )
    assert summarize_file(str(path)) == render_trace_summary(_fixture_spans())

    assert main(["trace-summary", str(path)]) == 0
    out = capsys.readouterr().out
    assert "snowball.round" in out and "% run" in out

    assert main(["trace-summary", str(tmp_path / "nope.jsonl")]) == 1


class TestServeRequestSpans:
    """Serve-plane spans all share the name ``serve.request``; the
    summary splits them by the ``endpoint`` attribute so the flame table
    reads per-route, like the latency histograms do."""

    def _serve_span(self, span_id, endpoint=None, wall=0.1):
        record = _span(span_id, None, "serve.request", wall, wall)
        if endpoint is not None:
            record["attrs"] = {"endpoint": endpoint, "method": "GET",
                               "request_id": f"req-{span_id}"}
        return record

    def test_grouped_by_endpoint(self):
        rows = aggregate_trace([
            self._serve_span("a1", "/v1/screen"),
            self._serve_span("a2", "/v1/screen"),
            self._serve_span("a3", "/v1/address"),
            self._serve_span("a4"),  # no attrs: bare label, still counted
        ])
        by_path = {row.path: row for row in rows}
        assert by_path[("serve.request /v1/screen",)].calls == 2
        assert by_path[("serve.request /v1/address",)].calls == 1
        assert by_path[("serve.request",)].calls == 1

    def test_rendered_table_reads_per_endpoint(self):
        rendered = render_trace_summary([
            self._serve_span("a1", "/v1/screen", wall=0.4),
            self._serve_span("a2", "/v1/address", wall=0.2),
        ])
        assert "serve.request /v1/screen" in rendered
        assert "serve.request /v1/address" in rendered

    def test_real_server_trace_end_to_end(self, tmp_path, capsys):
        """Spans written by a live server group by endpoint through the
        ``trace-summary`` CLI."""
        import socket as _socket

        from repro.obs import Observability
        from repro.serve import AsyncIntelServer

        obs = Observability(run_id="trace-e2e")
        server = AsyncIntelServer(obs=obs).start()  # no index: 503s still span
        try:
            for target in ("/healthz", "/v1/address/0xabc", "/healthz"):
                sock = _socket.create_connection(
                    ("127.0.0.1", server.port), timeout=5)
                sock.sendall(
                    f"GET {target} HTTP/1.1\r\nHost: t\r\n"
                    "Connection: close\r\n\r\n".encode())
                while sock.recv(65536):
                    pass
                sock.close()
        finally:
            server.stop()
        path = tmp_path / "serve-trace.jsonl"
        obs.write_trace(str(path))
        assert main(["trace-summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "serve.request /healthz" in out
        assert "serve.request /v1/address" in out


class TestCliErrors:
    """Missing / empty / truncated trace files: exit 1, one clear line on
    stderr, never a traceback."""

    def run(self, path, capsys):
        code = main(["trace-summary", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1, f"expected one error line, got: {captured.err!r}"
        assert "Traceback" not in captured.err
        return lines[0]

    def test_missing_file(self, tmp_path, capsys):
        message = self.run(tmp_path / "nope.jsonl", capsys)
        assert message == f"no such trace file: {tmp_path / 'nope.jsonl'}"

    def test_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        message = self.run(path, capsys)
        assert message == f"empty trace file: {path} (no spans written)"

    def test_truncated_file(self, tmp_path, capsys):
        path = tmp_path / "torn.jsonl"
        path.write_text(
            json.dumps(_span("s1", None, "seed", 1.0, 1.0)) + "\n"
            + '{"run": "r1", "span": "s2", "na'   # killed mid-write
        )
        message = self.run(path, capsys)
        assert "truncated or corrupt trace file" in message
        assert "line 2" in message

    def test_non_span_record(self, tmp_path, capsys):
        path = tmp_path / "odd.jsonl"
        path.write_text('[1, 2, 3]\n')
        message = self.run(path, capsys)
        assert "line 1 is not a span object" in message
