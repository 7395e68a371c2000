"""CLI surface of the serving layer: index build, query, serve."""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.cli import _obs, main
from repro.obs import load_trace
from repro.serve import AsyncIntelServer, IntelIndex

SCALE = ["--scale", "0.005", "--seed", "7"]


@pytest.fixture(scope="module")
def index_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("intel") / "index.json"
    assert main(["index", "build", *SCALE, "--out", str(path)]) == 0
    return path


class TestIndexBuild:
    def test_build_is_deterministic_across_invocations(self, tmp_path, index_file):
        again = tmp_path / "again.json"
        assert main(["index", "build", *SCALE, "--out", str(again)]) == 0
        assert again.read_bytes() == index_file.read_bytes()

    def test_build_reports_version_and_counts(self, capsys, tmp_path):
        out = tmp_path / "idx.json"
        assert main(["index", "build", *SCALE, "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        version = IntelIndex.load(out).version
        assert f"index {version} written" in printed
        assert "addresses=" in printed and "families=" in printed

    def test_build_from_dataset_file(self, capsys, tmp_path):
        dataset = tmp_path / "ds.json"
        assert main(["build-dataset", *SCALE, "--out", str(dataset)]) == 0
        capsys.readouterr()
        out = tmp_path / "idx.json"
        assert main(["index", "build", "--dataset", str(dataset),
                     "--out", str(out)]) == 0
        index = IntelIndex.load(out)
        assert len(index) > 0
        assert index.counts()["families"] == 0  # bare dataset: no clustering

    def test_build_missing_dataset_file_exits_1(self, capsys, tmp_path):
        assert main(["index", "build", "--dataset", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "idx.json")]) == 1
        assert "no such dataset file" in capsys.readouterr().err


class TestQuery:
    def test_flagged_address_exits_2(self, capsys, index_file):
        index = IntelIndex.load(index_file)
        operator = next(
            i.address for i in index.addresses.values() if i.role == "operator"
        )
        assert main(["query", "address", operator,
                     "--index", str(index_file)]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["role"] == "operator"

    def test_unknown_address_exits_0(self, capsys, index_file):
        assert main(["query", "address", "0x" + "00" * 20,
                     "--index", str(index_file)]) == 0
        assert json.loads(capsys.readouterr().out)["flagged"] is False

    def test_screen_mixed_batch_exits_2(self, capsys, index_file):
        index = IntelIndex.load(index_file)
        contract = next(
            i.address for i in index.addresses.values() if i.role == "contract"
        )
        assert main(["query", "screen", contract, "0x" + "11" * 20,
                     "--index", str(index_file)]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert [v["flagged"] for v in doc["verdicts"]] == [True, False]

    def test_screen_clean_batch_exits_0(self, capsys, index_file):
        assert main(["query", "screen", "0x" + "11" * 20,
                     "--index", str(index_file)]) == 0

    def test_families_and_top(self, capsys, index_file):
        assert main(["query", "families", "--index", str(index_file)]) == 0
        families = json.loads(capsys.readouterr().out)["families"]
        assert families
        assert main(["query", "top", "affiliate", "--top-k", "3",
                     "--index", str(index_file)]) == 0
        assert len(json.loads(capsys.readouterr().out)["top"]) == 3

    def test_unknown_family_exits_1(self, capsys, index_file):
        assert main(["query", "family", "No Such Family",
                     "--index", str(index_file)]) == 1
        assert "no such family" in capsys.readouterr().err

    def test_missing_index_flag_exits_1(self, capsys):
        assert main(["query", "address", "0x" + "11" * 20]) == 1
        assert "--index FILE is required" in capsys.readouterr().err

    def test_corrupt_index_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["query", "families", "--index", str(bad)]) == 1
        assert "not an intelligence index" in capsys.readouterr().err


def _child_env() -> dict[str, str]:
    """Environment for a ``python -m repro.cli`` child: this checkout's
    ``src`` on the path, stdout unbuffered so the banner is readable."""
    return {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1]),
            "PYTHONUNBUFFERED": "1"}


def _banner_port(proc: subprocess.Popen, log: Path, timeout: float = 10.0) -> int:
    """The port in serve's banner: the text after ``on http://``, up to
    the `` [`` that opens the transport label."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        text = log.read_text()
        marker = text.find("on http://")
        if marker >= 0 and " [" in text[marker:]:
            address = text[marker + len("on http://"):].split(" ", 1)[0]
            return int(address.rsplit(":", 1)[1])
        assert proc.poll() is None, f"serve exited early: {text}"
        time.sleep(0.01)
    raise AssertionError(f"no serve banner within {timeout}s: {log.read_text()}")


def _served_version(port: int) -> str | None:
    try:
        with urllib.request.urlopen(f"http://127.0.0.1:{port}/healthz",
                                    timeout=2.0) as response:
            return json.loads(response.read())["index_version"]
    except OSError:
        return None


def _await_version(port: int, version: str, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while _served_version(port) != version:
        assert time.monotonic() < deadline, f"/healthz never reported {version}"
        time.sleep(0.02)


class TestServe:
    def test_serve_without_index_exits_1(self, capsys, tmp_path):
        assert main(["serve", "--index", str(tmp_path / "absent.json")]) == 1
        assert "no such index file" in capsys.readouterr().err

    def test_serve_process_hot_reloads_and_flushes_trace_on_sigint(
        self, index_file, intel_index, tmp_path
    ):
        """``serve`` as perfbench drives it: banner port, /healthz
        version, hot reload of an atomically replaced file, and SIGINT
        ending the process with exit 0 and its trace written."""
        index_path = tmp_path / "index.json"
        index_path.write_bytes(index_file.read_bytes())
        first = IntelIndex.load(index_path).version
        assert intel_index.version != first
        trace = tmp_path / "serve-trace.jsonl"
        log = tmp_path / "serve.log"
        with open(log, "w") as out:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve",
                 "--index", str(index_path), "--port", "0",
                 "--reload-every", "0.05", "--trace-out", str(trace)],
                env=_child_env(), stdout=out, stderr=subprocess.STDOUT,
                # A test run started in the background of a shell inherits
                # an ignored SIGINT; serve must see it as perfbench does.
                preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
            )
        try:
            port = _banner_port(proc, log)
            _await_version(port, first)
            staged = tmp_path / "index.json.next"
            intel_index.save(staged)
            os.replace(staged, index_path)
            _await_version(port, intel_index.version)
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=10.0) == 0, log.read_text()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        spans = [r for r in load_trace(str(trace)) if r["name"] == "serve.request"]
        assert spans
        assert all(r["attrs"]["request_id"] for r in spans)

    def test_serve_process_sigint_closes_open_connections(
        self, index_file, tmp_path
    ):
        """SIGINT with an idle keep-alive connection and a half-sent
        request open: exit 0 promptly, and both clients read EOF."""
        log = tmp_path / "serve.log"
        with open(log, "w") as out:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve",
                 "--index", str(index_file), "--port", "0"],
                env=_child_env(), stdout=out, stderr=subprocess.STDOUT,
                preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
            )
        clients: list[socket.socket] = []
        try:
            port = _banner_port(proc, log)
            idle = socket.create_connection(("127.0.0.1", port), timeout=10.0)
            clients.append(idle)
            idle.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            answer = b""
            while b"\r\n\r\n" not in answer:
                answer += idle.recv(65536)
            head, _, body = answer.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 200")
            length = int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0])
            while len(body) < length:
                body += idle.recv(65536)
            half = socket.create_connection(("127.0.0.1", port), timeout=10.0)
            clients.append(half)
            half.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n")
            time.sleep(0.2)
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=10.0) == 0, log.read_text()
            assert idle.recv(65536) == b""
            assert half.recv(65536) == b""
        finally:
            for client in clients:
                client.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    def test_import_skips_live_ops(self):
        """``serve`` starts without loading the pipeline live-ops layer
        (alerts, watchdog, snapshots) or the stdlib ``http.server``."""
        assert _loaded_in_fresh_interpreter(
            "import repro.serve", ["http.server", "repro.obs.live"]) == []

    def test_serve_command_loads_only_the_serve_plane(self):
        """``repro.cli`` and everything ``cmd_serve``/``_serve_worker``
        import load no graph library, no stdlib HTTP client or server,
        and none of the pipeline planes ``serve`` never runs."""
        absent = ["networkx", "http.client", "http.server", "repro.webdetect",
                  "repro.stream", "repro.obs.live", "repro.risk.evaluate",
                  "repro.risk.collect", "repro.analysis.guard",
                  "repro.analysis.laundering"]
        assert _loaded_in_fresh_interpreter(
            "import asyncio, os, signal, socket, repro.cli; "
            "from repro.serve import AsyncIntelServer, IndexFormatError, "
            "IntelIndex, preforked_sockets", absent) == []

    def test_pipeline_api_loads_no_networkx(self):
        assert _loaded_in_fresh_interpreter("import repro.api", ["networkx"]) == []


def _loaded_in_fresh_interpreter(code: str, prefixes: list[str]) -> list[str]:
    """The modules under ``prefixes`` that ``code`` loads in a fresh
    interpreter."""
    probe = (f"{code}; import json, sys; print(json.dumps(sorted(m for m in "
             f"sys.modules if any(m == p or m.startswith(p + '.') "
             f"for p in {prefixes!r}))))")
    result = subprocess.run([sys.executable, "-c", probe], env=_child_env(),
                            capture_output=True, text=True, check=True)
    return json.loads(result.stdout)


class TestServeTracing:
    def test_obs_records_spans_only_with_trace_out(self):
        assert _obs(argparse.Namespace(trace_out="t.jsonl")).tracer.enabled
        assert not _obs(argparse.Namespace(trace_out="")).tracer.enabled
        assert not _obs(argparse.Namespace()).tracer.enabled

    def test_traceless_server_retains_no_spans(self, intel_index):
        obs = _obs(argparse.Namespace(trace_out=""))
        server = AsyncIntelServer(index=intel_index, obs=obs).start()
        try:
            for target in ("/healthz", "/v1/index", "/v1/families"):
                with urllib.request.urlopen(f"{server.url}{target}",
                                            timeout=5.0) as response:
                    assert response.status == 200
        finally:
            server.stop()
        assert len(obs.tracer) == 0
        assert obs.metrics.value("daas_serve_requests_total",
                                 endpoint="/healthz") == 1
