"""Plumbing shared by the perfbench workloads.

Paths and the program under test, the cached world (the benchmark's
input), the percentile rule, peak-RSS readings, the ``serve`` child
process, benchmark-side spans, and the result report whose last line
is the JSON object the harness reads.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import math
import os
import pickle
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from loadgen import http_get

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for cached inputs, index files and serve logs.
WORK = ROOT / ".perfbench"
#: Every workload runs the paper world at one tenth of its size.
SCALE = 0.1
#: A percentile is reported only with at least this many samples above it.
MIN_TAIL = 10
#: Distinct worlds: a seed runs on world ``seed % WORLDS``.  Generating a
#: world takes 10-20 s, longer than the timed phase, so a fresh world per
#: seed would cost more than the measuring; a seed's request mixes are
#: its own.
WORLDS = 4


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing source tree, serve failed)."""


def require_source() -> None:
    """Put the checkout's ``src`` first on ``sys.path``, or fail loudly."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source under {SRC} (expected src/repro)")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@functools.lru_cache(maxsize=1)
def cpu_split() -> tuple[frozenset[int], frozenset[int]]:
    """``(benchmark CPUs, serve CPUs)``: the last CPU this process may use
    runs every ``serve`` child and the others run the benchmark process, so
    client and server never share a core.  Left to itself the scheduler
    put a woken ``serve`` on the load generator's busy core, and each
    ``sendall`` waited out the request's handling (p50 0.30 ms, against
    0.02 ms pinned).  With one CPU both share it.  The first call, before
    anything is pinned, fixes the split."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return frozenset(cpus), frozenset(cpus)
    return frozenset(cpus[:-1]), frozenset(cpus[-1:])


def cpu_plan(part: int) -> tuple[frozenset[int], frozenset[int]]:
    """``(benchmark CPUs, serve CPUs)`` for the ``part``-th part of a run
    (a stretch, a half, a round, a spawn): the two sides of
    :func:`cpu_split` trade places on odd parts.  On a shared host each
    vCPU's speed drifts on its own (a fixed loop read 23 ms on one and
    33 ms on the other, then 34 and 29 a minute later), so a figure taken
    on one vCPU moves with it; alternating makes every run sample both."""
    bench, serve = cpu_split()
    return (bench, serve) if part % 2 == 0 else (serve, bench)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    return env


@functools.lru_cache(maxsize=1)
def source_digest() -> str:
    """Content hash of the program's source tree (the cache key's code part)."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cache_path(kind: str, seed: int, suffix: str) -> Path:
    world = seed % WORLDS
    key = hashlib.sha256(f"{kind}|{world}|{SCALE}|{source_digest()}".encode())
    return WORK / f"{kind}-{world}-{key.hexdigest()[:16]}{suffix}"


def load_world(seed: int):
    """World ``seed % WORLDS``, generated once per (world, scale, source
    tree) in a child process and reloaded from its pickle on every later
    run."""
    WORK.mkdir(exist_ok=True)
    path = _cache_path("world", seed, ".pkl")
    if not path.exists():
        subprocess.run(
            [sys.executable, str(HERE / "worldgen.py"), "--seed", str(seed % WORLDS),
             "--scale", str(SCALE), "--out", str(path)],
            env=child_env(), cwd=ROOT, check=True, timeout=170,
        )
    with open(path, "rb") as handle:
        world = pickle.load(handle)
    # The world is read-only input: move it out of the collector's reach so
    # full collections during timing scan only the program's own objects.
    gc.collect()
    gc.freeze()
    return world


def cached_file(kind: str, seed: int, suffix: str) -> Path:
    """Path of a cached input file of ``seed``'s world (the caller creates it)."""
    WORK.mkdir(exist_ok=True)
    return _cache_path(kind, seed, suffix)


# -- statistics ---------------------------------------------------------------


def percentile(samples, q: float) -> float | None:
    """Nearest-rank ``q`` quantile, or ``None`` when fewer than
    :data:`MIN_TAIL` samples lie above it (p50 needs 20, p90 needs 100)."""
    n = len(samples)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_TAIL:
        return None
    return sorted(samples)[rank - 1]


def median(samples) -> float:
    return statistics.median(samples)


def segmented_percentile(samples, q: float, size: int) -> float | None:
    """Median over consecutive ``size``-sample segments of each segment's
    ``q`` quantile.  A host that stalls this VM for a second or two moves
    the percentile of the segments it lands in, not the median of them."""
    values = [
        percentile(samples[start:start + size], q)
        for start in range(0, len(samples) - size + 1, size)
    ]
    if not values or any(v is None for v in values):
        return None
    return statistics.median(values)


# -- memory -------------------------------------------------------------------


def _status_kb(pid: int | str, field_name: str) -> int:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(field_name + ":"):
                return int(line.split()[1])
    raise BenchError(f"/proc/{pid}/status has no {field_name}")


def reset_peak_rss() -> int:
    """Reset this process's peak RSS to its current RSS; returns it in kB."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")
    return _status_kb("self", "VmRSS")


def peak_rss_kb(pid: int | str = "self") -> int:
    return _status_kb(pid, "VmHWM")


# -- machine context ----------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()[:12]
        return ref[:12]
    except OSError:
        return None


def machine_context(workload: str, seed: int, traced: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "world": seed % WORLDS,
        "scale": SCALE,
        "traced": traced,
        "nproc": os.cpu_count(),
        "cpus_bench": sorted(cpu_split()[0]),
        "cpus_serve": sorted(cpu_split()[1]),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": _commit(),
        "source_sha256": source_digest()[:16],
    }


# -- the serve child process --------------------------------------------------


class ServeProcess:
    """``daas-repro serve`` in its own process (its own GIL and core)."""

    def __init__(self, index_path: Path, extra: list[str] = (), cpus=None):
        WORK.mkdir(exist_ok=True)
        self.log_path = WORK / f"serve-{os.getpid()}.log"
        self.started = time.perf_counter()
        self._log = open(self.log_path, "w")
        own = os.sched_getaffinity(0)
        # The child inherits the spawning thread's CPUs, its threads too.
        os.sched_setaffinity(0, cpus or cpu_split()[1])
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--index", str(index_path),
                 "--port", "0", *extra],
                env=child_env(), cwd=ROOT, stdout=self._log, stderr=subprocess.STDOUT,
            )
        finally:
            os.sched_setaffinity(0, own)
        self.host = "127.0.0.1"
        self.port = self._await_port()

    def pin(self, cpus) -> None:
        """Move every thread of the process onto ``cpus``."""
        for tid in os.listdir(f"/proc/{self.proc.pid}/task"):
            try:
                os.sched_setaffinity(int(tid), cpus)
            except ProcessLookupError:  # the thread ended meanwhile
                pass

    def _await_port(self, timeout: float = 30.0) -> int:
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            text = self.log_path.read_text()
            marker = text.find("on http://")
            if marker >= 0 and " [" in text[marker:]:
                address = text[marker + len("on http://"):].split(" ", 1)[0]
                return int(address.rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        tail = self.log_path.read_text()[-500:]
        self.stop()  # removes the log
        raise BenchError(f"serve did not start: {tail}")

    def await_version(self, version: str, timeout: float = 30.0) -> float:
        """Poll ``/healthz`` until it reports ``version``; returns the
        seconds since the process was spawned."""
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            try:
                code, body = http_get(self.host, self.port, "/healthz")
            except OSError:
                code, body = 0, b""
            if code == 200 and json.loads(body).get("index_version") == version:
                return time.perf_counter() - self.started
            time.sleep(0.002)
        raise BenchError(f"serve never answered index version {version}")

    def peak_rss_kb(self) -> int:
        return peak_rss_kb(self.proc.pid)

    def cpu_s(self) -> float:
        """CPU seconds (user + system, every thread, ended ones too) the
        process has used, in whole clock ticks (10 ms: 0.2% of a phase)."""
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> int:
        """SIGINT (clean shutdown, flushes --trace-out), then wait."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()
        self.log_path.unlink(missing_ok=True)
        return self.proc.returncode


# -- benchmark-side spans -----------------------------------------------------


class SpanWrappers:
    """Spans around the program's public calls, installed for traced runs.

    Each wrapper opens a span on the tracer of ``self.obs`` (the current
    run's :class:`~repro.obs.Observability`), so benchmark spans nest with
    the program's own spans in one forest.  Nothing is added inside the
    program: the wrappers replace module or class attributes and
    :meth:`restore` puts the originals back.
    """

    def __init__(self) -> None:
        self.obs = None
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        wrappers = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            obs = wrappers.obs
            if obs is None:
                return original(*args, **kwargs)
            with obs.span(name):
                return original(*args, **kwargs)

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def wrap_property(self, owner: type, attr: str, name: str) -> None:
        """Like :meth:`wrap`, for a property's getter."""
        original = owner.__dict__[attr]
        getter = original.fget
        wrappers = self

        def traced(instance):
            obs = wrappers.obs
            if obs is None:
                return getter(instance)
            with obs.span(name):
                return getter(instance)

        setattr(owner, attr, property(traced, doc=original.__doc__))
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def layer_self_ms(records, layer_of) -> dict[str, float]:
    """Total self time (ms) per layer over span records, computed with
    ``repro.obs.summary.aggregate_trace`` (the ``trace-summary`` code).
    ``layer_of(label)`` maps a span label to its layer name."""
    from repro.obs.summary import aggregate_trace

    totals: dict[str, float] = {}
    for row in aggregate_trace(records):
        layer = layer_of(row.name)
        totals[layer] = totals.get(layer, 0.0) + row.self_s * 1000.0
    return totals


# -- the result ---------------------------------------------------------------


@dataclass
class Report:
    """Metrics, output checks and operation counts of one run."""

    context: dict
    metrics: dict[str, dict] = field(default_factory=dict)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def metric(self, name: str, value, unit: str, samples: int) -> None:
        if value is None:
            raise BenchError(
                f"{name}: too few samples ({samples}) for the percentile rule"
            )
        self.metrics[name] = {"value": float(value), "unit": unit, "samples": samples}

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append((name, bool(ok), detail))
        return ok

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks) and self.failed == 0

    def result_metrics(self, expected: list[tuple[str, str]]) -> dict[str, dict]:
        """The result line's metrics: exactly ``expected``, in its order.

        Every workload reports every metric of the manifest.  A per-layer
        metric of a layer this workload never calls reads 0: its trace
        holds no span of that layer and its counters never moved.  An
        end-to-end metric that was not measured, or a unit that differs
        from the manifest's, is an error in the benchmark.
        """
        out = {}
        for name, unit in expected:
            m = self.metrics.get(name)
            if m is None and not self.context["traced"]:
                raise BenchError(f"end-to-end metric {name} was not measured")
            if m is None:
                m = self.metrics[name] = {"value": 0.0, "unit": unit, "samples": 0}
            if m["unit"] != unit:
                raise BenchError(f"{name} is in {m['unit']}, the manifest says {unit}")
            out[name] = {"value": m["value"], "unit": unit}
        return out

    def emit(self, expected: list[tuple[str, str]]) -> int:
        """Print the human report, then the result JSON as the last line."""
        metrics = self.result_metrics(expected)
        print(f"perfbench {self.context['workload']}: "
              + json.dumps(self.context, sort_keys=True))
        for note in self.notes:
            print(f"  {note}")
        for name, ok, detail in self.checks:
            print(f"  check {name}: {'ok' if ok else 'FAILED'} {detail}")
        print(f"  operations: attempted={self.attempted} failed={self.failed}")
        width = max((len(n) for n in self.metrics), default=10)
        for name, m in self.metrics.items():
            if name not in metrics:
                where = "  (report only)"
            elif m["samples"] == 0:
                where = "  (not exercised)"
            else:
                where = ""
            print(f"  {name:<{width}}  {m['value']:>14.6g} {m['unit']:<6} "
                  f"(n={m['samples']}){where}")
        line = {
            "correct": self.correct,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": metrics,
        }
        sys.stdout.flush()
        print(json.dumps(line), flush=True)
        return 0 if self.correct else 1


def manifest(traced: bool) -> list[tuple[str, str]]:
    """``(name, unit)`` of the metrics a run reports: ``BENCHMARK.json``'s
    per-layer metrics when traced, its end-to-end metrics otherwise."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer" if traced else "end_to_end"]]
