"""Workload ``stream-live``: block sealed -> tick -> publish -> visible on the serve port.

Why it exists: ``stream run`` keeps the served index fresh as blocks
seal.  Derive and publish dominate a tick (the fold is a fraction of a
millisecond), so this is the workload for "publish cost proportional to
the delta".  It also drives the serve layer through reloads (writes)
instead of reads, so a read-side gain that slows reloads shows here.

A run is ``ROUNDS`` rounds over the same tail of the chain, and every
metric pools its samples over the rounds: neighbours on a shared host
slow CPU-bound Python by up to 60% for one to fifteen seconds at a time,
so a metric taken from one stretch of the run moves with whether such a
slowdown covered that stretch.  The loop and ``serve`` trade vCPUs from
round to round (``common.cpu_plan``).  Each round:

1. set-up (``setup_s`` is the median over rounds): seed, fold to the
   tail start with the ``stream run`` default ``--delta-batch 16``, first
   full publish to the index file, and the ``serve --reload-every``
   process answering that version.  ``serve`` is spawned once, on an
   empty index, and the file is reset to that empty index (untimed)
   before each set-up: every set-up pays the reload of its first publish,
   and none pays an interpreter start, which serve-wallet's ``setup_s``
   measures;
2. fixed rate: the next ``BLOCK_RATE * seconds / ROUNDS`` blocks fall due
   on a wall-clock schedule.  The loop ticks over the blocks already due
   (at most 16) and publishes every tick, as ``stream run --out`` does; a
   poller thread watches ``/healthz`` on the serve port, and a block's
   freshness runs from its due time to the first answer with an index
   version that covers it.  The traced run reports freshness p50 and
   p90; every run prints them;
3. catch-up: ``CATCHUP_BLOCKS`` more blocks in a closed loop of 16-block
   ticks; ``latency_p50_ms`` is the median catch-up tick (tick and
   publish of 16 blocks) over every round, ``throughput_per_s`` every
   round's catch-up blocks over their summed wall.

Freshness is what a wallet sees, but it is an open-loop latency: a
slower host makes ticks longer, so more blocks wait for each tick and
each tick takes longer still.  Its ten-run spread was 15-27% in four
sets, once beyond the 0.25 bound; the catch-up tick, a closed loop,
stayed inside it (20-22% in two sets), so it is the bounded latency.

Output check: the last round's published bytes equal ``repro.stream.
batch_rebuild`` at the final watermark, every round ended on that
version, and ``serve`` answered it.
"""

from __future__ import annotations

import gc
import os
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass

from common import (
    WORK,
    BenchError,
    Report,
    ServeProcess,
    SpanWrappers,
    cpu_plan,
    layer_self_ms,
    median,
    peak_rss_kb,
    percentile,
    reset_peak_rss,
)
from loadgen import KeepAliveClient

BLOCK_RATE = 20.0
DELTA_BATCH = 16
ROUNDS = 5
#: Catch-up blocks per round: ten 16-block ticks.
CATCHUP_BLOCKS = 160
RELOAD_EVERY = "0.01"
POLL_EVERY_S = 0.005
VISIBLE_TIMEOUT_S = 15.0

LAYERS = {
    "stream.source.poll": "stream.source.poll",
    "stream.expand": "stream.expand",
    "stream.cluster": "stream.cluster",
    "stream.derive.dataset": "stream.derive.dataset",
    "stream.derive.clustering": "stream.derive.clustering",
    "serve.index.build": "serve.index.build",
    "risk.collect": "risk.collect",
    "stream.publish.diff": "stream.publish.diff",
    "stream.publish.apply": "stream.publish.apply",
    "serve.index.encode": "serve.index.encode",
    "serve.index.version": "serve.index.version",
    "runtime.atomicio.write": "runtime.atomicio.write",
    "engine.map": "core.classify",
    "engine.analyze_many": "core.classify",
    "analyze.contract": "core.classify",
    "bench.wait": "bench.wait",
    "bench.tick": "bench.unattributed",
}


@dataclass
class Tick:
    first: int  # index of its first block in the timed tail
    blocks: int
    start: float
    end: float
    version: str
    changed: int
    records: int
    size: int  # bytes of the index file after the publish


class VersionPoller:
    """Watches ``/healthz`` on one keep-alive connection; records the time
    each index version is first seen."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.seen: list[tuple[float, str]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="version-poller",
                                        daemon=True)
        self.error: BaseException | None = None

    def __enter__(self) -> "VersionPoller":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=10)

    def latest(self) -> str | None:
        return self.seen[-1][1] if self.seen else None

    def _run(self) -> None:
        import json

        last = None
        try:
            client = KeepAliveClient(self.host, self.port)
            try:
                while not self._stop.is_set():
                    code, body = client.get("/healthz")
                    now = time.perf_counter()
                    if code == 200:
                        version = json.loads(body)["index_version"]
                        if version != last:
                            self.seen.append((now, version))
                            last = version
                    time.sleep(POLL_EVERY_S)
            finally:
                client.close()
        except Exception as exc:  # surfaced by the caller after join
            self.error = exc


def install_wrappers() -> SpanWrappers:
    import repro.risk.collect
    import repro.stream.pipeline
    import repro.stream.publish
    from repro.serve import IntelIndex
    from repro.stream import DeltaSource, IncrementalExpander

    wrappers = SpanWrappers()
    wrappers.wrap(DeltaSource, "poll", "stream.source.poll")
    wrappers.wrap(IncrementalExpander, "derive_dataset", "stream.derive.dataset")
    wrappers.wrap(repro.stream.pipeline, "derive_clustering", "stream.derive.clustering")
    wrappers.wrap(repro.stream.pipeline, "build_index", "serve.index.build")
    wrappers.wrap(repro.risk.collect, "collect_signals", "risk.collect")
    wrappers.wrap(repro.stream.publish, "compute_index_delta", "stream.publish.diff")
    wrappers.wrap(repro.stream.publish, "apply_index_delta", "stream.publish.apply")
    wrappers.wrap(IntelIndex, "to_bytes", "serve.index.encode")
    wrappers.wrap_property(IntelIndex, "version", "serve.index.version")
    wrappers.wrap(repro.stream.publish, "atomic_write_bytes", "runtime.atomicio.write")
    return wrappers


def _setup(world, out_path, tail_start, server: ServeProcess):
    """Seed, fold to ``tail_start``, publish in full, and wait until
    ``server`` answers that version; returns the pipeline and seconds."""
    from repro.api import PipelineConfig
    from repro.core import ContractAnalyzer, SeedBuilder
    from repro.obs import Observability
    from repro.stream import StreamPipeline, StreamPublisher

    started = time.perf_counter()
    obs = Observability(log_stream=None, log_fmt="json")
    engine = PipelineConfig(world=world, obs=obs).make_engine()
    analyzer = ContractAnalyzer(world.rpc, world.explorer, world.oracle, engine=engine)
    with engine.stage("stream.seed"):
        seeds, _ = SeedBuilder(analyzer, world.feeds).build()
    publisher = StreamPublisher(path=str(out_path), obs=obs, staleness_bound_s=30.0)
    pipeline = StreamPipeline(world, analyzer, seeds, publisher=publisher,
                              delta_batch=DELTA_BATCH)
    folded = 0
    while folded < tail_start:
        pipeline.delta_batch = min(DELTA_BATCH, tail_start - folded)
        folded += pipeline.tick().blocks
    receipt = pipeline.publish()
    server.await_version(receipt.version, timeout=VISIBLE_TIMEOUT_S)
    return pipeline, time.perf_counter() - started


def _visible_times(ticks: list[Tick], seen, initial_version, initial_time):
    """When each tick's blocks first became visible on the serve port.

    A tick whose publish left the version unchanged is visible when its
    publish returns (the served version already covers it); otherwise at
    the first answer, after the tick began, with its version or a later
    tick's (serve may skip a version it never got to load)."""
    out: list[float | None] = []
    prev_version, prev_visible = initial_version, initial_time
    for k, tick in enumerate(ticks):
        if tick.version == prev_version:
            visible = None if prev_visible is None else max(tick.end, prev_visible)
        else:
            later = {t.version for t in ticks[k:]}
            visible = next((t for t, v in seen if t >= tick.start and v in later), None)
        out.append(visible)
        prev_version, prev_visible = tick.version, visible
    return out


def matches_rebuild(world, published: bytes, watermark_ts: int | None) -> bool:
    """The output check: published index bytes equal a cold
    ``repro.stream.batch_rebuild`` (fresh engine, fresh seeds) at the
    same watermark."""
    from repro.core import ContractAnalyzer, SeedBuilder
    from repro.runtime import ExecutionEngine
    from repro.stream import batch_rebuild

    analyzer = ContractAnalyzer(world.rpc, world.explorer, world.oracle,
                                engine=ExecutionEngine())
    seeds, _ = SeedBuilder(analyzer, world.feeds).build()
    cold = batch_rebuild(world, analyzer, seeds, watermark_ts=watermark_ts)
    return published == cold.to_bytes()


def _engine_counts(pipeline) -> tuple[float, int, int]:
    """``(uncached chain reads, cache hits, cache lookups)`` of the
    pipeline's engine so far."""
    engine = pipeline.analyzer.engine
    engine.publish_metrics()
    chain = pipeline.obs.metrics.to_json().get("daas_chain_reads_total", {})
    stats = engine.cache_stats()
    return (sum(s["value"] for s in chain.get("samples", [])),
            sum(s.hits for s in stats), sum(s.requests for s in stats))


@dataclass
class Round:
    """What one round measured."""

    setup_s: float
    ticks: list[Tick]  # fixed-rate phase
    catchup: list[Tick]
    freshness_ms: list[float]
    invisible: int  # blocks never seen on the serve port
    reloads_ms: list[float]  # publish returned -> serve answers its version
    backlog: int  # blocks due but not consumed when the schedule ended
    wall_s: float  # fixed-rate phase plus catch-up
    catchup_s: float
    final_version: str
    served_final: bool
    trace: list[dict]
    #: Traced runs: the engine's (reads, hits, lookups) over both phases.
    counts: tuple[float, int, int] = (0.0, 0, 0)


def _run_round(pipeline, server: ServeProcess, fixed: int, setup_s: float,
               traced: bool, tag: str) -> Round:
    """The fixed-rate phase and the catch-up of one round."""
    obs = pipeline.obs

    def span(name):
        return obs.span(name) if traced else nullcontext()

    def tick_and_publish(take: int, first: int) -> Tick:
        pipeline.delta_batch = take
        start = time.perf_counter()
        with span("bench.tick"):
            summary = pipeline.tick()
            receipt = pipeline.publish()
        end = time.perf_counter()
        published = pipeline.publisher.published
        records = len(published.addresses) + len(published.domains) + len(published.families)
        return Tick(first, summary.blocks, start, end, receipt.version,
                    receipt.upserts + receipt.removals, records,
                    os.path.getsize(pipeline.publisher.path))

    initial_version = pipeline.publisher.published.version
    with VersionPoller(server.host, server.port) as poller:
        deadline = time.perf_counter() + VISIBLE_TIMEOUT_S
        while poller.latest() != initial_version:
            if poller.error is not None or time.perf_counter() > deadline:
                raise BenchError(f"version poller never saw {initial_version}: "
                                 f"{poller.error!r}")
            time.sleep(POLL_EVERY_S)
        counts_before = _engine_counts(pipeline) if traced else (0.0, 0, 0)
        initial_seen = time.perf_counter()
        records_before = len(obs.tracer)

        # -- fixed-rate phase -------------------------------------------------------
        ticks: list[Tick] = []
        consumed = 0
        t0 = time.perf_counter() + 0.05
        while consumed < fixed:
            now = time.perf_counter()
            due = min(fixed, int((now - t0) * BLOCK_RATE) + 1) if now >= t0 else 0
            if due <= consumed:
                with span("bench.wait"):
                    time.sleep(max(0.0, t0 + consumed / BLOCK_RATE - now))
                continue
            tick = tick_and_publish(min(DELTA_BATCH, due - consumed), consumed)
            ticks.append(tick)
            consumed += tick.blocks
        fixed_wall = time.perf_counter() - t0
        schedule_end = t0 + (fixed - 1) / BLOCK_RATE
        backlog = fixed - sum(t.blocks for t in ticks if t.start <= schedule_end)

        # -- catch-up phase -----------------------------------------------------------
        catchup: list[Tick] = []
        c0 = time.perf_counter()
        while consumed < fixed + CATCHUP_BLOCKS:
            tick = tick_and_publish(DELTA_BATCH, consumed)
            catchup.append(tick)
            consumed += tick.blocks
        catchup_wall = time.perf_counter() - c0
        final_version = pipeline.publisher.published.version
        deadline = time.perf_counter() + VISIBLE_TIMEOUT_S
        while poller.latest() != final_version and time.perf_counter() < deadline:
            time.sleep(POLL_EVERY_S)
    if poller.error is not None:
        raise BenchError(f"version poller failed: {poller.error!r}")
    seen = poller.seen

    all_ticks = ticks + catchup
    visible = _visible_times(all_ticks, seen, initial_version, initial_seen)
    freshness, invisible = [], 0
    for tick, vis in zip(ticks, visible):
        for j in range(tick.first, tick.first + tick.blocks):
            if vis is None:
                invisible += 1
            else:
                freshness.append((vis - (t0 + j / BLOCK_RATE)) * 1000.0)
    invisible += sum(t.blocks for t, v in zip(catchup, visible[len(ticks):]) if v is None)
    versions = [initial_version] + [t.version for t in all_ticks]
    reloads = [
        (vis - tick.end) * 1000.0
        for k, (tick, vis) in enumerate(zip(all_ticks, visible))
        if vis is not None and tick.version != versions[k]
    ]
    trace = []
    counts = (0.0, 0, 0)
    if traced:
        # Each round has its own tracer and span ids can repeat across
        # tracers; prefix them per round to keep one forest per round.
        trace = [
            dict(r, span=tag + r["span"], parent=tag + r["parent"] if r["parent"] else None)
            for r in obs.tracer.to_dicts()[records_before:]
        ]
        counts = tuple(b - a for a, b in zip(counts_before, _engine_counts(pipeline)))
    return Round(setup_s, ticks, catchup, freshness, invisible, reloads, backlog,
                 fixed_wall + catchup_wall, catchup_wall, final_version,
                 bool(seen) and seen[-1][1] == final_version, trace, counts)


def run(args, report: Report, world) -> None:
    baseline_kb = reset_peak_rss()
    total = len(world.chain.blocks)
    fixed = int(BLOCK_RATE * args.seconds / ROUNDS)
    tail_start = total - fixed - CATCHUP_BLOCKS
    if fixed < 1 or tail_start <= 0:
        raise BenchError(f"world has {total} blocks, too few for a {fixed}-block phase")
    out_path = WORK / f"stream-index-{os.getpid()}.json"
    wrappers = install_wrappers() if args.trace else None
    from repro.runtime.atomicio import atomic_write_bytes
    from repro.serve import IntelIndex

    empty = IntelIndex()
    rounds: list[Round] = []
    server = pipeline = None
    extra = ["--reload-every", RELOAD_EVERY]
    trace_path = None
    if args.trace:
        trace_path = WORK / f"stream-serve-trace-{os.getpid()}.jsonl"
        extra += ["--trace-out", str(trace_path)]
    try:
        for k in range(ROUNDS):
            # Free the previous round and show serve an empty index again
            # before the next set-up is timed; set-ups are never traced.
            pipeline = None
            if wrappers is not None:
                wrappers.obs = None
            gc.collect()
            atomic_write_bytes(out_path, empty.to_bytes())
            if server is None:
                server = ServeProcess(out_path, extra=extra)
            # The loop and serve trade vCPUs from round to round.
            bench_cpus, serve_cpus = cpu_plan(k)
            os.sched_setaffinity(0, bench_cpus)
            server.pin(serve_cpus)
            server.await_version(empty.version, timeout=VISIBLE_TIMEOUT_S)
            pipeline, setup_s = _setup(world, out_path, tail_start, server)
            if wrappers is not None:
                wrappers.obs = pipeline.obs
            rounds.append(_run_round(pipeline, server, fixed, setup_s,
                                     wrappers is not None, f"r{k}:"))
        rss_mb = (peak_rss_kb() - baseline_kb) / 1024.0
        published = out_path.read_bytes()
    finally:
        if wrappers is not None:
            wrappers.restore()
        if server is not None:
            server.stop()
        out_path.unlink(missing_ok=True)
    spans_retained = 0
    if trace_path is not None:
        with open(trace_path) as handle:
            spans_retained = sum(1 for _ in handle)
        trace_path.unlink()

    blocks = ROUNDS * (fixed + CATCHUP_BLOCKS)
    invisible = sum(r.invisible for r in rounds)
    report.attempted += blocks
    report.failed += invisible
    report.check("visible", invisible == 0,
                 f"{invisible} of {blocks} blocks never visible on serve")

    # -- output check: incremental == cold rebuild at the final watermark ----------
    last = rounds[-1].final_version
    report.check("batch_rebuild",
                 matches_rebuild(world, published, pipeline.watermark_ts)
                 and all(r.final_version == last for r in rounds),
                 f"every round's last publish equals batch_rebuild at watermark "
                 f"{pipeline.watermark_ts}")
    report.check("served_final", all(r.served_final for r in rounds),
                 f"serve answers the final version {last} in every round")
    freshness = [f for r in rounds for f in r.freshness_ms]
    fresh_p50, fresh_p90 = percentile(freshness, 0.5), percentile(freshness, 0.9)
    throughput = ROUNDS * CATCHUP_BLOCKS / sum(r.catchup_s for r in rounds)
    tick_ms = [(t.end - t.start) * 1000.0 for r in rounds for t in r.catchup]
    report.notes.append(
        "rounds (set-up s / catch-up blocks per s / freshness p50 ms): " + ", ".join(
            f"{r.setup_s:.3f}/{CATCHUP_BLOCKS / r.catchup_s:.1f}/{median(r.freshness_ms):.0f}"
            for r in rounds))
    report.notes.append(f"freshness p50 {fresh_p50} ms, p90 {fresh_p90} ms "
                        f"over {len(freshness)} blocks; catch-up tick p50 "
                        f"{percentile(tick_ms, 0.5)} ms over {len(tick_ms)} ticks")

    tick_p50 = percentile(tick_ms, 0.5)
    if wrappers is None:
        report.metric("setup_s", median([r.setup_s for r in rounds]), "s", ROUNDS)
        report.metric("latency_p50_ms", tick_p50, "ms", len(tick_ms))
        report.metric("throughput_per_s", throughput, "1/s", ROUNDS * CATCHUP_BLOCKS)
        report.metric("peak_rss_mb", rss_mb, "MB", 1)
        return

    all_ticks = [t for r in rounds for t in r.ticks + r.catchup]
    fixed_ticks = sum(len(r.ticks) for r in rounds)
    n = len(all_ticks)
    layers = layer_self_ms([rec for r in rounds for rec in r.trace],
                           lambda label: LAYERS.get(label, label))
    wall_ms = sum(r.wall_s for r in rounds) * 1000.0
    attributed = sum(v for k, v in layers.items() if k != "bench.unattributed")
    unattributed = wall_ms - attributed
    report.notes.append(
        "layers (ms per tick): " + ", ".join(
            f"{k}={v / n:.2f}" for k, v in sorted(layers.items(), key=lambda kv: -kv[1]))
        + f"; e2e wall {wall_ms / n:.2f} ms per tick over {n} ticks")
    for name, layer in (
        ("stream.source.poll_ms", "stream.source.poll"),
        ("stream.expand.self_ms", "stream.expand"),
        ("stream.cluster.self_ms", "stream.cluster"),
        ("stream.derive.dataset_ms", "stream.derive.dataset"),
        ("stream.derive.clustering_ms", "stream.derive.clustering"),
        ("stream.publish.diff_ms", "stream.publish.diff"),
        ("stream.publish.apply_ms", "stream.publish.apply"),
        ("core.classify.self_ms", "core.classify"),
        ("risk.collect.self_ms", "risk.collect"),
        ("serve.index.build_ms", "serve.index.build"),
        ("serve.index.encode_ms", "serve.index.encode"),
        ("serve.index.version_ms", "serve.index.version"),
        ("runtime.atomicio.write_ms", "runtime.atomicio.write"),
    ):
        report.metric(name, layers.get(layer, 0.0) / n, "ms", n)
    # Ticks classify only the contracts new blocks bring, if any; set-ups
    # (seeding, the fold to the tail start) are untraced.
    contracts = sum(1 for r in rounds for rec in r.trace if rec["name"] == "analyze.contract")
    report.metric("core.classify.contracts", contracts / n, "count", n)
    reads, hits, lookups = (sum(r.counts[i] for r in rounds) for i in range(3))
    report.metric("chain.reads", reads / n, "count", n)
    report.metric("runtime.cache.hit_ratio", hits / max(1, lookups), "ratio", n)
    report.metric("serve.index.bytes", median([t.size for t in all_ticks]), "bytes", n)
    report.metric("obs.spans_retained", spans_retained, "count", 1)
    report.metric("stream.publish.changed_ratio",
                  sum(t.changed for t in all_ticks) / sum(t.records for t in all_ticks),
                  "ratio", n)
    report.metric("stream.blocks_per_tick", ROUNDS * fixed / fixed_ticks, "blocks",
                  fixed_ticks)
    report.metric("stream.backlog_blocks", max(r.backlog for r in rounds), "blocks", ROUNDS)
    reloads = [ms for r in rounds for ms in r.reloads_ms]
    report.metric("serve.reload_ms", median(reloads), "ms", len(reloads))
    report.metric("bench.unattributed_ms", unattributed / n, "ms", n)
    report.check("attribution", unattributed <= 0.05 * wall_ms,
                 f"unattributed {unattributed / wall_ms:.2%} of e2e wall (limit 5%)")
    report.metric("freshness_p50_ms", fresh_p50, "ms", len(freshness))
    report.metric("freshness_p90_ms", fresh_p90, "ms", len(freshness))
    report.metric("trace.latency_p50_ms", tick_p50, "ms", len(tick_ms))
    report.metric("trace.throughput_per_s", throughput, "1/s", ROUNDS * CATCHUP_BLOCKS)
