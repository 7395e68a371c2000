"""Workload ``batch-build``: ``index build`` in a closed loop.

Why it exists: this is the paper's measurement loop run as a batch.  Each
build is a fresh engine -> ``run_pipeline`` -> ``PipelineResult.
build_intel_index()`` -> ``IntelIndex.save`` on one generated world, one
build at a time.  Seed and snowball classification, chain reads that miss
the cache, the ``measure.*`` stages, ``repro.risk`` signal collection and
index encoding do all the work; no HTTP serving or stream publishing
runs.

Set-up is the imports plus the median of ``SETUP_BUILDS`` warm-up builds
(engine and build, exactly as timed later).  The timed phase runs builds
back to back for ``seconds`` and at least ``MIN_BUILDS`` builds, so the
median has ten samples above it.  It is cut into ``SETUP_BUILDS``
stretches, each after one warm-up build, so the set-up median spans the
run instead of the few seconds a host slowdown lasts; the stretches
alternate between the two vCPUs (``common.cpu_plan``).  A build's clock
stops once its index file is saved and its objects are freed after
that: a build's latency is the build alone, while ``throughput_per_s``
(builds over the stretches' wall) also pays for tearing each build down.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext

from common import (
    WORK,
    Report,
    SpanWrappers,
    cpu_plan,
    layer_self_ms,
    median,
    peak_rss_kb,
    percentile,
    reset_peak_rss,
)

MIN_BUILDS = 21
SETUP_BUILDS = 5

#: Span label -> layer (a ``repro`` module) for the self-time table.
LAYERS = {
    "seed": "core.seed",
    "snowball": "core.snowball",
    "snowball.round": "core.snowball",
    "engine.map": "core.classify",
    "engine.analyze_many": "core.classify",
    "analyze.contract": "core.classify",
    "measure.victims": "analysis.measure",
    "measure.operators": "analysis.measure",
    "measure.affiliates": "analysis.measure",
    "measure.clustering": "analysis.measure",
    "risk.collect": "risk.collect",
    "serve.index.build": "serve.index.build",
    "serve.index.encode": "serve.index.encode",
    "serve.index.version": "serve.index.version",
    "runtime.atomicio.write": "runtime.atomicio.write",
    "bench.build": "bench.unattributed",
}


def differing_versions(versions: list[str], expected: str) -> int:
    """Builds whose index version is not the first build's (the output
    check: one world gives one index)."""
    return sum(1 for version in versions if version != expected)


def install_wrappers() -> SpanWrappers:
    import repro.risk.collect
    import repro.serve
    from repro.serve import IntelIndex

    wrappers = SpanWrappers()
    wrappers.wrap(repro.serve, "build_index", "serve.index.build")
    wrappers.wrap(repro.risk.collect, "collect_signals", "risk.collect")
    wrappers.wrap(IntelIndex, "to_bytes", "serve.index.encode")
    wrappers.wrap_property(IntelIndex, "version", "serve.index.version")
    return wrappers


class Builder:
    """One ``index build`` per call, optionally traced."""

    def __init__(self, world, out_path, wrappers: SpanWrappers | None) -> None:
        self.world = world
        self.out_path = out_path
        self.wrappers = wrappers

    def span(self, obs, name):
        return obs.span(name) if self.wrappers is not None else nullcontext()

    def build(self):
        """One build; returns ``(result, index, obs)`` for the caller to
        drop once its clock has stopped."""
        from repro.api import PipelineConfig, run_pipeline
        from repro.obs import Observability

        # Observability as `daas-repro` builds it: enabled, logs quiet.
        obs = Observability(log_stream=None, log_fmt="json")
        if self.wrappers is not None:
            self.wrappers.obs = obs
        with self.span(obs, "bench.build"):
            result = run_pipeline(PipelineConfig(world=self.world, obs=obs))
            index = result.build_intel_index()
            with self.span(obs, "runtime.atomicio.write"):
                index.save(self.out_path)
        return result, index, obs


def run(args, report: Report, world) -> None:
    started = time.perf_counter()
    baseline_kb = reset_peak_rss()
    import repro.api  # noqa: F401  (import time is part of set-up)
    import repro.serve  # noqa: F401

    import_s = time.perf_counter() - started
    wrappers = install_wrappers() if args.trace else None
    out_path = WORK / f"batch-index-{os.getpid()}.json"
    builder = Builder(world, out_path, wrappers)
    try:
        warm, walls, versions, records = [], [], [], []
        reads, hit_ratios, contracts, sizes = [], [], [], []
        phase_wall = 0.0
        for stretch in range(SETUP_BUILDS):
            os.sched_setaffinity(0, cpu_plan(stretch)[0])
            t0 = time.perf_counter()
            result, index, obs = builder.build()
            warm.append(time.perf_counter() - t0)
            versions.append(index.version)
            del result, index, obs

            stretch_start = time.perf_counter()
            while (time.perf_counter() - stretch_start < args.seconds / SETUP_BUILDS
                   or len(walls) < MIN_BUILDS * (stretch + 1) // SETUP_BUILDS):
                t0 = time.perf_counter()
                result, index, obs = builder.build()
                walls.append(time.perf_counter() - t0)
                versions.append(index.version)
                if wrappers is not None:
                    trace = obs.tracer.to_dicts()
                    # Run ids are second-resolution, so builds can share span
                    # ids; prefix them per build to keep one forest per build.
                    tag = f"b{len(walls)}:"
                    records.extend(
                        dict(r, span=tag + r["span"],
                             parent=tag + r["parent"] if r["parent"] else None)
                        for r in trace
                    )
                    result.engine.publish_metrics()
                    chain = obs.metrics.to_json().get("daas_chain_reads_total", {})
                    reads.append(sum(s["value"] for s in chain.get("samples", [])))
                    hit_ratios.append(result.engine.snapshot()["cache_hit_rate"])
                    contracts.append(sum(1 for r in trace if r["name"] == "analyze.contract"))
                    sizes.append(out_path.stat().st_size)
                del result, index, obs
            phase_wall += time.perf_counter() - stretch_start
        rss_mb = (peak_rss_kb() - baseline_kb) / 1024.0
    finally:
        if wrappers is not None:
            wrappers.restore()
        out_path.unlink(missing_ok=True)

    builds = len(walls)
    report.attempted += len(versions)
    differing = differing_versions(versions, versions[0])
    report.failed += differing
    report.check("index_version", differing == 0,
                 f"{len(versions) - differing}/{len(versions)} builds wrote index "
                 f"{versions[0]}")
    walls_ms = [w * 1000.0 for w in walls]

    if wrappers is None:
        report.metric("setup_s", import_s + median(warm), "s", len(warm))
        report.metric("latency_p50_ms", percentile(walls_ms, 0.5), "ms", builds)
        report.metric("throughput_per_s", builds / phase_wall, "1/s", builds)
        report.metric("peak_rss_mb", rss_mb, "MB", 1)
        return

    layers = layer_self_ms(records, lambda label: LAYERS.get(label, label))
    # The traced loop reads metrics between builds; only builds are wall.
    wall_ms = sum(walls_ms)
    attributed = sum(v for k, v in layers.items() if k != "bench.unattributed")
    unattributed = wall_ms - attributed
    report.notes.append(
        "layers (ms per build): " + ", ".join(
            f"{k}={v / builds:.2f}" for k, v in sorted(layers.items(), key=lambda kv: -kv[1]))
        + f"; e2e wall {wall_ms / builds:.2f} ms per build")
    for name, layer in (
        ("core.seed.self_ms", "core.seed"),
        ("core.snowball.self_ms", "core.snowball"),
        ("core.classify.self_ms", "core.classify"),
        ("analysis.measure.self_ms", "analysis.measure"),
        ("risk.collect.self_ms", "risk.collect"),
        ("serve.index.build_ms", "serve.index.build"),
        ("serve.index.encode_ms", "serve.index.encode"),
        ("serve.index.version_ms", "serve.index.version"),
        ("runtime.atomicio.write_ms", "runtime.atomicio.write"),
    ):
        report.metric(name, layers.get(layer, 0.0) / builds, "ms", builds)
    report.metric("core.classify.contracts", median(contracts), "count", builds)
    report.metric("runtime.cache.hit_ratio", median(hit_ratios), "ratio", builds)
    report.metric("chain.reads", median(reads), "count", builds)
    report.metric("serve.index.bytes", median(sizes), "bytes", builds)
    report.metric("bench.unattributed_ms", unattributed / builds, "ms", builds)
    report.check("attribution", unattributed <= 0.05 * wall_ms,
                 f"unattributed {unattributed / wall_ms:.2%} of e2e wall (limit 5%)")
    report.metric("trace.latency_p50_ms", percentile(walls_ms, 0.5), "ms", builds)
    report.metric("trace.throughput_per_s", builds / phase_wall, "1/s", builds)
