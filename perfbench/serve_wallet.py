"""Workload ``serve-wallet``: an open loop against ``serve --index FILE``.

Why it exists: wallets screen approvals against the served index.  About
70% of requests are ``GET /v1/address/{a}``, skewed 80/20 onto 20 hot
addresses; they are answered from the handler's pre-serialized response
cache, so they cost transport and telemetry.  About 30% are ``POST
/v1/screen`` of distinct approval sets of 1-16 addresses, mostly
never-seen ones; they miss that cache and run JSON parsing,
``QueryEngine``/fusion and serialization over a working set far larger
than the 4096-entry caches.  The two costs land in different percentiles
(p50 in the GET class, p90 in the screen class).  Construction and
streaming do no work here.

``setup_s`` is the median spawn-to-``/healthz`` time of
``SETUP_REPEATS`` fresh ``serve`` processes: ``SETUP_REPEATS // 2``
spares and the measured server start before the fixed-rate phase, the
other spares after it; successive spawns alternate between the two
vCPUs, and client and server trade vCPUs halfway through the fixed-rate
phase (``common.cpu_plan``).

Phases, each on a fresh ``serve`` process so server state (the span list
every request appends to, the caches) is equal across commits:

1. fixed rate: ``WARMUP`` requests back to back (a fresh server runs its
   first ~10k requests at about twice its steady p90), then ``RATE``
   requests/s for ``seconds``; ``latency_p50_ms`` and the serve
   process's ``peak_rss_mb`` (read at the end of this phase, before any
   other traffic).  ``throughput_per_s`` is the phase's requests over the
   CPU seconds ``serve`` spent in it: the rate one serve core sustains on
   this mix.  Answers per second of a saturating closed loop measure the
   same capacity, but over the seconds a run can spare they spread by
   35% between runs on a shared host; CPU time is summed over the whole
   phase.  p90 falls in the screen class; it is reported as
   ``serve.latency_p90_ms`` beside the layers, because batch-build has
   too few builds for a p90 and every end-to-end metric is every
   workload's;
2. rate search, in the traced run only: each probe is a fresh ``serve``
   given the same ``PROBE_WARMUP`` requests, then ``PROBE_REQUESTS``
   requests at one rate; geometric bisection finds the highest rate whose
   p90 stays under ``P90_LIMIT_MS`` without a growing backlog, to within
   ``SEARCH_RESOLUTION`` (``max_rate_per_s``).
"""

from __future__ import annotations

import gc
import json
import math
import os
import random
import statistics

from batch_build import Builder
from common import (
    BenchError,
    Report,
    ServeProcess,
    cached_file,
    cpu_plan,
    layer_self_ms,
    median,
    percentile,
    segmented_percentile,
)
from loadgen import (
    LoadResult,
    Request,
    closed_loop,
    encode_get,
    encode_post,
    http_get,
    open_loop,
)

#: Offered rate of the fixed-rate phase (requests/s): about a quarter of
#: the knee on a 2-vCPU host, so a noisy neighbour halving the server's
#: speed leaves it below the knee instead of queueing without bound.
RATE = 500.0
#: Fresh servers whose spawn-to-``/healthz`` time makes up ``setup_s``.
SETUP_REPEATS = 9
#: Requests sent back to back before the fixed-rate phase is timed.
WARMUP = 10_000
#: Requests sent back to back to every rate-search probe's fresh server.
PROBE_WARMUP = 3_000
#: Requests per rate-search probe.
PROBE_REQUESTS = 4_000
#: Percentiles are medians over consecutive segments of this many
#: requests: a host stall moves the segment it lands in, not the median.
SEGMENT = 1_500
#: The latency limit the highest sustainable rate must keep p90 under
#: (about four times a probe server's unloaded p90 on a 2-vCPU host).
P90_LIMIT_MS = 4.0
#: Rate search stops once the pass/fail bracket is this tight (hi/lo).
SEARCH_RESOLUTION = 1.04
#: First probe of the search, the bracket's growth factor, probe budget.
SEARCH_START = 2000.0
SEARCH_STEP = 1.25
MAX_PROBES = 8
#: Generator lateness p90 above this share of latency p50 voids the run.
LATENESS_LIMIT = 0.2
#: Every Nth request's response body is checked against the handler.
CHECK_EVERY = 25

HOT_ADDRESSES = 20
GET_SHARE = 0.7
HOT_SHARE = 0.8
KNOWN_IN_SCREEN = 0.1


def index_file(seed: int, world_loader):
    """The index ``batch-build`` writes for this seed (cached per source tree)."""
    path = cached_file("index", seed, ".json")
    if not path.exists():
        tmp = path.with_suffix(".tmp")
        Builder(world_loader(seed), tmp, None).build()
        tmp.replace(path)
    return path


def hot_set(index) -> list[str]:
    """The busiest addresses (most profit-sharing transactions): the ones
    wallets ask about most, and a hot set whose response sizes do not
    swing with the seed."""
    ranked = sorted(index.addresses.items(), key=lambda kv: (-kv[1].tx_count, kv[0]))
    return [address for address, _ in ranked[:HOT_ADDRESSES]]


def make_plan(addresses: list[str], hot: list[str], seed: int, tag: str,
              count: int) -> list[Request]:
    """``count`` requests of the wallet mix, reproducible from ``seed``/``tag``."""
    rng = random.Random(f"serve-wallet/{seed}/{tag}")
    plan = []
    for i in range(count):
        rid = f"{tag}-{i}"
        if rng.random() < GET_SHARE:
            pool = hot if rng.random() < HOT_SHARE else addresses
            target = f"/v1/address/{rng.choice(pool)}"
            plan.append(Request("address", target, encode_get(target, rid),
                                request_id=rid))
        else:
            batch = [
                rng.choice(addresses) if rng.random() < KNOWN_IN_SCREEN
                else "0x" + rng.getrandbits(160).to_bytes(20, "big").hex()
                for _ in range(rng.randint(1, 16))
            ]
            body = json.dumps({"addresses": batch}, separators=(",", ":")).encode()
            plan.append(Request("screen", "/v1/screen",
                                encode_post("/v1/screen", body, rid), body, rid))
    return plan


def classify(result, plan) -> tuple[list[float], int]:
    """Latencies (ms) of answered requests and the failure count.  GETs
    target known addresses and screens always answer, so anything but a
    2xx is a failure, as is an unanswered request."""
    latencies = []
    failed = result.unanswered
    for i in range(result.count):
        if result.done[i] <= 0.0:
            continue
        if not 200 <= result.status[i] < 300:
            failed += 1
        latencies.append(result.latency_s(i) * 1000.0)
    return latencies, failed


def mismatched_bodies(index, plan, bodies: dict[int, bytes]) -> int:
    """Sampled response bodies that differ from what ``IntelHandlerCore.
    handle`` returns in-process on ``index`` (the output check)."""
    from repro.serve import IntelHandlerCore

    core = IntelHandlerCore(index=index, max_batch=4096)
    mismatched = 0
    for i, body in bodies.items():
        req = plan[i]
        method = "POST" if req.kind == "screen" else "GET"
        if body != core.handle(method, req.target, body=req.body).body:
            mismatched += 1
    return mismatched


def lateness_ok(lateness_p90: float | None, latency_p50: float | None) -> bool:
    """The generator measured the program, not itself: its lateness p90
    stays under ``LATENESS_LIMIT`` of the latency p50."""
    return (lateness_p90 is not None and latency_p50 is not None
            and lateness_p90 <= LATENESS_LIMIT * latency_p50)


def _probe_passes(result, plan) -> bool:
    """p90 under the limit, and no growing backlog: the median of the
    last ``SEGMENT`` requests is under the limit too."""
    latencies, failed = classify(result, plan)
    if failed or len(latencies) < result.count:
        return False
    p90 = percentile(latencies, 0.9)
    return (p90 is not None and p90 <= P90_LIMIT_MS
            and median(latencies[-SEGMENT:]) <= P90_LIMIT_MS)


def rate_search(probe, start: float = SEARCH_START, step: float = SEARCH_STEP,
                resolution: float = SEARCH_RESOLUTION, max_probes: int = MAX_PROBES):
    """Highest passing rate by bracket-then-geometric-bisection.

    ``probe(rate) -> bool``.  Returns ``(rate, probes)`` where ``rate`` is
    the highest rate that passed (``None`` if none did) and ``probes`` the
    ``(rate, passed)`` sequence.
    """
    lo = hi = None
    rate = start
    probes = []
    while len(probes) < max_probes:
        passed = probe(rate)
        probes.append((rate, passed))
        if passed:
            lo = rate
        else:
            hi = rate
        if lo is None:
            rate = hi / step
        elif hi is None:
            rate = lo * step
        elif hi / lo <= resolution:
            break
        else:
            rate = math.sqrt(lo * hi)
    return lo, probes


def _server_join(trace_path, result, plan):
    """Client spans (due -> answer) joined with the server's
    ``serve.request`` spans by request id, as one span forest.
    Returns the records, the count of requests left unmatched and each
    matched request's server-side seconds."""
    from repro.obs import load_trace

    server = {}
    for record in load_trace(str(trace_path)):
        if record.get("name") != "serve.request":
            continue
        rid = (record.get("attrs") or {}).get("request_id")
        if rid:
            server[rid] = record
    records = []
    unmatched = 0
    handle_s: dict[int, float] = {}
    for i, req in enumerate(plan):
        if result.done[i] <= 0.0:
            continue
        span_id = f"client-{i}"
        joined = server.get(req.request_id)
        if joined is None:
            unmatched += 1
        name = f"bench.{req.kind}" if joined is not None else "bench.unmatched"
        records.append({"span": span_id, "parent": None, "name": name,
                        "wall_s": result.latency_s(i)})
        records.append({"span": f"late-{i}", "parent": span_id,
                        "name": "bench.lateness", "wall_s": result.lateness_s(i)})
        if joined is not None:
            records.append(dict(joined, parent=span_id))
            handle_s[i] = float(joined.get("wall_s", 0.0))
    return records, unmatched, handle_s


def _layer_of(label: str) -> str:
    return {
        "serve.request /v1/address": "serve.handle.address",
        "serve.request /v1/screen": "serve.handle.screen",
        "bench.address": "serve.transport.address",
        "bench.screen": "serve.transport.screen",
        "bench.lateness": "bench.lateness",
        "bench.unmatched": "bench.unattributed",
    }.get(label, label)


def _prom_values(text: str) -> dict[str, float]:
    """``name{labels}`` -> value from a Prometheus text exposition."""
    values = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.rpartition(" ")
            try:
                values[key] = float(value)
            except ValueError:
                continue
    return values


def _prom_sum(values: dict[str, float], name: str) -> float:
    return sum(v for k, v in values.items() if k == name or k.startswith(name + "{"))


def _fresh_server(path, version, plan_warm, extra=(), cpus=None):
    """Spawn ``serve`` (on ``cpus``), wait for the version, warm it up;
    returns the process and its set-up seconds (spawn to ``/healthz``
    answering)."""
    server = ServeProcess(path, extra=list(extra), cpus=cpus)
    try:
        setup = server.await_version(version)
        if closed_loop(server.host, server.port, plan_warm):
            raise BenchError("warm-up requests failed")
    except BaseException:
        server.stop()
        raise
    return server, setup


def run(args, report: Report, world_loader) -> None:
    from repro.serve import IntelIndex

    path = index_file(args.seed, world_loader)
    index = IntelIndex.load(path)
    version = index.version
    addresses = sorted(index.addresses)
    hot = hot_set(index)
    fixed_count = int(RATE * args.seconds)
    plan_warm = make_plan(addresses, hot, args.seed, "warm", WARMUP)
    plan = make_plan(addresses, hot, args.seed, "fixed", fixed_count)
    del index
    gc.collect()
    gc.freeze()

    setups = []
    extra = []
    trace_path = None
    if args.trace:
        trace_path = path.parent / f"serve-trace-{args.seed}.jsonl"
        extra = ["--trace-out", str(trace_path)]

    def time_spares(count: int) -> None:
        for _ in range(count):
            bench_cpus, serve_cpus = cpu_plan(len(setups))
            os.sched_setaffinity(0, bench_cpus)
            spare, setup = _fresh_server(path, version, [], cpus=serve_cpus)
            spare.stop()
            setups.append(setup)
        os.sched_setaffinity(0, cpu_plan(0)[0])

    # -- fixed rate ------------------------------------------------------------
    # Set-up is timed on SETUP_REPEATS fresh servers, the measured one among
    # them; half of the spares start after the fixed-rate phase, so the
    # median spans the run instead of the few seconds a host slowdown lasts.
    time_spares(SETUP_REPEATS // 2)
    server, setup = _fresh_server(path, version, plan_warm, extra, cpus=cpu_plan(0)[1])
    setups.append(setup)
    try:
        before = None
        if args.trace:
            before = _prom_values(http_get(server.host, server.port, "/metrics")[1].decode())
        # Client and server trade vCPUs halfway through (common.cpu_plan).
        halves = []
        cpu_start = server.cpu_s()
        for part, (lo, hi) in enumerate(((0, fixed_count // 2), (fixed_count // 2, fixed_count))):
            bench_cpus, serve_cpus = cpu_plan(part)
            os.sched_setaffinity(0, bench_cpus)
            server.pin(serve_cpus)
            halves.append(open_loop(server.host, server.port, plan[lo:hi], RATE,
                                    keep_body=lambda i, lo=lo: (lo + i) % CHECK_EVERY == 0))
        cpu_s = server.cpu_s() - cpu_start
        os.sched_setaffinity(0, cpu_plan(0)[0])
        result = LoadResult.joined(halves)
        rss_kb = server.peak_rss_kb()
        after = None
        if args.trace:
            after = _prom_values(http_get(server.host, server.port, "/metrics")[1].decode())
    finally:
        server.stop()
    time_spares(SETUP_REPEATS - len(setups))

    latencies, failed = classify(result, plan)
    report.attempted += result.count
    lateness = [result.lateness_s(i) * 1000.0 for i in range(result.count) if result.sent[i]]
    p50 = segmented_percentile(latencies, 0.5, SEGMENT)
    p90 = segmented_percentile(latencies, 0.9, SEGMENT)
    lateness_p90 = segmented_percentile(lateness, 0.9, SEGMENT)
    throughput = len(latencies) / cpu_s

    mismatched = mismatched_bodies(IntelIndex.load(path), plan, result.bodies)
    failed += mismatched
    report.failed += failed
    report.check("bodies", mismatched == 0 and len(result.bodies) > 0,
                 f"{len(result.bodies) - mismatched}/{len(result.bodies)} sampled "
                 "bodies equal IntelHandlerCore.handle")
    report.check("lateness", lateness_ok(lateness_p90, p50),
                 f"generator lateness p90 {lateness_p90} ms "
                 f"(limit {LATENESS_LIMIT:.0%} of p50 {p50} ms)")
    report.notes.append(f"serve used {cpu_s:.2f} CPU s for {len(latencies)} requests "
                        f"in {max(result.done) - result.due[0]:.2f} s")
    report.metric("serve.latency_p90_ms", p90, "ms", len(latencies))

    if not args.trace:
        report.metric("setup_s", median(setups), "s", len(setups))
        report.metric("latency_p50_ms", p50, "ms", len(latencies))
        report.metric("throughput_per_s", throughput, "1/s", len(latencies))
        report.metric("peak_rss_mb", rss_kb / 1024.0, "MB", 1)
        return
    _report_layers(report, trace_path, result, plan, latencies, lateness_p90, p50,
                   before, after)
    report.metric("trace.throughput_per_s", throughput, "1/s", len(latencies))
    report.metric("serve.index.bytes", path.stat().st_size, "bytes", 1)

    # -- rate search (traced run) -------------------------------------------------
    # The knee moves with every slowdown of a shared host (spreads in
    # README.md), so it is reported beside the layers instead of bounded.
    def probe(rate: float) -> bool:
        probe_plan = make_plan(addresses, hot, args.seed, f"probe{len(probes_run)}",
                               PROBE_REQUESTS)
        server, _ = _fresh_server(path, version, plan_warm[:PROBE_WARMUP])
        try:
            res = open_loop(server.host, server.port, probe_plan, rate)
        finally:
            server.stop()
        # Overloaded probes answering late is the search's signal, not a
        # failed operation: only the fixed-rate phase counts as attempted.
        passed = _probe_passes(res, probe_plan)
        probes_run.append((rate, passed))
        served[rate] = res.count / (max(res.done) - res.due[0])
        return passed

    probes_run: list[tuple[float, bool]] = []
    served: dict[float, float] = {}
    max_rate, _ = rate_search(probe)
    report.notes.append("rate search: " + ", ".join(
        f"{r:.0f}/s {'pass' if ok else 'fail'}" for r, ok in probes_run))
    if max_rate is None:
        raise BenchError("no probed rate met the p90 limit")
    # The rate the highest passing probe was answered at, as measured.
    report.metric("max_rate_per_s", served[max_rate], "1/s", len(probes_run))


def _report_layers(report, trace_path, result, plan, latencies, lateness_p90, p50,
                   before, after) -> None:
    """Per-layer metrics of a traced fixed-rate phase."""
    records, unmatched, handle_s = _server_join(trace_path, result, plan)
    with open(trace_path) as handle:
        spans_retained = sum(1 for _ in handle)
    trace_path.unlink(missing_ok=True)
    layers = layer_self_ms(records, _layer_of)
    n_addr = sum(1 for i, r in enumerate(plan) if r.kind == "address" and result.done[i])
    n_screen = sum(1 for i, r in enumerate(plan) if r.kind == "screen" and result.done[i])
    n = n_addr + n_screen
    report.notes.append(
        "layers (ms per request): " + ", ".join(
            f"{k}={v / n:.4f}" for k, v in sorted(layers.items(), key=lambda kv: -kv[1]))
        + f"; e2e latency {sum(latencies) / n:.4f} ms per request over {n} requests")
    report.check("attribution", unmatched == 0,
                 f"{unmatched} requests without a server span")

    def delta(name):
        return _prom_sum(after, name) - _prom_sum(before, name)

    resp_hits = delta("daas_serve_response_cache_hits")
    resp_miss = delta("daas_serve_response_cache_misses")
    q_hits = delta("daas_serve_cache_hits")
    q_miss = delta("daas_serve_cache_misses")
    screen_sizes = [result.size[i] for i, r in enumerate(plan)
                    if r.kind == "screen" and result.done[i]]
    # Per-request medians: a stalled second on a shared host moves a mean
    # over 10k requests, not the median.  Server spans are recorded in whole
    # microseconds, so the handle median is interpolated within its 1 us
    # class instead of reading the same whole microsecond run after run.
    for kind in ("address", "screen"):
        picked = [i for i in handle_s if plan[i].kind == kind]
        handle_us = [round(handle_s[i] * 1e6) for i in picked]
        transport = [
            (result.latency_s(i) - result.lateness_s(i) - handle_s[i]) * 1000.0
            for i in picked
        ]
        report.metric(f"serve.handle.{kind}_ms",
                      statistics.median_grouped(handle_us, interval=1) / 1000.0,
                      "ms", len(picked))
        report.metric(f"serve.transport.{kind}_ms", median(transport), "ms", len(picked))
    report.metric("serve.response_cache.hit_ratio",
                  resp_hits / max(1.0, resp_hits + resp_miss), "ratio", n)
    report.metric("serve.query_cache.hit_ratio", q_hits / max(1.0, q_hits + q_miss),
                  "ratio", n_screen)
    report.metric("serve.query_cache.evictions", delta("daas_serve_cache_evictions"),
                  "count", n_screen)
    report.metric("risk.fusion.verdicts", delta("daas_risk_fused_verdicts_total"),
                  "count", n_screen)
    report.metric("serve.response_bytes.screen", median(screen_sizes), "bytes",
                  len(screen_sizes))
    report.metric("obs.spans_retained", spans_retained, "count", 1)
    report.metric("bench.lateness_p90_ms", lateness_p90, "ms", result.count)
    attributed = sum(v for k, v in layers.items() if k != "bench.unattributed")
    report.metric("bench.unattributed_ms", (sum(latencies) - attributed) / n, "ms", n)
    report.metric("trace.latency_p50_ms", p50, "ms", len(latencies))
