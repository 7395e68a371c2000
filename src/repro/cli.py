"""Command-line interface: ``daas-repro <command>``.

Commands:

* ``build-dataset`` — build the simulated world, run seed + snowball, and
  write the released-style dataset JSON.
* ``analyze``       — run the §6 measurement suite and print the findings.
* ``cluster``       — run §7 family clustering and print Table 2.
* ``webdetect``     — run the §8 website-detection pipeline and Table 4.
* ``report``        — everything above as one paper-vs-measured report.
* ``trace-summary`` — per-stage flame table from a ``--trace-out`` file.
* ``live-status``   — health of a run (its ``--serve-metrics`` URL or
  ``--snapshot-out`` file) or the per-worker + fleet table of a query
  service (its URL or ``--status-dir``); exit 0 ok / 2 degraded / 1
  error.
* ``index build``   — condense a dataset (or a fresh pipeline run) into
  the read-optimized, byte-stable intelligence index.
* ``stream run``    — continuous ingestion: tail the chain (and, with
  ``--with-domains``, the CT log) behind a checkpointed cursor, maintain
  the snowball/clustering state incrementally, and publish versioned
  index deltas with a bounded-staleness freshness contract
  (``docs/streaming.md``).
* ``serve``         — the ``/v1`` query service over a prebuilt index:
  one asyncio keep-alive worker, or ``--serve-workers N`` for a
  pre-forked SO_REUSEPORT fleet, with rate limiting, ETags, batch
  screening, and zero-drop hot reload (``docs/serving.md``; sizing in
  ``docs/capacity.md``).
* ``query``         — one-shot lookups against an index file; exits 0
  when clean, 2 when the subject is known DaaS, 1 on error (the same
  0/2/1 convention as ``live-status``).

Shared flag groups are defined once as argparse *parent parsers* (world,
runtime, observability, live-ops, resilience, checkpoint) and attached to
each subcommand that supports them, so ``build-dataset --help`` and
``webdetect --help`` stay in lockstep.

Observability flags (``build-dataset`` and ``webdetect``):
``--log-json`` streams structured events to stderr, ``--trace-out``
writes the span trace as JSON lines, ``--metrics-out`` writes the
metrics registry (Prometheus text format, or JSON for ``.json`` paths).
Live-operations flags (``build-dataset``, ``webdetect`` and ``stream
run``): ``--serve-metrics PORT`` serves ``/metrics`` + ``/healthz`` +
``/readyz`` + ``/statusz`` during the run, ``--snapshot-out FILE``
appends registry snapshots every ``--snapshot-every`` seconds,
``--alerts FILE`` evaluates declarative alert rules at each tick.
Fault-tolerance flags (same three commands):
``--retries`` enables the retry/breaker layer, ``--fault-plan`` injects
a committed failure drill, and ``build-dataset --checkpoint FILE`` /
``--resume`` make a killed run restartable with byte-identical output.
None of them changes results — see ``docs/observability.md``,
``docs/operations.md`` and ``docs/reliability.md``.
"""

from __future__ import annotations

import argparse
import sys

# ``repro.api``, ``repro.obs`` and ``repro.runtime`` load with the ``repro``
# package itself (its ``__init__`` imports ``repro.api``), and several
# commands print tables.  Every other plane is imported inside the commands
# that run it, so ``serve`` loads no website detection, streaming,
# laundering or risk-evaluation code.
from repro.analysis.reporting import fmt_month, fmt_pct, fmt_usd, render_table
from repro.api import PipelineConfig, run_pipeline
from repro.obs import Observability
from repro.runtime import (
    CheckpointError,
    CircuitBreaker,
    FaultInjector,
    FaultPlan,
    FaultyFacade,
    ResilientFacade,
    RetryPolicy,
    ShardWorkerLost,
    UpstreamError,
)
from repro.runtime.resilience import CRAWLER_READ_METHODS

__all__ = ["main"]

#: Exit code for a run abandoned on upstream failure (retries exhausted /
#: breaker open); distinct from 1 (bad input) so wrappers can retry it.
EXIT_UPSTREAM_FAILURE = 3


# -- shared flag groups (argparse parent parsers) ----------------------------


def _world_parent() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    g = p.add_argument_group("world")
    g.add_argument("--scale", type=float, default=0.05,
                   help="world size relative to the paper (default 0.05)")
    g.add_argument("--seed", type=int, default=2025, help="world seed")
    return p


def _int_at_least(minimum: int):
    """argparse ``type`` for an int flag with a floor: a smaller value
    exits 2 with an error line naming the flag, like any malformed one."""
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse's "invalid int value" wording
    return parse


def _runtime_parent() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    g = p.add_argument_group("runtime")
    g.add_argument("--no-cache", action="store_true",
                   help="disable the runtime analysis/read caches (baseline mode)")
    g.add_argument("--shards", type=_int_at_least(0), default=0,
                   help="partition construction into N deterministic shards "
                        "(0 = off, or one shard per process when --processes "
                        "is set; results are identical for any shard count)")
    g.add_argument("--processes", type=_int_at_least(1), default=1,
                   help="worker processes executing shard tasks (1 = run "
                        "shards inline on this process)")
    g.add_argument("--stats", action="store_true",
                   help="print runtime stats: stage wall time, txs/s, cache hit rates")
    return p


def _obs_parent() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    g = p.add_argument_group("observability")
    g.add_argument("--log-json", action="store_true",
                   help="stream structured log events to stderr as JSON lines")
    g.add_argument("--trace-out", default="", metavar="FILE",
                   help="write the span trace as JSON lines (read it back "
                        "with `daas-repro trace-summary FILE`)")
    g.add_argument("--metrics-out", default="", metavar="FILE",
                   help="write the metrics registry (Prometheus text "
                        "format; JSON when FILE ends in .json)")
    return p


def _live_parent() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    g = p.add_argument_group("live operations")
    g.add_argument("--serve-metrics", type=int, default=None, metavar="PORT",
                   help="serve /metrics, /healthz, /readyz and /statusz on "
                        "this port for the duration of the run (0 = pick "
                        "an ephemeral port)")
    g.add_argument("--snapshot-out", default="", metavar="FILE",
                   help="append timestamped registry snapshots to this "
                        "JSONL file (read back with `daas-repro "
                        "live-status FILE`)")
    g.add_argument("--snapshot-every", type=float, default=1.0, metavar="SECS",
                   help="snapshot/alert-evaluation cadence in seconds "
                        "(default 1.0; needs --snapshot-out)")
    g.add_argument("--alerts", default="", metavar="FILE",
                   help="JSON/TOML alert-rule file, evaluated each "
                        "snapshot tick and surfaced on /statusz")
    g.add_argument("--stage-deadline", type=float, default=300.0, metavar="SECS",
                   help="watchdog: seconds of stage silence before "
                        "health degrades (default 300)")
    return p


def _resilience_parent() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    g = p.add_argument_group("fault tolerance (docs/reliability.md)")
    g.add_argument("--retries", type=int, default=0, metavar="N",
                   help="total attempts per upstream read (0 = resilience "
                        "layer off; 3 is a sensible default under faults)")
    g.add_argument("--retry-timeout", type=float, default=None, metavar="SECS",
                   help="per-call wall-clock budget; slower reads count as "
                        "transient timeouts")
    g.add_argument("--breaker-threshold", type=int, default=5, metavar="N",
                   help="consecutive failures before an upstream's circuit "
                        "opens (default 5)")
    g.add_argument("--breaker-reset", type=float, default=30.0, metavar="SECS",
                   help="seconds an open circuit waits before a half-open "
                        "trial call (default 30)")
    g.add_argument("--fault-plan", default="", metavar="FILE",
                   help="JSON fault plan injected into the simulated "
                        "upstreams (failure drill; seeded, replayable)")
    return p


def _index_parent() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    g = p.add_argument_group("intelligence index (docs/serving.md)")
    g.add_argument("--index", default="", metavar="FILE",
                   help="prebuilt intelligence index file "
                        "(write one with `daas-repro index build`)")
    return p


def _checkpoint_parent() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    g = p.add_argument_group("checkpoint/resume")
    g.add_argument("--checkpoint", default="", metavar="FILE",
                   help="persist construction progress to this file after "
                        "the seed stage and every snowball round")
    g.add_argument("--resume", action="store_true",
                   help="restore the --checkpoint file and continue; the "
                        "finished dataset is byte-identical to an "
                        "uninterrupted run")
    return p


# -- flag interpretation ------------------------------------------------------


def _obs(args: argparse.Namespace) -> Observability:
    """Observability handle from the CLI flags; quiet unless asked.  Spans
    are recorded only when ``--trace-out`` will write them: nothing else
    reads them, and a long-running ``serve`` would otherwise keep one per
    request until the tracer's ``max_spans`` cap."""
    obs = Observability(
        log_stream=sys.stderr if getattr(args, "log_json", False) else None,
        log_fmt="json",
    )
    obs.tracer.enabled = bool(getattr(args, "trace_out", ""))
    return obs


def _retry_policy(args: argparse.Namespace) -> RetryPolicy | None:
    retries = getattr(args, "retries", 0)
    if not retries:
        return None
    return RetryPolicy(
        attempts=retries,
        timeout_s=getattr(args, "retry_timeout", None),
        seed=getattr(args, "seed", 0),
    )


def _fault_plan(args: argparse.Namespace) -> FaultPlan | None:
    """The --fault-plan file, parsed; ValueError (one line) on a bad file."""
    path = getattr(args, "fault_plan", "")
    return FaultPlan.load(path) if path else None


def _config(args: argparse.Namespace, obs: Observability | None = None) -> PipelineConfig:
    """PipelineConfig from the parsed flags (commands without a flag group
    fall back to its defaults via getattr)."""
    return PipelineConfig(
        scale=args.scale,
        seed=args.seed,
        shards=getattr(args, "shards", 0),
        processes=getattr(args, "processes", 1),
        cache_enabled=not getattr(args, "no_cache", False),
        obs=obs if obs is not None else _obs(args),
        retry=_retry_policy(args),
        breaker_threshold=getattr(args, "breaker_threshold", 5),
        breaker_reset_s=getattr(args, "breaker_reset", 30.0),
        fault_plan=_fault_plan(args),
        checkpoint_path=getattr(args, "checkpoint", "") or None,
        resume=getattr(args, "resume", False),
    )


def _live(args: argparse.Namespace, obs: Observability, engine=None):
    """Started LiveOps bundle from the CLI flags, or None when no live
    flag is set.  A bad alert file or a port that cannot be bound raises
    ValueError with a one-line message (callers print it, exit 1)."""
    port = getattr(args, "serve_metrics", None)
    snapshot_out = getattr(args, "snapshot_out", "")
    alerts_path = getattr(args, "alerts", "")
    if port is None and not snapshot_out and not alerts_path:
        return None
    from repro.obs.live import LiveOps, load_alert_rules

    rules = None
    if alerts_path:
        rules = load_alert_rules(alerts_path)  # ValueError -> one line, caller
    live = LiveOps(
        obs,
        serve_port=port,
        snapshot_path=snapshot_out or None,
        snapshot_every=getattr(args, "snapshot_every", 1.0),
        alert_rules=rules,
        stage_deadline_s=getattr(args, "stage_deadline", 300.0),
        before_tick=engine.publish_metrics if engine is not None else None,
    )
    try:
        live.start()
    except OSError as exc:
        raise ValueError(f"cannot bind {live.server.host}:{port}: {exc}") from None
    if live.server is not None:
        print(f"live endpoints on {live.server.url} "
              "(/metrics /healthz /readyz /statusz)")
    return live


def _write_obs(args: argparse.Namespace, obs: Observability, engine=None) -> None:
    """Flush --trace-out / --metrics-out after a command's run."""
    metrics_out = getattr(args, "metrics_out", "")
    trace_out = getattr(args, "trace_out", "")
    if metrics_out:
        if engine is not None:
            engine.publish_metrics()
        obs.write_metrics(metrics_out)
        print(f"metrics written to {metrics_out}")
    if trace_out:
        spans = obs.write_trace(trace_out)
        print(f"trace written to {trace_out} ({spans} spans)")


def _upstream_failure(args: argparse.Namespace, exc: UpstreamError) -> int:
    """One-line abandonment report; points at --resume when it applies."""
    print(f"run abandoned on upstream failure: {exc}", file=sys.stderr)
    checkpoint = getattr(args, "checkpoint", "")
    if checkpoint:
        print(f"progress is checkpointed in {checkpoint}; rerun with "
              "--resume once the upstream recovers", file=sys.stderr)
    return EXIT_UPSTREAM_FAILURE


# -- commands -----------------------------------------------------------------


def cmd_build_dataset(args: argparse.Namespace) -> int:
    try:
        config = _config(args)
    except ValueError as exc:  # bad --fault-plan file
        print(str(exc), file=sys.stderr)
        return 1
    engine = config.make_engine()
    config.engine = engine
    try:
        live = _live(args, engine.obs, engine)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    try:
        result = run_pipeline(config)
    except CheckpointError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except UpstreamError as exc:
        return _upstream_failure(args, exc)
    except ShardWorkerLost as exc:
        print(f"run abandoned: {exc}", file=sys.stderr)
        if getattr(args, "checkpoint", ""):
            print("rerun the same command with --resume to reuse the "
                  "completed shards", file=sys.stderr)
        return EXIT_UPSTREAM_FAILURE
    finally:
        if live is not None:
            live.stop()
    _print_collection(result)
    info = result.resume_info
    if info is not None and info.resumed:
        print(f"\nresumed from {info.path} (stage {info.restored_stage}, "
              f"{info.rounds_restored} rounds restored)")
    if getattr(args, "stats", False):
        print()
        print(engine.render_stats())
    if args.out:
        result.dataset.save(args.out)
        print(f"\ndataset written to {args.out}")
    _write_obs(args, engine.obs, engine)
    return 0


def _print_collection(result) -> None:
    print(render_table(
        ["stage"] + list(result.seed_summary),
        [
            ["seed"] + [str(v) for v in result.seed_summary.values()],
            ["expanded"] + [str(v) for v in result.dataset.summary().values()],
        ],
        title="Dataset collection (Table 1)",
    ))


def cmd_analyze(args: argparse.Namespace) -> int:
    _print_findings(run_pipeline(_config(args)))
    return 0


def _print_findings(result) -> None:
    vr, orr, ar = result.victim_report, result.operator_report, result.affiliate_report
    print(f"victim accounts:        {vr.victim_count}")
    print(f"total losses:           {fmt_usd(vr.total_loss_usd)}")
    print(f"losses below $1,000:    {fmt_pct(vr.share_below(1000))} (paper 83.5%)")
    print(f"losses below $100:      {fmt_pct(vr.share_below(100))} (paper 50.9%)")
    print(f"repeat victims:         {len(vr.repeat_victims())}")
    print(f"  simultaneous signing: {fmt_pct(vr.simultaneous_share())} (paper 78.1%)")
    print(f"  unrevoked approvals:  {fmt_pct(result.victim_analyzer.unrevoked_share(vr))} (paper 28.6%)")
    print(f"operator profits:       {fmt_usd(orr.total_profit_usd)} (paper $23.1M at scale 1.0)")
    print(f"  head for 75.7%:       {fmt_pct(orr.head_fraction_for(0.757))} of operators (paper 25.0%)")
    print(f"affiliate profits:      {fmt_usd(ar.total_profit_usd)} (paper $111.9M at scale 1.0)")
    print(f"  above $1,000:         {fmt_pct(ar.share_above(1000))} (paper 50.2%)")
    print(f"  above $10,000:        {fmt_pct(ar.share_above(10000))} (paper 22.0%)")
    print(f"  head for 75.6%:       {fmt_pct(ar.head_fraction_for(0.756))} (paper 7.4%)")
    print(f"  reach > 10 victims:   {fmt_pct(ar.reach_share_above(10))} (paper 26.1%)")
    print(f"  single operator:      {fmt_pct(ar.operator_count_shares().get(1, 0.0))} (paper 60.4%)")
    print(f"  at most 3 operators:  {fmt_pct(ar.share_with_at_most(3))} (paper 90.2%)")


def cmd_cluster(args: argparse.Namespace) -> int:
    _print_families(run_pipeline(_config(args)))
    return 0


def _print_families(result) -> None:
    rows = []
    for family in result.clustering.sorted_by_victims():
        rows.append([
            family.name,
            str(len(family.contracts)),
            str(len(family.operators)),
            str(len(family.affiliates)),
            str(len(family.victims)),
            fmt_usd(family.total_profit_usd),
            fmt_month(family.first_tx_ts),
            fmt_month(family.last_tx_ts),
        ])
    print(render_table(
        ["family", "contracts", "operators", "affiliates", "victims", "profits", "start", "end"],
        rows,
        title=f"DaaS families (Table 2) — {result.clustering.family_count} clusters",
    ))
    print(f"\ntop-3 profit share: {fmt_pct(result.clustering.top_families_profit_share(3))}"
          " (paper 93.9%)")


def _resilient_crawler(args: argparse.Namespace, web, obs: Observability):
    """The web crawler, wrapped in the same fault-injection and
    retry/breaker layers the chain upstreams get (layering: retry →
    faults → crawler)."""
    from repro.webdetect.crawler import Crawler

    crawler = Crawler(web)
    plan = _fault_plan(args)
    if plan is not None:
        injector = FaultInjector(plan, obs=obs)
        crawler = FaultyFacade(crawler, "crawler", CRAWLER_READ_METHODS, injector)
    policy = _retry_policy(args)
    if policy is not None:
        breaker = CircuitBreaker(
            "crawler",
            failure_threshold=getattr(args, "breaker_threshold", 5),
            reset_timeout_s=getattr(args, "breaker_reset", 30.0),
            obs=obs,
        )
        crawler = ResilientFacade(
            crawler, "crawler", CRAWLER_READ_METHODS, policy,
            breaker=breaker, obs=obs,
        )
    return crawler


def cmd_webdetect(args: argparse.Namespace) -> int:
    obs = _obs(args)
    try:
        live = _live(args, obs)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    try:
        return _run_webdetect(args, obs)
    except UpstreamError as exc:
        return _upstream_failure(args, exc)
    finally:
        if live is not None:
            live.stop()


def _run_webdetect(args: argparse.Namespace, obs: Observability) -> int:
    from repro.webdetect import (
        PhishingSiteDetector,
        WebWorldParams,
        build_fingerprint_db,
        build_web_world,
    )

    web = build_web_world(WebWorldParams(scale=args.scale, seed=args.seed))
    try:
        crawler = _resilient_crawler(args, web, obs)
    except ValueError as exc:  # bad --fault-plan file
        print(str(exc), file=sys.stderr)
        return 1
    if getattr(args, "streaming", False):
        from repro.webdetect import (
            FAMILY_TOOLKIT_FILES,
            FingerprintDB,
            StreamingSiteDetector,
            ToolkitFingerprint,
            content_digest,
        )
        from repro.webdetect.webworld import _variant_content

        db = FingerprintDB()
        for family, names in FAMILY_TOOLKIT_FILES.items():
            db.add(ToolkitFingerprint(
                family=family,
                files=frozenset(
                    (n, content_digest(_variant_content(family, n, 0))) for n in names
                ),
            ))
        reports, stats = StreamingSiteDetector(web, db, obs=obs, crawler=crawler).run()
        print(f"streaming mode: {stats.fingerprints_harvested} variants harvested, "
              f"{stats.late_confirmations} late confirmations")
    else:
        db = build_fingerprint_db(web)
        reports, stats = PhishingSiteDetector(web, db, obs=obs, crawler=crawler).run()
    _print_sites(db, reports, stats)
    _write_obs(args, obs)
    return 0


def _print_sites(db, reports, stats) -> None:
    from repro.webdetect import tld_distribution

    print(f"fingerprints:     {len(db)} (paper 867 at scale 1.0)")
    print(f"CT entries:       {stats.ct_entries}")
    print(f"suspicious:       {stats.suspicious}")
    print(f"confirmed:        {stats.confirmed} (paper 32,819 at scale 1.0)")
    tld = tld_distribution(reports)
    rows = [[t, fmt_pct(s)] for t, s in list(tld.items())[:10]]
    print(render_table(["TLD", "share"], rows, title="\nTop-10 TLDs (Table 4)"))


def cmd_validate(args: argparse.Namespace) -> int:
    from repro.core import ContractAnalyzer, DatasetValidator

    result = run_pipeline(_config(args))
    analyzer = ContractAnalyzer(result.world.rpc, result.world.explorer, result.world.oracle)
    report = DatasetValidator(analyzer).validate(result.dataset)
    print(f"accounts reviewed:       {report.accounts_reviewed:,}")
    print(f"transactions reviewed:   {report.transactions_reviewed:,}")
    print(f"false positives:         {len(report.false_positives)}")
    print(f"reviewer disagreements:  {report.disagreements}")
    print(f"estimated man-hours:     {report.estimated_man_hours:.0f} "
          "(paper: 584 at full scale)")
    return 0 if not report.false_positives else 1


def cmd_export(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.core.release import (
        build_report_bundle,
        export_accounts_csv,
        export_transactions_csv,
    )

    result = run_pipeline(_config(args))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "daas_dataset.json").write_text(result.dataset.to_json())
    (out / "accounts.csv").write_text(export_accounts_csv(result.dataset))
    (out / "transactions.csv").write_text(export_transactions_csv(result.dataset))
    bundle = build_report_bundle(result.dataset)
    bundle.save(out / "community_report.json")
    print(f"wrote dataset + CSVs + community report ({bundle.account_count:,} "
          f"accounts) to {out}/")
    return 0


def cmd_laundering(args: argparse.Namespace) -> int:
    from repro.analysis.laundering import LaunderingAnalyzer

    result = run_pipeline(_config(args))
    report = LaunderingAnalyzer(result.context).analyze()
    totals = report.total_by_category()
    print(f"traced routes:            {len(report.routes):,}")
    print(f"accounts reaching sinks:  {len(report.accounts_reaching_sinks()):,}")
    print(f"mean hops to cash-out:    {report.mean_hops():.2f}")
    for category, wei in sorted(totals.items(), key=lambda kv: -kv[1]):
        print(f"  via {category:<9} {wei / 10**18:,.1f} ETH")
    print(f"untraced (funds parked):  {len(report.untraced_accounts):,} accounts")
    return 0


def _detect_sites(args: argparse.Namespace):
    """The §8 detector on the flags' web world: ``(fingerprint DB, site
    reports, stats)``."""
    from repro.webdetect import (
        PhishingSiteDetector,
        WebWorldParams,
        build_fingerprint_db,
        build_web_world,
    )

    web = build_web_world(WebWorldParams(scale=args.scale, seed=args.seed))
    db = build_fingerprint_db(web)
    return (db, *PhishingSiteDetector(web, db).run())


def cmd_eval_risk(args: argparse.Namespace) -> int:
    from repro.risk import evaluate_stage_combinations

    result = run_pipeline(_config(args))
    site_reports = None
    if getattr(args, "with_domains", False):
        _, site_reports, _ = _detect_sites(args)
    report = evaluate_stage_combinations(
        result, site_reports=site_reports, max_hops=args.max_hops
    )
    print(report.render())
    improved = report.improved_combos()
    if not improved:
        print("no multi-stage combination beat the single-stage baseline",
              file=sys.stderr)
        return 2
    best = max(improved, key=lambda c: (c.precision, c.recall))
    print(f"\nbaseline precision {report.baseline.precision:.4f}; best fused "
          f"combination {best.label} reaches {best.precision:.4f} "
          f"(recall {best.recall:.4f}) — {len(improved)} combination(s) improved")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """The build-dataset, analyze, cluster and webdetect sections from one
    pipeline run and one detector run (plus the markdown report)."""
    result = run_pipeline(_config(args))
    _print_collection(result)
    if args.out:
        result.dataset.save(args.out)
        print(f"\ndataset written to {args.out}")
    print()
    _print_findings(result)
    print()
    _print_families(result)
    print()
    db, reports, stats = _detect_sites(args)
    _print_sites(db, reports, stats)
    print()
    if args.md:
        from repro.analysis.document import render_markdown_report

        text = render_markdown_report(result, reports, stats)
        with open(args.md, "w") as handle:
            handle.write(text)
        print(f"markdown report written to {args.md}")
    return 0


def cmd_trace_summary(args: argparse.Namespace) -> int:
    from repro.obs import load_trace, render_trace_summary

    try:
        records = load_trace(args.trace)
    except FileNotFoundError:
        print(f"no such trace file: {args.trace}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot read trace file {args.trace}: {exc.strerror}", file=sys.stderr)
        return 1
    except ValueError as exc:  # truncated / corrupt JSON line
        print(str(exc), file=sys.stderr)
        return 1
    if not records:
        print(f"empty trace file: {args.trace} (no spans written)", file=sys.stderr)
        return 1
    print(render_trace_summary(records, top=args.top or None))
    return 0


def cmd_live_status(args: argparse.Namespace) -> int:
    from repro.obs.live import (
        LiveStatusError,
        load_status_source,
        render_status,
        status_state,
    )

    try:
        doc = load_status_source(args.source)
    except LiveStatusError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    state = status_state(doc, stale_after_s=args.stale_after)
    print(render_status(doc, state))
    return 0 if state.state == "ok" else 2


# -- serving layer (docs/serving.md) ------------------------------------------


def _load_index(args: argparse.Namespace):
    """The --index file as an IntelIndex; one-line ValueError on a bad
    or missing file (callers print it and exit 1)."""
    from repro.serve import IntelIndex

    path = getattr(args, "index", "")
    if not path:
        raise ValueError(
            "--index FILE is required (write one with `daas-repro index build`)"
        )
    return IntelIndex.load(path)


def cmd_index_build(args: argparse.Namespace) -> int:
    from repro.serve import build_index

    if args.dataset:
        from repro.core import DaaSDataset

        try:
            dataset = DaaSDataset.load(args.dataset)
        except FileNotFoundError:
            print(f"no such dataset file: {args.dataset}", file=sys.stderr)
            return 1
        except ValueError as exc:
            print(f"cannot parse dataset {args.dataset}: {exc}", file=sys.stderr)
            return 1
        # A bare dataset has no clustering/victim context; the index
        # still carries roles, profits, ratios, evidence and provenance.
        index = build_index(dataset)
    else:
        result = run_pipeline(_config(args))
        site_reports = None
        if getattr(args, "with_domains", False):
            _, site_reports, _ = _detect_sites(args)
        laundering_report = None
        if getattr(args, "with_laundering", False):
            laundering_report = result.trace_laundering()
        index = result.build_intel_index(
            site_reports=site_reports,
            laundering_report=laundering_report,
            signals=not getattr(args, "no_signals", False),
        )
    index.save(args.out)
    counts = index.counts()
    print(f"index {index.version} written to {args.out}")
    print("  " + "  ".join(f"{kind}={n}" for kind, n in counts.items()))
    return 0


class _StreamLiveBridge:
    """``before_tick`` hook for stream runs: flush engine metrics, then
    evaluate the publisher's staleness bound, so ``/healthz`` and
    ``/statusz`` degrade while the loop is wedged — not only when it
    next publishes."""

    def __init__(self, engine, publisher) -> None:
        self._engine = engine
        self._publisher = publisher

    def publish_metrics(self) -> None:
        self._engine.publish_metrics()
        self._publisher.check_staleness()


def cmd_stream_run(args: argparse.Namespace) -> int:
    from repro.core import ContractAnalyzer, SeedBuilder
    from repro.stream import StreamPipeline, StreamPublisher
    from repro.webdetect import WebWorldParams, build_fingerprint_db, build_web_world

    obs = _obs(args)
    try:
        config = _config(args, obs)
    except ValueError as exc:  # bad --fault-plan file
        print(str(exc), file=sys.stderr)
        return 1
    world = config.resolved_world()
    engine = config.make_engine()
    analyzer = ContractAnalyzer(
        world.rpc, world.explorer, world.oracle, engine=engine
    )

    web = db = None
    if getattr(args, "with_domains", False):
        web = build_web_world(WebWorldParams(scale=args.scale, seed=args.seed))
        db = build_fingerprint_db(web)

    publisher = StreamPublisher(
        path=args.out or None,
        obs=obs,
        staleness_bound_s=args.staleness_bound,
    )
    try:
        live = _live(args, obs, _StreamLiveBridge(engine, publisher))
    except ValueError as exc:  # bad --alerts file
        print(str(exc), file=sys.stderr)
        return 1
    if live is not None:
        publisher.health = live.status

    manager = engine.checkpoint
    try:
        with engine.stage("stream.seed"):
            seeds, _ = SeedBuilder(analyzer, world.feeds).build()
        pipeline = StreamPipeline(
            world,
            analyzer,
            seeds,
            web=web,
            db=db,
            publisher=publisher,
            checkpoint=manager,
            delta_batch=args.delta_batch,
            signals=not getattr(args, "no_signals", False),
        )
        if args.resume and manager is not None:
            state = manager.load()
            if state is not None and not pipeline.restore(state):
                print(
                    f"checkpoint {manager.path} holds stage "
                    f"{state.get('stage')!r}, not a stream checkpoint",
                    file=sys.stderr,
                )
                return 1
        summary = pipeline.run(
            max_ticks=args.max_ticks, publish_every=args.publish_every
        )
    except CheckpointError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except UpstreamError as exc:
        return _upstream_failure(args, exc)
    finally:
        if live is not None:
            live.stop()

    print(f"stream drained: {summary.ticks} ticks, {summary.blocks} blocks, "
          f"{summary.txs} txs, {summary.entries} CT entries")
    print(f"  admitted {summary.admitted_contracts} contracts + "
          f"{summary.new_accounts} accounts; {summary.family_merges} family "
          f"merges; {summary.sites_confirmed} sites confirmed")
    print(f"  {summary.publishes} publishes; index {summary.final_version} "
          f"written to {args.out}")
    if manager is not None:
        print(f"  stream position checkpointed in {manager.path}; rerun "
              "with --resume to continue from the watermark")
    _write_obs(args, obs, engine)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """One run path for one worker or N: bind, print the banner, then run
    each worker's event loop in the foreground of its own process.

    One worker gets a plain listener and runs in this process; N workers
    get N ``SO_REUSEPORT`` listeners bound here (resolving port 0 once)
    and one forked child each.  The kernel spreads accepted connections
    across the listeners: no shared state, no coordination (topology
    notes in ``docs/serving.md``, sizing in ``docs/capacity.md``).
    """
    import os
    import signal
    import socket

    from repro.serve import IndexFormatError, preforked_sockets

    try:
        index = _load_index(args)
    except (IndexFormatError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    workers = args.serve_workers
    if workers < 1:
        print("--serve-workers must be >= 1", file=sys.stderr)
        return 1
    if workers > 1 and not hasattr(os, "fork"):
        print("--serve-workers needs os.fork (POSIX only)", file=sys.stderr)
        return 1
    try:
        if workers == 1:
            sockets = [socket.create_server((args.host, args.port))]
            port = sockets[0].getsockname()[1]
        else:
            listeners = preforked_sockets(args.host, args.port, workers)
            sockets, port = listeners.sockets, listeners.port
    except OSError as exc:
        print(f"cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 1
    transport = "asyncio" if workers == 1 else f"asyncio x{workers} workers"
    print(f"serving index {index.version} on http://{args.host}:{port} "
          f"[{transport}] "
          "(/v1/address /v1/domain /v1/screen /v1/families /v1/index "
          "/healthz /readyz /statusz /metrics)", flush=True)
    if workers == 1:
        return _serve_worker(args, index, sockets[0], worker_id=0, workers=1)
    pids: list[int] = []
    for worker_id, sock in enumerate(sockets):
        pid = os.fork()
        if pid != 0:
            pids.append(pid)
            continue
        for other in sockets:
            if other is not sock:
                other.close()
        os._exit(_serve_worker(args, index, sock, worker_id, workers))
    for sock in sockets:
        sock.close()
    try:
        for pid in pids:
            os.waitpid(pid, 0)
    except KeyboardInterrupt:
        print("\nshutting down workers")
        for pid in pids:
            try:
                os.kill(pid, signal.SIGINT)
            except ProcessLookupError:
                pass
        for pid in pids:
            try:
                os.waitpid(pid, 0)
            except (ChildProcessError, KeyboardInterrupt):
                pass
    return 0


def _serve_worker(
    args: argparse.Namespace, index, sock, worker_id: int, workers: int
) -> int:
    """Serve on ``sock`` in this process's main thread until SIGINT, then
    flush ``--trace-out`` / ``--metrics-out``.

    Under ``--serve-workers N`` the per-worker outputs get a ``.wN``
    suffix so N processes never write the same file.  The status dir is
    deliberately shared: each worker writes its own ``worker-N.json``
    snapshot there, which is what makes any worker's ``/statusz`` answer
    for the whole fleet.
    """
    import asyncio

    from repro.serve import AsyncIntelServer

    if workers > 1:
        args = argparse.Namespace(**vars(args))
        for attr in ("metrics_out", "trace_out", "access_log"):
            value = getattr(args, attr)
            if value:
                setattr(args, attr, f"{value}.w{worker_id}")
    obs = _obs(args)
    server = AsyncIntelServer(
        index=index,
        obs=obs,
        host=args.host,
        rate_limit=args.rate_limit,
        burst=args.burst,
        max_batch=args.max_batch,
        max_body_bytes=args.max_body_bytes,
        read_timeout_s=args.read_timeout,
        access_log_path=args.access_log or None,
        access_log_sample=args.access_log_sample,
        slow_request_ms=args.slow_request_ms,
        worker_id=worker_id,
        status_dir=args.status_dir or None,
        status_every_s=args.status_every,
    )
    try:
        asyncio.run(server.run_async(
            sock=sock,
            reload_path=args.index if args.reload_every > 0 else None,
            reload_every=args.reload_every,
            workers=workers,
        ))
    except KeyboardInterrupt:
        pass  # asyncio.run already cancelled the loop and shut it down
    finally:
        _write_obs(args, obs)
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    import json as _json

    from repro.serve import IndexFormatError, QueryEngine

    try:
        index = _load_index(args)
    except (IndexFormatError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    engine = QueryEngine(index)
    what, subjects = args.what, args.subject

    def emit(doc) -> None:
        print(_json.dumps(doc, indent=2))

    if what == "address":
        if len(subjects) != 1:
            print("usage: daas-repro query address 0x... --index FILE", file=sys.stderr)
            return 1
        intel = engine.lookup_address(subjects[0])
        if intel is None:
            emit({"address": subjects[0], "flagged": False})
            return 0
        emit(intel.to_payload())
        return 2
    if what == "domain":
        if len(subjects) != 1:
            print("usage: daas-repro query domain NAME --index FILE", file=sys.stderr)
            return 1
        intel = engine.lookup_domain(subjects[0])
        if intel is None:
            emit({"domain": subjects[0], "verdict": "unknown"})
            return 0
        emit(intel.to_payload())
        return 2
    if what == "screen":
        if not subjects:
            print("usage: daas-repro query screen 0x... [0x... ...] --index FILE",
                  file=sys.stderr)
            return 1
        verdicts = engine.screen_batch(subjects)
        emit({"verdicts": [v.to_payload() for v in verdicts]})
        return 2 if any(v.flagged for v in verdicts) else 0
    if what == "family":
        if len(subjects) != 1:
            print("usage: daas-repro query family NAME --index FILE", file=sys.stderr)
            return 1
        record = engine.family_summary(subjects[0])
        if record is None:
            print(f"no such family: {subjects[0]}", file=sys.stderr)
            return 1
        emit(record.to_payload())
        return 0
    if what == "families":
        emit({"families": [f.to_payload() for f in engine.families()]})
        return 0
    if what == "top":
        role = subjects[0] if subjects else "affiliate"
        try:
            rows = engine.top_k(role, k=args.top_k)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 1
        emit({"role": role, "top": [i.to_payload() for i in rows]})
        return 0
    print(f"unknown query kind: {what}", file=sys.stderr)
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="daas-repro",
        description="Reproduction of the IMC'25 Drainer-as-a-Service measurement study",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    world = _world_parent()
    runtime = _runtime_parent()
    obs_flags = _obs_parent()
    live = _live_parent()
    resilience = _resilience_parent()
    checkpoint = _checkpoint_parent()

    p = sub.add_parser(
        "build-dataset",
        help="seed + snowball, optionally write JSON",
        parents=[world, runtime, obs_flags, live, resilience, checkpoint],
    )
    p.add_argument("--out", default="", help="path for the dataset JSON")
    p.set_defaults(fn=cmd_build_dataset)

    p = sub.add_parser("analyze", help="run the §6 measurement suite", parents=[world])
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("cluster", help="run §7 family clustering (Table 2)",
                       parents=[world])
    p.set_defaults(fn=cmd_cluster)

    p = sub.add_parser(
        "webdetect",
        help="run the §8 website detector (Table 4)",
        parents=[world, obs_flags, live, resilience],
    )
    p.add_argument("--streaming", action="store_true",
                   help="continuous mode with in-stream fingerprint growth")
    p.set_defaults(fn=cmd_webdetect)

    p = sub.add_parser("validate", help="run the §5.2 two-reviewer validation protocol",
                       parents=[world])
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("export", help="write dataset JSON, CSVs and the community report",
                       parents=[world])
    p.add_argument("--out-dir", default="release", help="output directory")
    p.set_defaults(fn=cmd_export)

    p = sub.add_parser("laundering", help="trace cash-out routes to mixers/bridges (§8.1)",
                       parents=[world])
    p.set_defaults(fn=cmd_laundering)

    p = sub.add_parser(
        "eval-risk",
        help="score stage-combination precision/recall against ground "
             "truth (docs/risk.md); exit 2 when fusion beats nothing",
        parents=[world],
    )
    p.add_argument("--with-domains", action="store_true",
                   help="also run the §8 website detector so the "
                        "preparation stage has alerts to score")
    p.add_argument("--max-hops", type=int, default=4, metavar="N",
                   help="laundering trace depth (default 4)")
    p.set_defaults(fn=cmd_eval_risk)

    p = sub.add_parser("report", help="full paper-vs-measured report", parents=[world])
    p.add_argument("--out", default="", help="path for the dataset JSON")
    p.add_argument("--md", default="", help="also write a markdown report here")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser(
        "trace-summary",
        help="per-stage flame table from a trace file written with --trace-out",
    )
    p.add_argument("trace", help="trace JSONL file")
    p.add_argument("--top", type=int, default=0,
                   help="show only the first N rows (0 = all)")
    p.set_defaults(fn=cmd_trace_summary)

    p = sub.add_parser(
        "live-status",
        help="health of a run or a serve fleet; exit 0 ok / 2 degraded "
             "/ 1 error",
    )
    p.add_argument("source",
                   help="a --serve-metrics or serve URL (http://host:port), "
                        "a --snapshot-out file or a serve --status-dir")
    p.add_argument("--stale-after", type=float, default=15.0, metavar="SECS",
                   help="a serve worker snapshot older than this degrades "
                        "the fleet state (default 15; 0 disables)")
    p.set_defaults(fn=cmd_live_status)

    index_flag = _index_parent()

    p = sub.add_parser(
        "index",
        help="build the read-optimized intelligence index (docs/serving.md)",
    )
    isub = p.add_subparsers(dest="action", required=True)
    b = isub.add_parser(
        "build",
        help="condense a dataset (or a fresh pipeline run) into an index file",
        parents=[world],
    )
    b.add_argument("--dataset", default="", metavar="FILE",
                   help="build from this dataset JSON instead of running "
                        "the pipeline (roles/profits/evidence only — no "
                        "family or domain enrichment)")
    b.add_argument("--out", default="intel_index.json", metavar="FILE",
                   help="path for the index file (default intel_index.json)")
    b.add_argument("--with-domains", action="store_true",
                   help="also run the §8 website detector and fold the "
                        "confirmed domains into the index")
    b.add_argument("--with-laundering", action="store_true",
                   help="also trace §8.1 cash-out routes and attach "
                        "laundering stage signals to the index records")
    b.add_argument("--no-signals", action="store_true",
                   help="skip repro.risk stage-signal collection (emits "
                        "the pre-fusion index shape byte-for-byte)")
    b.set_defaults(fn=cmd_index_build)

    p = sub.add_parser(
        "stream",
        help="continuous ingestion: incremental snowball, incremental "
             "clustering, versioned index deltas (docs/streaming.md)",
    )
    ssub = p.add_subparsers(dest="action", required=True)
    r = ssub.add_parser(
        "run",
        help="drain the chain/CT backlog through the streaming plane",
        parents=[world, runtime, obs_flags, live, resilience, checkpoint],
    )
    r.add_argument("--delta-batch", type=int, default=16, metavar="N",
                   help="blocks folded per tick (default 16; the published "
                        "index is byte-identical for any batch size)")
    r.add_argument("--publish-every", type=int, default=1, metavar="N",
                   help="publish an index delta every N ticks (0 = once "
                        "after draining; default 1)")
    r.add_argument("--staleness-bound", type=float, default=30.0,
                   metavar="SECS",
                   help="served-index age beyond which health (/healthz, "
                        "/statusz) degrades (default 30; 0 disables)")
    r.add_argument("--max-ticks", type=int, default=0, metavar="N",
                   help="stop after N ticks (0 = drain the backlog)")
    r.add_argument("--out", default="intel_stream.json", metavar="FILE",
                   help="published index file, atomically replaced on "
                        "every publish (default intel_stream.json)")
    r.add_argument("--with-domains", action="store_true",
                   help="also tail the CT log and fold confirmed phishing "
                        "domains into the index")
    r.add_argument("--no-signals", action="store_true",
                   help="skip repro.risk stage-signal collection")
    r.set_defaults(fn=cmd_stream_run)

    p = sub.add_parser(
        "serve",
        help="serve /v1 address/domain/screen/family queries from an index",
        parents=[index_flag, obs_flags],
    )
    p.add_argument("--host", default="127.0.0.1", help="bind host")
    p.add_argument("--port", type=int, default=8321,
                   help="bind port (0 = pick an ephemeral port; default 8321)")
    p.add_argument("--rate-limit", type=float, default=0.0, metavar="N",
                   help="per-client token-bucket rate in requests/s "
                        "(0 = unlimited)")
    p.add_argument("--burst", type=float, default=None, metavar="N",
                   help="token-bucket burst size (default: max(1, rate))")
    p.add_argument("--reload-every", type=float, default=0.0, metavar="SECS",
                   help="watch the --index file and hot-reload it on "
                        "change, without dropping in-flight requests "
                        "(0 = off)")
    p.add_argument("--serve-workers", type=int, default=1, metavar="N",
                   help="pre-fork N async worker processes sharing one "
                        "SO_REUSEPORT port (POSIX only; default 1)")
    p.add_argument("--max-batch", type=int, default=4096, metavar="N",
                   help="address cap per /v1/screen POST or "
                        "/v1/address?batch= request (default 4096)")
    p.add_argument("--max-body-bytes", type=int, default=1 << 20, metavar="N",
                   help="request-body byte cap; larger POSTs get 413 "
                        "(default 1048576)")
    p.add_argument("--read-timeout", type=float, default=30.0, metavar="SECS",
                   help="per-request deadline: a client whose next "
                        "request (head and body) has not fully arrived "
                        "this long after the connection opened or its "
                        "previous answer is disconnected (default 30)")
    p.add_argument("--access-log", default="", metavar="FILE",
                   help="append a structured JSONL access log here "
                        "(per-worker files get a .wN suffix under "
                        "--serve-workers)")
    p.add_argument("--access-log-sample", type=int, default=1, metavar="N",
                   help="log every Nth request (1 = all, 0 = only slow "
                        "or errored requests, which are always captured)")
    p.add_argument("--slow-request-ms", type=float, default=500.0,
                   metavar="MS",
                   help="requests over this duration are always written "
                        "to the access log in full detail (default 500)")
    p.add_argument("--status-dir", default="", metavar="DIR",
                   help="directory for per-worker metrics snapshots; "
                        "enables the fleet-wide /statusz and /metrics "
                        "views and `daas-repro live-status DIR`")
    p.add_argument("--status-every", type=float, default=5.0, metavar="SECS",
                   help="how often each worker refreshes its snapshot in "
                        "--status-dir (default 5)")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "query",
        help="one-shot index lookups; exit 0 clean / 2 flagged / 1 error",
        parents=[index_flag],
    )
    p.add_argument("what",
                   choices=["address", "domain", "screen", "family",
                            "families", "top"],
                   help="what to look up")
    p.add_argument("subject", nargs="*",
                   help="address(es), domain, family name, or top-k role")
    p.add_argument("--top-k", type=int, default=10, metavar="K",
                   help="rows for `query top` (default 10)")
    p.set_defaults(fn=cmd_query)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
