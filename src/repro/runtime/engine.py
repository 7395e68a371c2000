"""The execution engine: caches + observability behind one handle.

The core pipeline (seed, snowball, monitor) routes every per-contract
analysis through an :class:`ExecutionEngine`.  The engine memoizes
:class:`~repro.core.pipeline.ContractAnalysis` results so that a
snowball round never re-classifies a contract analyzed in an earlier
round (or by the seed stage), runs batches in order on the calling
thread or fans them out over an attached
:class:`~repro.runtime.sharding.ShardingRuntime`, and reports through
one :class:`~repro.obs.Observability` handle: trace spans around
stages/batches/classifications, a metrics registry absorbing the
runtime counters and cache hit/miss statistics, and structured log
events.

Determinism: batches are pure per-item work (contract classification,
per-account history evaluation) whose results are merged in input
order, so any sharding/cache/observability configuration produces
byte-identical datasets (``tests/runtime/test_parity.py``,
``tests/obs/test_obs_regression.py``).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from repro.obs import CACHE_RATIO_BUCKETS, LATENCY_BUCKETS, Observability
from repro.runtime.cache import CacheStats, NullCache, ReadThroughCache, RPCReadCache
from repro.runtime.checkpoint import CheckpointManager
from repro.runtime.resilience import (
    EXPLORER_READ_METHODS,
    RPC_READ_METHODS,
    CircuitBreaker,
    FaultInjector,
    FaultPlan,
    FaultyFacade,
    ResilientFacade,
    RetryPolicy,
)
from repro.runtime.stats import RuntimeStats

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a core import cycle
    from repro.core.pipeline import ContractAnalysis, ContractAnalyzer
    from repro.runtime.sharding import ShardingRuntime

__all__ = ["ExecutionEngine"]


class ExecutionEngine:
    """Caches and instrumentation for one pipeline run."""

    def __init__(
        self,
        cache_enabled: bool = True,
        obs: Observability | None = None,
        retry_policy: RetryPolicy | None = None,
        breaker_threshold: int = 5,
        breaker_reset_s: float = 30.0,
        fault_plan: FaultPlan | None = None,
        checkpoint: CheckpointManager | None = None,
        resilience_sleep: Callable[[float], None] = time.sleep,
        resilience_clock: Callable[[], float] = time.monotonic,
        sharding: "ShardingRuntime | None" = None,
    ) -> None:
        self.sharding = sharding
        self.cache_enabled = cache_enabled
        self.obs = obs if obs is not None else Observability()
        self.stats = RuntimeStats(metrics=self.obs.metrics)
        self.retry_policy = retry_policy
        self.breaker_threshold = breaker_threshold
        self.breaker_reset_s = breaker_reset_s
        self.fault_plan = fault_plan
        self.checkpoint = checkpoint
        self.fault_injector: FaultInjector | None = None
        self.breakers: dict[str, CircuitBreaker] = {}
        self._resilience_sleep = resilience_sleep
        self._resilience_clock = resilience_clock
        if cache_enabled:
            self._cache_factory: Callable[[str], Any] = ReadThroughCache
        else:
            self._cache_factory = NullCache
        self.analysis_cache = self._cache_factory("analyses")
        self.match_cache = self._cache_factory("tx_matches")
        self.reads: RPCReadCache | None = None
        self._instrumented: list[Any] = []
        self._classify_latency = self.obs.metrics.histogram(
            "daas_tx_classification_seconds",
            buckets=LATENCY_BUCKETS,
            help_text="Wall time of one contract-history classification.",
        )

    # -- wiring -------------------------------------------------------------

    def bind_reads(self, rpc, explorer) -> RPCReadCache:
        """Attach the chain read cache to a node/explorer pair (idempotent;
        the first bound pair wins, which matches one-engine-per-world use).
        The underlying facades are instrumented so ``daas_chain_reads_total``
        counts the reads that *missed* every cache — what a real deployment
        would have paid network latency for.

        When the engine carries a retry policy and/or a fault plan the
        layering per upstream is cache → retry/breaker → injected faults
        → facade: cache hits never pay a retry, and injected faults land
        exactly where real network faults would."""
        if self.reads is None:
            upstream_rpc, upstream_explorer = rpc, explorer
            if self.fault_plan is not None:
                self.fault_injector = FaultInjector(
                    self.fault_plan, obs=self.obs, sleep=self._resilience_sleep
                )
                upstream_rpc = FaultyFacade(
                    upstream_rpc, "rpc", RPC_READ_METHODS, self.fault_injector
                )
                upstream_explorer = FaultyFacade(
                    upstream_explorer, "explorer", EXPLORER_READ_METHODS,
                    self.fault_injector,
                )
            if self.retry_policy is not None:
                for upstream in ("rpc", "explorer"):
                    self.breakers[upstream] = CircuitBreaker(
                        upstream,
                        failure_threshold=self.breaker_threshold,
                        reset_timeout_s=self.breaker_reset_s,
                        clock=self._resilience_clock,
                        obs=self.obs,
                    )
                upstream_rpc = ResilientFacade(
                    upstream_rpc, "rpc", RPC_READ_METHODS, self.retry_policy,
                    breaker=self.breakers["rpc"], obs=self.obs,
                    sleep=self._resilience_sleep, clock=self._resilience_clock,
                )
                upstream_explorer = ResilientFacade(
                    upstream_explorer, "explorer", EXPLORER_READ_METHODS,
                    self.retry_policy, breaker=self.breakers["explorer"],
                    obs=self.obs, sleep=self._resilience_sleep,
                    clock=self._resilience_clock,
                )
            self.reads = RPCReadCache(
                upstream_rpc, upstream_explorer, self._cache_factory
            )
            # Instrument the *raw* facades: read tallies stay a measure of
            # truly-uncached reads regardless of the resilience layers.
            for facade in (rpc, explorer):
                instrument = getattr(facade, "instrument", None)
                if instrument is not None:
                    instrument(self.obs.metrics)
                    self._instrumented.append(facade)
        return self.reads

    # -- stage timing --------------------------------------------------------

    @contextmanager
    def stage(self, name: str, **attrs: Any) -> Iterator[None]:
        """Time one pipeline stage through both sinks: a trace span and the
        ``RuntimeStats`` stage-wall dict (which mirrors into the registry).
        When a live-ops layer is attached the stage also registers with the
        watchdog and the run-status document (no-ops otherwise)."""
        self.obs.stage_started(name)
        try:
            with self.obs.span(name, **attrs):
                with self.stats.stage(name):
                    yield
        finally:
            self.obs.stage_finished(name)

    # -- per-contract analysis ----------------------------------------------

    def analyze(self, analyzer: "ContractAnalyzer", contract: str) -> "ContractAnalysis":
        """Read-through classification of one contract."""
        return self.analysis_cache.get_or_compute(
            contract, lambda: self._compute(analyzer, contract)
        )

    def analyze_many(
        self, analyzer: "ContractAnalyzer", contracts: Iterable[str]
    ) -> dict[str, "ContractAnalysis"]:
        """Classify a batch of contracts: cache misses run in order here,
        or fan out over the sharding runtime when one is active; results
        keyed by contract, computed exactly once each."""
        ordered = list(dict.fromkeys(contracts))
        results: dict[str, ContractAnalysis] = {}
        missing: list[str] = []
        for contract in ordered:
            if contract in self.analysis_cache:
                results[contract] = self.analyze(analyzer, contract)
            else:
                missing.append(contract)
        if missing:
            with self.obs.span(
                "engine.analyze_many", requested=len(ordered), misses=len(missing)
            ):
                if self.sharding is not None and self.sharding.active:
                    # Process-sharded fan-out: classification runs in shard
                    # worker processes against per-shard caches; results are
                    # merged in input order (repro.runtime.sharding).
                    computed = self.sharding.classify(analyzer, missing)
                else:
                    computed = [
                        self._compute(analyzer, contract) for contract in missing
                    ]
            for contract, analysis in zip(missing, computed):
                results[contract] = self.analysis_cache.get_or_compute(
                    contract, lambda value=analysis: value
                )
        return {contract: results[contract] for contract in ordered}

    def _compute(self, analyzer: "ContractAnalyzer", contract: str) -> "ContractAnalysis":
        self.stats.bump("contract_classifications")
        self.obs.heartbeat()
        with self.obs.span("analyze.contract", contract=contract):
            started = time.perf_counter()
            analysis = analyzer.compute_analysis(contract)
            self._classify_latency.observe(time.perf_counter() - started)
        self.stats.bump("txs_classified", analysis.total_txs)
        return analysis

    def close(self) -> None:
        """Release process-backed resources (the shard worker pool).
        Idempotent; a no-op without sharding."""
        if self.sharding is not None:
            self.sharding.release()

    def invalidate_contract(self, contract: str) -> bool:
        """Drop cached per-address state so a re-analysis sees history
        appended after the original read (the monitor's backfill hook)."""
        self.stats.bump("invalidations")
        self.obs.event("cache.invalidate", level="debug", contract=contract)
        dropped = self.analysis_cache.invalidate(contract)
        if self.reads is not None:
            dropped = self.reads.invalidate_address(contract) or dropped
        return dropped

    # -- generic batch -------------------------------------------------------

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list[Any]:
        """In-order map over arbitrary pure work, traced as one batch."""
        items = list(items)
        with self.obs.span("engine.map", items=len(items)):
            return [fn(item) for item in items]

    # -- reporting ----------------------------------------------------------

    def cache_stats(self) -> list[CacheStats]:
        caches = [self.analysis_cache, self.match_cache]
        if self.reads is not None:
            caches.extend(self.reads.caches())
        return [cache.stats for cache in caches]

    def cache_hit_rate(self) -> float:
        """Aggregate hit rate across every cache layer."""
        hits = sum(s.hits for s in self.cache_stats())
        requests = sum(s.requests for s in self.cache_stats())
        return hits / requests if requests else 0.0

    def publish_metrics(self) -> None:
        """Push point-in-time values (cache counters and ratios, cache
        config) into the registry as gauges.  Called once before a metrics
        export; the per-cache hit ratios additionally feed the fixed-bucket
        ``daas_cache_hit_ratio_bucketed`` histogram.  Also flushes the
        chain facades' unlocked read tallies into the registry."""
        for facade in self._instrumented:
            facade.publish_reads()
        metrics = self.obs.metrics
        metrics.gauge(
            "daas_engine_cache_enabled", help_text="1 when read caches are on."
        ).set(1.0 if self.cache_enabled else 0.0)
        ratio_hist = metrics.histogram(
            "daas_cache_hit_ratio_bucketed",
            buckets=CACHE_RATIO_BUCKETS,
            help_text="Distribution of per-cache hit ratios at publish time.",
        )
        for stats in self.cache_stats():
            for field in ("hits", "misses", "evictions"):
                metrics.gauge(
                    f"daas_cache_{field}",
                    help_text=f"Cache {field} at publish time.",
                    cache=stats.name,
                ).set(getattr(stats, field))
            metrics.gauge(
                "daas_cache_hit_ratio",
                help_text="Per-cache hit ratio at publish time.",
                cache=stats.name,
            ).set(stats.hit_rate)
            ratio_hist.observe(stats.hit_rate)
        metrics.gauge(
            "daas_cache_hit_ratio", help_text="Per-cache hit ratio at publish time.",
            cache="overall",
        ).set(self.cache_hit_rate())

    def snapshot(self) -> dict:
        out = {
            "cache_enabled": self.cache_enabled,
            "cache_hit_rate": round(self.cache_hit_rate(), 4),
            "caches": {s.name: s.snapshot() for s in self.cache_stats()},
            **self.stats.snapshot(),
        }
        if self.retry_policy is not None:
            out["retry"] = {
                "attempts": self.retry_policy.attempts,
                "breakers": {
                    name: b.snapshot() for name, b in sorted(self.breakers.items())
                },
            }
        if self.fault_injector is not None:
            out["faults"] = self.fault_injector.snapshot()
        if self.sharding is not None:
            out["sharding"] = self.sharding.snapshot()
        if self.checkpoint is not None:
            out["checkpoint"] = {
                "path": str(self.checkpoint.path),
                "written": self.checkpoint.checkpoints_written,
            }
        return out

    def render_stats(self) -> str:
        """Human-readable block for the CLI's ``--stats`` flag."""
        lines = [f"runtime stats (cache={'on' if self.cache_enabled else 'off'})"]
        if self.sharding is not None:
            s = self.sharding
            lines.append(
                f"  sharding shards={s.shards} processes={s.processes} "
                f"start={s.start_method} tasks={s.tasks_run}"
            )
        for name, wall in sorted(self.stats.stage_wall.items()):
            lines.append(f"  stage {name:<22} {wall:8.3f} s")
        for name, value in sorted(self.stats.counters.items()):
            lines.append(f"  {name:<28} {value:,}")
        lines.append(f"  txs/s classified             {self.stats.txs_per_second():,.0f}")
        for s in self.cache_stats():
            lines.append(
                f"  cache {s.name:<14} hits={s.hits:,} misses={s.misses:,} "
                f"evictions={s.evictions:,} hit_rate={s.hit_rate:.1%}"
            )
        lines.append(f"  overall cache hit rate       {self.cache_hit_rate():.1%}")
        return "\n".join(lines)
