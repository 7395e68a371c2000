"""Execution runtime for the measurement pipeline.

The dataset construction of §5 is an embarrassingly parallel fixpoint:
each snowball round classifies every candidate contract's transaction
history independently of the others.  This package supplies the
machinery that exploits that shape without changing results:

* :mod:`repro.runtime.cache` — keyed read-through caches with
  hit/miss/eviction accounting (per-contract analyses, RPC/explorer
  reads, per-transaction classification verdicts);
* :mod:`repro.runtime.stats` — per-stage wall time and throughput
  counters, mirrored into the :mod:`repro.obs` metrics registry;
* :mod:`repro.runtime.engine` — the :class:`ExecutionEngine` façade the
  core pipeline routes all per-contract analysis through;
* :mod:`repro.runtime.sharding` — the process fan-out; classification is
  pure Python, so threads would only queue on the GIL.

The engine guarantees **parity**: serial, process-sharded, and
cache-disabled runs of ``build_dataset`` produce byte-identical dataset
JSON (see ``tests/runtime/test_parity.py``), and observability on/off
changes nothing either (``tests/obs/test_obs_regression.py``).

Re-exports (one-liners; full reference in each module and
``docs/runtime.md``):

* :class:`ExecutionEngine` — caches + observability (+ an optional
  sharding runtime) for one pipeline run; every construction stage
  reports through it.
* :class:`ReadThroughCache` — thread-safe keyed ``get_or_compute`` with
  optional LRU bounding and explicit invalidation.
* :class:`NullCache` — same interface, caching off; keeps the uncached
  baseline measurable.
* :class:`RPCReadCache` — the chain-facing read cache (per-address
  transaction lists, transactions, receipts, code checks).
* :class:`CacheStats` — hits/misses/evictions counters for one cache.
* :class:`RuntimeStats` — per-stage wall time + named counters; bumps
  mirror into ``daas_pipeline_events_total`` when a registry is attached.

Fault tolerance (:mod:`repro.runtime.resilience`,
:mod:`repro.runtime.checkpoint`; reference in ``docs/reliability.md``):

* :class:`RetryPolicy` — exponential backoff with deterministic seeded
  jitter and optional per-call timeouts.
* :class:`CircuitBreaker` — per-upstream closed/open/half-open breaker.
* :class:`ResilientFacade` — retry+breaker proxy over an upstream facade.
* :class:`FaultPlan` / :class:`FaultRule` — a seeded, replayable set of
  injected faults (transient errors, latency spikes, outages).
* :class:`FaultInjector` / :class:`FaultyFacade` — evaluate a plan in
  front of the simulated RPC/explorer/crawler.
* :class:`ManualClock` — hand-advanced clock for latency/timeout tests.
* :class:`CheckpointManager` / :class:`ResumeInfo` — versioned JSON
  checkpoints at stage boundaries, so an interrupted ``build-dataset``
  resumes to a byte-identical dataset.
* :func:`atomic_write_bytes` / :func:`atomic_write_text` — temp-file +
  ``os.replace`` publication shared by checkpoints, serve snapshots,
  and the streamed intelligence index.
* Errors: :class:`UpstreamError`, :class:`TransientUpstreamError`,
  :class:`UpstreamTimeoutError`, :class:`UpstreamOutageError`,
  :class:`CircuitOpenError`, :class:`RetriesExhaustedError`,
  :class:`CheckpointError`.

Process sharding (:mod:`repro.runtime.sharding`; reference in
``docs/runtime.md``):

* :class:`ShardPlanner` — deterministic CRC-32 partition of the address
  space into N shards; never drops or duplicates an address.
* :class:`ShardingRuntime` — runs snowball rounds as process fan-outs
  over picklable shard tasks with per-shard caches, frontier exchange
  between rounds, and per-shard checkpoints.
* :class:`ShardMerger` — commutative input-order merge of shard results;
  output is byte-identical to the serial path.
* :class:`ShardCheckpointStore` — content-addressed per-shard result
  files enabling resume after a worker process is killed.
* :func:`default_start_method` — ``fork`` where available, else
  ``spawn`` (override with ``DAAS_SHARD_START_METHOD``).
* Errors: :class:`ShardWorkerLost`.
"""

from repro.runtime.atomicio import atomic_write_bytes, atomic_write_text
from repro.runtime.cache import CacheStats, NullCache, ReadThroughCache, RPCReadCache
from repro.runtime.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointError,
    CheckpointManager,
    ResumeInfo,
)
from repro.runtime.engine import ExecutionEngine
from repro.runtime.resilience import (
    CircuitBreaker,
    CircuitOpenError,
    FaultInjector,
    FaultPlan,
    FaultRule,
    FaultyFacade,
    ManualClock,
    ResilientFacade,
    RetriesExhaustedError,
    RetryPolicy,
    TransientUpstreamError,
    UpstreamError,
    UpstreamOutageError,
    UpstreamTimeoutError,
)
from repro.runtime.sharding import (
    ShardCheckpointStore,
    ShardMerger,
    ShardPlanner,
    ShardWorkerLost,
    ShardingRuntime,
    default_start_method,
)
from repro.runtime.stats import RuntimeStats

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "CacheStats",
    "CheckpointError",
    "CheckpointManager",
    "CircuitBreaker",
    "CircuitOpenError",
    "ExecutionEngine",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "FaultyFacade",
    "ManualClock",
    "NullCache",
    "RPCReadCache",
    "ReadThroughCache",
    "ResilientFacade",
    "ResumeInfo",
    "RetriesExhaustedError",
    "RetryPolicy",
    "RuntimeStats",
    "ShardCheckpointStore",
    "ShardMerger",
    "ShardPlanner",
    "ShardWorkerLost",
    "ShardingRuntime",
    "TransientUpstreamError",
    "UpstreamError",
    "UpstreamOutageError",
    "UpstreamTimeoutError",
    "atomic_write_bytes",
    "atomic_write_text",
    "default_start_method",
]
