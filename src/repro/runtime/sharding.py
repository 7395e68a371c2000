"""Process-sharded dataset construction (the post-GIL execution path).

Classification is pure Python, so the GIL serializes any thread pool
over it (measurements in ``docs/runtime.md``).  This module fans
construction out over processes instead:

* :class:`ShardPlanner` — deterministically partitions the address /
  contract space into N shards with a stable content hash (CRC-32 of
  the address bytes), so the same address lands on the same shard in
  every process and every run.  A plan never drops or duplicates an
  address.
* :class:`ShardingRuntime` — the fan-out coordinator.  Snowball rounds
  become two shard fan-outs (frontier *discovery*, candidate
  *classification*) over a persistent pool of worker processes.  Each
  worker holds its own copy of the simulated world and its own caches
  (the per-shard caches survive across rounds for the lifetime of one
  build), and the frontier produced by one round is re-partitioned for
  the next — the frontier exchange.
* :class:`ShardMerger` — the commutative merge.  Per-shard results are
  keyed by item and reassembled in the caller's canonical input order,
  so any shard completion order produces byte-identical output to the
  serial path (``tests/runtime/test_shard_parity.py``).
* :class:`ShardCheckpointStore` — content-addressed per-shard result
  files next to the main checkpoint.  When a worker process is killed
  mid-round, the shards that completed are not re-run on ``--resume``;
  a shard file is only reused when the digest of the exact task input
  matches, so stale files are inert rather than dangerous.
* :class:`ShardWorkerLost` — raised when the worker pool breaks (a
  worker was SIGKILLed / OOM-killed).  Completed shard results have
  already been persisted at that point; rerunning with ``--resume``
  finishes byte-identically (``tests/runtime/test_shard_resume.py``).

Workers are **spawn-safe**: every work unit is a picklable payload
executed by a module-level function, and a spawned worker reconstructs
the world from a pickled blob shipped at pool start.  Under the
(default, on platforms that have it) ``fork`` start method the world is
inherited copy-on-write instead — no serialization cost.

Failure drill: setting ``DAAS_SHARD_KILL="<kind>:<round>:<shard>"`` in
the environment makes the worker executing that exact task SIGKILL
itself — the deterministic seam the kill-then-resume tests use
(``docs/reliability.md``).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import signal
import time
import zlib
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_all_start_methods, get_context
from pathlib import Path
from typing import Any, Callable, Iterable

__all__ = [
    "ShardCheckpointStore",
    "ShardMerger",
    "ShardPlanner",
    "ShardWorkerLost",
    "ShardingRuntime",
    "default_start_method",
]


class ShardWorkerLost(RuntimeError):
    """The worker pool broke mid-round (a worker process died).

    Completed shards were persisted to the shard checkpoint store (when
    checkpointing is on); rerun with ``resume=True`` / ``--resume`` to
    finish byte-identically without re-running them.
    """


def default_start_method() -> str:
    """``fork`` where available (zero-copy world inheritance), else
    ``spawn``; override with the ``DAAS_SHARD_START_METHOD`` env var."""
    override = os.environ.get("DAAS_SHARD_START_METHOD")
    if override:
        return override
    return "fork" if "fork" in get_all_start_methods() else "spawn"


# -- planning -----------------------------------------------------------------


class ShardPlanner:
    """Deterministic partition of the address space into ``shards`` shards.

    The assignment is a pure content hash (CRC-32 of the UTF-8 address
    bytes, modulo the shard count) — stable across processes, runs and
    Python's per-process hash randomization.  ``plan`` preserves input
    order within each shard and assigns every input address to exactly
    one shard: shards may be empty or hold a single address, but an
    address is never dropped and never duplicated
    (``tests/runtime/test_shard_planner.py``).
    """

    def __init__(self, shards: int) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.shards = shards

    def shard_of(self, address: str) -> int:
        """The shard the address deterministically belongs to."""
        return zlib.crc32(address.encode("utf-8")) % self.shards

    def plan(self, addresses: Iterable[str]) -> list[list[str]]:
        """Partition ``addresses`` into ``shards`` lists (some possibly
        empty), preserving input order within each shard."""
        shards: list[list[str]] = [[] for _ in range(self.shards)]
        for address in addresses:
            shards[self.shard_of(address)].append(address)
        return shards


class ShardMerger:
    """Reassembles per-shard results into the canonical input order.

    The merge is commutative: results are keyed by item, so feeding the
    per-shard result lists in *any* completion order produces the same
    output — the property that makes process fan-out byte-identical to
    the serial walk.  Duplicate or missing keys mean the plan was not a
    partition and raise instead of silently corrupting the dataset.
    """

    @staticmethod
    def merge(order: list[str], shard_results: Iterable[list]) -> list[Any]:
        """``shard_results`` holds ``[key, value]`` pairs per shard; the
        output is the values re-ordered to follow ``order``."""
        by_key: dict[str, Any] = {}
        for results in shard_results:
            for key, value in results:
                if key in by_key:
                    raise ValueError(f"shard merge saw duplicate key {key!r}")
                by_key[key] = value
        missing = [key for key in order if key not in by_key]
        if missing:
            raise ValueError(
                f"shard merge is missing {len(missing)} key(s), first {missing[0]!r}"
            )
        return [by_key[key] for key in order]


# -- per-shard checkpoints ----------------------------------------------------


class ShardCheckpointStore:
    """Content-addressed per-shard results under ``<checkpoint>.shards/``.

    Each completed shard task is written as one JSON file named by the
    task kind, shard index and a digest of the full task input.  On
    resume, a task is skipped only when a file with the *same input
    digest* exists — a checkpoint from a different round, frontier or
    world can never be misapplied.  The directory is removed when the
    run completes (alongside the main checkpoint file).
    """

    def __init__(self, directory: str | Path, params_key: dict | None = None, obs=None) -> None:
        self.directory = Path(directory)
        self.params_key = dict(params_key or {})
        self._obs = obs
        self.saved = 0
        self.reused = 0

    @staticmethod
    def task_digest(task: dict, params_key: dict) -> str:
        """Stable digest over everything that determines a task's output."""
        canonical = json.dumps(
            {"task": task, "params": params_key}, sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def _path(self, task: dict, digest: str) -> Path:
        return self.directory / f"{task['kind']}-s{task['shard']}-{digest[:16]}.json"

    def load(self, task: dict) -> Any | None:
        """The persisted result for this exact task input, or ``None``."""
        digest = self.task_digest(task, self.params_key)
        path = self._path(task, digest)
        try:
            payload = json.loads(path.read_text())
        except (FileNotFoundError, json.JSONDecodeError):
            return None
        if payload.get("digest") != digest:
            return None
        self.reused += 1
        if self._obs is not None:
            self._obs.metrics.counter(
                "daas_shard_resumed_total",
                help_text="Shard tasks skipped by reusing a per-shard checkpoint.",
                kind=task["kind"],
            ).inc()
            self._obs.event(
                "shard.resumed", kind=task["kind"], shard=task["shard"],
                path=str(path),
            )
        return payload["result"]

    def save(self, task: dict, result: Any) -> None:
        """Atomically persist one shard task's result."""
        digest = self.task_digest(task, self.params_key)
        path = self._path(task, digest)
        self.directory.mkdir(parents=True, exist_ok=True)
        text = json.dumps({
            "digest": digest,
            "kind": task["kind"],
            "shard": task["shard"],
            "result": result,
        })
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(text)
        os.replace(tmp, path)
        self.saved += 1
        if self._obs is not None:
            self._obs.metrics.counter(
                "daas_shard_checkpoints_total",
                help_text="Per-shard checkpoint files written.",
                kind=task["kind"],
            ).inc()

    def clear(self) -> None:
        """Remove every shard file and the directory (run completed)."""
        if not self.directory.exists():
            return
        for path in self.directory.glob("*.json"):
            try:
                path.unlink()
            except FileNotFoundError:
                pass
        try:
            self.directory.rmdir()
        except OSError:
            pass


# -- worker side --------------------------------------------------------------
# Everything below the pool boundary is module-level and picklable so the
# spawn start method works; the fork method additionally inherits
# _PARENT_WORLD copy-on-write and skips world deserialization entirely.

_PARENT_WORLD = None  # set by the parent around a bind; visible to forked workers
_WORKER_STATE: dict[str, Any] = {}


def _worker_init(world_blob: bytes | None, cache_enabled: bool) -> None:
    """Build the per-process analyzer once (per-shard caches live here)."""
    from repro.core.pipeline import ContractAnalyzer
    from repro.obs import Observability
    from repro.runtime.engine import ExecutionEngine

    world = _PARENT_WORLD if world_blob is None else pickle.loads(world_blob)
    if world is None:
        raise RuntimeError(
            "shard worker started without a world: the spawn start method "
            "needs a pickled world blob, fork needs _PARENT_WORLD set"
        )
    engine = ExecutionEngine(cache_enabled=cache_enabled, obs=Observability.disabled())
    analyzer = ContractAnalyzer(world.rpc, world.explorer, world.oracle, engine=engine)
    _WORKER_STATE.clear()
    _WORKER_STATE.update(world=world, analyzer=analyzer, counterparties={})


def _maybe_kill(task: dict) -> None:
    """Failure drill: SIGKILL this worker when the task matches
    ``DAAS_SHARD_KILL="<kind>:<round>:<shard>"`` (docs/reliability.md)."""
    target = os.environ.get("DAAS_SHARD_KILL")
    if not target:
        return
    actual = f"{task['kind']}:{task.get('round', 0)}:{task['shard']}"
    if actual == target:
        os.kill(os.getpid(), signal.SIGKILL)


def _execute_task(task: dict, analyzer, counterparties: dict) -> dict:
    """Run one shard task against an analyzer (worker or inline)."""
    started = time.perf_counter()
    if task["kind"] == "discover":
        result = _discover_task(task, analyzer, counterparties)
        classified = txs = 0
    elif task["kind"] == "classify":
        result, classified, txs = _classify_task(task, analyzer)
    else:
        raise ValueError(f"unknown shard task kind {task['kind']!r}")
    return {
        "shard": task["shard"],
        "kind": task["kind"],
        "result": result,
        "elapsed_s": time.perf_counter() - started,
        "classified": classified,
        "txs": txs,
    }


def _run_shard_task(task: dict) -> dict:
    """Pool entry point: execute one task with the process-local state."""
    _maybe_kill(task)
    return _execute_task(
        task, _WORKER_STATE["analyzer"], _WORKER_STATE["counterparties"]
    )


def _discover_task(task: dict, analyzer, counterparties: dict) -> list:
    """Evaluate one shard of frontier accounts; JSON-shaped result:
    ``[[account, [[candidate, admissible], ...]], ...]``."""
    from repro.core.snowball import evaluate_frontier_account

    known_contracts = frozenset(task["known_contracts"])
    known_accounts = frozenset(task["known_accounts"])
    rejected = frozenset(task["rejected"])
    out = []
    for account in task["accounts"]:
        candidates = evaluate_frontier_account(
            analyzer, account, known_contracts, known_accounts, rejected,
            counterparties,
        )
        out.append([account, [[c, bool(a)] for c, a in candidates]])
    return out


def _classify_task(task: dict, analyzer) -> tuple:
    """Classify one shard of candidate contracts; JSON-shaped result:
    ``[[contract, {"total_txs": n, "matches": [...]}], ...]``."""
    before = analyzer.engine.stats.count("contract_classifications")
    txs_before = analyzer.engine.stats.count("txs_classified")
    out = []
    for contract in task["contracts"]:
        analysis = analyzer.analyze(contract)
        out.append([contract, encode_analysis(analysis)])
    classified = analyzer.engine.stats.count("contract_classifications") - before
    txs = analyzer.engine.stats.count("txs_classified") - txs_before
    return out, classified, txs


def encode_analysis(analysis) -> dict:
    """JSON-safe :class:`~repro.core.pipeline.ContractAnalysis` payload
    (all match fields are ints/strings, so the round trip is exact)."""
    from dataclasses import asdict

    return {
        "contract": analysis.contract,
        "total_txs": analysis.total_txs,
        "matches": [asdict(m) for m in analysis.matches],
    }


def decode_analysis(payload: dict):
    from repro.core.pipeline import ContractAnalysis
    from repro.core.profit_sharing import ProfitShareMatch

    return ContractAnalysis(
        contract=payload["contract"],
        matches=[ProfitShareMatch(**m) for m in payload["matches"]],
        total_txs=payload["total_txs"],
    )


# -- the coordinator ----------------------------------------------------------


class ShardingRuntime:
    """Process-sharded execution for one dataset build.

    Construct with the shard/process counts (``PipelineConfig.shards`` /
    ``PipelineConfig.processes``, CLI ``--shards`` / ``--processes``),
    attach to an :class:`~repro.runtime.engine.ExecutionEngine`, and
    ``build_dataset`` binds it to the world for the duration of the run.
    With ``processes == 1`` the same plan → execute → merge path runs
    inline on the calling process (no pool) — the cheap way to exercise
    shard determinism, and the tier-1 smoke configuration.
    """

    def __init__(
        self,
        shards: int,
        processes: int = 1,
        start_method: str | None = None,
    ) -> None:
        if processes < 1:
            raise ValueError(f"processes must be >= 1, got {processes}")
        self.planner = ShardPlanner(shards)
        self.shards = self.planner.shards
        self.processes = processes
        self.start_method = start_method or default_start_method()
        self.merger = ShardMerger()
        self.store: ShardCheckpointStore | None = None
        self.tasks_run = 0
        self.worker_losses = 0
        self._world = None
        self._obs = None
        self._pool: ProcessPoolExecutor | None = None
        self._cache_enabled = True
        self._classify_seq = 0
        self._inline_counterparties: dict[str, set] = {}
        #: Test seam: called as ``hook(task)`` after each shard completes.
        self._after_shard: Callable[[dict], None] | None = None

    # -- lifecycle -----------------------------------------------------------

    @property
    def active(self) -> bool:
        return self._world is not None

    def bind(self, world, engine, checkpoint=None) -> None:
        """Attach to the world/engine for one build (re-binding to a new
        world tears the previous pool down first)."""
        global _PARENT_WORLD
        if self._world is not None and self._world is not world:
            self.release()
        self._world = world
        self._obs = engine.obs
        self._cache_enabled = engine.cache_enabled
        _PARENT_WORLD = world
        manager = checkpoint if checkpoint is not None else engine.checkpoint
        if manager is not None:
            self.store = ShardCheckpointStore(
                Path(manager.path).with_name(Path(manager.path).name + ".shards"),
                params_key=manager.params_key,
                obs=self._obs,
            )
        else:
            self.store = None
        metrics = self._obs.metrics
        metrics.gauge(
            "daas_shard_count", help_text="Configured shard count."
        ).set(float(self.shards))
        metrics.gauge(
            "daas_shard_workers", help_text="Configured worker processes."
        ).set(float(self.processes))

    def release(self) -> None:
        """Tear down the pool and drop the world reference (build done).
        The shard checkpoint store is left on disk for ``--resume``;
        call :meth:`clear_checkpoints` after a *successful* run."""
        global _PARENT_WORLD
        self._shutdown_pool()
        if _PARENT_WORLD is self._world:
            _PARENT_WORLD = None
        self._world = None
        self._inline_counterparties = {}
        self._classify_seq = 0

    def clear_checkpoints(self) -> None:
        if self.store is not None:
            self.store.clear()

    def _shutdown_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            blob = None
            if self.start_method != "fork":
                # Spawned/forkserver workers re-import the module fresh and
                # cannot see _PARENT_WORLD; ship the world by value instead.
                blob = pickle.dumps(self._world)
            self._pool = ProcessPoolExecutor(
                max_workers=self.processes,
                mp_context=get_context(self.start_method),
                initializer=_worker_init,
                initargs=(blob, self._cache_enabled),
            )
        return self._pool

    # -- the fan-out core ----------------------------------------------------

    def _run_tasks(self, tasks: list[dict]) -> list[dict]:
        """Execute shard tasks (reusing persisted results), returning the
        worker payloads in **shard order** — the merge downstream is
        order-independent, so completion order does not matter."""
        results: dict[int, dict] = {}
        pending: list[dict] = []
        for task in tasks:
            cached = (
                self.store.load(self._portable(task))
                if self.store is not None else None
            )
            if cached is not None:
                results[task["shard"]] = {
                    "shard": task["shard"], "kind": task["kind"],
                    "result": cached, "elapsed_s": 0.0,
                    "classified": 0, "txs": 0, "resumed": True,
                }
            else:
                pending.append(task)
        kind = tasks[0]["kind"] if tasks else "none"
        with self._obs.span(
            "shard.fanout", kind=kind, shards=len(tasks), pending=len(pending),
            processes=self.processes,
        ):
            if self.processes <= 1:
                for task in pending:
                    payload = self._run_inline(task)
                    self._task_done(task, payload, results)
            else:
                self._run_pooled(pending, results)
        return [results[task["shard"]] for task in tasks]

    def _run_inline(self, task: dict) -> dict:
        analyzer = task.pop("_analyzer")
        payload = _execute_task(task, analyzer, self._inline_counterparties)
        # Inline execution went through the parent engine, which already
        # bumped the classification counters — don't report them twice.
        payload["classified"] = payload["txs"] = 0
        return payload

    def _run_pooled(self, pending: list[dict], results: dict[int, dict]) -> None:
        pool = self._ensure_pool()
        futures: dict[Any, dict] = {}
        lost: list[int] = []
        for task in pending:
            try:
                futures[pool.submit(_run_shard_task, self._portable(task))] = task
            except BrokenProcessPool:
                # A worker died before this task could even be submitted.
                lost.append(task["shard"])
        for future in as_completed(futures):
            task = futures[future]
            try:
                payload = future.result()
            except BrokenProcessPool:
                lost.append(task["shard"])
                continue
            self._task_done(task, payload, results)
        if lost:
            self.worker_losses += 1
            self._shutdown_pool()  # a broken pool cannot be reused
            self._obs.metrics.counter(
                "daas_shard_worker_losses_total",
                help_text="Worker-pool breaks (a shard worker process died).",
            ).inc()
            self._obs.event(
                "shard.worker_lost", level="error", shards=sorted(lost),
                persisted=self.store is not None,
            )
            raise ShardWorkerLost(
                f"shard worker process died while running shard(s) "
                f"{sorted(lost)}; completed shards are checkpointed — "
                "rerun with --resume to finish byte-identically"
            )

    @staticmethod
    def _portable(task: dict) -> dict:
        return {k: v for k, v in task.items() if not k.startswith("_")}

    def _task_done(self, task: dict, payload: dict, results: dict[int, dict]) -> None:
        results[task["shard"]] = payload
        self.tasks_run += 1
        if self.store is not None:
            self.store.save(self._portable(task), payload["result"])
        metrics = self._obs.metrics
        metrics.counter(
            "daas_shard_tasks_total",
            help_text="Shard tasks executed, by task kind.",
            kind=task["kind"],
        ).inc()
        metrics.counter(
            "daas_shard_items_total",
            help_text="Items processed through shard tasks, by task kind.",
            kind=task["kind"],
        ).inc(len(task.get("accounts") or task.get("contracts") or ()))
        from repro.obs import LATENCY_BUCKETS

        metrics.histogram(
            "daas_shard_task_seconds",
            buckets=LATENCY_BUCKETS,
            help_text="Worker-side wall time of one shard task.",
        ).observe(payload["elapsed_s"])
        self._obs.event(
            "shard.task", level="debug", kind=task["kind"],
            shard=task["shard"], round=task.get("round", 0),
            elapsed_s=round(payload["elapsed_s"], 6),
        )
        # Every completed shard is forward progress for the watchdog.
        self._obs.heartbeat()
        if self._after_shard is not None:
            self._after_shard(self._portable(task))

    # -- pipeline entry points -----------------------------------------------

    def discover(
        self,
        analyzer,
        frontier: list[str],
        known_contracts: set[str],
        known_accounts: set[str],
        rejected: set[str],
        round_no: int,
    ) -> list[list]:
        """One snowball discovery round as a shard fan-out; returns the
        per-account candidate lists **in frontier order**, byte-identical
        to the serial walk."""
        plan = self.planner.plan(frontier)
        known_contracts_l = sorted(known_contracts)
        known_accounts_l = sorted(known_accounts)
        rejected_l = sorted(rejected)
        tasks = [
            {
                "kind": "discover", "shard": shard, "round": round_no,
                "accounts": accounts,
                "known_contracts": known_contracts_l,
                "known_accounts": known_accounts_l,
                "rejected": rejected_l,
                "_analyzer": analyzer,
            }
            for shard, accounts in enumerate(plan)
            if accounts
        ]
        payloads = self._run_tasks(tasks)
        merged = self.merger.merge(
            frontier, [p["result"] for p in payloads]
        )
        return [
            [(candidate, bool(admissible)) for candidate, admissible in entry]
            for entry in merged
        ]

    def classify(self, analyzer, contracts: list[str]) -> list:
        """Classify a batch of contracts as a shard fan-out; returns
        :class:`ContractAnalysis` objects aligned with ``contracts``."""
        self._classify_seq += 1
        plan = self.planner.plan(contracts)
        tasks = [
            {
                "kind": "classify", "shard": shard,
                "round": self._classify_seq, "contracts": members,
                "_analyzer": analyzer,
            }
            for shard, members in enumerate(plan)
            if members
        ]
        payloads = self._run_tasks(tasks)
        engine = analyzer.engine
        for payload in payloads:
            # Inline execution already bumped the parent counters through
            # the normal engine path; pooled workers report theirs back.
            if payload["classified"]:
                engine.stats.bump("contract_classifications", payload["classified"])
            if payload["txs"]:
                engine.stats.bump("txs_classified", payload["txs"])
        merged = self.merger.merge(contracts, [p["result"] for p in payloads])
        return [decode_analysis(entry) for entry in merged]

    # -- reporting -----------------------------------------------------------

    def snapshot(self) -> dict:
        out = {
            "shards": self.shards,
            "processes": self.processes,
            "start_method": self.start_method,
            "tasks_run": self.tasks_run,
            "worker_losses": self.worker_losses,
        }
        if self.store is not None:
            out["shard_checkpoints"] = {
                "path": str(self.store.directory),
                "saved": self.store.saved,
                "reused": self.store.reused,
            }
        return out
