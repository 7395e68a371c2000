"""High-level facade: one call from parameters to a measured ecosystem.

Typical use (see ``examples/quickstart.py``)::

    from repro.api import PipelineConfig, run_pipeline
    result = run_pipeline(PipelineConfig(scale=0.05))
    print(result.dataset.summary())
    print(result.clustering.family_count)

``run_pipeline`` builds the simulated world, constructs the seed dataset
from the public feeds, snowball-expands it to fixpoint, and runs the full
measurement suite — the complete reproduction of the paper's §5-§7.
One :class:`PipelineConfig` carries every knob: world parameters,
cache and sharding selection, observability, and the fault-tolerance
options (retry policy, fault plan, checkpoint/resume) described in
``docs/reliability.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis import (
    AffiliateAnalyzer,
    AffiliateReport,
    AnalysisContext,
    ClusteringResult,
    FamilyClusterer,
    OperatorAnalyzer,
    OperatorReport,
    VictimAnalyzer,
    VictimReport,
)
from repro.core import (
    ContractAnalyzer,
    DaaSDataset,
    ExpansionReport,
    SeedBuilder,
    SeedReport,
    SnowballExpander,
)
from repro.obs import Observability
from repro.runtime import (
    CheckpointManager,
    ExecutionEngine,
    FaultPlan,
    ResumeInfo,
    RetryPolicy,
    ShardingRuntime,
)
from repro.simulation import SimulatedWorld, SimulationParams, build_world

__all__ = [
    "DatasetBuildResult",
    "PipelineConfig",
    "PipelineResult",
    "build_dataset",
    "run_pipeline",
]


@dataclass
class PipelineConfig:
    """Every pipeline knob in one place, consumed by :func:`run_pipeline`.

    World selection: ``params`` wins over the ``scale``/``seed``
    shorthand; a prebuilt ``world`` skips world construction entirely.
    Engine selection: an explicit ``engine`` wins over the
    ``cache_enabled``/``obs``/sharding/resilience fields that
    :meth:`make_engine` would otherwise assemble.
    """

    # -- world ---------------------------------------------------------------
    scale: float | None = None
    seed: int | None = None
    params: SimulationParams | None = None
    world: SimulatedWorld | None = None
    # -- engine --------------------------------------------------------------
    cache_enabled: bool = True
    obs: Observability | None = None
    engine: ExecutionEngine | None = None
    # -- process sharding (docs/runtime.md) ----------------------------------
    #: Shard count for process-sharded construction; 0 = off (or, with
    #: ``processes > 1``, one shard per process).
    shards: int = 0
    #: Worker processes executing shard tasks; 1 = run shards inline.
    processes: int = 1
    # -- fault tolerance (docs/reliability.md) -------------------------------
    retry: RetryPolicy | None = None
    breaker_threshold: int = 5
    breaker_reset_s: float = 30.0
    fault_plan: FaultPlan | None = None
    checkpoint_path: str | Path | None = None
    resume: bool = False

    def resolved_params(self) -> SimulationParams:
        if self.params is not None:
            return self.params
        params = SimulationParams()
        if self.scale is not None:
            params.scale = self.scale
        if self.seed is not None:
            params.seed = self.seed
        return params

    def resolved_world(self) -> SimulatedWorld:
        return self.world if self.world is not None else build_world(self.resolved_params())

    def make_engine(self) -> ExecutionEngine:
        """The engine this configuration describes (or the explicit one)."""
        if self.engine is not None:
            return self.engine
        obs = self.obs if self.obs is not None else Observability()
        checkpoint = None
        if self.checkpoint_path is not None:
            params = self.resolved_params()
            checkpoint = CheckpointManager(
                self.checkpoint_path,
                params_key={"scale": params.scale, "seed": params.seed},
                obs=obs,
            )
        sharding = None
        if self.processes > 1 or self.shards > 0:
            sharding = ShardingRuntime(
                shards=self.shards or self.processes, processes=self.processes
            )
        return ExecutionEngine(
            cache_enabled=self.cache_enabled,
            obs=obs,
            retry_policy=self.retry,
            breaker_threshold=self.breaker_threshold,
            breaker_reset_s=self.breaker_reset_s,
            fault_plan=self.fault_plan,
            checkpoint=checkpoint,
            sharding=sharding,
        )


@dataclass
class DatasetBuildResult:
    """Everything dataset construction (paper §5) produces."""

    dataset: DaaSDataset
    seed_report: SeedReport
    expansion_report: ExpansionReport
    analyzer: ContractAnalyzer
    seed_summary: dict[str, int]
    #: Checkpoint/resume bookkeeping; ``None`` when checkpointing is off.
    resume_info: ResumeInfo | None = None


@dataclass
class PipelineResult:
    """Everything the full pipeline produces."""

    world: SimulatedWorld
    dataset: DaaSDataset
    seed_summary: dict[str, int]
    seed_report: SeedReport
    expansion_report: ExpansionReport
    analyzer: ContractAnalyzer
    context: AnalysisContext
    victim_report: VictimReport
    operator_report: OperatorReport
    affiliate_report: AffiliateReport
    clustering: ClusteringResult
    victim_analyzer: VictimAnalyzer
    family_clusterer: FamilyClusterer
    engine: ExecutionEngine | None = None
    resume_info: ResumeInfo | None = None

    def build_intel_index(
        self, site_reports=None, laundering_report=None, signals=True
    ):
        """Condense this run into a serving :class:`~repro.serve.index.
        IntelIndex` — the bridge from the batch pipeline to the ``/v1``
        query plane (``docs/serving.md``).  Pass ``site_reports`` from
        the §8 website detector to fold confirmed domains in, and a
        ``laundering_report`` (:meth:`trace_laundering`) to add cash-out
        stage signals; ``signals=False`` skips :mod:`repro.risk` signal
        collection and reproduces the pre-fusion index byte-for-byte."""
        from repro.serve import build_index

        return build_index(
            self.dataset,
            clustering=self.clustering,
            site_reports=site_reports,
            victim_report=self.victim_report,
            laundering_report=laundering_report,
            signals=signals,
        )

    def trace_laundering(self, max_hops: int = 4):
        """Trace post-exploitation fund flows from this run's accounts to
        terminal sinks (paper §7) — a
        :class:`~repro.analysis.laundering.LaunderingReport` that both
        :meth:`build_intel_index` and ``repro eval-risk`` accept as the
        laundering-stage signal source."""
        from repro.analysis.laundering import LaunderingAnalyzer

        return LaunderingAnalyzer(self.context, max_hops=max_hops).analyze()


def _checkpoint_manager(
    checkpoint: CheckpointManager | str | Path | None,
    engine: ExecutionEngine,
    world: SimulatedWorld,
) -> CheckpointManager | None:
    if checkpoint is None:
        manager = engine.checkpoint
    elif isinstance(checkpoint, CheckpointManager):
        manager = checkpoint
    else:
        manager = CheckpointManager(checkpoint, obs=engine.obs)
    if manager is not None and not manager.params_key:
        manager.params_key = {
            "scale": world.params.scale, "seed": world.params.seed,
        }
    return manager


def build_dataset(
    world: SimulatedWorld,
    engine: ExecutionEngine | None = None,
    *,
    checkpoint: CheckpointManager | str | Path | None = None,
    resume: bool = False,
) -> DatasetBuildResult:
    """Seed + snowball over an already-built world (paper §5).

    ``engine`` selects the execution strategy (serial/sharded, caching,
    retry/fault-injection); every configuration produces byte-identical
    datasets.  With ``checkpoint`` set (a manager, or just a path —
    ``engine.checkpoint`` is the fallback), progress is persisted after
    the seed stage and after every snowball round; ``resume=True``
    restores the newest checkpoint and finishes the run byte-identically
    to one that was never interrupted.  The checkpoint file is removed
    on successful completion.
    """
    analyzer = ContractAnalyzer(world.rpc, world.explorer, world.oracle, engine=engine)
    engine = analyzer.engine
    manager = _checkpoint_manager(checkpoint, engine, world)
    if engine.sharding is not None:
        # Attach the shard runtime to this world/run; the pool (and the
        # forked workers' reference to the world) must not outlive the
        # build — the monitor stage mutates chain state the workers
        # snapshot at bind time.
        engine.sharding.bind(world, engine, checkpoint=manager)
    try:
        return _build_dataset(
            world, analyzer, engine, manager, resume=resume
        )
    finally:
        if engine.sharding is not None:
            engine.sharding.release()


def _build_dataset(
    world: SimulatedWorld,
    analyzer: ContractAnalyzer,
    engine: ExecutionEngine,
    manager: CheckpointManager | None,
    resume: bool,
) -> DatasetBuildResult:
    state = manager.load() if (manager is not None and resume) else None
    snowball_resume = None
    if state is None:
        dataset, seed_report = SeedBuilder(analyzer, world.feeds).build()
        seed_summary = dict(dataset.summary())
        if manager is not None:
            manager.save("seed", {
                "dataset": CheckpointManager.encode_dataset(dataset),
                "seed_report": CheckpointManager.encode_seed_report(seed_report),
                "seed_summary": seed_summary,
            })
        restored_stage, rounds_restored = None, 0
    else:
        dataset = CheckpointManager.decode_dataset(state["dataset"])
        seed_report = CheckpointManager.decode_seed_report(state["seed_report"])
        seed_summary = dict(state["seed_summary"])
        if "snowball" in state:
            snowball_resume = CheckpointManager.decode_expansion(state["snowball"])
        restored_stage = state["stage"]
        rounds_restored = len(state.get("snowball", {}).get("iterations", []))

    on_round = None
    if manager is not None:
        def on_round(report, frontier, rejected):
            manager.save("snowball", {
                "dataset": CheckpointManager.encode_dataset(dataset),
                "seed_report": CheckpointManager.encode_seed_report(seed_report),
                "seed_summary": seed_summary,
                "snowball": CheckpointManager.encode_expansion(
                    report, frontier, rejected
                ),
            })

    expansion_report = SnowballExpander(analyzer).expand(
        dataset, resume_state=snowball_resume, on_round=on_round
    )

    resume_info = None
    if manager is not None:
        manager.clear()
        if engine.sharding is not None:
            engine.sharding.clear_checkpoints()
        resume_info = ResumeInfo(
            path=str(manager.path),
            resumed=state is not None,
            restored_stage=restored_stage,
            rounds_restored=rounds_restored,
            checkpoints_written=manager.checkpoints_written,
        )
    return DatasetBuildResult(
        dataset=dataset,
        seed_report=seed_report,
        expansion_report=expansion_report,
        analyzer=analyzer,
        seed_summary=seed_summary,
        resume_info=resume_info,
    )


def run_pipeline(config: PipelineConfig | None = None) -> PipelineResult:
    """Build (or reuse) a world and run dataset construction + measurement."""
    if config is None:
        config = PipelineConfig()
    elif not isinstance(config, PipelineConfig):
        raise TypeError(
            "run_pipeline() expects a PipelineConfig, got "
            f"{type(config).__name__}"
        )
    world = config.resolved_world()
    engine = config.make_engine()

    build = build_dataset(world, engine=engine, resume=config.resume)
    dataset = build.dataset
    context = AnalysisContext(world.rpc, world.explorer, world.oracle, dataset)

    # Measurement stages are traced under ``measure.*`` so a --trace-out
    # file covers the whole run, not just dataset construction.
    run_engine = build.analyzer.engine
    victim_analyzer = VictimAnalyzer(context)
    with run_engine.stage("measure.victims"):
        victim_report = victim_analyzer.analyze()
    with run_engine.stage("measure.operators"):
        operator_report = OperatorAnalyzer(context).analyze()
    with run_engine.stage("measure.affiliates"):
        affiliate_report = AffiliateAnalyzer(context).analyze(victim_report)
    clusterer = FamilyClusterer(context)
    with run_engine.stage("measure.clustering"):
        clustering = clusterer.cluster(victim_report)
    run_engine.obs.event(
        "pipeline.done",
        contracts=len(dataset.contracts),
        operators=len(dataset.operators),
        affiliates=len(dataset.affiliates),
        victims=victim_report.victim_count,
        families=clustering.family_count,
    )

    return PipelineResult(
        world=world,
        dataset=dataset,
        seed_summary=build.seed_summary,
        seed_report=build.seed_report,
        expansion_report=build.expansion_report,
        analyzer=build.analyzer,
        context=context,
        victim_report=victim_report,
        operator_report=operator_report,
        affiliate_report=affiliate_report,
        clustering=clustering,
        victim_analyzer=victim_analyzer,
        family_clusterer=clusterer,
        engine=build.analyzer.engine,
        resume_info=build.resume_info,
    )
