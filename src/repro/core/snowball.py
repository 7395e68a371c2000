"""Snowball expansion of the DaaS dataset (paper §5.1, Step 4).

Starting from the seed operators and affiliates, walk each known account's
transaction history.  When a transaction is profit-sharing and invokes a
contract not yet in the dataset, the contract is admitted if it has
*previously interacted with another phishing account already in the
dataset* (the paper's guard against pulling in unrelated contracts).
Admitted contracts go through the same Step 2/3 analysis, their operators
and affiliates join the frontier, and the walk repeats until a fixpoint.

The iteration-by-iteration statistics are kept for the convergence
ablation (how much of the ecosystem each hop recovers).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.dataset import DaaSDataset
from repro.core.pipeline import ContractAnalyzer, split_roles

__all__ = [
    "IterationStats",
    "ExpansionReport",
    "SnowballExpander",
    "counterparty_set",
    "evaluate_frontier_account",
]

#: Called after every completed round with ``(report, frontier, rejected)``
#: — the exact state a resumed expansion needs (checkpoint hook).
RoundHook = Callable[["ExpansionReport", list[str], set[str]], None]


def counterparty_set(
    analyzer: ContractAnalyzer, contract: str, counterparties: dict[str, set[str]]
) -> set[str]:
    """Every address the contract's history touches (memoized into
    ``counterparties``).  Module-level so shard worker processes share the
    exact logic — and therefore the exact admission decisions — of the
    serial walk."""
    cached = counterparties.get(contract)
    if cached is not None:
        return cached
    parties: set[str] = set()
    for tx in analyzer.transactions_of(contract):
        parties.add(tx.sender)
        if tx.to:
            parties.add(tx.to)
        for match in analyzer.rpc_classifier.classify_hash(tx.hash):
            parties.add(match.operator)
            parties.add(match.affiliate)
            parties.add(match.source)
    parties.discard(contract)
    counterparties[contract] = parties
    return parties


def evaluate_frontier_account(
    analyzer: ContractAnalyzer,
    account: str,
    known_contracts: frozenset[str] | set[str],
    known_accounts: frozenset[str] | set[str],
    rejected: frozenset[str] | set[str],
    counterparties: dict[str, set[str]],
) -> list[tuple[str, bool]]:
    """Walk one frontier account's history and evaluate every candidate
    contract it surfaces: ``(candidate, passes the admission guard)``.

    Pure within a round given the frozen ``known_*``/``rejected`` sets, so
    it runs identically on the calling process, a worker thread, or a
    shard worker process (``repro.runtime.sharding``)."""
    out: list[tuple[str, bool]] = []
    for tx in analyzer.transactions_of(account):
        candidate = tx.to
        if candidate is None or candidate in known_contracts or candidate in rejected:
            continue
        if not analyzer.rpc_classifier.classify_hash(tx.hash):
            continue
        if not analyzer.is_contract(candidate):
            continue
        parties = counterparty_set(analyzer, candidate, counterparties)
        admissible = any(
            p != account and p != candidate and p in known_accounts for p in parties
        )
        out.append((candidate, admissible))
    return out


@dataclass(slots=True)
class IterationStats:
    """One snowball iteration's yield."""

    iteration: int
    accounts_scanned: int = 0
    candidates_seen: int = 0
    candidates_rejected: int = 0
    new_contracts: int = 0
    new_operators: int = 0
    new_affiliates: int = 0
    new_transactions: int = 0


@dataclass
class ExpansionReport:
    iterations: list[IterationStats] = field(default_factory=list)

    @property
    def total_new_contracts(self) -> int:
        return sum(s.new_contracts for s in self.iterations)

    @property
    def converged(self) -> bool:
        return bool(self.iterations) and self.iterations[-1].new_contracts == 0


class SnowballExpander:
    """Iterative dataset expansion until no new contracts appear."""

    def __init__(self, analyzer: ContractAnalyzer, max_iterations: int = 50) -> None:
        self.analyzer = analyzer
        self.max_iterations = max_iterations
        self._counterparties: dict[str, set[str]] = {}
        self._rejected: set[str] = set()

    # -- public ------------------------------------------------------------

    def expand(
        self,
        dataset: DaaSDataset,
        resume_state: tuple[ExpansionReport, list[str], set[str]] | None = None,
        on_round: RoundHook | None = None,
    ) -> ExpansionReport:
        """Mutate ``dataset`` in place; returns per-iteration statistics.

        ``resume_state`` is ``(report, frontier, rejected)`` as a prior
        run's ``on_round`` hook last saw it: completed rounds are not
        re-walked, and the continuation is byte-identical to a run that
        was never interrupted (``tests/runtime/test_checkpoint.py``).
        ``on_round`` fires after every completed round — the
        checkpoint-persistence seam.
        """
        engine = self.analyzer.engine
        with engine.stage("snowball"):
            report = self._expand(dataset, resume_state, on_round)
        engine.obs.event(
            "snowball.done",
            iterations=len(report.iterations),
            converged=report.converged,
            new_contracts=report.total_new_contracts,
        )
        return report

    def _expand(
        self,
        dataset: DaaSDataset,
        resume_state: tuple[ExpansionReport, list[str], set[str]] | None = None,
        on_round: RoundHook | None = None,
    ) -> ExpansionReport:
        obs = self.analyzer.engine.obs
        if resume_state is not None:
            report, frontier, rejected = resume_state
            frontier = list(frontier)
            self._rejected = set(rejected)
            if report.converged:
                return report
            start = len(report.iterations) + 1
        else:
            report = ExpansionReport()
            frontier = sorted(dataset.operators | dataset.affiliates)
            start = 1

        for iteration in range(start, self.max_iterations + 1):
            stats = IterationStats(iteration=iteration)
            with obs.span("snowball.round", round=iteration) as round_span:
                new_contracts = self._discover_contracts(
                    frontier, dataset, stats, iteration
                )
                frontier = self._admit_contracts(new_contracts, dataset, stats, iteration)
                round_span.set(
                    frontier=stats.accounts_scanned,
                    discovered=len(new_contracts),
                    new_contracts=stats.new_contracts,
                )
            obs.event(
                "snowball.round", level="debug", round=iteration,
                accounts_scanned=stats.accounts_scanned,
                new_contracts=stats.new_contracts,
                new_operators=stats.new_operators,
                new_affiliates=stats.new_affiliates,
            )
            report.iterations.append(stats)
            if on_round is not None:
                on_round(report, frontier, self._rejected)
            if not new_contracts:
                break
        return report

    # -- discovery -------------------------------------------------------------

    def _discover_contracts(
        self,
        frontier: list[str],
        dataset: DaaSDataset,
        stats: IterationStats,
        iteration: int,
    ) -> list[str]:
        # Per-account evaluation is pure within a round (the dataset and the
        # rejected set only change between rounds), so it can fan out over
        # shard worker processes when a sharding runtime is attached; the
        # merge below replays the accounts in frontier order so discovery
        # order, statistics, and the resulting dataset are byte-identical
        # to a serial walk.
        engine = self.analyzer.engine
        sharding = engine.sharding
        if sharding is not None and sharding.active:
            evaluated = sharding.discover(
                self.analyzer,
                frontier,
                known_contracts=set(dataset.contracts),
                known_accounts=set(dataset.all_accounts),
                rejected=self._rejected,
                round_no=iteration,
            )
        else:
            evaluated = engine.map(
                lambda account: self._evaluate_account(account, dataset), frontier
            )
        found: list[str] = []
        seen: set[str] = set()
        for account_candidates in evaluated:
            stats.accounts_scanned += 1
            for candidate, admissible in account_candidates:
                if candidate in seen:
                    continue
                stats.candidates_seen += 1
                if admissible:
                    found.append(candidate)
                    seen.add(candidate)
                else:
                    stats.candidates_rejected += 1
        return found

    def _evaluate_account(
        self, account: str, dataset: DaaSDataset
    ) -> list[tuple[str, bool]]:
        """Serial path: delegate to the shared evaluation with
        the expander's own memo (candidate guard semantics documented on
        :func:`evaluate_frontier_account`)."""
        return evaluate_frontier_account(
            self.analyzer,
            account,
            known_contracts=dataset.contracts,
            known_accounts=dataset.all_accounts,
            rejected=self._rejected,
            counterparties=self._counterparties,
        )

    # -- admission ----------------------------------------------------------------

    def _admit_contracts(
        self,
        candidates: list[str],
        dataset: DaaSDataset,
        stats: IterationStats,
        iteration: int,
    ) -> list[str]:
        """Run Step 2/3 on discovered contracts; returns the new frontier."""
        new_frontier: list[str] = []
        source = f"snowball:{iteration}"
        ordered = sorted(candidates)
        # Batch pre-warm: classification of this round's discoveries fans
        # out over the engine; the admission loop below runs on cache hits.
        self.analyzer.analyze_many(ordered)
        for contract in ordered:
            analysis = self.analyzer.analyze(contract)
            if not analysis.is_profit_sharing:
                self._rejected.add(contract)
                stats.candidates_rejected += 1
                continue
            dataset.add_contract(contract, stage="expansion", source=source)
            stats.new_contracts += 1

            operators, affiliates = split_roles(analysis.matches)
            for operator in operators:
                if dataset.add_operator(operator, stage="expansion", source=source):
                    stats.new_operators += 1
                    new_frontier.append(operator)
            for affiliate in affiliates:
                if dataset.add_affiliate(affiliate, stage="expansion", source=source):
                    stats.new_affiliates += 1
                    new_frontier.append(affiliate)
            for record in self.analyzer.to_records(analysis.matches):
                if dataset.add_transaction(record):
                    stats.new_transactions += 1
        return new_frontier
