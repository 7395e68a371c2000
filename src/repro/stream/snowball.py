"""Incremental snowball expansion (the streaming §5.1 Step 4).

The batch :class:`~repro.core.snowball.SnowballExpander` walks every
frontier account's *full* history each round and evaluates candidates
against the knowledge of the round it happened to be visited in — a
procedure whose result depends on the round structure.  A streaming
expander cannot afford either property, so :class:`IncrementalExpander`
implements the **monotone closure** of the same admission rule:

    a contract ``C`` is admitted at watermark ``W`` iff

    * some known operator/affiliate's history contains a
      profit-sharing-classified transaction invoking ``C`` at or before
      ``W`` (*discovery*), and
    * ``C`` is a contract whose counterparty set at ``W`` contains at
      least two known entities besides ``C`` itself (the paper's guard
      against pulling in unrelated contracts).

Both conditions are monotone in the known set and the watermark, so
the admitted set at ``W`` is the unique least fixpoint — **independent
of how the prefix was sliced into deltas and of arrival order**.  That
confluence is what the parity matrix asserts, and it is the deliberate
difference from the batch walk (whose round-synchronized guard is
path-dependent and therefore unsuitable for a delta loop);
``docs/streaming.md`` discusses the gap.

Incrementality is cursor-based semi-naive evaluation: per-account walk
cursors, per-candidate counterparty cursors, and per-contract match
cursors each consume only transactions newly under the watermark, and
a delta's *touched set* limits the scan to addresses whose histories
actually grew.  All reads go through the analyzer's caches
(``runtime.cache``), so the cold rebuild and the incremental loop share
verdicts as well as code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.dataset import DaaSDataset, Provenance
from repro.core.pipeline import ContractAnalyzer, split_roles

__all__ = ["IncrementalExpander", "STREAM_PROVENANCE", "TickReport"]

#: Provenance of every stream-discovered entity: a constant, so no
#: record can depend on how the prefix was sliced into deltas.
STREAM_PROVENANCE = Provenance("expansion", "stream")


@dataclass(slots=True)
class _PendingCandidate:
    """A discovered contract not yet past the counterparty guard."""

    parties: set[str] = field(default_factory=set)
    #: Consumed prefix of the candidate's transaction history.
    cursor: int = 0


@dataclass(slots=True)
class TickReport:
    """What one ``advance`` call changed (feeds metrics + clustering)."""

    watermark_ts: int = 0
    accounts_walked: int = 0
    candidates_discovered: int = 0
    admitted: list[str] = field(default_factory=list)
    new_accounts: int = 0
    #: Admitted contracts whose watermarked match list grew this tick —
    #: the clusterer unions exactly these contracts' new edges.
    contracts_with_new_matches: list[str] = field(default_factory=list)


class IncrementalExpander:
    """Watermarked, delta-driven snowball state over one analyzer.

    ``seeds`` anchors the known sets: its contracts, operators, and
    affiliates are trusted from the first tick (they are feed-derived
    inputs, not watermark-derived facts).  Everything else — admissions,
    roles, records — is a pure function of ``(seeds, watermark)``, which
    is what :meth:`derive_dataset` exploits to give the incremental loop
    and the cold rebuild byte-identical outputs.
    """

    def __init__(self, analyzer: ContractAnalyzer, seeds: DaaSDataset) -> None:
        if analyzer.min_ps_txs != 1:
            # Discovery implies one classified match at or under the
            # watermark, so admission == is_profit_sharing only holds at
            # the default floor; a higher floor would make admission
            # depend on *when* matches were counted.
            raise ValueError(
                "IncrementalExpander requires analyzer.min_ps_txs == 1 "
                f"(got {analyzer.min_ps_txs})"
            )
        self.analyzer = analyzer
        self.seeds = seeds
        self.watermark_ts: int | None = None
        #: Admitted contracts (seed contracts included from tick zero).
        self.contracts: set[str] = set(seeds.contracts)
        #: Known operator/affiliate accounts (role-free union — roles are
        #: derived at snapshot time, because the majority vote can flip).
        self.accounts: set[str] = set(seeds.operators) | set(seeds.affiliates)
        self._account_cursor: dict[str, int] = {}
        self._match_cursor: dict[str, int] = {}
        self._pending: dict[str, _PendingCandidate] = {}

    # -- the per-delta fixpoint ----------------------------------------------

    def advance(self, watermark_ts: int, touched=None) -> TickReport:
        """Fold everything at or under ``watermark_ts`` into the state.

        ``touched`` (a delta's grown-history address set) restricts the
        scan; ``None`` means examine everything — the cold-rebuild path.
        The admitted set after the call equals the monotone-rule least
        fixpoint at the watermark, however the prefix was batched.
        """
        if self.watermark_ts is not None and watermark_ts < self.watermark_ts:
            raise ValueError(
                f"watermark moved backwards: {watermark_ts} < {self.watermark_ts}"
            )
        self.watermark_ts = watermark_ts
        report = TickReport(watermark_ts=watermark_ts)

        # Worklists: only addresses whose histories grew (or whose
        # knowledge context changed) are ever re-examined.  A pending
        # candidate or account *not* in the delta's touched set cannot
        # have new transactions under the new watermark — its previous
        # cursor already consumed everything — so skipping it is exact,
        # not an approximation.
        if touched is None:
            walk = sorted(self.accounts)
            dirty = set(self._pending)
            match_scan = sorted(self.contracts)
        else:
            walk = sorted(self.accounts & touched)
            dirty = set(self._pending) & touched
            match_scan = sorted(self.contracts & touched)
        known_grew = False
        new_matches: set[str] = set()

        while walk or match_scan or dirty or known_grew:
            # 1. Walk grown account histories; collect fresh discoveries.
            fresh: list[str] = []
            for account in walk:
                report.accounts_walked += 1
                fresh.extend(self._walk_account(account, report))
            walk = []

            # 2. Consume grown match lists; their recipients join the
            # known set and get a (full-history) walk next iteration.
            for contract in match_scan:
                added = self._advance_matches(contract)
                if not added:
                    continue
                new_matches.add(contract)
                for recipient in added:
                    if recipient not in self.accounts:
                        self.accounts.add(recipient)
                        report.new_accounts += 1
                        walk.append(recipient)
                        known_grew = True
            match_scan = []

            # 3. Admission: refresh the counterparty sets that changed,
            # then re-evaluate the guard — for every pending candidate
            # when the known set grew, since any of them may now clear.
            refresh = dirty | set(fresh)
            to_check = set(self._pending) if known_grew else refresh
            dirty = set()
            known_grew = False
            for candidate in sorted(to_check):
                pending = self._pending.get(candidate)
                if pending is None:
                    continue
                if candidate in refresh:
                    self._advance_parties(candidate, pending)
                if self._admissible(candidate, pending.parties):
                    self._admit(candidate, report)
                    match_scan.append(candidate)
                    known_grew = True

        report.contracts_with_new_matches = sorted(new_matches)
        return report

    # -- pieces of the fixpoint ----------------------------------------------

    def _walk_account(self, account: str, report: TickReport) -> list[str]:
        """Consume the account's newly watermarked txs; returns the
        candidate contracts it discovered."""
        txs = self.analyzer.transactions_of(account)
        i = self._account_cursor.get(account, 0)
        discovered: list[str] = []
        while i < len(txs) and txs[i].timestamp <= self.watermark_ts:
            tx = txs[i]
            i += 1
            candidate = tx.to
            if (
                candidate is None
                or candidate in self.contracts
                or candidate in self._pending
            ):
                continue
            if not self.analyzer.rpc_classifier.classify_hash(tx.hash):
                continue
            if not self.analyzer.is_contract(candidate):
                continue
            self._pending[candidate] = _PendingCandidate()
            report.candidates_discovered += 1
            discovered.append(candidate)
        self._account_cursor[account] = i
        return discovered

    def _advance_parties(self, candidate: str, pending: _PendingCandidate) -> None:
        """Extend the candidate's watermarked counterparty set."""
        txs = self.analyzer.transactions_of(candidate)
        i = pending.cursor
        parties = pending.parties
        while i < len(txs) and txs[i].timestamp <= self.watermark_ts:
            tx = txs[i]
            i += 1
            parties.add(tx.sender)
            if tx.to:
                parties.add(tx.to)
            for match in self.analyzer.rpc_classifier.classify_hash(tx.hash):
                parties.add(match.operator)
                parties.add(match.affiliate)
                parties.add(match.source)
        parties.discard(candidate)
        pending.cursor = i

    def _admissible(self, candidate: str, parties: set[str]) -> bool:
        known = 0
        for party in parties:
            if party == candidate:
                continue
            if party in self.contracts or party in self.accounts:
                known += 1
                if known >= 2:
                    return True
        return False

    def _admit(self, candidate: str, report: TickReport) -> None:
        del self._pending[candidate]
        self.contracts.add(candidate)
        report.admitted.append(candidate)

    def _advance_matches(self, contract: str) -> list[str]:
        """Consume the contract's newly watermarked profit-sharing
        matches; returns their recipients (known-set candidates)."""
        matches = self.analyzer.analyze(contract).matches
        i = self._match_cursor.get(contract, 0)
        recipients: list[str] = []
        while i < len(matches) and matches[i].timestamp <= self.watermark_ts:
            match = matches[i]
            i += 1
            recipients.append(match.operator)
            recipients.append(match.affiliate)
        self._match_cursor[contract] = i
        return recipients

    # -- snapshot-time derivation --------------------------------------------

    def matches_of(self, contract: str):
        """The contract's profit-sharing matches at the watermark (the
        consumed prefix of its cached full-history analysis)."""
        cursor = self._match_cursor.get(contract, 0)
        if cursor == 0:
            return []
        return self.analyzer.analyze(contract).matches[:cursor]

    def derive_dataset(self) -> DaaSDataset:
        """The §5.1 dataset as of the watermark — a pure function of the
        admitted/known state, shared by the incremental loop and the
        cold rebuild.

        Roles are recomputed from the watermarked matches on every
        snapshot (never accumulated) because the operator/affiliate
        majority vote is not monotone; stream-discovered entities carry
        the constant provenance ``("expansion", "stream")`` so the
        record cannot depend on delta batching.
        """
        dataset = DaaSDataset()
        seeds = self.seeds
        for address in sorted(seeds.contracts):
            prov = seeds.provenance[address]
            dataset.add_contract(address, stage=prov.stage, source=prov.source)
        for address in sorted(seeds.operators):
            prov = seeds.provenance[address]
            dataset.add_operator(address, stage=prov.stage, source=prov.source)
        for address in sorted(seeds.affiliates):
            prov = seeds.provenance[address]
            dataset.add_affiliate(address, stage=prov.stage, source=prov.source)

        stage, source = STREAM_PROVENANCE.stage, STREAM_PROVENANCE.source
        for contract in sorted(self.contracts):
            matches = self.matches_of(contract)
            if contract not in seeds.contracts:
                dataset.add_contract(contract, stage=stage, source=source)
            if not matches:
                continue
            operators, affiliates = split_roles(matches)
            for operator in sorted(operators):
                dataset.add_operator(operator, stage=stage, source=source)
            for affiliate in sorted(affiliates):
                dataset.add_affiliate(affiliate, stage=stage, source=source)
            for record in self.analyzer.to_records(matches):
                dataset.add_transaction(record)
        return dataset

    def derive_edges(self) -> list[tuple[str, str]]:
        """Every ``(contract, recipient)`` profit-sharing edge at the
        watermark, in deterministic order — the clustering input."""
        edges: list[tuple[str, str]] = []
        for contract in sorted(self.contracts):
            for match in self.matches_of(contract):
                edges.append((contract, match.operator))
                edges.append((contract, match.affiliate))
        return edges

    # -- checkpoint codec ----------------------------------------------------

    def encode(self) -> dict:
        """JSON-safe resume state (cursors and sets; matches rehydrate
        from the analyzer's cached histories on decode)."""
        return {
            "watermark_ts": self.watermark_ts,
            "contracts": sorted(self.contracts),
            "accounts": sorted(self.accounts),
            "account_cursor": {
                a: self._account_cursor[a] for a in sorted(self._account_cursor)
            },
            "match_cursor": {
                c: self._match_cursor[c] for c in sorted(self._match_cursor)
            },
            "pending": {
                c: {
                    "cursor": p.cursor,
                    "parties": sorted(p.parties),
                }
                for c, p in sorted(self._pending.items())
            },
        }

    @classmethod
    def decode(
        cls, payload: dict, analyzer: ContractAnalyzer, seeds: DaaSDataset
    ) -> "IncrementalExpander":
        expander = cls(analyzer, seeds)
        expander.watermark_ts = payload.get("watermark_ts")
        expander.contracts = set(payload.get("contracts", []))
        expander.accounts = set(payload.get("accounts", []))
        expander._account_cursor = {
            a: int(i) for a, i in payload.get("account_cursor", {}).items()
        }
        expander._match_cursor = {
            c: int(i) for c, i in payload.get("match_cursor", {}).items()
        }
        expander._pending = {
            c: _PendingCandidate(
                parties=set(p.get("parties", [])), cursor=int(p.get("cursor", 0))
            )
            for c, p in payload.get("pending", {}).items()
        }
        return expander
