"""The DaaS dataset model (the paper's released artifact).

A :class:`DaaSDataset` holds the four entity kinds of Table 1 — profit-
sharing contracts, operator accounts, affiliate accounts, and profit-
sharing transactions — plus provenance (which accounts came from the seed
stage vs. snowball expansion, and from which public source).  It
round-trips to JSON so it can be released exactly like the paper's
GitHub dataset.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.core.profit_sharing import ProfitShareMatch

__all__ = [
    "AddressActivity",
    "DaaSDataset",
    "PSTransactionRecord",
    "Provenance",
    "fold_activity",
]


@dataclass(frozen=True, slots=True)
class PSTransactionRecord:
    """One profit-sharing transaction as stored in the released dataset."""

    tx_hash: str
    contract: str
    operator: str
    affiliate: str
    token: str
    operator_amount: int
    affiliate_amount: int
    ratio_bps: int
    timestamp: int
    total_usd: float = 0.0

    @classmethod
    def from_match(cls, match: ProfitShareMatch, total_usd: float = 0.0) -> "PSTransactionRecord":
        return cls(
            tx_hash=match.tx_hash,
            contract=match.contract,
            operator=match.operator,
            affiliate=match.affiliate,
            token=match.token,
            operator_amount=match.operator_amount,
            affiliate_amount=match.affiliate_amount,
            ratio_bps=match.ratio_bps,
            timestamp=match.timestamp,
            total_usd=total_usd,
        )

    @property
    def operator_usd(self) -> float:
        total = self.operator_amount + self.affiliate_amount
        return self.total_usd * self.operator_amount / total if total else 0.0

    @property
    def affiliate_usd(self) -> float:
        return self.total_usd - self.operator_usd

    @property
    def dedup_key(self) -> str:
        """Identity of a split in the dataset: a later record with the
        same tx, token and operator is a duplicate and is dropped."""
        return self.tx_hash + "/" + self.token + "/" + self.operator


@dataclass(frozen=True, slots=True)
class Provenance:
    """How an address entered the dataset."""

    stage: str               # "seed" | "expansion"
    source: str              # label feed name, or "snowball:<iteration>"


@dataclass(slots=True)
class AddressActivity:
    """One address's profit-sharing activity, folded from its records.

    Every per-address figure the index and the risk signals report —
    profit share, tx count, first/last seen, split ratio, counterparties,
    evidence — is a left fold of :meth:`see` over the address's records
    in dataset order, so any two folds over the same records agree to
    the last bit of every float sum.
    """

    profit_usd: float = 0.0
    tx_count: int = 0
    first_ts: int | None = None
    last_ts: int | None = None
    ratios: dict[int, int] = field(default_factory=dict)
    operators: set[str] = field(default_factory=set)
    affiliates: set[str] = field(default_factory=set)
    contracts: set[str] = field(default_factory=set)
    evidence: list[tuple[int, str]] = field(default_factory=list)

    def see(self, ts: int, ratio_bps: int, tx_hash: str, profit_usd: float) -> None:
        self.profit_usd += profit_usd
        self.tx_count += 1
        if self.first_ts is None or ts < self.first_ts:
            self.first_ts = ts
        if self.last_ts is None or ts > self.last_ts:
            self.last_ts = ts
        self.ratios[ratio_bps] = self.ratios.get(ratio_bps, 0) + 1
        self.evidence.append((ts, tx_hash))

    def top_ratio(self) -> int | None:
        if not self.ratios:
            return None
        # Most frequent ratio; ties resolve to the smallest value.
        return min(self.ratios, key=lambda r: (-self.ratios[r], r))

    def evidence_sample(self, limit: int) -> tuple[str, ...]:
        """The ``limit`` earliest distinct tx hashes (by time, then hash)."""
        return tuple(h for _, h in heapq.nsmallest(limit, set(self.evidence)))


def fold_activity(records, only=None) -> dict[str, AddressActivity]:
    """Per-address :class:`AddressActivity` over ``records``, in order.

    A record counts once for each role slot an address fills in it —
    contract (whole split), operator, affiliate (their shares) — in that
    order.  ``only`` (a set) restricts the fold to those addresses; the
    result for each of them is the same as an unrestricted fold's.
    """
    out: dict[str, AddressActivity] = {}

    def activity_of(address: str) -> AddressActivity:
        activity = out.get(address)
        if activity is None:
            activity = out[address] = AddressActivity()
        return activity

    for r in records:
        contract, operator, affiliate = r.contract, r.operator, r.affiliate
        if only is None or contract in only:
            activity = activity_of(contract)
            activity.see(r.timestamp, r.ratio_bps, r.tx_hash, r.total_usd)
            activity.operators.add(operator)
            activity.affiliates.add(affiliate)
        take_operator = only is None or operator in only
        take_affiliate = only is None or affiliate in only
        if take_operator or take_affiliate:
            operator_usd = r.operator_usd
            if take_operator:
                activity = activity_of(operator)
                activity.see(r.timestamp, r.ratio_bps, r.tx_hash, operator_usd)
                activity.contracts.add(contract)
            if take_affiliate:
                # == r.affiliate_usd, without computing the operator share twice
                activity = activity_of(affiliate)
                activity.see(r.timestamp, r.ratio_bps, r.tx_hash, r.total_usd - operator_usd)
                activity.contracts.add(contract)
    return out


@dataclass
class DaaSDataset:
    """Contracts, operators, affiliates and their profit-sharing txs."""

    contracts: set[str] = field(default_factory=set)
    operators: set[str] = field(default_factory=set)
    affiliates: set[str] = field(default_factory=set)
    transactions: list[PSTransactionRecord] = field(default_factory=list)
    provenance: dict[str, Provenance] = field(default_factory=dict)
    _tx_hashes: set[str] = field(default_factory=set, repr=False)

    # -- mutation -----------------------------------------------------------

    def add_contract(self, address: str, stage: str, source: str) -> bool:
        if address in self.contracts:
            return False
        self.contracts.add(address)
        self.provenance.setdefault(address, Provenance(stage, source))
        return True

    def add_operator(self, address: str, stage: str, source: str) -> bool:
        if address in self.operators:
            return False
        self.operators.add(address)
        self.provenance.setdefault(address, Provenance(stage, source))
        return True

    def add_affiliate(self, address: str, stage: str, source: str) -> bool:
        if address in self.affiliates:
            return False
        self.affiliates.add(address)
        self.provenance.setdefault(address, Provenance(stage, source))
        return True

    def add_transaction(self, record: PSTransactionRecord) -> bool:
        """Add a PS transaction; duplicate (hash, token, source-pair) no-ops."""
        key = record.dedup_key
        if key in self._tx_hashes:
            return False
        self._tx_hashes.add(key)
        self.transactions.append(record)
        return True

    # -- views --------------------------------------------------------------

    def role_of(self, address: str) -> str | None:
        """``address``'s role, by precedence contract > operator >
        affiliate; ``None`` outside the dataset."""
        if address in self.contracts:
            return "contract"
        if address in self.operators:
            return "operator"
        if address in self.affiliates:
            return "affiliate"
        return None

    @property
    def all_accounts(self) -> set[str]:
        """Every DaaS account: contracts + operators + affiliates."""
        return self.contracts | self.operators | self.affiliates

    def account_count(self) -> int:
        return len(self.contracts) + len(self.operators) + len(self.affiliates)

    def transactions_of_contract(self, contract: str) -> list[PSTransactionRecord]:
        return [t for t in self.transactions if t.contract == contract]

    def operator_profit_usd(self) -> float:
        return sum(t.operator_usd for t in self.transactions)

    def affiliate_profit_usd(self) -> float:
        return sum(t.affiliate_usd for t in self.transactions)

    def total_profit_usd(self) -> float:
        return sum(t.total_usd for t in self.transactions)

    def summary(self) -> dict[str, int]:
        """Table 1-style row counts."""
        return {
            "profit_sharing_contracts": len(self.contracts),
            "operator_accounts": len(self.operators),
            "affiliate_accounts": len(self.affiliates),
            "daas_accounts": self.account_count(),
            "profit_sharing_transactions": len(self.transactions),
        }

    # -- time slicing ------------------------------------------------------------

    def slice_until(self, until_ts: int) -> "DaaSDataset":
        """The dataset as it would have looked mid-collection: only
        profit-sharing transactions up to ``until_ts`` and only entities
        with at least one such transaction as evidence (the paper's
        dataset grew over a 21-month window; this reconstructs any
        intermediate state for growth analyses)."""
        sliced = DaaSDataset()
        for record in self.transactions:
            if record.timestamp > until_ts:
                continue
            sliced.add_transaction(record)
            for adder, address in (
                (sliced.add_contract, record.contract),
                (sliced.add_operator, record.operator),
                (sliced.add_affiliate, record.affiliate),
            ):
                provenance = self.provenance.get(address)
                adder(
                    address,
                    provenance.stage if provenance else "seed",
                    provenance.source if provenance else "slice",
                )
        return sliced

    # -- merge / diff ----------------------------------------------------------

    def merge(self, other: "DaaSDataset") -> "DaaSDataset":
        """Union of two datasets (e.g. two collection windows); provenance
        of overlapping entries follows self (first-seen wins)."""
        merged = DaaSDataset()
        for source in (self, other):
            for address in sorted(source.contracts):
                p = source.provenance.get(address)
                merged.add_contract(address, p.stage if p else "seed", p.source if p else "merge")
            for address in sorted(source.operators):
                p = source.provenance.get(address)
                merged.add_operator(address, p.stage if p else "seed", p.source if p else "merge")
            for address in sorted(source.affiliates):
                p = source.provenance.get(address)
                merged.add_affiliate(address, p.stage if p else "seed", p.source if p else "merge")
            for record in source.transactions:
                merged.add_transaction(record)
        return merged

    def diff(self, baseline: "DaaSDataset") -> dict[str, int]:
        """What this dataset adds over ``baseline`` (collection-window
        growth reporting): counts of new entities per kind."""
        baseline_hashes = {t.tx_hash for t in baseline.transactions}
        return {
            "new_contracts": len(self.contracts - baseline.contracts),
            "new_operators": len(self.operators - baseline.operators),
            "new_affiliates": len(self.affiliates - baseline.affiliates),
            "new_transactions": sum(
                1 for t in self.transactions if t.tx_hash not in baseline_hashes
            ),
        }

    # -- (de)serialization -----------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "contracts": sorted(self.contracts),
            "operators": sorted(self.operators),
            "affiliates": sorted(self.affiliates),
            "transactions": [asdict(t) for t in self.transactions],
            "provenance": {
                addr: {"stage": p.stage, "source": p.source}
                for addr, p in sorted(self.provenance.items())
            },
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "DaaSDataset":
        payload = json.loads(text)
        dataset = cls(
            contracts=set(payload["contracts"]),
            operators=set(payload["operators"]),
            affiliates=set(payload["affiliates"]),
        )
        for entry in payload["transactions"]:
            dataset.add_transaction(PSTransactionRecord(**entry))
        for addr, p in payload.get("provenance", {}).items():
            dataset.provenance[addr] = Provenance(stage=p["stage"], source=p["source"])
        return dataset

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path: str | Path) -> "DaaSDataset":
        return cls.from_json(Path(path).read_text())
