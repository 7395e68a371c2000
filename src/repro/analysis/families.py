"""DaaS family clustering and family comparison (paper §7).

Step 1 clusters operator accounts: two operators belong to the same family
when they transact with each other directly, or when both transact with
the same Etherscan-labeled phishing account.  Step 2 assigns profit-
sharing contracts and affiliates to families through their operator
accounts.  Families are named from Etherscan labels on their operator
accounts when available, otherwise from the leading characters of the
top operator's address — exactly the paper's convention.

The module also reproduces the §7.2 family comparison: contract
implementation fingerprints (Table 3) and primary-contract lifecycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.context import AnalysisContext
from repro.analysis.victims import VictimReport

__all__ = [
    "Family",
    "ClusteringResult",
    "FamilyClusterer",
    "ContractImplementation",
    "connected_components",
]

_DAY = 86_400


def connected_components(adjacency: dict[str, set[str]]) -> list[set[str]]:
    """Connected components of an undirected adjacency map (every edge
    listed under both ends), in the order of each component's first key
    in ``adjacency``."""
    seen: set[str] = set()
    components = []
    for start in adjacency:
        if start in seen:
            continue
        component = {start}
        frontier = [start]
        while frontier:
            for neighbor in adjacency[frontier.pop()]:
                if neighbor not in component:
                    component.add(neighbor)
                    frontier.append(neighbor)
        seen |= component
        components.append(component)
    return components


@dataclass
class Family:
    name: str
    operators: set[str] = field(default_factory=set)
    contracts: set[str] = field(default_factory=set)
    affiliates: set[str] = field(default_factory=set)
    victims: set[str] = field(default_factory=set)
    total_profit_usd: float = 0.0
    first_tx_ts: int | None = None
    last_tx_ts: int | None = None

    @property
    def active_days(self) -> float:
        if self.first_tx_ts is None or self.last_tx_ts is None:
            return 0.0
        return (self.last_tx_ts - self.first_tx_ts) / _DAY


def _table2_order(family: Family) -> tuple[int, str]:
    return (-len(family.victims), family.name)


@dataclass
class ClusteringResult:
    families: list[Family] = field(default_factory=list)
    #: The operator graph the families are the connected components of,
    #: as an adjacency map: every operator maps to the operators it
    #: shares an edge with (a direct transfer or a labelled phishing
    #: counterparty), and isolated operators map to an empty set.
    operator_graph: dict[str, set[str]] = field(default_factory=dict)

    @property
    def family_count(self) -> int:
        return len(self.families)

    def by_name(self, name: str) -> Family | None:
        for family in self.families:
            if family.name == name:
                return family
        return None

    def top_families_profit_share(self, k: int = 3) -> float:
        total = sum(f.total_profit_usd for f in self.families)
        if total <= 0:
            return 0.0
        top = sorted(self.families, key=lambda f: -f.total_profit_usd)[:k]
        return sum(f.total_profit_usd for f in top) / total

    def sorted_by_victims(self) -> list[Family]:
        """Table 2 ordering: descending victim count, ties by name."""
        return sorted(self.families, key=_table2_order)


@dataclass(frozen=True, slots=True)
class ContractImplementation:
    """Table 3 row: how a family's contracts steal ETH and tokens."""

    family: str
    eth_entry: str            # e.g. 'payable function named "Claim"'
    uses_payable_fallback: bool
    uses_multicall: bool


class FamilyClusterer:
    def __init__(self, ctx: AnalysisContext) -> None:
        self.ctx = ctx

    # ------------------------------------------------------------------
    # clustering
    # ------------------------------------------------------------------

    def cluster(self, victim_report: VictimReport | None = None) -> ClusteringResult:
        graph = self._build_operator_graph()
        result = ClusteringResult(operator_graph=graph)
        for component in connected_components(graph):
            result.families.append(self._build_family(component))

        self._assign_members(result)
        if victim_report is not None:
            self._assign_victims(result, victim_report)
        result.families.sort(key=_table2_order)
        return result

    def _build_operator_graph(self) -> dict[str, set[str]]:
        """Step 1: operator nodes; edges from direct transactions or a
        shared Etherscan-labeled phishing counterparty.  Operators are
        walked in sorted order (``dataset.operators`` is a set), so the
        components come out in an order independent of string hashing."""
        operators = self.ctx.dataset.operators
        explorer = self.ctx.explorer
        graph: dict[str, set[str]] = {op: set() for op in sorted(operators)}

        def add_edge(a: str, b: str) -> None:
            graph[a].add(b)
            graph[b].add(a)

        labeled_partners: dict[str, set[str]] = {op: set() for op in graph}
        for operator in graph:
            for tx in explorer.transactions_of(operator):
                counterparty = None
                if tx.sender == operator and tx.to:
                    counterparty = tx.to
                elif tx.to == operator:
                    counterparty = tx.sender
                if counterparty is None or counterparty == operator:
                    continue
                if counterparty in operators:
                    add_edge(operator, counterparty)
                elif explorer.is_labeled_phishing(counterparty):
                    labeled_partners[operator].add(counterparty)

        # Shared labeled-phishing counterparties -> edge.
        by_partner: dict[str, list[str]] = {}
        for operator, partners in labeled_partners.items():
            for partner in partners:
                by_partner.setdefault(partner, []).append(operator)
        for ops in by_partner.values():
            for other in ops[1:]:
                add_edge(ops[0], other)
        return graph

    def _build_family(self, operators: set[str]) -> Family:
        """Name a component: Etherscan family label if any operator has a
        non-generic one, else the top operator's address prefix."""
        explorer = self.ctx.explorer
        label_name = None
        for operator in sorted(operators):
            label = explorer.get_label(operator)
            if label is not None and label.is_phishing and not label.tag.startswith("Fake_Phishing"):
                label_name = label.tag
                break
        if label_name is None:
            # The paper names unlabeled families by the leading characters
            # of the operator account (e.g. "0x0000b6").
            profit: dict[str, float] = {op: 0.0 for op in operators}
            for record in self.ctx.dataset.transactions:
                if record.operator in profit:
                    profit[record.operator] += record.operator_usd
            top = max(sorted(operators), key=lambda op: profit[op])
            label_name = top[:8]
        return Family(name=label_name, operators=set(operators))

    def _assign_members(self, result: ClusteringResult) -> None:
        """Step 2: contracts and affiliates follow their operators."""
        family_of_op: dict[str, Family] = {}
        for family in result.families:
            for operator in family.operators:
                family_of_op[operator] = family

        for record in self.ctx.dataset.transactions:
            family = family_of_op.get(record.operator)
            if family is None:
                continue
            family.contracts.add(record.contract)
            family.affiliates.add(record.affiliate)
            family.total_profit_usd += record.total_usd
            if family.first_tx_ts is None or record.timestamp < family.first_tx_ts:
                family.first_tx_ts = record.timestamp
            if family.last_tx_ts is None or record.timestamp > family.last_tx_ts:
                family.last_tx_ts = record.timestamp

    def _assign_victims(self, result: ClusteringResult, victim_report: VictimReport) -> None:
        family_of_contract: dict[str, Family] = {}
        for family in result.families:
            for contract in family.contracts:
                family_of_contract[contract] = family
        for incident in victim_report.incidents:
            family = family_of_contract.get(incident.contract)
            if family is not None:
                family.victims.add(incident.victim)

    # ------------------------------------------------------------------
    # §7.2 family comparison
    # ------------------------------------------------------------------

    def contract_implementations(self, result: ClusteringResult) -> list[ContractImplementation]:
        """Table 3: the dominant ETH entry point and multicall usage per
        family, recovered by inspecting the contracts' public functions
        (what a decompiler such as Dedaub reports)."""
        rows = []
        for family in result.sorted_by_victims():
            entry_votes: dict[str, int] = {}
            fallback_votes = 0
            multicall = False
            for address in family.contracts:
                contract = self.ctx.rpc.get_contract(address)
                if contract is None:
                    continue
                functions = set(contract.public_functions())
                if "multicall" in functions:
                    multicall = True
                if contract.has_payable_fallback():
                    fallback_votes += 1
                # Vote only plausible victim-facing entry points: batch and
                # maintenance functions (multicall, monetization, owner
                # sweeps) are shared across all styles and carry no signal.
                maintenance = {"multicall", "sellAndShare", "withdraw"}
                for name in functions - maintenance:
                    entry_votes[name] = entry_votes.get(name, 0) + 1
            if fallback_votes > sum(entry_votes.values()):
                eth_entry = "payable fallback function"
                uses_fallback = True
            elif entry_votes:
                top = max(entry_votes, key=entry_votes.get)
                eth_entry = f'payable function named "{top}"'
                uses_fallback = False
            else:
                eth_entry = "unknown"
                uses_fallback = False
            rows.append(
                ContractImplementation(
                    family=family.name,
                    eth_entry=eth_entry,
                    uses_payable_fallback=uses_fallback,
                    uses_multicall=multicall,
                )
            )
        return rows

    def primary_contract_lifecycles(
        self, result: ClusteringResult, min_ps_txs: int = 100
    ) -> dict[str, float]:
        """Mean lifecycle (days) of each family's primary contracts —
        contracts with more than ``min_ps_txs`` profit-sharing txs (§7.2)."""
        tx_counts: dict[str, int] = {}
        first: dict[str, int] = {}
        last: dict[str, int] = {}
        for record in self.ctx.dataset.transactions:
            tx_counts[record.contract] = tx_counts.get(record.contract, 0) + 1
            first[record.contract] = min(first.get(record.contract, record.timestamp), record.timestamp)
            last[record.contract] = max(last.get(record.contract, record.timestamp), record.timestamp)

        lifecycles: dict[str, float] = {}
        for family in result.families:
            spans = [
                (last[c] - first[c]) / _DAY
                for c in family.contracts
                if tx_counts.get(c, 0) > min_ps_txs
            ]
            if spans:
                lifecycles[family.name] = sum(spans) / len(spans)
        return lifecycles
