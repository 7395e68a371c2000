"""The DaaS money-flow graph.

Builds a directed graph of every value movement touching the dataset:
victims fund contracts, contracts split to operators and affiliates,
operators consolidate among themselves and cash out to mixers/bridges.
The paper reasons about this graph implicitly (snowball sampling exploits
its connectivity; clustering walks operator edges); materializing it
enables structural analyses — connectivity, role-annotated degrees, and a
community-detection alternative to the paper's clustering used by the
``bench_ablation_clustering`` experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.context import AnalysisContext
from repro.analysis.families import connected_components
from repro.core.fundflow import extract_fund_flow

__all__ = ["FlowGraph", "FlowGraphBuilder", "GraphSummary"]


@dataclass(frozen=True, slots=True)
class GraphSummary:
    nodes: int
    edges: int
    components: int
    largest_component: int
    total_eth_volume_wei: int


@dataclass
class FlowGraph:
    """A directed fund-flow graph on plain dicts.

    ``roles`` maps every node to its role (:attr:`FlowGraphBuilder.ROLES`);
    ``edges`` maps source → recipient → aggregated weights
    (``weight_wei`` and ``token_transfers``), one entry per directed pair.
    """

    roles: dict[str, str] = field(default_factory=dict)
    edges: dict[str, dict[str, dict[str, int]]] = field(default_factory=dict)

    @property
    def edge_count(self) -> int:
        return sum(len(recipients) for recipients in self.edges.values())

    def undirected(self) -> dict[str, set[str]]:
        """Adjacency map of every node, each edge listed under both ends."""
        adjacency: dict[str, set[str]] = {node: set() for node in self.roles}
        for source, recipients in self.edges.items():
            for recipient in recipients:
                adjacency[source].add(recipient)
                adjacency[recipient].add(source)
        return adjacency


class FlowGraphBuilder:
    """Builds and summarizes the ecosystem's fund-flow graph."""

    #: Node role attribute values, in priority order.
    ROLES = ("contract", "operator", "affiliate", "victim", "sink", "other")

    def __init__(self, ctx: AnalysisContext) -> None:
        self.ctx = ctx

    # ------------------------------------------------------------------

    def build(self, include_token_flows: bool = True) -> FlowGraph:
        """Directed graph over every transaction touching a DaaS account.

        Edge weights aggregate transferred value per (source, recipient):
        ``weight_wei`` for ETH and ``token_transfers`` as a count for
        token movements (token units are not directly comparable).
        """
        accounts = sorted(self.ctx.dataset.all_accounts)
        # Every dataset account is a node even if it never moved value
        # itself (e.g. a contract whose only activity is token pulls).
        nodes = dict.fromkeys(accounts)
        edges: dict[str, dict[str, dict[str, int]]] = {}
        seen_txs: set[str] = set()

        for account in accounts:
            for tx in self.ctx.explorer.transactions_of(account):
                if tx.hash in seen_txs:
                    continue
                seen_txs.add(tx.hash)
                receipt = self.ctx.rpc.get_transaction_receipt(tx.hash)
                for transfer in extract_fund_flow(tx, receipt):
                    if transfer.token == "ETH":
                        wei, tokens = transfer.amount, 0
                    elif include_token_flows and not transfer.is_nft:
                        wei, tokens = 0, 1
                    else:
                        continue
                    nodes.setdefault(transfer.source)
                    nodes.setdefault(transfer.recipient)
                    weights = edges.setdefault(transfer.source, {}).setdefault(
                        transfer.recipient, {"weight_wei": 0, "token_transfers": 0}
                    )
                    weights["weight_wei"] += wei
                    weights["token_transfers"] += tokens
        return FlowGraph(roles=self._roles(nodes, edges), edges=edges)

    def _roles(
        self, nodes: dict[str, None], edges: dict[str, dict[str, dict[str, int]]]
    ) -> dict[str, str]:
        dataset, explorer = self.ctx.dataset, self.ctx.explorer
        roles: dict[str, str] = {}
        for node in nodes:
            if node in dataset.contracts:
                role = "contract"
            elif node in dataset.operators:
                role = "operator"
            elif node in dataset.affiliates:
                role = "affiliate"
            else:
                label = explorer.get_label(node)
                if label is not None and label.category in ("mixer", "bridge", "exchange"):
                    role = "sink"
                elif label is not None:
                    role = "other"  # labeled infrastructure (tokens, marketplaces)
                elif any(
                    recipient in dataset.contracts for recipient in edges.get(node, ())
                ):
                    role = "victim"
                else:
                    role = "other"
            roles[node] = role
        return roles

    # ------------------------------------------------------------------

    def summarize(self, graph: FlowGraph) -> GraphSummary:
        components = connected_components(graph.undirected())
        return GraphSummary(
            nodes=len(graph.roles),
            edges=graph.edge_count,
            components=len(components),
            largest_component=max((len(c) for c in components), default=0),
            total_eth_volume_wei=sum(
                weights["weight_wei"]
                for recipients in graph.edges.values()
                for weights in recipients.values()
            ),
        )

    def role_counts(self, graph: FlowGraph) -> dict[str, int]:
        counts: dict[str, int] = {}
        for role in graph.roles.values():
            counts[role] = counts.get(role, 0) + 1
        return counts

    # ------------------------------------------------------------------

    def operator_communities(self, graph: FlowGraph) -> list[set[str]]:
        """Alternative family clustering: communities of the operator-
        projection graph.

        Two operators are linked when they are within two undirected hops
        of each other through non-victim nodes (shared executors, direct
        transfers, shared consolidation wallets).  Communities are the
        connected components of that projection — compared against the
        paper's label-assisted method in the clustering ablation.
        """
        operators = self.ctx.dataset.operators
        undirected = graph.undirected()
        blocked = {
            node for node, role in graph.roles.items() if role in ("victim", "sink")
        }
        projection: dict[str, set[str]] = {op: set() for op in sorted(operators)}

        def link(a: str, b: str) -> None:
            projection[a].add(b)
            projection[b].add(a)

        for operator in projection:
            for middle in undirected.get(operator, ()):
                if middle in blocked:
                    continue
                if middle in operators:
                    link(operator, middle)
                    continue
                for other in undirected[middle]:
                    if other != operator and other in operators:
                        link(operator, other)
        return connected_components(projection)
