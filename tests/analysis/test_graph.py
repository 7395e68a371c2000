"""Money-flow graph construction and structure."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis.graph import FlowGraphBuilder


@pytest.fixture(scope="module")
def flow(pipeline):
    builder = FlowGraphBuilder(pipeline.context)
    graph = builder.build()
    return builder, graph


def _weights(graph):
    for recipients in graph.edges.values():
        yield from recipients.values()


class TestConstruction:
    def test_graph_nonempty(self, flow):
        _, graph = flow
        assert len(graph.roles) > 0
        assert graph.edge_count > 0

    def test_every_daas_account_present(self, flow, pipeline):
        _, graph = flow
        for account in pipeline.dataset.all_accounts:
            assert account in graph.roles

    def test_edge_weights_positive(self, flow):
        _, graph = flow
        for data in _weights(graph):
            assert data["weight_wei"] >= 0
            assert data["token_transfers"] >= 0
            assert data["weight_wei"] > 0 or data["token_transfers"] > 0

    def test_contract_split_edges_exist(self, flow, pipeline):
        _, graph = flow
        record = pipeline.dataset.transactions[0]
        if record.token == "ETH":
            assert record.operator in graph.edges[record.contract]
            assert record.affiliate in graph.edges[record.contract]

    def test_edge_endpoints_are_nodes(self, flow):
        _, graph = flow
        for source, recipients in graph.edges.items():
            assert source in graph.roles
            assert set(recipients) <= set(graph.roles)

    def test_import_loads_no_networkx(self):
        """The flow graph is plain dicts: importing it in a fresh
        interpreter pulls in no graph library."""
        probe = (
            "import sys, repro.analysis.graph; "
            "sys.exit('networkx' in sys.modules)"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
        assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0


class TestRoles:
    def test_role_annotation_matches_dataset(self, flow, pipeline):
        _, graph = flow
        for contract in pipeline.dataset.contracts:
            assert graph.roles[contract] == "contract"
        for operator in pipeline.dataset.operators:
            assert graph.roles[operator] == "operator"

    def test_sinks_annotated(self, flow, world):
        _, graph = flow
        if world.infra.mixer in graph.roles:
            assert graph.roles[world.infra.mixer] == "sink"

    def test_victims_annotated(self, flow, world):
        _, graph = flow
        annotated_victims = {
            node for node, role in graph.roles.items() if role == "victim"
        }
        # Every annotated victim must be a true victim; coverage is partial
        # because ERC-20 victims move tokens (not ETH) into contracts.
        assert annotated_victims
        assert annotated_victims <= world.truth.all_victims

    def test_role_counts_partition_nodes(self, flow):
        builder, graph = flow
        counts = builder.role_counts(graph)
        assert sum(counts.values()) == len(graph.roles)
        assert set(counts) <= set(FlowGraphBuilder.ROLES)


class TestSummary:
    def test_summary_consistent(self, flow):
        builder, graph = flow
        summary = builder.summarize(graph)
        assert summary.nodes == len(graph.roles)
        assert summary.edges == graph.edge_count
        assert 1 <= summary.components <= summary.nodes
        assert summary.largest_component <= summary.nodes
        assert summary.total_eth_volume_wei > 0


class TestOperatorCommunities:
    def test_communities_match_planted_families(self, flow, world):
        builder, graph = flow
        communities = builder.operator_communities(graph)
        planted = [
            set(fam.operator_accounts) for fam in world.truth.families.values()
        ]
        # every planted family is one community (no merges, no splits)
        for ops in planted:
            assert ops in communities
        assert len(communities) == len(planted)
