"""Runtime cache accounting, invalidation, and re-classification guards."""

from __future__ import annotations

import pytest

from repro.chain.chain import Blockchain
from repro.chain.contracts.drainers import make_drainer_factory
from repro.chain.explorer import Explorer
from repro.chain.prices import PriceOracle
from repro.chain.rpc import EthereumRPC
from repro.chain.types import eth_to_wei
from repro.core import ContractAnalyzer, DaaSDataset, SeedBuilder, SnowballExpander
from repro.core.monitor import StreamingMonitor
from repro.runtime import ExecutionEngine, NullCache, ReadThroughCache, RPCReadCache

OP = "0x" + "11" * 20
EXEC = "0x" + "22" * 20
VICTIM = "0x" + "33" * 20
AFF = "0x" + "44" * 20
GENESIS = 1_700_000_000


@pytest.fixture()
def env():
    chain = Blockchain(genesis_timestamp=GENESIS)
    chain.fund(VICTIM, eth_to_wei(100))
    drainer = chain.deploy_contract(
        EXEC, make_drainer_factory("claim", OP, EXEC, 2000), timestamp=GENESIS
    )
    engine = ExecutionEngine()
    analyzer = ContractAnalyzer(
        EthereumRPC(chain), Explorer(chain), PriceOracle(), engine=engine
    )
    return chain, drainer, engine, analyzer


def claim(chain, drainer, ts_offset=12, eth=1):
    return chain.send_transaction(
        VICTIM, drainer.address, value=eth_to_wei(eth),
        func="Claim", args={"affiliate": AFF}, timestamp=GENESIS + ts_offset,
    )


class TestReadThroughCache:
    def test_hit_miss_accounting_and_identity(self):
        cache = ReadThroughCache("t")
        calls = []
        first = cache.get_or_compute("k", lambda: calls.append(1) or [1, 2])
        second = cache.get_or_compute("k", lambda: calls.append(1) or [1, 2])
        assert first is second
        assert len(calls) == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_lru_eviction_order_and_counter(self):
        cache = ReadThroughCache("t", max_size=2)
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("b", lambda: 2)
        cache.get_or_compute("a", lambda: 1)   # touch: a becomes most-recent
        cache.get_or_compute("c", lambda: 3)   # evicts b, the LRU entry
        assert cache.stats.evictions == 1
        assert "a" in cache and "c" in cache and "b" not in cache
        # b must be recomputed
        cache.get_or_compute("b", lambda: 2)
        assert cache.stats.misses == 4

    def test_invalidate_forces_recompute(self):
        cache = ReadThroughCache("t")
        cache.get_or_compute("k", lambda: 1)
        assert cache.invalidate("k") is True
        assert cache.invalidate("k") is False
        cache.get_or_compute("k", lambda: 2)
        assert cache.stats.misses == 2
        assert cache.get_or_compute("k", lambda: 3) == 2

    def test_clear_and_len(self):
        cache = ReadThroughCache("t")
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("b", lambda: 2)
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_zero_requests_hit_rate(self):
        assert ReadThroughCache("t").stats.hit_rate == 0.0

    def test_invalid_max_size_rejected(self):
        with pytest.raises(ValueError):
            ReadThroughCache("t", max_size=0)


class TestNullCache:
    def test_always_recomputes_and_counts_misses(self):
        cache = NullCache("t")
        assert cache.get_or_compute("k", lambda: 1) == 1
        assert cache.get_or_compute("k", lambda: 2) == 2
        assert cache.stats.misses == 2
        assert cache.stats.hits == 0
        assert cache.invalidate("k") is False
        assert len(cache) == 0
        assert "k" not in cache


class TestRPCReadCache:
    def test_tx_list_reads_are_cached(self, env):
        chain, drainer, engine, analyzer = env
        claim(chain, drainer)
        reads = analyzer.reads
        assert isinstance(reads, RPCReadCache)
        first = reads.transactions_of(drainer.address)
        second = reads.transactions_of(drainer.address)
        assert first is second
        tx_lists = reads.caches()[0]
        assert tx_lists.stats.hits == 1

    def test_hash_keyed_reads_are_cached(self, env):
        chain, drainer, _, analyzer = env
        tx, _ = claim(chain, drainer)
        reads = analyzer.reads
        assert reads.get_transaction(tx.hash) is reads.get_transaction(tx.hash)
        receipt = reads.get_transaction_receipt(tx.hash)
        assert reads.trace_transaction(tx.hash) is receipt.trace

    def test_invalidate_address_drops_list_and_code(self, env):
        chain, drainer, _, analyzer = env
        claim(chain, drainer)
        reads = analyzer.reads
        reads.transactions_of(drainer.address)
        reads.is_contract(drainer.address)
        assert reads.invalidate_address(drainer.address) is True
        assert reads.invalidate_address(drainer.address) is False


class TestAnalysisInvalidation:
    def test_invalidate_refreshes_grown_history(self, env):
        chain, drainer, engine, analyzer = env
        claim(chain, drainer)
        stale = analyzer.analyze(drainer.address)
        assert stale.total_txs == 2  # creation + first claim

        claim(chain, drainer, ts_offset=24)
        # Cached: the new claim is invisible until invalidation.
        assert analyzer.analyze(drainer.address) is stale
        assert analyzer.invalidate(drainer.address) is True
        fresh = analyzer.analyze(drainer.address)
        assert fresh.total_txs == 3
        assert len(fresh.matches) == 2
        assert engine.stats.count("invalidations") == 1

    def test_monitor_backfill_sees_full_history(self, env):
        """Regression: a stale pre-admission analysis (cached before the
        contract turned profit-sharing) must not survive monitor admission —
        the backfill invalidates and re-reads the grown history."""
        chain, drainer, engine, analyzer = env
        # Analyzed while the contract had no activity yet: cached as non-PS.
        assert not analyzer.analyze(drainer.address).is_profit_sharing

        dataset = DaaSDataset()
        dataset.add_operator(OP, stage="seed", source="test")
        monitor = StreamingMonitor(analyzer, dataset)

        tx, _ = claim(chain, drainer)
        alerts = monitor.process_transaction(tx)

        assert drainer.address in dataset.contracts
        assert {a.kind for a in alerts} >= {"new_contract", "new_affiliate"}
        assert AFF in dataset.affiliates
        assert tx.hash in {r.tx_hash for r in dataset.transactions}


class TestNoReclassification:
    def test_second_expansion_pass_recomputes_nothing(self, world):
        """After seed + snowball, every contract is classified exactly once;
        a second expansion pass (and re-analysis of every dataset contract)
        performs zero additional classifications."""
        engine = ExecutionEngine()
        analyzer = ContractAnalyzer(
            world.rpc, world.explorer, world.oracle, engine=engine
        )
        dataset, _ = SeedBuilder(analyzer, world.feeds).build()
        SnowballExpander(analyzer).expand(dataset)

        computed = engine.stats.count("contract_classifications")
        assert computed > 0
        # exactly-once: computes == distinct contracts in the analysis cache
        assert computed == len(engine.analysis_cache)
        assert engine.analysis_cache.stats.misses == computed

        report = SnowballExpander(analyzer).expand(dataset)
        assert report.converged
        hits_before = engine.analysis_cache.stats.hits
        for contract in sorted(dataset.contracts):
            analyzer.analyze(contract)
        assert engine.stats.count("contract_classifications") == computed
        assert engine.analysis_cache.stats.hits == hits_before + len(dataset.contracts)

    def test_snapshot_and_render_expose_counters(self, world):
        engine = ExecutionEngine()
        analyzer = ContractAnalyzer(
            world.rpc, world.explorer, world.oracle, engine=engine
        )
        dataset, _ = SeedBuilder(analyzer, world.feeds).build()
        SnowballExpander(analyzer).expand(dataset)

        snap = engine.snapshot()
        assert snap["cache_enabled"] is True
        assert 0.0 < snap["cache_hit_rate"] <= 1.0
        assert snap["counters"]["contract_classifications"] > 0
        assert set(snap["stages"]) == {"seed", "snowball"}
        assert "analyses" in snap["caches"]

        rendered = engine.render_stats()
        assert "runtime stats (cache=on)" in rendered
        assert "stage seed" in rendered
        assert "stage snowball" in rendered
        assert "overall cache hit rate" in rendered
