"""Keyed read-through caches with hit/miss/eviction accounting.

Three layers:

* :class:`ReadThroughCache` — the generic building block: ``get_or_compute``
  with optional LRU bounding, explicit invalidation, and counters.
* :class:`NullCache` — the same interface with caching disabled (every
  request recomputes and counts as a miss), so call sites and stats stay
  uniform when the engine runs uncached.
* :class:`RPCReadCache` — the chain-facing read cache: per-address
  transaction lists, transactions, receipts/traces and code checks, the
  reads a real deployment pays network latency for on every snowball
  round.  ``invalidate_address`` supports the streaming monitor's
  backfill, where an address's history grows after it was first read.

Caches return the *stored* object on a hit, so memoization-identity
checks (``first is second``) hold, and a compute raced by two threads
converges on one canonical object.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable

__all__ = ["CacheStats", "NullCache", "ReadThroughCache", "RPCReadCache"]

_MISSING = object()


@dataclass
class CacheStats:
    """Counters for one cache instance."""

    name: str
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def snapshot(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }


class ReadThroughCache:
    """Thread-safe keyed cache; unbounded by default, LRU when bounded."""

    def __init__(self, name: str, max_size: int | None = None) -> None:
        if max_size is not None and max_size < 1:
            raise ValueError(f"max_size must be >= 1, got {max_size}")
        self.stats = CacheStats(name)
        self.max_size = max_size
        self._lock = threading.RLock()
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()

    def get_or_compute(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is not _MISSING:
                self.stats.hits += 1
                if self.max_size is not None:
                    self._entries.move_to_end(key)
                return value
            self.stats.misses += 1
        # Compute outside the lock: computes may themselves read through
        # other caches, and concurrent callers must not serialize on it.
        value = compute()
        with self._lock:
            stored = self._entries.get(key, _MISSING)
            if stored is not _MISSING:
                # Another worker raced us; keep its object canonical.
                return stored
            self._entries[key] = value
            if self.max_size is not None:
                while len(self._entries) > self.max_size:
                    self._entries.popitem(last=False)
                    self.stats.evictions += 1
        return value

    def invalidate(self, key: Hashable) -> bool:
        """Drop one entry; returns whether it was present."""
        with self._lock:
            return self._entries.pop(key, _MISSING) is not _MISSING

    def clear(self) -> int:
        with self._lock:
            n = len(self._entries)
            self._entries.clear()
            return n

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries


class NullCache:
    """Cache-shaped no-op used when the engine runs with caching disabled.

    Every request recomputes and is counted as a miss, which is exactly
    what makes the cached/uncached benchmark comparison measurable.
    """

    max_size = None

    def __init__(self, name: str) -> None:
        self.stats = CacheStats(name)

    def get_or_compute(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        self.stats.misses += 1
        return compute()

    def invalidate(self, key: Hashable) -> bool:
        return False

    def clear(self) -> int:
        return 0

    def __len__(self) -> int:
        return 0

    def __contains__(self, key: Hashable) -> bool:
        return False


class RPCReadCache:
    """Read cache over the node interface the construction path uses.

    Presents the subset of :class:`~repro.chain.rpc.EthereumRPC` /
    :class:`~repro.chain.explorer.Explorer` that
    :class:`~repro.core.pipeline.ContractAnalyzer` needs, so the analyzer
    can use it as its node handle unchanged.
    """

    def __init__(self, rpc, explorer, cache_factory: Callable[[str], Any]) -> None:
        self._rpc = rpc
        self._explorer = explorer
        self._tx_lists = cache_factory("tx_lists")
        self._transactions = cache_factory("transactions")
        self._receipts = cache_factory("receipts")
        self._code = cache_factory("code")

    # -- explorer side ------------------------------------------------------

    def transactions_of(self, address: str):
        return self._tx_lists.get_or_compute(
            address, lambda: self._explorer.transactions_of(address)
        )

    # -- rpc side -----------------------------------------------------------

    def get_transaction(self, tx_hash: str):
        return self._transactions.get_or_compute(
            tx_hash, lambda: self._rpc.get_transaction(tx_hash)
        )

    def get_transaction_receipt(self, tx_hash: str):
        return self._receipts.get_or_compute(
            tx_hash, lambda: self._rpc.get_transaction_receipt(tx_hash)
        )

    def trace_transaction(self, tx_hash: str):
        return self.get_transaction_receipt(tx_hash).trace

    def is_contract(self, address: str) -> bool:
        return self._code.get_or_compute(
            address, lambda: self._rpc.is_contract(address)
        )

    # -- invalidation -------------------------------------------------------

    def invalidate_address(self, address: str) -> bool:
        """Drop address-keyed reads (transaction list, code check).

        The streaming monitor calls this on backfill: the stream has
        appended history for the address since it was first read, so the
        cached list is stale.  Hash-keyed entries (transactions,
        receipts) are immutable and never invalidated.
        """
        dropped_list = self._tx_lists.invalidate(address)
        dropped_code = self._code.invalidate(address)
        return dropped_list or dropped_code

    # -- reporting ----------------------------------------------------------

    def caches(self) -> list:
        return [self._tx_lists, self._transactions, self._receipts, self._code]
