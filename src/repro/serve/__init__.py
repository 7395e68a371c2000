"""repro.serve — the intelligence serving layer (index, queries, HTTP).

The measurement pipeline ends in batch artifacts; this package turns
them into something a wallet or a screening feed can *ask*:

* :mod:`repro.serve.index`     — :class:`IntelIndex`, the deterministic,
  versioned, read-optimized view (address → role/family/profit/evidence,
  domain → verdict, family → summary) with byte-stable serialization;
* :mod:`repro.serve.query`     — :class:`QueryEngine`, the typed query
  API with an LRU result cache, fused evidence-bearing risk verdicts
  (:mod:`repro.risk`, ``docs/risk.md``), and hot index swap;
* :mod:`repro.serve.ratelimit` — per-client token buckets;
* :mod:`repro.serve.handler`   — :class:`IntelHandlerCore`, the
  transport-agnostic request core (routing, admission bookkeeping,
  pre-serialized :class:`ServeResponse` cache, and the ops probes
  answered from a health source);
* :mod:`repro.serve.aserver`   — :class:`AsyncIntelServer`, the asyncio
  HTTP transport over that core: persistent keep-alive connections,
  batch-first endpoints, chunked verdict streams, optional pre-forked
  multi-worker mode via :func:`preforked_sockets`.  It is also the
  probe port of a pipeline run (``--serve-metrics``);
* :mod:`repro.serve.fleet`     — :class:`ServeAggregator`, the fleet
  metrics plane for pre-forked workers: atomic per-worker registry
  snapshots merged into one ``/statusz`` / ``/metrics`` view, which
  ``daas-repro live-status`` renders as a table.

The server adds framing, never bytes: every body it sends is the one
:meth:`IntelHandlerCore.handle` returns, ETags, rate limiting and
zero-drop hot reload included.

CLI entry points: ``daas-repro index build``, ``daas-repro serve``,
``daas-repro query`` — see ``docs/serving.md`` and ``docs/capacity.md``.
"""

from repro.serve.aserver import (
    AsyncIntelServer,
    PreforkedListeners,
    preforked_sockets,
)
from repro.serve.fleet import ServeAggregator
from repro.serve.handler import IntelHandlerCore, ServeResponse
from repro.serve.index import (
    AddressIntel,
    DomainIntel,
    FamilyRecord,
    IndexFormatError,
    IntelIndex,
    build_index,
)
from repro.serve.query import (
    SCREEN_SCHEMA_VERSION,
    QueryEngine,
    ScreenVerdict,
)
from repro.serve.ratelimit import ClientRateLimiter, TokenBucket

__all__ = [
    "AddressIntel",
    "AsyncIntelServer",
    "ClientRateLimiter",
    "DomainIntel",
    "FamilyRecord",
    "IndexFormatError",
    "IntelHandlerCore",
    "IntelIndex",
    "PreforkedListeners",
    "QueryEngine",
    "SCREEN_SCHEMA_VERSION",
    "ScreenVerdict",
    "ServeAggregator",
    "ServeResponse",
    "TokenBucket",
    "build_index",
    "preforked_sockets",
]
