"""Continuous ingestion: the always-on counterpart to the batch build.

The paper's measurement is a batch snapshot; a deployed intel service
is a *stream* — blocks keep sealing, certificates keep issuing, and the
served index must track them without rebuilding the world each time.
This package maintains the §5-§8 state incrementally and proves it:
the streamed index at watermark ``W`` is byte-identical to a cold
rebuild at ``W``, whatever the delta batching or arrival order
(``docs/streaming.md`` walks through why).

- :mod:`repro.stream.source` — cursor-based tailing of chain blocks
  and CT entries, with per-delta watermarks and touched sets.
- :mod:`repro.stream.snowball` — the incremental snowball: a monotone
  closure admission rule evaluated by cursor-based semi-naive search.
- :mod:`repro.stream.clusters` — merge-only union-find family
  clustering with order-free canonical roots, plus the shared
  derivation to §7 family rows.
- :mod:`repro.stream.derive` — the per-key index deriver: a tick's
  dirty keys expanded to the records they change, re-derived by the
  same per-record functions as ``index build``.
- :mod:`repro.stream.publish` — versioned index deltas, verified on
  application, published atomically through the serve plane's
  hot-reload path with a staleness-bounded freshness contract.
- :mod:`repro.stream.pipeline` — the tick loop tying them together,
  and :func:`~repro.stream.pipeline.batch_rebuild`, the cold oracle
  the parity tests compare against.

CLI: ``daas stream run`` (see ``docs/streaming.md``).
"""

from repro.stream.clusters import (
    IncrementalFamilies,
    components_from_edges,
    derive_clustering,
    derive_families,
)
from repro.stream.derive import IndexDeriver
from repro.stream.pipeline import (
    StreamPipeline,
    StreamRunSummary,
    TickSummary,
    batch_rebuild,
    confirm_entry,
)
from repro.stream.publish import (
    IndexDelta,
    IndexDeltaError,
    PublishReceipt,
    StreamPublisher,
    apply_index_delta,
    compute_index_delta,
)
from repro.stream.snowball import IncrementalExpander, TickReport
from repro.stream.source import DeltaSource, StreamCursor, StreamDelta

__all__ = [
    "DeltaSource",
    "IncrementalExpander",
    "IncrementalFamilies",
    "IndexDelta",
    "IndexDeltaError",
    "IndexDeriver",
    "PublishReceipt",
    "StreamCursor",
    "StreamDelta",
    "StreamPipeline",
    "StreamPublisher",
    "StreamRunSummary",
    "TickReport",
    "TickSummary",
    "apply_index_delta",
    "batch_rebuild",
    "components_from_edges",
    "compute_index_delta",
    "confirm_entry",
    "derive_clustering",
    "derive_families",
]
