"""The continuous ingestion loop: poll → expand → cluster → publish.

:class:`StreamPipeline` glues the streaming plane together.  Each tick
polls the :class:`~repro.stream.source.DeltaSource` for newly sealed
blocks (and CT entries under the new watermark), folds them into the
:class:`~repro.stream.snowball.IncrementalExpander`, unions the new
profit-sharing edges into :class:`~repro.stream.clusters.
IncrementalFamilies`, confirms phishing sites per entry, and marks what
it dirtied on the :class:`~repro.stream.derive.IndexDeriver`.  On the
publish cadence the deriver re-derives just those §5-§8 records and the
:class:`~repro.stream.publish.StreamPublisher` ships the result as a
versioned delta.

:func:`batch_rebuild` is the parity oracle: a cold, from-scratch
rebuild of the same snapshot at the same watermark, using the BFS
component reference instead of the union-find, a single full-history
expansion instead of cursors, and the whole-dataset ``build_index``
instead of per-key derivation.  ``tests/stream/test_parity.py`` asserts
the published bytes equal it across delta batch sizes and arrival
orders; ``benchmarks/bench_stream.py`` uses the same oracle as the
full-rebuild baseline the incremental loop is measured against.

Everything here is deterministic: per-entry site confirmation is a pure
function of the frozen fingerprint DB (:func:`confirm_entry` — the
in-stream DB *growth* mode stays in :mod:`repro.webdetect.streaming`,
whose retry loop is inherently order-dependent and therefore
unsuitable for a parity-checked plane), and derivation order is fixed
by sorting, never by arrival.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass

from repro.serve.index import IntelIndex, build_index
from repro.stream.clusters import (
    IncrementalFamilies,
    components_from_edges,
    derive_clustering,
)
from repro.stream.derive import IndexDeriver
from repro.stream.snowball import IncrementalExpander
from repro.stream.source import DeltaSource, StreamCursor
from repro.webdetect.detector import SiteReport
from repro.webdetect.html import local_script_names

__all__ = [
    "StreamPipeline",
    "StreamRunSummary",
    "TickSummary",
    "batch_rebuild",
    "confirm_entry",
]


def confirm_entry(entry, domain_filter, crawler, db):
    """Classify one CT entry against the frozen fingerprint DB.

    Returns ``(outcome, report)`` where ``outcome`` is one of
    ``benign`` / ``unreachable`` / ``no_match`` / ``confirmed`` and
    ``report`` is a :class:`SiteReport` only when confirmed.  Pure in
    its inputs — the same entry yields the same verdict regardless of
    which tick it arrives in, which the parity matrix depends on.
    """
    keyword = domain_filter.matched_keyword(entry.domain)
    if keyword is None:
        return "benign", None
    files = crawler.fetch(entry.domain, at_ts=entry.issued_at)
    if files is None:
        return "unreachable", None
    fingerprint = db.match(files)
    if fingerprint is None:
        return "no_match", None
    referenced = set(local_script_names(files.get("index.html", "")))
    if not all(name in referenced for name, _ in fingerprint.files):
        return "no_match", None
    return "confirmed", SiteReport(
        domain=entry.domain,
        family=fingerprint.family,
        detected_at=entry.issued_at,
        matched_keyword=keyword,
    )


@dataclass(slots=True)
class TickSummary:
    """One tick's delta, for metrics/tests/CLI reporting."""

    tick: int
    watermark_block: int
    watermark_ts: int
    blocks: int
    txs: int
    entries: int
    admitted_contracts: int
    new_accounts: int
    family_merges: int
    sites_confirmed: int
    published_version: str | None = None
    publish_mode: str | None = None


@dataclass(slots=True)
class StreamRunSummary:
    """What a :meth:`StreamPipeline.run` call processed end-to-end."""

    ticks: int = 0
    blocks: int = 0
    txs: int = 0
    entries: int = 0
    admitted_contracts: int = 0
    new_accounts: int = 0
    family_merges: int = 0
    sites_confirmed: int = 0
    publishes: int = 0
    resumed: bool = False
    final_version: str | None = None
    final_watermark_ts: int | None = None

    def fold(self, tick: TickSummary) -> None:
        self.ticks += 1
        self.blocks += tick.blocks
        self.txs += tick.txs
        self.entries += tick.entries
        self.admitted_contracts += tick.admitted_contracts
        self.new_accounts += tick.new_accounts
        self.family_merges += tick.family_merges
        self.sites_confirmed += tick.sites_confirmed
        self.final_watermark_ts = tick.watermark_ts
        if tick.published_version is not None:
            self.publishes += 1
            self.final_version = tick.published_version


class StreamPipeline:
    """Continuous §5-§8 maintenance over a chain/CT tail.

    The pipeline owns the streaming state — cursor, expander, family
    forest, confirmed sites — and one invariant: after any sequence of
    ticks ending at watermark ``W``, :meth:`build_index_at` equals
    :func:`batch_rebuild` at ``W`` byte-for-byte.  Publication and
    checkpointing are both optional side-channels around that core.

    ``web`` enables the CT/domain half (needs ``db``, a *frozen*
    :class:`~repro.webdetect.fingerprints.FingerprintDB`).  Suspicious
    entries the DB cannot confirm go to a bounded review queue; when it
    overflows the oldest entry is abandoned with a
    ``stream.entry_abandoned`` event and a
    ``daas_stream_entries_abandoned_total`` count — silent drops are
    exactly what a detection pipeline must not do.
    """

    def __init__(
        self,
        world,
        analyzer,
        seeds,
        web=None,
        db=None,
        domain_filter=None,
        crawler=None,
        publisher=None,
        checkpoint=None,
        delta_batch: int = 16,
        signals: bool = True,
        max_review_queue: int = 512,
    ) -> None:
        if web is not None and db is None:
            raise ValueError("a frozen FingerprintDB is required when web is set")
        self.world = world
        self.analyzer = analyzer
        self.obs = analyzer.obs
        self.web = web
        self.db = db
        if web is not None:
            from repro.webdetect.crawler import Crawler
            from repro.webdetect.keywords import DomainFilter

            self.domain_filter = domain_filter or DomainFilter()
            self.crawler = crawler if crawler is not None else Crawler(web)
        else:
            self.domain_filter = domain_filter
            self.crawler = crawler
        self.publisher = publisher
        self.checkpoint = checkpoint
        self.delta_batch = delta_batch
        self.signals = signals
        self.max_review_queue = max_review_queue

        self.source = DeltaSource(
            world.chain, web.ct_log if web is not None else None
        )
        self.cursor = StreamCursor()
        self.expander = IncrementalExpander(analyzer, seeds)
        self.families = IncrementalFamilies()
        #: Per-contract count of watermarked matches already unioned.
        self._cluster_cursor: dict[str, int] = {}
        self.site_reports: list[SiteReport] = []
        self._review: deque = deque()
        self.ticks = 0
        self.watermark_ts: int | None = None
        self.deriver = self._new_deriver()

    # -- the loop ------------------------------------------------------------

    def tick(self) -> TickSummary | None:
        """Process one delta; ``None`` when the backlog is drained."""
        polled = self.source.poll(self.cursor, max_blocks=self.delta_batch)
        if polled is None:
            return None
        delta, self.cursor = polled
        self.ticks += 1
        self.watermark_ts = delta.watermark_ts

        with self.obs.span(
            "stream.tick", tick=self.ticks, block=delta.watermark_block
        ):
            with self.obs.span("stream.expand"):
                report = self.expander.advance(
                    delta.watermark_ts, touched=set(delta.touched)
                )
            with self.obs.span("stream.cluster"):
                merges = self._cluster(report.contracts_with_new_matches)
            confirmed = 0
            if delta.entries:
                with self.obs.span("stream.webdetect"):
                    confirmed = self._process_entries(delta.entries)
        self.deriver.mark(
            contracts=report.admitted + report.contracts_with_new_matches,
            sites=self.site_reports[len(self.site_reports) - confirmed:],
        )

        summary = TickSummary(
            tick=self.ticks,
            watermark_block=delta.watermark_block,
            watermark_ts=delta.watermark_ts,
            blocks=len(delta.blocks),
            txs=delta.tx_count,
            entries=len(delta.entries),
            admitted_contracts=len(report.admitted),
            new_accounts=report.new_accounts,
            family_merges=merges,
            sites_confirmed=confirmed,
        )
        self._observe_tick(summary, report)
        return summary

    def run(
        self,
        max_ticks: int = 0,
        publish_every: int = 1,
        checkpoint_every: int = 1,
    ) -> StreamRunSummary:
        """Drain the backlog (or ``max_ticks`` deltas), publishing on the
        cadence and always once more at the end so the served index is
        never behind the final watermark."""
        summary = StreamRunSummary()
        published_at_tick = 0
        while not max_ticks or summary.ticks < max_ticks:
            tick = self.tick()
            if tick is None:
                break
            if self.publisher is not None and publish_every and (
                self.ticks % publish_every == 0
            ):
                receipt = self.publish()
                tick.published_version = receipt.version
                tick.publish_mode = receipt.mode
                published_at_tick = self.ticks
            if self.checkpoint is not None and checkpoint_every and (
                self.ticks % checkpoint_every == 0
            ):
                self.save_checkpoint()
            summary.fold(tick)
        if self.publisher is not None and published_at_tick != self.ticks:
            receipt = self.publish()
            summary.publishes += 1
            summary.final_version = receipt.version
        if self.checkpoint is not None:
            self.save_checkpoint()
        self.obs.event(
            "stream.done",
            ticks=summary.ticks,
            blocks=summary.blocks,
            admitted=summary.admitted_contracts,
            sites=summary.sites_confirmed,
            publishes=summary.publishes,
            version=summary.final_version,
        )
        return summary

    def publish(self):
        """Derive the snapshot at the current watermark and ship it.

        A tick that dirtied nothing hands the publisher the index it
        already serves, which it publishes as a ``noop``."""
        index = self.build_index_at()
        receipt = self.publisher.publish(
            index, watermark_ts=self.watermark_ts, tick=self.ticks
        )
        self.deriver.adopt(self.publisher.published)
        return receipt

    def build_index_at(self) -> IntelIndex:
        """The intel index as of the current watermark — the value whose
        bytes the parity matrix pins against :func:`batch_rebuild`.
        Only the records the ticks since the last call dirtied are
        re-derived (:class:`~repro.stream.derive.IndexDeriver`)."""
        return self.deriver.derive()

    def _new_deriver(self) -> IndexDeriver:
        return IndexDeriver(
            self.expander,
            self.families,
            self.analyzer.explorer,
            self.obs,
            site_reports=self.site_reports,
            signals=self.signals,
        )

    # -- tick internals ------------------------------------------------------

    def _cluster(self, contracts_with_new_matches) -> int:
        """Union the profit-sharing edges that appeared this tick."""
        before = self.families.merges
        for contract in contracts_with_new_matches:
            matches = self.expander.matches_of(contract)
            start = self._cluster_cursor.get(contract, 0)
            for match in matches[start:]:
                self.families.union(contract, match.operator)
                self.families.union(contract, match.affiliate)
            self._cluster_cursor[contract] = len(matches)
        return self.families.merges - before

    def _process_entries(self, entries) -> int:
        confirmed = 0
        for entry in entries:
            outcome, report = confirm_entry(
                entry, self.domain_filter, self.crawler, self.db
            )
            self.obs.metrics.counter(
                "daas_stream_ct_entries_total",
                help_text="CT entries processed by the stream, by outcome.",
                outcome=outcome,
            ).inc()
            if report is not None:
                self.site_reports.append(report)
                confirmed += 1
            elif outcome == "no_match":
                self._enqueue_review(entry)
        return confirmed

    def _enqueue_review(self, entry) -> None:
        """Bounded manual-review queue; overflow abandons the oldest
        entry *loudly* (the satellite invariant: no silent drops)."""
        if len(self._review) >= self.max_review_queue:
            abandoned = self._review.popleft()
            self.obs.event(
                "stream.entry_abandoned",
                level="warning",
                domain=abandoned["domain"],
                issued_at=abandoned["issued_at"],
                queue="stream",
            )
            self.obs.metrics.counter(
                "daas_stream_entries_abandoned_total",
                help_text="Review-queue entries dropped past the bound.",
                queue="stream",
            ).inc()
        self._review.append(
            {"domain": entry.domain, "issued_at": entry.issued_at}
        )

    def _observe_tick(self, summary: TickSummary, report) -> None:
        metrics = self.obs.metrics
        metrics.counter(
            "daas_stream_ticks_total", help_text="Stream ticks processed."
        ).inc()
        if summary.blocks:
            metrics.counter(
                "daas_stream_blocks_total",
                help_text="Blocks folded into the stream state.",
            ).inc(summary.blocks)
        if summary.txs:
            metrics.counter(
                "daas_stream_txs_total",
                help_text="Transactions folded into the stream state.",
            ).inc(summary.txs)
        if summary.admitted_contracts:
            metrics.counter(
                "daas_stream_admitted_total",
                help_text="Entities admitted by the incremental snowball.",
                kind="contract",
            ).inc(summary.admitted_contracts)
        if summary.new_accounts:
            metrics.counter(
                "daas_stream_admitted_total",
                help_text="Entities admitted by the incremental snowball.",
                kind="account",
            ).inc(summary.new_accounts)
        if summary.family_merges:
            metrics.counter(
                "daas_stream_family_merges_total",
                help_text="Family components merged by new edges.",
            ).inc(summary.family_merges)
        metrics.gauge(
            "daas_stream_watermark_ts",
            help_text="Timestamp the stream state is current through.",
        ).set(summary.watermark_ts)
        self.obs.event(
            "stream.tick",
            level="debug",
            tick=summary.tick,
            watermark_block=summary.watermark_block,
            blocks=summary.blocks,
            txs=summary.txs,
            entries=summary.entries,
            admitted=report.admitted,
            merges=summary.family_merges,
            confirmed=summary.sites_confirmed,
        )

    # -- checkpoint / resume -------------------------------------------------

    def save_checkpoint(self) -> None:
        self.checkpoint.save("stream", {
            "cursor": self.cursor.encode(),
            "expander": self.expander.encode(),
            "families": self.families.encode(),
            "cluster_cursor": {
                c: self._cluster_cursor[c] for c in sorted(self._cluster_cursor)
            },
            "site_reports": [asdict(r) for r in self.site_reports],
            "review": list(self._review),
            "ticks": self.ticks,
            "watermark_ts": self.watermark_ts,
        })

    def restore(self, payload: dict) -> bool:
        """Rehydrate from a ``stream``-stage checkpoint payload; returns
        False (untouched state) for payloads from other stages."""
        if payload.get("stage") != "stream":
            return False
        self.cursor = StreamCursor.decode(payload["cursor"])
        self.expander = IncrementalExpander.decode(
            payload["expander"], self.analyzer, self.expander.seeds
        )
        self.families = IncrementalFamilies.decode(payload["families"])
        self._cluster_cursor = {
            c: int(i) for c, i in payload.get("cluster_cursor", {}).items()
        }
        self.site_reports = [
            SiteReport(**r) for r in payload.get("site_reports", [])
        ]
        self._review = deque(payload.get("review", []))
        self.ticks = int(payload.get("ticks", 0))
        self.watermark_ts = payload.get("watermark_ts")
        # Derived caches are not checkpointed: the next derivation
        # rebuilds them from the restored state, every key dirty.
        self.deriver = self._new_deriver()
        self.obs.event(
            "stream.resumed",
            ticks=self.ticks,
            watermark_ts=self.watermark_ts,
            next_block=self.cursor.next_block,
        )
        return True


def batch_rebuild(
    world,
    analyzer,
    seeds,
    web=None,
    db=None,
    domain_filter=None,
    crawler=None,
    signals: bool = True,
    watermark_ts: int | None = None,
) -> IntelIndex:
    """Cold full rebuild at a watermark (default: fully drained) — the oracle.

    Deliberately *not* a ``StreamPipeline`` in a trench coat: no poll
    loop, no cursors — expansion is one full-history ``advance`` (no
    touched-set pruning), components come from the BFS reference
    (:func:`components_from_edges`, not the union-find), and every CT
    entry under the watermark is confirmed in one pass.  Agreement with
    the incremental path is therefore evidence, not tautology.

    ``watermark_ts`` pins the rebuild at an earlier instant so tests can
    compare against a partially-drained stream; ``None`` means the full
    backlog (final block timestamp, extended to the last CT entry).
    """
    if web is not None and db is None:
        raise ValueError("a frozen FingerprintDB is required when web is set")
    if web is not None:
        from repro.webdetect.crawler import Crawler
        from repro.webdetect.keywords import DomainFilter

        domain_filter = domain_filter or DomainFilter()
        crawler = crawler if crawler is not None else Crawler(web)

    source = DeltaSource(world.chain, web.ct_log if web is not None else None)
    if watermark_ts is None:
        watermark_ts = source.drained_watermark_ts()
    expander = IncrementalExpander(analyzer, seeds)
    expander.advance(watermark_ts, touched=None)
    site_reports: list[SiteReport] = []
    for entry in source.entries_until(watermark_ts):
        _, report = confirm_entry(entry, domain_filter, crawler, db)
        if report is not None:
            site_reports.append(report)

    dataset = expander.derive_dataset()
    components = components_from_edges(expander.derive_edges())
    clustering = derive_clustering(dataset, components, analyzer.explorer)
    return build_index(
        dataset,
        clustering=clustering,
        site_reports=site_reports,
        signals=signals,
    )
