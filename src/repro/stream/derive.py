"""Delta derivation: the stream's index, re-derived key by key.

A tick changes a handful of the intel index's records, so
:class:`IndexDeriver` re-derives exactly those instead of rebuilding the
dataset, families, signals and index from the whole expander state.
:meth:`IndexDeriver.mark` records what a tick dirtied — contracts the
snowball admitted, contracts whose watermarked match list grew (their
new edges are the union-find's merges), and newly confirmed sites — and
:meth:`IndexDeriver.derive` expands those keys to every record they can
change:

* a dirty contract's own record, the records of the counterparties its
  new matches paid (their profit share, counts and evidence moved), and
  of every counterparty whose operator/affiliate vote on it flipped;
* the family row of every component holding a dirty contract, and — when
  a family's name changes (or a merge hands a component a new one) — the
  record of every member whose ``family`` field no longer matches;
* for a new site, the domain row, and every member of the family it was
  attributed to (their preparation signal counts it).

Each record is rebuilt by the same per-key function ``index build`` uses
(:func:`~repro.serve.index.address_intel`,
:func:`~repro.serve.index.family_record`,
:func:`~repro.serve.index.merge_site_report`,
:func:`~repro.risk.collect.address_signals`,
:func:`~repro.stream.clusters.component_family`), from records folded
in dataset order — sorted contract, then match order — so every profit
sum is the same left fold :func:`~repro.stream.pipeline.batch_rebuild`
computes, never a running total.  Everything else in the new
:class:`~repro.serve.index.IntelIndex` is the previous index's record
objects (and their cached canonical fragments), which is what lets the
publisher diff by identity and hash without re-encoding.

The first derivation — and the first after a restore, since the caches
are not checkpointed — is the same code with every key dirty.
"""

from __future__ import annotations

from collections import ChainMap
from dataclasses import replace
from itertools import chain

from repro.core.dataset import fold_activity
from repro.core.pipeline import split_roles
from repro.risk.collect import address_signals
from repro.serve.index import (
    IntelIndex,
    address_intel,
    family_record,
    merge_site_report,
)
from repro.stream.clusters import FamilyStats, component_family, unique_names
from repro.stream.snowball import STREAM_PROVENANCE

__all__ = ["IndexDeriver"]


class IndexDeriver:
    """Keeps an :class:`IntelIndex` of the stream state current by
    re-deriving only the keys the ticks since the last derivation dirtied.

    ``expander`` and ``families`` are the pipeline's live state, and
    ``site_reports`` its confirmed sites so far; ``signals`` mirrors
    ``build_index(signals=...)``.  Derivations are traced and counted
    on ``obs``.
    """

    def __init__(
        self, expander, families, explorer, obs, site_reports=(), signals=True
    ) -> None:
        self.expander = expander
        self.families = families
        self.explorer = explorer
        self.signals = signals
        self.obs = obs
        #: The last derived index (or the published copy of it).
        self.index: IntelIndex | None = None
        # Per-contract caches at the last derivation's watermark.
        self._records: dict[str, list] = {}     # contract -> its records
        self._matched: dict[str, int] = {}      # contract -> matches folded
        self._split: dict[str, tuple[set[str], set[str]]] = {}
        self._contracts_of: dict[str, set[str]] = {}  # recipient -> contracts
        # Family state: base names (pre-disambiguation) and row names.
        self._base_names: dict[str, str] = {}
        self._names: dict[str, str] = {}
        self._merges = families.merges
        self._reports_of: dict[str, list] = {}  # family name -> site reports
        # What the ticks since the last derivation dirtied.
        self._dirty: set[str] = set(expander.contracts)
        self._new_sites: list = list(site_reports)

    @property
    def clean(self) -> bool:
        """Nothing was marked since the last derivation: :meth:`derive`
        returns the last index as is."""
        return self.index is not None and not self._dirty and not self._new_sites

    def mark(self, contracts=(), sites=()) -> None:
        """Record a tick's dirty keys: admitted contracts and contracts
        with new matches, and newly confirmed site reports."""
        self._dirty.update(contracts)
        self._new_sites.extend(sites)

    def adopt(self, index: IntelIndex) -> None:
        """Continue from ``index`` — the publisher's verified copy of the
        last derivation — so the next one reuses its record objects."""
        if self.index is not None and index.version == self.index.version:
            self.index = index

    def derive(self) -> IntelIndex:
        """The index at the current watermark; the last one itself when
        nothing was marked since."""
        if self.clean:
            return self.index
        with self.obs.span("stream.derive") as span:
            counts = self._derive()
            span.set(**counts)
        for kind, n in counts.items():
            if n:
                self.obs.metrics.counter(
                    "daas_stream_rederived_total",
                    help_text="Index records re-derived by the stream, by kind.",
                    kind=kind,
                ).inc(n)
        return self.index

    # -- the derivation --------------------------------------------------------

    def _derive(self) -> dict[str, int]:
        base = self.index if self.index is not None else IntelIndex()
        dirty, self._dirty = self._dirty, set()
        sites, self._new_sites = self._new_sites, []

        affected: set[str] = set(dirty)
        if self.index is None:
            seeds = self.expander.seeds
            affected |= seeds.contracts | seeds.operators | seeds.affiliates
        for contract in dirty:
            affected |= self._refresh_contract(contract)

        domains = ChainMap({}, base.domains)
        for report in sites:
            merge_site_report(domains, report)
            self._reports_of.setdefault(report.family, []).append(report)

        names, families, removals, rederived = self._derive_families(
            dirty, {report.family for report in sites}, base, affected
        )
        changes = {
            "addresses": self._derive_addresses(affected, base, names),
            "domains": domains.maps[0],
            "families": families,
        }
        if any(changes.values()) or removals:
            base = base.with_changes(upserts=changes, removals={"families": removals})
        self.index = base
        return {"addresses": len(affected), "domains": len(sites), "families": rederived}

    def _derive_families(self, dirty, site_families, base: IntelIndex, affected):
        """Re-derive the family rows of components holding ``dirty``
        contracts, then name every component (a merge or rename can shift
        a later one's disambiguated name).  Adds to ``affected`` the
        members whose ``family`` field or family sites changed; returns
        ``(names by root, row upserts, removed row names, rows derived)``."""
        families = self.families
        if families.merges != self._merges:
            for root in [r for r in self._base_names if not families.is_root(r)]:
                del self._base_names[root]
            self._merges = families.merges
        rows = {}
        for root in {families.find(c) for c in dirty if c in families}:
            fam = component_family(
                root, families.members(root), self._role,
                self._family_stats(root), self.explorer,
            )
            self._base_names[root] = fam.name
            rows[root] = fam
        roots = sorted(self._base_names)
        names = dict(zip(roots, unique_names((r, self._base_names[r]) for r in roots)))

        upserts = {}
        removals = set(self._names.values()) - set(names.values())
        rederived = 0
        for root, name in names.items():
            old = self._names.get(root)
            if root in rows:
                rows[root].name = name
                row = family_record(rows[root])
            elif name != old:
                row = replace(base.families[old], name=name)
            else:
                if name in site_families:
                    affected.update(families.members(root))
                continue
            rederived += 1
            if row != base.families.get(name):
                upserts[name] = row
            # A member's record names its family and counts the family's
            # sites; re-derive it when either may have changed.
            for member in families.members(root):
                current = base.addresses.get(member.lower())
                if current is None or current.family != name or name in site_families:
                    affected.add(member)
        self._names = names
        return names, upserts, removals - upserts.keys(), rederived

    def _refresh_contract(self, contract: str) -> set[str]:
        """Fold the contract's new matches into its caches; returns the
        counterparties whose records can change: the recipients of its
        new records, and every recipient whose operator/affiliate vote on
        it flipped."""
        matches = self.expander.matches_of(contract)
        done = self._matched.get(contract, 0)
        if len(matches) == done:
            return set()
        records = self._records.setdefault(contract, [])
        fresh = self.expander.analyzer.to_records(matches[done:])
        # The dataset keeps the first record per dedup key.  A key names
        # its tx, and a tx belongs to the one contract it invoked, so a
        # duplicate can only repeat one of this contract's own records.
        hashes = {r.tx_hash for r in fresh}
        seen = {r.dedup_key for r in records if r.tx_hash in hashes}
        changed: set[str] = set()
        for record in fresh:
            key = record.dedup_key
            if key not in seen:
                seen.add(key)
                records.append(record)
                changed.add(record.operator)
                changed.add(record.affiliate)
        self._matched[contract] = len(matches)
        old_operators, old_affiliates = self._split.get(contract, (set(), set()))
        operators, affiliates = split_roles(matches)
        self._split[contract] = (operators, affiliates)
        changed |= (operators ^ old_operators) | (affiliates ^ old_affiliates)
        for recipient in operators | affiliates:
            self._contracts_of.setdefault(recipient, set()).add(contract)
        return changed

    def _family_stats(self, root: str) -> FamilyStats:
        stats = FamilyStats()
        contracts = sorted(m for m in self.families.members(root) if m in self._records)
        for contract in contracts:
            stats.fold(self._records[contract])
        return stats

    def _derive_addresses(self, affected, base: IntelIndex, names) -> dict:
        """Re-derive the records of ``affected``; returns those that
        differ from ``base``'s."""
        sources: set[str] = set()
        for address in affected:
            if address in self._records:
                sources.add(address)
            sources |= self._contracts_of.get(address, set())
        activity = fold_activity(
            chain.from_iterable(self._records[c] for c in sorted(sources)),
            only=affected,
        )
        families = self.families
        upserts = {}
        for address in affected:
            role = self._role(address)
            if role is None:
                continue
            family = names.get(families.find(address)) if address in families else None
            provenance = self._provenance(address)
            signals = ()
            if self.signals:
                signals = address_signals(
                    address,
                    role,
                    provenance=provenance,
                    activity=activity.get(address),
                    family=family,
                    family_reports=self._reports_of.get(family, ()),
                )
            record = address_intel(
                address, role, activity.get(address), provenance,
                family=family, signals=signals,
            )
            key = address.lower()
            if record != base.addresses.get(key):
                upserts[key] = record
        return upserts

    # -- the dataset's view of one address ---------------------------------------

    def _role(self, address: str) -> str | None:
        """``address``'s role in the stream dataset (contract > operator
        > affiliate), as ``IncrementalExpander.derive_dataset`` assigns it."""
        if address in self.expander.contracts:
            return "contract"
        seeds = self.expander.seeds
        contracts = self._contracts_of.get(address, ())
        if address in seeds.operators or any(
            address in self._split[c][0] for c in contracts
        ):
            return "operator"
        if address in seeds.affiliates or any(
            address in self._split[c][1] for c in contracts
        ):
            return "affiliate"
        return None

    def _provenance(self, address: str):
        seeds = self.expander.seeds
        if (
            address in seeds.contracts
            or address in seeds.operators
            or address in seeds.affiliates
        ):
            return seeds.provenance[address]
        return STREAM_PROVENANCE
