"""The read-optimized intelligence index (the serving layer's data plane).

A :class:`IntelIndex` condenses everything the measurement pipeline knows
— the :class:`~repro.core.dataset.DaaSDataset`, §7 family clustering, and
§8 website detection — into point-lookup form: address → role / family /
profit / ratio / first-last seen with profit-sharing evidence, domain →
phishing verdict, family → summary row.  Lookups are O(1) dict hits;
``scan_prefix`` gives ordered prefix scans over the sorted address space.

The serialized form is **byte-stable**: building an index twice from the
same inputs produces identical bytes, and :attr:`IntelIndex.version` is
a content hash over the canonical payload, so index files diff cleanly,
cache keys (HTTP ETags) are free, and "is this the same intelligence?"
is a string compare.  Build offline with ``daas-repro index build``,
load with :meth:`IntelIndex.load` (one ``json.loads`` — no per-record
work until a record is touched).

The canonical payload is assembled from per-entry fragments — each
record's own canonical JSON, cached on first use — so an index derived
from another by :meth:`IntelIndex.with_changes` encodes only the
records that changed, and its hash and file are one pass over bytes
that already exist.  The bytes are exactly those of ``json.dumps`` over
the whole body with sorted keys.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path

from repro.core.dataset import AddressActivity, fold_activity
from repro.risk.signals import StageSignal
from repro.runtime.atomicio import atomic_write_bytes

__all__ = [
    "AddressIntel",
    "DomainIntel",
    "FamilyRecord",
    "IndexFormatError",
    "IntelIndex",
    "address_intel",
    "build_index",
    "encode_entry",
    "family_record",
    "merge_site_report",
]

#: Profit-sharing tx hashes kept per address as lookup evidence.
EVIDENCE_LIMIT = 5


class IndexFormatError(ValueError):
    """The bytes are not a loadable intelligence index."""


@dataclass(frozen=True, slots=True)
class AddressIntel:
    """Everything the index knows about one DaaS address."""

    address: str
    role: str                       # "contract" | "operator" | "affiliate"
    family: str | None = None
    ratio_bps: int | None = None    # most common profit-split ratio seen
    profit_usd: float = 0.0         # this address's share across its txs
    tx_count: int = 0
    first_seen_ts: int | None = None
    last_seen_ts: int | None = None
    stage: str = ""                 # provenance: "seed" | "expansion"
    source: str = ""                # label feed or "snowball:<n>"
    victim_count: int | None = None
    #: Profit-sharing counterparties: a contract lists the operators and
    #: affiliates it splits to; accounts list the contracts they used.
    operators: tuple[str, ...] = ()
    affiliates: tuple[str, ...] = ()
    contracts: tuple[str, ...] = ()
    #: Sample profit-sharing tx hashes (at most EVIDENCE_LIMIT, by time).
    evidence: tuple[str, ...] = ()
    #: Stage-level fusion signals (repro.risk); empty for legacy indexes.
    signals: tuple[StageSignal, ...] = ()

    def to_payload(self) -> dict:
        # The "signals" key is present only when signals exist, so an
        # index built without fusion signals serializes byte-identically
        # to the pre-fusion format (same content hash, same ETag).
        doc = self._base_payload()
        if self.signals:
            doc["signals"] = [s.to_payload() for s in self.signals]
        return doc

    def _base_payload(self) -> dict:
        return {
            "address": self.address,
            "role": self.role,
            "family": self.family,
            "ratio_bps": self.ratio_bps,
            "profit_usd": round(self.profit_usd, 6),
            "tx_count": self.tx_count,
            "first_seen_ts": self.first_seen_ts,
            "last_seen_ts": self.last_seen_ts,
            "stage": self.stage,
            "source": self.source,
            "victim_count": self.victim_count,
            "operators": list(self.operators),
            "affiliates": list(self.affiliates),
            "contracts": list(self.contracts),
            "evidence": list(self.evidence),
        }

    @classmethod
    def from_payload(cls, doc: dict) -> "AddressIntel":
        return cls(
            address=doc["address"],
            role=doc["role"],
            family=doc.get("family"),
            ratio_bps=doc.get("ratio_bps"),
            profit_usd=doc.get("profit_usd", 0.0),
            tx_count=doc.get("tx_count", 0),
            first_seen_ts=doc.get("first_seen_ts"),
            last_seen_ts=doc.get("last_seen_ts"),
            stage=doc.get("stage", ""),
            source=doc.get("source", ""),
            victim_count=doc.get("victim_count"),
            operators=tuple(doc.get("operators", ())),
            affiliates=tuple(doc.get("affiliates", ())),
            contracts=tuple(doc.get("contracts", ())),
            evidence=tuple(doc.get("evidence", ())),
            signals=tuple(
                StageSignal.from_payload(doc["address"], s)
                for s in doc.get("signals", ())
            ),
        )


@dataclass(frozen=True, slots=True)
class DomainIntel:
    """One website-detection verdict, keyed by domain."""

    domain: str
    verdict: str                    # currently always "phishing"
    family: str = ""
    detected_at: int = 0
    matched_keyword: str = ""

    def to_payload(self) -> dict:
        return {
            "domain": self.domain,
            "verdict": self.verdict,
            "family": self.family,
            "detected_at": self.detected_at,
            "matched_keyword": self.matched_keyword,
        }

    @classmethod
    def from_payload(cls, doc: dict) -> "DomainIntel":
        return cls(
            domain=doc["domain"],
            verdict=doc.get("verdict", "phishing"),
            family=doc.get("family", ""),
            detected_at=doc.get("detected_at", 0),
            matched_keyword=doc.get("matched_keyword", ""),
        )


@dataclass(frozen=True, slots=True)
class FamilyRecord:
    """Table-2-shaped family summary, keyed by family name."""

    name: str
    contract_count: int = 0
    operator_count: int = 0
    affiliate_count: int = 0
    victim_count: int = 0
    total_profit_usd: float = 0.0
    first_tx_ts: int | None = None
    last_tx_ts: int | None = None

    def to_payload(self) -> dict:
        return {
            "name": self.name,
            "contract_count": self.contract_count,
            "operator_count": self.operator_count,
            "affiliate_count": self.affiliate_count,
            "victim_count": self.victim_count,
            "total_profit_usd": round(self.total_profit_usd, 6),
            "first_tx_ts": self.first_tx_ts,
            "last_tx_ts": self.last_tx_ts,
        }

    @classmethod
    def from_payload(cls, doc: dict) -> "FamilyRecord":
        return cls(
            name=doc["name"],
            contract_count=doc.get("contract_count", 0),
            operator_count=doc.get("operator_count", 0),
            affiliate_count=doc.get("affiliate_count", 0),
            victim_count=doc.get("victim_count", 0),
            total_profit_usd=doc.get("total_profit_usd", 0.0),
            first_tx_ts=doc.get("first_tx_ts"),
            last_tx_ts=doc.get("last_tx_ts"),
        )


_KINDS = ("addresses", "domains", "families")
#: ``json.dumps(doc, sort_keys=True, separators=(",", ":"))``, built once.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _canonical(doc) -> bytes:
    return _ENCODER.encode(doc).encode()


def encode_entry(key: str, payload: dict) -> bytes:
    """One record's fragment of the canonical body: ``"key":{payload}``."""
    return (_ENCODER.encode(key) + ":" + _ENCODER.encode(payload)).encode()


class IntelIndex:
    """Read-optimized, versioned view over the pipeline's intelligence."""

    FORMAT = "daas-intel-index"
    FORMAT_VERSION = 1

    def __init__(
        self,
        addresses: dict[str, AddressIntel] | None = None,
        domains: dict[str, DomainIntel] | None = None,
        families: dict[str, FamilyRecord] | None = None,
    ) -> None:
        self.addresses = dict(addresses or {})
        self.domains = dict(domains or {})
        self.families = dict(families or {})
        self._sorted_addresses = sorted(self.addresses)
        self._version: str | None = None
        #: kind -> {key: encode_entry bytes}, filled on first encode.
        self._fragments: dict[str, dict[str, bytes]] = {kind: {} for kind in _KINDS}
        self._pieces: list[bytes] | None = None

    def with_changes(
        self,
        upserts: dict | None = None,
        removals: dict | None = None,
        fragments: dict | None = None,
    ) -> "IntelIndex":
        """This index with ``upserts`` (kind -> {key: record}) written
        over it and ``removals`` (kind -> keys) dropped.

        Untouched keys keep their record objects and cached fragments,
        so encoding the result costs only the changed records.
        ``fragments`` (kind -> {key: bytes}) supplies the upserted
        records' encodings ready-made.
        """
        upserts, removals, fragments = upserts or {}, removals or {}, fragments or {}
        maps: dict[str, dict] = {}
        caches: dict[str, dict[str, bytes]] = {}
        for kind in _KINDS:
            records = dict(getattr(self, kind))
            cache = dict(self._fragments[kind])
            for key in removals.get(kind, ()):
                records.pop(key, None)
                cache.pop(key, None)
            for key, record in upserts.get(kind, {}).items():
                records[key] = record
                cache.pop(key, None)
            cache.update(fragments.get(kind, {}))
            maps[kind] = records
            caches[kind] = cache
        changed = IntelIndex(**maps)
        changed._fragments = caches
        return changed

    # -- point lookups -------------------------------------------------------

    def lookup_address(self, address: str) -> AddressIntel | None:
        return self.addresses.get(address.lower())

    def lookup_domain(self, domain: str) -> DomainIntel | None:
        return self.domains.get(domain.lower())

    def family(self, name: str) -> FamilyRecord | None:
        return self.families.get(name)

    def __contains__(self, address: str) -> bool:
        return str(address).lower() in self.addresses

    def __len__(self) -> int:
        return len(self.addresses)

    # -- scans ---------------------------------------------------------------

    def scan_prefix(self, prefix: str, limit: int = 100) -> list[AddressIntel]:
        """Addresses starting with ``prefix``, in address order."""
        prefix = prefix.lower()
        out: list[AddressIntel] = []
        i = bisect_left(self._sorted_addresses, prefix)
        while i < len(self._sorted_addresses) and len(out) < limit:
            address = self._sorted_addresses[i]
            if not address.startswith(prefix):
                break
            out.append(self.addresses[address])
            i += 1
        return out

    def bulk_lookup(self, addresses: list[str]) -> dict[str, AddressIntel | None]:
        return {a: self.lookup_address(a) for a in addresses}

    def family_records(self) -> list[FamilyRecord]:
        """All families, most victims first (Table 2 ordering)."""
        return sorted(
            self.families.values(),
            key=lambda f: (-f.victim_count, -f.total_profit_usd, f.name),
        )

    def counts(self) -> dict[str, int]:
        by_role = {"contract": 0, "operator": 0, "affiliate": 0}
        signal_count = 0
        for intel in self.addresses.values():
            by_role[intel.role] = by_role.get(intel.role, 0) + 1
            signal_count += len(intel.signals)
        out = {
            "addresses": len(self.addresses),
            "contracts": by_role["contract"],
            "operators": by_role["operator"],
            "affiliates": by_role["affiliate"],
            "domains": len(self.domains),
            "families": len(self.families),
        }
        # Only fused indexes grow the extra key — signal-free index
        # bodies (and their content hashes) stay byte-identical.
        if signal_count:
            out["signals"] = signal_count
        return out

    # -- versioning / serialization ------------------------------------------

    def _body_pieces(self) -> list[bytes]:
        """The canonical body without ``version`` and its closing brace:
        ``json.dumps(body, sort_keys=True)`` bytes, cut into pieces
        (built once per index; each entry is its cached fragment)."""
        if self._pieces is None:
            pieces = [b'{"addresses":{']
            self._add_entries(pieces, "addresses", self._sorted_addresses)
            pieces.append(b'},"counts":' + _canonical(self.counts()) + b',"domains":{')
            self._add_entries(pieces, "domains", sorted(self.domains))
            pieces.append(b'},"families":{')
            self._add_entries(pieces, "families", sorted(self.families))
            pieces.append(
                b'},"format":' + _canonical(self.FORMAT)
                + b',"format_version":' + _canonical(self.FORMAT_VERSION)
            )
            self._pieces = pieces
        return self._pieces

    def _add_entries(self, pieces: list[bytes], kind: str, keys) -> None:
        cache = self._fragments[kind]
        records = getattr(self, kind)
        for n, key in enumerate(keys):
            fragment = cache.get(key)
            if fragment is None:
                fragment = cache[key] = encode_entry(key, records[key].to_payload())
            if n:
                pieces.append(b",")
            pieces.append(fragment)

    @property
    def version(self) -> str:
        """Content hash of the canonical payload (stable across rebuilds)."""
        if self._version is None:
            body = b"".join(self._body_pieces() + [b"}"])
            self._version = hashlib.sha256(body).hexdigest()[:16]
        return self._version

    def to_bytes(self) -> bytes:
        tail = b',"version":' + _canonical(self.version) + b"}\n"
        return b"".join(self._body_pieces() + [tail])

    @classmethod
    def from_bytes(cls, raw: bytes | str) -> "IntelIndex":
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise IndexFormatError(f"not an intelligence index: {exc}") from None
        if not isinstance(doc, dict) or doc.get("format") != cls.FORMAT:
            raise IndexFormatError(
                "not an intelligence index (missing "
                f"format={cls.FORMAT!r} marker)"
            )
        if doc.get("format_version") != cls.FORMAT_VERSION:
            raise IndexFormatError(
                f"unsupported index format_version {doc.get('format_version')!r} "
                f"(this build reads {cls.FORMAT_VERSION})"
            )
        index = cls(
            addresses={
                a: AddressIntel.from_payload(p) for a, p in doc["addresses"].items()
            },
            domains={
                d: DomainIntel.from_payload(p) for d, p in doc.get("domains", {}).items()
            },
            families={
                f: FamilyRecord.from_payload(p) for f, p in doc.get("families", {}).items()
            },
        )
        # Trust the stored content hash; recomputing it would walk the
        # whole payload again on every load.
        stored = doc.get("version")
        if isinstance(stored, str) and stored:
            index._version = stored
        return index

    def save(self, path: str | Path) -> None:
        """Write the index file atomically: a reader (``serve
        --reload-every``) sees the previous file or this one, never a
        half-written mix."""
        atomic_write_bytes(path, self.to_bytes())

    @classmethod
    def load(cls, path: str | Path) -> "IntelIndex":
        try:
            raw = Path(path).read_bytes()
        except FileNotFoundError:
            raise IndexFormatError(f"no such index file: {path}") from None
        return cls.from_bytes(raw)


# -- construction -------------------------------------------------------------


def address_intel(
    address: str,
    role: str,
    activity: AddressActivity | None = None,
    provenance=None,
    family: str | None = None,
    victim_count: int | None = None,
    signals: tuple[StageSignal, ...] = (),
) -> AddressIntel:
    """One address's record: its role, its folded profit-sharing
    ``activity`` (:func:`~repro.core.dataset.fold_activity`), where it
    came from, its family and its stage signals."""
    a = activity if activity is not None else AddressActivity()
    return AddressIntel(
        address=address,
        role=role,
        family=family,
        ratio_bps=a.top_ratio(),
        profit_usd=a.profit_usd,
        tx_count=a.tx_count,
        first_seen_ts=a.first_ts,
        last_seen_ts=a.last_ts,
        stage=provenance.stage if provenance else "",
        source=provenance.source if provenance else "",
        victim_count=victim_count,
        operators=tuple(sorted(a.operators)),
        affiliates=tuple(sorted(a.affiliates)),
        contracts=tuple(sorted(a.contracts)),
        evidence=a.evidence_sample(EVIDENCE_LIMIT),
        signals=signals,
    )


def family_record(family) -> FamilyRecord:
    """A §7 :class:`~repro.analysis.families.Family` as its index row."""
    return FamilyRecord(
        name=family.name,
        contract_count=len(family.contracts),
        operator_count=len(family.operators),
        affiliate_count=len(family.affiliates),
        victim_count=len(family.victims),
        total_profit_usd=family.total_profit_usd,
        first_tx_ts=family.first_tx_ts,
        last_tx_ts=family.last_tx_ts,
    )


def merge_site_report(domains: dict[str, DomainIntel], report) -> DomainIntel | None:
    """Fold one §8 ``SiteReport`` into ``domains``: a domain keeps its
    earliest detection (the first report on ties).  Returns the new row,
    or ``None`` when the report changed nothing."""
    domain = report.domain.lower()
    existing = domains.get(domain)
    if existing is not None and report.detected_at >= existing.detected_at:
        return None
    row = domains[domain] = DomainIntel(
        domain=domain,
        verdict="phishing",
        family=report.family,
        detected_at=report.detected_at,
        matched_keyword=report.matched_keyword,
    )
    return row


def build_index(
    dataset,
    clustering=None,
    site_reports=None,
    victim_report=None,
    laundering_report=None,
    signals: bool = True,
) -> IntelIndex:
    """Deterministic index construction from the pipeline's outputs.

    ``dataset`` is a :class:`~repro.core.dataset.DaaSDataset` (roles,
    provenance, and per-address profit/ratio/first-last-seen all derive
    from its profit-sharing transactions).  The analyses are optional
    enrichments: ``clustering`` (a §7 :class:`ClusteringResult`) labels
    addresses with their family and fills the family table;
    ``site_reports`` (§8 ``SiteReport`` list) fills the domain table;
    ``victim_report`` (§6) adds per-affiliate distinct-victim counts;
    ``laundering_report`` (§8.1) contributes laundering-stage signals.
    Same inputs → byte-identical :meth:`IntelIndex.to_bytes`.

    With ``signals=True`` (the default) every record also carries its
    :mod:`repro.risk` stage signals, collected deterministically from
    the same inputs; the serving layer fuses them into evidence-bearing
    verdicts (``docs/risk.md``).  ``signals=False`` reproduces the
    pre-fusion index byte-for-byte.

    Each record comes from the same per-key function the streaming
    plane re-derives single keys with (:func:`address_intel`,
    :func:`family_record`, :func:`merge_site_report`).
    """
    activity = fold_activity(dataset.transactions)

    family_of: dict[str, str] = {}
    families: dict[str, FamilyRecord] = {}
    if clustering is not None:
        for fam in clustering.families:
            families[fam.name] = family_record(fam)
            for member in fam.contracts | fam.operators | fam.affiliates:
                family_of[member] = fam.name

    victims_of: dict[str, int] = {}
    if victim_report is not None:
        # Distinct victims per affiliate (paper §6.3's reach measure).
        per_affiliate: dict[str, set[str]] = {}
        for incident in victim_report.incidents:
            per_affiliate.setdefault(incident.affiliate, set()).add(incident.victim)
        victims_of = {a: len(v) for a, v in per_affiliate.items()}

    signals_of: dict[str, tuple[StageSignal, ...]] = {}
    if signals:
        from repro.risk.collect import collect_signals

        signals_of = collect_signals(
            dataset,
            clustering=clustering,
            site_reports=site_reports,
            laundering_report=laundering_report,
            activity=activity,
        )

    addresses: dict[str, AddressIntel] = {}
    for role, members in (
        ("contract", dataset.contracts),
        ("operator", dataset.operators),
        ("affiliate", dataset.affiliates),
    ):
        for address in sorted(members):
            # Keys are lowercased (clients send arbitrary case); the
            # record keeps the EIP-55 checksummed form for display.
            if address.lower() in addresses:
                continue  # role precedence: contract > operator > affiliate
            addresses[address.lower()] = address_intel(
                address,
                role,
                activity.get(address),
                dataset.provenance.get(address),
                family=family_of.get(address),
                victim_count=victims_of.get(address),
                signals=signals_of.get(address, ()),
            )

    domains: dict[str, DomainIntel] = {}
    for report in site_reports or ():
        merge_site_report(domains, report)

    return IntelIndex(addresses=addresses, domains=domains, families=families)
