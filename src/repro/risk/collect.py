"""Stage-signal collectors: pipeline outputs → per-address StageSignals.

:func:`collect_signals` is the build-time bridge the intelligence index
uses: it walks the measurement pipeline's outputs — dataset provenance
(funding), §8 website detection via family membership (preparation),
profit-sharing classification (exploitation), and §8.1 laundering
routes (laundering) — and emits a deterministic, sorted
``{address: (StageSignal, ...)}`` map.  Same inputs → identical
signals → byte-identical fused indexes, which is what the
serial/process-sharded determinism matrix asserts.

The confidence priors below are *per-signal* precision estimates, not
verdicts; ``docs/risk.md`` documents how the fusion table turns them
into one calibrated score.
"""

from __future__ import annotations

from repro.core.dataset import fold_activity
from repro.risk.signals import (
    SIGNAL_REFS_LIMIT,
    STAGE_EXPLOITATION,
    STAGE_FUNDING,
    STAGE_LAUNDERING,
    STAGE_PREPARATION,
    StageSignal,
)

__all__ = ["address_signals", "collect_signals"]

#: Per-kind confidence priors (calibration knobs, see docs/risk.md).
SEED_LABEL_CONFIDENCE = 0.60        # feeds contain EOAs and false reports
SNOWBALL_CONFIDENCE = 0.40          # expansion hops inherit seed noise
SITE_HIT_CONFIDENCE = 0.50          # attributed via the family, not the address
PROFIT_SPLIT_BASE = {"contract": 0.85, "operator": 0.80, "affiliate": 0.70}
PROFIT_SPLIT_ACTIVITY_CAP = 0.10    # busy splitters are more certain verdicts
SINK_CONFIDENCE = {"mixer": 0.70, "bridge": 0.60, "exchange": 0.35}


def _funding_signal(address: str, provenance) -> StageSignal:
    if provenance.stage == "seed":
        return StageSignal(
            address=address,
            stage=STAGE_FUNDING,
            kind="seed-label",
            confidence=SEED_LABEL_CONFIDENCE,
            source=provenance.source,
            detail=f"seeded from public label feeds ({provenance.source})",
        )
    return StageSignal(
        address=address,
        stage=STAGE_FUNDING,
        kind="snowball-expansion",
        confidence=SNOWBALL_CONFIDENCE,
        source=provenance.source,
        detail=f"discovered by snowball expansion via {provenance.source}",
    )


def address_signals(
    address: str,
    role: str,
    provenance=None,
    activity=None,
    family: str | None = None,
    family_reports=(),
    routes=(),
) -> tuple[StageSignal, ...]:
    """One address's stage signals, in stage order.

    ``provenance`` gives funding; ``family_reports`` (the confirmed
    phishing sites of the address's ``family``) give preparation;
    ``activity`` (its :class:`~repro.core.dataset.AddressActivity`) and
    ``role`` give exploitation; ``routes`` (its §8.1 cash-out routes)
    give laundering.
    """
    collected: list[StageSignal] = []

    if provenance is not None:
        collected.append(_funding_signal(address, provenance))

    if family is not None and family_reports:
        domains = sorted({r.domain.lower() for r in family_reports})
        keywords = sorted({r.matched_keyword for r in family_reports if r.matched_keyword})
        detail = f"{len(domains)} confirmed phishing sites for family {family}"
        if keywords:
            detail += f" (fingerprints: {', '.join(keywords[:3])})"
        collected.append(
            StageSignal(
                address=address,
                stage=STAGE_PREPARATION,
                kind="phishing-site",
                confidence=SITE_HIT_CONFIDENCE,
                source="webdetect",
                detail=detail,
                count=len(domains),
                first_ts=min(r.detected_at for r in family_reports),
                last_ts=max(r.detected_at for r in family_reports),
                refs=tuple(domains[:SIGNAL_REFS_LIMIT]),
            )
        )

    count = activity.tx_count if activity is not None else 0
    if count:
        confidence = min(
            0.95,
            PROFIT_SPLIT_BASE[role] + min(PROFIT_SPLIT_ACTIVITY_CAP, count * 0.002),
        )
        collected.append(
            StageSignal(
                address=address,
                stage=STAGE_EXPLOITATION,
                kind="profit-split",
                confidence=round(confidence, 4),
                source="classify",
                detail=f"{count} profit-sharing txs as {role}",
                count=count,
                first_ts=activity.first_ts,
                last_ts=activity.last_ts,
                refs=activity.evidence_sample(SIGNAL_REFS_LIMIT),
            )
        )

    if routes:
        categories = sorted({r.sink_category for r in routes})
        sinks = sorted({r.sink for r in routes})
        confidence = max(SINK_CONFIDENCE[c] for c in categories)
        collected.append(
            StageSignal(
                address=address,
                stage=STAGE_LAUNDERING,
                kind="cash-out",
                confidence=confidence,
                source="laundering",
                detail=(
                    f"{len(routes)} traced routes to "
                    f"{'/'.join(categories)} sinks"
                ),
                count=len(routes),
                refs=tuple(sinks[:SIGNAL_REFS_LIMIT]),
            )
        )
    return tuple(collected)


def collect_signals(
    dataset,
    clustering=None,
    site_reports=None,
    laundering_report=None,
    activity=None,
) -> dict[str, tuple[StageSignal, ...]]:
    """Deterministic stage signals for every dataset address.

    ``dataset`` is a :class:`~repro.core.dataset.DaaSDataset`; the
    other inputs are the optional analyses that contribute their stage:
    ``clustering`` + ``site_reports`` yield preparation signals (a
    confirmed phishing site is attributed to every member of its
    family), ``laundering_report`` (a §8.1
    :class:`~repro.analysis.laundering.LaunderingReport`) yields
    laundering signals for route sources.  Funding (provenance) and
    exploitation (profit-sharing participation) always come from the
    dataset itself; ``activity`` passes in an already folded
    :func:`~repro.core.dataset.fold_activity` of its transactions.
    Each address's tuple is :func:`address_signals` of its inputs.
    """
    members = dataset.contracts | dataset.operators | dataset.affiliates
    if activity is None:
        activity = fold_activity(dataset.transactions)

    # preparation: confirmed phishing sites, attributed per family.
    family_domains: dict[str, list] = {}
    for report in site_reports or ():
        family_domains.setdefault(report.family, []).append(report)
    family_of: dict[str, str] = {}
    if clustering is not None and family_domains:
        for fam in clustering.families:
            if fam.name in family_domains:
                for member in fam.contracts | fam.operators | fam.affiliates:
                    family_of[member] = fam.name

    # laundering: traced cash-out routes, grouped by source account.
    routes_of: dict[str, list] = {}
    for route in getattr(laundering_report, "routes", ()) or ():
        if route.source in members:
            routes_of.setdefault(route.source, []).append(route)

    signals: dict[str, tuple[StageSignal, ...]] = {}
    for address in sorted(members):
        family = family_of.get(address)
        collected = address_signals(
            address,
            dataset.role_of(address),
            provenance=dataset.provenance.get(address),
            activity=activity.get(address),
            family=family,
            family_reports=family_domains.get(family, ()),
            routes=routes_of.get(address, ()),
        )
        if collected:
            signals[address] = collected
    return signals
