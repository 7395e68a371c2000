"""Measurement analyses over the DaaS dataset (paper §6-§7, §9)."""

from repro._lazy import lazy_exports

__all__ = [
    "FIG7_EDGES",
    "AffiliateAnalyzer",
    "AffiliateReport",
    "AnalysisContext",
    "ClusteringResult",
    "ContractImplementation",
    "Family",
    "FamilyClusterer",
    "GuardVerdict",
    "TransactionIntent",
    "WalletGuard",
    "LaunderingAnalyzer",
    "LaunderingReport",
    "LaunderingRoute",
    "SINK_CATEGORIES",
    "bar_chart",
    "histogram",
    "lorenz_ascii",
    "OperatorAnalyzer",
    "OperatorReport",
    "fmt_month",
    "fmt_pct",
    "fmt_usd",
    "paper_vs_measured",
    "render_table",
    "bucket_shares",
    "gini",
    "lorenz_curve",
    "min_head_fraction_for_share",
    "percentile",
    "top_k_share",
    "FIG6_EDGES",
    "VictimAnalyzer",
    "VictimIncident",
    "VictimReport",
]

__getattr__ = lazy_exports(__name__, globals(), {
    "repro.analysis.affiliates": ("FIG7_EDGES", "AffiliateAnalyzer", "AffiliateReport"),
    "repro.analysis.context": ("AnalysisContext",),
    "repro.analysis.families": (
        "ClusteringResult", "ContractImplementation", "Family", "FamilyClusterer",
    ),
    "repro.analysis.guard": ("GuardVerdict", "TransactionIntent", "WalletGuard"),
    "repro.analysis.laundering": (
        "LaunderingAnalyzer", "LaunderingReport", "LaunderingRoute", "SINK_CATEGORIES",
    ),
    "repro.analysis.plots": ("bar_chart", "histogram", "lorenz_ascii"),
    "repro.analysis.operators": ("OperatorAnalyzer", "OperatorReport"),
    "repro.analysis.reporting": (
        "fmt_month", "fmt_pct", "fmt_usd", "paper_vs_measured", "render_table",
    ),
    "repro.analysis.stats": (
        "bucket_shares", "gini", "lorenz_curve", "min_head_fraction_for_share",
        "percentile", "top_k_share",
    ),
    "repro.analysis.victims": (
        "FIG6_EDGES", "VictimAnalyzer", "VictimIncident", "VictimReport",
    ),
})
