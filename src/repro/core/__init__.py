"""The paper's core contribution: profit-sharing detection, seed dataset
construction, snowball expansion, and the released dataset model."""

from repro._lazy import lazy_exports

__all__ = [
    "DaaSDataset",
    "PSTransactionRecord",
    "Provenance",
    "FundFlowExtractor",
    "Transfer",
    "extract_fund_flow",
    "group_by_source",
    "SetMetrics",
    "dataset_metrics",
    "score_sets",
    "Alert",
    "MonitorStats",
    "StreamingMonitor",
    "ContractAnalysis",
    "ContractAnalyzer",
    "split_roles",
    "ProfitShareMatch",
    "ProfitSharingClassifier",
    "RPCClassifier",
    "DEFAULT_TOLERANCE",
    "KNOWN_OPERATOR_RATIOS_BPS",
    "match_operator_share",
    "SeedBuilder",
    "SeedReport",
    "ExpansionReport",
    "IterationStats",
    "SnowballExpander",
    "DatasetValidator",
    "ValidationReport",
]

__getattr__ = lazy_exports(__name__, globals(), {
    "repro.core.dataset": ("DaaSDataset", "PSTransactionRecord", "Provenance"),
    "repro.core.fundflow": (
        "FundFlowExtractor", "Transfer", "extract_fund_flow", "group_by_source",
    ),
    "repro.core.metrics": ("SetMetrics", "dataset_metrics", "score_sets"),
    "repro.core.monitor": ("Alert", "MonitorStats", "StreamingMonitor"),
    "repro.core.pipeline": ("ContractAnalysis", "ContractAnalyzer", "split_roles"),
    "repro.core.profit_sharing": (
        "ProfitShareMatch", "ProfitSharingClassifier", "RPCClassifier",
    ),
    "repro.core.ratios": (
        "DEFAULT_TOLERANCE", "KNOWN_OPERATOR_RATIOS_BPS", "match_operator_share",
    ),
    "repro.core.seed": ("SeedBuilder", "SeedReport"),
    "repro.core.snowball": ("ExpansionReport", "IterationStats", "SnowballExpander"),
    "repro.core.validation": ("DatasetValidator", "ValidationReport"),
})
