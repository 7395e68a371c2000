"""repro — reproduction of "Unmasking the Shadow Economy: A Deep Dive into
Drainer-as-a-Service Phishing on Ethereum" (IMC '25).

Packages:

* :mod:`repro.chain`      — simulated Ethereum substrate (the RPC/explorer
  view the paper's tooling consumed from a real node);
* :mod:`repro.simulation` — calibrated DaaS ecosystem generator;
* :mod:`repro.core`       — the paper's contribution: profit-sharing
  detection, seed construction, snowball expansion, dataset model;
* :mod:`repro.analysis`   — the §6-§7 measurement suite and clustering;
* :mod:`repro.webdetect`  — the §8 toolkit-based website detector;
* :mod:`repro.runtime`    — the execution engine (caches, process sharding);
* :mod:`repro.obs`        — observability: trace spans, metrics registry,
  structured logs (``--trace-out`` / ``--metrics-out`` / ``--log-json``);
* :mod:`repro.serve`      — serving layer: the versioned intelligence
  index plus the query engine and ``/v1`` HTTP service over it;
* :mod:`repro.api`        — a one-call facade over the full pipeline.
"""

from repro.api import (
    DatasetBuildResult,
    PipelineConfig,
    PipelineResult,
    build_dataset,
    run_pipeline,
)

__version__ = "1.0.0"

__all__ = [
    "DatasetBuildResult",
    "PipelineConfig",
    "PipelineResult",
    "build_dataset",
    "run_pipeline",
    "__version__",
]
