"""repro.risk — multi-stage alert fusion (the precision risk engine).

The serving layer used to reduce an address to one role-keyed float;
this package replaces that with evidence-weighted judgment in the Forta
scam-detector shape — collect low-precision per-stage signals, fuse
them per address (and per family) under a deterministic rule + weight
table, and emit one calibrated, citation-bearing verdict:

* :mod:`repro.risk.signals`  — the vocabulary: :data:`STAGES`,
  :class:`StageSignal` (one stage-level observation with a confidence
  prior) and :class:`EvidenceRecord` (one citation on a verdict);
* :mod:`repro.risk.collect`  — :func:`collect_signals`, the build-time
  bridge from pipeline outputs (provenance, webdetect hits,
  profit-sharing classification, laundering routes) to per-address
  signals, persisted inside the intelligence index;
* :mod:`repro.risk.fusion`   — :class:`FusionTable` (the knobs),
  :class:`FusionEngine` (noisy-OR within and across stages plus
  corroboration bonuses) and :class:`FusedVerdict` (score + stage
  breakdown via :class:`StageScore` + evidence);
* :mod:`repro.risk.evaluate` — :func:`evaluate_stage_combinations` and
  :func:`stage_alerts`, the precision/recall harness behind
  ``daas-repro eval-risk``, reporting :class:`StageComboStats` rows in
  a :class:`RiskEvalReport`.

See ``docs/risk.md`` for the signal taxonomy, the fusion table, and the
calibration knobs.
"""

from repro._lazy import lazy_exports

__all__ = [
    "STAGES",
    "EvidenceRecord",
    "FusedVerdict",
    "FusionEngine",
    "FusionTable",
    "RiskEvalReport",
    "StageComboStats",
    "StageScore",
    "StageSignal",
    "collect_signals",
    "evaluate_stage_combinations",
    "stage_alerts",
]

__getattr__ = lazy_exports(__name__, globals(), {
    "repro.risk.collect": ("collect_signals",),
    "repro.risk.evaluate": (
        "RiskEvalReport", "StageComboStats", "evaluate_stage_combinations",
        "stage_alerts",
    ),
    "repro.risk.fusion": ("FusedVerdict", "FusionEngine", "FusionTable", "StageScore"),
    "repro.risk.signals": ("STAGES", "EvidenceRecord", "StageSignal"),
})
