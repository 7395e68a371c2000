"""Calibrated DaaS ecosystem generator (the paper's data substrate)."""

from repro._lazy import lazy_exports

__all__ = [
    "mint_address",
    "vanity_address",
    "GroundTruth",
    "PlantedFamily",
    "PlantedIncident",
    "AbuseReport",
    "LabelFeeds",
    "build_label_feeds",
    "FamilyProfile",
    "PAPER_FAMILIES",
    "PAPER_RATIO_MIX",
    "PAPER_TOTALS",
    "SimulationParams",
    "month_ts",
    "SimulatedWorld",
    "build_world",
]

__getattr__ = lazy_exports(__name__, globals(), {
    "repro.simulation.actors": ("mint_address", "vanity_address"),
    "repro.simulation.ground_truth": ("GroundTruth", "PlantedFamily", "PlantedIncident"),
    "repro.simulation.labels": ("AbuseReport", "LabelFeeds", "build_label_feeds"),
    "repro.simulation.params": (
        "FamilyProfile", "PAPER_FAMILIES", "PAPER_RATIO_MIX", "PAPER_TOTALS",
        "SimulationParams", "month_ts",
    ),
    "repro.simulation.world": ("SimulatedWorld", "build_world"),
})
