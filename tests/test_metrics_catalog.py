"""The metric/event catalogue stays complete and current: every emitted
name is documented, and every catalogued metric name is emitted.

Wraps ``scripts/check_metrics_catalog.py`` (which also runs standalone)
into the default pytest tier next to ``test_docs.py``, so a new
instrument or structured event cannot ship without a row in
``docs/observability.md``.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).parent.parent / "scripts" / "check_metrics_catalog.py"

spec = importlib.util.spec_from_file_location("check_metrics_catalog", _SCRIPT)
check_catalog = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_catalog)


def test_discovery_sees_known_names():
    names = check_catalog.emitted_names()
    assert "daas_stage_seconds_total" in names["metrics"]
    assert "daas_live_snapshots_total" in names["metrics"]
    assert "daas_watchdog_stalls_total" in names["metrics"]
    assert "stage.stalled" in names["events"]
    assert "alert.firing" in names["events"]


def test_every_emitted_name_is_catalogued():
    assert check_catalog.run_checks() == []


def test_checker_catches_undocumented_metric(tmp_path):
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "thing.py").write_text(
        'registry.counter("daas_surprise_total").inc()\n'
        'log.warning("surprise.event", n=1)\n'
        'log.info("known.event")\n'
    )
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "observability.md").write_text("`known.event`\n")
    errors = check_catalog.run_checks(tmp_path)
    assert any("daas_surprise_total" in e for e in errors)
    assert any("surprise.event" in e for e in errors)
    assert not any("known.event" in e for e in errors)


def test_checker_catches_stale_catalogue_row(tmp_path):
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "thing.py").write_text(
        'registry.counter("daas_live_total").inc()\n'
        'self._count("daas_counted_total")\n'
        'registry.gauge(f"daas_cache_{field}").set(1)\n'
    )
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "observability.md").write_text(
        "| metric | type |\n"
        "|---|---|\n"
        "| `daas_live_total` | counter |\n"
        "| `daas_counted_total` | counter |\n"
        "| `daas_cache_hits` / `_misses` | gauge |\n"
        "| `daas_deleted_total` | counter |\n"
    )
    errors = check_catalog.run_checks(tmp_path)
    assert errors == [
        "docs/observability.md catalogues 'daas_deleted_total', which no "
        "src/repro module emits"
    ]


def test_checker_reports_missing_catalogue(tmp_path):
    (tmp_path / "src" / "repro").mkdir(parents=True)
    errors = check_catalog.run_checks(tmp_path)
    assert errors == ["docs/observability.md is missing"]
