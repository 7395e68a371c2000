#!/usr/bin/env python
"""Metric/event catalogue checker — docs must name every emitted series.

Walks ``src/repro`` for literal metric registrations
(``.counter("…")`` / ``.gauge("…")`` / ``.histogram("…")``),
structured-event emissions (``.event("…")`` and the level shorthands),
the serve plane's access-log event names (bound as ``event, reason
= "serve.access…", …`` in ``repro.obs.request`` rather than emitted
through a logger), and — for the streaming plane, whose spans are an
operator-facing surface (``docs/streaming.md``) — literal span names
(``.span("stream.…")`` under ``src/repro/stream``), then fails if any
discovered name is missing from the catalogue in
``docs/observability.md`` — so a new instrument cannot ship
undocumented.  Dynamically-built names (f-strings like
``f"daas_cache_{field}"``) are out of scope; only string literals are
checked.

The reverse holds too: every ``daas_*`` name that opens a row of the
catalogue must appear in a string literal under ``src/repro`` (any
literal: ``CircuitBreaker`` passes its names to ``self._count``), or
start with the literal prefix of an f-string name (``daas_cache_``
covers ``daas_cache_hits``) — so a deleted instrument cannot leave its
row behind.

Run directly (``python scripts/check_metrics_catalog.py``, exits
non-zero on problems) or through ``tests/test_metrics_catalog.py``,
which wires it into the default pytest run next to ``check_docs.py``.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

_METRIC_RE = re.compile(
    r"""\.(?:counter|gauge|histogram)\(\s*["']([a-z][a-z0-9_]*)["']"""
)
_EVENT_RE = re.compile(
    r"""\.(?:event|debug|info|warning|error)\(\s*["']([a-z][a-z0-9_.]*)["']"""
)
#: Access-log records carry their event name as a JSON field, not a
#: logger call — the serve plane binds it as ``event, reason = "…", "…"``
#: before building the record, so those names are harvested separately.
_ACCESS_EVENT_RE = re.compile(
    r"""\bevent\s*,\s*reason\s*=\s*["']([a-z][a-z0-9_.]*)["']"""
)
#: Span names are only enforced for the streaming plane, where the
#: per-tick spans are part of the documented operational surface; the
#: batch pipeline's spans remain free-form.
_SPAN_RE = re.compile(r"""\.span\(\s*["']([a-z][a-z0-9_.]*)["']""")
_SPAN_SCOPE = ("src", "repro", "stream")
_CATALOGUE_ROW_RE = re.compile(r"^\|\s*`(daas_[a-z0-9_]+)`", re.MULTILINE)
_NAME_LITERAL_RE = re.compile(r"""["'](daas_[a-z0-9_]+)["']""")
_NAME_PREFIX_RE = re.compile(r"""\bf["'](daas_[a-z0-9_]*)\{""")


def source_files(root: Path = REPO_ROOT) -> list[Path]:
    return sorted((root / "src" / "repro").rglob("*.py"))


def emitted_names(root: Path = REPO_ROOT) -> dict[str, set[str]]:
    """``{"metrics": {...}, "events": {...}}`` with their source files."""
    metrics: dict[str, set[str]] = {}
    events: dict[str, set[str]] = {}
    spans: dict[str, set[str]] = {}
    for path in source_files(root):
        text = path.read_text()
        rel = str(path.relative_to(root))
        for name in _METRIC_RE.findall(text):
            metrics.setdefault(name, set()).add(rel)
        for name in _EVENT_RE.findall(text):
            events.setdefault(name, set()).add(rel)
        for name in _ACCESS_EVENT_RE.findall(text):
            events.setdefault(name, set()).add(rel)
        if path.relative_to(root).parts[: len(_SPAN_SCOPE)] == _SPAN_SCOPE:
            for name in _SPAN_RE.findall(text):
                spans.setdefault(name, set()).add(rel)
    return {"metrics": metrics, "events": events, "spans": spans}


def catalogue_text(root: Path = REPO_ROOT) -> str:
    return (root / "docs" / "observability.md").read_text()


def stale_rows(catalogue: str, root: Path = REPO_ROOT) -> list[str]:
    """Catalogue rows whose ``daas_*`` name no source file can emit."""
    literals: set[str] = set()
    prefixes: set[str] = set()
    for path in source_files(root):
        text = path.read_text()
        literals.update(_NAME_LITERAL_RE.findall(text))
        prefixes.update(_NAME_PREFIX_RE.findall(text))
    return sorted(
        name for name in set(_CATALOGUE_ROW_RE.findall(catalogue))
        if name not in literals and not name.startswith(tuple(prefixes))
    )


def run_checks(root: Path = REPO_ROOT) -> list[str]:
    names = emitted_names(root)
    try:
        catalogue = catalogue_text(root)
    except OSError:
        return ["docs/observability.md is missing"]
    errors: list[str] = []
    for kind, found in names.items():
        for name, sources in sorted(found.items()):
            if name not in catalogue:
                errors.append(
                    f"{kind[:-1]} {name!r} (emitted in {', '.join(sorted(sources))}) "
                    "is not catalogued in docs/observability.md"
                )
    for name in stale_rows(catalogue, root):
        errors.append(
            f"docs/observability.md catalogues {name!r}, which no "
            "src/repro module emits"
        )
    return errors


def main() -> int:
    errors = run_checks()
    for error in errors:
        print(error, file=sys.stderr)
    if errors:
        return 1
    names = emitted_names()
    print(
        f"metrics catalogue OK: {len(names['metrics'])} metrics, "
        f"{len(names['events'])} events, {len(names['spans'])} spans "
        "all documented"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
