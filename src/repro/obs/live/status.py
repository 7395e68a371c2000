"""``daas-repro live-status`` — render a run's or a serve fleet's health.

The subcommand accepts one *source* argument:

* an ``http(s)://`` URL — the ``/statusz`` document of a pipeline run's
  ``--serve-metrics`` port or of a ``serve`` worker is fetched (the
  path is added when missing).  A run answers with its ``status``
  section, a ``serve`` worker with its ``fleet`` section; the document
  says which it is;
* a snapshot file written with ``--snapshot-out`` — the *last complete*
  record is used, so tailing a file that a live run is still appending
  to works;
* a ``serve --status-dir`` directory — the worker snapshot files are
  merged into the same fleet document a worker's ``/statusz`` serves,
  which still works when the serve port does not answer.

Either document renders to a block of text and a :class:`StatusState`:
a run is degraded while its health is, a fleet while a worker snapshot
is older than ``stale_after_s``, a snapshot file was skipped, or no
worker reported at all.  The CLI exits 0 ok, 2 degraded, and 1 on
every failure to read a source (missing file or directory, empty or
truncated file, server unreachable, malformed document), which raises
:class:`LiveStatusError` with a one-line message, never a traceback.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "LiveStatusError",
    "StatusState",
    "load_status_source",
    "render_live_status",
    "render_status",
    "status_state",
]


class LiveStatusError(RuntimeError):
    """A live-status source could not be read; message is one line."""


@dataclass
class StatusState:
    """The live-status verdict: ``ok`` or ``degraded``, with reasons."""

    state: str
    reasons: list[str] = field(default_factory=list)


def fetch_status(url: str, timeout: float = 5.0) -> dict[str, Any]:
    """GET the /statusz document of a run's probe port or a serve worker."""
    import urllib.error
    import urllib.request

    if not url.rstrip("/").endswith("/statusz"):
        url = url.rstrip("/") + "/statusz"
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            body = response.read().decode("utf-8")
    except (urllib.error.URLError, OSError, ValueError) as exc:
        reason = getattr(exc, "reason", exc)
        raise LiveStatusError(f"cannot reach live server at {url}: {reason}") from None
    try:
        doc = json.loads(body)
    except json.JSONDecodeError:
        raise LiveStatusError(f"{url} did not return JSON") from None
    if not isinstance(doc, dict) or not (
        isinstance(doc.get("status"), dict) or isinstance(doc.get("fleet"), dict)
    ):
        raise LiveStatusError(
            f"{url} is not a /statusz document (no status or fleet section)"
        )
    return doc


def read_status_snapshot(path: str) -> dict[str, Any]:
    """The last complete record of a ``--snapshot-out`` JSONL file."""
    try:
        with open(path) as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise LiveStatusError(
            f"cannot read snapshot file {path}: {exc.strerror}"
        ) from None
    records = [line for line in (l.strip() for l in lines) if line]
    if not records:
        raise LiveStatusError(f"empty snapshot file: {path}")
    for line in reversed(records):
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue  # a partial trailing line while the run still writes
        if isinstance(record, dict) and "status" in record:
            return record
        raise LiveStatusError(
            f"{path} does not look like a snapshot file (no status records)"
        )
    raise LiveStatusError(f"truncated or corrupt snapshot file: {path}")


def read_status_dir(path: str) -> dict[str, Any]:
    """The fleet document of a ``serve --status-dir`` directory."""
    from repro.serve.fleet import ServeAggregator

    aggregator = ServeAggregator()
    scan = aggregator.read_snapshots(path)
    if not scan.snapshots and scan.skipped == 0:
        raise LiveStatusError(
            f"no worker snapshots in {path} "
            "(is the fleet running with --status-dir?)"
        )
    return aggregator.fleet_doc(scan.snapshots, skipped=scan.skipped)


def load_status_source(source: str) -> dict[str, Any]:
    """Dispatch on the source shape: URL -> /statusz, a directory ->
    its worker snapshots, else a snapshot file."""
    if source.startswith(("http://", "https://")):
        return fetch_status(source)
    if os.path.isdir(source):
        return read_status_dir(source)
    if not os.path.exists(source):
        raise LiveStatusError(
            f"no such file or directory: {source} (pass a --snapshot-out "
            "file, a serve --status-dir or an http://host:port URL)"
        )
    return read_status_snapshot(source)


def status_state(doc: dict[str, Any], stale_after_s: float = 15.0) -> StatusState:
    """``ok`` / ``degraded`` with one reason line per finding."""
    if "fleet" not in doc:
        status = doc.get("status") or {}
        return StatusState(status.get("state", "ok"),
                           list(status.get("degraded") or []))
    reasons: list[str] = []
    workers = doc.get("workers") or []
    if not workers:
        reasons.append("no worker snapshots")
    fleet = doc.get("fleet") or {}
    skipped = int(fleet.get("skipped_files", doc.get("skipped_files", 0)) or 0)
    if skipped:
        reasons.append(f"{skipped} snapshot file(s) skipped")
    if stale_after_s > 0:
        for worker in workers:
            age = worker.get("age_s")
            if not worker.get("live") and age is not None and age > stale_after_s:
                reasons.append(
                    f"worker {worker.get('worker')} snapshot is {age:.1f}s old"
                )
    return StatusState("degraded" if reasons else "ok", reasons)


def render_status(doc: dict[str, Any], state: StatusState) -> str:
    """The run block or the fleet table, whichever ``doc`` is."""
    if "fleet" in doc:
        return render_fleet_status(doc, state)
    return render_live_status(doc)


def _fmt_uptime(seconds: float) -> str:
    seconds = int(seconds)
    hours, rest = divmod(seconds, 3600)
    minutes, secs = divmod(rest, 60)
    return f"{hours:d}:{minutes:02d}:{secs:02d}"


def render_live_status(doc: dict[str, Any]) -> str:
    """Human-readable health/progress/alerts block from a run's
    document (a /statusz response or one snapshot record)."""
    status = doc.get("status", {}) or {}
    lines = [
        f"run:     {status.get('run', doc.get('run', '?'))}",
        f"state:   {status.get('state', '?')}"
        + (f"  ({', '.join(status['degraded'])})" if status.get("degraded") else ""),
        f"ready:   {'yes' if status.get('ready') else 'no'}",
        f"uptime:  {_fmt_uptime(float(status.get('uptime_s', 0.0)))}",
        f"stage:   {status.get('stage') or '(idle)'}",
    ]
    if "seq" in doc:
        lines.append(f"snapshot: seq {doc['seq']} at ts {doc.get('ts')}")
    done = status.get("stages_done", [])
    if done:
        lines.append("stages done:")
        for entry in done:
            lines.append(f"  {entry.get('stage', '?'):<24} {entry.get('wall_s', 0.0):8.3f} s")
    alerts = doc.get("alerts")
    states = alerts.get("states", []) if isinstance(alerts, dict) else (alerts or [])
    if states:
        firing = [s for s in states if s.get("state") == "firing"]
        lines.append(f"alerts:  {len(firing)} firing / {len(states)} rules")
        for state in states:
            marker = "!" if state.get("state") == "firing" else " "
            value = state.get("value")
            shown = f"{value:.4g}" if isinstance(value, (int, float)) else "-"
            lines.append(
                f" {marker} {state.get('state', '?'):<7} {state.get('name', '?'):<28}"
                f" value={shown} [{state.get('severity', '?')}]"
            )
    else:
        lines.append("alerts:  none configured")
    return "\n".join(lines)


def render_fleet_status(doc: dict[str, Any], state: StatusState) -> str:
    """The per-worker + fleet table of a serve fleet document."""
    fleet = doc.get("fleet") or {}
    workers = doc.get("workers") or []
    latency = fleet.get("latency") or {}

    def _ms(key: str) -> str:
        value = latency.get(key)
        return f"<={value:g} ms" if isinstance(value, (int, float)) else "-"

    versions = {
        w.get("index_version") for w in workers if w.get("index_version")
    }
    suffix = f"  ({'; '.join(state.reasons)})" if state.reasons else ""
    lines = [
        f"fleet:   {fleet.get('workers', 0)} worker(s)  "
        f"{fleet.get('requests', 0):,} requests  "
        f"{fleet.get('errors', 0):,} errors  "
        f"{fleet.get('open_connections', 0):,} open conns",
        f"index:   {', '.join(sorted(versions)) if versions else '(none loaded)'}"
        + ("  [MIXED VERSIONS]" if len(versions) > 1 else ""),
        f"latency: p50 {_ms('p50_ms')}  p99 {_ms('p99_ms')}  "
        f"over {latency.get('count', 0):,} request(s)",
        f"state:   {state.state}{suffix}",
    ]
    if fleet.get("skipped_files"):
        lines.append(f"skipped: {fleet['skipped_files']} snapshot file(s)")
    header = (
        f"{'worker':<8} {'pid':>7} {'age s':>7} {'requests':>10} "
        f"{'errors':>7} {'conns':>6}"
    )
    lines += [header, "-" * len(header)]
    for worker in workers:
        age = "live" if worker.get("live") else (
            f"{worker['age_s']:.1f}" if worker.get("age_s") is not None else "?"
        )
        lines.append(
            f"{str(worker.get('worker', '?')):<8} "
            f"{str(worker.get('pid', '-')):>7} {age:>7} "
            f"{worker.get('requests', 0):>10,} {worker.get('errors', 0):>7,} "
            f"{worker.get('open_connections', 0):>6,}"
        )
    return "\n".join(lines)
