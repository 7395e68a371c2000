"""Fleet-wide metrics aggregation for pre-forked serving workers.

``--serve-workers N`` runs N processes with N private metric
registries; this module is the plane that turns them back into one
view:

* each worker periodically writes an **atomic snapshot** of its
  registry (:func:`write_worker_snapshot` — temp file + ``os.replace``,
  so a reader never sees a half-written document) into the shared
  ``--status-dir``;
* :class:`ServeAggregator` merges the snapshots: counters and
  histograms **sum** across workers, gauges are kept **per worker**
  with a ``worker`` label (summing "open connections" is meaningful,
  summing "index loaded" is not — the reader decides);
* any worker's ``GET /statusz`` / ``GET /metrics`` answers for the
  whole fleet by merging the other workers' snapshots with its own
  live registry;
* ``daas-repro live-status`` renders the per-worker + fleet table
  from either a serve URL or the ``--status-dir`` directly
  (:mod:`repro.obs.live.status`).

A snapshot file that is missing, empty, or caught mid-write is
*skipped*, never fatal: the skip is counted in
``daas_serve_agg_skipped_files`` and reported as ``skipped_files`` in
the status document (which degrades ``live-status`` to exit 2).
"""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import dataclass, field
from typing import Any

from repro.obs.metrics import format_value, render_labels
from repro.runtime.atomicio import atomic_write_text

__all__ = [
    "ServeAggregator",
    "SnapshotScan",
    "render_fleet_prometheus",
    "snapshot_path",
    "write_worker_snapshot",
]

_SNAPSHOT_RE = re.compile(r"^worker-(\d+)\.json$")


def snapshot_path(status_dir: str, worker_id: int) -> str:
    return os.path.join(str(status_dir), f"worker-{int(worker_id)}.json")


def write_worker_snapshot(
    status_dir: str,
    worker_id: int,
    obs: Any,
    index_version: str | None = None,
) -> str:
    """Atomically publish one worker's registry into ``status_dir``.

    The document is written to a temp file and ``os.replace``d over
    ``worker-<id>.json``, so concurrent readers see either the previous
    complete snapshot or this one — never a torn write.
    """
    os.makedirs(str(status_dir), exist_ok=True)
    doc = {
        "ts": round(time.time(), 6),
        "worker": int(worker_id),
        "pid": os.getpid(),
        "run": obs.run_id,
        "index_version": index_version,
        "metrics": obs.metrics.to_json(),
    }
    path = snapshot_path(status_dir, worker_id)
    atomic_write_text(path, json.dumps(doc, separators=(",", ":")) + "\n")
    return path


@dataclass
class SnapshotScan:
    """One read of a status directory: usable snapshots + skip count."""

    snapshots: list[dict[str, Any]] = field(default_factory=list)
    skipped: int = 0


class ServeAggregator:
    """Merges per-worker metric snapshots into one fleet view."""

    def __init__(self, obs: Any = None) -> None:
        self.obs = obs
        self.skipped_total = 0
        self._skipped_counter = (
            obs.metrics.counter(
                "daas_serve_agg_skipped_files",
                help_text="Worker snapshot files skipped during fleet "
                          "aggregation (missing, empty, or mid-write).",
            )
            if obs is not None
            else None
        )

    # -- reading -------------------------------------------------------------

    def read_snapshots(
        self, status_dir: str, exclude_worker: int | None = None
    ) -> SnapshotScan:
        """Every parseable ``worker-*.json`` under ``status_dir``.

        A missing directory reads as empty; a file that is unreadable,
        empty, or truncated mid-write is skipped and counted — a worker
        replacing its snapshot while we read must degrade the view, not
        crash it.
        """
        scan = SnapshotScan()
        try:
            names = sorted(os.listdir(str(status_dir)))
        except OSError:
            return scan
        for name in names:
            match = _SNAPSHOT_RE.match(name)
            if match is None:
                continue
            if exclude_worker is not None and int(match.group(1)) == exclude_worker:
                continue
            doc = self.load_snapshot(os.path.join(str(status_dir), name))
            if doc is None:
                scan.skipped += 1
            else:
                scan.snapshots.append(doc)
        return scan

    def load_snapshot(self, path: str) -> dict[str, Any] | None:
        """One snapshot document, or ``None`` (counted) when unusable."""
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        except OSError:
            return self._skip()
        if not text.strip():
            return self._skip()
        try:
            doc = json.loads(text)
        except ValueError:
            return self._skip()
        if not isinstance(doc, dict) or not isinstance(doc.get("metrics"), dict):
            return self._skip()
        return doc

    def _skip(self) -> None:
        self.skipped_total += 1
        if self._skipped_counter is not None:
            self._skipped_counter.inc()
        return None

    # -- merging -------------------------------------------------------------

    def merge(self, snapshots: list[dict[str, Any]]) -> dict[str, Any]:
        """Merge registry JSON across workers (``to_json`` shape in/out).

        Counters and histograms sum per label set; gauges get a
        ``worker`` label so per-process values stay distinguishable.
        A malformed sample inside an otherwise-valid snapshot is
        dropped, not fatal.
        """
        merged: dict[str, dict[str, Any]] = {}
        for doc in snapshots:
            worker = doc.get("worker", "?")
            for name, family in (doc.get("metrics") or {}).items():
                if not isinstance(family, dict):
                    continue
                kind = family.get("type")
                if kind not in ("counter", "gauge", "histogram"):
                    continue
                slot = merged.setdefault(name, {"type": kind, "samples": {}})
                if slot["type"] != kind:
                    continue
                for sample in family.get("samples") or ():
                    try:
                        self._merge_sample(slot["samples"], kind, sample, worker)
                    except (KeyError, TypeError, ValueError, AttributeError):
                        continue
        out: dict[str, Any] = {}
        for name in sorted(merged):
            samples = merged[name]["samples"]
            if not samples:
                continue  # every sample was malformed: no family to report
            for sample in samples.values():
                if "sum" in sample:
                    sample["sum"] = round(sample["sum"], 6)
            out[name] = {
                "type": merged[name]["type"],
                "samples": [samples[key] for key in sorted(samples)],
            }
        return out

    @staticmethod
    def _merge_sample(
        samples: dict[Any, dict[str, Any]],
        kind: str,
        sample: dict[str, Any],
        worker: Any,
    ) -> None:
        labels = {str(k): str(v) for k, v in (sample.get("labels") or {}).items()}
        if kind == "gauge":
            labels["worker"] = str(worker)
        key = tuple(sorted(labels.items()))
        slot = samples.get(key)
        if kind == "histogram":
            count = int(sample["count"])
            total = float(sample["sum"])
            buckets = {str(b): int(n) for b, n in sample["buckets"].items()}
            if slot is None:
                samples[key] = {
                    "labels": labels, "count": count, "sum": total,
                    "buckets": buckets,
                }
            else:
                slot["count"] += count
                slot["sum"] += total
                for bound, n in buckets.items():
                    slot["buckets"][bound] = slot["buckets"].get(bound, 0) + n
        else:
            value = float(sample["value"])
            if slot is None:
                samples[key] = {"labels": labels, "value": value}
            else:
                slot["value"] += value

    # -- the fleet status document -------------------------------------------

    def fleet_doc(
        self,
        snapshots: list[dict[str, Any]],
        skipped: int = 0,
        now: float | None = None,
    ) -> dict[str, Any]:
        """The ``/statusz`` document: per-worker rows + fleet totals +
        the merged registry (callers that only want the summary can drop
        the ``metrics`` key)."""
        now = time.time() if now is None else now
        merged = self.merge(snapshots)
        workers = []
        for doc in sorted(snapshots, key=_worker_order):
            metrics = doc.get("metrics") or {}
            ts = _as_float(doc.get("ts"))
            workers.append({
                "worker": doc.get("worker"),
                "pid": doc.get("pid"),
                "run": doc.get("run"),
                "index_version": doc.get("index_version"),
                "ts": ts,
                "age_s": round(max(0.0, now - ts), 3) if ts else None,
                "live": bool(doc.get("live", False)),
                "requests": _sum_values(metrics, "daas_serve_requests_total"),
                "errors": _error_requests(metrics),
                "open_connections": _sum_values(
                    metrics, "daas_serve_open_connections"
                ),
            })
        fleet = {
            "workers": len(workers),
            "requests": sum(w["requests"] for w in workers),
            "errors": sum(w["errors"] for w in workers),
            "open_connections": sum(w["open_connections"] for w in workers),
            "skipped_files": int(skipped),
            "latency": _latency_summary(merged.get("daas_serve_request_seconds")),
        }
        return {
            "fleet": fleet,
            "workers": workers,
            "skipped_files": int(skipped),
            "metrics": merged,
        }


def _worker_order(doc: dict[str, Any]) -> tuple[int, str]:
    try:
        return (int(doc.get("worker", 0)), "")
    except (TypeError, ValueError):
        return (1 << 30, str(doc.get("worker")))


def _as_float(value: Any) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        return 0.0


def _sum_values(metrics: dict[str, Any], name: str) -> int:
    family = metrics.get(name) or {}
    total = 0.0
    for sample in family.get("samples") or ():
        total += _as_float(sample.get("value"))
    return int(total)


def _error_requests(metrics: dict[str, Any]) -> int:
    """Requests that finished with a 4xx/5xx status, from the labeled
    latency histogram."""
    family = metrics.get("daas_serve_request_seconds") or {}
    total = 0
    for sample in family.get("samples") or ():
        try:
            if int((sample.get("labels") or {}).get("status", 0)) >= 400:
                total += int(sample.get("count", 0))
        except (TypeError, ValueError):
            continue
    return total


def _bound_order(bound: str) -> float:
    if bound == "+Inf":
        return float("inf")
    try:
        return float(bound)
    except ValueError:
        return float("inf")


def _latency_summary(family: dict[str, Any] | None) -> dict[str, Any]:
    """p50/p99 upper-bound estimates from the merged latency histogram.

    Bucket counts across all (endpoint, status) series are combined;
    the quantile is reported as the upper bound of the bucket it lands
    in (``None`` when it falls beyond the largest finite bound, or when
    nothing has been observed yet).
    """
    buckets: dict[str, int] = {}
    count = 0
    for sample in (family or {}).get("samples") or ():
        count += int(sample.get("count", 0))
        for bound, n in (sample.get("buckets") or {}).items():
            buckets[str(bound)] = buckets.get(str(bound), 0) + int(n)
    out: dict[str, Any] = {"count": count, "p50_ms": None, "p99_ms": None}
    if count <= 0:
        return out
    ordered = sorted(buckets.items(), key=lambda item: _bound_order(item[0]))
    for quantile, key in ((0.50, "p50_ms"), (0.99, "p99_ms")):
        need = quantile * count
        for bound, cumulative in ordered:
            if cumulative >= need:
                value = _bound_order(bound)
                if value != float("inf"):
                    out[key] = round(value * 1000.0, 4)
                break
    return out


# -- Prometheus rendering of a merged registry --------------------------------


def render_fleet_prometheus(merged: dict[str, Any]) -> str:
    """Prometheus text exposition of a merged registry document."""
    lines: list[str] = []
    for name in sorted(merged):
        family = merged[name]
        kind = family.get("type")
        lines.append(f"# TYPE {name} {kind}")
        for sample in family.get("samples") or ():
            labels = dict(sample.get("labels") or {})
            if kind == "histogram":
                ordered = sorted(
                    (sample.get("buckets") or {}).items(),
                    key=lambda item: _bound_order(item[0]),
                )
                for bound, cumulative in ordered:
                    lines.append(
                        f"{name}_bucket"
                        f"{render_labels({**labels, 'le': bound})} {cumulative}"
                    )
                lines.append(
                    f"{name}_sum{render_labels(labels)} "
                    f"{format_value(round(float(sample.get('sum', 0.0)), 9))}"
                )
                lines.append(
                    f"{name}_count{render_labels(labels)} "
                    f"{int(sample.get('count', 0))}"
                )
            else:
                lines.append(
                    f"{name}{render_labels(labels)} "
                    f"{format_value(float(sample.get('value', 0.0)))}"
                )
    return "\n".join(lines) + ("\n" if lines else "")
