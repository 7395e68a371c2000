"""Metrics registry: counters, gauges, fixed-bucket histograms.

The registry is the pipeline's single metrics sink — the execution
engine mirrors its :class:`~repro.runtime.stats.RuntimeStats` counters
into it, the chain facades count underlying reads through it, and the
cache layer publishes hit/miss/ratio gauges into it — and it exports two
ways:

* :meth:`MetricsRegistry.to_json` — nested dict for machine diffing;
* :meth:`MetricsRegistry.to_prometheus` — the Prometheus text exposition
  format (``# HELP`` / ``# TYPE`` / sample lines, histogram ``_bucket`` /
  ``_sum`` / ``_count`` series with cumulative ``le`` buckets), with the
  label-value escaping the format requires.

Instruments are identified by ``(name, labels)``; asking for the same
pair twice returns the same instrument, so hot paths can hold a direct
reference and skip the registry lookup.  All instruments are
thread-safe.  A registry built with ``enabled=False`` hands out shared
no-op instruments, which is what makes the "observability off" baseline
of ``bench_perf_obs.py`` measurable.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from typing import Any

__all__ = [
    "CACHE_RATIO_BUCKETS",
    "LATENCY_BUCKETS",
    "PROMETHEUS_CONTENT_TYPE",
    "SERVE_LATENCY_BUCKETS",
    "SERVE_SIZE_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "escape_help",
    "escape_label_value",
    "format_value",
    "render_labels",
]

#: Default buckets (seconds) for per-transaction / per-contract
#: classification latency: sub-millisecond to tens of seconds.
LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Buckets (seconds) for the serving layer's per-request latency: an
#: in-memory lookup behind an async socket loop answers in tens of
#: microseconds, so the default LATENCY_BUCKETS (which start at 100 µs)
#: would collapse the whole distribution into the first bucket.
SERVE_LATENCY_BUCKETS = (
    0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005, 0.001,
    0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1.0,
)

#: Buckets (bytes) for request/response body sizes on the serve plane:
#: point lookups are a few hundred bytes, screening batches run to
#: megabytes, so the bounds are power-of-four-ish from 64 B to 4 MiB.
SERVE_SIZE_BUCKETS = (
    64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0,
    262144.0, 1048576.0, 4194304.0,
)

#: Default buckets for cache hit ratios (a share in [0, 1]).
CACHE_RATIO_BUCKETS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 1.0)

#: HTTP ``Content-Type`` of :meth:`MetricsRegistry.to_prometheus` output.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_LabelsKey = tuple[tuple[str, str], ...]


def _labels_key(labels: dict[str, Any]) -> _LabelsKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text format: backslash,
    double-quote, and line feed."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def escape_help(text: str) -> str:
    """Escape a ``# HELP`` docstring: backslash and line feed."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def format_value(value: float) -> str:
    """A sample value as exposition text: ``+Inf``, integral floats
    without a fraction, anything else as ``repr``."""
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("labels", "_lock", "_value")

    def __init__(self, labels: _LabelsKey = ()) -> None:
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError(f"counters only go up, got {n}")
        with self._lock:
            self._value += n

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """Value that can go up and down (set to the latest observation)."""

    __slots__ = ("labels", "_lock", "_value")

    def __init__(self, labels: _LabelsKey = ()) -> None:
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, n: float = 1.0) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket histogram with Prometheus bucket semantics.

    ``buckets`` are upper bounds; an observation lands in the first
    bucket whose bound is >= the value (exported cumulatively, plus the
    implicit ``+Inf`` bucket).
    """

    __slots__ = ("labels", "buckets", "_lock", "_counts", "_sum", "_count")

    def __init__(self, buckets: tuple[float, ...], labels: _LabelsKey = ()) -> None:
        if not buckets:
            raise ValueError("histogram needs at least one bucket bound")
        ordered = tuple(float(b) for b in buckets)
        if list(ordered) != sorted(set(ordered)):
            raise ValueError(f"bucket bounds must be strictly increasing: {buckets}")
        self.labels = labels
        self.buckets = ordered
        self._lock = threading.Lock()
        self._counts = [0] * (len(ordered) + 1)  # +1 for +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        index = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def cumulative_counts(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ending with +Inf."""
        out: list[tuple[float, int]] = []
        running = 0
        with self._lock:
            for bound, n in zip(self.buckets, self._counts):
                running += n
                out.append((bound, running))
            out.append((float("inf"), running + self._counts[-1]))
        return out


class _NullInstrument:
    """No-op counter/gauge/histogram for a disabled registry."""

    __slots__ = ()
    labels: _LabelsKey = ()
    buckets: tuple[float, ...] = (1.0,)
    value = 0.0
    count = 0
    sum = 0.0

    def inc(self, n: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def cumulative_counts(self) -> list[tuple[float, int]]:
        return [(float("inf"), 0)]


_NULL_INSTRUMENT = _NullInstrument()

_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Get-or-create instrument store with JSON and Prometheus export."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        # name -> (type, help, buckets); (name, labels) -> instrument
        self._meta: dict[str, tuple[str, str, tuple[float, ...] | None]] = {}
        self._instruments: dict[tuple[str, _LabelsKey], Any] = {}

    # -- instrument factories ------------------------------------------------

    def counter(self, name: str, help_text: str = "", **labels: Any) -> Counter:
        return self._get(name, "counter", help_text, None, labels)

    def gauge(self, name: str, help_text: str = "", **labels: Any) -> Gauge:
        return self._get(name, "gauge", help_text, None, labels)

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] = LATENCY_BUCKETS,
        help_text: str = "",
        **labels: Any,
    ) -> Histogram:
        return self._get(name, "histogram", help_text, tuple(buckets), labels)

    def _get(self, name, kind, help_text, buckets, labels):
        if not self.enabled:
            return _NULL_INSTRUMENT
        key = (name, _labels_key(labels))
        with self._lock:
            meta = self._meta.get(name)
            if meta is None:
                self._meta[name] = (kind, help_text, buckets)
            elif meta[0] != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {meta[0]}, not {kind}"
                )
            elif help_text and not meta[1]:
                self._meta[name] = (kind, help_text, meta[2])
            instrument = self._instruments.get(key)
            if instrument is None:
                if kind == "histogram":
                    bounds = buckets or (self._meta[name][2] or LATENCY_BUCKETS)
                    instrument = Histogram(bounds, key[1])
                else:
                    instrument = _TYPES[kind](key[1])
                self._instruments[key] = instrument
        return instrument

    # -- reading -------------------------------------------------------------

    def collect(self) -> list[tuple[str, str, str, list[Any]]]:
        """``(name, kind, help, [instruments...])`` sorted by name/labels."""
        with self._lock:
            meta = dict(self._meta)
            instruments = dict(self._instruments)
        series: dict[str, list[Any]] = {name: [] for name in meta}
        for (name, _), instrument in sorted(instruments.items()):
            series[name].append(instrument)
        return [
            (name, kind, help_text, series[name])
            for name, (kind, help_text, _) in sorted(meta.items())
        ]

    def value(self, name: str, **labels: Any) -> float:
        """Current value of one counter/gauge (0.0 if never touched)."""
        instrument = self._instruments.get((name, _labels_key(labels)))
        return instrument.value if instrument is not None else 0.0

    def sample(self, name: str, **labels: Any) -> float | None:
        """Like :meth:`value`, but ``None`` when the sample does not exist —
        the distinction the alert engine's *absence* rules need.  Histograms
        have no single value and always return ``None``."""
        with self._lock:
            instrument = self._instruments.get((name, _labels_key(labels)))
        if instrument is None or isinstance(instrument, Histogram):
            return None
        return float(instrument.value)

    def has_metric(self, name: str) -> bool:
        """True when any sample of ``name`` exists, regardless of labels."""
        with self._lock:
            return any(key[0] == name for key in self._instruments)

    # -- export --------------------------------------------------------------

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for name, kind, _, instruments in self.collect():
            samples = []
            for instrument in instruments:
                labels = dict(instrument.labels)
                if kind == "histogram":
                    samples.append({
                        "labels": labels,
                        "count": instrument.count,
                        "sum": round(instrument.sum, 6),
                        "buckets": {
                            format_value(bound): n
                            for bound, n in instrument.cumulative_counts()
                        },
                    })
                else:
                    samples.append({"labels": labels, "value": instrument.value})
            out[name] = {"type": kind, "samples": samples}
        return out

    def to_json_text(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"

    def to_prometheus(self) -> str:
        """Render the Prometheus text exposition format."""
        lines: list[str] = []
        for name, kind, help_text, instruments in self.collect():
            if help_text:
                lines.append(f"# HELP {name} {escape_help(help_text)}")
            lines.append(f"# TYPE {name} {kind}")
            for instrument in instruments:
                base = dict(instrument.labels)
                if kind == "histogram":
                    for bound, cumulative in instrument.cumulative_counts():
                        lines.append(
                            f"{name}_bucket"
                            f"{render_labels({**base, 'le': format_value(bound)})}"
                            f" {cumulative}"
                        )
                    lines.append(
                        f"{name}_sum{render_labels(base)} "
                        f"{format_value(round(instrument.sum, 9))}"
                    )
                    lines.append(f"{name}_count{render_labels(base)} {instrument.count}")
                else:
                    lines.append(
                        f"{name}{render_labels(base)} {format_value(instrument.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")


def render_labels(labels: dict[str, str]) -> str:
    """``{key="value",...}`` with escaped values, or ``""`` for none."""
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{escape_label_value(str(value))}"'
        for key, value in labels.items()
    )
    return "{" + inner + "}"
