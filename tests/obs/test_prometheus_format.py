"""Strict Prometheus text-exposition conformance for the registry export.

A small but strict parser for the text format (format version 0.0.4):
comment ordering (HELP before TYPE before samples, one TYPE per family),
full label unescaping, histogram series shape (`_bucket`/`_sum`/`_count`
only, cumulative monotone buckets, a `+Inf` bucket equal to `_count`).
Both the in-process `to_prometheus()` string and the body actually
served on `/metrics` must pass.
"""

from __future__ import annotations

import re
import urllib.request

import pytest

from repro.obs import MetricsRegistry, Observability
from repro.obs.live import LiveOps

_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)$"
)


def _unescape_label_value(raw: str) -> str:
    out = []
    i = 0
    while i < len(raw):
        ch = raw[i]
        if ch == "\\":
            if i + 1 >= len(raw):
                raise AssertionError(f"dangling backslash in label value: {raw!r}")
            nxt = raw[i + 1]
            if nxt == "n":
                out.append("\n")
            elif nxt in ('"', "\\"):
                out.append(nxt)
            else:
                raise AssertionError(f"invalid escape \\{nxt} in label value: {raw!r}")
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _parse_labels(raw: str | None) -> dict[str, str]:
    if not raw:
        return {}
    labels: dict[str, str] = {}
    i = 0
    while i < len(raw):
        match = re.match(r'([a-zA-Z_][a-zA-Z0-9_]*)="', raw[i:])
        assert match, f"malformed label pair at ...{raw[i:]!r}"
        name = match.group(1)
        i += match.end()
        start = i
        while i < len(raw):
            if raw[i] == "\\":
                i += 2
            elif raw[i] == '"':
                break
            else:
                i += 1
        assert i < len(raw), f"unterminated label value in {raw!r}"
        labels[name] = _unescape_label_value(raw[start:i])
        i += 1  # closing quote
        if i < len(raw):
            assert raw[i] == ",", f"expected ',' between labels in {raw!r}"
            i += 1
    return labels


def _parse_value(raw: str) -> float:
    if raw == "+Inf":
        return float("inf")
    if raw == "-Inf":
        return float("-inf")
    return float(raw)  # raises on anything unparsable


def parse_exposition(text: str):
    """Parse and structurally validate an exposition body; returns
    ``{family: {"kind", "help", "samples": [(name, labels, value)]}}``."""
    assert text.endswith("\n"), "exposition must end with a line feed"
    families: dict[str, dict] = {}
    current: str | None = None
    for line in text.splitlines():
        assert line.strip(), "blank lines are not produced by the exporter"
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            assert name not in families, f"duplicate HELP for {name}"
            families[name] = {"kind": None, "help": help_text, "samples": []}
            current = name
        elif line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            assert kind in ("counter", "gauge", "histogram"), kind
            entry = families.setdefault(
                name, {"kind": None, "help": None, "samples": []}
            )
            assert entry["kind"] is None, f"second TYPE line for {name}"
            assert not entry["samples"], f"TYPE after samples for {name}"
            entry["kind"] = kind
            current = name
        else:
            match = _SAMPLE_RE.match(line)
            assert match, f"malformed sample line: {line!r}"
            sample_name, raw_labels, raw_value = match.groups()
            assert current is not None, f"sample before any TYPE: {line!r}"
            entry = families[current]
            assert entry["kind"] is not None, f"{current} has samples but no TYPE"
            if entry["kind"] == "histogram":
                assert sample_name in (
                    f"{current}_bucket", f"{current}_sum", f"{current}_count"
                ), f"{sample_name} not a series of histogram {current}"
            else:
                assert sample_name == current, (
                    f"sample {sample_name} under family {current}"
                )
            entry["samples"].append(
                (sample_name, _parse_labels(raw_labels), _parse_value(raw_value))
            )
    for name, entry in families.items():
        assert entry["kind"] is not None, f"{name} has HELP but no TYPE"
        _validate_histograms(name, entry)
    return families


def _validate_histograms(name: str, entry: dict) -> None:
    if entry["kind"] != "histogram":
        return
    series: dict[tuple, dict] = {}
    for sample_name, labels, value in entry["samples"]:
        key = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
        slot = series.setdefault(key, {"buckets": [], "sum": None, "count": None})
        if sample_name.endswith("_bucket"):
            assert "le" in labels, f"{name}_bucket without le label"
            slot["buckets"].append((labels["le"], value))
        elif sample_name.endswith("_sum"):
            slot["sum"] = value
        else:
            slot["count"] = value
    for key, slot in series.items():
        bounds = [_parse_value(le) for le, _ in slot["buckets"]]
        counts = [v for _, v in slot["buckets"]]
        assert bounds, f"{name}{dict(key)} has no buckets"
        assert bounds == sorted(bounds), f"{name} buckets out of order"
        assert bounds[-1] == float("inf"), f"{name} missing +Inf bucket"
        assert counts == sorted(counts), f"{name} buckets not cumulative"
        assert slot["sum"] is not None, f"{name} missing _sum"
        assert slot["count"] is not None, f"{name} missing _count"
        assert counts[-1] == slot["count"], f"{name} +Inf bucket != _count"


# ---------------------------------------------------------------------------


def awkward_registry() -> MetricsRegistry:
    """Every feature the format can exercise, including hostile labels."""
    registry = MetricsRegistry()
    registry.counter("daas_plain_total", help_text="No labels.").inc(3)
    registry.counter(
        "daas_labeled_total", help_text="Labels with every escape.",
        path='quote " backslash \\ newline \n done', kind="a,b={c}",
    ).inc()
    registry.gauge("daas_level", help_text="A gauge.", cache="overall").set(-0.25)
    hist = registry.histogram(
        "daas_lat_seconds", buckets=(0.1, 0.5, 2.5), help_text="A histogram."
    )
    for value in (0.05, 0.3, 0.3, 1.0, 7.0):
        hist.observe(value)
    registry.histogram("daas_lat_seconds", buckets=(0.1, 0.5, 2.5),
                       worker="w1").observe(0.2)
    return registry


def test_awkward_registry_round_trips():
    families = parse_exposition(awkward_registry().to_prometheus())
    assert families["daas_plain_total"]["kind"] == "counter"
    assert families["daas_plain_total"]["samples"] == [
        ("daas_plain_total", {}, 3.0)
    ]
    # label escaping round-trips through the parser
    _, labels, _ = families["daas_labeled_total"]["samples"][0]
    assert labels["path"] == 'quote " backslash \\ newline \n done'
    assert labels["kind"] == "a,b={c}"
    assert families["daas_level"]["samples"][0][2] == -0.25


def test_histogram_series_shape():
    families = parse_exposition(awkward_registry().to_prometheus())
    entry = families["daas_lat_seconds"]
    unlabeled = [
        (n, l, v) for n, l, v in entry["samples"] if l.get("worker") != "w1"
    ]
    buckets = {
        l["le"]: v for n, l, v in unlabeled if n == "daas_lat_seconds_bucket"
    }
    assert buckets == {"0.1": 1.0, "0.5": 3.0, "2.5": 4.0, "+Inf": 5.0}
    sums = [v for n, _, v in unlabeled if n == "daas_lat_seconds_sum"]
    assert sums == [pytest.approx(0.05 + 0.3 + 0.3 + 1.0 + 7.0)]
    # the labelled series is validated independently by the parser
    labeled = [l for n, l, _ in entry["samples"] if l.get("worker") == "w1"]
    assert labeled


def test_help_and_type_ordering_enforced_by_parser():
    """The parser itself is strict — a malformed body cannot pass."""
    with pytest.raises(AssertionError, match="second TYPE"):
        parse_exposition(
            "# TYPE daas_x counter\n# TYPE daas_x counter\ndaas_x 1\n"
        )
    with pytest.raises(AssertionError, match="no TYPE"):
        parse_exposition("# HELP daas_x h\ndaas_x 1\n")
    with pytest.raises(AssertionError, match="under family"):
        parse_exposition("# TYPE daas_y counter\ndaas_x 1\n")
    with pytest.raises(AssertionError, match="malformed sample"):
        parse_exposition("# TYPE daas_x counter\ndaas_x  1\n")
    with pytest.raises(ValueError):
        parse_exposition("# TYPE daas_x counter\ndaas_x one\n")


def test_real_pipeline_export_is_conformant(pipeline_obs):
    obs, engine = pipeline_obs
    engine.publish_metrics()
    families = parse_exposition(obs.metrics.to_prometheus())
    assert families["daas_stage_seconds_total"]["kind"] == "counter"
    assert families["daas_tx_classification_seconds"]["kind"] == "histogram"
    assert families["daas_cache_hit_ratio"]["kind"] == "gauge"
    # every family carries help text
    assert all(entry["help"] for entry in families.values())


def test_served_metrics_body_is_conformant():
    """The acceptance check: the body actually served over HTTP mid-run
    parses as valid Prometheus exposition."""
    obs = Observability(run_id="served")
    for name, kind, help_text in [
        ("daas_plain_total", "counter", "No labels."),
    ]:
        obs.metrics.counter(name, help_text=help_text).inc()
    hist = obs.metrics.histogram(
        "daas_lat_seconds", buckets=(0.1, 0.5), help_text="A histogram."
    )
    hist.observe(0.3)
    obs.metrics.gauge(
        "daas_hostile", help_text="Escaping over the wire.",
        path='a"b\\c\nd',
    ).set(1.0)
    with LiveOps(obs, serve_port=0) as live:
        obs.stage_started("seed")  # mid-run: a stage is open while scraping
        with urllib.request.urlopen(live.server.url + "/metrics", timeout=5.0) as rsp:
            assert rsp.headers["Content-Type"].startswith(
                "text/plain; version=0.0.4"
            )
            body = rsp.read().decode("utf-8")
    families = parse_exposition(body)
    assert families["daas_hostile"]["samples"][0][1]["path"] == 'a"b\\c\nd'
    assert families["daas_lat_seconds"]["kind"] == "histogram"
    assert families["daas_serve_requests_total"]["samples"]


@pytest.fixture(scope="module")
def pipeline_obs(world):
    from repro.api import build_dataset
    from repro.runtime import ExecutionEngine

    obs = Observability(run_id="conf")
    engine = ExecutionEngine(obs=obs)
    build_dataset(world, engine=engine)
    return obs, engine
