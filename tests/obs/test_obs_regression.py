"""The cardinal observability rule: tracing never perturbs results.

Byte-identical datasets with observability enabled, disabled, file-
exported, or fanned out over inline shards; plus the CLI acceptance
path: ``build-dataset --trace-out --metrics-out`` produces a parseable
nested trace and a Prometheus file while leaving the dataset unchanged.
"""

from __future__ import annotations

import json

from repro.api import build_dataset
from repro.cli import main
from repro.obs import Observability, load_trace
from repro.runtime import ExecutionEngine, ShardingRuntime


def test_pipeline_identical_with_obs_on_off(world):
    on = Observability(run_id="on")
    configs = {
        "obs-on": ExecutionEngine(obs=on),
        "obs-off": ExecutionEngine(obs=Observability.disabled()),
        "obs-on-sharded": ExecutionEngine(
            obs=Observability(run_id="p"),
            sharding=ShardingRuntime(shards=3, processes=1),
        ),
    }
    outputs = {}
    for name, engine in configs.items():
        build = build_dataset(world, engine=engine)
        outputs[name] = (
            build.dataset.to_json(),
            tuple(
                (s.iteration, s.new_contracts)
                for s in build.expansion_report.iterations
            ),
        )
    reference = outputs["obs-on"]
    assert all(out == reference for out in outputs.values())
    # and the enabled run actually observed things
    assert len(on.tracer) > 0
    assert on.metrics.value("daas_pipeline_events_total", event="contract_classifications") > 0


def test_trace_contains_nested_construction_spans(world):
    obs = Observability(run_id="t")
    build_dataset(world, engine=ExecutionEngine(obs=obs))
    spans = {s.name: s for s in obs.tracer.finished}
    assert {"seed", "snowball", "snowball.round", "analyze.contract"} <= set(spans)
    by_id = {s.span_id: s for s in obs.tracer.finished}
    # every snowball.round parents to the snowball stage span
    for span in obs.tracer.finished:
        if span.name == "snowball.round":
            assert by_id[span.parent_id].name == "snowball"
        if span.name == "engine.analyze_many":
            assert by_id[span.parent_id].name in ("seed", "snowball.round")


def test_events_and_stage_metrics_recorded(world):
    obs = Observability(run_id="e")
    engine = ExecutionEngine(obs=obs)
    build_dataset(world, engine=engine)
    events = {e["event"] for e in obs.log.events}
    assert {"seed.done", "snowball.done"} <= events
    assert obs.metrics.value("daas_stage_seconds_total", stage="seed") > 0
    engine.publish_metrics()  # read tallies flush at publish time
    assert obs.metrics.value(
        "daas_chain_reads_total", interface="explorer", method="transactions_of"
    ) > 0
    assert obs.metrics.value(
        "daas_chain_reads_total", interface="rpc", method="get_transaction"
    ) > 0


def test_cache_gauges_published(world):
    obs = Observability(run_id="g")
    engine = ExecutionEngine(obs=obs)
    build_dataset(world, engine=engine)
    engine.publish_metrics()
    assert obs.metrics.value("daas_cache_hit_ratio", cache="analyses") > 0
    overall = obs.metrics.value("daas_cache_hit_ratio", cache="overall")
    assert overall == round(engine.cache_hit_rate(), 10) or abs(
        overall - engine.cache_hit_rate()
    ) < 1e-12
    text = obs.metrics.to_prometheus()
    assert 'daas_cache_hit_ratio{cache="analyses"}' in text
    assert "daas_cache_hit_ratio_bucketed_bucket" in text


def test_cli_acceptance_flags(tmp_path, capsys):
    """The ISSUE acceptance path, at test scale."""
    common = ["build-dataset", "--scale", "0.02", "--seed", "1234"]
    plain = tmp_path / "plain.json"
    flagged = tmp_path / "flagged.json"
    trace = tmp_path / "t.jsonl"
    metrics = tmp_path / "m.prom"

    assert main(common + ["--out", str(plain)]) == 0
    assert main(
        common + [
            "--out", str(flagged),
            "--trace-out", str(trace), "--metrics-out", str(metrics),
        ]
    ) == 0
    capsys.readouterr()

    # dataset byte-identical with and without the observability flags
    assert plain.read_bytes() == flagged.read_bytes()

    # trace: parseable JSONL with nested seed/snowball/round spans
    records = load_trace(str(trace))
    assert records, "trace file is empty"
    names = {r["name"] for r in records}
    assert {"seed", "snowball", "snowball.round"} <= names
    by_id = {r["span"]: r for r in records}
    rounds = [r for r in records if r["name"] == "snowball.round"]
    assert rounds and all(by_id[r["parent"]]["name"] == "snowball" for r in rounds)

    # metrics: Prometheus text with cache hit-ratio gauges
    text = metrics.read_text()
    assert "# TYPE daas_cache_hit_ratio gauge" in text
    assert 'daas_cache_hit_ratio{cache="analyses"}' in text

    # trace-summary renders a table over the produced file
    assert main(["trace-summary", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "stage" in out and "snowball.round" in out


def test_log_json_flag_streams_events(tmp_path, capsys, monkeypatch):
    import io
    import sys as _sys

    err = io.StringIO()
    monkeypatch.setattr(_sys, "stderr", err)
    assert main([
        "build-dataset", "--scale", "0.02", "--seed", "1234", "--log-json",
    ]) == 0
    capsys.readouterr()
    lines = [l for l in err.getvalue().splitlines() if l.strip()]
    assert lines, "--log-json produced no events"
    events = [json.loads(line) for line in lines]
    assert any(e["event"] == "seed.done" for e in events)
    assert all("run" in e and "ts" in e for e in events)
