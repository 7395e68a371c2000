"""Tracer correctness: nesting, parent links, thread-safety, file I/O."""

from __future__ import annotations

import json
import threading

from repro.obs import NULL_SPAN, Observability, Tracer, load_trace


def test_span_nesting_parent_links():
    tracer = Tracer(run_id="t")
    with tracer.span("outer") as outer:
        with tracer.span("mid") as mid:
            with tracer.span("inner") as inner:
                assert inner.parent_id == mid.span_id
            assert mid.parent_id == outer.span_id
    with tracer.span("next") as after:
        assert after.parent_id is None  # the stack unwound

    spans = {s.name: s for s in tracer.finished}
    assert spans["inner"].parent_id == spans["mid"].span_id
    assert spans["mid"].parent_id == spans["outer"].span_id
    assert spans["outer"].parent_id is None
    # finish order: innermost first
    assert [s.name for s in tracer.finished] == ["inner", "mid", "outer", "next"]


def test_span_ids_unique_and_run_stamped():
    tracer = Tracer(run_id="runx")
    for _ in range(5):
        with tracer.span("s"):
            pass
    ids = [s.span_id for s in tracer.finished]
    assert len(set(ids)) == 5
    assert all(i.startswith("runx-") for i in ids)
    assert all(s.run_id == "runx" for s in tracer.finished)


def test_span_attrs_and_set():
    tracer = Tracer()
    with tracer.span("stage", round=3) as sp:
        sp.set(found=7)
    (span,) = tracer.finished
    assert span.attrs == {"round": 3, "found": 7}
    record = span.to_dict()
    assert record["attrs"] == {"round": 3, "found": 7}
    assert record["status"] == "ok"
    assert record["wall_s"] >= 0.0


def test_span_error_status_propagates():
    tracer = Tracer()
    try:
        with tracer.span("boom"):
            raise ValueError("nope")
    except ValueError:
        pass
    (span,) = tracer.finished
    assert span.status == "error"
    assert span.attrs["error"] == "ValueError"


def test_disabled_tracer_yields_null_span():
    tracer = Tracer()
    tracer.enabled = False
    with tracer.span("x") as sp:
        assert sp is NULL_SPAN
        sp.set(anything="goes")  # must be a no-op, not an error
    assert len(tracer) == 0


def test_concurrent_root_spans_do_not_corrupt_stacks():
    tracer = Tracer()
    errors: list[Exception] = []

    def worker(n: int) -> None:
        try:
            for i in range(50):
                with tracer.span(f"w{n}", i=i):
                    with tracer.span(f"w{n}.child"):
                        pass
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(tracer) == 6 * 50 * 2
    # each thread's roots have no parent (thread-local stacks are isolated)
    roots = [s for s in tracer.finished if "." not in s.name]
    assert all(s.parent_id is None for s in roots)


def test_max_spans_bound_counts_drops():
    tracer = Tracer(max_spans=3)
    for _ in range(5):
        with tracer.span("s"):
            pass
    assert len(tracer) == 3
    assert tracer.dropped == 2


def test_write_and_load_roundtrip(tmp_path):
    tracer = Tracer(run_id="io")
    with tracer.span("a", k="v"):
        with tracer.span("b"):
            pass
    path = tmp_path / "trace.jsonl"
    written = tracer.write(str(path))
    assert written == 2
    records = load_trace(str(path))
    assert [r["name"] for r in records] == ["b", "a"]
    for line in path.read_text().splitlines():
        json.loads(line)  # every line is standalone JSON


def test_observability_hub_shares_run_id(tmp_path):
    obs = Observability(run_id="hub")
    with obs.span("stage"):
        pass
    obs.event("done", n=1)
    assert obs.tracer.run_id == "hub"
    assert obs.log.events[-1]["run"] == "hub"
    assert obs.snapshot()["spans"] == 1

    disabled = Observability.disabled()
    with disabled.span("stage"):
        pass
    assert disabled.event("x") == {}
    assert len(disabled.tracer) == 0
