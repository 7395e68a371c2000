"""Hierarchical trace spans for the measurement pipeline.

A :class:`Span` is one timed region of a run — a pipeline stage, a
snowball round, a single contract classification — with a parent link,
so a finished trace is a forest that mirrors the call structure.  The
:class:`Tracer` hands out spans as context managers::

    with tracer.span("snowball.round", round=3) as sp:
        ...
        sp.set(new_contracts=7)

Span nesting is tracked per *thread*: each thread owns its own stack,
so spans opened on another thread (``serve``'s reload thread, the
live-operations threads) start their own roots instead of hanging off
whatever the main thread has open.

Tracing never perturbs results: spans touch no RNG and no pipeline
state, and the writer appends to its own JSON-lines file (one object per
finished span; schema in ``docs/observability.md``).  A disabled tracer
yields the shared :data:`NULL_SPAN`, so call sites stay unconditional.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import IO, Any, Iterator

__all__ = ["NULL_SPAN", "Span", "Tracer", "load_trace"]


class Span:
    """One timed region; finished spans become one trace-file line."""

    __slots__ = (
        "name", "span_id", "parent_id", "run_id", "start_ts",
        "wall_s", "cpu_s", "status", "attrs", "_wall0", "_cpu0",
    )

    def __init__(
        self,
        name: str,
        span_id: str,
        parent_id: str | None,
        run_id: str,
        attrs: dict[str, Any],
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.run_id = run_id
        self.attrs = attrs
        self.status = "ok"
        self.start_ts = time.time()
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self._wall0 = time.perf_counter()
        self._cpu0 = time.thread_time()

    def set(self, **attrs: Any) -> "Span":
        """Attach (or overwrite) attributes mid-span."""
        self.attrs.update(attrs)
        return self

    def finish(self) -> None:
        self.wall_s = time.perf_counter() - self._wall0
        self.cpu_s = time.thread_time() - self._cpu0

    def to_dict(self) -> dict[str, Any]:
        record: dict[str, Any] = {
            "run": self.run_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "ts": round(self.start_ts, 6),
            "wall_s": round(self.wall_s, 6),
            "cpu_s": round(self.cpu_s, 6),
            "status": self.status,
        }
        if self.attrs:
            record["attrs"] = self.attrs
        return record


class _NullSpan:
    """Shared span stand-in a disabled tracer yields; every method no-ops."""

    __slots__ = ()
    name = ""
    span_id = None
    parent_id = None
    status = "ok"
    attrs: dict[str, Any] = {}

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def finish(self) -> None:
        pass


NULL_SPAN = _NullSpan()


class Tracer:
    """Produces spans and collects them, thread-safely, in finish order.

    ``max_spans`` bounds memory on very large runs: once reached, new
    spans are still timed and yielded (call sites keep working) but no
    longer retained, and ``dropped`` counts them.
    """

    def __init__(self, run_id: str = "run", max_spans: int = 250_000) -> None:
        self.run_id = run_id
        self.enabled = True
        self.max_spans = max_spans
        self.dropped = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._finished: list[Span] = []
        self._next = 0

    # -- recording ----------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span | _NullSpan]:
        if not self.enabled:
            yield NULL_SPAN
            return
        stack = self._stack()
        parent_id = stack[-1].span_id if stack else None
        with self._lock:
            self._next += 1
            span_id = f"{self.run_id}-{self._next:06d}"
        span = Span(name, span_id, parent_id, self.run_id, dict(attrs))
        stack.append(span)
        try:
            yield span
        except BaseException as exc:
            span.status = "error"
            span.attrs.setdefault("error", type(exc).__name__)
            raise
        finally:
            span.finish()
            stack.pop()
            with self._lock:
                if len(self._finished) < self.max_spans:
                    self._finished.append(span)
                else:
                    self.dropped += 1

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- reading / export ---------------------------------------------------

    @property
    def finished(self) -> list[Span]:
        with self._lock:
            return list(self._finished)

    def __len__(self) -> int:
        with self._lock:
            return len(self._finished)

    def to_dicts(self) -> list[dict[str, Any]]:
        return [span.to_dict() for span in self.finished]

    def write(self, path_or_file: str | IO[str]) -> int:
        """Write the trace as JSON lines; returns the span count written."""
        records = self.to_dicts()
        if hasattr(path_or_file, "write"):
            for record in records:
                path_or_file.write(json.dumps(record) + "\n")
        else:
            with open(path_or_file, "w") as handle:
                for record in records:
                    handle.write(json.dumps(record) + "\n")
        return len(records)


def load_trace(path: str) -> list[dict[str, Any]]:
    """Read a trace file back into span records (blank lines skipped).

    Raises :class:`ValueError` with a one-line message on a truncated or
    corrupt file (a line that is not valid JSON, e.g. a run killed
    mid-write), so tooling can report it instead of tracebacking.
    """
    records = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                raise ValueError(
                    f"truncated or corrupt trace file {path}: "
                    f"line {lineno} is not valid JSON"
                ) from None
            if not isinstance(record, dict):
                raise ValueError(
                    f"corrupt trace file {path}: line {lineno} is not a span object"
                )
            records.append(record)
    return records
