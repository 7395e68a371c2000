"""Fault tolerance for unreliable upstreams: retry, breaker, fault injection.

Every read the construction pipeline issues — node RPC calls, explorer
history lookups, website crawls — is, in a real deployment, a network
round-trip that fails transiently.  This module makes that failure mode
a first-class, *testable* subsystem instead of an accident of happy-path
code:

* :class:`RetryPolicy` — exponential backoff with **deterministic seeded
  jitter** (the delay for a given ``(upstream, method, key, attempt)``
  is a pure function of the policy seed, so a replayed run backs off
  identically) and an optional per-call wall-clock budget;
* :class:`CircuitBreaker` — per-upstream closed → open → half-open
  state machine: after ``failure_threshold`` consecutive failures the
  upstream is declared down and calls fail fast with
  :class:`CircuitOpenError` until ``reset_timeout_s`` passes, when one
  half-open trial call decides between closing and re-opening;
* :class:`ResilientFacade` — a transparent proxy that applies both to a
  configured set of read methods on any facade (RPC, explorer, crawler)
  while passing every other attribute straight through;
* :class:`FaultPlan` / :class:`FaultInjector` / :class:`FaultyFacade` —
  the fault-injection harness: probabilistic or scripted transient
  errors, latency spikes, and hard outages, keyed on a seeded RNG so a
  given plan injects *exactly* the same faults on every run (the
  probabilistic decision for a call is a pure function of
  ``(plan seed, upstream, method, key, per-key attempt index)``, so it
  is stable even under a parallel executor).

The cardinal rule extends to this layer: with faults injected and
retries enabled, the final dataset JSON is byte-identical to a clean
serial run (``tests/runtime/test_resilience.py``).  Retry, breaker, and
injection activity is reported through the :mod:`repro.obs` registry —
see the ``retry.*`` / ``breaker.*`` / ``fault.*`` entries in
``docs/observability.md`` and the operator guide in
``docs/reliability.md``.
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Iterable

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "CRAWLER_READ_METHODS",
    "CircuitBreaker",
    "CircuitOpenError",
    "EXPLORER_READ_METHODS",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "FaultyFacade",
    "ManualClock",
    "RPC_READ_METHODS",
    "ResilientFacade",
    "RetriesExhaustedError",
    "RetryPolicy",
    "TransientUpstreamError",
    "UpstreamError",
    "UpstreamOutageError",
    "UpstreamTimeoutError",
]

#: Read methods the resilience layer wraps, per upstream.  Mutating or
#: observability methods (``instrument``, ``publish_reads``, ``add_label``)
#: pass through untouched.
RPC_READ_METHODS = frozenset({
    "get_transaction", "get_transaction_receipt", "trace_transaction",
    "get_balance", "is_contract", "get_code_kind", "get_contract",
    "get_block", "block_number", "transaction_count",
})
EXPLORER_READ_METHODS = frozenset({
    "transactions_of", "first_seen", "last_seen", "get_label",
    "is_labeled_phishing", "labeled_phishing_addresses",
    "contract_creator", "contract_created_at", "contract_functions",
})
CRAWLER_READ_METHODS = frozenset({"fetch"})


# -- errors ------------------------------------------------------------------


class UpstreamError(Exception):
    """Base for every failure the resilience layer raises or retries."""


class TransientUpstreamError(UpstreamError):
    """A failure worth retrying: connection reset, 5xx, rate limit."""


class UpstreamTimeoutError(TransientUpstreamError):
    """A call exceeded the policy's per-call wall-clock budget."""


class UpstreamOutageError(TransientUpstreamError):
    """The upstream is hard-down (injected outage window)."""


class CircuitOpenError(UpstreamError):
    """Fail-fast rejection while the upstream's breaker is open."""


class RetriesExhaustedError(UpstreamError):
    """Every attempt the policy allowed failed; carries the last cause."""

    def __init__(self, upstream: str, method: str, attempts: int,
                 cause: Exception) -> None:
        super().__init__(
            f"{upstream}.{method} failed after {attempts} attempts: {cause}"
        )
        self.upstream = upstream
        self.method = method
        self.attempts = attempts
        self.cause = cause


#: Exception types the retry loop treats as transient.  Builtin
#: ``ConnectionError`` / ``TimeoutError`` are included so a real web3 /
#: requests backend slots in without a shim.
TRANSIENT_EXCEPTIONS = (TransientUpstreamError, ConnectionError, TimeoutError)


# -- clocks ------------------------------------------------------------------


class ManualClock:
    """A hand-advanced clock for deterministic latency/timeout tests.

    ``now()`` is the readable time; ``sleep()`` advances it, so injected
    latency spikes and retry backoff consume *simulated* seconds and a
    test run never actually waits.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = start
        self._lock = threading.Lock()

    def now(self) -> float:
        with self._lock:
            return self._now

    def advance(self, seconds: float) -> None:
        with self._lock:
            self._now += seconds

    # sleep() aliases advance() so the clock can serve as both the
    # time source and the sleeper of a policy or injector.
    def sleep(self, seconds: float) -> None:
        self.advance(seconds)

    def __call__(self) -> float:
        return self.now()


# -- retry policy ------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic seeded jitter.

    ``attempts`` counts total tries (1 = no retry).  The delay before
    retry *n* (0-based) is ``min(max_delay_s, base_delay_s *
    multiplier**n)`` scaled into ``[1 - jitter, 1]`` by a random draw
    that is a pure function of ``(seed, upstream, method, key, n)`` —
    no hidden RNG state, so two runs (or two threads) back off
    identically for the same call.
    """

    attempts: int = 3
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 5.0
    jitter: float = 0.5
    #: Per-call wall budget; a slower call counts as a transient timeout.
    timeout_s: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def delay(self, upstream: str, method: str, key: str, retry_index: int) -> float:
        base = min(self.max_delay_s, self.base_delay_s * self.multiplier ** retry_index)
        if self.jitter == 0.0:
            return base
        draw = random.Random(
            f"{self.seed}|{upstream}.{method}|{key}|{retry_index}"
        ).random()
        return base * (1.0 - self.jitter * draw)

    def with_seed(self, seed: int) -> "RetryPolicy":
        return replace(self, seed=seed)


# -- circuit breaker ---------------------------------------------------------

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"

_BREAKER_STATE_VALUE = {BREAKER_CLOSED: 0.0, BREAKER_HALF_OPEN: 1.0, BREAKER_OPEN: 2.0}


class CircuitBreaker:
    """Per-upstream closed → open → half-open state machine.

    ``failure_threshold`` *consecutive* failures open the circuit; while
    open, :meth:`before_call` fails fast with :class:`CircuitOpenError`.
    Runs of failures are counted per calling thread: a retry chain runs
    on one thread, and under a parallel executor the interleaved
    transient failures of concurrent chains are not one run.
    After ``reset_timeout_s`` (measured on the injectable monotonic
    ``clock``) the next call is admitted as a half-open trial: success
    closes the circuit, failure re-opens it for another timeout.
    """

    def __init__(
        self,
        upstream: str,
        failure_threshold: int = 5,
        reset_timeout_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        obs=None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        self.upstream = upstream
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self._clock = clock
        self._obs = obs
        self._lock = threading.RLock()
        self._state = BREAKER_CLOSED
        self._runs: dict[int, int] = {}  # thread ident -> failure run
        self._opened_at = 0.0
        self._half_open_inflight = False

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def _longest_run(self) -> int:
        return max(self._runs.values(), default=0)

    def before_call(self) -> None:
        """Admission check; raises :class:`CircuitOpenError` while open."""
        with self._lock:
            if self._state == BREAKER_OPEN:
                if self._clock() - self._opened_at >= self.reset_timeout_s:
                    self._transition(BREAKER_HALF_OPEN)
                    self._half_open_inflight = True
                    return
                self._count("daas_breaker_rejections_total")
                raise CircuitOpenError(
                    f"circuit for upstream {self.upstream!r} is open "
                    f"({self._longest_run()} consecutive failures)"
                )
            if self._state == BREAKER_HALF_OPEN and self._half_open_inflight:
                # Only one trial call probes a half-open circuit; others
                # are rejected until the trial settles.
                self._count("daas_breaker_rejections_total")
                raise CircuitOpenError(
                    f"circuit for upstream {self.upstream!r} is half-open "
                    "with a trial call in flight"
                )
            if self._state == BREAKER_HALF_OPEN:
                self._half_open_inflight = True

    def record_success(self) -> None:
        with self._lock:
            self._runs.pop(threading.get_ident(), None)
            self._half_open_inflight = False
            if self._state != BREAKER_CLOSED:
                self._runs.clear()
                self._transition(BREAKER_CLOSED)

    def record_failure(self) -> None:
        with self._lock:
            ident = threading.get_ident()
            run = self._runs[ident] = self._runs.get(ident, 0) + 1
            self._half_open_inflight = False
            if self._state == BREAKER_HALF_OPEN:
                self._opened_at = self._clock()
                self._transition(BREAKER_OPEN)
            elif (
                self._state == BREAKER_CLOSED
                and run >= self.failure_threshold
            ):
                self._opened_at = self._clock()
                self._transition(BREAKER_OPEN)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "upstream": self.upstream,
                "state": self._state,
                "consecutive_failures": self._longest_run(),
            }

    # -- reporting -----------------------------------------------------------

    def _count(self, name: str) -> None:
        if self._obs is not None:
            self._obs.metrics.counter(
                name,
                help_text="Calls rejected fail-fast by an open circuit breaker.",
                upstream=self.upstream,
            ).inc()

    def _transition(self, to: str) -> None:
        self._state = to
        if self._obs is None:
            return
        self._obs.metrics.counter(
            "daas_breaker_transitions_total",
            help_text="Circuit-breaker state transitions, by upstream and target state.",
            upstream=self.upstream, to=to,
        ).inc()
        self._obs.metrics.gauge(
            "daas_breaker_state",
            help_text="Breaker state per upstream: 0 closed, 1 half-open, 2 open.",
            upstream=self.upstream,
        ).set(_BREAKER_STATE_VALUE[to])
        if to == BREAKER_OPEN:
            self._obs.event(
                "breaker.open", level="warning", upstream=self.upstream,
                consecutive_failures=self._longest_run(),
            )
        elif to == BREAKER_HALF_OPEN:
            self._obs.event("breaker.half_open", level="debug", upstream=self.upstream)
        else:
            self._obs.event("breaker.closed", upstream=self.upstream)


# -- resilient facade --------------------------------------------------------


class ResilientFacade:
    """Retry + breaker proxy over one upstream facade.

    Wraps the methods named in ``methods``; every other attribute —
    properties, ``instrument``/``publish_reads``, label mutation — is
    delegated untouched, so the proxy can stand wherever the raw facade
    stood.  Semantic errors (e.g. ``TransactionNotFoundError``) are
    *not* retried; only :data:`TRANSIENT_EXCEPTIONS` are.
    """

    def __init__(
        self,
        inner,
        upstream: str,
        methods: Iterable[str],
        policy: RetryPolicy,
        breaker: CircuitBreaker | None = None,
        obs=None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._inner = inner
        self._upstream = upstream
        self._methods = frozenset(methods)
        self._policy = policy
        self._breaker = breaker
        self._obs = obs
        self._sleep = sleep
        self._clock = clock

    @property
    def breaker(self) -> CircuitBreaker | None:
        return self._breaker

    def __getattr__(self, name: str):
        attr = getattr(self._inner, name)
        if name not in self._methods or not callable(attr):
            return attr

        def guarded(*args: Any, **kwargs: Any):
            return self._call(name, attr, args, kwargs)

        # Cache the bound wrapper so hot-path reads skip __getattr__.
        object.__setattr__(self, name, guarded)
        return guarded

    # -- the retry loop ------------------------------------------------------

    def _call(self, method: str, fn: Callable, args: tuple, kwargs: dict):
        key = str(args[0]) if args else ""
        policy = self._policy
        last_error: Exception | None = None
        for attempt in range(policy.attempts):
            if self._breaker is not None:
                self._breaker.before_call()
            started = self._clock()
            try:
                result = fn(*args, **kwargs)
            except TRANSIENT_EXCEPTIONS as exc:
                last_error = exc
            else:
                if (
                    policy.timeout_s is not None
                    and self._clock() - started > policy.timeout_s
                ):
                    # The call returned, but past its budget — a real
                    # client would have hung up; count it as a timeout.
                    last_error = UpstreamTimeoutError(
                        f"{self._upstream}.{method} exceeded "
                        f"{policy.timeout_s:.3f}s budget"
                    )
                else:
                    if self._breaker is not None:
                        self._breaker.record_success()
                    return result
            if self._breaker is not None:
                self._breaker.record_failure()
            self._count_fault(method, last_error)
            if attempt + 1 >= policy.attempts:
                break
            delay = policy.delay(self._upstream, method, key, attempt)
            self._count_retry(method)
            if self._obs is not None:
                self._obs.event(
                    "retry.attempt", level="debug", upstream=self._upstream,
                    method=method, attempt=attempt + 1, delay_s=round(delay, 4),
                )
            self._sleep(delay)
        if self._obs is not None:
            self._obs.metrics.counter(
                "daas_retry_giveups_total",
                help_text="Calls that exhausted the retry budget.",
                upstream=self._upstream, method=method,
            ).inc()
            self._obs.event(
                "retry.giveup", level="warning", upstream=self._upstream,
                method=method, attempts=policy.attempts, error=str(last_error),
            )
        raise RetriesExhaustedError(
            self._upstream, method, policy.attempts, last_error
        ) from last_error

    def _count_retry(self, method: str) -> None:
        if self._obs is not None:
            self._obs.metrics.counter(
                "daas_retry_attempts_total",
                help_text="Retry attempts after a transient upstream failure.",
                upstream=self._upstream, method=method,
            ).inc()

    def _count_fault(self, method: str, error: Exception | None) -> None:
        if self._obs is not None:
            self._obs.metrics.counter(
                "daas_upstream_faults_total",
                help_text="Transient upstream failures observed by the retry layer.",
                upstream=self._upstream, method=method,
                kind=type(error).__name__,
            ).inc()


# -- fault injection ---------------------------------------------------------


@dataclass(frozen=True)
class FaultRule:
    """One injected failure mode, scoped to an upstream/method pair.

    ``kind``:

    * ``"error"``   — raise :class:`TransientUpstreamError`;
    * ``"latency"`` — sleep ``latency_s`` (advancing an injected clock
      in tests), then let the call proceed — with a policy
      ``timeout_s`` below the spike this surfaces as a timeout;
    * ``"outage"``  — raise :class:`UpstreamOutageError` for every call
      whose per-stream index falls in ``[start_call, end_call)``
      (``end_call=None`` = down forever — the kill-test hammer).

    Probabilistic rules (``rate``) draw per call from a RNG keyed on
    ``(plan seed, upstream, method, key, per-key attempt index)`` and
    never fail the same key more than ``max_consecutive`` times in a
    row, so a retry budget of ``max_consecutive + 1`` attempts is
    guaranteed to get through.  Scripted rules (``at_calls``) fire on
    exact per-stream call indices (1-based).
    """

    upstream: str
    method: str = "*"
    kind: str = "error"
    rate: float = 0.0
    at_calls: tuple[int, ...] = ()
    latency_s: float = 0.0
    max_consecutive: int = 2
    start_call: int | None = None
    end_call: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("error", "latency", "outage"):
            raise ValueError(f"unknown fault kind: {self.kind!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.max_consecutive < 1:
            raise ValueError(
                f"max_consecutive must be >= 1, got {self.max_consecutive}"
            )

    def applies_to(self, upstream: str, method: str) -> bool:
        return self.upstream in ("*", upstream) and self.method in ("*", method)

    def to_dict(self) -> dict:
        out: dict[str, Any] = {"upstream": self.upstream}
        defaults = FaultRule(upstream=self.upstream)
        for name in ("method", "kind", "rate", "latency_s", "max_consecutive",
                     "start_call", "end_call"):
            value = getattr(self, name)
            if value != getattr(defaults, name):
                out[name] = value
        if self.at_calls:
            out["at_calls"] = list(self.at_calls)
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultRule":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown fault-rule fields: {sorted(unknown)}")
        payload = dict(payload)
        if "at_calls" in payload:
            payload["at_calls"] = tuple(payload["at_calls"])
        return cls(**payload)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, replayable set of fault rules.

    The plan is pure data — :meth:`load` / :meth:`save` round-trip it as
    JSON so a drill can be committed next to the alert rules it
    exercises.  Two runs with the same plan (and the same call
    sequence) inject byte-for-byte the same faults.
    """

    seed: int = 0
    rules: tuple[FaultRule, ...] = ()

    def rules_for(self, upstream: str, method: str) -> tuple[FaultRule, ...]:
        return tuple(r for r in self.rules if r.applies_to(upstream, method))

    def to_dict(self) -> dict:
        return {"seed": self.seed, "rules": [r.to_dict() for r in self.rules]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        unknown = set(payload) - {"seed", "rules"}
        if unknown:
            raise ValueError(f"unknown fault-plan fields: {sorted(unknown)}")
        return cls(
            seed=int(payload.get("seed", 0)),
            rules=tuple(FaultRule.from_dict(r) for r in payload.get("rules", ())),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"fault plan is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ValueError("fault plan must be a JSON object")
        return cls.from_dict(payload)

    @classmethod
    def load(cls, path: str | Path) -> "FaultPlan":
        try:
            text = Path(path).read_text()
        except FileNotFoundError:
            raise ValueError(f"no such fault-plan file: {path}") from None
        return cls.from_json(text)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json())


class FaultInjector:
    """Evaluates a :class:`FaultPlan` for every intercepted call.

    Keeps one call counter per ``(upstream, method)`` stream (for
    scripted ``at_calls`` / outage windows) and per-key attempt and
    consecutive-failure counters (for probabilistic rules), all behind
    one lock.  The per-key counters are also per calling thread: a
    retry chain runs on one thread, and two threads fetching the same
    key must not reset each other's run of failures, or the
    ``max_consecutive`` guarantee breaks under a parallel executor.
    Injections are tallied in ``daas_faults_injected_total``.
    """

    def __init__(
        self,
        plan: FaultPlan,
        obs=None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.plan = plan
        self._obs = obs
        self._sleep = sleep
        self._lock = threading.Lock()
        self._stream_calls: dict[tuple[str, str], int] = {}
        self._key_attempts: dict[tuple[str, str, str, int], int] = {}
        self._key_consecutive: dict[tuple[str, str, str, int], int] = {}
        self.injected = 0

    def before_call(self, upstream: str, method: str, key: str) -> None:
        """Raise / delay according to the plan; no-op when no rule fires."""
        rules = self.plan.rules_for(upstream, method)
        if not rules:
            return
        with self._lock:
            stream = (upstream, method)
            call_index = self._stream_calls.get(stream, 0) + 1
            self._stream_calls[stream] = call_index
            key_id = (upstream, method, key, threading.get_ident())
            attempt = self._key_attempts.get(key_id, 0) + 1
            self._key_attempts[key_id] = attempt
            consecutive = self._key_consecutive.get(key_id, 0)

            fault: tuple[str, FaultRule] | None = None
            for rule in rules:
                if rule.kind == "outage":
                    start = rule.start_call if rule.start_call is not None else 1
                    if call_index >= start and (
                        rule.end_call is None or call_index < rule.end_call
                    ):
                        fault = ("outage", rule)
                        break
                elif call_index in rule.at_calls:
                    fault = (rule.kind, rule)
                    break
                elif rule.rate > 0.0 and consecutive < rule.max_consecutive:
                    draw = random.Random(
                        f"{self.plan.seed}|{upstream}.{method}|{key}|{attempt}"
                    ).random()
                    if draw < rule.rate:
                        fault = (rule.kind, rule)
                        break

            if fault is None or fault[0] == "latency":
                self._key_consecutive[key_id] = 0
            else:
                self._key_consecutive[key_id] = consecutive + 1
            if fault is not None:
                self.injected += 1
        if fault is None:
            return

        kind, rule = fault
        self._record(upstream, method, kind)
        if kind == "latency":
            self._sleep(rule.latency_s)
            return
        if kind == "outage":
            raise UpstreamOutageError(
                f"injected outage: {upstream}.{method} call #{call_index}"
            )
        raise TransientUpstreamError(
            f"injected transient error: {upstream}.{method}({key})"
        )

    def _record(self, upstream: str, method: str, kind: str) -> None:
        if self._obs is None:
            return
        self._obs.metrics.counter(
            "daas_faults_injected_total",
            help_text="Faults injected by the active fault plan.",
            upstream=upstream, method=method, kind=kind,
        ).inc()
        self._obs.event(
            "fault.injected", level="debug", upstream=upstream,
            method=method, kind=kind,
        )

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "injected": self.injected,
                "streams": {
                    f"{u}.{m}": n for (u, m), n in sorted(self._stream_calls.items())
                },
            }


class FaultyFacade:
    """Transparent proxy that consults a :class:`FaultInjector` before
    delegating each configured read method — the pluggable seam between
    the simulated RPC/explorer/crawler and the resilience layer above
    it (cache → retry → **faults** → upstream)."""

    def __init__(self, inner, upstream: str, methods: Iterable[str],
                 injector: FaultInjector) -> None:
        self._inner = inner
        self._upstream = upstream
        self._methods = frozenset(methods)
        self._injector = injector

    def __getattr__(self, name: str):
        attr = getattr(self._inner, name)
        if name not in self._methods or not callable(attr):
            return attr

        def faulted(*args: Any, **kwargs: Any):
            self._injector.before_call(
                self._upstream, name, str(args[0]) if args else ""
            )
            return attr(*args, **kwargs)

        object.__setattr__(self, name, faulted)
        return faulted
