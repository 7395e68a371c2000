"""The fault-tolerance layer: retry determinism, breaker, fault injection.

The cardinal rule extends to this layer: with a fault plan injecting
transient errors on the chain upstreams and the retry layer enabled,
``build_dataset`` must produce byte-identical dataset JSON to a clean
serial run — and a replay with the same seed must retry the same calls
the same number of times.
"""

from __future__ import annotations

import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import build_dataset
from repro.obs import Observability
from repro.runtime import (
    CircuitBreaker,
    CircuitOpenError,
    ExecutionEngine,
    FaultInjector,
    FaultPlan,
    FaultRule,
    FaultyFacade,
    ManualClock,
    ResilientFacade,
    RetriesExhaustedError,
    RetryPolicy,
    TransientUpstreamError,
    UpstreamTimeoutError,
)
from repro.simulation import SimulationParams, build_world

NO_SLEEP = lambda seconds: None  # noqa: E731 - backoff without wall time


def metric_samples(obs: Observability, name: str) -> list[tuple[dict, float]]:
    """Every (labels, value) sample of one counter/gauge family."""
    for metric_name, _kind, _help, instruments in obs.metrics.collect():
        if metric_name == name:
            return [(dict(i.labels), i.value) for i in instruments]
    return []


@pytest.fixture(scope="module")
def small_world():
    return build_world(SimulationParams(scale=0.005, seed=7))


def drop_plan(seed: int = 11, rate: float = 0.15) -> FaultPlan:
    """Probabilistic transient errors on both chain upstreams."""
    return FaultPlan(seed=seed, rules=(
        FaultRule(upstream="rpc", rate=rate),
        FaultRule(upstream="explorer", rate=rate),
    ))


def resilient_engine(plan: FaultPlan | None, obs=None, **kwargs) -> ExecutionEngine:
    return ExecutionEngine(
        retry_policy=RetryPolicy(attempts=3, seed=5),
        fault_plan=plan,
        obs=obs,
        resilience_sleep=NO_SLEEP,
        **kwargs,
    )


class TestRetryPolicy:
    def test_delay_is_pure_function_of_identity(self):
        policy = RetryPolicy(seed=3)
        a = policy.delay("rpc", "get_transaction", "0xabc", 1)
        b = policy.delay("rpc", "get_transaction", "0xabc", 1)
        assert a == b
        assert policy.delay("rpc", "get_transaction", "0xabc", 2) != a
        assert policy.delay("explorer", "get_transaction", "0xabc", 1) != a

    def test_delay_bounded_by_backoff_and_jitter(self):
        policy = RetryPolicy(base_delay_s=0.1, multiplier=2.0, jitter=0.5, seed=1)
        for n in range(4):
            ceiling = 0.1 * 2.0 ** n
            d = policy.delay("rpc", "m", "k", n)
            assert ceiling * 0.5 <= d <= ceiling

    def test_delay_capped_at_max(self):
        policy = RetryPolicy(base_delay_s=1.0, multiplier=10.0, max_delay_s=2.0,
                             jitter=0.0)
        assert policy.delay("rpc", "m", "k", 5) == 2.0

    def test_rejects_bad_settings(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


class TestCircuitBreaker:
    def make(self, clock, threshold=3, reset=10.0):
        return CircuitBreaker("rpc", failure_threshold=threshold,
                              reset_timeout_s=reset, clock=clock,
                              obs=Observability(run_id="b"))

    def test_opens_after_consecutive_failures_and_fails_fast(self):
        clock = ManualClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.before_call()
            breaker.record_failure()
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            breaker.before_call()

    def test_failure_runs_are_counted_per_thread(self):
        """Concurrent retry chains interleave their transient failures;
        only one thread's own run of failures opens the circuit."""
        breaker = self.make(ManualClock())
        with ThreadPoolExecutor(max_workers=1) as other:
            for _ in range(2):
                breaker.record_failure()
                other.submit(breaker.record_failure).result()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"

    def test_half_open_trial_success_closes(self):
        clock = ManualClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        breaker.before_call()  # admitted as the half-open trial
        assert breaker.state == "half_open"
        breaker.record_success()
        assert breaker.state == "closed"
        breaker.before_call()  # closed again: calls flow

    def test_half_open_trial_failure_reopens(self):
        clock = ManualClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        breaker.before_call()
        breaker.record_failure()
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            breaker.before_call()
        # and it needs a fresh timeout before the next trial
        clock.advance(10.0)
        breaker.before_call()
        assert breaker.state == "half_open"

    def test_half_open_admits_single_trial(self):
        clock = ManualClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        breaker.before_call()
        with pytest.raises(CircuitOpenError):
            breaker.before_call()  # second caller rejected mid-trial

    def test_success_resets_failure_streak(self):
        breaker = self.make(ManualClock())
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_transition_metrics_recorded(self):
        obs = Observability(run_id="bm")
        clock = ManualClock()
        breaker = CircuitBreaker("rpc", failure_threshold=1, reset_timeout_s=1.0,
                                 clock=clock, obs=obs)
        breaker.record_failure()
        assert obs.metrics.value(
            "daas_breaker_transitions_total", upstream="rpc", to="open") == 1
        assert obs.metrics.value("daas_breaker_state", upstream="rpc") == 2.0
        with pytest.raises(CircuitOpenError):
            breaker.before_call()
        assert obs.metrics.value(
            "daas_breaker_rejections_total", upstream="rpc") == 1


class _Flaky:
    """Upstream that fails ``failures`` times per key, then answers."""

    def __init__(self, failures: int = 2) -> None:
        self.failures = failures
        self.calls: dict[str, int] = {}

    def get_transaction(self, tx_hash: str) -> str:
        n = self.calls.get(tx_hash, 0) + 1
        self.calls[tx_hash] = n
        if n <= self.failures:
            raise TransientUpstreamError(f"flaky #{n}")
        return f"tx:{tx_hash}"


class TestResilientFacade:
    def test_retries_transients_until_success(self):
        obs = Observability(run_id="rf")
        facade = ResilientFacade(
            _Flaky(failures=2), "rpc", {"get_transaction"},
            RetryPolicy(attempts=3), obs=obs, sleep=NO_SLEEP,
        )
        assert facade.get_transaction("0x1") == "tx:0x1"
        assert obs.metrics.value(
            "daas_retry_attempts_total", upstream="rpc",
            method="get_transaction") == 2

    def test_gives_up_after_budget_with_cause(self):
        obs = Observability(run_id="rg")
        facade = ResilientFacade(
            _Flaky(failures=5), "rpc", {"get_transaction"},
            RetryPolicy(attempts=3), obs=obs, sleep=NO_SLEEP,
        )
        with pytest.raises(RetriesExhaustedError) as err:
            facade.get_transaction("0x1")
        assert err.value.attempts == 3
        assert isinstance(err.value.cause, TransientUpstreamError)
        assert obs.metrics.value(
            "daas_retry_giveups_total", upstream="rpc",
            method="get_transaction") == 1

    def test_semantic_errors_not_retried(self):
        class Upstream:
            calls = 0

            def get_transaction(self, tx_hash):
                Upstream.calls += 1
                raise KeyError(tx_hash)

        facade = ResilientFacade(
            Upstream(), "rpc", {"get_transaction"}, RetryPolicy(attempts=3),
            sleep=NO_SLEEP,
        )
        with pytest.raises(KeyError):
            facade.get_transaction("0x1")
        assert Upstream.calls == 1

    def test_unwrapped_attributes_pass_through(self):
        flaky = _Flaky()
        facade = ResilientFacade(flaky, "rpc", set(), RetryPolicy())
        assert facade.calls is flaky.calls

    def test_slow_call_counts_as_timeout(self):
        clock = ManualClock()

        class Slow:
            def get_transaction(self, tx_hash):
                clock.advance(2.0)  # slower than the 1s budget
                return "late"

        facade = ResilientFacade(
            Slow(), "rpc", {"get_transaction"},
            RetryPolicy(attempts=2, timeout_s=1.0),
            sleep=clock.sleep, clock=clock,
        )
        with pytest.raises(RetriesExhaustedError) as err:
            facade.get_transaction("0x1")
        assert isinstance(err.value.cause, UpstreamTimeoutError)

    def test_breaker_opens_and_fails_fast_through_facade(self):
        clock = ManualClock()
        breaker = CircuitBreaker("rpc", failure_threshold=2,
                                 reset_timeout_s=30.0, clock=clock)
        facade = ResilientFacade(
            _Flaky(failures=99), "rpc", {"get_transaction"},
            RetryPolicy(attempts=2), breaker=breaker, sleep=NO_SLEEP,
            clock=clock,
        )
        with pytest.raises(RetriesExhaustedError):
            facade.get_transaction("0x1")
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            facade.get_transaction("0x2")


class TestFaultPlan:
    def test_json_round_trip(self, tmp_path):
        plan = drop_plan(seed=42, rate=0.25)
        path = tmp_path / "plan.json"
        plan.save(path)
        assert FaultPlan.load(path) == plan

    def test_load_missing_file_is_value_error(self, tmp_path):
        with pytest.raises(ValueError, match="no such fault-plan"):
            FaultPlan.load(tmp_path / "absent.json")

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown fault-rule"):
            FaultPlan.from_dict(
                {"rules": [{"upstream": "rpc", "bogus": 1}]}
            )
        with pytest.raises(ValueError, match="unknown fault-plan"):
            FaultPlan.from_dict({"seed": 1, "extra": True})

    def test_rule_validation(self):
        with pytest.raises(ValueError, match="kind"):
            FaultRule(upstream="rpc", kind="meteor")
        with pytest.raises(ValueError, match="rate"):
            FaultRule(upstream="rpc", rate=1.5)


class TestFaultInjector:
    def test_probabilistic_faults_replay_identically(self):
        keys = [f"0x{i:x}" for i in range(40)]

        def run():
            injector = FaultInjector(drop_plan(seed=3, rate=0.3))
            outcomes = []
            for key in keys:
                try:
                    injector.before_call("rpc", "get_transaction", key)
                    outcomes.append("ok")
                except TransientUpstreamError:
                    outcomes.append("fault")
            return outcomes

        first, second = run(), run()
        assert first == second
        assert "fault" in first and "ok" in first

    def test_max_consecutive_guarantees_eventual_success(self):
        injector = FaultInjector(FaultPlan(seed=0, rules=(
            FaultRule(upstream="rpc", rate=1.0, max_consecutive=2),
        )))
        failures = 0
        for _ in range(2):
            with pytest.raises(TransientUpstreamError):
                injector.before_call("rpc", "get_transaction", "0x1")
            failures += 1
        # third attempt for the same key must be allowed through
        injector.before_call("rpc", "get_transaction", "0x1")
        assert failures == 2

    def test_max_consecutive_holds_per_thread(self):
        """Two threads fetching one key each get through by their third
        attempt, however their calls interleave."""
        injector = FaultInjector(FaultPlan(seed=0, rules=(
            FaultRule(upstream="rpc", rate=1.0, max_consecutive=2),
        )))

        def attempt() -> str:
            try:
                injector.before_call("rpc", "get_transaction", "0x1")
            except TransientUpstreamError:
                return "fault"
            return "ok"

        with ThreadPoolExecutor(max_workers=1) as other:
            outcomes = [
                outcome
                for _ in range(3)
                for outcome in (attempt(), other.submit(attempt).result())
            ]
        assert outcomes == ["fault"] * 4 + ["ok"] * 2

    def test_scripted_at_calls_fire_on_exact_indices(self):
        injector = FaultInjector(FaultPlan(rules=(
            FaultRule(upstream="rpc", method="get_transaction", at_calls=(2,)),
        )))
        injector.before_call("rpc", "get_transaction", "a")
        with pytest.raises(TransientUpstreamError):
            injector.before_call("rpc", "get_transaction", "b")
        injector.before_call("rpc", "get_transaction", "c")

    def test_outage_window(self):
        injector = FaultInjector(FaultPlan(rules=(
            FaultRule(upstream="rpc", kind="outage", start_call=2, end_call=4),
        )))
        from repro.runtime import UpstreamOutageError

        injector.before_call("rpc", "get_transaction", "a")
        for _ in range(2):
            with pytest.raises(UpstreamOutageError):
                injector.before_call("rpc", "get_transaction", "a")
        injector.before_call("rpc", "get_transaction", "a")

    def test_latency_spike_advances_injected_clock(self):
        clock = ManualClock()
        injector = FaultInjector(
            FaultPlan(rules=(
                FaultRule(upstream="rpc", kind="latency", latency_s=2.5,
                          at_calls=(1,)),
            )),
            sleep=clock.sleep,
        )
        injector.before_call("rpc", "get_transaction", "a")
        assert clock.now() == 2.5

    def test_faulty_facade_counts_injections(self):
        obs = Observability(run_id="fi")
        injector = FaultInjector(
            FaultPlan(rules=(
                FaultRule(upstream="rpc", method="get_transaction", at_calls=(1,)),
            )),
            obs=obs,
        )
        facade = FaultyFacade(_Flaky(failures=0), "rpc", {"get_transaction"},
                              injector)
        with pytest.raises(TransientUpstreamError):
            facade.get_transaction("0x1")
        assert facade.get_transaction("0x2") == "tx:0x2"
        assert injector.snapshot()["injected"] == 1
        assert obs.metrics.value(
            "daas_faults_injected_total", upstream="rpc",
            method="get_transaction", kind="error") == 1


class TestFaultedBuildParity:
    """The acceptance gate: >=10% drop rate, byte-identical output."""

    def test_dataset_byte_identical_under_faults_and_retries(self, small_world):
        clean = build_dataset(small_world, engine=ExecutionEngine()).dataset

        obs = Observability(run_id="faulted")
        engine = resilient_engine(drop_plan(rate=0.15), obs=obs)
        faulted = build_dataset(small_world, engine=engine)

        assert faulted.dataset.to_json() == clean.to_json()
        # the run genuinely hit (and recovered from) injected faults
        assert engine.fault_injector.snapshot()["injected"] > 0
        attempts = sum(
            value for _, value in metric_samples(obs, "daas_retry_attempts_total")
        )
        assert attempts > 0

    def test_same_seed_same_plan_identical_retry_counts(self, small_world):
        def run():
            obs = Observability(run_id="replay")
            engine = resilient_engine(drop_plan(seed=13, rate=0.2), obs=obs)
            build = build_dataset(small_world, engine=engine)
            retries = {
                (labels["upstream"], labels["method"]): value
                for labels, value in metric_samples(
                    obs, "daas_retry_attempts_total"
                )
            }
            return build.dataset.to_json(), retries, \
                engine.fault_injector.snapshot()["injected"]

        first, second = run(), run()
        assert first == second
        assert first[2] > 0

    def test_permanent_outage_exhausts_retries(self, small_world):
        engine = resilient_engine(FaultPlan(rules=(
            FaultRule(upstream="explorer", kind="outage"),
        )))
        with pytest.raises(RetriesExhaustedError):
            build_dataset(small_world, engine=engine)

    def test_resilience_state_in_engine_snapshot(self, small_world):
        engine = resilient_engine(drop_plan(rate=0.15))
        build_dataset(small_world, engine=engine)
        snap = engine.snapshot()
        assert snap["retry"]["attempts"] == 3
        assert snap["retry"]["breakers"]["rpc"]["state"] == "closed"
        assert snap["faults"]["injected"] > 0


class TestMetricsEndpoint:
    def test_retry_and_fault_metrics_served(self, small_world):
        """Acceptance: resilience metrics appear on a live /metrics scrape."""
        from repro.obs.live import LiveOps

        obs = Observability(run_id="serve")
        engine = resilient_engine(drop_plan(rate=0.15), obs=obs)
        build_dataset(small_world, engine=engine)

        with LiveOps(obs, serve_port=0) as live:
            with urllib.request.urlopen(live.server.url + "/metrics",
                                        timeout=5.0) as r:
                body = r.read().decode()
        assert "daas_retry_attempts_total" in body
        assert "daas_upstream_faults_total" in body
        assert "daas_faults_injected_total" in body
