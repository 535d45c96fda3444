"""Tests for the fault-tolerant serving front-end.

The invariant under test everywhere here is **no silent drops**: whatever
fails — a replica, a deadline, admission, a drain — every request resolves
to exactly one explicit outcome (result, ``RequestShed``,
``DeadlineExceeded``), and the metrics account for each.
"""

import threading
import time

import numpy as np
import pytest

from repro.serve import (
    DeadlineExceeded,
    FrontendClient,
    FrontendConfig,
    MicroBatcher,
    ReplicaSupervisor,
    RequestShed,
    ServeConfig,
    ServeFrontend,
    ServeMetrics,
)
from repro.serve.errors import ReplicaUnavailable, ServeError
from repro.serve.faults import (
    FaultSchedule,
    FaultyEngine,
    InjectedFault,
    flaky_factory,
    flood,
)

X = np.ones((3, 3), dtype=np.float32)


def _sum_engine():
    def predict(batch):
        return np.asarray([int(sample.sum()) % 10 for sample in batch])
    return predict


class _GatedEngine:
    """Engine whose calls block until released (drain/abandon tests)."""

    def __init__(self):
        self.release = threading.Event()
        self.calls = 0

    def predict(self, batch):
        self.calls += 1
        assert self.release.wait(timeout=5.0), "gated engine never released"
        return np.asarray([int(sample.sum()) % 10 for sample in batch])


# --------------------------------------------------------------------------- #
# outcome exceptions
# --------------------------------------------------------------------------- #
class TestErrors:
    def test_hierarchy(self):
        for exc in (RequestShed, DeadlineExceeded, ReplicaUnavailable):
            assert issubclass(exc, ServeError)
        assert issubclass(ServeError, RuntimeError)

    def test_shed_carries_backoff_hint(self):
        shed = RequestShed(retry_after_ms=37.5, reason="queue_full")
        assert shed.retry_after_ms == 37.5
        assert shed.reason == "queue_full"
        assert "37.5" in str(shed)

    def test_deadline_carries_budget(self):
        error = DeadlineExceeded("late", deadline_ms=250.0)
        assert error.deadline_ms == 250.0


# --------------------------------------------------------------------------- #
# config
# --------------------------------------------------------------------------- #
class TestFrontendConfig:
    def test_defaults_and_derived_seconds(self):
        config = FrontendConfig()
        assert config.config_type == "frontend"
        assert config.port == 0
        assert config.num_replicas == 1
        assert config.restart_backoff_s == config.restart_backoff_ms / 1e3
        assert config.health_interval_s == config.health_interval_ms / 1e3
        assert config.default_deadline_s == config.default_deadline_ms / 1e3
        # The front-end bounds its intake by default (a server that never
        # sheds cannot promise bounded latency).
        assert config.max_queue_depth > 0

    @pytest.mark.parametrize("kwargs", [
        {"num_replicas": 0},
        {"port": -1},
        {"port": 70000},
        {"default_deadline_ms": 0.0},
        {"restart_backoff_ms": 0.0},
        {"restart_backoff_max_ms": 1.0, "restart_backoff_ms": 2.0},
        {"health_interval_ms": 0.0},
        {"drain_timeout_s": -1.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FrontendConfig(**kwargs)

    def test_as_dict_includes_both_halves(self):
        payload = FrontendConfig(num_replicas=3, max_batch_size=8).as_dict()
        assert payload["num_replicas"] == 3
        assert payload["max_batch_size"] == 8

    def test_serve_config_admission_knobs(self):
        # Admission is the front-end's alone: the batcher config has none.
        config = FrontendConfig(max_queue_depth=4, shed_retry_base_ms=1.0,
                                shed_retry_cap_ms=10.0)
        assert config.max_queue_depth == 4
        assert not hasattr(ServeConfig(), "max_queue_depth")
        with pytest.raises(ValueError):
            FrontendConfig(max_queue_depth=0)
        with pytest.raises(ValueError):
            FrontendConfig(shed_retry_base_ms=50.0, shed_retry_cap_ms=10.0)


# --------------------------------------------------------------------------- #
# batcher: deadlines, admission, drain
# --------------------------------------------------------------------------- #
class TestBatcherDeadlines:
    def test_predict_timeout_is_deadline_exceeded(self):
        engine = _GatedEngine()
        with MicroBatcher(engine, ServeConfig(max_wait_ms=0.5)) as batcher:
            with pytest.raises(DeadlineExceeded):
                batcher.predict(X, timeout=0.05)
            assert batcher.metrics.snapshot()["deadline_exceeded_requests"] == 1
            engine.release.set()

    def test_timeout_releases_dedup_slot(self):
        # The historical bug: a timed-out predict left its request queued
        # and holding the pending slot, so the next identical sample
        # coalesced onto a future nobody would resolve.
        engine = _GatedEngine()
        config = ServeConfig(max_wait_ms=0.5, dedup_inflight=True,
                             cache_capacity=0)
        with MicroBatcher(engine, config) as batcher:
            with pytest.raises(DeadlineExceeded):
                batcher.predict(X, timeout=0.05)
            with batcher._pending_lock:
                assert not batcher._pending, "abandoned slot still held"
            engine.release.set()
            # A fresh identical submission must resolve, not hang.
            assert batcher.predict(X, timeout=5.0) == int(X.sum()) % 10
        assert batcher.inflight == 0

    def test_expired_queue_entry_skips_engine(self):
        engine = _GatedEngine()
        with MicroBatcher(engine, ServeConfig(max_wait_ms=0.5)) as batcher:
            first = batcher.submit(X)  # occupies the (gated) engine
            time.sleep(0.02)  # let the worker pick it up
            expired = batcher.submit(
                X * 2, deadline_s=time.perf_counter() - 0.001
            )
            engine.release.set()
            assert int(first.result(timeout=5.0)) == int(X.sum()) % 10
            with pytest.raises(DeadlineExceeded):
                expired.result(timeout=5.0)
        # The expired entry was triaged out, never served.
        assert engine.calls == 1

    def test_dedup_rider_of_abandoned_leader_gets_deadline(self):
        engine = _GatedEngine()
        config = ServeConfig(max_wait_ms=0.5, dedup_inflight=True,
                             cache_capacity=0)
        with MicroBatcher(engine, config) as batcher:
            blocker = batcher.submit(X)  # gated in the engine
            time.sleep(0.02)
            leader_future, leader = batcher._submit(X * 3)
            rider_future, rider = batcher._submit(X * 3)
            assert rider is None, "second identical key must coalesce"
            assert rider_future is leader_future
            batcher._abandon(leader)
            with pytest.raises(DeadlineExceeded):
                batcher.predict(X * 3, timeout=0.0)  # pre-cancelled future
            engine.release.set()
            blocker.result(timeout=5.0)


class TestBatcherAdmission:
    def test_zero_depth_disables_shedding(self):
        # The batcher has no admission bound: the front-end's
        # max_queue_depth is the only one on the serving path.
        with MicroBatcher(_sum_engine(),
                          ServeConfig(max_wait_ms=0.5)) as batcher:
            outcomes = flood(batcher.submit, X, 64)
            assert not any(isinstance(o, Exception) for o in outcomes)
            for future in outcomes:
                future.result(timeout=5.0)

    def test_retry_after_tracks_queue_pressure(self):
        metrics = ServeMetrics()
        idle = metrics.retry_after_ms(base_ms=5.0, per_depth_ms=2.0,
                                      cap_ms=100.0)
        for _ in range(64):
            metrics.record_enqueue(50)
        busy = metrics.retry_after_ms(base_ms=5.0, per_depth_ms=2.0,
                                      cap_ms=100.0)
        assert idle == 5.0
        assert busy > idle
        assert busy <= 100.0


class TestBatcherDrain:
    def test_drain_flushes_then_sheds(self):
        engine = _GatedEngine()
        with MicroBatcher(engine, ServeConfig(max_wait_ms=0.5)) as batcher:
            future = batcher.submit(X)
            time.sleep(0.02)
            done = threading.Event()
            result = {}

            def drainer():
                result["ok"] = batcher.drain(timeout=5.0)
                done.set()

            threading.Thread(target=drainer, daemon=True).start()
            time.sleep(0.05)
            # Intake is closed while the in-flight request finishes.
            with pytest.raises(RequestShed) as info:
                batcher.submit(X * 2)
            assert info.value.reason == "draining"
            engine.release.set()
            assert done.wait(timeout=5.0)
            assert result["ok"] is True
            assert future.done()
            assert batcher.inflight == 0
        # stop() reopened intake for a later start().
        assert not batcher.draining

    def test_stop_with_drain_is_idempotent(self):
        batcher = MicroBatcher(_sum_engine(), ServeConfig()).start()
        assert batcher.predict(X) == int(X.sum()) % 10
        batcher.stop(drain=True)
        batcher.stop(drain=True)
        assert not batcher.draining


# --------------------------------------------------------------------------- #
# fault harness
# --------------------------------------------------------------------------- #
class TestFaults:
    def test_schedule_is_deterministic(self):
        schedule = FaultSchedule(fail_calls=[1], stall_calls={0: 0.25},
                                 fail_after=5)
        assert schedule.stall_s(0) == 0.25 and schedule.stall_s(1) == 0.0
        assert not schedule.should_fail(0)
        assert schedule.should_fail(1)
        assert not schedule.should_fail(4)
        assert schedule.should_fail(5) and schedule.should_fail(99)

    def test_faulty_engine_applies_schedule(self):
        stalls = []
        engine = FaultyEngine(_sum_engine(),
                              FaultSchedule(fail_calls=[1],
                                            stall_calls={0: 0.5}),
                              stall_sleep=stalls.append)
        assert int(engine.predict(X[None])[0]) == int(X.sum()) % 10
        assert stalls == [0.5]
        with pytest.raises(InjectedFault):
            engine.predict(X[None])
        assert engine.calls == 2
        engine.close()
        assert engine.closed

    def test_faulty_engine_proxies_attributes(self):
        class Base:
            input_shape = (3, 3)
            version = "v7"

            def predict(self, batch):
                return np.zeros(len(batch), dtype=np.int64)

        engine = FaultyEngine(Base())
        assert engine.input_shape == (3, 3)
        assert engine.version == "v7"

    def test_flaky_factory_heals_after_n_builds(self):
        factory = flaky_factory(_sum_engine, fail_first=2)
        broken = factory()
        with pytest.raises(InjectedFault):
            broken.predict(X[None])
        factory()  # second broken build
        healthy = factory()
        assert int(healthy(X[None])[0]) == int(X.sum()) % 10
        assert factory.builds[0] == 3


# --------------------------------------------------------------------------- #
# supervisor
# --------------------------------------------------------------------------- #
def _supervisor_config(**overrides):
    base = dict(num_replicas=2, max_wait_ms=0.5,
                restart_backoff_ms=5.0, restart_backoff_max_ms=50.0,
                health_interval_ms=5.0)
    base.update(overrides)
    return FrontendConfig(**base)


class TestSupervisor:
    def test_routes_round_robin_and_serves(self):
        supervisor = ReplicaSupervisor(_sum_engine, _supervisor_config())
        with supervisor:
            labels = {supervisor.predict(X * k) for k in range(1, 4)}
            assert labels == {(9 * k) % 10 for k in range(1, 4)}
            assert supervisor.healthy_replicas == 2

    def test_failover_marks_replica_and_recovers(self):
        build_count = [0]

        def factory():
            build_count[0] += 1
            if build_count[0] == 1:  # replica 0's first engine
                return FaultyEngine(_sum_engine(),
                                    FaultSchedule(fail_calls=[0]))
            return _sum_engine()

        supervisor = ReplicaSupervisor(factory, _supervisor_config())
        with supervisor:
            # First request hits replica 0, fails, retries on replica 1 —
            # the caller sees the result, never the injected fault.
            assert supervisor.predict(X) == int(X.sum()) % 10
            deadline = time.perf_counter() + 5.0
            while (supervisor.healthy_replicas < 2
                   and time.perf_counter() < deadline):
                time.sleep(0.005)
            assert supervisor.healthy_replicas == 2
            assert supervisor.restarts == 1
            assert supervisor.predict(X) == int(X.sum()) % 10

    def test_restart_backoff_is_capped_exponential(self):
        # Every build fails: the supervisor keeps restarting with doubling
        # (capped) backoff and the replica stays failed/restarting.  The
        # base engine declares input_shape so the post-restart health probe
        # runs a real forward pass and catches the still-broken engine.
        class _Shaped:
            input_shape = (3, 3)

            def predict(self, batch):
                return np.asarray(
                    [int(sample.sum()) % 10 for sample in batch])

        factory = flaky_factory(_Shaped, fail_first=10 ** 6)
        config = _supervisor_config(num_replicas=1)
        supervisor = ReplicaSupervisor(factory, config)
        with supervisor:
            future = supervisor.submit(X)
            # The lone replica fails and no other can serve: the explicit
            # outcome is ReplicaUnavailable, never a hang.
            with pytest.raises(ReplicaUnavailable):
                future.result(timeout=5.0)
            time.sleep(0.2)
            replica = supervisor._replicas[0]
            assert replica.state in ("failed", "restarting")
            assert replica.fail_count >= 2
            backoff_cap = config.restart_backoff_max_s
            assert (replica.next_restart_at - time.perf_counter()
                    <= backoff_cap + 0.1)
        assert supervisor.replica_states() == ["stopped"]

    def test_all_replicas_down_is_explicit(self):
        factory = flaky_factory(_sum_engine, fail_first=10 ** 6)
        supervisor = ReplicaSupervisor(
            factory, _supervisor_config(num_replicas=2,
                                        restart_backoff_ms=5000.0,
                                        restart_backoff_max_ms=10000.0))
        with supervisor:
            # Both replicas fail while serving this request; the caller
            # still gets an explicit outcome.
            with pytest.raises(ReplicaUnavailable):
                supervisor.submit(X).result(timeout=5.0)
            deadline = time.perf_counter() + 5.0
            while (supervisor.healthy_replicas > 0
                   and time.perf_counter() < deadline):
                time.sleep(0.005)
            future = supervisor.submit(X)
            with pytest.raises((ReplicaUnavailable, RequestShed)):
                future.result(timeout=5.0)

    def test_deadline_survives_failover_budget_check(self):
        factory = flaky_factory(_sum_engine, fail_first=1)
        supervisor = ReplicaSupervisor(
            factory, _supervisor_config(num_replicas=1))
        with supervisor:
            # Deadline already spent: the failover path must answer
            # DeadlineExceeded, not retry forever.
            future = supervisor.submit(
                X, deadline_s=time.perf_counter() - 0.01
            )
            with pytest.raises(DeadlineExceeded):
                future.result(timeout=5.0)

    def test_stop_is_idempotent(self):
        supervisor = ReplicaSupervisor(
            _sum_engine, _supervisor_config(num_replicas=1))
        supervisor.start()
        supervisor.stop()
        supervisor.stop()
        assert supervisor.replica_states() == ["stopped"]


# --------------------------------------------------------------------------- #
# front-end (wire)
# --------------------------------------------------------------------------- #
def _frontend(factory, **overrides):
    base = dict(num_replicas=1, max_wait_ms=0.5, port=0,
                restart_backoff_ms=5.0, health_interval_ms=5.0,
                default_deadline_ms=5000.0)
    base.update(overrides)
    return ServeFrontend(factory, FrontendConfig(**base))


class TestFrontendWire:
    def test_predict_round_trip(self):
        with _frontend(_sum_engine) as frontend:
            with FrontendClient(*frontend.address) as client:
                assert client.predict(X) == int(X.sum()) % 10
                assert client.predict(X * 2) == (2 * int(X.sum())) % 10
                pong = client.ping()
                assert pong["pong"] is True and pong["draining"] is False

    def test_metrics_endpoint_reports_traffic(self):
        with _frontend(_sum_engine) as frontend:
            with FrontendClient(*frontend.address) as client:
                client.predict(X)
                view = client.server_metrics()
                assert view["metrics"]["requests"] == 1
                assert view["replicas"] == ["healthy"]
                assert view["restarts"] == 0

    def test_unknown_kind_and_bad_payload_are_errors(self):
        with _frontend(_sum_engine) as frontend:
            with FrontendClient(*frontend.address) as client:
                response = client._roundtrip({"kind": "nope"})
                assert response["status"] == "error"
                # Payload length that disagrees with the declared shape.
                response = client._roundtrip(
                    {"kind": "predict", "shape": [9, 9],
                     "dtype": "float32"}, b"\x00" * 8)
                assert response["status"] == "error"
                assert "tensor" in response["error"]
                # The connection survives errors.
                assert client.predict(X) == int(X.sum()) % 10

    def test_deadline_exceeded_on_slow_replica(self):
        def slow_factory():
            return FaultyEngine(_sum_engine(),
                                FaultSchedule(stall_calls={0: 0.5}))
        with _frontend(slow_factory) as frontend:
            with FrontendClient(*frontend.address) as client:
                with pytest.raises(DeadlineExceeded):
                    client.predict(X, deadline_ms=50.0)
                # The stalled call resolves server-side; later calls serve.
                assert client.predict(X, deadline_ms=5000.0) \
                    == int(X.sum()) % 10
                snap = client.server_metrics()["metrics"]
                assert snap["deadline_exceeded_requests"] >= 1

    def test_saturation_sheds_with_backoff_hint(self):
        def stalled_factory():
            return FaultyEngine(
                _sum_engine(),
                FaultSchedule(stall_calls={i: 0.3 for i in range(64)}),
            )
        with _frontend(stalled_factory, max_queue_depth=2) as frontend:
            outcomes = []

            def one_request():
                with FrontendClient(*frontend.address) as client:
                    try:
                        outcomes.append(
                            ("ok", client.predict(X, deadline_ms=5000.0)))
                    except RequestShed as shed:
                        outcomes.append(("shed", shed.retry_after_ms))

            threads = [threading.Thread(target=one_request)
                       for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10.0)
            # No silent drops: all eight requests have explicit outcomes.
            assert len(outcomes) == 8
            kinds = [kind for kind, _ in outcomes]
            assert kinds.count("shed") >= 1
            assert kinds.count("ok") >= 1
            # Each shed is counted once and carries the front-end's hint.
            snapshot = frontend.metrics.snapshot()
            assert snapshot["shed_requests"] == kinds.count("shed")
            assert all(hint >= frontend.config.shed_retry_base_ms
                       for kind, hint in outcomes if kind == "shed")

    def test_draining_replica_shed_is_counted_once_with_hint(self):
        # A replica batcher that refuses work while draining hands its
        # shed back through the supervisor; the front-end alone counts it
        # and attaches the backoff hint.
        with _frontend(_sum_engine, shed_retry_base_ms=7.0) as frontend:
            (replica,) = frontend.supervisor._replicas
            replica.batcher.drain(timeout=0.0)
            with FrontendClient(*frontend.address) as client:
                with pytest.raises(RequestShed) as info:
                    client.predict(X)
            assert info.value.reason == "draining"
            assert info.value.retry_after_ms >= 7.0
            assert frontend.metrics.snapshot()["shed_requests"] == 1

    def test_drain_stops_intake_and_flushes(self):
        with _frontend(_sum_engine) as frontend:
            client = FrontendClient(*frontend.address)
            assert client.predict(X) == int(X.sum()) % 10
            frontend.drain()
            with pytest.raises((RequestShed, ConnectionError,
                                RuntimeError)) as info:
                client.predict(X)
            if isinstance(info.value, RequestShed):
                assert info.value.reason == "draining"
            client.close()
            assert frontend.inflight == 0

    def test_close_is_idempotent_and_reentrant(self):
        frontend = _frontend(_sum_engine).start()
        with FrontendClient(*frontend.address) as client:
            client.predict(X)
        frontend.close()
        frontend.close()
        with pytest.raises(RuntimeError):
            frontend.start()  # a closed front-end stays closed

    def test_replica_crash_is_invisible_to_client(self):
        builds = [0]

        def factory():
            builds[0] += 1
            if builds[0] == 1:
                return FaultyEngine(_sum_engine(),
                                    FaultSchedule(fail_calls=[1]))
            return _sum_engine()

        with _frontend(factory, num_replicas=2) as frontend:
            with FrontendClient(*frontend.address) as client:
                for k in range(1, 7):
                    assert client.predict(X * k) == (9 * k) % 10
                deadline = time.perf_counter() + 5.0
                while (frontend.supervisor.healthy_replicas < 2
                       and time.perf_counter() < deadline):
                    time.sleep(0.005)
                assert frontend.supervisor.healthy_replicas == 2

    def test_client_retry_honours_server_backoff(self):
        sleeps = []

        def fake_sleep(seconds):
            sleeps.append(seconds)

        def stalled_factory():
            return FaultyEngine(
                _sum_engine(),
                FaultSchedule(stall_calls={i: 0.25 for i in range(64)}),
            )
        with _frontend(stalled_factory, max_queue_depth=1) as frontend:
            hold = FrontendClient(*frontend.address)
            retrier = FrontendClient(*frontend.address, seed=7)
            try:
                # Saturate the single admission slot...
                blocker = threading.Thread(
                    target=lambda: hold.predict(X, deadline_ms=5000.0))
                blocker.start()
                time.sleep(0.05)
                # ...then retry against it: the client must back off by the
                # server's hint (scaled into its contention window), and
                # eventually give up with the explicit shed outcome.
                with pytest.raises(RequestShed):
                    retrier.predict_with_retry(
                        X * 5, deadline_ms=5000.0, max_attempts=3,
                        sleep=fake_sleep)
                assert len(sleeps) == 3
                assert all(s >= 0.0 for s in sleeps)
                assert retrier.sheds_seen == 3
                blocker.join(timeout=10.0)
            finally:
                hold.close()
                retrier.close()

    def test_frontend_requires_exactly_one_source(self):
        with pytest.raises(ValueError):
            ServeFrontend()
        with pytest.raises(ValueError):
            ServeFrontend(_sum_engine,
                          supervisor=ReplicaSupervisor(_sum_engine))

    def test_wrapped_supervisor_is_accepted(self):
        supervisor = ReplicaSupervisor(
            _sum_engine, _supervisor_config(num_replicas=1))
        config = FrontendConfig(num_replicas=1, max_wait_ms=0.5)
        with ServeFrontend(supervisor=supervisor, config=config) as frontend:
            with FrontendClient(*frontend.address) as client:
                assert client.predict(X) == int(X.sum()) % 10


# --------------------------------------------------------------------------- #
# per-model replica sets
# --------------------------------------------------------------------------- #
class _LabelEngine:
    """Every prediction is this engine's label (version-echo stub)."""

    def __init__(self, label):
        self.label = int(label)
        self.input_shape = (3, 3)

    def predict(self, batch):
        return np.full(len(batch), self.label, dtype=np.int64)

    def close(self):
        pass


class TestSupervisorModels:
    def test_per_model_sets_route_and_remove(self):
        supervisor = ReplicaSupervisor(
            config=_supervisor_config(num_replicas=1))
        supervisor.add_model("a", lambda: _LabelEngine(1))
        supervisor.add_model("b", lambda: _LabelEngine(2))
        with supervisor:
            assert supervisor.predict(X, model="a") == 1
            assert supervisor.predict(X, model="b") == 2
            assert sorted(supervisor.models()) == ["a", "b"]
            assert set(supervisor.model_states()) == {"a", "b"}
            supervisor.remove_model("b")
            assert supervisor.models() == ["a"]
            with pytest.raises(ReplicaUnavailable):
                supervisor.submit(X, model="b").result(timeout=5.0)
            # The surviving set keeps serving.
            assert supervisor.predict(X, model="a") == 1

    def test_unknown_model_submit_is_unavailable(self):
        supervisor = ReplicaSupervisor(
            config=_supervisor_config(num_replicas=1))
        supervisor.add_model("a", lambda: _LabelEngine(1))
        with supervisor:
            with pytest.raises(ReplicaUnavailable):
                supervisor.submit(X, model="nope").result(timeout=5.0)
            with pytest.raises(KeyError):
                supervisor.replica_states(model="nope")

    def test_add_model_while_running_warms_replicas(self):
        supervisor = ReplicaSupervisor(
            config=_supervisor_config(num_replicas=1))
        supervisor.add_model("a", lambda: _LabelEngine(1))
        with supervisor:
            supervisor.add_model("late", lambda: _LabelEngine(7))
            assert supervisor.predict(X, model="late") == 7
            assert supervisor.replica_states(model="late") == ["healthy"]


# --------------------------------------------------------------------------- #
# registry-backed front-end (wire)
# --------------------------------------------------------------------------- #
from repro.serve import (  # noqa: E402 — registry additions under test
    CanaryController,
    InferenceArtifact,
    ModelRegistry,
)


def _label_artifact(fill):
    return InferenceArtifact(
        tensors={"w": np.full((4,), float(fill), dtype=np.float32)},
        metadata={"model_name": "stub"},
    )


def _registry_frontend(**overrides):
    registry = ModelRegistry()
    registry.register("m", "v1", _label_artifact(1.0),
                      engine=_LabelEngine(1))
    registry.register("m", "v2", _label_artifact(2.0),
                      engine=_LabelEngine(2))
    controller = CanaryController(registry, window=16, min_samples=4,
                                  holdoff_base_s=5.0)
    base = dict(num_replicas=1, max_wait_ms=0.5, port=0,
                restart_backoff_ms=5.0, health_interval_ms=5.0,
                default_deadline_ms=5000.0, cache_capacity=0)
    base.update(overrides)
    return ServeFrontend(registry=registry, config=FrontendConfig(**base),
                         controller=controller)


class TestRegistryWire:
    def test_predict_routes_and_echoes_version(self):
        with _registry_frontend() as frontend:
            with FrontendClient(*frontend.address) as client:
                assert client.predict_routed(X) == (1, "m@v1")
                assert client.predict_routed(X, model="m") == (1, "m@v1")
                # @latest follows the routing snapshot, not registration
                # order: v1 is still the stable serving version.
                assert client.predict_routed(X, model="m@latest") == (
                    1, "m@v1")
                # Pinning the serving version works...
                assert client.predict_routed(X, model="m@v1") == (1, "m@v1")
                # ...but a registered, non-serving version has no replica
                # set — an explicit shed, never a silent drop.
                with pytest.raises(RequestShed, match="no_replica"):
                    client.predict(X, model="m@v2")
                # Once the swap routes v2, pinning it serves.
                client.swap("m@v2")
                assert client.predict_routed(X, model="m@v2") == (2, "m@v2")

    def test_model_field_on_non_registry_server_is_an_error(self):
        with _frontend(_sum_engine) as frontend:
            with FrontendClient(*frontend.address) as client:
                with pytest.raises(RuntimeError, match="no model registry"):
                    client.predict(X, model="m")

    def test_unknown_model_is_an_explicit_error(self):
        with _registry_frontend() as frontend:
            with FrontendClient(*frontend.address) as client:
                with pytest.raises(RuntimeError, match="unknown model"):
                    client.predict(X, model="nope")
                with pytest.raises(RuntimeError, match="no version"):
                    client.predict(X, model="m@v9")

    def test_list_models_and_swap_wire_kinds(self):
        with _registry_frontend() as frontend:
            with FrontendClient(*frontend.address) as client:
                (model,) = client.list_models()["models"]
                assert model["name"] == "m"
                assert model["serving"] == "v1"
                assert model["versions"] == ["v1", "v2"]
                swapped = client.swap("m@v2")["swapped"]
                assert swapped == {"from": "v1", "to": "v2"}
                assert client.predict_routed(X) == (2, "m@v2")
                with pytest.raises(RuntimeError, match="swap failed"):
                    client.swap("m@v9")

    def test_canary_wire_lifecycle_and_holdoff(self):
        with _registry_frontend() as frontend:
            with FrontendClient(*frontend.address) as client:
                client.canary_start("m@v2", fraction=1.0, seed=3)
                (status,) = client.canary_status("m")["canary"]
                assert status["candidate"] == "v2"
                assert status["fraction"] == 1.0
                # Full fraction: bare-name traffic all hits the candidate.
                assert client.predict_routed(X) == (2, "m@v2")
                assert client.canary_rollback("m")["rolled_back"]
                assert not client.canary_rollback("m")["rolled_back"]
                # Hold-off (5s base) refuses an immediate restart...
                with pytest.raises(RuntimeError, match="held off"):
                    client.canary_start("m@v2", fraction=1.0)
                # ...unless forced.
                client.canary_start("m@v2", fraction=1.0, force=True)
                assert client.predict_routed(X) == (2, "m@v2")

    def test_rolled_back_replica_set_is_retired(self):
        with _registry_frontend() as frontend:
            with FrontendClient(*frontend.address) as client:
                client.canary_start("m@v2", fraction=1.0, force=True)
                assert client.predict_routed(X) == (2, "m@v2")
                client.canary_rollback("m")
                deadline = time.monotonic() + 10.0
                while ("m@v2" in frontend.supervisor.models()
                       and time.monotonic() < deadline):
                    time.sleep(0.02)
                assert frontend.supervisor.models() == ["m@v1"]
                # Stable traffic is untouched by the retirement.
                assert client.predict_routed(X) == (1, "m@v1")

    def test_metrics_response_reports_models_and_obs(self):
        with _registry_frontend() as frontend:
            with FrontendClient(*frontend.address) as client:
                client.predict(X)
                view = client.server_metrics()
                assert "obs" in view and "counters" in view["obs"]
                (model,) = view["models"]
                assert model["name"] == "m"
                assert "m@v1" in view["model_replicas"]

    def test_close_leaves_no_serving_threads(self):
        """Swap, canary start + rollback, close: every thread exits."""
        prefixes = ("serve-worker-", "replica-supervisor", "serve-frontend",
                    "retire-")

        before = set(threading.enumerate())

        def serving_threads():
            return [thread.name for thread in threading.enumerate()
                    if thread not in before
                    and thread.name.startswith(prefixes)]

        frontend = _registry_frontend(num_replicas=2).start()
        try:
            with FrontendClient(*frontend.address) as client:
                assert client.predict_routed(X) == (1, "m@v1")
                client.swap("m@v2")
                assert client.predict_routed(X) == (2, "m@v2")
                client.canary_start("m@v1", fraction=1.0, force=True)
                assert client.predict_routed(X) == (1, "m@v1")
                assert client.canary_rollback("m")["rolled_back"]
        finally:
            frontend.close()
        deadline = time.monotonic() + 5.0
        while serving_threads() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not serving_threads()

    def test_admin_kinds_rejected_without_registry(self):
        with _frontend(_sum_engine) as frontend:
            with FrontendClient(*frontend.address) as client:
                response = client.list_models()
                assert response["status"] == "error"
                assert "registry" in response["error"]
