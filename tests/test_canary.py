"""Canary controller conformance + the hot-swap/canary wire soak.

The unit half pins the controller's contracts: seeded deterministic
traffic splits, rollback on injected error-rate / latency regressions
(driven over the wire through a registry-backed front-end, the one
serving path), capped doubling hold-off between failed rollouts.

The soak half drives a registry-backed :class:`ServeFrontend` over a real
socket under sustained threaded load: >= 3 consecutive hot-swaps with
zero dropped requests and zero mixed-version responses, a canary whose
candidate misbehaves and is rolled back automatically, a mid-soak stable
replica crash the supervisor recovers from — and the rolled-back version
must never be resurrected by that recovery.
"""

import threading
import time

import numpy as np
import pytest

from repro.obs.registry import get_registry as get_obs_registry
from repro.serve import (
    CanaryController,
    CanaryHeldOff,
    FrontendClient,
    FrontendConfig,
    InferenceArtifact,
    ModelRegistry,
    RequestShed,
    DeadlineExceeded,
    ServeFrontend,
)
from repro.serve.faults import FaultSchedule, FaultyEngine


# --------------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------------- #
class StubEngine:
    """Every prediction is this engine's label; optionally slow."""

    def __init__(self, label, delay_s=0.0):
        self.label = int(label)
        self.delay_s = float(delay_s)
        self.input_shape = (3,)

    def predict(self, batch):
        if self.delay_s > 0.0:
            time.sleep(self.delay_s)
        return np.full(len(batch), self.label, dtype=np.int64)

    def close(self):
        pass


def _artifact(fill):
    return InferenceArtifact(
        tensors={"w": np.full((4,), float(fill), dtype=np.float32)},
        metadata={"model_name": "stub"},
    )


def _registry(**engines):
    """Registry with one model ``m``; ``engines`` maps version -> engine."""
    registry = ModelRegistry()
    for index, (version, engine) in enumerate(sorted(engines.items())):
        registry.register("m", version, _artifact(float(index + 1)),
                          engine=engine)
    return registry


def _samples(count, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(count, 3)).astype(np.float32)


def _frontend(registry, controller):
    """Registry-backed front-end; the controller sees every wire outcome."""
    config = FrontendConfig(
        num_replicas=1, max_wait_ms=0.5, cache_capacity=0,
        default_deadline_ms=5000.0, restart_backoff_ms=5.0,
        health_interval_ms=5.0,
    )
    return ServeFrontend(registry=registry, config=config,
                         controller=controller)


def _drive(frontend, samples, until=lambda: False):
    """Send ``samples`` one by one until ``until()``; tally outcomes."""
    outcomes = {"ok": 0, "shed": 0, "deadline": 0}
    with FrontendClient(*frontend.address) as client:
        for sample in samples:
            try:
                client.predict_routed(sample)
                outcomes["ok"] += 1
            except RequestShed:
                outcomes["shed"] += 1
            except DeadlineExceeded:
                outcomes["deadline"] += 1
            if until():
                break
    return outcomes


# --------------------------------------------------------------------------- #
# deterministic traffic split
# --------------------------------------------------------------------------- #
class TestCanarySplit:
    def test_assignment_is_deterministic_per_key(self):
        registry = _registry(v1=StubEngine(1), v2=StubEngine(2))
        registry.set_canary("m", "v2", fraction=0.5, seed=3)
        keys = [f"req-{i}" for i in range(400)]
        sides = [registry.route("m", key=key).canary for key in keys]
        assert sides == [registry.route("m", key=key).canary
                         for key in keys]

    def test_split_tracks_the_fraction(self):
        registry = _registry(v1=StubEngine(1), v2=StubEngine(2))
        registry.set_canary("m", "v2", fraction=0.5, seed=3)
        sides = [registry.route("m", key=f"req-{i}").canary
                 for i in range(400)]
        assert 0.35 < sum(sides) / len(sides) < 0.65

    def test_seed_changes_the_assignment(self):
        first = _registry(v1=StubEngine(1), v2=StubEngine(2))
        first.set_canary("m", "v2", fraction=0.5, seed=3)
        second = _registry(v1=StubEngine(1), v2=StubEngine(2))
        second.set_canary("m", "v2", fraction=0.5, seed=4)
        keys = [f"req-{i}" for i in range(400)]
        assert ([first.route("m", key=k).canary for k in keys]
                != [second.route("m", key=k).canary for k in keys])

    def test_full_fraction_sends_everything_to_the_candidate(self):
        registry = _registry(v1=StubEngine(1), v2=StubEngine(2))
        registry.set_canary("m", "v2", fraction=1.0)
        assert all(registry.route("m", key=f"req-{i}").version == "v2"
                   for i in range(50))

    def test_pinned_refs_bypass_the_split(self):
        registry = _registry(v1=StubEngine(1), v2=StubEngine(2))
        registry.set_canary("m", "v2", fraction=1.0)
        decision = registry.route("m@v1", key="req-0")
        assert decision.version == "v1" and not decision.canary

    def test_canary_cannot_target_the_stable_version(self):
        registry = _registry(v1=StubEngine(1), v2=StubEngine(2))
        with pytest.raises(ValueError, match="already the stable"):
            registry.set_canary("m", "v1", fraction=0.5)

    def test_fraction_bounds_enforced(self):
        registry = _registry(v1=StubEngine(1), v2=StubEngine(2))
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                registry.set_canary("m", "v2", fraction=bad)


# --------------------------------------------------------------------------- #
# regression verdicts
# --------------------------------------------------------------------------- #
class TestRollbackOnRegression:
    def test_error_rate_regression_rolls_back(self):
        """Candidate fails every call: observe -> verdict -> rollback."""
        faulty = FaultyEngine(StubEngine(2), FaultSchedule(fail_after=0))
        registry = _registry(v1=StubEngine(1), v2=faulty)
        controller = CanaryController(registry, window=16, min_samples=4,
                                      holdoff_base_s=0.05)
        with _frontend(registry, controller) as frontend:
            frontend.start_canary("m@v2", fraction=0.5, seed=1)
            _drive(frontend, _samples(300, seed=7),
                   until=lambda: registry.canary_of("m") is None)
        assert registry.canary_of("m") is None
        assert controller.rollbacks == 1
        (status,) = controller.status("m")
        assert status["last_rollback"]["version"] == "v2"
        assert "error rate" in status["last_rollback"]["reason"]

    def test_latency_regression_rolls_back(self):
        """Candidate answers correctly but slowly: latency verdict."""
        registry = _registry(v1=StubEngine(1),
                             v2=StubEngine(2, delay_s=0.005))
        controller = CanaryController(registry, window=16, min_samples=4,
                                      latency_ratio=1.5,
                                      latency_floor_ms=1.0,
                                      holdoff_base_s=0.05)
        with _frontend(registry, controller) as frontend:
            frontend.start_canary("m@v2", fraction=0.5, seed=1)
            outcomes = _drive(frontend, _samples(300, seed=11),
                              until=lambda: registry.canary_of("m") is None)
        assert outcomes["shed"] == outcomes["deadline"] == 0
        assert registry.canary_of("m") is None
        assert controller.rollbacks == 1
        (status,) = controller.status("m")
        assert "latency" in status["last_rollback"]["reason"]

    def test_healthy_candidate_is_not_rolled_back(self):
        # The floor keeps scheduler noise on sub-millisecond wire answers
        # from reading as a latency regression of an identical engine.
        registry = _registry(v1=StubEngine(1), v2=StubEngine(2))
        controller = CanaryController(registry, window=16, min_samples=4,
                                      latency_floor_ms=20.0)
        with _frontend(registry, controller) as frontend:
            frontend.start_canary("m@v2", fraction=0.5, seed=1)
            outcomes = _drive(frontend, _samples(120, seed=13))
            assert outcomes["ok"] == 120
            assert registry.canary_of("m") is not None
            assert controller.rollbacks == 0
            assert controller.promote("m") == ("v1", "v2")
            assert registry.serving("m") == "v2"
            with FrontendClient(*frontend.address) as client:
                assert client.predict_routed(_samples(1)[0]) == (2, "m@v2")

    def test_unrelated_version_observations_are_ignored(self):
        registry = _registry(v1=StubEngine(1), v2=StubEngine(2),
                             v3=StubEngine(3))
        controller = CanaryController(registry, window=16, min_samples=2)
        controller.start("m", "v2", fraction=0.5)
        for _ in range(8):
            controller.observe("m", "v3", 500.0, ok=False)
        assert registry.canary_of("m") is not None
        assert controller.rollbacks == 0

    def test_knob_validation(self):
        registry = _registry(v1=StubEngine(1))
        with pytest.raises(ValueError):
            CanaryController(registry, window=0)
        with pytest.raises(ValueError):
            CanaryController(registry, latency_ratio=1.0)
        with pytest.raises(ValueError):
            CanaryController(registry, holdoff_base_s=0.0)
        with pytest.raises(ValueError):
            CanaryController(registry, holdoff_base_s=2.0,
                             holdoff_max_s=1.0)


# --------------------------------------------------------------------------- #
# capped doubling hold-off
# --------------------------------------------------------------------------- #
class TestHoldoff:
    def _controlled(self):
        now = [0.0]
        registry = _registry(v1=StubEngine(1), v2=StubEngine(2))
        controller = CanaryController(
            registry, window=8, min_samples=2,
            holdoff_base_s=0.5, holdoff_max_s=2.0,
            clock=lambda: now[0],
        )
        return registry, controller, now

    def test_holdoff_doubles_per_failure_and_caps(self):
        registry, controller, _now = self._controlled()
        expected = [0.5, 1.0, 2.0, 2.0]  # base, x2, cap, still capped
        for holdoff in expected:
            controller.start("m", "v2", fraction=0.5, force=True)
            assert controller.rollback("m") is True
            assert controller.holdoff_s("m") == pytest.approx(holdoff)
        assert controller.rollbacks == len(expected)

    def test_rollback_without_canary_is_a_noop(self):
        _registry_, controller, _now = self._controlled()
        assert controller.rollback("m") is False
        assert controller.rollbacks == 0

    def test_start_refused_during_holdoff_with_retry_hint(self):
        registry, controller, now = self._controlled()
        controller.start("m", "v2", fraction=0.5)
        controller.rollback("m")
        with pytest.raises(CanaryHeldOff) as excinfo:
            controller.start("m", "v2", fraction=0.5)
        assert excinfo.value.retry_after_s == pytest.approx(0.5)
        assert registry.canary_of("m") is None  # refused, nothing routed
        now[0] += 0.6  # hold-off expires
        controller.start("m", "v2", fraction=0.5)
        assert registry.canary_of("m") is not None

    def test_promote_resets_the_holdoff(self):
        registry, controller, _now = self._controlled()
        controller.start("m", "v2", fraction=0.5)
        controller.rollback("m")
        controller.start("m", "v2", fraction=0.5, force=True)
        assert controller.promote("m") == ("v1", "v2")
        assert registry.serving("m") == "v2"
        assert controller.holdoff_s("m") == 0.0
        # A fresh failure starts the ladder from the base again.
        controller.start("m", "v1", fraction=0.5)
        controller.rollback("m")
        assert controller.holdoff_s("m") == pytest.approx(0.5)


# --------------------------------------------------------------------------- #
# live-socket soak: swaps + canary + crash recovery over the wire
# --------------------------------------------------------------------------- #
class TestWireSoak:
    LABELS = {"m@v1": 1, "m@v2": 2, "m@v3": 3}

    def test_swap_canary_crash_soak(self):
        # v1 crashes exactly once mid-soak (the supervisor must recover);
        # v3, the canary candidate, fails every other call (error rate
        # ~0.5 forces an automatic rollback while still producing tagged
        # ok responses for the no-traffic-after-rollback assertion).
        crashy_stable = FaultyEngine(
            StubEngine(1), FaultSchedule(fail_calls={40}))
        flaky_candidate = FaultyEngine(
            StubEngine(3),
            FaultSchedule(fail_calls=frozenset(range(1, 100000, 2))))
        registry = ModelRegistry()
        registry.register("m", "v1", _artifact(1.0), engine=crashy_stable)
        registry.register("m", "v2", _artifact(2.0), engine=StubEngine(2))
        registry.register("m", "v3", _artifact(3.0),
                          engine=flaky_candidate)
        controller = CanaryController(registry, window=24, min_samples=6,
                                      holdoff_base_s=0.1)
        config = FrontendConfig(
            host="127.0.0.1", port=0, num_replicas=1, max_batch_size=8,
            max_wait_ms=0.5, cache_capacity=0, default_deadline_ms=2000.0,
            max_queue_depth=256,
        )
        obs_swaps = get_obs_registry().counter("repro_model_swaps_total")
        obs_rollbacks = get_obs_registry().counter(
            "repro_canary_rollbacks_total")
        swaps_before = obs_swaps.value()
        rollbacks_before = obs_rollbacks.value()

        frontend = ServeFrontend(registry=registry, config=config,
                                 controller=controller)
        frontend.start()
        stop = threading.Event()
        ok_responses = []   # (sent_at, ref, label)
        outcomes = {"ok": 0, "shed": 0, "deadline": 0, "error": 0}
        tally_lock = threading.Lock()
        sent = [0]

        def load(worker):
            rng = np.random.default_rng(worker)
            client = FrontendClient("127.0.0.1", frontend.port, seed=worker)
            try:
                while not stop.is_set():
                    sample = rng.normal(size=(3,)).astype(np.float32)
                    sent_at = time.monotonic()
                    with tally_lock:
                        sent[0] += 1
                    try:
                        label, ref = client.predict_routed(
                            sample, deadline_ms=1500.0)
                        with tally_lock:
                            outcomes["ok"] += 1
                            ok_responses.append((sent_at, ref, label))
                    except RequestShed:
                        with tally_lock:
                            outcomes["shed"] += 1
                    except DeadlineExceeded:
                        with tally_lock:
                            outcomes["deadline"] += 1
                    except (RuntimeError, ConnectionError):
                        with tally_lock:
                            outcomes["error"] += 1
            finally:
                client.close()

        workers = [threading.Thread(target=load, args=(i,))
                   for i in range(3)]
        try:
            for worker in workers:
                worker.start()
            # Phase 1: three consecutive hot-swaps under load.
            for target in ("m@v2", "m@v1", "m@v2"):
                time.sleep(0.6)
                frontend.swap(target)
            assert registry.stats()["swaps"] == 3
            # Phase 2: canary the flaky candidate; wait for auto-rollback.
            frontend.start_canary("m@v3", fraction=0.5, seed=5, force=True)
            deadline = time.monotonic() + 20.0
            while (controller.rollbacks < 1
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            rollback_at = time.monotonic()
            assert controller.rollbacks >= 1
            assert registry.canary_of("m") is None
            # Phase 3: keep the load up — the supervisor must retire the
            # rolled-back version's replica set and never restart it.
            deadline = time.monotonic() + 10.0
            while ("m@v3" in frontend.supervisor.models()
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            assert "m@v3" not in frontend.supervisor.models()
            time.sleep(1.0)
        finally:
            stop.set()
            for worker in workers:
                worker.join(timeout=10.0)
            frontend.close()

        # Zero dropped requests: every submission has an explicit outcome.
        assert sum(outcomes.values()) == sent[0]
        assert outcomes["ok"] > 50
        # Zero mixed-version responses: the label each engine produced
        # must match the version tag the router attached.
        for _sent_at, ref, label in ok_responses:
            assert label == self.LABELS[ref], (ref, label)
        # The candidate actually served canary traffic before rollback...
        assert any(ref == "m@v3" for _t, ref, _l in ok_responses)
        # ...and nothing routed after the rollback ever reached it.
        late_refs = {ref for sent_at, ref, _l in ok_responses
                     if sent_at > rollback_at}
        assert "m@v3" not in late_refs
        assert late_refs  # load really continued past the rollback
        # The mid-soak stable crash was recovered by the supervisor.
        assert frontend.supervisor.restarts >= 1
        # Observable in the exported telemetry, as the CI soak asserts.
        assert obs_swaps.value() - swaps_before >= 3
        assert obs_rollbacks.value() - rollbacks_before >= 1
        (status,) = controller.status("m")
        assert status["last_rollback"]["version"] == "v3"
