"""Conformance tests for the multi-model registry (`repro.serve.registry`).

Covers the contracts the serving stack leans on:

* ref parsing and resolution semantics (``@latest``, bare names, dotted
  names, missing versions raise),
* atomic hot-swap under concurrent prediction — zero dropped requests,
  zero mixed-version responses,
* fingerprint dedup — identical frozen params share one engine,
* ``close()`` releasing every cached plan's kernel backends,
* prediction-cache namespacing — a shared cache can never serve another
  version's entries.
"""

import threading
import time

import numpy as np
import pytest

from repro.models import build_mlp
from repro.serve import (
    InferenceArtifact,
    MicroBatcher,
    ModelNotFound,
    ModelRegistry,
    PredictionCache,
    ServeConfig,
    artifact_fingerprint,
    build_engine,
    export_artifact,
    input_digest,
    parse_model_ref,
)


# --------------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------------- #
class StubEngine:
    """Minimal engine: every prediction is this engine's label."""

    def __init__(self, label, namespace=None):
        self.label = int(label)
        self.input_shape = (3,)
        self.closes = 0
        if namespace is not None:
            self.cache_namespace = namespace

    def predict(self, batch):
        return np.full(len(batch), self.label, dtype=np.int64)

    def close(self):
        self.closes += 1


def _stub_artifact(fill, shape=(4,)):
    """Hand-built artifact; ``fill`` determines the fingerprint."""
    return InferenceArtifact(
        tensors={"w": np.full(shape, float(fill), dtype=np.float32)},
        metadata={"model_name": "stub"},
    )


def _mlp_h2(seed):
    return build_mlp(input_shape=(1, 14, 14), hidden_layers=2,
                     hidden_units=32, seed=seed)


def _export_mlp():
    bundle = _mlp_h2(seed=0)
    return export_artifact(bundle.ff_units(), bundle,
                           goodness="sum_squares", overlay_amplitude=2.0)


def _inputs(shape, count, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(count,) + shape).astype(np.float32)


# --------------------------------------------------------------------------- #
# ref parsing + resolution
# --------------------------------------------------------------------------- #
class TestParseModelRef:
    def test_bare_name_has_no_version(self):
        assert parse_model_ref("resnet18-mini") == ("resnet18-mini", None)

    def test_latest_alias_is_no_version(self):
        assert parse_model_ref("resnet18-mini@latest") == (
            "resnet18-mini", None)

    def test_explicit_version(self):
        assert parse_model_ref("resnet18-mini@v2") == ("resnet18-mini", "v2")

    def test_dotted_and_slashed_names_pass_through(self):
        assert parse_model_ref("team.models/mlp-h2@v1.2") == (
            "team.models/mlp-h2", "v1.2")

    @pytest.mark.parametrize("bad", ["", "@v1", "name@", "@"])
    def test_empty_name_or_version_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_model_ref(bad)


class TestResolution:
    def _registry(self):
        reg = ModelRegistry()
        reg.register("m", "v1", _stub_artifact(1.0), engine=StubEngine(1))
        reg.register("m", "v2", _stub_artifact(2.0), engine=StubEngine(2))
        return reg

    def test_bare_name_resolves_to_newest_registered(self):
        reg = self._registry()
        assert reg.resolve("m").version == "v2"
        assert reg.resolve("m@latest").version == "v2"

    def test_explicit_version_resolves_exactly(self):
        reg = self._registry()
        assert reg.resolve("m@v1").version == "v1"
        assert reg.resolve("m@v1").ref == "m@v1"

    def test_missing_version_raises_with_known_versions(self):
        reg = self._registry()
        with pytest.raises(ModelNotFound, match="v1, v2"):
            reg.resolve("m@v9")

    def test_unknown_name_raises(self):
        with pytest.raises(ModelNotFound):
            self._registry().resolve("nope")

    def test_contains_operator(self):
        reg = self._registry()
        assert "m@v1" in reg
        assert "m" in reg
        assert "m@v9" not in reg
        assert "" not in reg

    def test_duplicate_registration_rejected(self):
        reg = self._registry()
        with pytest.raises(ValueError, match="already registered"):
            reg.register("m", "v1", _stub_artifact(9.0))

    def test_invalid_names_and_versions_rejected(self):
        reg = ModelRegistry()
        with pytest.raises(ValueError):
            reg.register("m@v1", "v1", _stub_artifact(1.0))
        with pytest.raises(ValueError):
            reg.register("m", "latest", _stub_artifact(1.0))
        with pytest.raises(ValueError):
            reg.register("m", "", _stub_artifact(1.0))

    def test_first_registration_becomes_stable_serving(self):
        reg = self._registry()
        # Resolution says "newest registered"; routing says "stable".
        assert reg.serving("m") == "v1"
        assert reg.route("m").version == "v1"
        assert reg.route().version == "v1"  # omitted ref, single model

    def test_pinned_ref_bypasses_routing(self):
        reg = self._registry()
        decision = reg.route("m@v2")
        assert decision.version == "v2"
        assert decision.pinned

    def test_unrouted_name_routes_to_latest(self):
        reg = self._registry()
        reg.register("shadow", "v1", _stub_artifact(3.0),
                     engine=StubEngine(3), make_default=False)
        decision = reg.route("shadow")
        assert decision.version == "v1"
        assert decision.pinned

    def test_default_name_requires_exactly_one_routed_model(self):
        reg = self._registry()
        reg.register("other", "v1", _stub_artifact(4.0),
                     engine=StubEngine(4))
        with pytest.raises(ValueError, match="serves several"):
            reg.route()
        with pytest.raises(ModelNotFound):
            ModelRegistry().route()

    def test_describe_is_json_ready(self):
        reg = self._registry()
        (entry,) = reg.describe()
        assert entry["name"] == "m"
        assert entry["versions"] == ["v1", "v2"]
        assert entry["latest"] == "v2"
        assert entry["serving"] == "v1"
        assert set(entry["fingerprints"]) == {"v1", "v2"}
        assert "canary" not in entry

    def test_register_after_close_rejected(self):
        reg = self._registry()
        reg.close()
        with pytest.raises(RuntimeError, match="closed"):
            reg.register("m", "v3", _stub_artifact(5.0))


# --------------------------------------------------------------------------- #
# atomic swap
# --------------------------------------------------------------------------- #
class TestSwap:
    def _registry(self):
        reg = ModelRegistry()
        for version, label in (("v1", 1), ("v2", 2), ("v3", 3)):
            reg.register("m", version, _stub_artifact(float(label)),
                         engine=StubEngine(label))
        return reg

    def test_swap_flips_routing_and_counts(self):
        reg = self._registry()
        assert reg.swap("m", "v2") == ("v1", "v2")
        assert reg.serving("m") == "v2"
        assert reg.route("m").version == "v2"
        assert reg.stats()["swaps"] == 1

    def test_noop_swap_does_not_count(self):
        reg = self._registry()
        assert reg.swap("m", "v1") == ("v1", "v1")
        assert reg.stats()["swaps"] == 0

    def test_swap_to_unknown_version_raises(self):
        with pytest.raises(ModelNotFound):
            self._registry().swap("m", "v9")

    def test_swap_clears_canary_pointing_at_target(self):
        reg = self._registry()
        reg.set_canary("m", "v2", fraction=0.5)
        reg.swap("m", "v2")
        assert reg.canary_of("m") is None

    def test_swap_preserves_unrelated_canary(self):
        reg = self._registry()
        reg.set_canary("m", "v3", fraction=0.25, seed=7)
        reg.swap("m", "v2")
        assert reg.canary_of("m") == ("v3", 0.25, 7)

    def test_swap_atomicity_under_concurrent_prediction(self):
        """8 predict threads across >= 3 swaps: nothing dropped or mixed.

        Every response must be internally consistent — the label the
        engine produced must match the version the router claims served
        it.  A torn routing snapshot would pair v1's engine with v2's
        version tag (or crash); both count as failures.
        """
        labels = {"v1": 1, "v2": 2, "v3": 3}
        reg = self._registry()
        stop = threading.Event()
        failures, counts = [], [0] * 8

        def worker(index):
            rng = np.random.default_rng(index)
            while not stop.is_set():
                sample = rng.normal(size=(3,)).astype(np.float32)
                try:
                    out = reg.predict(sample)
                except Exception as error:  # noqa: BLE001 — failure data
                    failures.append(error)
                    return
                if out["label"] != labels[out["version"]]:
                    failures.append(out)
                counts[index] += 1

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        swaps = ["v2", "v3", "v1", "v2"]
        for target in swaps:
            time.sleep(0.05)
            reg.swap("m", target)
        stop.set()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not failures
        assert all(count > 0 for count in counts)  # nobody starved
        assert reg.stats()["swaps"] == len(swaps)
        assert reg.serving("m") == "v2"


# --------------------------------------------------------------------------- #
# fingerprint dedup + engine lifecycle
# --------------------------------------------------------------------------- #
class TestFingerprintDedup:
    def test_identical_artifacts_share_one_fingerprint(self):
        assert (artifact_fingerprint(_stub_artifact(1.0))
                == artifact_fingerprint(_stub_artifact(1.0)))
        assert (artifact_fingerprint(_stub_artifact(1.0))
                != artifact_fingerprint(_stub_artifact(2.0)))

    def test_identical_params_build_one_engine(self):
        builds = []

        def builder(artifact):
            builds.append(artifact)
            return StubEngine(7)

        reg = ModelRegistry(engine_builder=builder)
        artifact = _stub_artifact(1.0)
        reg.register("m", "v1", artifact)
        reg.register("m", "v2", artifact, make_default=False)
        assert reg.engine("m@v1") is reg.engine("m@v2")
        assert len(builds) == 1
        stats = reg.stats()
        assert stats["engine_builds"] == 1
        assert stats["shared_engine_hits"] >= 1
        # Distinct params do get their own engine.
        reg.register("m", "v3", _stub_artifact(2.0), make_default=False)
        assert reg.engine("m@v3") is not reg.engine("m@v1")
        assert reg.stats()["engine_builds"] == 2

    def test_dedup_shares_one_real_engine_and_close_releases_pools(self):
        """Real engines: the second version reuses the first's engine."""
        from repro.runtime.backends import ParallelBackend

        backend = ParallelBackend(num_workers=2, min_rows_per_tile=1)
        try:
            artifact = _export_mlp()
            reg = ModelRegistry(
                engine_builder=lambda frozen: build_engine(
                    frozen, _mlp_h2(seed=0), backend=backend))
            reg.register("mlp", "v1", artifact)
            reg.register("mlp", "v2", artifact, make_default=False)
            first = reg.engine("mlp@v1")
            assert reg.engine("mlp@v2") is first
            assert reg.stats()["engine_builds"] == 1
            # ...and the shared engine actually serves.
            first.predict(_inputs((1, 14, 14), 40))
            assert backend.pool_active
            reg.close()
            assert not backend.pool_active  # plan backends released
            reg.close()  # idempotent
        finally:
            backend.shutdown()

    def test_close_closes_each_engine_exactly_once(self):
        artifact = _stub_artifact(1.0)
        shared = StubEngine(1)
        other = StubEngine(2)
        reg = ModelRegistry()
        reg.register("m", "v1", artifact, engine=shared)
        reg.register("m", "v2", artifact, engine=shared, make_default=False)
        reg.register("m", "v3", _stub_artifact(2.0), engine=other,
                     make_default=False)
        reg.engine("m@v1"), reg.engine("m@v2"), reg.engine("m@v3")
        reg.close()
        assert shared.closes == 1
        assert other.closes == 1


# --------------------------------------------------------------------------- #
# prediction-cache namespacing
# --------------------------------------------------------------------------- #
class TestCacheNamespacing:
    def _config(self):
        return ServeConfig(max_batch_size=4, max_wait_ms=0.0,
                           cache_capacity=64)

    def test_shared_cache_never_serves_another_versions_entry(self):
        """The cross-version stale-hit regression.

        Two engines with different artifact fingerprints share one
        :class:`PredictionCache` (exactly what happens when a supervisor
        serves two model versions, or right after a hot-swap).  Without
        namespacing the second batcher would return the first engine's
        cached label for the same input bytes.
        """
        cache = PredictionCache(capacity=64)
        config = self._config()
        sample = np.ones((3,), dtype=np.float32)
        with MicroBatcher(StubEngine(1, namespace="fp-a"), config,
                          cache=cache) as first:
            assert first.predict(sample) == 1
        with MicroBatcher(StubEngine(2, namespace="fp-b"), config,
                          cache=cache) as second:
            assert second.predict(sample) == 2  # not 1: no stale hit
        assert cache.stats()["entries"] == 2  # one entry per namespace

    def test_same_fingerprint_still_shares_entries(self):
        # Fingerprint-identical versions produce identical outputs by
        # construction, so sharing their cache entries is the point.
        cache = PredictionCache(capacity=64)
        config = self._config()
        sample = np.ones((3,), dtype=np.float32)
        with MicroBatcher(StubEngine(1, namespace="fp-a"), config,
                          cache=cache) as first:
            assert first.predict(sample) == 1
        with MicroBatcher(StubEngine(9, namespace="fp-a"), config,
                          cache=cache) as twin:
            assert twin.predict(sample) == 1  # served from the shared entry
        assert cache.stats()["hits"] >= 1

    def test_bare_callable_keys_are_unprefixed(self):
        cache = PredictionCache(capacity=8)
        sample = np.ones((3,), dtype=np.float32)

        def engine(batch):
            return np.zeros(len(batch), dtype=np.int64)

        with MicroBatcher(engine, self._config(), cache=cache) as batcher:
            batcher.predict(sample)
            batcher.predict(sample)
        assert cache.get(input_digest(sample)) is not None
        assert cache.stats()["hits"] >= 1

    def test_real_engine_namespace_is_its_fingerprint(self):
        artifact = _export_mlp()
        engine = build_engine(artifact, _mlp_h2(seed=1))
        try:
            namespace = engine.cache_namespace
            assert isinstance(namespace, str) and namespace
            # Stable across rebuilds of the same frozen params...
            twin = build_engine(artifact, _mlp_h2(seed=2))
            try:
                assert twin.cache_namespace == namespace
            finally:
                twin.close()
        finally:
            engine.close()
