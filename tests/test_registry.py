"""Conformance tests for the multi-model registry (`repro.serve.registry`).

Covers the contracts the serving stack leans on:

* ref parsing and resolution semantics (``@latest``, bare names, dotted
  names, missing versions raise),
* atomic hot-swap under concurrent wire prediction through a
  registry-backed front-end — zero dropped requests, zero mixed-version
  responses,
* artifact fingerprints — identical frozen params, one fingerprint,
* prediction-cache namespacing — a shared cache can never serve another
  version's entries.
"""

import threading
import time

import numpy as np
import pytest

from repro.models import build_mlp
from repro.serve import (
    FrontendClient,
    FrontendConfig,
    InferenceArtifact,
    MicroBatcher,
    ModelNotFound,
    ModelRegistry,
    PredictionCache,
    RequestShed,
    ServeConfig,
    ServeFrontend,
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
        """8 wire clients across >= 3 swaps: nothing dropped or mixed.

        Every response must be internally consistent — the label the
        engine produced must match the version the front-end echoes.  A
        torn routing snapshot would pair v1's engine with v2's version
        tag; a lost request would surface as an error or a deadline.
        Both count as failures.  A shed is an explicit outcome, not a
        drop: a request routed just before a swap may find the old
        version's replica set already retiring.
        """
        labels = {"m@v1": 1, "m@v2": 2, "m@v3": 3}
        reg = self._registry()
        config = FrontendConfig(num_replicas=1, max_wait_ms=0.5,
                                cache_capacity=0, default_deadline_ms=5000.0)
        frontend = ServeFrontend(registry=reg, config=config).start()
        stop = threading.Event()
        failures, counts = [], [0] * 8

        def worker(index):
            rng = np.random.default_rng(index)
            with FrontendClient(*frontend.address) as client:
                while not stop.is_set():
                    sample = rng.normal(size=(3,)).astype(np.float32)
                    try:
                        label, ref = client.predict_routed(sample)
                    except RequestShed:
                        continue
                    except Exception as error:  # noqa: BLE001 — failure data
                        failures.append(error)
                        return
                    if label != labels[ref]:
                        failures.append((ref, label))
                    counts[index] += 1

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(8)]
        swaps = ["v2", "v3", "v1", "v2"]
        try:
            for thread in threads:
                thread.start()
            for target in swaps:
                time.sleep(0.05)
                frontend.swap(f"m@{target}")
            time.sleep(0.05)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10.0)
            frontend.close()
        assert not failures
        assert all(count > 0 for count in counts)  # nobody starved
        assert reg.stats()["swaps"] == len(swaps)
        assert reg.serving("m") == "v2"


# --------------------------------------------------------------------------- #
# artifact fingerprints
# --------------------------------------------------------------------------- #
class TestFingerprintDedup:
    def test_identical_artifacts_share_one_fingerprint(self):
        assert (artifact_fingerprint(_stub_artifact(1.0))
                == artifact_fingerprint(_stub_artifact(1.0)))
        assert (artifact_fingerprint(_stub_artifact(1.0))
                != artifact_fingerprint(_stub_artifact(2.0)))


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
        namespace = engine.cache_namespace
        assert isinstance(namespace, str) and namespace
        # Stable across rebuilds of the same frozen params...
        twin = build_engine(artifact, _mlp_h2(seed=2))
        assert twin.cache_namespace == namespace
