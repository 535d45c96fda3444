"""Multi-model registry: the routing table of the serving path.

One frontend, many models.  The :class:`ModelRegistry` is the name →
version → artifact resolution layer: clients ask for
``resnet18-mini@v2`` (or ``resnet18-mini@latest``, or just the bare name)
and the registry answers with a concrete :class:`ModelVersion`.  It owns no
engine: :meth:`ModelRegistry.engine_factory` hands the front-end a builder,
and the :class:`~repro.serve.supervisor.ReplicaSupervisor` builds, restarts
and closes every served engine from it.

Three properties do the heavy lifting:

* **Fingerprints.**  Every registered artifact is fingerprinted (blake2b
  over its frozen tensors).  The fingerprint is what ``list-models``
  reports per version; the engine's own digest of its frozen units
  namespaces prediction-cache keys, so fingerprint-identical versions
  share cached answers and different ones never do.
* **Atomic swap.**  Traffic routing lives in an immutable
  :class:`RoutingSnapshot` replaced wholesale under a single lock.
  ``swap(name, version)`` flips which version new requests resolve to;
  in-flight batches keep the engine object they already hold, so they
  finish on the old version while new arrivals land on the new one — no
  torn state, no mixed batches.
* **Deterministic canary split.**  A routing entry may carry a candidate
  version plus a traffic fraction; assignment hashes ``(seed, name,
  request-key)`` so the same request always lands on the same side of the
  split — reproducible experiments, not coin flips.

The :class:`~repro.serve.canary.CanaryController` sits on top and decides
*when* to flip: it watches per-version latency and error series and rolls
a regressing candidate back (with capped doubling hold-off, DCF style)
before promotion.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.obs.registry import get_registry
from repro.serve.errors import ServeError
from repro.serve.export import InferenceArtifact

#: Version alias that always resolves to the newest registered version.
LATEST = "latest"


class ModelNotFound(ServeError, KeyError):
    """An unknown model name or version was requested."""

    def __str__(self) -> str:  # KeyError quotes its args; keep it readable
        return self.args[0] if self.args else "model not found"


def parse_model_ref(ref: str) -> Tuple[str, Optional[str]]:
    """Split ``name[@version]`` into ``(name, version-or-None)``.

    ``None`` means "no explicit version" — both the bare name and the
    ``@latest`` alias resolve to the newest registered version.  Dotted
    and hyphenated names pass through untouched (only ``@`` separates);
    an empty name or empty version is rejected.
    """
    ref = str(ref).strip()
    name, sep, version = ref.rpartition("@")
    if not sep:
        name, version = ref, ""
    if not name:
        raise ValueError(f"model ref {ref!r} has no name")
    if sep and not version:
        raise ValueError(f"model ref {ref!r} has an empty version")
    if not version or version == LATEST:
        return name, None
    return name, version


def artifact_fingerprint(artifact: InferenceArtifact) -> str:
    """Content digest of an artifact's frozen tensors.

    blake2b over the sorted tensor names, dtypes, shapes and raw bytes:
    two versions with equal fingerprints hold identical frozen params.
    """
    hasher = hashlib.blake2b(digest_size=16)
    for key in sorted(artifact.tensors):
        tensor = np.ascontiguousarray(artifact.tensors[key])
        hasher.update(key.encode("utf-8"))
        hasher.update(str(tensor.dtype).encode())
        hasher.update(str(tensor.shape).encode())
        hasher.update(tensor.tobytes())
    return hasher.hexdigest()


def _assign_canary(seed: int, name: str, key: str, fraction: float) -> bool:
    """Deterministic traffic-split assignment for one request key."""
    digest = hashlib.blake2b(
        f"{seed}:{name}:{key}".encode("utf-8"), digest_size=8
    ).digest()
    return (int.from_bytes(digest, "big") / float(2 ** 64)) < fraction


class ModelVersion:
    """One registered (name, version) with its artifact and fingerprint."""

    __slots__ = ("name", "version", "artifact", "fingerprint",
                 "registered_order", "_prebuilt", "_factory")

    def __init__(self, name: str, version: str,
                 artifact: InferenceArtifact, fingerprint: str,
                 registered_order: int,
                 prebuilt: Optional[object] = None,
                 factory: Optional[Callable[[], object]] = None) -> None:
        self.name = name
        self.version = version
        self.artifact = artifact
        self.fingerprint = fingerprint
        self.registered_order = registered_order
        self._prebuilt = prebuilt
        self._factory = factory

    @property
    def ref(self) -> str:
        return f"{self.name}@{self.version}"

    def __repr__(self) -> str:
        return (f"ModelVersion({self.ref!r}, "
                f"fingerprint={self.fingerprint[:8]}...)")


class _Route:
    """Immutable per-name routing entry (stable + optional canary)."""

    __slots__ = ("stable", "canary", "fraction", "seed")

    def __init__(self, stable: str, canary: Optional[str] = None,
                 fraction: float = 0.0, seed: int = 0) -> None:
        self.stable = stable
        self.canary = canary
        self.fraction = float(fraction)
        self.seed = int(seed)


class RouteDecision:
    """Outcome of routing one request: which version serves it and why."""

    __slots__ = ("model", "pinned", "canary")

    def __init__(self, model: ModelVersion, pinned: bool = False,
                 canary: bool = False) -> None:
        self.model = model
        self.pinned = pinned
        self.canary = canary

    @property
    def name(self) -> str:
        return self.model.name

    @property
    def version(self) -> str:
        return self.model.version

    @property
    def ref(self) -> str:
        return self.model.ref


class ModelRegistry:
    """Named + versioned artifacts behind an atomic routing snapshot.

    Parameters
    ----------
    engine_builder:
        ``artifact -> engine`` callable behind :meth:`engine_factory` for
        versions registered without their own engine or factory.  Defaults
        to :func:`~repro.serve.engine.build_engine` (imported lazily so stub
        registries never touch the kernel stack).
    """

    def __init__(
        self,
        engine_builder: Optional[
            Callable[[InferenceArtifact], object]
        ] = None,
    ) -> None:
        self._builder = engine_builder
        self._lock = threading.Lock()          # versions + routing snapshot
        self._versions: "Dict[str, Dict[str, ModelVersion]]" = {}
        self._order: "Dict[str, List[str]]" = {}   # registration order
        self._routing: "Dict[str, _Route]" = {}    # replaced wholesale
        self._swaps = 0
        self._register_seq = 0
        obs = get_registry()
        self._obs_swaps = obs.counter(
            "repro_model_swaps_total",
            help="Atomic stable-version swaps performed by the registry.")
        self._obs_versions = obs.gauge(
            "repro_registry_versions",
            help="Model versions currently registered.")

    # ------------------------------------------------------------------ #
    # registration + resolution
    # ------------------------------------------------------------------ #
    def register(
        self,
        name: str,
        version: str,
        artifact: InferenceArtifact,
        *,
        engine: Optional[object] = None,
        engine_factory: Optional[Callable[[], object]] = None,
        make_default: bool = True,
    ) -> ModelVersion:
        """Register one (name, version) artifact.

        A prebuilt ``engine`` (tests, faults: every replica shares it) or
        a zero-arg ``engine_factory`` (per-replica builds) may override the
        registry's ``engine_builder`` for this version.  The first version
        registered under a name becomes its stable serving version;
        ``make_default=False`` skips that (the version is resolvable but
        carries no traffic until a swap or canary routes to it).
        Registering a duplicate (name, version) raises.
        """
        name = str(name).strip()
        version = str(version).strip()
        if not name or "@" in name:
            raise ValueError(f"invalid model name {name!r}")
        if not version or version == LATEST or "@" in version:
            raise ValueError(f"invalid model version {version!r}")
        fingerprint = artifact_fingerprint(artifact)
        with self._lock:
            versions = self._versions.setdefault(name, {})
            if version in versions:
                raise ValueError(
                    f"model {name}@{version} is already registered"
                )
            self._register_seq += 1
            model = ModelVersion(
                name, version, artifact, fingerprint,
                registered_order=self._register_seq,
                prebuilt=engine, factory=engine_factory,
            )
            versions[version] = model
            self._order.setdefault(name, []).append(version)
            if make_default and name not in self._routing:
                routing = dict(self._routing)
                routing[name] = _Route(stable=version)
                self._routing = routing
            self._obs_versions.set(
                sum(len(v) for v in self._versions.values())
            )
        return model

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._versions)

    def versions(self, name: str) -> List[str]:
        """Registered versions of ``name`` in registration order."""
        with self._lock:
            if name not in self._order:
                raise ModelNotFound(f"unknown model {name!r}")
            return list(self._order[name])

    def resolve(self, ref: str) -> ModelVersion:
        """``name[@version]`` → :class:`ModelVersion` (registry lookup).

        Bare names and ``@latest`` resolve to the newest *registered*
        version — resolution is about what exists, not what serves;
        :meth:`route` answers the traffic question.
        """
        name, version = parse_model_ref(ref)
        with self._lock:
            versions = self._versions.get(name)
            if not versions:
                raise ModelNotFound(f"unknown model {name!r}")
            if version is None:
                version = self._order[name][-1]
            model = versions.get(version)
            if model is None:
                known = ", ".join(self._order[name])
                raise ModelNotFound(
                    f"model {name!r} has no version {version!r} "
                    f"(registered: {known})"
                )
            return model

    def __contains__(self, ref: str) -> bool:
        try:
            self.resolve(ref)
            return True
        except (ModelNotFound, ValueError):
            return False

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def default_name(self) -> str:
        """The single routed name (requests that omit ``model``)."""
        routing = self._routing
        if len(routing) == 1:
            return next(iter(routing))
        if not routing:
            raise ModelNotFound("registry routes no models")
        raise ValueError(
            "request names no model but the registry serves several: "
            + ", ".join(sorted(routing))
        )

    def route(self, ref: Optional[str] = None,
              key: str = "") -> RouteDecision:
        """Pick the version that serves one request.

        Exact ``name@vN`` refs pin that version (bypassing the canary
        split); bare names and ``@latest`` follow the routing snapshot —
        the stable version, or the canary candidate when the seeded hash
        of ``(seed, name, key)`` falls inside the configured fraction.
        """
        if ref is None:
            name, version = self.default_name(), None
        else:
            name, version = parse_model_ref(ref)
        if version is not None:
            return RouteDecision(self.resolve(f"{name}@{version}"),
                                 pinned=True)
        route = self._routing.get(name)
        if route is None:
            # Registered but unrouted names still resolve to latest.
            return RouteDecision(self.resolve(name), pinned=True)
        if route.canary is not None and route.fraction > 0.0:
            if _assign_canary(route.seed, name, key, route.fraction):
                return RouteDecision(
                    self.resolve(f"{name}@{route.canary}"), canary=True
                )
        return RouteDecision(self.resolve(f"{name}@{route.stable}"))

    def serving(self, name: str) -> str:
        """The stable serving version of ``name``."""
        route = self._routing.get(name)
        if route is None:
            raise ModelNotFound(f"model {name!r} is not routed")
        return route.stable

    def canary_of(self, name: str) -> Optional[Tuple[str, float, int]]:
        """``(version, fraction, seed)`` of the active canary, if any."""
        route = self._routing.get(name)
        if route is None or route.canary is None:
            return None
        return route.canary, route.fraction, route.seed

    def swap(self, name: str, version: str) -> Tuple[str, str]:
        """Atomically make ``version`` the stable serving version.

        One lock, one snapshot flip: requests routed before the flip keep
        the old version's engine for their whole batch; requests routed
        after land on the new version.  A canary pointing at the promoted
        version is cleared (it just won).  Returns ``(old, new)``.
        """
        target = self.resolve(f"{name}@{version}")
        with self._lock:
            route = self._routing.get(name)
            old = route.stable if route is not None else target.version
            if route is not None and route.stable == target.version:
                return old, target.version  # no-op swap
            canary = route.canary if route is not None else None
            fraction = route.fraction if route is not None else 0.0
            seed = route.seed if route is not None else 0
            if canary == target.version:
                canary, fraction = None, 0.0
            routing = dict(self._routing)
            routing[name] = _Route(target.version, canary, fraction, seed)
            self._routing = routing
            self._swaps += 1
        self._obs_swaps.inc()
        return old, target.version

    def set_canary(self, name: str, version: str, fraction: float,
                   seed: int = 0) -> ModelVersion:
        """Route ``fraction`` of ``name``'s traffic to ``version``."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError(
                f"canary fraction must be in (0, 1], got {fraction}"
            )
        target = self.resolve(f"{name}@{version}")
        with self._lock:
            route = self._routing.get(name)
            if route is None:
                raise ModelNotFound(f"model {name!r} is not routed")
            if route.stable == target.version:
                raise ValueError(
                    f"{target.ref} is already the stable version"
                )
            routing = dict(self._routing)
            routing[name] = _Route(route.stable, target.version,
                                   fraction, seed)
            self._routing = routing
        return target

    def clear_canary(self, name: str) -> Optional[str]:
        """Drop the canary split; returns the cleared version (if any)."""
        with self._lock:
            route = self._routing.get(name)
            if route is None or route.canary is None:
                return None
            cleared = route.canary
            routing = dict(self._routing)
            routing[name] = _Route(route.stable, seed=route.seed)
            self._routing = routing
        return cleared

    # ------------------------------------------------------------------ #
    # engines
    # ------------------------------------------------------------------ #
    def engine_factory(self, ref: str) -> Callable[[], object]:
        """Zero-arg factory for supervisor replicas of ``ref``.

        Prebuilt engines are returned as-is (the test/faults path);
        factory-backed versions call their own factory; otherwise each
        call builds a fresh engine from the artifact with the registry's
        ``engine_builder`` — the supervisor's unit of recovery after a
        crash.
        """
        model = self.resolve(ref)

        def factory() -> object:
            if model._prebuilt is not None:
                return model._prebuilt
            if model._factory is not None:
                return model._factory()
            if self._builder is not None:
                return self._builder(model.artifact)
            from repro.serve.engine import build_engine

            return build_engine(model.artifact)

        factory.__name__ = f"engine_factory[{model.ref}]"
        return factory

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def describe(self) -> List[Dict[str, object]]:
        """JSON-ready summary (the ``list-models`` wire response)."""
        with self._lock:
            routing = self._routing
            names = sorted(self._versions)
            out: List[Dict[str, object]] = []
            for name in names:
                route = routing.get(name)
                entry: Dict[str, object] = {
                    "name": name,
                    "versions": list(self._order[name]),
                    "latest": self._order[name][-1],
                    "serving": route.stable if route else None,
                    "fingerprints": {
                        version: model.fingerprint
                        for version, model in self._versions[name].items()
                    },
                }
                if route is not None and route.canary is not None:
                    entry["canary"] = {
                        "version": route.canary,
                        "fraction": route.fraction,
                        "seed": route.seed,
                    }
                out.append(entry)
        return out

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "models": len(self._versions),
                "versions": sum(len(v) for v in self._versions.values()),
                "swaps": self._swaps,
            }


__all__ = [
    "LATEST",
    "ModelNotFound",
    "ModelRegistry",
    "ModelVersion",
    "RouteDecision",
    "artifact_fingerprint",
    "parse_model_ref",
]
