"""Sharded calibration architecture: routers + a sharded store.

One monolithic :class:`~repro.core.calibration_store.CalibrationStore`
serializes capacity, eviction and recalibration behind a single buffer
— the scaling wall for calibration sets meant to keep up with heavy
drift traffic.  This module partitions the calibration stream across N
independent stores:

* a :class:`ShardRouter` assigns every sample a shard (pluggable
  keying: by true label, by feature-space K-means cluster via
  :mod:`repro.ml.cluster`, or a stateless feature-hash fallback);
* a :class:`ShardedCalibrationStore` owns one
  :class:`~repro.core.calibration_store.CalibrationStore` per shard —
  each with its own capacity and eviction policy — while exposing the
  union as a single store: concatenated ``column()`` views (shard 0
  rows, then shard 1, ...) and a :class:`ShardedStoreUpdate` that is a
  drop-in :class:`~repro.core.calibration_store.StoreUpdate` over the
  global combined layout, so every existing incremental consumer (the
  streaming detectors, auxiliary-array carries, the equivalence tests)
  keeps meaning unchanged.

Per-shard eviction and recalibration then run independently — and, in
the streaming wrappers, in parallel — with update work proportional to
the *touched* shards, not the whole calibration set.  See DESIGN.md §4.
"""

from __future__ import annotations

import abc
import functools
import threading
import zlib
from contextlib import contextmanager

import numpy as np

from ..ml.cluster import KMeans, nearest_center
from .calibration_store import CalibrationStore, StoreUpdate, check_batch_columns
from .exceptions import (
    CalibrationError,
    ConfigurationError,
    LockOrderError,
    ServingError,
    ValidationError,
)


class _LockOrderSanitizer:
    """Thread-local held-shard-lock stack: the dynamic lock-order probe.

    The static analyzer (promlint PL002) proves ascending order only
    for literal shard-id sets; this sanitizer is the runtime complement
    for everything the AST cannot see.  While enabled, every
    :meth:`ShardedCalibrationStore.acquire_shards` acquisition is
    checked against the shard locks the calling thread already holds on
    the *same store*: acquiring a shard id not strictly greater than
    every held id raises
    :class:`~repro.core.exceptions.LockOrderError` immediately, turning
    a latent deadlock (two workers nesting overlapping shard sets in
    opposite orders) or a guaranteed self-deadlock (re-acquiring a held
    non-reentrant lock) into a loud test failure.

    Disabled (the default) the hooks are a single boolean check, so the
    production hot path pays nothing; the ``concurrency``-marked test
    suite arms it through an autouse fixture.
    """

    def __init__(self):
        self._local = threading.local()
        self.enabled = False

    def _held(self) -> list:
        held = getattr(self._local, "held", None)
        if held is None:
            held = self._local.held = []
        return held

    def held_shards(self, store) -> tuple:
        """Shard ids of ``store`` held by the calling thread, ascending."""
        return tuple(
            sorted(
                shard_id
                for store_id, shard_id in self._held()
                if store_id == id(store)
            )
        )

    def check(self, store, ordered_ids) -> None:
        """Raise :class:`LockOrderError` unless the acquisition is ascending.

        ``ordered_ids`` is the (sorted) id set one ``acquire_shards``
        call is about to take; it must sit strictly above every id the
        thread already holds on this store.
        """
        held = self.held_shards(store)
        if held and ordered_ids and min(ordered_ids) <= max(held):
            raise LockOrderError(
                f"out-of-order shard lock acquisition: thread holds "
                f"{list(held)} and tried to acquire {list(ordered_ids)}; "
                f"nested acquisitions must be strictly ascending — take "
                f"every needed shard in one acquire_shards() call"
            )

    def push(self, store, shard_id: int) -> None:
        """Record the calling thread now holding ``shard_id`` of ``store``."""
        self._held().append((id(store), shard_id))

    def pop(self, store, shard_id: int) -> None:
        """Forget one held-entry of ``shard_id`` of ``store``, if recorded."""
        entry = (id(store), shard_id)
        held = self._held()
        for index in range(len(held) - 1, -1, -1):
            if held[index] == entry:
                del held[index]
                return


_LOCK_SANITIZER = _LockOrderSanitizer()


def enable_lock_order_sanitizer() -> None:
    """Arm the runtime lock-order sanitizer (process-wide)."""
    _LOCK_SANITIZER.enabled = True


def disable_lock_order_sanitizer() -> None:
    """Disarm the runtime lock-order sanitizer and drop held-state."""
    _LOCK_SANITIZER.enabled = False


def lock_order_sanitizer_enabled() -> bool:
    """Whether the runtime lock-order sanitizer is currently armed."""
    return _LOCK_SANITIZER.enabled


class ShardRouter(abc.ABC):
    """Assigns calibration samples to shards.

    Routers are deterministic functions of the sample (plus any fitted
    state), so replaying a stream reproduces the same shard layout.
    Stateful routers (:class:`ClusterShardRouter`) must be ``fit``
    before they can ``route``; stateless ones are born fitted.
    """

    #: registry name accepted by :func:`resolve_shard_router`
    name: str = "base"

    def __init__(self, n_shards: int):
        if n_shards < 1:
            raise ConfigurationError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = int(n_shards)

    @property
    def is_fitted(self) -> bool:
        """Whether the router can :meth:`route` (stateless routers always can)."""
        return True

    def fit(self, features, labels=None) -> "ShardRouter":
        """Learn routing state from a calibration batch (no-op default)."""
        return self

    def clone_unfitted(self) -> "ShardRouter":
        """A fresh router of the same configuration, fitted state dropped."""
        return self

    @abc.abstractmethod
    def route(self, features, labels=None) -> np.ndarray:
        """Return the shard id of every sample, shape ``(n,)``."""

    def route_keys(self, feature_column, label_column) -> tuple | None:
        """The store columns this router's routes are a pure function of.

        ``None`` (the default) when re-routing may move rows whatever
        the columns hold: a fitted router refits on the rows it routes,
        not on the ones it was fit on.
        """
        return None

    def _check_routes(self, shard_ids: np.ndarray) -> np.ndarray:
        shard_ids = np.asarray(shard_ids, dtype=int)
        if len(shard_ids) and (
            shard_ids.min() < 0 or shard_ids.max() >= self.n_shards
        ):
            raise CalibrationError(
                f"{self!r} produced shard ids outside [0, {self.n_shards})"
            )
        return shard_ids

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}(n_shards={self.n_shards})"


class HashShardRouter(ShardRouter):
    """Stateless fallback: deterministic per-row hash of the features.

    Hashes the canonical float64 byte representation of each feature
    vector (CRC-32), so identical vectors always land on the same shard
    and the distribution is near-uniform without any fitted state.
    """

    name = "hash"

    def route(self, features, labels=None) -> np.ndarray:
        """Return each sample's CRC-32 feature-hash shard id, shape ``(n,)``."""
        features = np.ascontiguousarray(np.asarray(features, dtype=np.float64))
        if features.ndim == 1:
            features = features.reshape(1, -1)
        return self._check_routes(
            [zlib.crc32(row.tobytes()) % self.n_shards for row in features]
        )

    def route_keys(self, feature_column, label_column) -> tuple:
        """The feature bytes alone decide a route."""
        return (feature_column,)


class LabelShardRouter(ShardRouter):
    """Route by true label: ``shard = label % n_shards``.

    Keeps each label's calibration samples together, so per-shard
    eviction cannot starve a label group and label-local recalibration
    touches exactly one shard.  Classification only — the regression
    store has no integer label column.
    """

    name = "label"

    def route(self, features, labels=None) -> np.ndarray:
        """Return ``labels % n_shards`` per sample.

        Raises:
            CalibrationError: when ``labels`` is ``None`` (label-free
                schemas must use the hash or cluster router).
        """
        if labels is None:
            raise CalibrationError(
                "label routing needs the store's label column; use the "
                "'hash' or 'cluster' router for label-free (regression) stores"
            )
        return self._check_routes(np.asarray(labels, dtype=int) % self.n_shards)

    def route_keys(self, feature_column, label_column) -> tuple:
        """The label alone decides a route."""
        return (label_column,)


class ClusterShardRouter(ShardRouter):
    """Route by feature-space K-means cluster (:mod:`repro.ml.cluster`).

    Fit once on the first calibration batch; afterwards every sample is
    assigned its nearest fitted center.  Drifting samples that share a
    feature region then churn the same shard, leaving the others'
    calibration state untouched.  The router keeps only the fitted
    centers (not the K-means model and its per-row labels), so it
    pickles in ``O(n_shards * d)`` bytes.
    """

    name = "cluster"

    def __init__(self, n_shards: int, seed: int = 0, max_iter: int = 50):
        super().__init__(n_shards)
        self.seed = seed
        self.max_iter = max_iter
        self._centers = None

    @property
    def is_fitted(self) -> bool:
        """Whether K-means centers have been fit (required to route)."""
        return self._centers is not None

    @property
    def centers(self) -> np.ndarray | None:
        """The fitted per-shard K-means centers (``None`` before ``fit``).

        Row ``i`` is shard ``i``'s center (fewer rows than shards when
        the fitting batch was small).  The candidate pruner
        (:mod:`repro.core.pruning`) uses these as shard centroids for
        spill-neighbor ordering instead of re-deriving block means.
        """
        return self._centers

    def fit(self, features, labels=None) -> "ClusterShardRouter":
        """Fit K-means centers on a calibration batch.

        Places ``min(n_shards, len(features))`` centers — spare shards
        stay empty until a larger refit.

        Raises:
            CalibrationError: on an empty or non-2-D feature batch.
        """
        features = np.asarray(features, dtype=float)
        if features.ndim != 2 or len(features) == 0:
            raise CalibrationError(
                "cluster routing needs a non-empty 2-D feature batch to fit"
            )
        # Cannot place more centers than samples; spare shards stay empty
        # until a larger refit.
        k = min(self.n_shards, len(features))
        self._centers = KMeans(
            n_clusters=k, max_iter=self.max_iter, seed=self.seed
        ).fit(features).cluster_centers_
        return self

    def load_centers(self, centers) -> "ClusterShardRouter":
        """Install previously fitted centers (checkpoint restore)."""
        self._centers = np.asarray(centers, dtype=float)
        return self

    def clone_unfitted(self) -> "ClusterShardRouter":
        """A same-configuration router with the fitted centers dropped."""
        return ClusterShardRouter(
            self.n_shards, seed=self.seed, max_iter=self.max_iter
        )

    def route(self, features, labels=None) -> np.ndarray:
        """Return each sample's nearest-fitted-center shard id.

        Raises:
            CalibrationError: when the router has not been ``fit``.
        """
        if not self.is_fitted:
            raise CalibrationError(
                "ClusterShardRouter must be fit before routing"
            )
        return self._check_routes(nearest_center(features, self._centers))


# write-once registry: populated at import time, read-only afterwards
_ROUTERS = {  # promlint: disable=PL005
    router.name: router
    for router in (HashShardRouter, LabelShardRouter, ClusterShardRouter)
}


def resolve_shard_router(router, n_shards: int, seed: int = 0) -> ShardRouter:
    """Return a :class:`ShardRouter` from an instance or registry name."""
    if isinstance(router, ShardRouter):
        if router.n_shards != n_shards:
            raise ConfigurationError(
                f"router covers {router.n_shards} shards, store has {n_shards}"
            )
        return router
    if isinstance(router, str):
        try:
            cls = _ROUTERS[router]
        except KeyError:
            raise ConfigurationError(
                f"unknown shard router {router!r}; choose from {sorted(_ROUTERS)}"
            ) from None
        if cls is ClusterShardRouter:
            return cls(n_shards, seed=seed)
        return cls(n_shards)
    raise TypeError(
        f"router must be a ShardRouter or one of {sorted(_ROUTERS)}, "
        f"got {type(router).__name__}"
    )


class ShardedStoreUpdate(StoreUpdate):
    """A global :class:`StoreUpdate` plus its per-shard decomposition.

    ``keep_mask``/``order``/``evicted`` are expressed over the *global*
    combined layout (old global exposed rows, then the added batch), so
    any :class:`StoreUpdate` consumer works unchanged.  They are ``O(n)``
    arrays, built on first read from the decomposition: the streaming
    wrappers fold only the touched shards and never read them, which
    keeps a one-row add ``O(routed shard)``.

    Attributes:
        shard_sizes: every shard's size before the mutation.
        shard_updates: shard id -> that shard's own :class:`StoreUpdate`
            (in the shard's local combined layout).
        shard_batches: shard id -> positions of the added batch routed
            to that shard (empty arrays for pure evictions).
        touched: sorted shard ids that mutated.
    """

    def __init__(self, n_before, n_added, shard_sizes, shard_updates, shard_batches):
        # the base class is a frozen dataclass: set through object
        object.__setattr__(self, "n_before", int(n_before))
        object.__setattr__(self, "n_added", int(n_added))
        object.__setattr__(self, "shard_sizes", tuple(shard_sizes))
        object.__setattr__(self, "shard_updates", dict(shard_updates))
        object.__setattr__(self, "shard_batches", dict(shard_batches))

    @property
    def touched(self) -> tuple:
        """Sorted ids of the shards this mutation actually changed."""
        return tuple(sorted(self.shard_updates))

    @property
    def n_after(self) -> int:
        """Store size after the mutation."""
        return self.n_before + self.n_added - sum(
            len(sub.evicted) for sub in self.shard_updates.values()
        )

    @functools.cached_property
    def order(self) -> np.ndarray:
        """Surviving global combined positions in new exposed order."""
        segments = []
        start = 0
        for shard_id, size in enumerate(self.shard_sizes):
            existing = np.arange(start, start + size, dtype=np.int64)
            start += size
            sub = self.shard_updates.get(shard_id)
            if sub is None:
                segments.append(existing)
                continue
            # the shard's local combined layout (its rows, then its
            # routed slice of the batch) mapped to global positions,
            # gathered through the shard's own order
            routed = self.n_before + self.shard_batches[shard_id]
            segments.append(np.concatenate([existing, routed])[sub.order])
        return np.concatenate(segments) if segments else np.zeros(0, dtype=np.int64)

    @functools.cached_property
    def keep_mask(self) -> np.ndarray:
        """``(n_before + n_added,)`` boolean mask of survivors."""
        keep_mask = np.zeros(self.n_before + self.n_added, dtype=bool)
        keep_mask[self.order] = True
        return keep_mask

    @functools.cached_property
    def evicted(self) -> np.ndarray:
        """Global combined positions that were dropped, sorted."""
        return np.flatnonzero(~self.keep_mask)


class ShardedCalibrationStore:
    """N independent :class:`CalibrationStore` shards behind one facade.

    Args:
        capacity: total capacity, split evenly across shards (first
            shards absorb the remainder) unless ``shard_capacities``
            gives an explicit per-shard split.
        n_shards: number of shards (>= 1).
        router: :class:`ShardRouter` instance or registry name
            (``"hash"``, ``"label"``, ``"cluster"``).  Stateful routers
            are fit automatically on the first added batch.
        policy: one eviction policy spec for every shard, or a sequence
            of ``n_shards`` per-shard specs.
        seed: base seed; shard ``i`` seeds its store with ``seed + i``
            so randomized policies stay independent and reproducible.
        feature_column / label_column: the column names the router keys
            on (``label_column=None`` for label-free schemas).
        shard_capacities: optional explicit per-shard capacities.

    The exposed (global) order is shard 0's rows, then shard 1's, and
    so on, each shard in its own exposed order.  ``column()`` returns a
    cached concatenated snapshot, invalidated on every mutation.
    Arrival counters are *per shard* — each shard numbers its own
    stream, which is what keeps per-shard reservoir statistics honest.
    """

    def __init__(
        self,
        capacity: int,
        n_shards: int,
        router="hash",
        policy="fifo",
        seed: int = 0,
        feature_column: str = "features",
        label_column: str | None = "label",
        shard_capacities=None,
    ):
        if n_shards < 1:
            raise ConfigurationError(f"n_shards must be >= 1, got {n_shards}")
        if shard_capacities is None:
            if capacity < n_shards:
                raise ConfigurationError(
                    f"capacity {capacity} cannot give each of {n_shards} "
                    f"shards at least one slot"
                )
            base, remainder = divmod(int(capacity), n_shards)
            shard_capacities = [
                base + (1 if i < remainder else 0) for i in range(n_shards)
            ]
        else:
            shard_capacities = [int(c) for c in shard_capacities]
            if len(shard_capacities) != n_shards:
                raise ConfigurationError(
                    f"need one capacity per shard, got {len(shard_capacities)} "
                    f"for {n_shards} shards"
                )
        if isinstance(policy, (list, tuple)):
            policies = list(policy)
            if len(policies) != n_shards:
                raise ConfigurationError(
                    f"need one eviction policy per shard, got {len(policies)} "
                    f"for {n_shards} shards"
                )
        else:
            policies = [policy] * n_shards
        self.capacity = sum(shard_capacities)
        self.n_shards = int(n_shards)
        self.seed = seed
        self.feature_column = feature_column
        self.label_column = label_column
        self.router = resolve_shard_router(router, n_shards, seed=seed)
        self.shards = [
            CalibrationStore(cap, pol, seed=seed + i)
            for i, (cap, pol) in enumerate(zip(shard_capacities, policies))
        ]
        self._column_cache: dict[str, np.ndarray] = {}
        # Per-shard immutable column views (the segment cache): one
        # dict per shard, invalidated only when *that* shard mutates.
        # Segments are what the streaming compose layer and the
        # structural-sharing snapshots hold (core/segments.py); shard
        # views never change bytes, so holding them needs no copy.
        self._segment_cache: list[dict[str, np.ndarray]] = [
            {} for _ in range(self.n_shards)
        ]
        # Concurrency plane (see core/serving.py and DESIGN.md §5):
        # per-shard write locks taken by background maintenance workers,
        # and monotone epoch counters tagging every mutation so snapshot
        # staleness is observable.  The locks do NOT make add()/evict()
        # thread-safe on their own — they are the *structural-mutation
        # guard*: clear() and rebalance() refuse to run while a foreign
        # thread holds any shard, because both rewrite shard membership
        # wholesale under a worker's feet.
        self._shard_locks = [threading.Lock() for _ in range(self.n_shards)]
        self._lock_holders: dict[int, int] = {}
        self._holder_guard = threading.Lock()
        self._shard_epochs = [0] * self.n_shards
        self._epoch = 0

    # -- concurrency plane --------------------------------------------------------
    def __getstate__(self):
        """Pickle/deepcopy support: locks are process-local, not state.

        A copied store starts with fresh, unheld locks (a deep copy
        taken while a worker holds a shard would otherwise clone a
        permanently-locked mutex).
        """
        state = self.__dict__.copy()
        state["_shard_locks"] = None
        state["_holder_guard"] = None
        state["_lock_holders"] = {}
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._shard_locks = [threading.Lock() for _ in range(self.n_shards)]
        self._holder_guard = threading.Lock()
        self._lock_holders = {}

    @property
    def epoch(self) -> int:
        """Monotone count of store mutations (adds, evictions, rebuilds)."""
        return self._epoch

    @property
    def shard_epochs(self) -> tuple:
        """Per-shard mutation counters (epoch tagging for staleness)."""
        return tuple(self._shard_epochs)

    def _tag_mutation(self, shard_ids=None) -> None:
        self._epoch += 1
        for shard_id in range(self.n_shards) if shard_ids is None else shard_ids:
            self._shard_epochs[shard_id] += 1

    def _invalidate_columns(self, shard_ids=None) -> None:
        """Drop cached concatenations and the given shards' segment views.

        Called *before* a mutation with the shard ids about to be
        touched (all shards by default), so a policy raising mid-loop
        can never leave a stale cached snapshot outliving a partial
        mutation.
        """
        self._column_cache = {}
        for shard_id in range(self.n_shards) if shard_ids is None else shard_ids:
            self._segment_cache[int(shard_id)].clear()

    @contextmanager
    def acquire_shards(self, shard_ids=None):
        """Hold the write locks of ``shard_ids`` (all shards by default).

        Locks are acquired in ascending shard order, so concurrent
        workers locking overlapping shard sets cannot deadlock.  While
        held, structural mutations (:meth:`clear`, :meth:`rebalance`)
        from *other* threads are rejected; the holding thread itself may
        still run them (a worker rebuilding state inside its own
        critical section is the designed path).

        Nested calls from one thread must keep the global order
        ascending too — the second call's lowest shard id must exceed
        the first call's highest.  The runtime lock-order sanitizer
        (:func:`enable_lock_order_sanitizer`, armed by the
        ``concurrency`` test fixture) raises
        :class:`~repro.core.exceptions.LockOrderError` when that is
        violated instead of letting the acquisition deadlock.
        """
        if shard_ids is None:
            shard_ids = range(self.n_shards)
        ordered = sorted(set(int(s) for s in shard_ids))
        if ordered and (ordered[0] < 0 or ordered[-1] >= self.n_shards):
            raise ValidationError(
                f"shard id out of range for {self.n_shards} shards"
            )
        sanitize = _LOCK_SANITIZER.enabled
        if sanitize:
            _LOCK_SANITIZER.check(self, ordered)
        me = threading.get_ident()
        acquired = []
        try:
            for shard_id in ordered:
                self._shard_locks[shard_id].acquire()
                acquired.append(shard_id)
                with self._holder_guard:
                    self._lock_holders[shard_id] = me
                if sanitize:
                    _LOCK_SANITIZER.push(self, shard_id)
            yield self
        finally:
            for shard_id in reversed(acquired):
                if sanitize:
                    _LOCK_SANITIZER.pop(self, shard_id)
                with self._holder_guard:
                    self._lock_holders.pop(shard_id, None)
                self._shard_locks[shard_id].release()

    def locked_shard_ids(self) -> tuple:
        """Shard ids whose write lock is currently held (any thread)."""
        with self._holder_guard:
            return tuple(sorted(self._lock_holders))

    @contextmanager
    def _structural_mutation(self, operation: str):
        """Hold every shard write lock for a structural mutation.

        Locks the caller does not already hold are taken with
        non-blocking acquires: a shard held by a *foreign* thread (an
        in-flight maintenance worker) makes the mutation raise instead
        of waiting — and because the locks are actually held for the
        duration, a worker cannot slip in between the check and the
        mutation either (no check-then-act window).  Shards already
        held by the calling thread are left alone, so a worker running
        ``rebalance`` inside its own critical section proceeds, and
        the non-reentrant locks cannot self-deadlock.
        """
        me = threading.get_ident()
        with self._holder_guard:
            mine = {
                shard_id
                for shard_id, holder in self._lock_holders.items()
                if holder == me
            }
        acquired = []
        sanitize = _LOCK_SANITIZER.enabled
        try:
            for shard_id in range(self.n_shards):
                if shard_id in mine:
                    continue
                if not self._shard_locks[shard_id].acquire(blocking=False):
                    raise ServingError(
                        f"cannot {operation} while shard lock {shard_id} is "
                        f"held by an in-flight maintenance worker; drain "
                        f"the serving queue first"
                    )
                acquired.append(shard_id)
                with self._holder_guard:
                    self._lock_holders[shard_id] = me
                if sanitize:
                    # non-blocking acquires cannot deadlock, but the
                    # held-set must stay accurate for nested
                    # acquire_shards calls made while we hold these
                    _LOCK_SANITIZER.push(self, shard_id)
            yield self
        finally:
            for shard_id in reversed(acquired):
                if sanitize:
                    _LOCK_SANITIZER.pop(self, shard_id)
                with self._holder_guard:
                    self._lock_holders.pop(shard_id, None)
                self._shard_locks[shard_id].release()

    # -- facade state -------------------------------------------------------------
    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    @property
    def n_seen(self) -> int:
        """Total samples ever streamed through any shard."""
        return sum(shard.n_seen for shard in self.shards)

    @property
    def shard_sizes(self) -> tuple:
        """Current number of stored samples in each shard."""
        return tuple(len(shard) for shard in self.shards)

    @property
    def shard_capacities(self) -> tuple:
        """Per-shard capacity bounds (their sum is :attr:`capacity`)."""
        return tuple(shard.capacity for shard in self.shards)

    @property
    def policies(self) -> tuple:
        """Each shard's resolved :class:`EvictionPolicy` instance."""
        return tuple(shard.policy for shard in self.shards)

    @property
    def column_names(self) -> tuple:
        """The adopted column schema (``()`` before the first add)."""
        for shard in self.shards:
            if shard.column_names:
                return shard.column_names
        return ()

    def _offsets(self) -> np.ndarray:
        """Global exposed start position of each shard's block."""
        sizes = np.fromiter(
            (len(shard) for shard in self.shards), dtype=np.int64,
            count=self.n_shards,
        )
        return np.concatenate([[0], np.cumsum(sizes)[:-1]])

    def _concat(self, parts, key):
        """The cached global view of per-shard parts (read-only).

        A sole part is returned as is: shard views are immutable, so a
        one-shard store hands out its shard's view without a copy.
        """
        cached = self._column_cache.get(key)
        if cached is None:
            if len(parts) == 1:
                cached = parts[0]
            else:
                cached = np.concatenate(parts) if parts else np.zeros(0)
                cached.flags.writeable = False
            self._column_cache[key] = cached
        return cached

    def _schema_shard(self) -> CalibrationStore | None:
        """The first shard that has adopted the column schema."""
        return next(
            (shard for shard in self.shards if shard.column_names), None
        )

    def column(self, name: str) -> np.ndarray:
        """Concatenated shard columns (global exposed order).

        The result is cached and read-only; like every store view its
        bytes never change, so it is safe to hold across mutations
        (refreshed on the next call after one).
        """
        reference = self._schema_shard()
        if reference is None or name not in reference.column_names:
            raise KeyError(
                f"store has no column {name!r}; columns: {self.column_names}"
            )
        parts = [
            self.column_segment(shard_id, name)
            for shard_id, shard in enumerate(self.shards)
            if len(shard)
        ]
        if not parts:
            # fully-emptied store: an empty array of the schema's dtype
            # and trailing shape, exactly like CalibrationStore
            parts = [reference.column(name)]
        return self._concat(parts, name)

    def column_segment(self, shard_id: int, name: str) -> np.ndarray:
        """One shard's column as an immutable view (segment-cached).

        The segment compose layer's read primitive: the returned array
        is the shard's read-only column view, whose bytes never change
        (a later slot-reuse write copies the shard buffer first), so
        compose bundles and published snapshots can hold it without a
        defensive copy.  The cache entry is dropped only when
        *this* shard mutates, which is what makes a post-update
        recomposition ``O(touched shards)``: untouched shards keep
        returning the same block object.

        Args:
            shard_id: which shard's block to return.
            name: column name (store schema).

        Returns:
            The shard's column rows in its exposed order; an empty
            array with the schema dtype and trailing shape for an
            empty shard.

        Raises:
            KeyError: unknown column name.
            IndexError: shard id out of range.
        """
        if not 0 <= shard_id < self.n_shards:
            raise IndexError(
                f"shard id {shard_id} out of range for {self.n_shards} shards"
            )
        cache = self._segment_cache[shard_id]
        try:
            return cache[name]
        except KeyError:
            pass
        reference = self._schema_shard()
        if reference is None or name not in reference.column_names:
            raise KeyError(
                f"store has no column {name!r}; columns: {self.column_names}"
            )
        shard = self.shards[shard_id]
        if len(shard):
            segment = shard.column(name)
        else:
            # empty shard: an empty block with the schema's dtype and
            # trailing shape, mirroring column() on an emptied store
            segment = reference.column(name)[:0]
        cache[name] = segment
        return segment

    def column_segments(self, name: str) -> tuple:
        """Per-shard immutable column views, one block per shard.

        The segment-list view of :meth:`column`:
        ``np.concatenate(column_segments(name))`` equals
        ``column(name)`` value-for-value, but the blocks of untouched
        shards are stable objects across mutations (see
        :meth:`column_segment`).
        """
        return tuple(
            self.column_segment(shard_id, name)
            for shard_id in range(self.n_shards)
        )

    @property
    def arrival(self) -> np.ndarray:
        """Per-shard arrival counters in global exposed order."""
        return self._concat(
            [shard.arrival for shard in self.shards if len(shard)], "__arrival__"
        )

    @property
    def priority(self) -> np.ndarray:
        """Per-sample retention priorities in global exposed order."""
        return self._concat(
            [shard.priority for shard in self.shards if len(shard)], "__priority__"
        )

    def shard_of(self, positions) -> np.ndarray:
        """Map global exposed positions to their owning shard ids."""
        positions = np.asarray(positions, dtype=int)
        bounds = np.cumsum([len(shard) for shard in self.shards])
        return np.searchsorted(bounds, positions, side="right")

    def clone_empty(self) -> "ShardedCalibrationStore":
        """A fresh, empty sharded store with the same configuration."""
        return ShardedCalibrationStore(
            self.capacity,
            self.n_shards,
            router=self.router.clone_unfitted(),
            policy=list(self.policies),
            seed=self.seed,
            feature_column=self.feature_column,
            label_column=self.label_column,
            shard_capacities=list(self.shard_capacities),
        )

    def _schema(self) -> dict | None:
        """Column name -> trailing row shape, or ``None`` pre-schema."""
        reference = self._schema_shard()
        return None if reference is None else reference.schema()

    # -- mutations ----------------------------------------------------------------
    def route(self, **columns) -> np.ndarray:
        """Shard ids the router would assign to a batch of columns.

        A one-shard store routes everything to shard 0 without fitting
        or consulting the router.
        """
        features = columns.get(self.feature_column)
        if features is None:
            raise CalibrationError(
                f"routing needs the {self.feature_column!r} column"
            )
        if self.n_shards == 1:
            return np.zeros(len(features), dtype=int)
        labels = (
            columns.get(self.label_column)
            if self.label_column is not None
            else None
        )
        if not self.router.is_fitted:
            self.router.fit(features, labels)
        return self.router.route(features, labels)

    def add(self, priority=None, shard_ids=None, **columns) -> ShardedStoreUpdate:
        """Route a batch across the shards; evict each down to capacity.

        ``shard_ids`` overrides the router (one id per added row).
        Returns the composed global :class:`ShardedStoreUpdate`.
        """
        # Validate the batch against the store-wide schema before any
        # shard mutates: per-shard validation alone is not atomic — an
        # empty shard would adopt a divergent schema and earlier shards
        # would keep rows the failing add should have rejected.  Shards
        # share the store-wide schema, so they take the checked batch
        # without validating it again.
        arrays, n_new, priorities = check_batch_columns(
            columns, self._schema(), priority
        )
        if shard_ids is None:
            shard_ids = self.route(**arrays)
        shard_ids = np.asarray(shard_ids, dtype=int)
        if len(shard_ids) != n_new:
            raise CalibrationError("shard_ids must align with the added batch")
        touched = []
        if n_new:
            lo, hi = int(shard_ids.min()), int(shard_ids.max())
            if lo < 0 or hi >= self.n_shards:
                raise CalibrationError(
                    f"shard id out of range for {self.n_shards} shards"
                )
            # bincount, not a Python set: a set over a 12k-row batch
            # costs ~0.25 ms
            touched = [lo] if lo == hi else np.flatnonzero(np.bincount(shard_ids)).tolist()

        sizes = self.shard_sizes
        # Invalidate the caches up front: from here every failure mode
        # is exotic (e.g. a custom policy raising mid-loop), and stale
        # cached snapshots must never outlive a partial mutation.  Only
        # the shards receiving rows can mutate, so untouched shards'
        # segment views stay valid (the structural-sharing invariant)
        # and are not even visited.
        self._invalidate_columns(touched)
        shard_updates = {}
        shard_batches = {}
        if len(touched) == 1:
            # the whole batch goes to one shard: pass it through as is
            (s,) = touched
            shard_updates[s] = self.shards[s]._add_checked(arrays, priorities)
            shard_batches[s] = np.arange(n_new)
        else:
            for s in touched:
                routed = np.flatnonzero(shard_ids == s)
                shard_updates[s] = self.shards[s]._add_checked(
                    {name: values[routed] for name, values in arrays.items()},
                    priorities[routed],
                )
                shard_batches[s] = routed
        self._tag_mutation(shard_updates)
        return ShardedStoreUpdate(sum(sizes), n_new, sizes, shard_updates, shard_batches)

    def evict(self, positions) -> ShardedStoreUpdate:
        """Remove samples at global exposed ``positions``."""
        n = len(self)
        positions = np.unique(np.asarray(positions, dtype=int))
        if len(positions) and (positions.min() < -n or positions.max() >= n):
            raise IndexError(f"eviction position out of range for store of {n}")
        positions = positions % n if len(positions) else positions
        sizes = self.shard_sizes
        offsets = self._offsets()
        owners = self.shard_of(positions)
        touched = np.unique(owners)
        self._invalidate_columns(touched)
        shard_updates = {}
        shard_batches = {}
        for s in touched.tolist():
            local = positions[owners == s] - offsets[s]
            shard_updates[s] = self.shards[s].evict(local)
            shard_batches[s] = np.zeros(0, dtype=np.int64)
        self._tag_mutation(shard_updates)
        return ShardedStoreUpdate(n, 0, sizes, shard_updates, shard_batches)

    def clear(self, lifetime: bool = False) -> None:
        """Clear every shard and drop fitted routing state.

        ``lifetime`` forwards to each shard's
        :meth:`CalibrationStore.clear` (reset stream counters too).

        Raises:
            ServingError: when another thread holds any shard write
                lock — clearing under an in-flight fold or shard
                recalibration would rip the rows out from under it.
        """
        with self._structural_mutation("clear() the sharded store"):
            self._tag_mutation()
            self._invalidate_columns()
            for shard in self.shards:
                shard.clear(lifetime=lifetime)
            self.router = self.router.clone_unfitted()

    def replace_column(self, name: str, values) -> None:
        """Overwrite one column in place (same length, global order).

        Raises:
            ServingError: when another thread holds any shard write
                lock — rewriting rows under an in-flight worker would
                tear per-shard state (same guard as :meth:`clear` /
                :meth:`rebalance`; the holding thread itself proceeds).
        """
        values = np.asarray(values)
        if len(values) != len(self):
            raise CalibrationError(
                f"replacement column {name!r} has {len(values)} rows, "
                f"store holds {len(self)}"
            )
        with self._structural_mutation(f"replace column {name!r}"):
            # only this column's buffers change: every other column's
            # cached views stay valid
            self._column_cache.pop(name, None)
            for cache in self._segment_cache:
                cache.pop(name, None)
            start = 0
            for shard in self.shards:
                stop = start + len(shard)
                # emptied shards that keep a schema take the new
                # trailing shape too: every shard must hold the
                # store-wide schema add() validates against
                if shard.column_names:
                    shard.replace_column(name, values[start:stop])
                start = stop
            self._tag_mutation()

    def keeps_routes(self, unchanged) -> bool:
        """Whether re-routing would leave every row in its shard.

        ``unchanged`` names the columns whose stored values a caller
        found bitwise equal to their replacements.  A one-shard store
        never moves a row; otherwise the router must key only on
        unchanged columns (:meth:`ShardRouter.route_keys`), so every row
        routes back to the shard the router put it in (rows placed by an
        explicit ``add(shard_ids=...)`` are taken to be where they
        belong).
        """
        if self.n_shards == 1:
            return True
        keys = self.router.route_keys(self.feature_column, self.label_column)
        return keys is not None and set(keys) <= set(unchanged)

    def replace_outputs(self, unchanged, **columns) -> None:
        """A model update's column swap and rebalance, when no row moves.

        The in-place form of :meth:`replace_column` for every column of
        the update followed by :meth:`rebalance`, for an update
        :meth:`keeps_routes` accepts: ``columns`` are rewritten, and the
        columns named in ``unchanged`` keep their buffers and cached
        views, so blocks (and feature panels) built on them carry over.
        Each shard's stream then restarts in place exactly as a
        rebalance restarts it (:meth:`CalibrationStore.restart_stream`);
        a one-shard store keeps its counters, as there.  The epochs
        advance as on that path, one per column and rebalance's two, so
        a checkpoint does not show which path ran.

        Raises:
            CalibrationError: when re-routing could move a row.
            ServingError: when another thread holds any shard write
                lock (see :meth:`rebalance`).
        """
        if not self.keeps_routes(unchanged):
            raise CalibrationError(
                f"{self.router!r} may move rows when {sorted(columns)} change; "
                f"replace the columns and rebalance() instead"
            )
        with self._structural_mutation("replace the store's outputs"):
            for name, values in columns.items():
                self.replace_column(name, values)
            # the full path rewrites the unchanged columns too
            for _ in unchanged:
                self._tag_mutation()
            if self.n_shards == 1 or len(self) == 0:
                return
            self._tag_mutation()
            self._column_cache.pop("__arrival__", None)
            for shard in self.shards:
                shard.restart_stream()
            self._tag_mutation(
                [s for s, shard in enumerate(self.shards) if len(shard)]
            )

    def rebalance(self, refit_router: bool = True) -> ShardedStoreUpdate | None:
        """Re-route every stored sample through the (re)fit router.

        The escape hatch after the feature space moved (e.g. a model
        update rewrote the feature column): membership-preserving where
        capacity allows, but a shard receiving more rows than its
        capacity evicts down as usual, and per-shard stream counters
        restart (the rebuilt shards see the rows as a fresh stream).
        Returns the composing update, or ``None`` on an empty store.
        A one-shard store has nowhere to move rows: it returns an
        identity update and keeps its stream counters and RNG state.

        Raises:
            ServingError: when another thread holds any shard write
                lock — re-routing every row while a worker folds into a
                shard would corrupt both (see :meth:`acquire_shards`).
        """
        with self._structural_mutation("rebalance() the sharded store"):
            if len(self) == 0:
                return None
            if self.n_shards == 1:
                n = len(self)
                return ShardedStoreUpdate(n, 0, (n,), {}, {})
            self._tag_mutation()
            columns = {name: self.column(name) for name in self.column_names}
            priorities = self.priority
            if refit_router:
                self.router = self.router.clone_unfitted()
            self.shards = [
                shard.clone_empty() for shard in self.shards
            ]
            self._invalidate_columns()
            return self.add(priority=priorities, **columns)

    def __repr__(self) -> str:
        return (
            f"ShardedCalibrationStore(n={len(self)}/{self.capacity}, "
            f"shards={self.shard_sizes}, router={self.router.name!r})"
        )
