"""Streaming Prom detectors: incremental recalibration over a live store.

``PromClassifier.calibrate()`` is a batch operation: every call
recomputes per-expert nonconformity scores and the adaptive tau from
scratch.  In deployment (paper Secs. 5.3-5.4) the
calibration set is a *stream* — relabelled drifting samples arrive in
micro-batches and stale samples are evicted — so full recalibration per
round costs ``O(rounds * n_calibration)`` where ``O(rounds * batch)``
suffices.

The wrappers here own a bounded calibration store and maintain the
detector's calibration state *incrementally*:

* per-expert nonconformity scores are computed only for the new batch
  (every score function is row-wise pure, so per-batch scores are
  bit-identical to batch recomputation) and carried across the store
  mutation with one survivor gather (``StoreUpdate.order``), the same
  gather the store applies to its own columns;
* the automatic tau is re-resolved against the surviving features via
  the same bounded kernel (``median_pairwise_tau``) a fresh
  ``calibrate()`` would use.

The store is a :class:`~repro.core.sharding.ShardedCalibrationStore`
(one shard by default) and the wrapper keeps **per-shard** scores and
tau.  An update folds only into the shards its batch touched —
untouched shards' state is not even copied — and the global detector
state is re-composed *segment-aware* (:mod:`repro.core.segments`):
per-shard score/feature/label blocks stay immutable segments in a
:class:`~repro.core.segments.SegmentBundle`, and tau is re-resolved
from a per-segment row gather — so a fold costs ``O(touched shards)``,
never ``O(store)``.  The bundle is the detector's only calibration
state: every compose installs it as ``prom._segment_bundle``, and the
one-segment bundle a full rebuild's ``calibrate()`` installs is
replaced as soon as its score blocks are sliced into shards.
:meth:`detector_snapshot` builds structural-sharing snapshots from the
same bundle — untouched shards' blocks are shared (not copied) between
consecutive publishes, which is what makes the async serving plane's
snapshot publish ``O(touched shards)`` too (DESIGN.md §6).  Full shard
recalibrations (:meth:`recalibrate_shards`) run in a
``ThreadPoolExecutor`` when ``parallel`` workers are configured (the
NumPy kernels release the GIL); micro-batch folds stay serial — their
per-shard work is far below the pool-spawn cost.  See DESIGN.md §4.

The invariant, property-tested in ``tests/core/test_streaming.py`` and
``tests/core/test_sharding.py``: after ANY sequence of
``update()``/``evict()`` calls — under every eviction policy and every
shard router — the wrapped detector is **decision-identical**
(bit-for-bit, including credibility and confidence) to a fresh detector
calibrated on the store's surviving samples (in store order).  For the
regressor the cluster pseudo-labeller is fixed at ``calibrate()`` time
(new samples are assigned, never re-clustered), so the equivalence
reference is :meth:`StreamingPromRegressor.refresh` with
``refit_clusters=False``; call ``refresh()`` to re-fit clusters after
heavy drift.
"""

from __future__ import annotations

import copy
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .calibration_store import StoreUpdate
from .exceptions import CalibrationError, ValidationError
from .prom import (
    PromClassifier,
    PromRegressor,
    _check_calibration_inputs,
    _check_classification_inputs,
)
from .segments import SegmentBundle, TauSketch, make_field
from .sharding import ShardedCalibrationStore
from .weighting import median_pairwise_tau


def _as_columns(extra) -> dict:
    if extra is None:
        return {}
    return dict(extra)


def _check_eviction(store, positions) -> None:
    """Reject out-of-range evictions and ones that would empty the store.

    Runs before anything mutates, so a rejected eviction leaves the
    store, the detector and the epoch untouched.
    """
    n = len(store)
    positions = np.asarray(positions, dtype=int).ravel()
    if len(positions) and (positions.min() < -n or positions.max() >= n):
        raise ValidationError(
            f"eviction position out of range for a store of {n} samples"
        )
    if n - len(np.unique(positions % max(1, n))) < 1:
        raise CalibrationError("eviction would empty the calibration store")


def _same_bits(new, stored) -> bool:
    """Whether two arrays hold the same dtype, shape and bytes.

    Value equality is not enough: ``-0.0 == 0.0``, but the hash router
    keys on the bytes.
    """
    if new.dtype != stored.dtype:
        return False
    # validated columns are numeric (float64 features, integer labels):
    # an unsigned view of the same item size compares their bytes
    unsigned = np.dtype(f"u{new.itemsize}")
    return np.array_equal(new.view(unsigned), stored.view(unsigned))


def _shard_tau(weighting, features) -> float:
    """One shard's tau: the fixed tau when set, else the bounded kernel."""
    if weighting.tau is not None:
        return float(weighting.tau)
    if features is None or len(features) == 0:
        return 1.0
    return median_pairwise_tau(features)


def _make_store(capacity, eviction, seed, n_shards, router, label_column):
    return ShardedCalibrationStore(
        capacity,
        n_shards,
        router=router,
        policy=eviction,
        seed=seed,
        label_column=label_column,
    )


@dataclass
class _ShardState:
    """One shard's slice of the streaming calibration state.

    ``scores`` holds one block per expert, aligned with the shard
    store's exposed row order; ``tau`` is the shard-local feature
    scale (diagnostic — the detector's global tau is always re-resolved
    on the union), kept lazily: folds mark it stale (``None``) and
    :attr:`_ShardMixin.shard_taus` recomputes on read, so the bounded
    tau kernel never rides the per-update hot path once per shard;
    ``clusters`` carries the regressor's pseudo-labels.
    """

    scores: list
    tau: float | None = field(default=None)
    clusters: np.ndarray | None = field(default=None)


class _ShardMixin:
    """Shard, segment-compose and snapshot bookkeeping shared by both
    streaming wrappers.

    The wrappers hold the detector's global state as a
    :class:`~repro.core.segments.SegmentBundle` of immutable per-shard
    blocks, installed on the detector as ``prom._segment_bundle``.
    """

    #: compose spec, set per wrapper class: bundle field -> store
    #: column for store-backed fields, and the bundle fields whose
    #: blocks live on ``_ShardState`` (field name minus the underscore).
    #: The detector's ``_label_key`` names the p-value grouping field.
    _compose_store_fields: dict = {}
    _compose_state_fields: tuple = ()

    def _retune_composed_tau(self, retune_tau: bool, feature_field) -> None:
        """Re-resolve the detector's tau from the feature segments.

        Delegates to the wrapper's incremental
        :class:`~repro.core.segments.TauSketch`: the sketch gathers
        exactly the rows the flat ``resolve_tau`` would subsample
        (bit-identical, ``O(max_rows * d)``, no flat concat) and skips
        the median kernel entirely when no sampled row changed across
        the mutation.
        """
        if not retune_tau:
            return
        self._tau_sketch.resolve(self.prom.weighting, feature_field)

    @property
    def _feature_dim(self) -> int:
        """Calibrated feature dimensionality."""
        return int(self.prom._segment_bundle.fields["_features"].trailing_shape[0])

    def _build_bundle(self, touched=None) -> dict:
        """Assemble the :class:`SegmentBundle` from the current shard
        states, per the class compose spec, and install it on the
        detector; returns the field dict.

        Without ``touched`` the bundle is built from scratch (after a
        full rebuild or a restore).  ``touched`` lists the shards a fold
        or rescore changed: only those shards' blocks are fetched —
        every other block is the previous bundle's.  The bundle records
        the store's current router, the one its shards were routed by.
        """
        prom = self.prom
        states = self._shard_states
        previous = None if touched is None else prom._segment_bundle
        n_experts = len(self._compose_experts())
        touched = None if previous is None else sorted(touched)

        def build_field(old, block_of):
            if touched is None:
                return make_field(block_of(s) for s in range(len(states)))
            blocks = list(old.segments)
            changed = False
            for s in touched:
                block = block_of(s)
                changed = changed or block is not blocks[s]
                blocks[s] = block
            return make_field(blocks) if changed else old

        old_fields = {} if previous is None else previous.fields
        old_scores = (None,) * n_experts if previous is None else previous.score_fields
        fields = {}
        for name, column in self._compose_store_fields.items():
            fields[name] = build_field(
                old_fields.get(name),
                lambda s, column=column: self.store.column_segment(s, column),
            )
        for name in self._compose_state_fields:
            fields[name] = build_field(
                old_fields.get(name),
                lambda s, attr=name.lstrip("_"): getattr(states[s], attr),
            )
        score_fields = tuple(
            build_field(old_scores[e], lambda s, e=e: states[s].scores[e])
            for e in range(n_experts)
        )
        prom._segment_bundle = SegmentBundle(
            fields=fields,
            score_fields=score_fields,
            label_key=prom._label_key,
            router=self.store.router,
        )
        if previous is not None:
            # Carry the newest built evaluation view across the
            # mutation (at most one generation is kept alive): panels
            # over untouched shards are inherited instead of
            # re-gathered when the new bundle's view is built.
            prom._segment_bundle._inherit_view = (
                previous._view
                if previous._view is not None
                else previous._inherit_view
            )
        return fields

    def _rebuild_shard_states(self) -> None:
        """Slice the detector's freshly calibrated state into per-shard
        states and build the compose bundle, which replaces it.

        Runs right after a full ``calibrate()``/``refresh()``, whose
        one-segment bundle matches the store row for row.  Score (and
        cluster) blocks are zero-copy slices of its blocks;
        feature/label blocks come from the store's segment cache so
        later folds can reuse them by identity.
        """
        bundle = self.prom._segment_bundle
        scores = [field.flat() for field in bundle.score_fields]
        clusters = bundle.fields.get("_clusters")
        clusters = None if clusters is None else clusters.flat()
        self._shard_states = [
            _ShardState(
                scores=[expert[start:stop] for expert in scores],
                clusters=None if clusters is None else clusters[start:stop],
            )
            for _, start, stop in self._shard_blocks()
        ]
        self._build_bundle()

    def _compose_global(self, retune_tau: bool, touched=None) -> None:
        """Recompose the detector's global state from per-shard segments.

        Builds a fresh immutable :class:`~repro.core.segments.SegmentBundle`
        in ``O(touched shards)`` (see :meth:`_build_bundle`): untouched
        shards contribute the same block objects as the previous bundle
        (segment order is the store's global exposed order), tau is
        re-resolved from a row gather over the segments.  No flat array
        is rebuilt: the detector evaluates through the bundle.
        """
        fields = self._build_bundle(touched)
        self._retune_composed_tau(retune_tau, fields["_features"])

    @property
    def epoch(self) -> int:
        """Monotone counter bumped on every calibration-state mutation.

        The serving plane (:mod:`repro.core.serving`) tags published
        snapshots with the epoch they were built at, so snapshot
        staleness is ``wrapper.epoch - snapshot.epoch`` mutations.
        """
        return self._epoch

    def _bump_epoch(self) -> None:
        self._epoch += 1

    def detector_snapshot(self):
        """A frozen, immutable clone of the wrapped detector.

        The clone shares the detector's configuration (functions,
        committee, thresholds) plus a frozen weighting (tau state), and
        its calibration state is private to the snapshot — evaluating
        it is safe from any thread while the live wrapper keeps folding
        updates.  This is the double-buffered read side of the async
        serving loop (DESIGN.md §5).

        The snapshot is structural-sharing (DESIGN.md §6): the clone
        references the live :class:`~repro.core.segments.SegmentBundle`
        of immutable per-shard blocks, so freezing is ``O(n_shards)``
        pointer work, not an ``O(store)`` deep copy.  Untouched shards'
        blocks are therefore *shared* (``np.shares_memory``) between
        consecutive snapshots; folds replace touched shards' blocks
        instead of mutating them, and store-backed blocks are immutable
        store views, so shared blocks can never change under a
        published snapshot.  The copy carries the live detector's
        ``_segment_bundle``, its only calibration state.

        A snapshot decides like the live detector: the predicted-label
        kernel, with each batch's detail fields computed on their first
        read against the immutable blocks the batch was decided on
        (DESIGN.md §2, "Verdict vs detail").  A held batch keeps only
        those blocks alive; the store adopts rows with append headroom,
        so folds after a calibrate keep writing the buffers such
        blocks view instead of regrowing them.
        """
        self.prom._require_calibrated()
        prom = copy.copy(self.prom)
        prom.weighting = copy.copy(self.prom.weighting)
        return prom

    @property
    def n_shards(self) -> int:
        return self.store.n_shards

    @property
    def shard_sizes(self) -> tuple:
        return self.store.shard_sizes

    @property
    def shard_taus(self) -> tuple:
        """Per-shard feature-scale taus (empty before calibration).

        Computed lazily: a fold marks its shard's tau stale, and this
        accessor re-resolves stale entries with the same bounded kernel
        a shard-local recalibration would use.
        """
        taus = []
        for shard_id, state in enumerate(self._shard_states):
            if state.tau is None:
                shard = self.store.shards[shard_id]
                features = shard.column("features") if len(shard) else None
                state.tau = _shard_tau(self.prom.weighting, features)
            taus.append(state.tau)
        return tuple(taus)

    def _map_shards(self, shard_ids, fn, parallel: bool = True) -> None:
        """Run ``fn(shard_id)`` serially or on the thread pool.

        Shard work mutates disjoint per-shard states, and the NumPy
        scoring kernels release the GIL, so a ThreadPoolExecutor gives
        real parallel eviction/recalibration across shards.  Callers
        pass ``parallel=False`` for micro-batch folds, whose per-shard
        work (an ``O(batch + shard)`` gather) is far below the
        pool-spawn cost; whole-shard rescoring is where threads pay.
        """
        shard_ids = list(shard_ids)
        workers = (self.parallel or 0) if parallel else 0
        if workers > 1 and len(shard_ids) > 1:
            with ThreadPoolExecutor(
                max_workers=min(workers, len(shard_ids))
            ) as pool:
                # list() propagates the first worker exception
                list(pool.map(fn, shard_ids))
        else:
            for shard_id in shard_ids:
                fn(shard_id)

    def _apply(self, update, new_scores, retune_tau: bool, new_clusters=None):
        """Fold the batch into the touched shards, then recompose.

        A shard's new blocks are its old ones followed by the rows of
        the batch routed to it, gathered in the store's new exposed
        order (``StoreUpdate.order``) — the gather the store applies to
        its own columns, so scores (and the regressor's ``clusters``)
        stay aligned with the store rows.
        """

        def fold(shard_id):
            state = self._shard_states[shard_id]
            order = update.shard_updates[shard_id].order
            routed = update.shard_batches[shard_id]
            state.scores = [
                np.concatenate([old, new[routed]])[order]
                for old, new in zip(state.scores, new_scores)
            ]
            if new_clusters is not None:
                state.clusters = np.concatenate(
                    [state.clusters, new_clusters[routed]]
                )[order]
            state.tau = None  # stale; shard_taus recomputes on read

        self._map_shards(update.touched, fold, parallel=False)
        self._compose_global(retune_tau, update.touched)

    def _shard_blocks(self):
        """Yield ``(shard_id, start, stop)`` global row blocks."""
        start = 0
        for shard_id, size in enumerate(self.store.shard_sizes):
            yield shard_id, start, start + size
            start += size


class StreamingPromClassifier(_ShardMixin):
    """Online wrapper around a :class:`~repro.core.prom.PromClassifier`.

    Args:
        prom: the detector to manage; a default one is created when
            omitted.  Evaluation methods (``evaluate``,
            ``evaluate_one``, ``prediction_region_batch``) delegate to
            it unchanged.
        capacity: calibration-store cap (paper: 1000), total across
            shards.
        eviction: eviction policy instance or name (``"fifo"``,
            ``"reservoir"``, ``"lowest_weight"``), or a sequence giving
            each shard its own policy.
        seed: RNG seed of the store (randomized policies); shard ``i``
            uses ``seed + i``.
        n_shards: number of calibration shards.
        router: shard router name or instance (``"hash"``, ``"label"``,
            ``"cluster"``); a one-shard store never consults it.
        parallel: thread-pool width for whole-shard rescoring in
            :meth:`recalibrate_shards` (``None``/``1`` = serial);
            micro-batch folds stay serial either way.

    ``calibrate()`` resets the store and performs one full calibration;
    ``update()`` folds a micro-batch in incrementally.  Extra aligned
    columns (e.g. raw model inputs) may ride along in the store via
    ``extra=`` — the schema is fixed by the first call.
    """

    _compose_store_fields = {"_features": "features", "_labels": "label"}
    _compose_state_fields = ()

    def _compose_experts(self):
        """The expert list whose scores the compose layer carries."""
        return self.prom.functions

    def _compose_n_labels(self) -> int:
        """The p-value grouping-label space size (class count)."""
        return self.prom._n_classes

    def __init__(
        self,
        prom=None,
        capacity: int = 1000,
        eviction="fifo",
        seed: int = 0,
        n_shards: int = 1,
        router="hash",
        parallel: int | None = None,
    ):
        self.prom = prom or PromClassifier()
        self.store = _make_store(
            capacity, eviction, seed, n_shards, router, label_column="label"
        )
        self.parallel = parallel
        self._shard_states = []
        self._epoch = 0
        self._tau_sketch = TauSketch()

    # -- state --------------------------------------------------------------------
    @property
    def is_calibrated(self) -> bool:
        """Whether the wrapped detector has been calibrated."""
        return self.prom.is_calibrated

    @property
    def calibration_size(self) -> int:
        """Number of calibration samples backing the detector."""
        return self.prom.calibration_size

    # -- lifecycle ----------------------------------------------------------------
    def calibrate(
        self, features, probabilities, labels, priority=None, extra=None
    ) -> "StreamingPromClassifier":
        """Reset the store to this batch and fully calibrate the detector.

        When the batch exceeds ``capacity`` the eviction policy trims it
        first, so the cap holds from the very first calibration.
        """
        features, probabilities, labels = _check_classification_inputs(
            features, probabilities, labels
        )
        # Validated once above; build the new store aside and swap it
        # in only once the detector calibrated on it, so a failure
        # leaves store and detector as they were.
        staged = self.store.clone_empty()
        staged.add(
            priority=priority,
            features=features,
            probabilities=probabilities,
            label=labels,
            **_as_columns(extra),
        )
        self.prom._calibrate_checked(
            staged.column("features"),
            staged.column("probabilities"),
            staged.column("label"),
        )
        self.store = staged
        self._rebuild_shard_states()
        self._bump_epoch()
        return self

    def update(
        self,
        features,
        probabilities,
        labels,
        priority=None,
        extra=None,
        retune_tau: bool = True,
    ) -> StoreUpdate:
        """Fold a micro-batch into the calibration state incrementally.

        Scores are computed for the new batch only and carried across
        the store mutation (touched shards only); tau is re-resolved against the surviving
        features (pass ``retune_tau=False`` to freeze it — faster, but
        the detector then diverges from a fresh ``calibrate()`` until
        the next ``refresh``).  Returns the :class:`StoreUpdate`
        describing who survived.
        """
        self.prom._require_calibrated()
        features, probabilities, labels = _check_classification_inputs(
            features, probabilities, labels, n_classes=self.prom._n_classes
        )
        prom = self.prom
        new_scores = [
            function.score(probabilities, labels) for function in prom.functions
        ]
        update = self.store.add(
            priority=priority,
            features=features,
            probabilities=probabilities,
            label=labels,
            **_as_columns(extra),
        )
        self._apply(update, new_scores, retune_tau)
        self._bump_epoch()
        return update

    def evict(self, positions, retune_tau: bool = True) -> StoreUpdate:
        """Remove calibration samples by (global) store position."""
        self.prom._require_calibrated()
        _check_eviction(self.store, positions)
        update = self.store.evict(positions)
        empty = [np.zeros(0)] * len(self.prom.functions)
        self._apply(update, empty, retune_tau)
        self._bump_epoch()
        return update

    def recalibrate_shards(
        self, shard_ids=None, retune_tau: bool = True
    ) -> "StreamingPromClassifier":
        """Fully rescore the given shards from their store contents.

        The shard-local counterpart of :meth:`refresh`: scoring cost is
        proportional to the touched shards' rows, not the whole
        calibration set, and shards rescore in parallel when
        ``parallel`` workers are configured.  ``shard_ids=None``
        rescores every shard.
        """
        self.prom._require_calibrated()
        prom = self.prom
        if shard_ids is None:
            shard_ids = range(self.store.n_shards)

        def rescore(shard_id):
            shard = self.store.shards[shard_id]
            state = self._shard_states[shard_id]
            if len(shard) == 0:
                state.scores = [np.zeros(0) for _ in prom.functions]
                state.tau = None
                return
            probabilities = shard.column("probabilities")
            labels = shard.column("label")
            state.scores = [
                function.score(probabilities, labels)
                for function in prom.functions
            ]
            state.tau = None

        self._map_shards(shard_ids, rescore)
        self._compose_global(retune_tau, shard_ids)
        self._bump_epoch()
        return self

    def refresh(self) -> "StreamingPromClassifier":
        """Full recalibration from the current store contents.

        The batch-path reference the incremental path must match; also
        the escape hatch after ``retune_tau=False`` updates.  Every
        stored row was validated on its way in, so the columns are not
        checked again.
        """
        self.prom._calibrate_checked(
            self.store.column("features"),
            self.store.column("probabilities"),
            self.store.column("label"),
        )
        self._rebuild_shard_states()
        self._bump_epoch()
        return self

    def replace_outputs(self, features, probabilities, labels) -> None:
        """Swap the derived columns after a model update, then recalibrate.

        Membership is unchanged — same samples, same store order — but
        the deployed model changed, so every stored probability row (and
        possibly every feature vector) is stale and every score changes.

        When the features come back bitwise unchanged (a static feature
        extractor) and no row would change shard
        (:meth:`~repro.core.sharding.ShardedCalibrationStore.keeps_routes`:
        hash routing, label routing with unchanged labels, or one
        shard), only the outputs are rescored: the store rewrites the
        changed columns and restarts its per-shard streams in place, and
        :meth:`recalibrate_shards` rescores every shard, while tau, the
        feature blocks and their panels carry over.  Otherwise the store
        re-fits its router and re-routes every sample (the feature space
        the router keyed on moved too), which may trigger per-shard
        evictions when the new routing overloads a shard, and the
        detector is rebuilt by :meth:`refresh`.  Both paths leave the
        same state, bitwise.
        """
        features, probabilities, labels = _check_classification_inputs(
            features, probabilities, labels
        )
        store = self.store
        columns = {"features": features, "probabilities": probabilities, "label": labels}
        unchanged = tuple(
            name
            for name in ("features", "label")
            if _same_bits(columns[name], store.column(name))
        )
        if "features" in unchanged and store.keeps_routes(unchanged):
            store.replace_outputs(
                unchanged,
                **{name: values for name, values in columns.items() if name not in unchanged},
            )
            self.prom._n_classes = probabilities.shape[1]
            self.recalibrate_shards()
            return
        for name, values in columns.items():
            store.replace_column(name, values)
        store.rebalance(refit_router=True)
        self.refresh()

    # -- deployment (delegation) --------------------------------------------------
    def evaluate(self, features, probabilities, predicted_labels=None, chunk_size=None):
        """Batch-evaluate via the wrapped detector (see
        :meth:`~repro.core.prom.PromClassifier.evaluate`)."""
        return self.prom.evaluate(features, probabilities, predicted_labels, chunk_size)

    def evaluate_one(self, feature, probability_row, predicted_label=None):
        """Evaluate one sample (see
        :meth:`~repro.core.prom.PromClassifier.evaluate_one`)."""
        return self.prom.evaluate_one(feature, probability_row, predicted_label)

    def prediction_region_batch(self, features, probabilities, chunk_size=None):
        """Committee prediction-region membership for a batch (see
        :meth:`~repro.core.prom.PromClassifier.prediction_region_batch`)."""
        return self.prom.prediction_region_batch(features, probabilities, chunk_size)

    def __repr__(self) -> str:
        return f"StreamingPromClassifier(store={self.store!r})"


class StreamingPromRegressor(_ShardMixin):
    """Online wrapper around a :class:`~repro.core.prom.PromRegressor`.

    The regression detector has two batch-coupled stages the classifier
    lacks: K-means pseudo-labels and (optionally) leave-one-out
    residual references.  Streaming handles them as follows:

    * the clusterer is **fixed** at ``calibrate()`` time; new samples
      are assigned to their nearest cluster (``clusterer_.assign``),
      never re-clustered.  Call :meth:`refresh` with
      ``refit_clusters=True`` after heavy drift.
    * ``calibration_residuals="true"`` (the default prom built here)
      keeps scores per-sample pure, enabling the incremental fast path
      (per touched shard).  A ``"loo"`` detector couples
      every score to its neighbours, so ``update()`` transparently
      falls back to a full recompute of the LOO residuals — with the
      *fitted* clusterer, like every other update path — correct and
      still capacity-capped, just not amortized.

    Sharding routes on features (``"hash"`` or ``"cluster"``; there is
    no integer label column to key ``"label"`` routing on).
    """

    _compose_store_fields = {"_features": "features", "_targets": "target"}
    _compose_state_fields = ("_clusters",)

    def _compose_experts(self):
        """The expert list whose scores the compose layer carries."""
        return self.prom.score_functions

    def _compose_n_labels(self) -> int:
        """The grouping-label space size (fitted cluster count)."""
        return self.prom.clusterer_.k_

    def __init__(
        self,
        prom=None,
        capacity: int = 1000,
        eviction="fifo",
        seed: int = 0,
        n_shards: int = 1,
        router="hash",
        parallel: int | None = None,
    ):
        self.prom = prom or PromRegressor(calibration_residuals="true")
        self.store = _make_store(
            capacity, eviction, seed, n_shards, router, label_column=None
        )
        self.parallel = parallel
        self._shard_states = []
        self._epoch = 0
        self._tau_sketch = TauSketch()

    @property
    def is_calibrated(self) -> bool:
        """Whether the wrapped detector has been calibrated."""
        return self.prom.is_calibrated

    @property
    def calibration_size(self) -> int:
        """Number of calibration samples backing the detector."""
        return self.prom.calibration_size

    # -- lifecycle ----------------------------------------------------------------
    def calibrate(
        self, features, predictions, targets, priority=None, extra=None
    ) -> "StreamingPromRegressor":
        """Reset the store to this batch and fully calibrate (fits clusters)."""
        features, predictions, targets = _check_calibration_inputs(
            features, predictions, targets
        )
        # Validated once above; staged swap, as in the classifier: a
        # calibration failure must not leave store and detector desynced.
        staged = self.store.clone_empty()
        staged.add(
            priority=priority,
            features=features,
            prediction=predictions.astype(float).ravel(),
            target=np.asarray(targets, dtype=float).ravel(),
            **_as_columns(extra),
        )
        self.prom._calibrate_checked(
            staged.column("features"),
            staged.column("prediction"),
            staged.column("target"),
        )
        self.store = staged
        self._rebuild_shard_states()
        self._bump_epoch()
        return self

    def _full_calibrate(self):
        """Recalibrate from the store (fits clusters) and rebuild state.

        Stored rows were validated on their way in.
        """
        self.prom._calibrate_checked(
            self.store.column("features"),
            self.store.column("prediction"),
            self.store.column("target"),
        )
        self._rebuild_shard_states()
        self._bump_epoch()

    def update(
        self,
        features,
        predictions,
        targets,
        priority=None,
        extra=None,
        retune_tau: bool = True,
    ) -> StoreUpdate:
        """Fold a micro-batch into the calibration state.

        Incremental when the detector uses per-sample (``"true"``)
        residuals — touching only the shards the batch routed to;
        ``"loo"`` falls back to recomputing all residuals
        (fitted clusterer kept — only :meth:`refresh` re-clusters).
        """
        self.prom._require_calibrated()
        features, predictions, targets = _check_calibration_inputs(
            features, predictions, targets
        )
        predictions = predictions.astype(float).ravel()
        targets = np.asarray(targets, dtype=float).ravel()
        if features.shape[1] != self._feature_dim:
            raise CalibrationError(
                f"feature dimensionality mismatch: calibrated with "
                f"{self._feature_dim}, got {features.shape[1]}"
            )
        columns = dict(
            features=features,
            prediction=predictions,
            target=targets,
            **_as_columns(extra),
        )
        if self.prom.calibration_residuals != "true":
            update = self.store.add(priority=priority, **columns)
            self.refresh(refit_clusters=False, retune_tau=retune_tau)
            return update

        prom = self.prom
        new_clusters = np.asarray(prom.clusterer_.assign(features), dtype=int)
        new_scores = [
            function.score(predictions, targets) for function in prom.score_functions
        ]
        update = self.store.add(priority=priority, **columns)
        self._apply(update, new_scores, retune_tau, new_clusters)
        self._bump_epoch()
        return update

    def evict(self, positions, retune_tau: bool = True) -> StoreUpdate:
        """Remove calibration samples by (global) store position."""
        self.prom._require_calibrated()
        _check_eviction(self.store, positions)
        update = self.store.evict(positions)
        if self.prom.calibration_residuals != "true":
            self.refresh(refit_clusters=False, retune_tau=retune_tau)
            return update
        empty = [np.zeros(0)] * len(self.prom.score_functions)
        self._apply(update, empty, retune_tau, np.zeros(0, dtype=int))
        self._bump_epoch()
        return update

    def recalibrate_shards(
        self, shard_ids=None, retune_tau: bool = True
    ) -> "StreamingPromRegressor":
        """Fully rescore the given shards from their store contents.

        Shard-local scoring needs per-sample residuals; a ``"loo"``
        detector couples scores across shards, so it falls back to the
        global ``refresh(refit_clusters=False)``.
        """
        self.prom._require_calibrated()
        if self.prom.calibration_residuals != "true":
            return self.refresh(refit_clusters=False, retune_tau=retune_tau)
        prom = self.prom
        if shard_ids is None:
            shard_ids = range(self.store.n_shards)

        def rescore(shard_id):
            shard = self.store.shards[shard_id]
            state = self._shard_states[shard_id]
            if len(shard) == 0:
                state.scores = [np.zeros(0) for _ in prom.score_functions]
                state.clusters = np.zeros(0, dtype=int)
                state.tau = None
                return
            features = shard.column("features")
            predictions = shard.column("prediction")
            targets = shard.column("target")
            state.clusters = np.asarray(
                prom.clusterer_.assign(features), dtype=int
            )
            state.scores = [
                function.score(predictions, targets)
                for function in prom.score_functions
            ]
            state.tau = None

        self._map_shards(shard_ids, rescore)
        self._compose_global(retune_tau, shard_ids)
        self._bump_epoch()
        return self

    def refresh(
        self, refit_clusters: bool = True, retune_tau: bool = True
    ) -> "StreamingPromRegressor":
        """Full recalibration from the current store contents.

        ``refit_clusters=False`` keeps the fitted pseudo-labeller and
        recomputes everything else (scores, assignments, tau) from
        scratch — the batch-path reference that the incremental
        ``update()`` is property-tested against.  ``retune_tau=False``
        keeps the current tau (only honored with
        ``refit_clusters=False``; a full ``calibrate()`` always
        re-resolves it).
        """
        if refit_clusters:
            self._full_calibrate()
            return self
        prom = self.prom
        prom._require_calibrated()
        features = self.store.column("features")
        predictions = self.store.column("prediction")
        targets = self.store.column("target")
        if prom.calibration_residuals == "loo":
            reference = prom._loo_targets(features, targets)
        else:
            reference = targets
        scores = [
            function.score(predictions, reference)
            for function in prom.score_functions
        ]
        clusters = np.asarray(prom.clusterer_.assign(features), dtype=int)
        if retune_tau:
            prom.weighting.resolve_tau(features)
        prom._install_state(
            {"_features": features, "_targets": targets, "_clusters": clusters},
            scores,
        )
        self._rebuild_shard_states()
        self._bump_epoch()
        return self

    def replace_outputs(self, features, predictions, targets) -> None:
        """Swap derived columns after a model update, then recalibrate.

        Keeps membership and the fitted clusterer is re-fit as part of
        the full recalibration (the model's feature space moved, so the
        old pseudo-labels are stale too).  The store re-routes on the
        new features first (see the classifier's
        :meth:`~StreamingPromClassifier.replace_outputs`).
        """
        features, predictions, targets = _check_calibration_inputs(
            features, predictions, targets
        )
        self.store.replace_column("features", features)
        self.store.replace_column("prediction", predictions.astype(float).ravel())
        self.store.replace_column(
            "target", np.asarray(targets, dtype=float).ravel()
        )
        self.store.rebalance(refit_router=True)
        self._full_calibrate()

    # -- deployment (delegation) --------------------------------------------------
    def evaluate(self, features, predictions, chunk_size=None):
        """Batch-evaluate via the wrapped detector (see
        :meth:`~repro.core.prom.PromRegressor.evaluate`)."""
        return self.prom.evaluate(features, predictions, chunk_size)

    def evaluate_one(self, feature, prediction):
        """Evaluate one prediction (see
        :meth:`~repro.core.prom.PromRegressor.evaluate_one`)."""
        return self.prom.evaluate_one(feature, prediction)

    def __repr__(self) -> str:
        return f"StreamingPromRegressor(store={self.store!r})"
