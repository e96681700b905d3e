"""The user-facing model integration interface (paper Figure 4).

Model developers wrap their trained model in a subclass of
:class:`ModelInterface` (classification) or
:class:`RegressionModelInterface`, overriding ``feature_extraction``
(and optionally ``data_partitioning``).  The interface owns a Prom
detector behind a streaming calibration runtime
(:mod:`repro.core.streaming`): the calibration set lives in a bounded
:class:`~repro.core.calibration_store.CalibrationStore` whose eviction
policy enforces ``max_calibration`` on *every* recalibration, and
calibration-only extensions (``extend_calibration``) are folded in
incrementally instead of recomputed from scratch.
"""

from __future__ import annotations

import abc
import copy

import numpy as np

from .exceptions import CalibrationError
from .prom import PromClassifier, PromRegressor
from .streaming import StreamingPromClassifier, StreamingPromRegressor


def split_calibration(indices, calibration_ratio: float, max_calibration: int, seed: int):
    """Carve a calibration part out of a pool of sample indices.

    The single splitter behind :meth:`ModelInterface.data_partitioning`
    and the experiment harness.  Shuffles ``indices`` and holds out
    ``round(n * calibration_ratio)`` of them (at least 1, at most
    ``max_calibration``, never the whole pool) for calibration.

    Returns:
        ``(train_indices, calibration_indices)``.

    Raises:
        CalibrationError: when the ratio is outside ``(0, 1)``, the cap
            is < 1, or the pool has fewer than 2 samples (an early,
            explicit failure — downstream ``calibrate()`` would
            otherwise fail opaquely on an empty calibration set).
    """
    indices = np.asarray(indices)
    if not 0.0 < calibration_ratio < 1.0:
        raise CalibrationError(
            f"calibration_ratio must be in (0, 1), got {calibration_ratio}"
        )
    if max_calibration < 1:
        raise CalibrationError(
            f"max_calibration must be >= 1, got {max_calibration}"
        )
    n = len(indices)
    if n < 2:
        raise CalibrationError(
            f"need at least 2 samples to carve out a calibration set, got {n}"
        )
    rng = np.random.default_rng(seed)
    order = rng.permutation(indices)
    n_cal = min(max(1, int(round(n * calibration_ratio))), max_calibration, n - 1)
    return order[n_cal:], order[:n_cal]


class ModelInterface(abc.ABC):
    """Wraps a probabilistic classifier with Prom drift detection.

    The underlying model must provide ``fit(X, y)``, ``predict_proba(X)``
    and expose classes via ``classes_``; ``partial_fit`` is used for
    incremental updates when available.

    Args:
        model: the (untrained or trained) underlying model object.
        calibration_ratio: share of training data held out for
            calibration (paper default 10%).
        max_calibration: cap on the calibration-set size (paper: 1000),
            enforced by the store's eviction policy on every update.
        prom: a preconfigured :class:`PromClassifier`; a default one is
            created when omitted.
        seed: RNG seed for the data partition and the store.
        eviction: eviction policy name or instance (``"fifo"`` keeps
            the newest, drift-informative samples; see
            :mod:`repro.core.calibration_store`).
        n_shards: calibration shards of the sharded store
            (:mod:`repro.core.sharding`): per-shard capacity and
            eviction, updates folded only into touched shards.  The
            default one shard runs the same runtime.
        router: shard router name or instance (``"hash"``, ``"label"``,
            ``"cluster"``); a one-shard store never consults it.
        parallel: thread-pool width for whole-shard rescoring
            (:meth:`recalibrate_shards`); micro-batch folds stay
            serial.
    """

    def __init__(
        self,
        model,
        calibration_ratio: float = 0.1,
        max_calibration: int = 1000,
        prom: PromClassifier | None = None,
        seed: int = 0,
        eviction="fifo",
        n_shards: int = 1,
        router="hash",
        parallel: int | None = None,
    ):
        self.model = model
        self.calibration_ratio = calibration_ratio
        self.max_calibration = max_calibration
        self.seed = seed
        self.streaming = StreamingPromClassifier(
            prom=prom or PromClassifier(),
            capacity=max_calibration,
            eviction=eviction,
            seed=seed,
            n_shards=n_shards,
            router=router,
            parallel=parallel,
        )
        self.prom = self.streaming.prom

    # -- hooks the user overrides ------------------------------------------------
    @abc.abstractmethod
    def feature_extraction(self, X) -> np.ndarray:
        """Convert raw model inputs into numeric feature vectors.

        For neural models this is typically the hidden-layer embedding;
        for classical models the input features themselves.
        """

    def data_partitioning(self, X, y, calibration_ratio: float | None = None):
        """Split training data into training and calibration parts.

        Returns ``(X_train, y_train, X_cal, y_cal)``.  Override to use
        a custom (e.g. stratified or temporal) split.
        """
        ratio = calibration_ratio if calibration_ratio is not None else self.calibration_ratio
        train_idx, cal_idx = split_calibration(
            np.arange(len(X)), ratio, self.max_calibration, self.seed
        )
        X = np.asarray(X)
        y = np.asarray(y)
        return X[train_idx], y[train_idx], X[cal_idx], y[cal_idx]

    # -- design-time workflow -----------------------------------------------------
    def train(self, X, y) -> "ModelInterface":
        """Partition the data, fit the underlying model, calibrate Prom."""
        X_train, y_train, X_cal, y_cal = self.data_partitioning(X, y)
        self.model.fit(X_train, y_train)
        self._X_train = X_train
        self._y_train = y_train
        self.calibrate(X_cal, y_cal)
        return self

    def calibrate(self, X_cal, y_cal) -> "ModelInterface":
        """(Re)calibrate Prom from held-out samples and the fitted model.

        Resets the calibration store to these samples (trimmed to
        ``max_calibration`` by the eviction policy when oversized).
        """
        X_cal = np.asarray(X_cal)
        y_cal = np.asarray(y_cal)
        probabilities = self.model.predict_proba(X_cal)
        label_index = self._label_indices(y_cal)
        self.streaming.calibrate(
            self.feature_extraction(X_cal),
            probabilities,
            label_index,
            extra={"X": X_cal, "y": y_cal},
        )
        return self

    def _label_indices(self, y) -> np.ndarray:
        classes = list(np.asarray(self.model.classes_).tolist())
        index_of = {label: i for i, label in enumerate(classes)}
        try:
            return np.asarray([index_of[label] for label in np.asarray(y).tolist()])
        except KeyError as err:
            raise CalibrationError(f"calibration label {err} unknown to the model") from err

    # -- calibration-set state ----------------------------------------------------
    @property
    def X_calibration(self) -> np.ndarray:
        """Raw inputs currently in the calibration store (a snapshot).

        Copied at the boundary: store buffers are reused in place by
        slot-reuse eviction, so a live view would be rewritten under
        the caller by the next mutation.
        """
        return np.array(self.streaming.store.column("X"))

    @property
    def y_calibration(self) -> np.ndarray:
        """Ground-truth labels currently in the store (a snapshot)."""
        return np.array(self.streaming.store.column("y"))

    @property
    def calibration_size(self) -> int:
        return len(self.streaming.store)

    @property
    def epoch(self) -> int:
        """Monotone calibration-state mutation counter (see streaming)."""
        return self.streaming.epoch

    @property
    def shard_sizes(self) -> tuple:
        """Per-shard calibration sizes (one entry per shard)."""
        return self.streaming.shard_sizes

    @property
    def shard_epochs(self) -> tuple:
        """Per-shard mutation counters (one entry per shard).

        The serving plane tags published snapshots with these, so
        block-level staleness — which shards a snapshot predates — is
        observable (DESIGN.md §6).
        """
        return self.streaming.store.shard_epochs

    def recalibrate_shards(self, shard_ids=None) -> "ModelInterface":
        """Fully rescore the given calibration shards (all by default).

        Shard-local rebuild after operator interventions (manual shard
        eviction, policy swaps): cost proportional to the touched
        shards' rows, run on a thread pool when the interface was
        configured with ``parallel`` workers.
        """
        self.streaming.recalibrate_shards(shard_ids)
        return self

    @property
    def learns_new_classes(self) -> bool:
        """Whether :meth:`incremental_update` can absorb unseen classes.

        The default update strategy refits from scratch when the model
        lacks ``partial_fit`` (growing the class head) and updates in
        place otherwise (fixed head).  Subclasses overriding
        :meth:`incremental_update` should override this to match —
        stream drivers consult it to decide whether relabelled samples
        of never-observed classes are worth keeping.
        """
        return not hasattr(self.model, "partial_fit")

    # -- deployment ---------------------------------------------------------------
    def predict(self, X):
        """Return ``(predictions, decisions)`` for a batch of inputs.

        ``predictions`` are the underlying model's labels; ``decisions``
        are the per-sample committee verdicts whose ``drifting`` flag
        marks samples to route to fallback strategies or relabelling.
        """
        probabilities = self.model.predict_proba(X)
        predicted_index = np.argmax(probabilities, axis=1)
        predictions = np.asarray(self.model.classes_)[predicted_index]
        decisions = self.prom.evaluate(
            self.feature_extraction(X), probabilities, predicted_index
        )
        return predictions, decisions

    # -- incremental learning -------------------------------------------------------
    def extend_calibration(self, X_new, y_new, priority=None):
        """Fold relabelled samples into the calibration set — model unchanged.

        The amortized streaming path: only the new samples are scored,
        the store's eviction policy enforces ``max_calibration``, and
        the detector stays decision-identical to a full recalibration
        on the surviving samples.  Returns the
        :class:`~repro.core.calibration_store.StoreUpdate`.
        """
        X_new = np.asarray(X_new)
        y_new = np.asarray(y_new)
        probabilities = self.model.predict_proba(X_new)
        label_index = self._label_indices(y_new)
        return self.streaming.update(
            self.feature_extraction(X_new),
            probabilities,
            label_index,
            priority=priority,
            extra={"X": X_new, "y": y_new},
        )

    def incremental_update(
        self,
        X_new,
        y_new,
        epochs: int = 20,
        isolate_model: bool = False,
    ) -> "ModelInterface":
        """Fold relabelled drifting samples back into the deployed model.

        Uses ``partial_fit`` when the underlying model supports it,
        otherwise refits on the *accumulated* training set — original
        data plus every batch folded in so far — and persists the
        extension, so no earlier relabelled round is ever dropped
        (paper Sec. 8, "Overfitting").  The calibration store is then
        rebuilt against the updated model (its outputs moved for every
        stored sample) and extended with the new batch, with
        ``max_calibration`` enforced by the eviction policy on every
        round.

        ``isolate_model=True`` makes the update *async-aware*: the
        ``partial_fit`` path trains a deep copy and swaps the ``model``
        attribute only once the copy is ready, so concurrent readers
        holding the old reference (the serving loop's published
        snapshots) keep a stable, never-mutated model.  The refit path
        always builds aside and swaps.  Numerically identical either
        way (a deep copy carries the optimizer state bit-for-bit).
        """
        X_new = np.asarray(X_new)
        y_new = np.asarray(y_new)
        if hasattr(self.model, "partial_fit"):
            model = copy.deepcopy(self.model) if isolate_model else self.model
            model.partial_fit(X_new, y_new, epochs=epochs)
            self.model = model
        else:
            X_all = np.concatenate([self._X_train, X_new])
            y_all = np.concatenate([self._y_train, y_new])
            fresh = self.model.clone()
            fresh.fit(X_all, y_all)
            self.model = fresh
            self._X_train = X_all
            self._y_train = y_all
        # Fold the new batch into the capped store first, then rebuild
        # the whole calibration state once: the model moved, so every
        # stored probability row is stale anyway.  The feature and label
        # columns carry real values: a shard router keys on them, and
        # when the recomputed features come back equal replace_outputs
        # rescores only the outputs (at any shard count).  A zero
        # placeholder stands in only for features whose shape changed,
        # which replace_outputs rewrites in full.  Probabilities stay a
        # zero placeholder sized to the stored schema because a refit
        # may have grown the class head — replace_outputs handles the
        # trailing-shape change when it recomputes every surviving row.
        store = self.streaming.store
        stored_shape = store.column("features").shape[1:]
        new_features = np.asarray(self.feature_extraction(X_new), dtype=float)
        if new_features.shape[1:] != stored_shape:
            new_features = np.zeros((len(X_new),) + stored_shape)
        store.add(
            features=new_features,
            probabilities=np.zeros(
                (len(X_new),) + store.column("probabilities").shape[1:]
            ),
            label=self._label_indices(y_new),
            X=X_new,
            y=y_new,
        )
        X_cal = self.X_calibration
        self.streaming.replace_outputs(
            self.feature_extraction(X_cal),
            self.model.predict_proba(X_cal),
            self._label_indices(self.y_calibration),
        )
        return self


class RegressionModelInterface(abc.ABC):
    """Regression counterpart of :class:`ModelInterface`.

    The underlying model must provide ``fit(X, y)`` and ``predict(X)``
    returning scalars; ``partial_fit`` enables incremental updates.

    Note: the default :class:`PromRegressor` uses leave-one-out
    calibration residuals, which couple every score to its neighbours —
    ``extend_calibration`` then falls back to a (still capacity-capped)
    full residual recompute with the fitted clusterer.  Pass a prom
    with ``calibration_residuals="true"`` to get the amortized
    streaming path.
    """

    def __init__(
        self,
        model,
        calibration_ratio: float = 0.1,
        max_calibration: int = 1000,
        prom: PromRegressor | None = None,
        seed: int = 0,
        eviction="fifo",
        n_shards: int = 1,
        router="hash",
        parallel: int | None = None,
    ):
        self.model = model
        self.calibration_ratio = calibration_ratio
        self.max_calibration = max_calibration
        self.seed = seed
        self.streaming = StreamingPromRegressor(
            prom=prom or PromRegressor(),
            capacity=max_calibration,
            eviction=eviction,
            seed=seed,
            n_shards=n_shards,
            router=router,
            parallel=parallel,
        )
        self.prom = self.streaming.prom

    @abc.abstractmethod
    def feature_extraction(self, X) -> np.ndarray:
        """Convert raw model inputs into numeric feature vectors."""

    def data_partitioning(self, X, y, calibration_ratio: float | None = None):
        """Split training data into training and calibration parts."""
        ratio = calibration_ratio if calibration_ratio is not None else self.calibration_ratio
        train_idx, cal_idx = split_calibration(
            np.arange(len(X)), ratio, self.max_calibration, self.seed
        )
        X = np.asarray(X)
        y = np.asarray(y)
        return X[train_idx], y[train_idx], X[cal_idx], y[cal_idx]

    def train(self, X, y) -> "RegressionModelInterface":
        """Partition the data, fit the underlying model, calibrate Prom."""
        X_train, y_train, X_cal, y_cal = self.data_partitioning(X, y)
        self.model.fit(X_train, y_train)
        self._X_train = X_train
        self._y_train = y_train
        self.calibrate(X_cal, y_cal)
        return self

    def calibrate(self, X_cal, y_cal) -> "RegressionModelInterface":
        """(Re)calibrate Prom from held-out samples and the fitted model."""
        X_cal = np.asarray(X_cal)
        predictions = self.model.predict(X_cal)
        self.streaming.calibrate(
            self.feature_extraction(X_cal),
            predictions,
            np.asarray(y_cal, dtype=float),
            extra={"X": X_cal},
        )
        return self

    @property
    def X_calibration(self) -> np.ndarray:
        """Raw inputs currently in the calibration store (a snapshot).

        Copied at the boundary — see
        :attr:`ModelInterface.X_calibration`.
        """
        return np.array(self.streaming.store.column("X"))

    @property
    def y_calibration(self) -> np.ndarray:
        """Ground-truth targets currently in the store (a snapshot)."""
        return np.array(self.streaming.store.column("target"))

    @property
    def calibration_size(self) -> int:
        return len(self.streaming.store)

    @property
    def epoch(self) -> int:
        """Monotone calibration-state mutation counter (see streaming)."""
        return self.streaming.epoch

    @property
    def shard_sizes(self) -> tuple:
        """Per-shard calibration sizes (one entry per shard)."""
        return self.streaming.shard_sizes

    @property
    def shard_epochs(self) -> tuple:
        """Per-shard mutation counters (one entry per shard).

        See :attr:`ModelInterface.shard_epochs`.
        """
        return self.streaming.store.shard_epochs

    def recalibrate_shards(self, shard_ids=None) -> "RegressionModelInterface":
        """Fully rescore the given calibration shards (all by default).

        See :meth:`ModelInterface.recalibrate_shards`; a ``"loo"``
        detector falls back to a global refresh.
        """
        self.streaming.recalibrate_shards(shard_ids)
        return self

    def predict(self, X):
        """Return ``(predictions, decisions)`` for a batch of inputs."""
        predictions = np.asarray(self.model.predict(X), dtype=float)
        decisions = self.prom.evaluate(self.feature_extraction(X), predictions)
        return predictions, decisions

    def extend_calibration(self, X_new, y_new, priority=None):
        """Fold relabelled samples into the calibration set — model unchanged."""
        X_new = np.asarray(X_new)
        y_new = np.asarray(y_new, dtype=float)
        predictions = np.asarray(self.model.predict(X_new), dtype=float)
        return self.streaming.update(
            self.feature_extraction(X_new),
            predictions,
            y_new,
            priority=priority,
            extra={"X": X_new},
        )

    def incremental_update(
        self,
        X_new,
        y_new,
        epochs: int = 20,
        isolate_model: bool = False,
    ):
        """Fold relabelled drifting samples back into the deployed model.

        Mirrors :meth:`ModelInterface.incremental_update`: the refit
        path persists the accumulated training set, and the calibration
        store is rebuilt against the updated model then extended with
        the new batch under the ``max_calibration`` cap.
        ``isolate_model=True`` trains a deep copy and swaps it in, so
        serving snapshots holding the old model reference stay stable.
        """
        X_new = np.asarray(X_new)
        y_new = np.asarray(y_new, dtype=float)
        if hasattr(self.model, "partial_fit"):
            model = copy.deepcopy(self.model) if isolate_model else self.model
            model.partial_fit(X_new, y_new, epochs=epochs)
            self.model = model
        else:
            X_all = np.concatenate([self._X_train, X_new])
            y_all = np.concatenate([self._y_train, y_new])
            fresh = self.model.clone()
            fresh.fit(X_all, y_all)
            self.model = fresh
            self._X_train = X_all
            self._y_train = y_all
        # Fold the new batch into the capped store first, then rebuild
        # the whole calibration state once against the updated model.
        # (Unlike the classifier there is no output-width hazard, and a
        # single rebuild avoids paying the "loo" mode's clustering and
        # leave-one-out costs twice per round.)  The regressor's
        # replace_outputs always takes the full path: it refits the
        # clusterer, re-routes every row and rewrites every column, so
        # no placeholder below outlives it.  With several shards the
        # feature column still carries real values: the store routes the
        # new rows on them, and that routing decides which rows each
        # shard's eviction keeps.  At one shard nothing reads them.
        store = self.streaming.store
        new_features = None
        if store.n_shards > 1:
            new_features = np.asarray(self.feature_extraction(X_new), dtype=float)
            if new_features.shape[1:] != store.column("features").shape[1:]:
                new_features = None
        if new_features is None:
            new_features = np.zeros(
                (len(X_new),) + store.column("features").shape[1:]
            )
        store.add(
            features=new_features,
            prediction=np.zeros(len(X_new)),
            target=y_new,
            X=X_new,
        )
        X_cal = self.X_calibration
        self.streaming.replace_outputs(
            self.feature_extraction(X_cal),
            np.asarray(self.model.predict(X_cal), dtype=float),
            self.y_calibration,
        )
        return self
