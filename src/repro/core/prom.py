"""PromClassifier and PromRegressor — the top-level drift detectors.

Workflow (paper Figures 3 and 5):

1. **Design time** — ``calibrate()`` with the held-out calibration set:
   feature vectors, the underlying model's outputs, and ground truth.
   Per-sample nonconformity scores are precomputed offline for every
   expert (nonconformity function).
2. **Deployment** — ``evaluate()`` a batch of test samples: the
   vectorized engine selects and weights the nearest calibration
   subsets (chunked distance matrix), computes per-expert credibility
   (p-value of the predicted label) and confidence (Gaussian of the
   prediction-set size) for the whole batch with a handful of NumPy
   kernels, and majority-votes the accept/reject decisions into a
   :class:`~repro.core.committee.DecisionBatch`.  ``evaluate_one`` is a
   thin wrapper evaluating a batch of one.  The per-sample loop the
   engine replaced is the test oracle in
   ``tests/core/serial_reference.py``.
3. **Streaming deployment** — when the calibration set itself churns
   (relabelled samples arrive, old ones are evicted), wrap the
   detector in :class:`~repro.core.streaming.StreamingPromClassifier`
   or :class:`~repro.core.streaming.StreamingPromRegressor`: their
   ``update()`` folds a micro-batch into the calibration state in time
   proportional to the batch, not the calibration-set size, and is
   decision-identical to a fresh ``calibrate()`` on the surviving
   samples (DESIGN.md §3).
"""

from __future__ import annotations

import numpy as np

from .blocks import SEGMENT_DIRECT_MIN_ROWS
from .clustering import CalibrationClusterer
from .committee import Decision, DecisionBatch, ExpertCommittee
from .exceptions import (
    CalibrationError,
    ConfigurationError,
    NotCalibratedError,
    ValidationError,
)
from .nonconformity import (
    default_classification_functions,
    default_regression_scores,
)
from .pvalue import (
    bin_subset_by_label,
    group_scores_by_label,
    pvalues_from_binning,
)
from .scores import assess_batch
from .segments import FLAT_VIEW_SLOT, ComposedStateAttr, EvaluationView, state_is_set
from .weighting import AdaptiveWeighting, iter_squared_distance_chunks, squared_distance_matrix

#: soft bound on the number of float64 cells one evaluation chunk's
#: largest temporary may hold (~16 MB).
_EVALUATE_CELL_BUDGET = 2_000_000


def _evaluation_chunk(n_calibration: int, chunk_size: int | None, n_labels: int = 1) -> int:
    """Test rows per chunk so per-chunk temporaries stay bounded.

    The widest temporaries are the ``(chunk, k)`` selection/binning
    matrices (``k <= n_calibration``) and the ``(chunk, n_labels,
    n_labels)`` broadcast inside the closed-form ``score_all_labels``
    kernels, so both dimensions cap the chunk.
    """
    if chunk_size is not None:
        if chunk_size < 1:
            raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
        return chunk_size
    widest = max(1, n_calibration, n_labels * n_labels)
    return max(1, _EVALUATE_CELL_BUDGET // widest)


def _pending_bundle(prom):
    """The un-materialized compose bundle behind ``prom``, or ``None``.

    Hook-free: inspects the installed ``_compose_hook`` without firing
    it, so asking never triggers the deferred flat concatenation.
    """
    hook = prom.__dict__.get("_compose_hook")
    pending = getattr(hook, "pending_bundle", None)
    return pending() if pending is not None else None


def _evaluation_view(prom) -> EvaluationView:
    """The evaluation state every kernel reads (DESIGN.md §9).

    A detector composed from per-shard blocks evaluates through its
    compose bundle's view, pending or materialized, so each live block
    set has exactly one panel cache and evaluating never fires the
    deferred flat concat.  A plain detector evaluates through a
    one-block view of its flat arrays, built on first use after a
    calibration and retired by any write to its state slots
    (:class:`~repro.core.segments.ComposedStateAttr`).
    """
    hook = prom.__dict__.get("_compose_hook")
    bundle = hook.bundle() if hook is not None else None
    if bundle is not None:
        return bundle.evaluation_view()
    view = prom.__dict__.get(FLAT_VIEW_SLOT)
    if view is None:
        view = prom._flat_view()
        prom.__dict__[FLAT_VIEW_SLOT] = view
    return view


def _active_pruner(prom, view):
    """The installed ``_pruner`` when it applies to ``view``, else ``None``.

    A :class:`~repro.core.pruning.CandidatePruner` engages only over a
    pending compose bundle of at least
    :data:`~repro.core.blocks.SEGMENT_DIRECT_MIN_ROWS` rows.
    """
    pruner = prom.__dict__.get("_pruner")
    if pruner is None or len(view.features) < SEGMENT_DIRECT_MIN_ROWS:
        return None
    return pruner if _pending_bundle(prom) is not None else None


def _all_finite(*arrays) -> bool:
    """Whether every value of every array is finite (no NaN, no inf)."""
    return all(np.isfinite(array).all() for array in arrays)


def _check_calibration_inputs(features, outputs, targets):
    features = np.asarray(features, dtype=float)
    outputs = np.asarray(outputs, dtype=float)
    targets = np.asarray(targets)
    if features.ndim != 2:
        raise CalibrationError("calibration features must be 2-D")
    if len(features) == 0:
        raise CalibrationError("calibration set is empty")
    if len(features) != len(outputs) or len(features) != len(targets):
        raise CalibrationError(
            "calibration features, model outputs and targets must align"
        )
    numeric_targets = (targets,) if targets.dtype.kind in "fc" else ()
    if not _all_finite(features, outputs, *numeric_targets):
        raise CalibrationError(
            "calibration features, model outputs and targets must be finite "
            "(no NaN or inf)"
        )
    return features, outputs, targets


class PromClassifier:
    """Drift detector for probabilistic classifiers.

    Args:
        functions: nonconformity functions forming the expert
            committee; defaults to the paper's LAC/TopK/APS/RAPS.
        epsilon: significance parameter (paper default 0.1); the CP
            prediction region keeps labels with p-value > epsilon.
        fraction, min_calibration, tau: adaptive-weighting parameters
            (paper defaults 0.5, 200, 500).
        gaussian_scale: the ``c`` of the confidence Gaussian.
        credibility_threshold: reject-side threshold on the p-value
            (default: epsilon).
        confidence_threshold: reject-side threshold on confidence.
        vote_threshold: committee acceptance fraction (0.5 = majority,
            ties reject).
    """

    # Calibration state attributes behind compose-aware descriptors: a
    # streaming wrapper may hold this state as per-shard segments
    # (core/segments.py) and install a ``_compose_hook`` that
    # materializes the flat arrays on first read.  Plain (non-streaming)
    # use assigns and reads them exactly like ordinary attributes.
    _features = ComposedStateAttr()
    _labels = ComposedStateAttr()
    _scores = ComposedStateAttr()
    _layouts = ComposedStateAttr()

    def __init__(
        self,
        functions=None,
        epsilon: float = 0.1,
        fraction: float = 0.5,
        min_calibration: int = 200,
        tau: float | None = None,
        gaussian_scale: float = 1.0,
        credibility_threshold: float | None = None,
        confidence_threshold: float = 0.9,
        vote_threshold: float = 0.5,
        weight_mode: str = "count",
        weighting: AdaptiveWeighting | None = None,
    ):
        if not 0.0 < epsilon < 1.0:
            raise ConfigurationError(f"epsilon must be in (0, 1), got {epsilon}")
        self.functions = (
            list(functions)
            if functions is not None
            else default_classification_functions()
        )
        if not self.functions:
            raise ConfigurationError("need at least one nonconformity function")
        self.epsilon = epsilon
        self.gaussian_scale = gaussian_scale
        self.credibility_threshold = credibility_threshold
        self.confidence_threshold = confidence_threshold
        self.weight_mode = weight_mode
        self.weighting = weighting or AdaptiveWeighting(
            fraction=fraction, min_samples=min_calibration, tau=tau
        )
        self.committee = ExpertCommittee(vote_threshold=vote_threshold)

    # -- design time -----------------------------------------------------------
    def calibrate(self, features, probabilities, labels) -> "PromClassifier":
        """Precompute per-expert nonconformity scores on the calibration set.

        Args:
            features: ``(n, d)`` feature vectors from the model's
                feature-extraction function.
            probabilities: ``(n, n_classes)`` model probability vectors.
            labels: true label indices (column indices of
                ``probabilities``).
        """
        features, probabilities, labels = _check_calibration_inputs(
            features, probabilities, labels
        )
        labels = labels.astype(int)
        if probabilities.ndim != 2:
            raise CalibrationError("probabilities must be (n, n_classes)")
        if labels.max(initial=0) >= probabilities.shape[1]:
            raise CalibrationError("label index exceeds probability columns")
        self._features = features
        self._labels = labels
        self._n_classes = probabilities.shape[1]
        self.weighting.resolve_tau(features)
        self._scores = [
            function.score(probabilities, labels) for function in self.functions
        ]
        # Batch-engine layout: per expert, validated scores with label
        # bookkeeping so deployment p-values reduce to label-binned
        # scatter-adds (see DESIGN.md).
        self._layouts = [
            group_scores_by_label(scores, labels, self._n_classes)
            for scores in self._scores
        ]
        return self

    @property
    def is_calibrated(self) -> bool:
        # hook-free check: must not trigger lazy compose materialization
        return state_is_set(self, "_features")

    @property
    def calibration_size(self) -> int:
        """Number of calibration samples backing the detector (0 before
        ``calibrate()``).  Counted from the pending compose bundle when
        one exists, so asking never forces the flat materialization."""
        if not self.is_calibrated:
            return 0
        bundle = _pending_bundle(self)
        if bundle is not None:
            return len(bundle.fields["_features"])
        return len(self._features)

    def _require_calibrated(self):
        if not self.is_calibrated:
            raise NotCalibratedError("call calibrate() before evaluating samples")

    def _flat_view(self) -> EvaluationView:
        """One-block evaluation view over the flat calibration state."""
        return EvaluationView.over(
            [self._features],
            [self._labels],
            [[layout.scores] for layout in self._layouts],
            self._n_classes,
        )

    def _check_evaluate_inputs(self, features, probabilities, predicted_labels):
        features = np.asarray(features, dtype=float)
        probabilities = np.asarray(probabilities, dtype=float)
        if features.ndim == 1:
            features = features.reshape(1, -1)
        if probabilities.ndim == 1:
            probabilities = probabilities.reshape(1, -1)
        if probabilities.shape[1] != self._n_classes:
            raise ValidationError(
                f"probability vector has {probabilities.shape[1]} entries, "
                f"calibration used {self._n_classes} classes"
            )
        if len(probabilities) != len(features):
            raise ValidationError(
                f"{len(probabilities)} probability rows for "
                f"{len(features)} feature rows"
            )
        if not _all_finite(features, probabilities):
            raise ValidationError(
                "test features and probabilities must be finite (no NaN or inf)"
            )
        if predicted_labels is None:
            predicted_labels = np.argmax(probabilities, axis=1)
        predicted_labels = np.asarray(predicted_labels, dtype=int).ravel()
        if len(predicted_labels) != len(features):
            raise ValidationError(
                f"{len(predicted_labels)} predicted labels for "
                f"{len(features)} feature rows"
            )
        if len(predicted_labels) and (
            predicted_labels.min() < 0 or predicted_labels.max() >= self._n_classes
        ):
            raise ValidationError(
                f"predicted label out of range for {self._n_classes} classes"
            )
        return features, probabilities, predicted_labels

    # -- deployment --------------------------------------------------------------
    def evaluate_one(self, feature, probability_row, predicted_label=None) -> Decision:
        """Assess one test sample; returns the committee :class:`Decision`.

        Thin compatibility wrapper over the batch engine: the sample is
        evaluated as a batch of one and the verdict materialized as a
        scalar :class:`Decision`.
        """
        predicted = None if predicted_label is None else [int(predicted_label)]
        batch = self.evaluate(
            np.asarray(feature, dtype=float).ravel().reshape(1, -1),
            np.asarray(probability_row, dtype=float).ravel().reshape(1, -1),
            predicted,
        )
        return batch[0]

    def evaluate(
        self, features, probabilities, predicted_labels=None, chunk_size=None
    ) -> DecisionBatch:
        """Assess a batch of test samples with the vectorized engine.

        Returns a :class:`DecisionBatch` — a sequence of per-sample
        :class:`Decision` objects backed by flat arrays.  The batch is
        processed in memory-bounded chunks: each chunk costs one chunked
        distance matrix, one p-value kernel per expert, and one
        committee vote, independent of the number of samples.

        When the detector's state is composed from per-shard blocks (a
        streaming detector or snapshot), the kernels read the blocks
        directly and the ``O(n)`` flat concatenation never happens
        (DESIGN.md §9).  A :class:`~repro.core.pruning.CandidatePruner`
        installed as ``_pruner`` additionally restricts each test
        sample to its router-affine candidate shards while the bundle
        is pending.  ``chunk_size=None`` falls back to the instance
        default ``_chunk_size`` (when set) before the automatic
        memory-bounded choice.
        """
        self._require_calibrated()
        features, probabilities, predicted_labels = self._check_evaluate_inputs(
            features, probabilities, predicted_labels
        )
        if chunk_size is None:
            chunk_size = getattr(self, "_chunk_size", None)
        view = _evaluation_view(self)
        pruner = _active_pruner(self, view)
        if pruner is not None:
            pruned = pruner.evaluate(
                self,
                view,
                features,
                (probabilities, predicted_labels),
                chunk_size,
                route_labels=predicted_labels,
            )
            if pruned is not None:
                return pruned
        return self._evaluate_rows(
            view, features, (probabilities, predicted_labels), chunk_size
        )

    def _evaluate_rows(self, state, features, payload, chunk_size) -> DecisionBatch:
        """Chunked committee evaluation against one evaluation state."""
        probabilities, predicted_labels = payload
        chunk = _evaluation_chunk(
            len(state.features), chunk_size, self._n_classes
        )
        chunks = [
            self._evaluate_chunk(
                features[start : start + chunk],
                probabilities[start : start + chunk],
                predicted_labels[start : start + chunk],
                state,
            )
            for start in range(0, len(features), chunk)
        ]
        return DecisionBatch.concatenate(
            chunks, expert_names=tuple(f.name for f in self.functions)
        )

    def _evaluate_chunk(
        self, features, probabilities, predicted_labels, state
    ) -> DecisionBatch:
        subset = self.weighting.select_batch(state.features, features)
        # Selection, weights and labels are expert-independent: bin them
        # once and share across the committee.
        binning = bin_subset_by_label(subset, state.labels, self._n_classes)
        assessments = []
        for function, layout in zip(self.functions, state.layouts):
            test_scores = function.score_all_labels(probabilities)
            pvalues = pvalues_from_binning(
                layout,
                binning,
                test_scores,
                weight_mode=self.weight_mode,
                tail=function.tail,
            )
            assessments.append(
                assess_batch(
                    pvalues,
                    predicted_labels,
                    epsilon=self.epsilon,
                    gaussian_scale=self.gaussian_scale,
                    credibility_threshold=self.credibility_threshold,
                    confidence_threshold=self.confidence_threshold,
                    function_name=function.name,
                )
            )
        return self.committee.decide_batch(assessments)

    def prediction_region(self, feature, probability_row) -> np.ndarray:
        """Return the committee prediction region for one sample.

        A label is in the region when a majority of experts include it
        in their CP prediction set at level epsilon.  Used by the
        initialization assessment's coverage computation.
        """
        membership = self.prediction_region_batch(
            np.asarray(feature, dtype=float).ravel().reshape(1, -1),
            np.asarray(probability_row, dtype=float).ravel().reshape(1, -1),
        )
        return np.flatnonzero(membership[0])

    def prediction_region_batch(
        self, features, probabilities, chunk_size=None
    ) -> np.ndarray:
        """Return ``(n_test, n_classes)`` region-membership for a batch.

        ``membership[i, y]`` is True when a majority of experts include
        label ``y`` in their CP prediction set for sample ``i``.
        """
        self._require_calibrated()
        features, probabilities, _ = self._check_evaluate_inputs(
            features, probabilities, None
        )
        state = _evaluation_view(self)
        chunk = _evaluation_chunk(
            len(state.features), chunk_size, self._n_classes
        )
        membership = np.empty((len(features), self._n_classes), dtype=bool)
        for start in range(0, len(features), chunk):
            stop = min(len(features), start + chunk)
            subset = self.weighting.select_batch(
                state.features, features[start:stop]
            )
            binning = bin_subset_by_label(subset, state.labels, self._n_classes)
            inclusion_votes = np.zeros((stop - start, self._n_classes))
            for function, layout in zip(self.functions, state.layouts):
                test_scores = function.score_all_labels(probabilities[start:stop])
                pvalues = pvalues_from_binning(
                    layout,
                    binning,
                    test_scores,
                    weight_mode=self.weight_mode,
                    tail=function.tail,
                )
                inclusion_votes += (pvalues > self.epsilon).astype(float)
            membership[start:stop] = inclusion_votes > 0.5 * len(self.functions)
        return membership


class PromRegressor:
    """Drift detector for regression models (paper Sec. 5.1.1/5.1.2).

    Ground truth is unavailable at deployment, so the test residual is
    approximated against the k-NN average of calibration targets
    (k=3 by default).  Classification-style p-values operate over
    K-means cluster pseudo-labels of the calibration features, with K
    chosen by the Gap statistic unless fixed.

    ``calibration_residuals`` controls how the *calibration* scores are
    computed: ``"loo"`` (default) approximates each calibration
    sample's target with leave-one-out k-NN, exactly mirroring how the
    test score is built, which keeps calibration and test scores
    exchangeable even when the underlying model is very accurate;
    ``"true"`` uses the known calibration ground truth (the paper's
    literal formulation).
    """

    # compose-aware state descriptors — see PromClassifier
    _features = ComposedStateAttr()
    _targets = ComposedStateAttr()
    _clusters = ComposedStateAttr()
    _scores = ComposedStateAttr()
    _layouts = ComposedStateAttr()

    def __init__(
        self,
        score_functions=None,
        epsilon: float = 0.1,
        k_neighbors: int = 3,
        n_clusters: int | None = None,
        fraction: float = 0.5,
        min_calibration: int = 200,
        tau: float | None = None,
        gaussian_scale: float = 1.0,
        credibility_threshold: float | None = None,
        confidence_threshold: float = 0.9,
        vote_threshold: float = 0.5,
        weight_mode: str = "count",
        calibration_residuals: str = "loo",
        seed: int = 0,
        weighting: AdaptiveWeighting | None = None,
    ):
        if not 0.0 < epsilon < 1.0:
            raise ConfigurationError(f"epsilon must be in (0, 1), got {epsilon}")
        if k_neighbors < 1:
            raise ConfigurationError("k_neighbors must be >= 1")
        if calibration_residuals not in ("loo", "true"):
            raise ConfigurationError(
                f"calibration_residuals must be 'loo' or 'true', "
                f"got {calibration_residuals!r}"
            )
        self.score_functions = (
            list(score_functions)
            if score_functions is not None
            else default_regression_scores()
        )
        if not self.score_functions:
            raise ConfigurationError("need at least one regression score function")
        self.epsilon = epsilon
        self.k_neighbors = k_neighbors
        self.n_clusters = n_clusters
        self.gaussian_scale = gaussian_scale
        self.credibility_threshold = credibility_threshold
        self.confidence_threshold = confidence_threshold
        self.weight_mode = weight_mode
        self.calibration_residuals = calibration_residuals
        self.seed = seed
        self.weighting = weighting or AdaptiveWeighting(
            fraction=fraction, min_samples=min_calibration, tau=tau
        )
        self.committee = ExpertCommittee(vote_threshold=vote_threshold)

    # -- design time -----------------------------------------------------------
    def calibrate(self, features, predictions, targets) -> "PromRegressor":
        """Precompute residual scores and cluster pseudo-labels offline."""
        features, predictions, targets = _check_calibration_inputs(
            features, predictions, targets
        )
        predictions = predictions.astype(float).ravel()
        targets = np.asarray(targets, dtype=float).ravel()
        self._features = features
        self._targets = targets
        self.weighting.resolve_tau(features)
        if self.calibration_residuals == "loo":
            reference = self._loo_targets(features, targets)
        else:
            reference = targets
        self._scores = [
            function.score(predictions, reference) for function in self.score_functions
        ]
        self.clusterer_ = CalibrationClusterer(
            n_clusters=self.n_clusters, seed=self.seed
        ).fit(features)
        self._clusters = self.clusterer_.labels_
        self._layouts = [
            group_scores_by_label(scores, self._clusters, self.clusterer_.k_)
            for scores in self._scores
        ]
        return self

    @property
    def is_calibrated(self) -> bool:
        # hook-free check: must not trigger lazy compose materialization
        return state_is_set(self, "_features")

    @property
    def calibration_size(self) -> int:
        """Number of calibration samples backing the detector (0 before
        ``calibrate()``).  Counted from the pending compose bundle when
        one exists, so asking never forces the flat materialization."""
        if not self.is_calibrated:
            return 0
        bundle = _pending_bundle(self)
        if bundle is not None:
            return len(bundle.fields["_features"])
        return len(self._features)

    def _require_calibrated(self):
        if not self.is_calibrated:
            raise NotCalibratedError("call calibrate() before evaluating samples")

    def _flat_view(self) -> EvaluationView:
        """One-block evaluation view over the flat calibration state."""
        return EvaluationView.over(
            [self._features],
            [self._clusters],
            [[layout.scores] for layout in self._layouts],
            self.clusterer_.k_,
            targets=[self._targets],
        )

    def _check_evaluate_inputs(self, features, predictions):
        features = np.asarray(features, dtype=float)
        predictions = np.asarray(predictions, dtype=float).ravel()
        if features.ndim == 1:
            features = features.reshape(1, -1)
        if len(predictions) != len(features):
            raise ValidationError(
                f"{len(predictions)} predictions for {len(features)} feature rows"
            )
        if not _all_finite(features, predictions):
            raise ValidationError(
                "test features and predictions must be finite (no NaN or inf)"
            )
        return features, predictions

    def _loo_targets(self, features: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Leave-one-out k-NN approximation of each calibration target."""
        n = len(features)
        k = min(self.k_neighbors, max(1, n - 1))
        squared = squared_distance_matrix(features)
        np.fill_diagonal(squared, np.inf)
        nearest = np.argpartition(squared, k - 1, axis=1)[:, :k]
        return targets[nearest].mean(axis=1)

    def approximate_target(self, feature) -> float:
        """k-NN estimate of the unseen ground truth for one test sample."""
        self._require_calibrated()
        feature = np.asarray(feature, dtype=float).ravel()
        distances = np.sqrt(np.sum((self._features - feature) ** 2, axis=1))
        k = min(self.k_neighbors, len(distances))
        nearest = np.argpartition(distances, k - 1)[:k]
        return float(self._targets[nearest].mean())

    def approximate_target_batch(self, features, chunk_size=None) -> np.ndarray:
        """k-NN ground-truth estimates for a batch of test samples.

        The test-vs-calibration distance matrix is built in
        memory-bounded chunks; each chunk needs one ``argpartition``
        and one gather-mean, read from the detector's evaluation view
        (no flat concat of composed state).
        """
        self._require_calibrated()
        features = np.asarray(features, dtype=float)
        if features.ndim == 1:
            features = features.reshape(1, -1)
        return self._approximate_targets(
            features, _evaluation_view(self), chunk_size
        )

    def _approximate_targets(self, features, state, chunk_size=None) -> np.ndarray:
        """k-NN target estimates against one evaluation state."""
        k = min(self.k_neighbors, len(state.features))
        approximations = np.empty(len(features))
        for start, stop, block in iter_squared_distance_chunks(
            features, state.features, chunk_size
        ):
            nearest = np.argpartition(block, k - 1, axis=1)[:, :k]
            approximations[start:stop] = state.targets[nearest].mean(axis=1)
        return approximations

    # -- deployment --------------------------------------------------------------
    def evaluate_one(self, feature, prediction: float) -> Decision:
        """Assess one regression prediction; returns the committee Decision.

        Thin compatibility wrapper over the batch engine (a batch of
        one), mirroring :meth:`PromClassifier.evaluate_one`.
        """
        batch = self.evaluate(
            np.asarray(feature, dtype=float).ravel().reshape(1, -1),
            np.asarray([prediction], dtype=float),
        )
        return batch[0]

    def evaluate(self, features, predictions, chunk_size=None) -> DecisionBatch:
        """Assess a batch of regression predictions with the batch engine.

        Mirrors :meth:`PromClassifier.evaluate`, including the
        block-direct evaluation view, the optional ``_pruner`` shard
        restriction, and the ``_chunk_size`` default.
        """
        self._require_calibrated()
        features, predictions = self._check_evaluate_inputs(features, predictions)
        if chunk_size is None:
            chunk_size = getattr(self, "_chunk_size", None)
        view = _evaluation_view(self)
        pruner = _active_pruner(self, view)
        if pruner is not None:
            pruned = pruner.evaluate(
                self, view, features, (predictions,), chunk_size
            )
            if pruned is not None:
                return pruned
        return self._evaluate_rows(view, features, (predictions,), chunk_size)

    def _evaluate_rows(self, state, features, payload, chunk_size) -> DecisionBatch:
        """Chunked committee evaluation against one evaluation state."""
        (predictions,) = payload
        chunk = _evaluation_chunk(
            len(state.features), chunk_size, self.clusterer_.k_
        )
        chunks = [
            self._evaluate_chunk(
                features[start : start + chunk],
                predictions[start : start + chunk],
                state,
            )
            for start in range(0, len(features), chunk)
        ]
        return DecisionBatch.concatenate(
            chunks, expert_names=tuple(f.name for f in self.score_functions)
        )

    def _evaluate_chunk(self, features, predictions, state) -> DecisionBatch:
        approx_targets = self._approximate_targets(features, state)
        subset = self.weighting.select_batch(state.features, features)
        binning = bin_subset_by_label(subset, state.labels, self.clusterer_.k_)
        assigned_clusters = np.asarray(
            self.clusterer_.assign(features), dtype=int
        )
        n_clusters = self.clusterer_.k_
        assessments = []
        for function, layout in zip(self.score_functions, state.layouts):
            test_scores = function.score(predictions, approx_targets)
            # The same residual score stands in for every candidate
            # cluster (the per-sample reference's np.full, batched).
            test_matrix = np.repeat(
                np.asarray(test_scores, dtype=float)[:, None], n_clusters, axis=1
            )
            pvalues = pvalues_from_binning(
                layout,
                binning,
                test_matrix,
                weight_mode=self.weight_mode,
            )
            assessments.append(
                assess_batch(
                    pvalues,
                    assigned_clusters,
                    epsilon=self.epsilon,
                    gaussian_scale=self.gaussian_scale,
                    credibility_threshold=self.credibility_threshold,
                    confidence_threshold=self.confidence_threshold,
                    function_name=function.name,
                )
            )
        return self.committee.decide_batch(assessments)


def drifting_indices(decisions) -> np.ndarray:
    """Return the positions of decisions flagged as drifting."""
    if isinstance(decisions, DecisionBatch):
        return np.flatnonzero(decisions.drifting)
    return np.flatnonzero([decision.drifting for decision in decisions])


def accepted_indices(decisions) -> np.ndarray:
    """Return the positions of decisions the committee accepted."""
    if isinstance(decisions, DecisionBatch):
        return np.flatnonzero(np.asarray(decisions.accepted, dtype=bool))
    return np.flatnonzero([decision.accepted for decision in decisions])
