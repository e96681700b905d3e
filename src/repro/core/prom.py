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

A detector holds its calibration state in one form: a
:class:`~repro.core.segments.SegmentBundle` of per-sample columns and
per-expert score blocks, held as ``_segment_bundle``.  A plain
``calibrate()`` installs a one-segment bundle; a streaming wrapper, its
snapshots and pool workers hold the wrapper's bundle of per-shard
blocks.  Either way the kernels read the bundle's
:class:`~repro.core.segments.EvaluationView` (DESIGN.md §9).
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass

import numpy as np

from .blocks import SEGMENT_DIRECT_MIN_ROWS, BlockColumn
from .clustering import CalibrationClusterer
from .committee import Decision, DecisionBatch, DecisionDetail, ExpertCommittee
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
from .pvalue import bin_subset_by_label, pvalues_from_binning
from .scores import ExpertAssessmentBatch, assess_batch, verdict_batch
from .segments import EvaluationView, SegmentBundle, SegmentedField
from .weighting import (
    AdaptiveWeighting,
    CalibrationSubsetBatch,
    iter_squared_distance_chunks,
    squared_distance_matrix,
)

#: soft bound on the number of float64 cells one evaluation chunk's
#: largest temporary may hold (~16 MB).
_EVALUATE_CELL_BUDGET = 2_000_000


def _evaluation_chunk(n_calibration: int, chunk_size: int | None, n_labels: int = 1) -> int:
    """Test rows per chunk so per-chunk temporaries stay bounded.

    The widest temporaries are the ``(chunk, n_calibration)`` distance
    block and its ``argpartition`` output — the selection keeps the
    block until the binning has weighed the terms it reads — and the
    ``(chunk, n_labels, n_labels)`` broadcast inside the closed-form
    ``score_all_labels`` kernels, so both dimensions cap the chunk.
    """
    if chunk_size is not None:
        if chunk_size < 1:
            raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
        return chunk_size
    widest = max(1, n_calibration, n_labels * n_labels)
    return max(1, _EVALUATE_CELL_BUDGET // widest)


def _evaluation_view(prom) -> EvaluationView:
    """The evaluation state every kernel reads (DESIGN.md §9).

    The view of the detector's bundle, built once per bundle, so each
    live block set has exactly one panel cache.
    """
    return prom._segment_bundle.evaluation_view()


def _active_pruner(prom, view):
    """The installed ``_pruner`` when it applies to ``view``, else ``None``.

    A :class:`~repro.core.pruning.CandidatePruner` engages whenever the
    detector evaluates through a bundle of at least
    :data:`~repro.core.blocks.SEGMENT_DIRECT_MIN_ROWS` rows.
    """
    pruner = prom.__dict__.get("_pruner")
    if pruner is None:
        return None
    return pruner if len(view.features) >= SEGMENT_DIRECT_MIN_ROWS else None


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


def _check_classification_inputs(features, probabilities, labels, n_classes=None):
    """:func:`_check_calibration_inputs` plus the label checks.

    Every label must index a probability column (``0 <= label <
    n_classes``); ``n_classes`` pins the column count when the detector
    is already calibrated.  Runs before anything mutates.
    """
    features, probabilities, labels = _check_calibration_inputs(
        features, probabilities, labels
    )
    labels = labels.astype(int)
    if probabilities.ndim != 2:
        raise CalibrationError("probabilities must be (n, n_classes)")
    if n_classes is not None and probabilities.shape[1] != n_classes:
        raise CalibrationError(
            f"probabilities must be (n, {n_classes}) to match the "
            f"calibrated detector"
        )
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= probabilities.shape[1]:
        raise CalibrationError(
            f"label index out of range for {probabilities.shape[1]} "
            f"probability columns"
        )
    return features, probabilities, labels


def _classifier_test_scores(functions, probabilities) -> list:
    """Each expert's ``(n_test, n_labels)`` test-score matrix."""
    return [function.score_all_labels(probabilities) for function in functions]


def _regressor_test_scores(n_clusters, residual_scores) -> list:
    """Each expert's residual score, standing in for every cluster.

    The per-sample reference's ``np.full``, batched: one
    ``(n_test, n_clusters)`` matrix per expert.
    """
    return [
        np.repeat(np.asarray(scores, dtype=float)[:, None], n_clusters, axis=1)
        for scores in residual_scores
    ]


@dataclass(frozen=True)
class _DecisionParams:
    """What a batch is decided with, frozen when ``evaluate`` starts.

    ``weighting`` is a private copy of the detector's (its resolved tau
    included) and ``test_scores`` maps a chunk's test payload to the
    experts' test-score matrices over frozen copies of the scoring
    functions, so a later change to the detector cannot reach a
    deferred detail.
    """

    weighting: AdaptiveWeighting
    test_scores: object
    names: tuple
    tails: tuple
    n_labels: int
    weight_mode: str
    epsilon: float
    gaussian_scale: float
    credibility_threshold: float | None
    confidence_threshold: float

    def pvalues(self, labels, scores, subset, test_matrices) -> list:
        """Each expert's ``(n_test, n_labels)`` p-values: the full kernel."""
        binning = bin_subset_by_label(subset, labels, self.n_labels)
        return [
            pvalues_from_binning(
                column, binning, test, weight_mode=self.weight_mode, tail=tail
            )
            for column, test, tail in zip(scores, test_matrices, self.tails)
        ]

    def assess(self, labels, scores, subset, test_matrices, predicted) -> list:
        """Full-label assessments: one p-value row per (row, label)."""
        return [
            assess_batch(
                pvalues,
                predicted,
                epsilon=self.epsilon,
                gaussian_scale=self.gaussian_scale,
                credibility_threshold=self.credibility_threshold,
                confidence_threshold=self.confidence_threshold,
                function_name=name,
            )
            for name, pvalues in zip(
                self.names, self.pvalues(labels, scores, subset, test_matrices)
            )
        ]

    def verdicts(self, labels, scores, subset, test_matrices, predicted) -> list:
        """Credibility and accept flags from the predicted-label kernel.

        One verdict binning serves every expert; each expert's p-value
        kernel then yields only its credibility column, bitwise equal
        to the full matrix's predicted-label column.  Rows
        :func:`~repro.core.scores.verdict_batch` leaves undecided (none
        under the default thresholds) get full label rows from a
        binning of their own selection rows, which are the full
        kernel's rows bitwise.  The confidence and set-size fields stay
        ``None``: they belong to the detail.
        """
        binning = bin_subset_by_label(subset, labels, self.n_labels, predicted)
        rows = np.arange(len(predicted))
        verdicts = []
        undecided = np.zeros(len(predicted), dtype=bool)
        for name, column, test, tail in zip(
            self.names, scores, test_matrices, self.tails
        ):
            credibility = pvalues_from_binning(
                column,
                binning,
                test[rows, predicted][:, None],
                weight_mode=self.weight_mode,
                tail=tail,
            )[:, 0]
            accept, open_rows = verdict_batch(
                credibility,
                self.epsilon,
                gaussian_scale=self.gaussian_scale,
                credibility_threshold=self.credibility_threshold,
                confidence_threshold=self.confidence_threshold,
            )
            undecided |= open_rows
            verdicts.append(
                ExpertAssessmentBatch(
                    function_name=name,
                    credibility=credibility,
                    confidence=None,
                    prediction_set_size=None,
                    accept=accept,
                )
            )
        open_rows = np.flatnonzero(undecided)
        if len(open_rows):
            full = self.assess(
                labels,
                scores,
                CalibrationSubsetBatch(
                    indices=subset.indices[open_rows],
                    weights=subset.weights[open_rows],
                ),
                [test[open_rows] for test in test_matrices],
                predicted[open_rows],
            )
            for verdict, assessment in zip(verdicts, full):
                verdict.accept[open_rows] = assessment.accept
        return verdicts


class _DeferredDetail:
    """Recomputes one evaluate chunk's detail on first read.

    Holds what the chunk was decided on and nothing else: copies of its
    test inputs, the frozen :class:`_DecisionParams`, and the immutable
    calibration blocks of the evaluated view (the segment tuples, never
    the bundle, the view or their columns' panel, norm and gather
    caches).  Selection, binning and p-values rerun over fresh columns
    of the same blocks, so the arrays are the ones a full-label
    evaluation at decision time would have produced, bitwise.
    """

    __slots__ = ("params", "features", "labels", "scores", "test_features", "test_payload", "predicted")

    def __init__(self, params, state, test_features, test_payload, predicted):
        self.params = params
        self.features = state.features.segments
        self.labels = state.labels.segments
        self.scores = tuple(column.segments for column in state.scores)
        self.test_features = np.array(test_features)
        self.test_payload = copy.deepcopy(test_payload)
        self.predicted = np.array(predicted)

    def __len__(self) -> int:
        return len(self.predicted)

    def compute(self, cache) -> tuple:
        """``(confidence, expert_confidence, expert_set_size)`` of the chunk.

        ``cache`` maps block tuples to columns for the duration of one
        detail read, so chunks decided on the same blocks build the
        feature panels once.
        """

        def column(segments):
            key = tuple(map(id, segments))
            built = cache.get(key)
            if built is None:
                built = cache[key] = BlockColumn(segments)
            return built

        params = self.params
        subset = params.weighting.select_batch(
            column(self.features), self.test_features
        )
        assessments = params.assess(
            column(self.labels),
            [column(segments) for segments in self.scores],
            subset,
            params.test_scores(self.test_payload),
            self.predicted,
        )
        return DecisionDetail.from_assessments(assessments).arrays()


class _CalibrationState:
    """Calibration-state accessors shared by both detectors."""

    #: whether evaluate computes the detail fields in the deciding
    #: pass.  Set only on process-pool workers, whose results leave
    #: pickled (pickling reads the detail anyway) and whose blocks a
    #: table swap unmaps; every in-process detector, snapshots included,
    #: defers the detail to its first read.
    _eager_detail = False

    #: the detector's only calibration state (``None`` before
    #: ``calibrate()``): a one-segment bundle after a plain calibration,
    #: a streaming wrapper's per-shard bundle otherwise (carried by
    #: snapshots and pool workers)
    _segment_bundle = None

    @property
    def is_calibrated(self) -> bool:
        """Whether the detector holds calibration state."""
        return self._segment_bundle is not None

    @property
    def calibration_size(self) -> int:
        """Number of calibration samples backing the detector (0 before
        ``calibrate()``)."""
        bundle = self._segment_bundle
        return 0 if bundle is None else len(bundle.fields["_features"])

    def _require_calibrated(self):
        if not self.is_calibrated:
            raise NotCalibratedError("call calibrate() before evaluating samples")

    def _install_state(self, fields: dict, scores) -> None:
        """Install validated calibration columns as a one-segment bundle.

        ``fields`` maps bundle field names (``"_features"``, the
        grouping label ``_label_key``, ``"_targets"``) to whole-set
        arrays; ``scores`` holds one score array per expert.
        """
        self._segment_bundle = SegmentBundle(
            fields={name: SegmentedField([column]) for name, column in fields.items()},
            score_fields=[SegmentedField([expert]) for expert in scores],
            label_key=self._label_key,
        )

    def _evaluate(self, features, payload, chunk_size, eager, route_labels=None):
        """Evaluate validated rows through the view, pruned when it applies."""
        if chunk_size is None:
            chunk_size = getattr(self, "_chunk_size", None)
        view = _evaluation_view(self)
        pruner = _active_pruner(self, view)
        if pruner is not None:
            pruned = pruner.evaluate(
                self,
                view,
                features,
                payload,
                chunk_size,
                route_labels=route_labels,
                eager=eager,
            )
            if pruned is not None:
                return pruned
        return self._evaluate_rows(view, features, payload, chunk_size, eager)

    def _evaluate_rows(self, state, features, payload, chunk_size, eager=False) -> DecisionBatch:
        """Chunked committee evaluation against one evaluation state."""
        params = self._decision_params(frozen=not eager)
        chunk = _evaluation_chunk(len(state.features), chunk_size, params.n_labels)
        chunks = [
            self._evaluate_chunk(
                params,
                state,
                features[start : start + chunk],
                tuple(array[start : start + chunk] for array in payload),
                eager,
            )
            for start in range(0, len(features), chunk)
        ]
        return DecisionBatch.concatenate(chunks, expert_names=params.names)

    def _decide(self, params, state, features, test_payload, predicted, eager) -> DecisionBatch:
        """One chunk's committee decision (DESIGN.md §2, "Verdict vs detail").

        Eager: the full-label kernel, whose assessments carry the
        detail.  Deferred: the predicted-label kernel decides, and a
        :class:`_DeferredDetail` fills the detail on first read.
        """
        subset = params.weighting.select_batch(state.features, features)
        test_matrices = params.test_scores(test_payload)
        if eager:
            return self.committee.decide_batch(
                params.assess(state.labels, state.scores, subset, test_matrices, predicted)
            )
        source = _DeferredDetail(params, state, features, test_payload, predicted)
        return self.committee.decide_batch(
            params.verdicts(state.labels, state.scores, subset, test_matrices, predicted),
            detail=DecisionDetail((source,)),
        )

    def _params(self, frozen, test_scores, names, tails, n_labels) -> _DecisionParams:
        """This detector's :class:`_DecisionParams`.

        ``frozen`` copies the weighting for a deferred detail; an eager
        evaluation reads the detector's own objects.
        """
        return _DecisionParams(
            weighting=copy.copy(self.weighting) if frozen else self.weighting,
            test_scores=test_scores,
            names=tuple(names),
            tails=tuple(tails),
            n_labels=int(n_labels),
            weight_mode=self.weight_mode,
            epsilon=self.epsilon,
            gaussian_scale=self.gaussian_scale,
            credibility_threshold=self.credibility_threshold,
            confidence_threshold=self.confidence_threshold,
        )


class PromClassifier(_CalibrationState):
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

    #: the bundle field that groups p-values: the true class labels
    _label_key = "_labels"

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
        features, probabilities, labels = _check_classification_inputs(
            features, probabilities, labels
        )
        return self._calibrate_checked(features, probabilities, labels)

    def _calibrate_checked(self, features, probabilities, labels) -> "PromClassifier":
        """:meth:`calibrate` on inputs :func:`_check_classification_inputs` passed.

        The streaming wrapper validates a batch once, before it stages
        anything, and calibrates through here.
        """
        scores = [function.score(probabilities, labels) for function in self.functions]
        self._n_classes = probabilities.shape[1]
        self.weighting.resolve_tau(features)
        self._install_state({"_features": features, "_labels": labels}, scores)
        return self

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
        scalar :class:`Decision`.  Its votes carry confidences, so the
        batch computes its detail in the deciding pass.
        """
        predicted = None if predicted_label is None else [int(predicted_label)]
        return self._evaluate_checked(
            np.asarray(feature, dtype=float).ravel().reshape(1, -1),
            np.asarray(probability_row, dtype=float).ravel().reshape(1, -1),
            predicted,
            None,
            eager=True,
        )[0]

    def evaluate(
        self, features, probabilities, predicted_labels=None, chunk_size=None
    ) -> DecisionBatch:
        """Assess a batch of test samples with the vectorized engine.

        Returns a :class:`DecisionBatch` — a sequence of per-sample
        :class:`Decision` objects backed by flat arrays.  The batch is
        processed in memory-bounded chunks: each chunk costs one chunked
        distance matrix, one p-value kernel per expert, and one
        committee vote, independent of the number of samples.  The
        p-value kernel scores only each row's predicted label; the
        confidence fields are computed on their first read, against the
        state the batch was decided on (DESIGN.md §2).

        When the detector's state is composed from per-shard blocks (a
        streaming detector or snapshot), the kernels read the blocks
        directly (DESIGN.md §9), and a
        :class:`~repro.core.pruning.CandidatePruner` installed as
        ``_pruner`` restricts each test sample to its router-affine
        candidate shards.  ``chunk_size=None`` falls back to the instance
        default ``_chunk_size`` (when set) before the automatic
        memory-bounded choice.
        """
        return self._evaluate_checked(
            features, probabilities, predicted_labels, chunk_size, self._eager_detail
        )

    def _evaluate_checked(
        self, features, probabilities, predicted_labels, chunk_size, eager
    ) -> DecisionBatch:
        self._require_calibrated()
        features, probabilities, predicted_labels = self._check_evaluate_inputs(
            features, probabilities, predicted_labels
        )
        return self._evaluate(
            features,
            (probabilities, predicted_labels),
            chunk_size,
            eager,
            route_labels=predicted_labels,
        )

    def _decision_params(self, frozen) -> _DecisionParams:
        functions = tuple(
            copy.copy(function) if frozen else function for function in self.functions
        )
        return self._params(
            frozen,
            functools.partial(_classifier_test_scores, functions),
            (f.name for f in functions),
            (f.tail for f in functions),
            self._n_classes,
        )

    def _evaluate_chunk(self, params, state, features, payload, eager) -> DecisionBatch:
        probabilities, predicted_labels = payload
        return self._decide(
            params, state, features, probabilities, predicted_labels, eager
        )

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
        params = self._decision_params(frozen=False)
        chunk = _evaluation_chunk(len(state.features), chunk_size, params.n_labels)
        membership = np.empty((len(features), params.n_labels), dtype=bool)
        for start in range(0, len(features), chunk):
            stop = min(len(features), start + chunk)
            subset = params.weighting.select_batch(
                state.features, features[start:stop]
            )
            inclusion_votes = np.zeros((stop - start, params.n_labels))
            for pvalues in params.pvalues(
                state.labels,
                state.scores,
                subset,
                params.test_scores(probabilities[start:stop]),
            ):
                inclusion_votes += (pvalues > self.epsilon).astype(float)
            membership[start:stop] = inclusion_votes > 0.5 * len(self.functions)
        return membership


class PromRegressor(_CalibrationState):
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

    #: the bundle field that groups p-values: the K-means pseudo-labels
    _label_key = "_clusters"

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
        return self._calibrate_checked(features, predictions, targets)

    def _calibrate_checked(self, features, predictions, targets) -> "PromRegressor":
        """:meth:`calibrate` on inputs :func:`_check_calibration_inputs` passed."""
        predictions = predictions.astype(float).ravel()
        targets = np.asarray(targets, dtype=float).ravel()
        if self.calibration_residuals == "loo":
            reference = self._loo_targets(features, targets)
        else:
            reference = targets
        scores = [
            function.score(predictions, reference) for function in self.score_functions
        ]
        self.clusterer_ = CalibrationClusterer(
            n_clusters=self.n_clusters, seed=self.seed
        ).fit(features)
        self.weighting.resolve_tau(features)
        self._install_state(
            {"_features": features, "_targets": targets, "_clusters": self.clusterer_.labels_},
            scores,
        )
        return self

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
        one, detail computed in the deciding pass), mirroring
        :meth:`PromClassifier.evaluate_one`.
        """
        return self._evaluate_checked(
            np.asarray(feature, dtype=float).ravel().reshape(1, -1),
            np.asarray([prediction], dtype=float),
            None,
            eager=True,
        )[0]

    def evaluate(self, features, predictions, chunk_size=None) -> DecisionBatch:
        """Assess a batch of regression predictions with the batch engine.

        Mirrors :meth:`PromClassifier.evaluate`, including the
        predicted-label kernel (the predicted label is the test row's
        assigned cluster) with the detail on first read, the
        block-direct evaluation view, the optional ``_pruner`` shard
        restriction, and the ``_chunk_size`` default.
        """
        return self._evaluate_checked(
            features, predictions, chunk_size, self._eager_detail
        )

    def _evaluate_checked(self, features, predictions, chunk_size, eager) -> DecisionBatch:
        self._require_calibrated()
        features, predictions = self._check_evaluate_inputs(features, predictions)
        return self._evaluate(features, (predictions,), chunk_size, eager)

    def _decision_params(self, frozen) -> _DecisionParams:
        n_clusters = self.clusterer_.k_
        return self._params(
            frozen,
            functools.partial(_regressor_test_scores, n_clusters),
            (f.name for f in self.score_functions),
            ("right",) * len(self.score_functions),
            n_clusters,
        )

    def _evaluate_chunk(self, params, state, features, payload, eager) -> DecisionBatch:
        (predictions,) = payload
        approx_targets = self._approximate_targets(features, state)
        assigned_clusters = np.asarray(self.clusterer_.assign(features), dtype=int)
        residuals = tuple(
            np.asarray(function.score(predictions, approx_targets), dtype=float)
            for function in self.score_functions
        )
        return self._decide(
            params, state, features, residuals, assigned_clusters, eager
        )


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
