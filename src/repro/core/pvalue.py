"""Conformal p-value computation (paper Eq. 2).

The p-value of a test sample for candidate label ``y`` compares the
test sample's nonconformity against the (selected, distance-weighted)
calibration samples with true label ``y``.  Two weighting modes are
provided:

* ``"count"`` (default) — weighted counting: each calibration sample
  contributes its distance weight to the vote,
  ``p = (sum of w_i where a_i >= a_test) / (sum of w_i + 1)``.
  This realizes the paper's intent ("giving higher weight to closer
  samples") with a weighted-conformal formulation that is robust for
  discrete scores such as Top-K.  The ``+1`` in the denominator is the
  test sample's own weight (``exp(0) = 1``); a test sample far from
  every calibration sample drives all ``w_i`` to zero and hence its
  p-value to zero — exactly the "alien input" signal Prom uses for
  drift detection.
* ``"multiply"`` — the paper's literal Eq. 2: adjust
  ``a_i' = w_i * a_i`` and count unweighted against the ``n + 1``
  denominator (the test sample counts itself).  With the paper's
  ``tau = 500`` and small feature distances the two coincide; for
  large distances or discrete scores the multiplicative form deflates
  calibration scores and over-rejects, which is why counting is the
  default here (see DESIGN.md).

The engine (:func:`group_scores_by_label`, :func:`bin_subset_by_label`
and :func:`pvalues_from_binning`) evaluates all labels of all test
samples with label-binned weighted scatter-adds over a
per-label-grouped calibration layout — see DESIGN.md for the data
layout and complexity bounds.  The per-sample reference it replaced
lives in ``tests/core/serial_reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import as_column
from .weighting import CalibrationSubsetBatch
from .exceptions import ConfigurationError, ValidationError

WEIGHT_MODES = ("count", "multiply")


@dataclass(frozen=True)
class LabelGroupedScores:
    """Calibration scores pre-grouped by label for the batch engine.

    Built once per expert at ``calibrate()`` time.  The batch p-value
    kernel consumes the original-order ``scores``/``labels`` pair with
    one label-binned scatter-add per tail; ``group_counts`` records how
    many calibration samples each label group holds (zero for labels
    never observed, whose p-values are exactly 0).  See DESIGN.md for
    the kernel design and the alternatives that were measured.

    Attributes:
        scores: per-calibration-sample nonconformity scores (original
            calibration order).
        labels: true label index of each calibration sample, validated
            against ``n_labels``.
        group_counts: ``(n_labels,)`` calibration samples per label.
        n_labels: number of candidate labels.
    """

    scores: np.ndarray
    labels: np.ndarray
    group_counts: np.ndarray
    n_labels: int


def group_scores_by_label(
    calibration_scores: np.ndarray,
    calibration_labels: np.ndarray,
    n_labels: int,
) -> LabelGroupedScores:
    """Return the :class:`LabelGroupedScores` layout for one expert."""
    scores = np.asarray(calibration_scores, dtype=float).ravel()
    labels = np.asarray(calibration_labels, dtype=int).ravel()
    if scores.shape != labels.shape:
        raise ValidationError("calibration scores and labels must align")
    if len(labels) and (labels.min() < 0 or labels.max() >= n_labels):
        raise ValidationError("calibration label index out of range")
    return LabelGroupedScores(
        scores=scores,
        labels=labels,
        group_counts=np.bincount(labels, minlength=n_labels),
        n_labels=n_labels,
    )


def update_label_groups(
    layout: LabelGroupedScores,
    keep_mask: np.ndarray,
    new_scores: np.ndarray,
    new_labels: np.ndarray,
    order: np.ndarray | None = None,
) -> LabelGroupedScores:
    """Incremental counterpart of :func:`group_scores_by_label`.

    Carries one expert's layout across a calibration-store mutation:
    the combined layout is the existing calibration rows followed by
    the ``new`` batch, and ``keep_mask`` marks the survivors (see
    :class:`~repro.core.calibration_store.StoreUpdate`).  ``order``
    (``StoreUpdate.order``) gathers the survivors into the store's new
    exposed order — required for slot-reuse evictions, which permute
    survivors; when omitted the historical arrival-ordered
    ``keep_mask`` gather applies.  Group counts are adjusted
    arithmetically from the added and evicted labels — ``O(batch +
    n_labels)`` bookkeeping on top of the ``O(n)`` survivor copy — and
    the result is exactly what :func:`group_scores_by_label` would
    build from the surviving scores and labels in store order.
    """
    return update_committee_groups(
        [layout], keep_mask, [new_scores], new_labels, order
    )[0]


def update_committee_groups(
    layouts, keep_mask, new_scores, new_labels, order=None
) -> list:
    """:func:`update_label_groups` for every expert of one store at once.

    The experts' layouts group the same rows by the same labels, so the
    label gather and the count arithmetic run once and the results share
    one labels array; only each expert's score gather is its own.
    ``layouts`` and ``new_scores`` hold one entry per expert.
    """
    first = layouts[0]
    new_labels = np.asarray(new_labels, dtype=int).ravel()
    new_scores = [np.asarray(scores, dtype=float).ravel() for scores in new_scores]
    if any(scores.shape != new_labels.shape for scores in new_scores):
        raise ValidationError("new scores and labels must align")
    if len(new_labels) and (
        new_labels.min() < 0 or new_labels.max() >= first.n_labels
    ):
        raise ValidationError("new calibration label index out of range")
    keep_mask = np.asarray(keep_mask, dtype=bool)
    if len(keep_mask) != len(first.labels) + len(new_labels):
        raise ValidationError(
            f"keep_mask covers {len(keep_mask)} rows, combined layout has "
            f"{len(first.labels) + len(new_labels)}"
        )
    gather = np.flatnonzero(keep_mask) if order is None else np.asarray(order)
    combined_labels = np.concatenate([first.labels, new_labels])
    group_counts = (
        first.group_counts
        + np.bincount(new_labels, minlength=first.n_labels)
        - np.bincount(combined_labels[~keep_mask], minlength=first.n_labels)
    )
    labels = combined_labels[gather]
    return [
        LabelGroupedScores(
            scores=np.concatenate([layout.scores, scores])[gather],
            labels=labels,
            group_counts=group_counts,
            n_labels=first.n_labels,
        )
        for layout, scores in zip(layouts, new_scores)
    ]


def merge_group_counts(layouts, n_labels: int) -> np.ndarray:
    """Integer-exact global group counts from per-segment layouts.

    The compose half of the segment-aware streaming runtime
    (:mod:`repro.core.segments`): segment counts are non-negative
    integers, so their sum is exact and the composed counts equal what
    :func:`group_scores_by_label` would compute on the concatenated
    scores and labels — no floating-point drift, no ``O(n)`` rescan.

    Args:
        layouts: per-segment :class:`LabelGroupedScores`, all built for
            the same label space.
        n_labels: number of candidate labels.

    Returns:
        ``(n_labels,)`` summed group counts.

    Raises:
        ValueError: when a layout's label space disagrees with
            ``n_labels``.
    """
    counts = np.zeros(n_labels, dtype=np.int64)
    for layout in layouts:
        if layout.n_labels != n_labels:
            raise ValidationError(
                f"cannot merge a layout over {layout.n_labels} labels "
                f"into a {n_labels}-label composition"
            )
        counts = counts + layout.group_counts
    return counts


def _label_binned_sums(flat_bins, values, n_bins) -> np.ndarray:
    """Per-bin sums via one scatter-add (bincount).

    ``bincount`` accumulates each bin's terms in input order, so a term
    of ``+0.0`` never changes a sum: dropping such terms, or routing
    them to a bin nobody reads, leaves every result bitwise unchanged.
    The one-pass two-sided kernels below rest on exactly that.
    """
    return np.bincount(flat_bins, weights=values, minlength=n_bins)


def _gather(column, indices) -> np.ndarray:
    """``column[indices]`` as one flat ``np.take``.

    ``column`` is a scalar :class:`~repro.core.blocks.BlockColumn` (or
    an array, read as a one-block column), gathered through its cached
    :meth:`~repro.core.blocks.BlockColumn.gather_base` — a gather does
    no arithmetic, so the blocks' cut points never show in the result.
    """
    return np.take(as_column(column).gather_base(), indices)


@dataclass(frozen=True)
class SubsetBinning:
    """Expert-independent bookkeeping for one evaluation batch.

    Every expert of a committee shares the same calibration selection,
    distance weights and true labels; only the score values differ.
    This structure is computed once per batch and reused across experts:
    the flattened (test sample, label) bin index of every selected
    calibration sample and the ``"count"``-mode denominator.  The
    ``"multiply"``-mode denominator (selected samples per bin) is not
    built here: :func:`pvalues_from_binning` gets it for free from the
    same integer scatter-add that counts that mode's tails.

    Attributes:
        indices / weights: the selection, as in
            :class:`~repro.core.weighting.CalibrationSubsetBatch`.
        flat_bins: flattened scatter-add target bin of each selected
            sample (``row * n_labels + label``), which is also the
            position of its comparison threshold in the C-order
            ``(n_test, n_labels)`` test-score matrix.
        weight_sums: ``(n_test, n_labels)`` sum of selected weights per
            bin — the ``"count"``-mode denominator before its ``+1``.
        n_labels: number of candidate labels.
    """

    indices: np.ndarray
    weights: np.ndarray
    flat_bins: np.ndarray
    weight_sums: np.ndarray
    n_labels: int


def bin_subset_by_label(
    subset_batch: CalibrationSubsetBatch,
    calibration_labels: np.ndarray,
    n_labels: int,
) -> SubsetBinning:
    """Build the shared :class:`SubsetBinning` for one evaluation batch.

    ``calibration_labels`` is a
    :class:`~repro.core.blocks.BlockColumn` of label blocks (or an
    array); the selection gather reads its flat gather base.
    """
    indices = np.asarray(subset_batch.indices)
    weights = np.asarray(subset_batch.weights)
    n_test = len(indices)
    flat_bins = _gather(calibration_labels, indices).astype(int, copy=False)
    flat_bins += (np.arange(n_test) * n_labels)[:, None]
    flat_bins = flat_bins.ravel()
    return SubsetBinning(
        indices=indices,
        weights=weights,
        flat_bins=flat_bins,
        weight_sums=_label_binned_sums(
            flat_bins, weights.ravel(), n_test * n_labels
        ).reshape(n_test, n_labels),
        n_labels=n_labels,
    )


def _two_sided_weighted_sums(flat_bins, weights, selected, thresholds, n_labels, k):
    """The ``"count"``-mode right (``>=``) and left (``<=``) tail sums.

    One scatter-add over two bands yields both tails: band 0
    (``[0, n_bins)``) takes the terms with ``score >= threshold``, band
    1 the rest.  Band 0 holds exactly the nonzero terms of the masked
    right sum, in the same order, and the terms it leaves out were
    ``+0.0`` — so it *is* the two-pass right sum, bitwise.  Band 1 is
    the left sum in every bin without a term where the two tails agree
    (``score == threshold``, in both; NaN, in neither).  Such terms are
    few (ties at the score extremes), so the test rows holding one —
    row ``r`` owns terms ``[r k, (r + 1) k)`` and bins
    ``[r L, (r + 1) L)`` — get their left sums again from their own
    terms, in order, with the two-pass mask.
    """
    n_test = len(flat_bins) // k
    n_bins = n_test * n_labels
    at_least = selected >= thresholds
    at_most = selected <= thresholds
    bins = (~at_least).astype(np.intp)
    bins *= n_bins
    bins += flat_bins
    sums = _label_binned_sums(bins, weights, 2 * n_bins)
    right, left = sums[:n_bins], sums[n_bins:]
    odd = np.flatnonzero(at_least == at_most)
    if len(odd):
        tied_rows = np.zeros(n_test, dtype=bool)
        tied_rows[odd // k] = True
        rows = np.flatnonzero(tied_rows)
        span = (
            slice(None)  # every row (small batches): no gather needed
            if len(rows) == n_test
            else (rows[:, None] * k + np.arange(k)).ravel()
        )
        terms = weights[span] * at_most[span].astype(float)
        redone = _label_binned_sums(flat_bins[span], terms, n_bins)
        left.reshape(n_test, n_labels)[rows] = redone.reshape(n_test, n_labels)[rows]
    return right, left


def pvalues_from_binning(
    layout: LabelGroupedScores,
    binning: SubsetBinning,
    test_scores: np.ndarray,
    weight_mode: str = "count",
    tail: str = "right",
) -> np.ndarray:
    """One expert's ``(n_test, n_labels)`` p-values from shared binning.

    The hot path of the batch engine: gathers the expert's calibration
    scores at the selected positions and each one's candidate-label
    threshold (two flat ``np.take`` calls), compares them in one
    elementwise pass, and reduces the tail sums with one label-binned
    scatter-add — one for both tails of a two-sided expert too (see
    :func:`_two_sided_weighted_sums`).  Everything is ``O(n_test * k)``
    time and memory — never the dense ``n_test * n_labels * k`` of
    per-label boolean masks.

    ``"multiply"`` mode counts instead of summing weights: one integer
    scatter-add over four bands (neither, greater, less, equal) gives
    both tails and the per-bin sample count.  Integer counts are exact
    in any order, so they equal the float sums of ``0.0``/``1.0`` terms
    of the two-pass form bitwise.

    ``layout.scores`` is a :class:`~repro.core.blocks.BlockColumn`
    (the evaluation view's) or an array; the score gather reads its
    flat gather base.
    """
    if weight_mode not in WEIGHT_MODES:
        raise ConfigurationError(f"weight_mode must be one of {WEIGHT_MODES}, got {weight_mode!r}")
    if tail not in ("right", "both"):
        raise ConfigurationError(f"tail must be 'right' or 'both', got {tail!r}")
    test_scores = np.asarray(test_scores, dtype=float)
    n_labels = layout.n_labels
    if test_scores.ndim != 2 or test_scores.shape[1] != n_labels:
        raise ValidationError(
            f"test_scores must be (n_test, {n_labels}), got {test_scores.shape}"
        )
    n_test, k = binning.indices.shape
    if test_scores.shape[0] != n_test:
        raise ValidationError(
            f"test_scores has {test_scores.shape[0]} rows, the binning {n_test}"
        )
    n_bins = n_test * n_labels
    flat_bins = binning.flat_bins
    weights = binning.weights.ravel()
    selected = _gather(layout.scores, binning.indices).ravel()
    # Each selected sample competes for its own true label: its
    # comparison threshold is the test sample's score at that label,
    # which sits at the sample's own flat bin.
    thresholds = np.take(test_scores.ravel(), flat_bins)

    if weight_mode == "count":
        if tail == "right":
            # a float mask multiplies about twice as fast as a bool one,
            # with the same products
            terms = weights * (selected >= thresholds).astype(float)
            numerators = _label_binned_sums(flat_bins, terms, n_bins)
        else:
            right, left = _two_sided_weighted_sums(
                flat_bins, weights, selected, thresholds, n_labels, k
            )
            numerators = 2.0 * np.minimum(right, left)
        denominators = binning.weight_sums.ravel()
    else:
        adjusted = weights * selected
        bands = (adjusted >= thresholds).astype(np.intp)
        bands += 2 * (adjusted <= thresholds)
        bands *= n_bins
        bands += flat_bins
        counts = np.bincount(bands, minlength=4 * n_bins).reshape(4, n_bins)
        right = counts[1] + counts[3]
        if tail == "right":
            numerators = right
        else:
            numerators = 2.0 * np.minimum(right, counts[2] + counts[3])
        # Eq. 2 counts the test sample itself in the denominator (n + 1).
        denominators = counts.sum(axis=0)
    pvalues = np.minimum(1.0, numerators / (denominators + 1.0))
    return pvalues.reshape(n_test, n_labels)


def pvalues_all_labels_batch(
    layout: LabelGroupedScores,
    subset_batch: CalibrationSubsetBatch,
    test_scores: np.ndarray,
    weight_mode: str = "count",
    tail: str = "right",
) -> np.ndarray:
    """Return the ``(n_test, n_labels)`` p-value matrix for a batch.

    Convenience wrapper over :func:`bin_subset_by_label`
    + :func:`pvalues_from_binning`; committee evaluation builds the
    binning once and shares it across experts instead.

    ``test_scores`` holds each test sample's nonconformity at every
    candidate label, shape ``(n_test, n_labels)``.
    """
    binning = bin_subset_by_label(subset_batch, layout.labels, layout.n_labels)
    return pvalues_from_binning(
        layout, binning, test_scores, weight_mode=weight_mode, tail=tail
    )
