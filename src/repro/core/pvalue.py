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

The engine (:func:`bin_subset_by_label` and
:func:`pvalues_from_binning`) evaluates all labels of all test samples
with label-binned weighted scatter-adds over each calibration sample's
three inputs — its score, its label and its distance weight, read in
calibration order straight from the detector's score and label blocks
(no per-label regrouping) — see DESIGN.md for the data layout and
complexity bounds.  The per-sample reference it replaced lives in
``tests/core/serial_reference.py``.

The same two kernels score the *verdict*: given each test row's
predicted label, :func:`bin_subset_by_label` keeps only the selected
terms whose calibration label is that label (one integer compare,
shared by every expert) and bins them one bin per row.  The p-value of
that binning is the credibility column, bitwise equal to the full
matrix's predicted-label column, because ``bincount`` sums each bin's
terms in input order and dropping other bins' terms leaves that order
alone (DESIGN.md §2, "Verdict vs detail").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import as_column
from .weighting import CalibrationSubsetBatch
from .exceptions import ConfigurationError, ValidationError

WEIGHT_MODES = ("count", "multiply")


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

    A *verdict* binning (``predicted_labels`` given to
    :func:`bin_subset_by_label`) holds only the terms of each row's
    predicted-label bin, flat and in selection order, with one bin per
    row (``n_labels == 1``).

    Attributes:
        indices / weights: the selection, as in
            :class:`~repro.core.weighting.CalibrationSubsetBatch`
            (``(n_test, k)``), or the kept terms' flat positions and
            weights of a verdict binning.
        flat_bins: flattened scatter-add target bin of each selected
            sample (``row * n_labels + label``), which is also the
            position of its comparison threshold in the C-order
            ``(n_test, n_labels)`` test-score matrix.
        weight_sums: ``(n_test, n_labels)`` sum of selected weights per
            bin — the ``"count"``-mode denominator before its ``+1``.
        n_labels: number of candidate labels (1 for a verdict binning).
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
    predicted_labels=None,
) -> SubsetBinning:
    """Build the shared :class:`SubsetBinning` for one evaluation batch.

    ``calibration_labels`` is a
    :class:`~repro.core.blocks.BlockColumn` of label blocks (or an
    array); the selection gather reads its flat gather base.

    With ``predicted_labels`` (one label per test row) the result is
    the verdict binning: the terms whose calibration label equals the
    row's predicted label, in selection order, one bin per row.  Every
    bin holds exactly the terms, in the same order, of bin ``(row,
    predicted)`` of the full binning.  Only those terms are weighed
    (:meth:`~repro.core.weighting.CalibrationSubsetBatch.terms`); the
    full binning reads the whole weight matrix.
    """
    indices = np.asarray(subset_batch.indices)
    n_test = len(indices)
    labels = _gather(calibration_labels, indices)
    if predicted_labels is not None:
        predicted = np.asarray(predicted_labels).reshape(-1, 1)
        rows, kept_indices, weights = subset_batch.terms(
            np.flatnonzero(labels == predicted)
        )
        return SubsetBinning(
            indices=kept_indices,
            weights=weights,
            flat_bins=rows,
            weight_sums=_label_binned_sums(rows, weights, n_test).reshape(n_test, 1),
            n_labels=1,
        )
    weights = np.asarray(subset_batch.weights)
    flat_bins = labels.astype(int, copy=False)
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


def _two_sided_weighted_sums(flat_bins, weights, selected, thresholds, n_labels, n_test, k):
    """The ``"count"``-mode right (``>=``) and left (``<=``) tail sums.

    One scatter-add over two bands yields both tails: band 0
    (``[0, n_bins)``) takes the terms with ``score >= threshold``, band
    1 the rest.  Band 0 holds exactly the nonzero terms of the masked
    right sum, in the same order, and the terms it leaves out were
    ``+0.0`` — so it *is* the two-pass right sum, bitwise.  Band 1 is
    the left sum in every bin without a term where the two tails agree
    (``score == threshold``, in both; NaN, in neither).  Such terms are
    few (ties at the score extremes), so the test rows holding one —
    row ``r`` owns bins ``[r L, (r + 1) L)`` and the terms binned there,
    which are terms ``[r k, (r + 1) k)`` of a full binning (``k`` per
    row) — get their left sums again from their own terms, in order,
    with the two-pass mask.  A verdict binning (``k=None``) bins term
    by row.
    """
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
        tied_rows[flat_bins[odd] // n_labels] = True
        rows = np.flatnonzero(tied_rows)
        if len(rows) == n_test:
            span = slice(None)  # every row (small batches): no gather needed
        elif k is None:
            span = tied_rows[flat_bins]
        else:
            span = (rows[:, None] * k + np.arange(k)).ravel()
        terms = weights[span] * at_most[span].astype(float)
        redone = _label_binned_sums(flat_bins[span], terms, n_bins)
        left.reshape(n_test, n_labels)[rows] = redone.reshape(n_test, n_labels)[rows]
    return right, left


def pvalues_from_binning(
    calibration_scores,
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

    ``calibration_scores`` is one expert's score column, a
    :class:`~repro.core.blocks.BlockColumn` (the evaluation view's) or
    an array; the score gather reads its flat gather base.  The label
    count comes from ``binning``: a verdict binning takes the ``(n_test,
    1)`` column of predicted-label test scores and returns the
    credibility column.
    """
    if weight_mode not in WEIGHT_MODES:
        raise ConfigurationError(f"weight_mode must be one of {WEIGHT_MODES}, got {weight_mode!r}")
    if tail not in ("right", "both"):
        raise ConfigurationError(f"tail must be 'right' or 'both', got {tail!r}")
    test_scores = np.asarray(test_scores, dtype=float)
    n_labels = binning.n_labels
    if test_scores.ndim != 2 or test_scores.shape[1] != n_labels:
        raise ValidationError(
            f"test_scores must be (n_test, {n_labels}), got {test_scores.shape}"
        )
    n_test = len(binning.weight_sums)
    if test_scores.shape[0] != n_test:
        raise ValidationError(
            f"test_scores has {test_scores.shape[0]} rows, the binning {n_test}"
        )
    n_bins = n_test * n_labels
    flat_bins = binning.flat_bins
    weights = binning.weights.ravel()
    selected = _gather(calibration_scores, binning.indices).ravel()
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
                flat_bins,
                weights,
                selected,
                thresholds,
                n_labels,
                n_test,
                binning.indices.shape[1] if binning.indices.ndim == 2 else None,
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
