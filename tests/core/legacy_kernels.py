"""Frozen copies of the pre-rewrite selection and p-value kernels.

``AdaptiveWeighting.select_batch``, ``bin_subset_by_label`` and
``pvalues_from_binning`` were rewritten for speed (flat ``np.take``
gathers, no unread denominator pass, one scatter-add for both tails of
a two-sided expert) under a bitwise-identity contract.  The versions
below are verbatim copies of the code before that rewrite, kept as the
oracle: :func:`check_bit_identity` runs old and new on the same inputs
and requires ``np.array_equal`` on indices, weights and p-values (the
live selection no longer returns distances).  The function bodies are
verbatim; the method became a function taking the weighting as
``self``, the dataclasses were renamed and the docstrings dropped.  The
frozen p-value kernel reads ``layout.scores`` and ``layout.n_labels``;
the harness feeds it a :class:`LegacyLayout` of the same score column
the live kernel takes directly.

The tier-1 suite (``test_kernel_oracle.py``) and
``benchmarks/bench_batch_eval.py --smoke`` both run the grid.

:func:`legacy_median_pairwise_tau` is the automatic-tau kernel from
before its lean rewrite (no column panel cache, flat triangle ``take``,
one-partition median), with the one-block ``BlockColumn`` distance
path it ran through inlined: panels built into ``np.empty`` by
transposed assignment, one ``NN`` GEMM per panel into a fresh chunk
block, ``np.triu_indices`` and ``np.median``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.core import AdaptiveWeighting, bin_subset_by_label, pvalues_from_binning
from repro.core.blocks import PANEL_ROWS, SEGMENT_DIRECT_MIN_ROWS, BlockColumn
from repro.core.exceptions import ConfigurationError, ValidationError
from repro.core.pvalue import WEIGHT_MODES
from repro.core.weighting import DISTANCE_CELL_BUDGET, iter_squared_distance_chunks


def _legacy_panel_bounds(n: int) -> tuple:
    if n <= 0:
        return ()
    if n < SEGMENT_DIRECT_MIN_ROWS:
        return ((0, n),)
    return tuple(
        (c0, min(c0 + PANEL_ROWS, n)) for c0 in range(0, n, PANEL_ROWS)
    )


def _legacy_squared_distance_matrix(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    calibration = A  # as_column(A): a one-block column over A itself
    out = np.empty((len(A), len(calibration)))
    calibration_sq = np.einsum("ij,ij->i", calibration, calibration)
    panels = []
    for c0, c1 in _legacy_panel_bounds(len(calibration)):
        panel = np.empty(calibration.shape[1:] + (c1 - c0,))
        rows = calibration[c0:c1]
        panel[:, 0 : len(rows)] = rows.T
        panels.append((c0, panel))
    chunk = max(1, DISTANCE_CELL_BUDGET // max(1, len(calibration)))
    for start in range(0, len(A), chunk):
        stop = min(len(A), start + chunk)
        block_rows = A[start:stop]
        block = np.empty((len(block_rows), len(calibration)))
        for c0, panel in panels:
            np.matmul(block_rows, panel, out=block[:, c0 : c0 + panel.shape[1]])
        block *= -2.0
        block += np.einsum("ij,ij->i", block_rows, block_rows)[:, None]
        block += calibration_sq[None, :]
        np.clip(block, 0.0, None, out=block)
        out[start:stop] = block
    return out


def legacy_median_pairwise_tau(features, max_rows: int = 200, seed: int = 0) -> float:
    features = np.asarray(features, dtype=float)
    n = len(features)
    if n < 2:
        return 1.0
    if n > max_rows:
        rng = np.random.default_rng(seed)
        features = features[rng.choice(n, size=max_rows, replace=False)]
    squared = _legacy_squared_distance_matrix(features)
    distances = squared[np.triu_indices(len(features), k=1)]
    median = float(np.median(distances))
    return max(median, 1e-9)


def legacy_select_batch(
    self,
    calibration_features: np.ndarray,
    test_features: np.ndarray,
    chunk_size: int | None = None,
):
    if isinstance(calibration_features, BlockColumn):
        features = calibration_features
    else:
        features = np.asarray(calibration_features, dtype=float)
    test = np.asarray(test_features, dtype=float)
    if test.ndim == 1:
        test = test.reshape(1, -1)
    if features.ndim != 2:
        raise ValidationError("calibration_features must be 2-D")
    if features.shape[1] != test.shape[1]:
        raise ValidationError(
            f"feature dimensionality mismatch: calibration has "
            f"{features.shape[1]}, test has {test.shape[1]}"
        )
    n = len(features)
    n_test = len(test)
    keep = n if n < self.min_samples else max(1, int(round(n * self.fraction)))
    tau = self._resolved_tau
    if tau is None:
        tau = self.resolve_tau(features)

    indices = np.empty((n_test, keep), dtype=int)
    squared = np.empty((n_test, keep))
    for start, stop, block in iter_squared_distance_chunks(
        test, features, chunk_size
    ):
        rows = np.arange(stop - start)[:, None]
        if keep == n:
            block_indices = np.broadcast_to(np.arange(n), block.shape)
            block_squared = block
        else:
            block_indices = np.argpartition(block, keep - 1, axis=1)[:, :keep]
            block_squared = block[rows, block_indices]
        indices[start:stop] = block_indices
        squared[start:stop] = block_squared
    weights = squared / -tau
    np.exp(weights, out=weights)
    np.maximum(weights, self.weight_floor, out=weights)
    np.sqrt(squared, out=squared)
    return LegacySubsetBatch(
        indices=indices,
        distances=squared,
        weights=weights,
    )


@dataclass(frozen=True)
class LegacySubsetBatch:
    indices: np.ndarray
    distances: np.ndarray
    weights: np.ndarray


def _label_binned_sums(flat_bins, values, n_test, n_labels) -> np.ndarray:
    """Per-(test sample, label) sums via one scatter-add (bincount)."""
    return np.bincount(
        flat_bins, weights=values.ravel(), minlength=n_test * n_labels
    ).reshape(n_test, n_labels)


@dataclass(frozen=True)
class LegacySubsetBinning:
    indices: np.ndarray
    weights: np.ndarray
    selected_labels: np.ndarray
    flat_bins: np.ndarray
    weight_sums: np.ndarray
    counts: np.ndarray
    n_labels: int


def legacy_bin_subset_by_label(
    subset_batch,
    calibration_labels: np.ndarray,
    n_labels: int,
) -> LegacySubsetBinning:
    indices = np.asarray(subset_batch.indices)
    weights = np.asarray(subset_batch.weights)
    if isinstance(calibration_labels, BlockColumn):
        selected_labels = np.asarray(calibration_labels[indices], dtype=int)
    else:
        selected_labels = np.asarray(calibration_labels, dtype=int)[indices]
    n_test = len(indices)
    rows = np.arange(n_test)[:, None]
    flat_bins = (rows * n_labels + selected_labels).ravel()
    return LegacySubsetBinning(
        indices=indices,
        weights=weights,
        selected_labels=selected_labels,
        flat_bins=flat_bins,
        weight_sums=_label_binned_sums(flat_bins, weights, n_test, n_labels),
        counts=np.bincount(flat_bins, minlength=n_test * n_labels)
        .reshape(n_test, n_labels)
        .astype(float),
        n_labels=n_labels,
    )


def legacy_pvalues_from_binning(
    layout,
    binning: LegacySubsetBinning,
    test_scores: np.ndarray,
    weight_mode: str = "count",
    tail: str = "right",
) -> np.ndarray:
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
    n_test = test_scores.shape[0]
    selected_scores = layout.scores[binning.indices]
    # Each selected sample competes for its own true label: its
    # comparison threshold is the test sample's score at that label.
    rows = np.arange(n_test)[:, None]
    thresholds = test_scores[rows, binning.selected_labels]

    if weight_mode == "count":
        compared = selected_scores >= thresholds
        compared = binning.weights * compared
        right = _label_binned_sums(binning.flat_bins, compared, n_test, n_labels)
        if tail == "both":
            compared_left = binning.weights * (selected_scores <= thresholds)
            left = _label_binned_sums(
                binning.flat_bins, compared_left, n_test, n_labels
            )
            numerators = 2.0 * np.minimum(right, left)
        else:
            numerators = right
        denominators = binning.weight_sums
    else:
        adjusted = binning.weights * selected_scores
        right = _label_binned_sums(
            binning.flat_bins, (adjusted >= thresholds).astype(float), n_test, n_labels
        )
        if tail == "both":
            left = _label_binned_sums(
                binning.flat_bins,
                (adjusted <= thresholds).astype(float),
                n_test,
                n_labels,
            )
            numerators = 2.0 * np.minimum(right, left)
        else:
            numerators = right
        denominators = binning.counts
    return np.minimum(1.0, numerators / (denominators + 1.0))


# -- the oracle grid ----------------------------------------------------------


@dataclass(frozen=True)
class LegacyLayout:
    """The two fields :func:`legacy_pvalues_from_binning` reads of its
    ``layout``: one expert's calibration scores and the label count."""

    scores: object
    n_labels: int


WEIGHT_MODE_GRID = WEIGHT_MODES
TAIL_GRID = ("right", "both")
LAYOUT_GRID = ("flat", "blocks")
KEEP_GRID = ("all", "fraction")
SCORE_GRID = ("continuous", "few_ties", "tied")


def _split(array, n_blocks, rng):
    """``array`` cut at random row positions into ``n_blocks`` copies."""
    cuts = np.sort(rng.choice(np.arange(1, len(array)), n_blocks - 1, replace=False))
    return BlockColumn([np.array(part) for part in np.split(array, cuts)])


def check_bit_identity(
    weight_mode,
    tail,
    layout_kind,
    keep_kind,
    score_kind="continuous",
    seed=0,
    n_calibration=300,
    n_test=23,
    n_labels=6,
    n_features=5,
    chunk_size=None,
):
    """Run the frozen and the live kernels on one input; assert bit identity.

    ``keep_kind="all"`` keeps the whole calibration set (below
    ``min_samples``), ``"fraction"`` keeps the nearest 40%.
    ``score_kind="tied"`` draws calibration and test scores from a small
    integer set, so ``score == threshold`` occurs in every test row and
    the tie branch runs on all rows; ``"few_ties"`` plants ties in two
    rows only.  ``layout_kind="blocks"`` serves features, labels and
    scores as multi-block :class:`BlockColumn` views.  Returns the
    number of selected ``score == threshold`` pairs per test row.
    """
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n_calibration, n_features))
    labels = rng.integers(0, n_labels, n_calibration)
    test_features = rng.normal(size=(n_test, n_features))
    if score_kind == "tied":
        scores = rng.integers(0, 4, n_calibration).astype(float)
        test_scores = rng.integers(0, 4, (n_test, n_labels)).astype(float)
    else:
        scores = rng.random(n_calibration)
        test_scores = rng.random((n_test, n_labels))
    if score_kind == "few_ties":
        # a few test rows take calibration scores as thresholds
        for row in (0, n_test // 2):
            for j in rng.choice(n_calibration, 8, replace=False):
                test_scores[row, labels[j]] = scores[j]
    min_samples = n_calibration + 1 if keep_kind == "all" else 10
    weighting = AdaptiveWeighting(fraction=0.4, min_samples=min_samples, tau=4.0)
    if layout_kind == "blocks":
        cal_features = _split(features, 4, rng)
        cal_labels = _split(labels, 4, rng)
        cal_scores = _split(scores, 3, rng)
    else:
        cal_features, cal_labels, cal_scores = features, labels, scores

    old_subset = legacy_select_batch(
        weighting, cal_features, test_features, chunk_size
    )
    new_subset = weighting.select_batch(cal_features, test_features, chunk_size)
    assert np.array_equal(old_subset.indices, new_subset.indices)
    assert np.array_equal(old_subset.weights, new_subset.weights)

    old_binning = legacy_bin_subset_by_label(old_subset, cal_labels, n_labels)
    new_binning = bin_subset_by_label(new_subset, cal_labels, n_labels)
    assert np.array_equal(old_binning.flat_bins, new_binning.flat_bins)
    assert np.array_equal(old_binning.weight_sums, new_binning.weight_sums)

    old_p = legacy_pvalues_from_binning(
        LegacyLayout(cal_scores, n_labels),
        old_binning,
        test_scores,
        weight_mode=weight_mode,
        tail=tail,
    )
    new_p = pvalues_from_binning(
        cal_scores, new_binning, test_scores, weight_mode=weight_mode, tail=tail
    )
    assert new_p.shape == old_p.shape
    assert np.array_equal(old_p, new_p)
    # score == threshold pairs among the selection: > 0 only for tied
    # scores, where the two-sided kernel must take its two-pass branch
    thresholds = test_scores.ravel()[new_binning.flat_bins]
    ties = scores[new_subset.indices].ravel() == thresholds
    return ties.reshape(n_test, -1).sum(axis=1)


def oracle_grid():
    """Every ``(weight_mode, tail, layout, keep, scores)`` combination."""
    return list(
        itertools.product(
            WEIGHT_MODE_GRID, TAIL_GRID, LAYOUT_GRID, KEEP_GRID, SCORE_GRID
        )
    )
