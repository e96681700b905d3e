"""The selection and p-value kernels are bitwise identical to their oracle.

``legacy_kernels`` holds verbatim copies of ``select_batch``,
``bin_subset_by_label`` and ``pvalues_from_binning`` from before the
flat-gather / one-pass rewrite.  Every combination of weight mode ×
tail × {flat, ``BlockColumn``} × {keep all, keep a fraction} ×
{tie-free, ties in a few rows, ties in every row} must give
``np.array_equal`` indices, weights, distances and p-values.
"""

import numpy as np
import pytest

from repro.core import PromClassifier, bin_subset_by_label, pvalues_from_binning
from repro.core.prom import _evaluation_view

from .legacy_kernels import (
    check_bit_identity,
    legacy_bin_subset_by_label,
    legacy_pvalues_from_binning,
    legacy_select_batch,
    oracle_grid,
)


@pytest.mark.parametrize("weight_mode,tail,layout,keep,scores", oracle_grid())
def test_kernels_bit_identical_to_oracle(weight_mode, tail, layout, keep, scores):
    check_bit_identity(weight_mode, tail, layout, keep, scores)


@pytest.mark.parametrize("weight_mode", ["count", "multiply"])
def test_multi_chunk_selection_bit_identical(weight_mode):
    check_bit_identity(
        weight_mode, "both", "blocks", "fraction", chunk_size=4, seed=3
    )


@pytest.mark.parametrize(
    "scores,tied_rows", [("continuous", 0), ("few_ties", 2), ("tied", 23)]
)
@pytest.mark.parametrize("keep", ["all", "fraction"])
def test_tie_grid_points_really_tie(scores, tied_rows, keep):
    """The grid's tie kinds tie in no row, some rows and every row."""
    ties_per_row = check_bit_identity("count", "both", "flat", keep, scores)
    assert len(ties_per_row) == 23
    assert np.count_nonzero(ties_per_row) == tied_rows


@pytest.mark.parametrize("weight_mode", ["count", "multiply"])
def test_committee_pvalues_bit_identical(weight_mode):
    """Every expert of a calibrated committee, on its real scores.

    APS/RAPS scores saturate at the ends of the label ranking, so some
    (not all) test rows hold ties — the partial-row tie branch.
    """
    rng = np.random.default_rng(7)
    n_calibration, n_classes, d = 900, 8, 12
    features = rng.normal(size=(n_calibration, d))
    raw = rng.random((n_calibration, n_classes)) + 0.05
    probabilities = raw / raw.sum(axis=1, keepdims=True)
    labels = rng.integers(0, n_classes, n_calibration)
    prom = PromClassifier(weight_mode=weight_mode)
    prom.calibrate(features, probabilities, labels)
    test_features = rng.normal(size=(40, d))
    raw_t = rng.random((40, n_classes)) + 0.05
    test_probabilities = raw_t / raw_t.sum(axis=1, keepdims=True)

    state = _evaluation_view(prom)
    subset = prom.weighting.select_batch(state.features, test_features)
    old_subset = legacy_select_batch(prom.weighting, state.features, test_features)
    assert np.array_equal(subset.indices, old_subset.indices)
    assert np.array_equal(subset.weights, old_subset.weights)
    old_binning = legacy_bin_subset_by_label(old_subset, state.labels, n_classes)
    binning = bin_subset_by_label(subset, state.labels, n_classes)
    for function, layout in zip(prom.functions, state.layouts):
        test_scores = function.score_all_labels(test_probabilities)
        assert np.array_equal(
            pvalues_from_binning(
                layout, binning, test_scores, weight_mode=weight_mode, tail=function.tail
            ),
            legacy_pvalues_from_binning(
                layout, old_binning, test_scores, weight_mode=weight_mode, tail=function.tail
            ),
        )
