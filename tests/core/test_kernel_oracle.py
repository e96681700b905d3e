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
from repro.core.weighting import median_pairwise_tau

from .legacy_kernels import (
    check_bit_identity,
    legacy_bin_subset_by_label,
    legacy_median_pairwise_tau,
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


def _tau_inputs(case):
    """Feature sets for the tau oracle, by name."""
    rng = np.random.default_rng(11)
    if case == "odd_pairs":  # 199 rows: 19701 pairs
        return rng.normal(size=(199, 9)), {}
    if case == "even_pairs":  # 200 rows: 19900 pairs
        return rng.normal(size=(200, 9)), {}
    if case == "tiny_odd":  # 3 rows: 3 pairs
        return rng.normal(size=(3, 4)), {}
    if case == "tiny_even":  # 4 rows: 6 pairs
        return rng.normal(size=(4, 4)), {}
    if case == "ties":  # a few distinct values: the middle pair ties
        return rng.integers(0, 3, size=(160, 5)).astype(float), {}
    if case == "below_max_rows":
        return rng.normal(size=(120, 7)) * 3.0, {}
    if case == "subsampled":
        return rng.normal(size=(1500, 7)), {}
    if case == "multi_panel":  # 2 panels, 2 row chunks
        return rng.normal(size=(2600, 6)), {"max_rows": 2100}
    if case == "strided":  # a non-contiguous view, not subsampled
        return rng.normal(size=(150, 12))[:, ::2], {}
    raise AssertionError(case)


TAU_CASES = (
    "odd_pairs",
    "even_pairs",
    "tiny_odd",
    "tiny_even",
    "ties",
    "below_max_rows",
    "subsampled",
    "multi_panel",
    "strided",
)


@pytest.mark.parametrize("case", TAU_CASES)
def test_median_pairwise_tau_bit_identical_to_oracle(case):
    features, kwargs = _tau_inputs(case)
    live = median_pairwise_tau(features, **kwargs)
    frozen = legacy_median_pairwise_tau(features, **kwargs)
    assert type(live) is float
    assert np.float64(live).tobytes() == np.float64(frozen).tobytes()


def test_tau_ties_case_really_ties_at_the_middle():
    features, _ = _tau_inputs("ties")
    n = len(features)
    rows, cols = np.triu_indices(n, k=1)
    distances = np.sort(((features[rows] - features[cols]) ** 2).sum(axis=1))
    h = len(distances) // 2
    assert distances[h - 1] == distances[h]


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_median_pairwise_tau_non_finite_gives_nan_like_the_oracle(value):
    features, _ = _tau_inputs("even_pairs")
    features[7, 3] = value
    with np.errstate(invalid="ignore"):  # inf - inf is the point
        assert np.isnan(legacy_median_pairwise_tau(features))
        assert np.isnan(median_pairwise_tau(features))


def test_median_pairwise_tau_small_sets_match_the_oracle():
    assert median_pairwise_tau(np.ones((1, 3))) == 1.0
    same = np.ones((5, 3))  # every distance is 0: the floor applies
    assert median_pairwise_tau(same) == legacy_median_pairwise_tau(same) == 1e-9
