"""Tests for segment-direct evaluate kernels and router-aware pruning
(DESIGN.md §9).

Four properties:

1. **Canonical panel kernel** — every panel is a C-contiguous
   ``(d, rows)`` transpose built once, so a one-block and a
   multi-segment column give bitwise-equal products at any batch size,
   gathers/norms are exact, and the panel caches (``inherit_cache``)
   never change values.
2. **Segment-direct equivalence** — for every router x eviction-policy
   combination (classifier and regressor), evaluating against a
   compose bundle is bit-identical to a fresh flat calibration, and
   the bundle is the detector's only state (no flat copy exists).
3. **Incremental tau** — the :class:`TauSketch` resolves taus
   bit-identical to the flat ``resolve_tau`` and skips the median
   kernel when no sampled row changed.
4. **Router-aware pruning** — ``spill=1.0`` is bit-identical with full
   counters; ``spill<1`` scores strictly fewer candidates with bounded
   decision disagreement on a clustered drifted stream, after every
   kind of state mutation; counters ride ``DecisionBatch`` through
   take/concatenate and the stream runner.
"""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from repro.core import (
    BlockColumn,
    CandidatePruner,
    ConfigurationError,
    PromClassifier,
    PromRegressor,
    SegmentedField,
    StreamingPromClassifier,
    StreamingPromRegressor,
    TauSketch,
    ValidationError,
    panel_bounds,
)
from repro.core.blocks import (
    PANEL_ROWS,
    SEGMENT_DIRECT_MIN_ROWS,
    panel_product,
)
from repro.core.prom import _evaluation_view
from repro.core.weighting import AdaptiveWeighting, squared_distance_matrix

ROUTERS = ("hash", "label", "cluster")
POLICIES = ("fifo", "reservoir", "lowest_weight")

#: calibration sizes used below sit just above the segment-direct
#: threshold so the tier-1 suite stays fast.
N_LARGE = SEGMENT_DIRECT_MIN_ROWS + 352


def _classification_batch(n, n_classes=5, n_features=8, seed=0, shift=0.0):
    g = np.random.default_rng(seed)
    features = g.normal(size=(n, n_features)) + shift
    raw = g.random((n, n_classes)) + 0.05
    probabilities = raw / raw.sum(axis=1, keepdims=True)
    labels = g.integers(0, n_classes, n)
    return features, probabilities, labels


def _clustered_batch(n, n_clusters=4, n_features=8, seed=0, shift=0.0):
    """Well-separated Gaussian clusters (for router-affine pruning)."""
    g = np.random.default_rng(seed)
    centers = g.normal(size=(n_clusters, n_features)) * 6.0
    assignment = g.integers(0, n_clusters, n)
    features = centers[assignment] + g.normal(size=(n, n_features)) * 0.5 + shift
    raw = g.random((n, n_clusters)) + 0.05
    probabilities = raw / raw.sum(axis=1, keepdims=True)
    return features, probabilities, assignment


def _regression_batch(n, n_features=6, seed=0, shift=0.0):
    g = np.random.default_rng(seed)
    features = g.normal(size=(n, n_features)) + shift
    targets = 2.0 * features[:, 0] + np.sin(features[:, 1])
    predictions = targets + g.normal(scale=0.2, size=n)
    return features, predictions, targets


def _assert_decisions_identical(a, b):
    assert np.array_equal(a.accepted, b.accepted)
    assert np.array_equal(a.credibility, b.credibility)
    assert np.array_equal(a.confidence, b.confidence)
    assert np.array_equal(a.drifting, b.drifting)


def _large_classifier(router="hash", policy="fifo", n_shards=4, seed=1):
    """A streaming classifier whose composed set exceeds the segment-
    direct threshold, after a few folds."""
    streaming = StreamingPromClassifier(
        capacity=N_LARGE,
        eviction=policy,
        n_shards=n_shards,
        router=router,
        seed=0,
    )
    streaming.calibrate(*_classification_batch(N_LARGE - 200, seed=seed))
    for round_id in range(4):
        batch = _classification_batch(80, seed=100 + seed + round_id, shift=0.4)
        streaming.update(*batch)
    assert len(streaming.store) >= SEGMENT_DIRECT_MIN_ROWS
    return streaming


def _large_regressor(router="hash", policy="fifo", n_shards=3, seed=1):
    streaming = StreamingPromRegressor(
        prom=PromRegressor(calibration_residuals="true", n_clusters=3),
        capacity=N_LARGE,
        eviction=policy,
        n_shards=n_shards,
        router=router,
        seed=0,
    )
    streaming.calibrate(*_regression_batch(N_LARGE - 200, seed=seed))
    for round_id in range(3):
        batch = _regression_batch(70, seed=200 + seed + round_id, shift=0.3)
        streaming.update(*batch)
    assert len(streaming.store) >= SEGMENT_DIRECT_MIN_ROWS
    return streaming


class TestPanelPartition:
    def test_small_sets_are_one_panel(self):
        assert panel_bounds(0) == ()
        assert panel_bounds(1) == ((0, 1),)
        assert panel_bounds(SEGMENT_DIRECT_MIN_ROWS - 1) == (
            (0, SEGMENT_DIRECT_MIN_ROWS - 1),
        )

    def test_large_sets_use_the_fixed_grid(self):
        n = 2 * PANEL_ROWS + 300
        bounds = panel_bounds(n)
        assert bounds == (
            (0, PANEL_ROWS),
            (PANEL_ROWS, 2 * PANEL_ROWS),
            (2 * PANEL_ROWS, n),
        )
        # partition depends on n only, never on any segmentation
        assert panel_bounds(n) == bounds

    def test_single_panel_product_is_the_plain_gemm(self):
        g = np.random.default_rng(0)
        calibration = g.normal(size=(500, 12))
        test = g.normal(size=(9, 12))
        assert np.array_equal(
            panel_product(test, BlockColumn([calibration]).panels(), 500),
            test @ np.ascontiguousarray(calibration.T),
        )


class TestBlockColumn:
    def _column(self, seed=0, n=N_LARGE, d=5, cuts=(400, 400, 0, 1300)):
        g = np.random.default_rng(seed)
        flat = g.normal(size=(n, d))
        sizes = list(cuts) + [n - sum(cuts)]
        blocks, start = [], 0
        for size in sizes:
            blocks.append(flat[start : start + size].copy())
            start += size
        return BlockColumn(blocks), flat

    def test_rejects_empty_segment_list(self):
        with pytest.raises(ValidationError):
            BlockColumn(())

    def test_gather_matches_flat_indexing(self):
        column, flat = self._column()
        g = np.random.default_rng(1)
        rows = g.integers(-len(flat), len(flat), size=(4, 7))
        assert np.array_equal(column[rows], flat[rows])
        assert np.array_equal(column[np.arange(0)], flat[np.arange(0)])

    def test_gather_out_of_range_raises(self):
        column, flat = self._column()
        with pytest.raises(IndexError):
            column[np.asarray([len(flat)])]
        with pytest.raises(IndexError):
            column[np.asarray([-len(flat) - 1])]

    def test_restrict_is_the_block_subset(self):
        column, _ = self._column()
        restricted = column.restrict((0, 3))
        assert restricted.segments == (column.segments[0], column.segments[3])
        assert len(restricted) == len(column.segments[0]) + len(column.segments[3])

    @pytest.mark.parametrize("n_test", [1, 2, 11, 166])
    def test_panels_and_norms_bitwise_match_flat(self, n_test):
        column, flat = self._column(seed=2, d=16)
        test = np.random.default_rng(3).normal(size=(n_test, 16))
        assert np.array_equal(
            panel_product(test, column.panels(), len(flat)),
            panel_product(test, BlockColumn([flat]).panels(), len(flat)),
        )
        assert np.array_equal(
            column.row_norms(), np.einsum("ij,ij->i", flat, flat)
        )

    def test_panels_are_contiguous_transposes_built_once(self):
        column, flat = self._column()
        panels = column.panels()
        assert [c0 for c0, _ in panels] == [c0 for c0, _ in panel_bounds(len(flat))]
        for (c0, c1), (_, panel) in zip(panel_bounds(len(flat)), panels):
            assert panel.flags.c_contiguous
            assert panel.dtype == np.float64
            assert panel.shape == (flat.shape[1], c1 - c0)
            assert np.array_equal(panel, flat[c0:c1].T)
            assert not any(np.shares_memory(panel, block) for block in column.segments)
        again = column.panels()
        assert again is panels
        assert all(a is b for (_, a), (_, b) in zip(again, panels))

    def test_straddling_panels_are_cached(self):
        column, _ = self._column()
        first = column.panels()
        assert column.panels() is first
        rebuilt = BlockColumn(column.segments)
        rebuilt.inherit_cache(column)
        for (_, a), (_, b) in zip(rebuilt.panels(), first):
            assert a is b  # every block survived: every panel carried

    def test_inherit_cache_drops_panels_of_dead_blocks(self):
        column, flat = self._column(cuts=(1500, 700))
        old_panels = column.panels()
        # replace the block under the straddling second and third panels
        blocks = list(column.segments)
        blocks[1] = blocks[1].copy()
        successor = BlockColumn(blocks)
        successor.inherit_cache(column)
        assert successor._previous is column
        panels = successor.panels()
        assert successor._previous is None  # the predecessor is unpinned
        # the first panel holds block 0 rows only: carried as is
        assert panels[0][1] is old_panels[0][1]
        for (_, panel), (_, old) in zip(panels[1:3], old_panels[1:3]):
            assert panel is not old and not np.shares_memory(panel, old)
        # and the rebuilt panels still match a one-block column bitwise
        test = np.random.default_rng(4).normal(size=(3, 5))
        assert np.array_equal(
            panel_product(test, panels, len(flat)),
            panel_product(test, BlockColumn([flat]).panels(), len(flat)),
        )

    @pytest.mark.parametrize("grow", [1, -1, 37])
    def test_shifted_panels_are_repaired_bitwise(self, grow):
        column, flat = self._column(cuts=(1100, 900, 0, 300))
        old_panels = column.panels()
        # resize block 1: every later row moves off its old panel slot
        g = np.random.default_rng(5)
        blocks = list(column.segments)
        if grow > 0:
            blocks[1] = np.concatenate([blocks[1], g.normal(size=(grow, 5))])
        else:
            blocks[1] = blocks[1][1:].copy()
        successor = BlockColumn(blocks)
        successor.inherit_cache(column)
        panels = successor.panels()
        fresh_flat = np.concatenate(blocks)
        fresh = BlockColumn([fresh_flat]).panels()
        assert [c0 for c0, _ in panels] == [c0 for c0, _ in fresh]
        for (_, panel), (_, reference) in zip(panels, fresh):
            assert panel.flags.c_contiguous
            assert panel.tobytes() == reference.tobytes()
        # the first panel's rows did not move: it is carried, not copied
        assert panels[0][1] is old_panels[0][1]
        assert all(p is not old for _, p in panels[1:] for _, old in old_panels)

    def test_repair_skips_a_predecessor_without_panels(self):
        column, flat = self._column()
        column.panels()
        middle = BlockColumn(column.segments)
        middle.inherit_cache(column)  # never builds its panels
        last = BlockColumn(column.segments)
        last.inherit_cache(middle)
        assert last._previous is column
        assert all(a is b for (_, a), (_, b) in zip(last.panels(), column.panels()))


class TestSegmentDirectEquivalence:
    @pytest.mark.parametrize("router", ROUTERS)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_classifier_bit_identical_without_flat_concat(self, router, policy):
        streaming = _large_classifier(router=router, policy=policy)
        test = _classification_batch(40, seed=99, shift=0.8)
        decisions = streaming.evaluate(test[0], test[1])
        # evaluate ran segment-direct: the bundle is the only state
        assert "_features" not in streaming.prom.__dict__
        fresh = PromClassifier().calibrate(
            streaming.store.column("features"),
            streaming.store.column("probabilities"),
            streaming.store.column("label"),
        )
        _assert_decisions_identical(decisions, fresh.evaluate(test[0], test[1]))
        assert (
            streaming.prom.weighting.effective_tau
            == fresh.weighting.effective_tau
        )

    @pytest.mark.parametrize("router", ("hash", "cluster"))
    @pytest.mark.parametrize("policy", POLICIES)
    def test_regressor_bit_identical_without_flat_concat(self, router, policy):
        streaming = _large_regressor(router=router, policy=policy)
        test_features, test_predictions, _ = _regression_batch(30, seed=88)
        incremental = streaming.evaluate(test_features, test_predictions)
        assert "_features" not in streaming.prom.__dict__
        streaming.refresh(refit_clusters=False)
        reference = streaming.evaluate(test_features, test_predictions)
        _assert_decisions_identical(incremental, reference)

    def test_small_sets_evaluate_on_the_bundle_view(self):
        streaming = StreamingPromClassifier(
            capacity=300, n_shards=4, router="hash", seed=0
        )
        streaming.calibrate(*_classification_batch(250, seed=5))
        streaming.update(*_classification_batch(20, seed=6))
        view = streaming.prom._segment_bundle.evaluation_view()
        assert _evaluation_view(streaming.prom) is view
        # below the threshold the partition is one panel, still no concat
        assert len(view.features.panels()) == 1
        test = _classification_batch(10, seed=7)
        decisions = streaming.evaluate(test[0], test[1])
        fresh = PromClassifier().calibrate(
            streaming.store.column("features"),
            streaming.store.column("probabilities"),
            streaming.store.column("label"),
        )
        _assert_decisions_identical(decisions, fresh.evaluate(test[0], test[1]))

    def test_live_and_snapshot_share_one_panel_cache(self):
        streaming = _large_classifier()
        view = streaming.prom._segment_bundle.evaluation_view()
        assert _evaluation_view(streaming.prom) is view
        snapshot = streaming.detector_snapshot()
        assert _evaluation_view(snapshot) is view

    def test_retired_snapshot_is_freed_without_the_cycle_collector(self):
        streaming = _large_classifier()
        snapshot = streaming.detector_snapshot()
        test = _classification_batch(3, seed=12)
        snapshot.evaluate(test[0], test[1])
        retired = weakref.ref(snapshot)
        gc.disable()
        try:
            del snapshot
            assert retired() is None
        finally:
            gc.enable()

    def test_plain_detector_view_is_built_once_per_calibration(self):
        features, probabilities, labels = _classification_batch(300, seed=9)
        prom = PromClassifier().calibrate(features, probabilities, labels)
        view = _evaluation_view(prom)
        assert view.features.segments == prom._segment_bundle.fields["_features"].segments
        assert _evaluation_view(prom) is view
        test = _classification_batch(5, seed=10)
        first = prom.evaluate(test[0], test[1])
        assert _evaluation_view(prom) is view
        prom.calibrate(features[:200], probabilities[:200], labels[:200])
        rebuilt = _evaluation_view(prom)
        assert rebuilt is not view and len(rebuilt.features) == 200
        prom.calibrate(features, probabilities, labels)
        _assert_decisions_identical(first, prom.evaluate(test[0], test[1]))

    def test_snapshot_evaluates_segment_direct(self):
        streaming = _large_classifier()
        snapshot = streaming.detector_snapshot()
        test = _classification_batch(25, seed=55, shift=0.5)
        snap_decisions = snapshot.evaluate(test[0], test[1])
        _assert_decisions_identical(
            snap_decisions, streaming.evaluate(test[0], test[1])
        )

    def test_publish_inherits_untouched_panels(self):
        # label routing: a single-label batch touches exactly one shard,
        # so panels over the other shards' blocks must carry over
        streaming = StreamingPromClassifier(
            capacity=N_LARGE + 400, n_shards=4, router="label", seed=0
        )
        streaming.calibrate(*_classification_batch(N_LARGE, seed=8))
        view = streaming.prom._segment_bundle.evaluation_view()
        view.prewarm()
        before = [panel for _, panel in view.features.panels()]
        features, probabilities, labels = _classification_batch(30, seed=500)
        streaming.update(features, probabilities, np.full(len(labels), 3))
        after_view = streaming.prom._segment_bundle.evaluation_view()
        assert after_view is not view
        assert after_view.features._previous is view.features
        after_view.prewarm()
        panels = after_view.features.panels()
        reused = sum(1 for _, panel in panels if any(panel is p for p in before))
        assert 0 < reused < len(panels)  # the touched shard's panels are new
        flat = np.concatenate(after_view.features.segments)
        test = np.random.default_rng(6).normal(size=(2, flat.shape[1]))
        assert np.array_equal(
            panel_product(test, panels, len(flat)),
            panel_product(test, BlockColumn([flat]).panels(), len(flat)),
        )


class TestOneRowFoldSequence:
    """The deployment maintenance job, fold by fold (DESIGN.md §3, §9).

    One-row folds on a 16-shard hash store that hash routing left
    under capacity, so folds into some shards grow them and shift every
    later shard's rows across the panel grid.  After each publish and
    prewarm, the repaired panels, the distance blocks at batch 2 and
    256, and the snapshot's decisions must equal a fresh computation.
    """

    def test_every_publish_matches_a_fresh_one_block_column(self):
        n_calibration, n_folds = SEGMENT_DIRECT_MIN_ROWS + 152, 110
        streaming = StreamingPromClassifier(
            capacity=n_calibration, n_shards=16, router="hash", seed=0
        )
        streaming.calibrate(*_classification_batch(n_calibration, seed=40))
        streaming.detector_snapshot()._segment_bundle.evaluation_view().prewarm()
        folds = _classification_batch(n_folds, seed=41, shift=0.3)
        tests = [_classification_batch(n, seed=42 + n) for n in (2, 256)]
        resized = 0
        for i in range(n_folds):
            sizes = streaming.shard_sizes
            streaming.update(*(column[i : i + 1] for column in folds))
            resized += sizes != streaming.shard_sizes
            snapshot = streaming.detector_snapshot()
            view = snapshot._segment_bundle.evaluation_view()
            view.prewarm()
            flat = np.concatenate(view.features.segments)
            fresh = BlockColumn([flat])
            panels, fresh_panels = view.features.panels(), fresh.panels()
            assert [c0 for c0, _ in panels] == [c0 for c0, _ in fresh_panels]
            for (_, panel), (_, reference) in zip(panels, fresh_panels):
                assert panel.flags.c_contiguous
                assert panel.tobytes() == reference.tobytes()
            reference = PromClassifier().calibrate(
                flat,
                streaming.store.column("probabilities"),
                streaming.store.column("label"),
            )
            assert (
                snapshot.weighting.effective_tau
                == reference.weighting.effective_tau
            )
            for features, _, _ in tests:
                assert np.array_equal(
                    squared_distance_matrix(features, view.features),
                    squared_distance_matrix(features, fresh),
                )
            # decisions at batch 2 after every fold, at 256 now and then
            for features, probabilities, _ in tests[: 1 + (i % 25 == 0)]:
                live = snapshot.evaluate(features, probabilities)
                expected = reference.evaluate(features, probabilities)
                assert np.array_equal(live.accepted, expected.accepted)
                assert np.array_equal(live.credibility, expected.credibility)
        assert resized >= n_folds // 5  # shard sizes changed along the way
        assert resized < n_folds  # and some folds replaced a row in place


class TestTauSketch:
    def _field(self, seed=0, sizes=(600, 500, 400), d=6):
        g = np.random.default_rng(seed)
        return SegmentedField(tuple(g.normal(size=(n, d)) for n in sizes))

    def test_resolution_bit_identical_to_flat(self):
        field = self._field()
        incremental = AdaptiveWeighting()
        flat = AdaptiveWeighting()
        sketch = TauSketch()
        assert sketch.resolve(incremental, field) == flat.resolve_tau(
            np.concatenate(field.segments)
        )
        assert incremental.effective_tau == flat.effective_tau

    def test_unchanged_sample_skips_the_median_kernel(self, monkeypatch):
        from repro.core import weighting as weighting_module

        calls = []
        original = weighting_module.median_pairwise_tau

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(weighting_module, "median_pairwise_tau", counting)
        sketch = TauSketch()
        weighting = AdaptiveWeighting()
        field = self._field(seed=1)
        first = sketch.resolve(weighting, field)
        assert len(calls) == 1
        # same values behind different block objects: adopted, no kernel
        same_values = SegmentedField(
            tuple(block.copy() for block in field.segments)
        )
        assert sketch.resolve(weighting, same_values) == first
        assert len(calls) == 1
        # perturb one *sampled* row: full recompute
        row = int(sketch._rows[0])
        sizes = np.asarray([len(b) for b in field.segments])
        owner = int(np.searchsorted(np.cumsum(sizes), row, side="right"))
        local = row - int(np.concatenate([[0], np.cumsum(sizes)])[owner])
        blocks = [b.copy() for b in field.segments]
        blocks[owner][local] += 1.0
        changed = SegmentedField(tuple(blocks))
        sketch.resolve(weighting, changed)
        assert len(calls) == 2

    def test_fixed_tau_ignores_the_features(self):
        weighting = AdaptiveWeighting(tau=7.5)
        assert TauSketch().resolve(weighting, self._field()) == 7.5
        assert weighting.effective_tau == 7.5

    def test_streaming_updates_keep_tau_bit_identical(self):
        # the wrapper resolves tau through its sketch on every update;
        # the result must equal a fresh flat calibration's tau
        streaming = _large_classifier(router="label", policy="fifo")
        fresh = AdaptiveWeighting()
        fresh.resolve_tau(np.asarray(streaming.store.column("features")))
        assert streaming.prom.weighting.effective_tau == fresh.effective_tau


class TestCandidatePruner:
    def test_spill_is_validated(self):
        with pytest.raises(ConfigurationError):
            CandidatePruner(spill=1.5)
        with pytest.raises(ConfigurationError):
            CandidatePruner(spill=-0.1)

    def test_candidate_shard_count(self):
        assert CandidatePruner(spill=0.0).candidate_shard_count(6) == 1
        assert CandidatePruner(spill=1.0).candidate_shard_count(6) == 6
        assert CandidatePruner(spill=0.5).candidate_shard_count(5) == 3
        assert CandidatePruner(spill=0.0).candidate_shard_count(1) == 1
        assert CandidatePruner(spill=0.0).candidate_shard_count(0) == 0

    def test_full_spill_bit_identical_with_counters(self):
        streaming = _large_classifier(router="cluster", policy="fifo")
        test = _classification_batch(35, seed=70, shift=0.6)
        baseline = streaming.evaluate(test[0], test[1])
        assert baseline.n_candidates_scored is None
        streaming.prom._pruner = CandidatePruner(spill=1.0)
        pruned = streaming.evaluate(test[0], test[1])
        _assert_decisions_identical(baseline, pruned)
        assert pruned.n_candidates_scored == 35 * len(streaming.store)
        assert pruned.n_shards_pruned == 0

    def test_low_spill_prunes_with_bounded_disagreement(self):
        n_shards = 4
        streaming = StreamingPromClassifier(
            capacity=N_LARGE + 400,
            eviction="fifo",
            n_shards=n_shards,
            router="cluster",
            seed=0,
        )
        streaming.calibrate(*_clustered_batch(N_LARGE, seed=11))
        streaming.update(*_clustered_batch(60, seed=12, shift=1.5))
        features, probabilities, _ = _clustered_batch(80, seed=13, shift=1.5)
        unpruned = streaming.evaluate(features, probabilities)
        total = 80 * len(streaming.store)
        agreements, scored = [], []
        for spill in (0.0, 0.25, 0.5):
            streaming.prom._pruner = CandidatePruner(spill=spill)
            pruned = streaming.evaluate(features, probabilities)
            assert pruned.n_shards_pruned > 0
            agreements.append(
                float(np.mean(pruned.accepted == unpruned.accepted))
            )
            scored.append(pruned.n_candidates_scored / total)
        # the GEMM shrinks with spill: spill=0 scores ~1/n_shards of
        # the calibration set, and coverage of the unpruned decisions
        # degrades monotonically as spill drops (measured on this
        # stream: ~0.88 agreement at spill=0.5 down to ~0.54 at 0)
        assert scored[0] < 0.35 and scored[0] < scored[1] < scored[2] < 0.85
        assert agreements[0] >= 0.4
        assert agreements[2] >= 0.8
        assert agreements[0] <= agreements[1] <= agreements[2]

    def test_low_spill_prunes_after_every_mutation(self):
        # full rebuilds leave the detector on a bundle too, so the
        # pruner engages after each kind of state change, and the live
        # detector decides bitwise like its snapshot (same bundle,
        # same pruner)
        streaming = StreamingPromClassifier(
            capacity=N_LARGE + 400, n_shards=4, router="cluster", seed=0
        )
        streaming.prom._pruner = CandidatePruner(spill=0.0)
        features, probabilities, _ = _clustered_batch(60, seed=14, shift=0.5)
        mutations = {
            "calibrate": lambda: streaming.calibrate(
                *_clustered_batch(N_LARGE, seed=11)
            ),
            "update": lambda: streaming.update(
                *_clustered_batch(60, seed=12, shift=0.5)
            ),
            "evict": lambda: streaming.evict(np.arange(30)),
            "recalibrate_shards": lambda: streaming.recalibrate_shards([0, 2]),
            "refresh": streaming.refresh,
        }
        for name, mutate in mutations.items():
            mutate()
            assert len(streaming.store) >= SEGMENT_DIRECT_MIN_ROWS
            live = streaming.evaluate(features, probabilities)
            assert (live.n_shards_pruned or 0) > 0, name
            snapshot = streaming.detector_snapshot()
            frozen = snapshot.evaluate(features, probabilities)
            _assert_decisions_identical(live, frozen)
            assert frozen.n_candidates_scored == live.n_candidates_scored

    def test_regressor_full_spill_bit_identical(self):
        streaming = _large_regressor(router="cluster", policy="fifo")
        test_features, test_predictions, _ = _regression_batch(20, seed=44)
        baseline = streaming.evaluate(test_features, test_predictions)
        streaming.prom._pruner = CandidatePruner(spill=1.0)
        pruned = streaming.evaluate(test_features, test_predictions)
        _assert_decisions_identical(baseline, pruned)
        assert pruned.n_candidates_scored == 20 * len(streaming.store)

    def test_counters_ride_take_and_concatenate(self):
        streaming = _large_classifier()
        streaming.prom._pruner = CandidatePruner(spill=1.0)
        test = _classification_batch(12, seed=90)
        batch = streaming.evaluate(test[0], test[1])
        taken = batch.take(np.arange(len(batch))[::-1])
        assert taken.n_candidates_scored == batch.n_candidates_scored
        assert taken.n_shards_pruned == batch.n_shards_pruned
        merged = type(batch).concatenate(
            [batch, taken], expert_names=batch.expert_names
        )
        assert merged.n_candidates_scored == 2 * batch.n_candidates_scored
        # slicing is a sub-batch: whole-batch counters do not apply
        assert batch[2:5].n_candidates_scored is None
        # a counter-less member poisons the sum to None, not to garbage
        plain = dataclasses.replace(
            batch, n_candidates_scored=None, n_shards_pruned=None
        )
        mixed = type(batch).concatenate(
            [batch, plain], expert_names=batch.expert_names
        )
        assert mixed.n_candidates_scored is None


class TestStreamPlumbing:
    def _interface(self, **kwargs):
        pytest.importorskip("repro.ml")
        from repro.core import ModelInterface
        from repro.ml import MLPClassifier

        class BlobInterface(ModelInterface):
            def feature_extraction(self, X):
                return np.asarray(X)

        from ..conftest import make_blobs

        defaults = dict(
            calibration_ratio=0.5,
            max_calibration=SEGMENT_DIRECT_MIN_ROWS + 200,
            n_shards=4,
            router="hash",
        )
        defaults.update(kwargs)
        interface = BlobInterface(MLPClassifier(epochs=5, seed=0), **defaults)
        X, y = make_blobs(2 * (SEGMENT_DIRECT_MIN_ROWS + 400), seed=0)
        interface.train(X, y)
        assert interface.calibration_size >= SEGMENT_DIRECT_MIN_ROWS
        return interface

    def _stream(self, n=320, seed=3):
        from ..conftest import make_blobs

        X_a, y_a = make_blobs(n // 2, seed=seed)
        X_b, y_b = make_blobs(n // 2, shift=3.0, seed=seed + 1)
        return np.concatenate([X_a, X_b]), np.concatenate([y_a, y_b])

    @pytest.mark.parametrize("mutation", ["calibrate", "replace_outputs"])
    def test_pruner_routes_with_the_current_store_router(self, mutation):
        # calibrate() and replace_outputs() swap in a re-fitted router;
        # the pruner stream_deployment installed must route with it
        # (spill 0: every row is scored against its routed shard only),
        # while a snapshot keeps its own generation's router
        from repro.core import LoopConfig, PruningConfig
        from repro.experiments import stream_deployment

        from ..conftest import make_blobs

        interface = self._interface(router="cluster", max_calibration=4000)
        X_stream, y_stream = self._stream(n=64)
        stream_deployment(
            interface,
            X_stream,
            y_stream,
            loop=LoopConfig(batch_size=32, epochs=1),
            pruning=PruningConfig(spill=0.0),
        )
        streaming = interface.streaming
        prom = streaming.prom
        X_test, _ = make_blobs(200, shift=1.0, seed=9)
        features = interface.feature_extraction(X_test)
        probabilities = interface.model.predict_proba(X_test)
        predicted = probabilities.argmax(axis=1)
        snapshot = streaming.detector_snapshot()
        frozen = snapshot.evaluate(features, probabilities)

        if mutation == "calibrate":
            interface.calibrate(*make_blobs(2600, shift=1.5, seed=5))
        else:
            streaming.replace_outputs(
                streaming.store.column("features") * 1.5 + 0.5,
                streaming.store.column("probabilities"),
                streaming.store.column("label"),
            )
        assert interface.calibration_size >= SEGMENT_DIRECT_MIN_ROWS
        router = streaming.store.router
        view = prom._segment_bundle.evaluation_view()
        assert view.router is router
        routes = np.asarray(router.route(features), dtype=int)
        expected = np.empty(len(features), dtype=bool)
        for shard in np.unique(routes):
            assert len(view.features.segments[shard])
            rows = np.flatnonzero(routes == shard)
            expected[rows] = prom._evaluate_rows(
                view.restrict((shard,)),
                features[rows],
                (probabilities[rows], predicted[rows]),
                None,
            ).accepted
        pruned = prom.evaluate(features, probabilities)
        assert pruned.n_shards_pruned > 0
        assert np.array_equal(pruned.accepted, expected)
        _assert_decisions_identical(snapshot.evaluate(features, probabilities), frozen)

    def test_config_echo_and_counter_totals(self):
        from repro.experiments import stream_deployment

        interface = self._interface()
        X_stream, y_stream = self._stream()
        from repro.core import LoopConfig, PruningConfig

        result = stream_deployment(
            interface,
            X_stream,
            y_stream,
            loop=LoopConfig(batch_size=64, epochs=3),
            pruning=PruningConfig(spill=1.0, chunk_size=512),
        )
        assert result.chunk_size == 512
        assert result.prune is True
        assert result.prune_spill == 1.0
        assert interface.prom._chunk_size == 512
        assert isinstance(interface.prom._pruner, CandidatePruner)
        assert interface.prom._segment_bundle.router is interface.streaming.store.router
        # evaluates run segment-direct through the pruner and the
        # counters accumulate
        assert result.n_candidates_scored > 0
        assert result.n_candidates_scored == sum(
            step.n_candidates_scored for step in result.steps
        )
        assert result.n_shards_pruned == sum(
            step.n_shards_pruned for step in result.steps
        )

    def test_full_spill_stream_matches_unpruned_stream(self):
        from repro.experiments import stream_deployment

        from repro.core import LoopConfig, PruningConfig, ServingConfig

        X_stream, y_stream = self._stream()
        loop_config = LoopConfig(batch_size=64, epochs=3)
        serving_config = ServingConfig(asynchronous=False, record_decisions=True)
        plain = stream_deployment(
            self._interface(),
            X_stream,
            y_stream,
            loop=loop_config,
            serving=serving_config,
        )
        pruned = stream_deployment(
            self._interface(),
            X_stream,
            y_stream,
            loop=loop_config,
            serving=serving_config,
            pruning=PruningConfig(spill=1.0),
        )
        assert plain.prune is False and pruned.prune is True
        for a, b in zip(plain.steps, pruned.steps):
            _assert_decisions_identical(a.decisions, b.decisions)
        assert pruned.n_candidates_scored > 0
        assert pruned.n_shards_pruned == 0
