"""Tests for the segment compose layer and structural-sharing snapshots
(DESIGN.md §6).

Three properties:

1. **Bit-identical composition** — for every router x eviction-policy
   combination (classifier and regressor), the lazily materialized
   segmented state equals a fresh ``calibrate()`` on the surviving
   store samples, and snapshot decisions equal live decisions.
2. **Structural sharing** — after an update touching shard ``k``, a
   newly published snapshot reuses (``np.shares_memory``) every *other*
   shard's blocks from the previously published snapshot, and rebuilds
   shard ``k``'s.
3. **Snapshot immutability** — a slot-reuse eviction (reservoir /
   lowest-weight under pressure) in shard ``j`` never mutates a live
   snapshot's arrays: its decisions and materialized state are
   byte-stable across arbitrary later churn.
"""

import numpy as np
import pytest

from repro.core import (
    AdaptiveWeighting,
    PromClassifier,
    PromRegressor,
    SegmentBundle,
    SegmentedField,
    StreamingPromClassifier,
    StreamingPromRegressor,
    TauSketch,
    make_field,
)
from repro.core.blocks import BlockColumn
from repro.core.weighting import median_pairwise_tau

ROUTERS = ("hash", "label", "cluster")
POLICIES = ("fifo", "reservoir", "lowest_weight")


def _classification_batch(n, n_classes=5, n_features=8, seed=0, shift=0.0):
    g = np.random.default_rng(seed)
    features = g.normal(size=(n, n_features)) + shift
    raw = g.random((n, n_classes)) + 0.05
    probabilities = raw / raw.sum(axis=1, keepdims=True)
    labels = g.integers(0, n_classes, n)
    return features, probabilities, labels


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


def _calibrated_classifier(router="hash", policy="fifo", n_shards=4, capacity=120):
    streaming = StreamingPromClassifier(
        capacity=capacity,
        eviction=policy,
        n_shards=n_shards,
        router=router,
        seed=0,
    )
    features, probabilities, labels = _classification_batch(100, seed=1)
    streaming.calibrate(features, probabilities, labels)
    return streaming


def _calibrated_regressor(router="hash", policy="fifo", n_shards=3, capacity=100):
    streaming = StreamingPromRegressor(
        prom=PromRegressor(calibration_residuals="true", n_clusters=3),
        capacity=capacity,
        eviction=policy,
        n_shards=n_shards,
        router=router,
        seed=0,
    )
    features, predictions, targets = _regression_batch(90, seed=1)
    streaming.calibrate(features, predictions, targets)
    return streaming


class TestSegmentPrimitives:
    # the segmented row gather is BlockColumn.__getitem__ (DESIGN.md §9)
    def test_gather_rows_matches_flat_gather(self):
        g = np.random.default_rng(0)
        segments = [g.normal(size=(n, 4)) for n in (7, 0, 12, 3)]
        flat = np.concatenate(segments)
        rows = g.permutation(len(flat))[:15]
        assert np.array_equal(BlockColumn(segments)[rows], flat[rows])

    def test_gather_rows_preserves_duplicate_and_order(self):
        segments = [np.arange(5.0), np.arange(5.0, 9.0)]
        rows = [8, 0, 8, 3, 5]
        assert BlockColumn(segments)[rows].tolist() == [8.0, 0.0, 8.0, 3.0, 5.0]
        # feature rows: grouped by block internally, returned in order
        wide = [np.arange(10.0).reshape(5, 2), np.arange(10.0, 18.0).reshape(4, 2)]
        flat = np.concatenate(wide)
        assert np.array_equal(BlockColumn(wide)[rows], flat[rows])

    def test_gather_rows_negative_indices_wrap_like_numpy(self):
        segments = [np.arange(3.0), np.arange(3.0, 5.0)]
        flat = np.concatenate(segments)
        rows = [-1, -5, 2, -2]
        assert np.array_equal(BlockColumn(segments)[rows], flat[rows])
        wide = [np.ones((3, 2)), np.zeros((2, 2))]
        assert np.array_equal(
            BlockColumn(wide)[np.asarray(rows)], np.concatenate(wide)[rows]
        )

    def test_gather_rows_rejects_out_of_range(self):
        segments = [np.ones((3, 2)), np.zeros((2, 2))]
        with pytest.raises(IndexError):
            BlockColumn(segments)[np.asarray([5])]
        with pytest.raises(IndexError):
            BlockColumn(segments)[np.asarray([-6])]
        with pytest.raises(ValueError):
            BlockColumn([])

    def test_tau_sample_bit_identical_to_flat_resolution(self):
        g = np.random.default_rng(3)
        segments = tuple(g.normal(size=(n, 6)) for n in (150, 90, 120))
        field = SegmentedField(segments)
        flat = np.concatenate(segments)
        assert TauSketch().resolve(AdaptiveWeighting(), field) == (
            median_pairwise_tau(flat)
        )

    def test_tau_sample_small_sets_use_everything(self):
        segments = (np.ones((3, 2)), np.zeros((4, 2)))
        field = SegmentedField(segments)
        sketch = TauSketch(max_rows=200)
        tau = sketch.resolve(AdaptiveWeighting(), field)
        assert np.array_equal(sketch._sample, np.concatenate(segments))
        assert tau == median_pairwise_tau(np.concatenate(segments))

    def test_make_field_reuses_identical_segments(self):
        blocks = (np.arange(3.0), np.arange(4.0))
        first = make_field(blocks)
        again = make_field(blocks, first)
        assert again is first
        changed = make_field((blocks[0], np.arange(5.0)), first)
        assert changed is not first
        assert changed.segments[0] is blocks[0]

    def test_single_segment_flat_is_the_block(self):
        block = np.arange(6.0)
        field = SegmentedField((block,))
        assert field.flat() is block

    def test_bundle_shared_shards_counts_identity(self):
        a = np.arange(3.0)
        b = np.arange(4.0)
        scores = (np.ones(3), np.ones(4))
        bundle = SegmentBundle(
            fields={"_features": SegmentedField((a, b))},
            score_fields=(SegmentedField(scores),),
            label_key="_features",
        )
        same = SegmentBundle(
            fields={"_features": SegmentedField((a, b))},
            score_fields=(SegmentedField(scores),),
            label_key="_features",
        )
        assert bundle.shared_shards_with(same) == 2
        touched = SegmentBundle(
            fields={"_features": SegmentedField((a, np.arange(4.0)))},
            score_fields=(SegmentedField(scores),),
            label_key="_features",
        )
        assert bundle.shared_shards_with(touched) == 1
        assert bundle.shared_shards_with(None) == 0


class TestSegmentedEquivalence:
    """Segmented compose is bit-identical to the flat batch path."""

    @pytest.mark.parametrize("router", ROUTERS)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_classifier_matches_fresh_calibration(self, router, policy):
        streaming = _calibrated_classifier(router=router, policy=policy)
        for round_id in range(6):
            batch = _classification_batch(15, seed=10 + round_id, shift=0.5)
            streaming.update(*batch)
        fresh = PromClassifier().calibrate(
            streaming.store.column("features"),
            streaming.store.column("probabilities"),
            streaming.store.column("label"),
        )
        prom = streaming.prom
        bundle = prom._segment_bundle
        labels = np.concatenate(bundle.fields["_labels"].segments)
        theirs = fresh._segment_bundle
        assert np.array_equal(
            np.concatenate(bundle.fields["_features"].segments),
            theirs.fields["_features"].flat(),
        )
        assert np.array_equal(labels, theirs.fields["_labels"].flat())
        assert prom.weighting.effective_tau == fresh.weighting.effective_tau
        for field, their_field in zip(bundle.score_fields, theirs.score_fields):
            assert np.array_equal(np.concatenate(field.segments), their_field.flat())
        test = _classification_batch(30, seed=99, shift=1.0)
        _assert_decisions_identical(
            streaming.evaluate(test[0], test[1]),
            fresh.evaluate(test[0], test[1]),
        )

    @pytest.mark.parametrize("router", ("hash", "cluster"))
    @pytest.mark.parametrize("policy", POLICIES)
    def test_regressor_matches_refresh_reference(self, router, policy):
        streaming = _calibrated_regressor(router=router, policy=policy)
        for round_id in range(5):
            batch = _regression_batch(12, seed=20 + round_id, shift=0.3)
            streaming.update(*batch)
        test_features, test_predictions, _ = _regression_batch(25, seed=77)
        incremental = streaming.evaluate(test_features, test_predictions)
        streaming.refresh(refit_clusters=False)
        reference = streaming.evaluate(test_features, test_predictions)
        _assert_decisions_identical(incremental, reference)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_snapshot_decisions_match_live(self, policy):
        streaming = _calibrated_classifier(policy=policy)
        streaming.update(*_classification_batch(20, seed=31, shift=0.5))
        snapshot = streaming.detector_snapshot()
        test = _classification_batch(30, seed=45, shift=1.0)
        _assert_decisions_identical(
            snapshot.evaluate(test[0], test[1]),
            streaming.evaluate(test[0], test[1]),
        )


class TestStructuralSharing:
    """Consecutive snapshots share every untouched shard's blocks."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_update_shares_untouched_shard_blocks(self, policy):
        streaming = _calibrated_classifier(
            router="label", policy=policy, n_shards=4
        )
        before = streaming.detector_snapshot()
        # label routing: a single-label batch touches exactly one shard
        features, probabilities, labels = _classification_batch(12, seed=61)
        touched_shard = 2
        labels = np.full(len(labels), touched_shard)
        streaming.update(features, probabilities, labels)
        after = streaming.detector_snapshot()
        old = before._segment_bundle
        new = after._segment_bundle
        untouched = [s for s in range(4) if s != touched_shard]
        for field_old, field_new in zip(
            list(old.iter_fields()), list(new.iter_fields())
        ):
            for shard in untouched:
                a = field_old.segments[shard]
                b = field_new.segments[shard]
                assert a is b
                if len(a):
                    assert np.shares_memory(a, b)
        assert new.shared_shards_with(old) == 3

    def test_rescore_shares_feature_blocks_across_all_shards(self):
        streaming = _calibrated_classifier(n_shards=4)
        before = streaming.detector_snapshot()
        streaming.recalibrate_shards([1])
        after = streaming.detector_snapshot()
        old = before._segment_bundle
        new = after._segment_bundle
        # features and labels did not change at all: the whole field is
        # reused, flat cache included
        assert new.fields["_features"] is old.fields["_features"]
        assert new.fields["_labels"] is old.fields["_labels"]
        assert new.shared_shards_with(old) == 3

    def test_regressor_update_shares_untouched_blocks(self):
        streaming = _calibrated_regressor(router="cluster", n_shards=3)
        before = streaming.detector_snapshot()
        # pick candidates the fitted cluster router sends to one shard
        features, predictions, targets = _regression_batch(40, seed=71)
        routes = streaming.store.router.route(features)
        chosen = np.flatnonzero(routes == routes[0])[:5]
        update = streaming.update(
            features[chosen], predictions[chosen], targets[chosen]
        )
        after = streaming.detector_snapshot()
        untouched = [s for s in range(3) if s not in update.touched]
        assert untouched, "batch unexpectedly touched every shard"
        old = before._segment_bundle
        new = after._segment_bundle
        for field_old, field_new in zip(
            list(old.iter_fields()), list(new.iter_fields())
        ):
            for shard in untouched:
                assert field_old.segments[shard] is field_new.segments[shard]

    def test_served_snapshots_share_blocks_through_the_loop(self):
        pytest.importorskip("repro.ml")
        from repro.core import AsyncServingLoop, ModelInterface
        from repro.ml import MLPClassifier

        class BlobInterface(ModelInterface):
            def feature_extraction(self, X):
                return np.asarray(X)

        g = np.random.default_rng(0)
        X = g.normal(size=(300, 6))
        y = g.integers(0, 3, 300)
        X[:, 0] += y * 2.0
        interface = BlobInterface(
            MLPClassifier(epochs=10, seed=0),
            max_calibration=120,
            n_shards=4,
            router="hash",
        )
        interface.train(X, y)
        with AsyncServingLoop(interface) as loop:
            first = loop.snapshot
            X_new = g.normal(size=(1, 6))
            y_new = np.asarray([int(y[0])])
            assert loop.submit_fold(X_new, y_new)
            loop.drain(timeout=30)
            second = loop.snapshot
            assert second is not first
            # a 1-sample fold touches exactly one shard: 3 of 4 shared
            assert second.blocks_shared == 3
            assert loop.stats.shard_blocks_shared >= 3
            shared = second.interface.prom._segment_bundle.shared_shards_with(
                first.interface.prom._segment_bundle
            )
            assert shared == 3


class TestSnapshotImmutability:
    """Slot-reuse eviction never mutates a live snapshot's arrays."""

    @pytest.mark.parametrize("policy", ("reservoir", "lowest_weight"))
    def test_eviction_churn_leaves_snapshot_bytes_stable(self, policy):
        streaming = _calibrated_classifier(policy=policy, capacity=100)
        snapshot = streaming.detector_snapshot()
        test = _classification_batch(30, seed=81, shift=1.0)
        before_decisions = snapshot.evaluate(test[0], test[1])
        bundle = snapshot._segment_bundle
        frozen_features = np.concatenate(bundle.fields["_features"].segments)
        frozen_scores = [np.concatenate(f.segments) for f in bundle.score_fields]
        # churn hard: every add overflows capacity, forcing slot-reuse
        # evictions that rewrite the store's buffers in place
        for round_id in range(8):
            batch = _classification_batch(40, seed=90 + round_id, shift=2.0)
            streaming.update(*batch)
        bundle = snapshot._segment_bundle
        assert np.array_equal(
            np.concatenate(bundle.fields["_features"].segments), frozen_features
        )
        for field, frozen in zip(bundle.score_fields, frozen_scores):
            assert np.array_equal(np.concatenate(field.segments), frozen)
        _assert_decisions_identical(
            snapshot.evaluate(test[0], test[1]), before_decisions
        )

    def test_explicit_shard_eviction_leaves_snapshot_stable(self):
        streaming = _calibrated_classifier(policy="lowest_weight", n_shards=4)
        snapshot = streaming.detector_snapshot()
        test = _classification_batch(20, seed=83, shift=0.5)
        before_decisions = snapshot.evaluate(test[0], test[1])
        # evict from one shard by global position, then overflow it so
        # its buffers are rewritten in place
        streaming.evict([0, 1, 2])
        streaming.update(*_classification_batch(60, seed=84, shift=1.5))
        _assert_decisions_identical(
            snapshot.evaluate(test[0], test[1]), before_decisions
        )
