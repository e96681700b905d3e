"""Tests for the sharded calibration architecture (DESIGN.md §4).

The acceptance property: a sharded streaming detector — for every
(router keying x eviction policy) combination — stays bit-identical in
its decisions to a fresh detector calibrated on the union of the
surviving samples, after any sequence of updates and evictions.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    CalibrationError,
    CalibrationStore,
    ClusterShardRouter,
    HashShardRouter,
    LabelShardRouter,
    PromClassifier,
    PromRegressor,
    ShardRouter,
    ShardedCalibrationStore,
    StreamingPromClassifier,
    StreamingPromRegressor,
    resolve_shard_router,
)

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


def _assert_decision_identical(a, b):
    assert np.array_equal(a.accepted, b.accepted)
    assert np.array_equal(a.credibility, b.credibility)
    assert np.array_equal(a.confidence, b.confidence)
    assert np.array_equal(a.expert_accept, b.expert_accept)
    assert np.array_equal(a.expert_credibility, b.expert_credibility)
    assert np.array_equal(a.expert_set_size, b.expert_set_size)


class TestShardRouters:
    def test_hash_router_deterministic_and_in_range(self):
        router = HashShardRouter(4)
        features = np.random.default_rng(0).normal(size=(50, 6))
        first = router.route(features)
        second = router.route(features)
        assert np.array_equal(first, second)
        assert first.min() >= 0 and first.max() < 4
        # identical rows land on identical shards
        assert first[0] == router.route(features[0])[0]

    def test_hash_router_spreads_samples(self):
        router = HashShardRouter(8)
        features = np.random.default_rng(1).normal(size=(400, 6))
        counts = np.bincount(router.route(features), minlength=8)
        assert (counts > 0).all()

    def test_label_router_groups_by_label(self):
        router = LabelShardRouter(4)
        labels = np.arange(10)
        assert router.route(None, labels).tolist() == (labels % 4).tolist()
        with pytest.raises(CalibrationError):
            router.route(np.zeros((3, 2)), None)

    def test_cluster_router_requires_fit(self):
        router = ClusterShardRouter(3, seed=0)
        features = np.random.default_rng(2).normal(size=(30, 4))
        with pytest.raises(CalibrationError):
            router.route(features)
        router.fit(features)
        routes = router.route(features)
        assert routes.min() >= 0 and routes.max() < 3
        # nearby points share a shard: routing is the fitted assignment
        assert np.array_equal(routes, router.route(features))
        fresh = router.clone_unfitted()
        assert not fresh.is_fitted

    def test_cluster_router_keeps_only_centers(self):
        """Routes are the fitted K-means assignment, from the centers alone."""
        import pickle

        from repro.ml.cluster import KMeans

        g = np.random.default_rng(3)
        features = g.normal(size=(3000, 48))
        router = ClusterShardRouter(16, seed=4).fit(features)
        kmeans = KMeans(n_clusters=16, max_iter=50, seed=4).fit(features)
        assert np.array_equal(router.centers, kmeans.cluster_centers_)
        probe = np.concatenate([features[:500], g.normal(size=(300, 48)) * 3.0])
        assert np.array_equal(router.route(probe), kmeans.predict(probe))
        assert np.array_equal(router.route(probe[7]), kmeans.predict(probe[7:8]))
        # nothing per fitting row survives the fit
        assert len(pickle.dumps(router)) < router.centers.nbytes + 1024
        restored = ClusterShardRouter(16, seed=4).load_centers(router.centers.copy())
        assert restored.is_fitted
        assert np.array_equal(restored.route(probe), router.route(probe))

    def test_resolver(self):
        assert isinstance(resolve_shard_router("hash", 4), HashShardRouter)
        assert isinstance(resolve_shard_router("label", 2), LabelShardRouter)
        assert isinstance(resolve_shard_router("cluster", 2), ClusterShardRouter)
        router = HashShardRouter(4)
        assert resolve_shard_router(router, 4) is router
        with pytest.raises(ValueError):
            resolve_shard_router(router, 8)  # shard-count mismatch
        with pytest.raises(ValueError):
            resolve_shard_router("modulo", 4)
        with pytest.raises(TypeError):
            resolve_shard_router(42, 4)

    def test_custom_router_pluggable(self):
        class EvenOdd(ShardRouter):
            name = "evenodd"

            def route(self, features, labels=None):
                return self._check_routes(np.asarray(labels) % 2)

        store = ShardedCalibrationStore(10, 2, router=EvenOdd(2))
        store.add(features=np.zeros((6, 2)), label=np.arange(6))
        assert store.shards[0].column("label").tolist() == [0, 2, 4]
        assert store.shards[1].column("label").tolist() == [1, 3, 5]


class TestShardedCalibrationStore:
    def _store(self, capacity=12, n_shards=4, **kwargs):
        kwargs.setdefault("router", "label")
        return ShardedCalibrationStore(capacity, n_shards, **kwargs)

    def test_capacity_split_and_enforced(self):
        store = self._store(capacity=10, n_shards=3)
        assert store.shard_capacities == (4, 3, 3)
        g = np.random.default_rng(0)
        for round_ in range(6):
            store.add(
                features=g.normal(size=(9, 3)), label=g.integers(0, 6, 9)
            )
            assert len(store) <= 10
            assert all(
                len(shard) <= shard.capacity for shard in store.shards
            )

    def test_capacity_must_cover_all_shards(self):
        with pytest.raises(ValueError):
            ShardedCalibrationStore(3, 4)

    def test_per_shard_policies(self):
        store = ShardedCalibrationStore(
            8, 2, router="label", policy=["fifo", "reservoir"]
        )
        assert store.policies[0].name == "fifo"
        assert store.policies[1].name == "reservoir"
        with pytest.raises(ValueError):
            ShardedCalibrationStore(8, 2, policy=["fifo"])

    def test_column_contract_matches_single_store(self):
        store = self._store(capacity=12, n_shards=3)
        with pytest.raises(KeyError):
            store.column("features")  # no schema yet
        store.add(features=np.zeros((4, 3)), label=np.arange(4))
        with pytest.raises(KeyError):
            store.column("nope")
        # emptied store keeps the schema's dtype and trailing shape
        store.evict(np.arange(4))
        assert store.column("features").shape == (0, 3)
        assert store.column("label").dtype.kind in "iu"
        with pytest.raises(KeyError):
            store.column("nope")

    def test_explicit_shard_ids_validated_before_mutation(self):
        store = self._store(capacity=12, n_shards=3)
        features, labels = np.zeros((4, 2)), np.arange(4)
        for bad in ([0, 1, 3, 0], [0, -1, 0, 0], [0, 1]):
            with pytest.raises(CalibrationError):
                store.add(shard_ids=bad, features=features, label=labels)
            assert len(store) == 0 and store.epoch == 0
        update = store.add(shard_ids=[2, 0, 2, 2], features=features, label=labels)
        assert update.touched == (0, 2)
        assert store.shard_sizes == (1, 0, 3)
        assert store.shards[2].column("label").tolist() == [0, 2, 3]

    def test_replace_column_reshapes_emptied_shards(self):
        store = self._store(capacity=12, n_shards=3)
        store.add(shard_ids=[0, 1, 2, 2], features=np.zeros((4, 2)), label=np.arange(4))
        store.evict([0])  # shard 0 is empty but keeps the schema
        store.replace_column("features", np.ones((3, 5)))
        store.add(shard_ids=[0, 1], features=np.ones((2, 5)), label=np.arange(2))
        assert store.shard_sizes == (1, 2, 2)
        assert store.column("features").shape == (5, 5)

    def test_global_column_is_shard_concatenation(self):
        store = self._store()
        g = np.random.default_rng(1)
        store.add(features=g.normal(size=(10, 3)), label=g.integers(0, 8, 10))
        manual = np.concatenate(
            [shard.column("label") for shard in store.shards if len(shard)]
        )
        assert np.array_equal(store.column("label"), manual)

    def test_update_order_carries_aligned_arrays(self):
        """The global StoreUpdate contract across routed shards."""
        store = self._store(capacity=8, n_shards=2)
        g = np.random.default_rng(2)
        shadow = np.zeros(0)
        for round_ in range(8):
            n = int(g.integers(2, 6))
            labels = g.integers(0, 6, n)
            update = store.add(
                priority=g.random(n),
                features=g.normal(size=(n, 3)),
                label=labels,
            )
            shadow = np.concatenate([shadow, labels.astype(float)])[update.order]
            assert np.array_equal(shadow, store.column("label").astype(float))
            assert update.n_after == len(store)
            assert update.keep_mask.sum() == len(store)

    def test_global_evict(self):
        store = self._store(capacity=12, n_shards=3, router="label")
        store.add(features=np.zeros((9, 2)), label=np.arange(9))
        before = store.column("label").copy()
        update = store.evict([0, 4, 8])
        expected = np.delete(before, [0, 4, 8])
        assert np.array_equal(store.column("label"), expected)
        assert update.n_after == 6
        # positions 0 / 4 / 8 fall in shard blocks 0 / 1 / 2
        assert update.touched == (0, 1, 2)

    def test_replace_column_splits_segments(self):
        store = self._store(capacity=12, n_shards=3)
        g = np.random.default_rng(3)
        store.add(features=g.normal(size=(9, 2)), label=g.integers(0, 6, 9))
        replacement = np.arange(len(store), dtype=float)
        store.replace_column("label", replacement)
        assert np.array_equal(store.column("label"), replacement)
        with pytest.raises(CalibrationError):
            store.replace_column("label", np.zeros(3))

    def test_rebalance_reroutes_after_feature_change(self):
        store = ShardedCalibrationStore(16, 2, router="cluster", seed=0)
        g = np.random.default_rng(4)
        left = g.normal(size=(8, 2)) - 5.0
        right = g.normal(size=(8, 2)) + 5.0
        store.add(features=np.concatenate([left, right]), label=np.zeros(16, dtype=int))
        # two clean clusters -> two populated shards
        assert min(store.shard_sizes) > 0
        # collapse every feature onto one side, then rebalance
        store.replace_column("features", np.tile(left, (2, 1)))
        store.rebalance(refit_router=True)
        assert len(store) == 16
        assert store.router.is_fitted

    def test_bad_batch_rejected_atomically(self):
        """A failing add must not mutate any shard or serve stale caches."""
        store = self._store(capacity=12, n_shards=3)
        g = np.random.default_rng(6)
        # leave shard 2 empty (labels 0/1 -> shards 0/1 only)
        store.add(features=g.normal(size=(6, 3)), label=np.arange(6) % 2)
        before = store.column("label").copy()
        with pytest.raises(CalibrationError):
            store.add(
                features=g.normal(size=(3, 3)),
                label=np.full(3, 2),
                surprise=np.zeros(3),  # unknown column
            )
        with pytest.raises(CalibrationError):
            store.add(features=g.normal(size=(3, 5)), label=np.full(3, 2))
        assert len(store) == 6
        assert np.array_equal(store.column("label"), before)
        assert all(not shard.column_names or len(shard) for shard in store.shards[:2])
        # the empty shard adopted nothing
        assert store.shards[2].column_names == ()

    def test_clear_resets_shards_and_router(self):
        store = ShardedCalibrationStore(8, 2, router="cluster", seed=0)
        g = np.random.default_rng(5)
        store.add(features=g.normal(size=(6, 2)), label=np.zeros(6, dtype=int))
        assert store.router.is_fitted
        store.clear()
        assert len(store) == 0
        assert not store.router.is_fitted
        assert store.n_seen == 6  # stream position survives a plain clear
        store.clear(lifetime=True)
        assert store.n_seen == 0


class TestShardedClassifierEquivalence:
    @pytest.mark.parametrize("router", ROUTERS)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_streamed_equals_fresh_calibrate(self, router, policy):
        """The acceptance property: every router x policy combination."""
        streaming = StreamingPromClassifier(
            capacity=150, eviction=policy, seed=11, n_shards=4, router=router
        )
        features, probabilities, labels = _classification_batch(120, seed=0)
        streaming.calibrate(features, probabilities, labels)
        test_f, test_p, _ = _classification_batch(40, seed=99, shift=0.5)

        g = np.random.default_rng(42)
        for round_ in range(8):
            n = int(g.integers(5, 30))
            batch = _classification_batch(n, seed=100 + round_, shift=0.1 * round_)
            streaming.update(*batch, priority=g.random(n))
            if round_ % 3 == 2:
                survivors = len(streaming.store)
                victims = g.choice(survivors, size=min(4, survivors - 1), replace=False)
                streaming.evict(victims)
            assert len(streaming.store) <= 150
            assert sum(streaming.shard_sizes) == len(streaming.store)

            fresh = PromClassifier()
            fresh.calibrate(
                streaming.store.column("features"),
                streaming.store.column("probabilities"),
                streaming.store.column("label"),
            )
            _assert_decision_identical(
                streaming.evaluate(test_f, test_p), fresh.evaluate(test_f, test_p)
            )

    def test_internal_state_matches_fresh_calibrate(self):
        streaming = StreamingPromClassifier(
            capacity=120, seed=0, n_shards=3, router="label"
        )
        streaming.calibrate(*_classification_batch(100, seed=1))
        for round_ in range(4):
            streaming.update(*_classification_batch(12, seed=2 + round_))
        fresh = PromClassifier()
        fresh.calibrate(
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

    def test_update_touches_only_routed_shards(self):
        streaming = StreamingPromClassifier(
            capacity=200, seed=0, n_shards=4, router="label"
        )
        streaming.calibrate(*_classification_batch(100, n_classes=8, seed=3))
        features, probabilities, labels = _classification_batch(
            10, n_classes=8, seed=4
        )
        labels[:] = 5  # label 5 -> shard 1 only
        update = streaming.update(features, probabilities, labels)
        assert update.touched == (1,)

    def test_parallel_matches_serial(self):
        serial = StreamingPromClassifier(
            capacity=150, seed=7, n_shards=4, router="hash", parallel=None
        )
        threaded = StreamingPromClassifier(
            capacity=150, seed=7, n_shards=4, router="hash", parallel=4
        )
        batch0 = _classification_batch(120, seed=0)
        serial.calibrate(*batch0)
        threaded.calibrate(*batch0)
        for round_ in range(4):
            batch = _classification_batch(25, seed=10 + round_)
            serial.update(*batch)
            threaded.update(*batch)
        test_f, test_p, _ = _classification_batch(30, seed=50)
        _assert_decision_identical(
            serial.evaluate(test_f, test_p), threaded.evaluate(test_f, test_p)
        )

    def test_recalibrate_shards_restores_frozen_tau_state(self):
        streaming = StreamingPromClassifier(
            capacity=150, seed=0, n_shards=4, router="hash", parallel=2
        )
        streaming.calibrate(*_classification_batch(120, seed=5))
        streaming.update(
            *_classification_batch(30, seed=6, shift=2.0), retune_tau=False
        )
        streaming.recalibrate_shards()
        fresh = PromClassifier()
        fresh.calibrate(
            streaming.store.column("features"),
            streaming.store.column("probabilities"),
            streaming.store.column("label"),
        )
        test_f, test_p, _ = _classification_batch(30, seed=51)
        _assert_decision_identical(
            streaming.evaluate(test_f, test_p), fresh.evaluate(test_f, test_p)
        )

    @pytest.mark.parametrize("policy", POLICIES)
    def test_single_shard_recalibrate_matches_refresh(self, policy):
        def streamed():
            streaming = StreamingPromClassifier(
                capacity=50, eviction=policy, seed=3
            )
            streaming.calibrate(*_classification_batch(40, seed=0))
            for round_ in range(3):
                streaming.update(
                    *_classification_batch(15, seed=20 + round_, shift=1.0),
                    retune_tau=False,
                )
            return streaming

        rescored = streamed().recalibrate_shards()
        refreshed = streamed().refresh()
        assert rescored.n_shards == 1
        test_f, test_p, _ = _classification_batch(30, seed=51)
        _assert_decision_identical(
            rescored.evaluate(test_f, test_p), refreshed.evaluate(test_f, test_p)
        )

    def test_shard_taus_exposed(self):
        streaming = StreamingPromClassifier(
            capacity=120, seed=0, n_shards=3, router="hash"
        )
        streaming.calibrate(*_classification_batch(90, seed=8))
        taus = streaming.shard_taus
        assert len(taus) == 3
        assert all(t > 0 for t in taus)

    def test_replace_outputs_rebalances_and_recalibrates(self):
        streaming = StreamingPromClassifier(
            capacity=120, seed=0, n_shards=3, router="cluster"
        )
        features, probabilities, labels = _classification_batch(90, seed=9)
        streaming.calibrate(features, probabilities, labels)
        shifted = streaming.store.column("features") + 10.0
        streaming.replace_outputs(
            shifted,
            streaming.store.column("probabilities"),
            streaming.store.column("label"),
        )
        fresh = PromClassifier()
        fresh.calibrate(
            streaming.store.column("features"),
            streaming.store.column("probabilities"),
            streaming.store.column("label"),
        )
        test_f, test_p, _ = _classification_batch(20, seed=52)
        _assert_decision_identical(
            streaming.evaluate(test_f, test_p), fresh.evaluate(test_f, test_p)
        )


class TestShardedRegressorEquivalence:
    @pytest.mark.parametrize("router", ("hash", "cluster"))
    @pytest.mark.parametrize("policy", ("fifo", "reservoir"))
    def test_streamed_equals_fixed_cluster_refresh(self, router, policy):
        """update() == full recompute with the fitted pseudo-labeller."""
        streaming = StreamingPromRegressor(
            prom=PromRegressor(n_clusters=4, calibration_residuals="true", seed=0),
            capacity=140,
            eviction=policy,
            seed=7,
            n_shards=4,
            router=router,
        )
        streaming.calibrate(*_regression_batch(120, seed=0))
        g = np.random.default_rng(13)
        test_f = g.normal(size=(30, 6))
        test_p = g.normal(size=30)
        for round_ in range(5):
            streaming.update(
                *_regression_batch(18, seed=50 + round_, shift=0.2 * round_)
            )
            if round_ == 3:
                streaming.evict([0, 1, 2])
            assert len(streaming.store) <= 140

            reference = copy.deepcopy(streaming)
            reference.refresh(refit_clusters=False)
            _assert_decision_identical(
                streaming.evaluate(test_f, test_p),
                reference.evaluate(test_f, test_p),
            )

    def test_label_router_rejected_for_labelless_store(self):
        streaming = StreamingPromRegressor(
            prom=PromRegressor(n_clusters=3, calibration_residuals="true", seed=0),
            capacity=60,
            n_shards=2,
            router="label",
        )
        with pytest.raises(CalibrationError):
            streaming.calibrate(*_regression_batch(40, seed=1))

    def test_loo_mode_falls_back_to_full_recompute(self):
        streaming = StreamingPromRegressor(
            prom=PromRegressor(n_clusters=3, calibration_residuals="loo", seed=0),
            capacity=60,
            seed=0,
            n_shards=2,
            router="hash",
        )
        streaming.calibrate(*_regression_batch(50, seed=1))
        update = streaming.update(*_regression_batch(20, seed=2))
        assert update.n_after == 60
        reference = copy.deepcopy(streaming)
        reference.refresh(refit_clusters=False)
        g = np.random.default_rng(3)
        test_f, test_p = g.normal(size=(15, 6)), g.normal(size=15)
        _assert_decision_identical(
            streaming.evaluate(test_f, test_p), reference.evaluate(test_f, test_p)
        )


# -- one-shard sharded store == bare CalibrationStore -----------------------------

_STORE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(1, 14), st.integers(0, 2**16)),
        st.tuples(st.just("evict"), st.integers(0, 5), st.integers(0, 2**16)),
        st.tuples(st.just("replace"), st.just(0), st.integers(0, 2**16)),
        st.tuples(st.just("rebalance"), st.just(0), st.just(0)),
    ),
    max_size=18,
)


def _assert_same_store(sharded, bare):
    assert len(sharded) == len(bare)
    assert sharded.n_seen == bare.n_seen
    (shard,) = sharded.shards
    assert shard._rng.bit_generator.state == bare._rng.bit_generator.state
    if bare.schema() is None:
        return
    for name in bare.column_names:
        ours, theirs = sharded.column(name), bare.column(name)
        assert ours.dtype == theirs.dtype
        assert np.array_equal(ours, theirs)
    assert np.array_equal(sharded.arrival, bare.arrival)
    assert np.array_equal(sharded.priority, bare.priority)


class TestOneShardStoreEquivalence:
    """A one-shard sharded store is the bare store, bit for bit."""

    @pytest.mark.parametrize("policy", POLICIES)
    @settings(max_examples=40, deadline=None)
    @given(ops=_STORE_OPS, seed=st.integers(0, 50))
    def test_one_shard_store_is_bit_identical_to_bare_store(
        self, policy, ops, seed
    ):
        sharded = ShardedCalibrationStore(
            12, 1, router="cluster", policy=policy, seed=seed
        )
        bare = CalibrationStore(12, policy, seed=seed)
        for op, size, op_seed in ops:
            g = np.random.default_rng(op_seed)
            if op == "add":
                batch = dict(
                    features=g.normal(size=(size, 3)),
                    label=g.integers(0, 4, size),
                )
                priority = g.random(size)
                ours = sharded.add(priority=priority, **batch)
                theirs = bare.add(priority=priority, **batch)
                assert np.array_equal(ours.order, theirs.order)
                assert np.array_equal(ours.evicted, theirs.evicted)
            elif op == "evict":
                victims = g.choice(
                    len(bare), size=min(size, len(bare)), replace=False
                )
                ours = sharded.evict(victims)
                theirs = bare.evict(victims)
                assert np.array_equal(ours.keep_mask, theirs.keep_mask)
            elif op == "replace" and len(bare):
                features = g.normal(size=(len(bare), 3))
                sharded.replace_column("features", features)
                bare.replace_column("features", features)
            elif op == "rebalance":
                update = sharded.rebalance()
                if update is not None:
                    assert update.touched == ()
                    assert np.array_equal(update.order, np.arange(len(bare)))
            _assert_same_store(sharded, bare)
        assert not sharded.router.is_fitted  # one shard never routes

    def test_fifo_column_segment_shares_the_shard_buffer(self):
        store = ShardedCalibrationStore(16, 1, seed=0)
        g = np.random.default_rng(0)
        for _ in range(3):
            store.add(features=g.normal(size=(6, 3)), label=g.integers(0, 4, 6))
        segment = store.column_segment(0, "features")
        assert not segment.flags.writeable
        assert np.shares_memory(segment, store.shards[0]._buffers["features"])
        # one shard: the global column is the segment itself
        assert store.column("features") is segment

    def test_one_shard_add_skips_routing(self):
        class Refuses(ShardRouter):
            name = "refuses"

            def route(self, features, labels=None):
                raise AssertionError("a one-shard store must not route")

        store = ShardedCalibrationStore(8, 1, router=Refuses(1))
        update = store.add(features=np.zeros((5, 2)), label=np.arange(5))
        assert update.touched == (0,)
        assert len(store) == 5
