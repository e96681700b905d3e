"""Tests for the bounded calibration store and its eviction policies."""

import numpy as np
import pytest

from repro.core import (
    CalibrationError,
    CalibrationStore,
    EvictionPolicy,
    FIFOEviction,
    LowestWeightEviction,
    ReservoirEviction,
    resolve_eviction_policy,
)


def _add(store, n, seed=0, priority=None):
    g = np.random.default_rng(seed)
    return store.add(
        priority=priority,
        features=g.normal(size=(n, 4)),
        label=g.integers(0, 3, n),
    )


class TestStoreBasics:
    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            CalibrationStore(0)

    def test_add_below_capacity_keeps_everything(self):
        store = CalibrationStore(10)
        update = _add(store, 6)
        assert len(store) == 6
        assert update.n_after == 6
        assert len(update.evicted) == 0
        assert update.keep_mask.all()

    def test_capacity_enforced_on_every_add(self):
        store = CalibrationStore(10)
        for round_ in range(5):
            _add(store, 4, seed=round_)
            assert len(store) <= 10
        assert len(store) == 10
        assert store.n_seen == 20

    def test_misaligned_columns_rejected(self):
        store = CalibrationStore(10)
        with pytest.raises(CalibrationError):
            store.add(features=np.zeros((3, 2)), label=np.zeros(4))

    def test_schema_fixed_by_first_add(self):
        store = CalibrationStore(10)
        _add(store, 3)
        with pytest.raises(CalibrationError):
            store.add(features=np.zeros((2, 4)))  # missing 'label'

    def test_unknown_column_raises_keyerror(self):
        store = CalibrationStore(10)
        _add(store, 3)
        with pytest.raises(KeyError):
            store.column("nope")

    def test_explicit_evict_compacts_in_order(self):
        store = CalibrationStore(10)
        store.add(features=np.arange(8).reshape(-1, 1).astype(float), label=np.arange(8))
        update = store.evict([1, 3])
        assert update.n_after == 6
        assert store.column("label").tolist() == [0, 2, 4, 5, 6, 7]

    def test_replace_column_checks_length(self):
        store = CalibrationStore(10)
        _add(store, 4)
        store.replace_column("features", np.zeros((4, 9)))
        assert store.column("features").shape == (4, 9)
        with pytest.raises(CalibrationError):
            store.replace_column("features", np.zeros((3, 9)))

    def test_clear_resets_schema_keeps_stream_position(self):
        store = CalibrationStore(10)
        _add(store, 5)
        store.clear()
        assert len(store) == 0
        # the stream-position counter survives a plain clear (the
        # stream continues; reservoir admission odds stay calibrated)
        assert store.n_seen == 5
        store.add(other=np.zeros(2))  # a new schema is accepted after clear
        assert store.column_names == ("other",)
        assert store.n_seen == 7

    def test_clear_lifetime_resets_stream_position(self):
        store = CalibrationStore(10)
        _add(store, 5)
        store.clear(lifetime=True)
        assert store.n_seen == 0
        assert len(store) == 0

    def test_append_promotes_dtype_instead_of_truncating(self):
        store = CalibrationStore(10)
        store.add(label=np.array(["a", "b"]), x=np.array([1, 2]))
        store.add(label=np.array(["classA"]), x=np.array([2.7]))
        # longer unicode and float values survive intact (a plain slice
        # assignment would have stored 'c' and 2)
        assert store.column("label").tolist() == ["a", "b", "classA"]
        assert store.column("x").tolist() == [1.0, 2.0, 2.7]

    def test_store_owns_its_buffers(self):
        store = CalibrationStore(10)
        owned = np.arange(4.0)
        store.add(x=owned, label=np.zeros(4))
        owned[0] = 99.0
        assert store.column("x")[0] == 0.0
        replacement = np.full(4, 7.0)
        store.replace_column("x", replacement)
        replacement[0] = -1.0
        assert store.column("x")[0] == 7.0

    def test_keep_mask_carries_aligned_arrays(self):
        """The documented StoreUpdate contract for auxiliary arrays."""
        store = CalibrationStore(6, policy="fifo")
        _add(store, 6, seed=1)
        aux = np.arange(6.0)
        update = _add(store, 3, seed=2)
        carried = np.concatenate([aux, np.array([10.0, 11.0, 12.0])])[update.keep_mask]
        assert carried.tolist() == [3.0, 4.0, 5.0, 10.0, 11.0, 12.0]


class TestEvictionPolicies:
    def test_fifo_keeps_newest(self):
        store = CalibrationStore(5, policy="fifo")
        store.add(features=np.zeros((5, 1)), label=np.arange(5))
        store.add(features=np.ones((2, 1)), label=np.array([100, 101]))
        # the two oldest went; the two newest are present
        assert store.column("label").tolist() == [2, 3, 4, 100, 101]

    def test_lowest_weight_evicts_lowest_priority(self):
        store = CalibrationStore(3, policy="lowest_weight")
        store.add(
            priority=np.array([0.9, 0.1, 0.5]),
            features=np.zeros((3, 1)),
            label=np.array([0, 1, 2]),
        )
        update = store.add(
            priority=np.array([0.7]), features=np.ones((1, 1)), label=np.array([3])
        )
        # slot reuse puts the new sample in the victim's slot; the
        # arrival_order() normalization recovers the canonical view
        assert store.column("label").tolist() == [0, 3, 2]
        assert store.column("label")[store.arrival_order()].tolist() == [0, 2, 3]
        assert update.order.tolist() == [0, 3, 2]

    def test_order_carries_aligned_arrays_under_slot_reuse(self):
        """The StoreUpdate.order contract for non-prefix evictions."""
        store = CalibrationStore(3, policy="lowest_weight")
        store.add(
            priority=np.array([0.9, 0.1, 0.5]),
            features=np.zeros((3, 1)),
            label=np.array([0, 1, 2]),
        )
        aux = np.array([10.0, 11.0, 12.0])
        update = store.add(
            priority=np.array([0.7]), features=np.ones((1, 1)), label=np.array([3])
        )
        carried = np.concatenate([aux, np.array([13.0])])[update.order]
        # aligned with the exposed label order [0, 3, 2]
        assert carried.tolist() == [10.0, 13.0, 12.0]

    def test_lowest_weight_ties_break_oldest_first(self):
        store = CalibrationStore(2, policy="lowest_weight")
        store.add(features=np.zeros((2, 1)), label=np.array([0, 1]))
        store.add(features=np.ones((1, 1)), label=np.array([2]))
        # equal priorities everywhere: the oldest sample goes
        assert store.column("label").tolist() == [1, 2]

    def test_reservoir_capacity_and_determinism(self):
        a = CalibrationStore(20, policy="reservoir", seed=7)
        b = CalibrationStore(20, policy="reservoir", seed=7)
        for round_ in range(10):
            _add(a, 9, seed=round_)
            _add(b, 9, seed=round_)
            assert len(a) <= 20
        assert np.array_equal(a.column("label"), b.column("label"))
        assert np.array_equal(a.arrival, b.arrival)

    def test_reservoir_survival_is_roughly_uniform(self):
        """Algorithm R: early samples keep ~capacity/seen survival odds."""
        survivors_early = 0
        trials = 200
        for trial in range(trials):
            store = CalibrationStore(10, policy="reservoir", seed=trial)
            for round_ in range(10):
                _add(store, 5, seed=round_)
            survivors_early += int((store.arrival < 10).sum())
        # 10 early samples, each with 10/50 survival odds -> ~2 per trial.
        mean_early = survivors_early / trials
        assert 1.0 < mean_early < 3.5

    @staticmethod
    def _probe_batch_survivors(lifetime, trial):
        """Survivors of a 20-sample probe streamed after clear + refill."""
        store = CalibrationStore(10, policy="reservoir", seed=trial)
        for round_ in range(10):
            _add(store, 10, seed=round_)  # 100 samples streamed
        store.clear(lifetime=lifetime)
        _add(store, 10, seed=100 + trial)  # refill to capacity
        _add(store, 20, seed=200 + trial)  # the probe batch
        return int((store.arrival >= store.n_seen - 20).sum())

    def test_reservoir_admission_survives_clear(self):
        """Regression: clear() must not reset reservoir admission odds.

        After 100 streamed samples, a plain clear() keeps the stream
        position: probe samples enter with probability ~ capacity/t for
        t around 110-130 (rarely), while clear(lifetime=True) restarts
        the stream and admits them at ~ capacity/t for t around 10-30
        (often).  The old behavior reset the counter on every clear,
        over-representing post-clear samples in a continuing stream.
        """
        trials = 100
        continued = np.mean(
            [self._probe_batch_survivors(False, t) for t in range(trials)]
        )
        restarted = np.mean(
            [self._probe_batch_survivors(True, t) for t in range(trials)]
        )
        assert continued < 3.5  # ~20 * 10/130 expected
        assert restarted > 4.5  # ~20 * 10/30 expected
        assert continued < restarted

    def test_resolve_by_name_and_instance(self):
        assert isinstance(resolve_eviction_policy("fifo"), FIFOEviction)
        assert isinstance(resolve_eviction_policy("reservoir"), ReservoirEviction)
        policy = LowestWeightEviction()
        assert resolve_eviction_policy(policy) is policy
        with pytest.raises(ValueError):
            resolve_eviction_policy("lru")
        with pytest.raises(TypeError):
            resolve_eviction_policy(42)

    def test_lowest_weight_tied_priorities_evict_oldest_block(self):
        """Among equal priorities, victims leave strictly oldest-first."""
        store = CalibrationStore(4, policy="lowest_weight")
        store.add(
            priority=np.array([0.5, 0.5, 0.5, 0.5]),
            features=np.zeros((4, 1)),
            label=np.array([0, 1, 2, 3]),
        )
        # three equal-priority newcomers: the three oldest ties go
        store.add(
            priority=np.array([0.5, 0.5, 0.5]),
            features=np.ones((3, 1)),
            label=np.array([4, 5, 6]),
        )
        survivors = store.column("label")[store.arrival_order()].tolist()
        assert survivors == [3, 4, 5, 6]

    def test_batch_larger_than_capacity_under_all_policies(self):
        for policy in ("fifo", "reservoir", "lowest_weight"):
            store = CalibrationStore(5, policy=policy, seed=3)
            _add(store, 3, seed=0)
            g = np.random.default_rng(1)
            update = store.add(
                priority=g.random(12),
                features=g.normal(size=(12, 4)),
                label=g.integers(0, 3, 12),
            )
            assert len(store) == 5, policy
            assert update.n_after == 5
            assert len(update.evicted) == 10
            # arrival counters of the survivors are distinct and valid
            assert len(np.unique(store.arrival)) == 5
            assert store.arrival.max() < store.n_seen

    @pytest.mark.parametrize("policy", ["fifo", "reservoir", "lowest_weight"])
    def test_eviction_across_regrow_boundary(self, policy):
        """Slot writes stay consistent when a mutation regrows buffers.

        Dtype promotion mid-stream forces a regrow in the same add()
        that evicts, so hole-fill writes land in the regrown buffers.
        A shadow copy of the label column is carried through every
        StoreUpdate.order and must match the store exactly.
        """
        store = CalibrationStore(7, policy=policy, seed=9)
        g = np.random.default_rng(5)
        shadow = np.zeros(0)
        for round_ in range(12):
            n = int(g.integers(1, 6))
            # switch to floats mid-stream to force dtype promotion
            labels = g.integers(0, 4, n).astype(float if round_ >= 6 else int)
            update = store.add(
                priority=g.random(n),
                features=g.normal(size=(n, 2)),
                label=labels,
            )
            shadow = np.concatenate([shadow, np.asarray(labels, dtype=float)])[
                update.order
            ]
            assert len(store) <= 7
            assert np.array_equal(shadow, store.column("label").astype(float))
            assert len(np.unique(store.arrival)) == len(store)

    def test_custom_policy_pluggable(self):
        class EvictEven(EvictionPolicy):
            name = "even"

            def select_victims(self, n_over, arrival, priority, n_before, capacity, rng):
                return np.flatnonzero(arrival % 2 == 0)[:n_over]

        store = CalibrationStore(4, policy=EvictEven())
        store.add(features=np.zeros((6, 1)), label=np.arange(6))
        assert store.column("label").tolist() == [1, 3, 4, 5]


class TestImmutableViews:
    """Every view the store hands out is read-only and keeps its bytes."""

    def test_views_are_read_only(self):
        store = CalibrationStore(10)
        _add(store, 6)
        for view in (store.column("features"), store.arrival, store.priority):
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view[0] = 0

    @pytest.mark.parametrize("policy", ["reservoir", "lowest_weight"])
    def test_view_survives_slot_reuse(self, policy):
        store = CalibrationStore(12, policy, seed=3)
        _add(store, 12, seed=0, priority=np.linspace(0.0, 1.0, 12)[::-1])
        views = {
            "features": store.column("features"),
            "label": store.column("label"),
            "arrival": store.arrival,
            "priority": store.priority,
        }
        copies = {name: view.copy() for name, view in views.items()}
        reused = 0
        for round_ in range(6):
            update = _add(store, 5, seed=1 + round_, priority=np.full(5, 2.0))
            reused += len(update.evicted_existing)
        assert reused > 0  # slot reuse really rewrote live rows
        for name, view in views.items():
            assert np.array_equal(view, copies[name]), name

    def test_fifo_appends_never_copy(self):
        store = CalibrationStore(8)
        _add(store, 4, seed=0)
        _add(store, 4, seed=1)  # grows the buffers past capacity
        before = store.column("features")
        _add(store, 3, seed=2)
        after = store.column("features")
        # the head advanced and the tail grew in the same buffer
        assert np.shares_memory(before, after)
        assert np.array_equal(before[3:], after[:5])

    def test_replace_column_keeps_earlier_views(self):
        store = CalibrationStore(10, "reservoir", seed=1)
        _add(store, 10, seed=0)
        labels = store.column("label")
        copy = labels.copy()
        store.replace_column("features", np.ones((10, 4)))
        _add(store, 4, seed=2)
        assert np.array_equal(labels, copy)
        assert store.column("features").shape == (10, 4)
