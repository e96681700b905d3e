"""Tests for the multi-process serving tier (DESIGN.md §10).

The acceptance property mirrors the async-loop one a layer down:
decisions served by evaluator *processes* over shared-memory segments
are **bit-identical** to in-process ``interface.predict`` at the same
published state, for every shard router × eviction policy combination
— and with ``drain_each_step`` the pooled deployment stream equals the
synchronous loop.  On top of that: publish/refresh freshness,
worker-crash respawn, and torn name-table fallback.

Everything here spawns real processes, so the module carries the
``concurrency`` marker — CI runs it under ``pytest -m concurrency``
with fault handlers enabled.
"""

import pickle

import numpy as np
import pytest

import repro
from repro.core import (
    LoopConfig,
    ModelInterface,
    ProcessPoolConfig,
    ProcessServingPool,
    RegressionModelInterface,
    ServingConfig,
)
from repro.core.shm import _HEADER
from repro.experiments import stream_deployment
from repro.ml import MLPClassifier, MLPRegressor

from ..conftest import make_blobs

pytestmark = pytest.mark.concurrency

ROUTERS = ("hash", "label", "cluster")
POLICIES = ("fifo", "reservoir", "lowest_weight")


class BlobInterface(ModelInterface):
    def feature_extraction(self, X):
        return np.asarray(X)


class BlobRegressionInterface(RegressionModelInterface):
    def feature_extraction(self, X):
        return np.asarray(X)


def _trained_interface(n_shards=1, router="hash", eviction="fifo", seed=0):
    interface = BlobInterface(
        MLPClassifier(epochs=15, seed=seed),
        max_calibration=120,
        seed=seed,
        n_shards=n_shards,
        router=router,
        eviction=eviction,
    )
    X, y = make_blobs(350, seed=seed)
    interface.train(X, y)
    return interface


def _drift_stream(n=200, seed=1):
    X_a, y_a = make_blobs(n // 2, seed=seed)
    X_b, y_b = make_blobs(n // 2, shift=3.0, seed=seed + 1)
    return np.concatenate([X_a, X_b]), np.concatenate([y_a, y_b])


def _assert_decisions_identical(a, b):
    assert np.array_equal(a.accepted, b.accepted)
    assert np.array_equal(a.credibility, b.credibility)
    assert np.array_equal(a.confidence, b.confidence)
    assert np.array_equal(a.drifting, b.drifting)


class TestBitIdentity:
    @pytest.mark.parametrize("router", ROUTERS)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_pool_predict_matches_in_process(self, router, policy):
        interface = _trained_interface(n_shards=4, router=router, eviction=policy)
        X_test, _ = make_blobs(80, shift=1.5, seed=7)
        live_predictions, live_decisions = interface.predict(X_test)
        with ProcessServingPool(interface, n_workers=2) as pool:
            pool_predictions, pool_decisions = pool.predict(X_test)
            assert np.array_equal(live_predictions, pool_predictions)
            _assert_decisions_identical(live_decisions, pool_decisions)

    def test_pruned_pool_routes_like_in_process(self):
        # workers route with the router of the bundle they serve (label
        # routing sends each row to its predicted label's shard, which
        # the nearest-centroid fallback would not)
        from repro.core import CandidatePruner

        interface = BlobInterface(
            MLPClassifier(epochs=15, seed=0),
            max_calibration=4000,
            n_shards=4,
            router="label",
        )
        interface.train(*make_blobs(350, seed=0))
        interface.prom._pruner = CandidatePruner(spill=0.0)
        interface.calibrate(*make_blobs(2600, shift=0.5, seed=4))
        X_test, _ = make_blobs(80, shift=1.0, seed=8)
        live_predictions, live_decisions = interface.predict(X_test)
        assert live_decisions.n_shards_pruned > 0
        with ProcessServingPool(interface, n_workers=1) as pool:
            pool_predictions, pool_decisions = pool.predict(X_test)
        assert np.array_equal(live_predictions, pool_predictions)
        _assert_decisions_identical(live_decisions, pool_decisions)
        assert pool_decisions.n_shards_pruned == live_decisions.n_shards_pruned

    def test_single_store_pool_matches_in_process(self):
        interface = _trained_interface(n_shards=1)
        X_test, _ = make_blobs(60, shift=1.5, seed=9)
        live_predictions, live_decisions = interface.predict(X_test)
        with ProcessServingPool(interface, n_workers=2) as pool:
            pool_predictions, pool_decisions = pool.predict(X_test)
            assert np.array_equal(live_predictions, pool_predictions)
            _assert_decisions_identical(live_decisions, pool_decisions)

    def test_regression_pool_matches_in_process(self):
        interface = BlobRegressionInterface(
            MLPRegressor(epochs=15, seed=0),
            max_calibration=120,
            seed=0,
            n_shards=3,
            router="cluster",
        )
        interface.prom.n_clusters = 3
        X, _ = make_blobs(300, seed=3)
        interface.train(X, X[:, 0])
        X_test, _ = make_blobs(50, shift=1.0, seed=11)
        live_predictions, live_decisions = interface.predict(X_test)
        with ProcessServingPool(interface, n_workers=2) as pool:
            pool_predictions, pool_decisions = pool.predict(X_test)
            assert np.array_equal(live_predictions, pool_predictions)
            _assert_decisions_identical(live_decisions, pool_decisions)

    def test_pickled_spec_carries_no_calibration_state(self):
        # workers take calibration state from the shared segments only
        interface = _trained_interface(n_shards=4)
        with ProcessServingPool(interface, n_workers=1) as pool:
            spec = pickle.loads(pool._pickle_spec())
        assert spec.streaming is None
        assert "_segment_bundle" not in spec.prom.__dict__
        assert not spec.prom.is_calibrated
        assert interface.prom.is_calibrated

    def test_map_predict_preserves_input_order(self):
        interface = _trained_interface(n_shards=4)
        batches = [make_blobs(25, shift=s, seed=20 + i)[0]
                   for i, s in enumerate((0.0, 1.0, 2.0, 3.0, 1.5))]
        expected = [interface.predict(batch) for batch in batches]
        with ProcessServingPool(interface, n_workers=2) as pool:
            results = pool.map_predict(batches)
        for (want_pred, want_dec), (got_pred, got_dec) in zip(expected, results):
            assert np.array_equal(want_pred, got_pred)
            _assert_decisions_identical(want_dec, got_dec)


class TestPublishFreshness:
    def test_workers_adopt_republished_state(self):
        interface = _trained_interface(n_shards=4)
        X_test, _ = make_blobs(60, shift=1.5, seed=13)
        with ProcessServingPool(interface, n_workers=2) as pool:
            before = pool.predict(X_test)
            X_new, y_new = make_blobs(40, shift=2.0, seed=14)
            interface.extend_calibration(X_new, y_new)
            pool.publish()
            versions = pool.sync()
            assert all(v == pool.table_version for v in versions)
            after_live = interface.predict(X_test)
            after_pool = pool.predict(X_test)
            assert np.array_equal(after_live[0], after_pool[0])
            _assert_decisions_identical(after_live[1], after_pool[1])
            # the fold genuinely changed the served state
            assert not np.array_equal(
                before[1].credibility, after_pool[1].credibility
            )
            # a publish with nothing changed reuses every live block
            exported_before = pool.stats.shm_blocks_exported
            pool.publish()
            assert pool.stats.shm_blocks_exported == exported_before
            assert pool.stats.shm_blocks_reused > 0

    def test_pooled_drained_stream_matches_sync_loop(self):
        X_stream, y_stream = _drift_stream(n=200, seed=5)
        loop_config = LoopConfig(batch_size=50, budget_fraction=0.1, epochs=4)
        sync = stream_deployment(
            _trained_interface(n_shards=4),
            X_stream,
            y_stream,
            loop=loop_config,
            serving=ServingConfig(asynchronous=False, record_decisions=True),
        )
        pooled = stream_deployment(
            _trained_interface(n_shards=4),
            X_stream,
            y_stream,
            loop=loop_config,
            serving=ServingConfig(
                drain_each_step=True,
                record_decisions=True,
                pool=ProcessPoolConfig(workers=2),
            ),
        )
        assert len(sync.steps) == len(pooled.steps)
        for sync_step, pooled_step in zip(sync.steps, pooled.steps):
            _assert_decisions_identical(
                sync_step.decisions, pooled_step.decisions
            )
        assert pooled.errors == ()
        assert pooled.serving.table_publishes > 0
        assert pooled.serving.workers_spawned >= 2


class TestFaults:
    def test_crashed_worker_is_respawned_and_request_retried(self):
        interface = _trained_interface()
        X_test, _ = make_blobs(30, seed=17)
        expected = interface.predict(X_test)
        with ProcessServingPool(interface, n_workers=2) as pool:
            # the fault hook hard-exits the worker without a reply; the
            # next request on that slot sees the broken pipe
            for _, conn in pool._workers:
                conn.send(("crash",))
            survived = [pool.predict(X_test) for _ in range(3)]
            for predictions, decisions in survived:
                assert np.array_equal(expected[0], predictions)
                _assert_decisions_identical(expected[1], decisions)
            assert pool.stats.workers_crashed == 2
            assert pool.stats.workers_respawned == 2
            assert pool.stats.workers_spawned == 4

    def test_torn_name_table_falls_back_to_last_good(self):
        interface = _trained_interface(n_shards=4)
        X_test, _ = make_blobs(40, shift=1.0, seed=19)
        with ProcessServingPool(interface, n_workers=2) as pool:
            good = pool.predict(X_test)
            good_version = pool.sync()[0]
            # corrupt the table in place: bump the version word so
            # workers attempt a re-read, but leave a payload/CRC
            # mismatch behind — a permanently torn publish
            buf = pool._table._shm.buf
            buf[: _HEADER.size] = _HEADER.pack(good_version + 7, 12, 0xDEAD)
            torn = pool.predict(X_test)
            assert np.array_equal(good[0], torn[0])
            _assert_decisions_identical(good[1], torn[1])
            versions = pool.sync()
            assert all(v == good_version for v in versions)
            assert pool.stats.torn_table_reads > 0
            # a proper publish heals the plane
            republished = pool.publish()
            assert all(v == republished for v in pool.sync())


class TestFacadePool:
    def test_serve_returns_a_bare_pool_when_not_async(self):
        interface = _trained_interface(n_shards=2)
        X_test, _ = make_blobs(30, seed=23)
        expected = interface.predict(X_test)
        pool = repro.serve(
            interface,
            serving=ServingConfig(
                asynchronous=False, pool=ProcessPoolConfig(workers=1)
            ),
        )
        try:
            assert isinstance(pool, ProcessServingPool)
            predictions, decisions = pool.predict(X_test)
            assert np.array_equal(expected[0], predictions)
            _assert_decisions_identical(expected[1], decisions)
        finally:
            pool.close()

    def test_serve_attaches_pool_to_async_loop(self):
        interface = _trained_interface(n_shards=2)
        loop = repro.serve(
            interface,
            serving=ServingConfig(pool=ProcessPoolConfig(workers=1)),
        )
        try:
            assert isinstance(loop.process_pool, ProcessServingPool)
            X_test, _ = make_blobs(20, seed=29)
            loop_result = loop.predict(X_test)
            pool_result = loop.process_pool.predict(X_test)
            assert np.array_equal(loop_result[0], pool_result[0])
            _assert_decisions_identical(loop_result[1], pool_result[1])
        finally:
            loop.close()
            loop.process_pool.close()

    def test_closed_pool_refuses_requests(self):
        interface = _trained_interface()
        pool = ProcessServingPool(interface, n_workers=1)
        pool.close()
        pool.close()  # idempotent
        from repro.core import SharedSegmentError

        with pytest.raises(SharedSegmentError):
            pool.predict(np.zeros((2, 6)))
