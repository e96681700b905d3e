"""The detail half of a DecisionBatch (DESIGN.md §2, "Verdict vs detail").

A detector decides its own batches with the predicted-label kernel and
fills ``confidence``, ``expert_confidence`` and ``expert_set_size`` on
their first read.  The contract checked here:

* a deferred detail read after the detector moved on (``update``,
  ``replace_outputs``, ``calibrate``, a tau or epsilon change) equals
  the detail the same batch computes eagerly at decision time, bitwise,
  for every router x eviction policy;
* it survives ``concatenate``, ``take``, slicing, ``dataclasses.replace``
  and pickling;
* it holds the calibration blocks only: the detector's bundle and
  evaluation view die once the detector moves on while the batch is
  still held, and a snapshot batch held across FIFO folds keeps no
  feature or label buffer the live store dropped;
* snapshots defer like the live detector, and their detail read after
  folds, evictions, rescoring, model updates or async publishes equals
  the eager one;
* process-pool workers and ``evaluate_one`` compute the detail eagerly.

The eager reference is a snapshot clone with ``_eager_detail`` set,
which decides with the full-label kernel at decision time.
"""

import copy
import dataclasses
import gc
import pickle
import weakref

import numpy as np
import pytest

from repro.core import (
    AsyncServingLoop,
    DecisionBatch,
    ModelInterface,
    ProcessServingPool,
    StreamingPromClassifier,
    StreamingPromRegressor,
)
from repro.core.multiproc import _WorkerRuntime
from repro.ml import MLPClassifier

from ..conftest import make_blobs

ROUTERS = ("hash", "label", "cluster")
POLICIES = ("fifo", "reservoir", "lowest_weight")
DETAIL = ("confidence", "expert_confidence", "expert_set_size")
VERDICT = ("accepted", "credibility", "expert_credibility", "expert_accept")


class BlobInterface(ModelInterface):
    def feature_extraction(self, X):
        return np.asarray(X)


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
    return features, targets + g.normal(scale=0.2, size=n), targets


def _assert_same(a, b, fields=VERDICT + DETAIL):
    for name in fields:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def _streaming(router="hash", policy="fifo"):
    streaming = StreamingPromClassifier(
        capacity=180, eviction=policy, seed=3, n_shards=3, router=router
    )
    streaming.calibrate(*_classification_batch(160, seed=0))
    return streaming


def _eager(streaming):
    """A snapshot clone that decides with the full-label kernel."""
    eager = streaming.detector_snapshot()
    eager._eager_detail = True
    return eager


def _decide_both(streaming, features, probabilities, chunk_size=None):
    """The same batch decided by the live detector and by an eager clone."""
    deferred = streaming.evaluate(features, probabilities, chunk_size=chunk_size)
    eager = _eager(streaming).evaluate(features, probabilities, chunk_size=chunk_size)
    assert not deferred.detail.is_computed
    assert eager.detail.is_computed
    return deferred, eager


def _move_on(streaming, how, seed=7):
    if how == "update":
        streaming.update(*_classification_batch(25, seed=seed, shift=0.8))
    elif how == "evict":
        streaming.evict(np.arange(0, len(streaming.store), 9))
    elif how == "recalibrate_shards":
        streaming.recalibrate_shards()
    elif how == "replace_outputs":
        features, probabilities, labels = (
            streaming.store.column("features") + 0.3,
            streaming.store.column("probabilities")[:, ::-1],
            streaming.store.column("label"),
        )
        streaming.replace_outputs(features, probabilities, labels)
    elif how == "calibrate":
        streaming.calibrate(*_classification_batch(150, seed=11, shift=1.0))
    elif how == "tau":
        streaming.prom.weighting.tau = 0.5
        streaming.prom.weighting._resolved_tau = 0.5
    else:
        streaming.prom.epsilon = 0.3
        streaming.prom.gaussian_scale = 3.0


class TestDeferredEqualsEager:
    @pytest.mark.parametrize("router", ROUTERS)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_every_mutation(self, router, policy):
        test_f, test_p, _ = _classification_batch(30, seed=99, shift=0.4)
        for how in ("update", "replace_outputs", "calibrate", "tau", "epsilon"):
            streaming = _streaming(router, policy)
            deferred, eager = _decide_both(streaming, test_f, test_p)
            _assert_same(deferred, eager, VERDICT)
            _move_on(streaming, how)
            _assert_same(deferred, eager)
            assert deferred.detail.is_computed

    def test_chunked_batch(self):
        streaming = _streaming()
        test_f, test_p, _ = _classification_batch(23, seed=5)
        deferred, eager = _decide_both(streaming, test_f, test_p, chunk_size=4)
        assert len(deferred.detail._parts) == 6
        _move_on(streaming, "update")
        _assert_same(deferred, eager)

    def test_regressor(self):
        streaming = StreamingPromRegressor(capacity=150, seed=2, n_shards=2)
        streaming.calibrate(*_regression_batch(140, seed=0))
        test_f, test_y, _ = _regression_batch(20, seed=4, shift=0.5)
        deferred = streaming.evaluate(test_f, test_y)
        eager = _eager(streaming).evaluate(test_f, test_y)
        assert not deferred.detail.is_computed
        streaming.update(*_regression_batch(30, seed=8, shift=1.0))
        _assert_same(deferred, eager)


def _held(streaming, *inputs):
    """A batch a fresh snapshot decided, with its eager reference."""
    snapshot = streaming.detector_snapshot()
    return snapshot.evaluate(*inputs), _eager(streaming).evaluate(*inputs)


def _root(array):
    """The buffer that owns ``array``'s memory."""
    while array.base is not None:
        array = array.base
    return array


def _assert_held(held):
    for batch, eager in held:
        assert not batch.detail.is_computed
        _assert_same(batch, eager)


class TestSnapshotDetail:
    """Snapshot batches defer; read after the live wrapper moved on, the
    detail equals the one computed eagerly at decision time."""

    @pytest.mark.parametrize("router", ROUTERS)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_classifier(self, router, policy):
        streaming = _streaming(router, policy)
        test_f, test_p, _ = _classification_batch(30, seed=81, shift=0.4)
        held = []
        moves = ("update", "evict", "update", "recalibrate_shards", "replace_outputs")
        for seed, how in enumerate(moves):
            held.append(_held(streaming, test_f, test_p))
            _move_on(streaming, how, seed=seed)
        _assert_held(held)

    @pytest.mark.parametrize("router", ("hash", "cluster"))
    @pytest.mark.parametrize("policy", POLICIES)
    def test_regressor(self, router, policy):
        streaming = StreamingPromRegressor(
            capacity=150, eviction=policy, seed=2, n_shards=3, router=router
        )
        streaming.calibrate(*_regression_batch(140, seed=0))
        test_f, test_y, _ = _regression_batch(20, seed=4, shift=0.5)
        held = []
        for step in range(5):
            held.append(_held(streaming, test_f, test_y))
            if step == 1:
                streaming.evict(np.arange(0, len(streaming.store), 9))
            elif step == 3:
                streaming.recalibrate_shards()
            elif step == 4:
                store = streaming.store
                streaming.replace_outputs(
                    store.column("features") + 0.3,
                    store.column("prediction") * 1.1,
                    store.column("target"),
                )
            else:
                streaming.update(*_regression_batch(25, seed=8 + step, shift=1.0))
        _assert_held(held)

    @pytest.mark.concurrency
    @pytest.mark.parametrize("router", ROUTERS)
    def test_async_publishes(self, router):
        interface = BlobInterface(
            MLPClassifier(epochs=5, seed=0),
            max_calibration=120,
            n_shards=3,
            router=router,
        )
        interface.train(*make_blobs(300, seed=0))
        X_test, _ = make_blobs(20, seed=9, shift=1.5)
        loop = AsyncServingLoop(interface)
        held = []
        try:
            for step in range(4):
                eager = copy.copy(loop.snapshot.interface)
                eager.prom = copy.copy(eager.prom)
                eager.prom._eager_detail = True
                held.append((loop.predict(X_test)[1], eager.predict(X_test)[1]))
                loop.submit_fold(*make_blobs(30, seed=20 + step, shift=1.0))
                if step == 2:
                    loop.submit_model_update(*make_blobs(60, seed=40), epochs=2)
                loop.drain()
            assert loop.stats.snapshots_published >= 4
        finally:
            loop.close()
        assert not loop.errors
        _assert_held(held)


class TestTransformsKeepDetail:
    @pytest.fixture
    def pair(self):
        streaming = _streaming("cluster", "reservoir")
        test_f, test_p, _ = _classification_batch(17, seed=21, shift=0.2)
        deferred, eager = _decide_both(streaming, test_f, test_p, chunk_size=5)
        other_f, other_p, _ = _classification_batch(6, seed=22)
        more_deferred, more_eager = _decide_both(streaming, other_f, other_p)
        _move_on(streaming, "update")
        return deferred, eager, more_deferred, more_eager

    def test_take_slice_concatenate(self, pair):
        deferred, eager, more_deferred, more_eager = pair
        order = np.array([16, 0, 3, 3, 9, 2])
        cases = [
            (deferred.take(order), eager.take(order)),
            (deferred[2:13:3], eager[2:13:3]),
            (
                DecisionBatch.concatenate([deferred[5:], more_deferred, deferred[:5]]),
                DecisionBatch.concatenate([eager[5:], more_eager, eager[:5]]),
            ),
            (
                DecisionBatch.concatenate([deferred, more_eager]).take(order[::-1]),
                DecisionBatch.concatenate([eager, more_eager]).take(order[::-1]),
            ),
        ]
        for lazy, computed in cases:
            assert not lazy.detail.is_computed
            _assert_same(lazy, computed)
        # once the source batch is read, batches derived from it are
        # computed ones
        _assert_same(deferred, eager)
        assert deferred.take(order).detail.is_computed
        _assert_same(deferred.take(order), eager.take(order))

    def test_replace_keeps_it_deferred(self, pair):
        deferred, eager, _, _ = pair
        replaced = dataclasses.replace(
            deferred, n_candidates_scored=7, n_shards_pruned=1
        )
        assert replaced.detail is deferred.detail
        assert not replaced.detail.is_computed
        _assert_same(replaced, eager)
        assert replaced.n_candidates_scored == 7

    def test_pickle_carries_plain_arrays(self, pair):
        deferred, eager, _, _ = pair
        blob = pickle.dumps(deferred[3:])
        restored = pickle.loads(blob)
        assert restored.detail.is_computed
        _assert_same(restored, eager[3:])
        # the pickle holds no calibration block: it is the size of the
        # eager batch's own pickle
        assert len(blob) == len(pickle.dumps(eager[3:]))

    def test_decision_objects(self, pair):
        deferred, eager, _, _ = pair
        assert deferred[4] == eager[4]
        assert list(deferred) == list(eager)


class TestRetention:
    def test_bundle_and_view_die_while_batch_is_held(self):
        streaming = _streaming("hash", "fifo")
        test_f, test_p, _ = _classification_batch(12, seed=31)
        bundle = streaming.prom._segment_bundle
        view = bundle.evaluation_view()
        batch = streaming.evaluate(test_f, test_p)
        eager = _eager(streaming).evaluate(test_f, test_p)
        bundle_ref, view_ref = weakref.ref(bundle), weakref.ref(view)
        del bundle, view
        streaming.update(*_classification_batch(20, seed=32, shift=0.5))
        # the next decision builds the successor's view, which releases
        # the panel-repair link to the old one
        streaming.evaluate(test_f, test_p)
        gc.collect()
        assert bundle_ref() is None
        assert view_ref() is None
        assert not batch.detail.is_computed
        _assert_same(batch, eager)

    @pytest.mark.parametrize("router", ROUTERS)
    def test_held_snapshot_batch_pins_no_dropped_store_buffer(self, router):
        streaming = _streaming(router, "fifo")
        test_f, test_p, _ = _classification_batch(12, seed=33)
        batch, eager = _held(streaming, test_f, test_p)
        (source,) = batch.detail._parts
        refs = [
            weakref.ref(_root(segment))
            for segments in (source.features, source.labels)
            for segment in segments
        ]
        evicted = 0
        for seed in range(12):
            update = streaming.update(*_classification_batch(3, seed=100 + seed))
            evicted += len(update.evicted)
        assert evicted > 0  # the folds ran FIFO evictions
        gc.collect()
        live = [
            shard._buffers[name]
            for shard in streaming.store.shards
            for name in ("features", "label")
        ]
        for ref in refs:
            assert ref() is None or any(ref() is buffer for buffer in live)
        assert not batch.detail.is_computed
        _assert_same(batch, eager)

    def test_first_read_drops_the_sources(self):
        streaming = _streaming()
        test_f, test_p, _ = _classification_batch(8, seed=41)
        batch = streaming.evaluate(test_f, test_p)
        assert batch.detail._parts
        batch.confidence
        assert batch.detail._parts == ()

    def test_detail_does_not_alias_caller_inputs(self):
        streaming = _streaming()
        test_f, test_p, _ = _classification_batch(9, seed=51)
        test_f, test_p = test_f.copy(), test_p.copy()
        eager = _eager(streaming).evaluate(test_f, test_p)
        batch = streaming.evaluate(test_f, test_p)
        test_f[:] = 0.0
        test_p[:] = 1.0 / test_p.shape[1]
        _assert_same(batch, eager)


class TestEagerDetectors:
    def test_evaluate_one_is_eager(self):
        streaming = _streaming()
        test_f, test_p, _ = _classification_batch(1, seed=61)
        decision = streaming.evaluate_one(test_f[0], test_p[0])
        batch = _eager(streaming).evaluate(test_f, test_p)
        assert decision == batch[0]

    def test_snapshot_batches_defer(self):
        streaming = _streaming("label", "lowest_weight")
        snapshot = streaming.detector_snapshot()
        test_f, test_p, _ = _classification_batch(10, seed=71)
        batch = snapshot.evaluate(test_f, test_p)
        assert not batch.detail.is_computed
        assert not streaming.evaluate(test_f, test_p).detail.is_computed
        _assert_same(batch, _eager(streaming).evaluate(test_f, test_p))

    @pytest.mark.concurrency
    def test_pool_workers_are_eager(self):
        interface = BlobInterface(
            MLPClassifier(epochs=5, seed=0), max_calibration=120, n_shards=2
        )
        X, y = make_blobs(300, seed=0)
        interface.train(X, y)
        features = interface.feature_extraction(X[:15])
        probabilities = interface.model.predict_proba(X[:15])
        with ProcessServingPool(interface, n_workers=1) as pool:
            runtime = _WorkerRuntime(pool._table.name)
            try:
                runtime.refresh()
                worker_batch = runtime.interface.prom.evaluate(features, probabilities)
            finally:
                runtime.close()
            assert worker_batch.detail.is_computed
            pooled = pool.evaluate(features, probabilities)
        live = interface.prom.evaluate(features, probabilities)
        assert not live.detail.is_computed
        _assert_same(pooled, live)
        _assert_same(worker_batch, live)
