"""A model update with unchanged features rescores only the outputs.

``StreamingPromClassifier.replace_outputs`` skips the re-route and the
whole-detector rebuild when the incoming features are the stored ones
bitwise and no row would change shard: it rewrites the output columns,
restarts every shard's stream in place and rescores the shards.  The
reference is the full path spelled out on a copy — replace every
column, ``rebalance(refit_router=True)``, ``refresh()`` — and the two
must agree bitwise: store columns, arrival counters, ``n_seen``, RNG
state, checkpoint bytes and decisions, right after the update and
after further evicting updates.
"""

import copy

import numpy as np
import pytest

from repro.core import (
    CalibrationError,
    CheckpointWriter,
    ModelInterface,
    ShardedCalibrationStore,
    StreamingPromClassifier,
)
from repro.ml import MLPClassifier

from ..conftest import make_blobs

ROUTERS = ("hash", "label", "cluster")
POLICIES = ("fifo", "reservoir", "lowest_weight")


def _batch(n, n_classes=5, seed=0, shift=0.0):
    g = np.random.default_rng(seed)
    features = g.normal(size=(n, 6)) + shift
    raw = g.random((n, n_classes)) + 0.05
    return features, raw / raw.sum(axis=1, keepdims=True), g.integers(0, n_classes, n)


def _streamed(router, policy, n_shards):
    """A store that has evicted, so arrivals and RNGs have moved on."""
    streaming = StreamingPromClassifier(
        capacity=240, eviction=policy, n_shards=n_shards, router=router, seed=3
    )
    streaming.calibrate(*_batch(200, seed=0))
    g = np.random.default_rng(1)
    for round_ in range(3):
        streaming.update(*_batch(40, seed=10 + round_, shift=0.2), priority=g.random(40))
    return streaming


def _full_rebuild(streaming, features, probabilities, labels):
    """The pre-shortcut model update, step by step."""
    store = streaming.store
    store.replace_column("features", features)
    store.replace_column("probabilities", probabilities)
    store.replace_column("label", labels)
    store.rebalance(refit_router=True)
    streaming.refresh()


def _assert_same_state(a, b, tmp_path, n_classes=5):
    assert a.epoch == b.epoch
    assert a.store.epoch == b.store.epoch
    assert a.store.shard_epochs == b.store.shard_epochs
    assert a.prom.weighting.effective_tau == b.prom.weighting.effective_tau
    for shard_a, shard_b in zip(a.store.shards, b.store.shards):
        assert shard_a.column_names == shard_b.column_names
        for name in shard_a.column_names:
            column_a, column_b = shard_a.column(name), shard_b.column(name)
            assert column_a.dtype == column_b.dtype
            assert np.array_equal(column_a, column_b), name
        assert np.array_equal(shard_a.arrival, shard_b.arrival)
        assert np.array_equal(shard_a.priority, shard_b.priority)
        assert shard_a.n_seen == shard_b.n_seen
        assert shard_a._rng.bit_generator.state == shard_b._rng.bit_generator.state
    # checkpoint bytes: every file of the generation, manifest included
    checkpoints = []
    for name, streaming in (("a", a), ("b", b)):
        directory = tmp_path / f"{name}{a.epoch}"
        CheckpointWriter(directory).checkpoint(streaming)
        checkpoints.append(
            {path.name: path.read_bytes() for path in sorted(directory.iterdir())}
        )
    assert checkpoints[0] == checkpoints[1]
    test_features, test_probabilities, _ = _batch(50, n_classes=n_classes, seed=99, shift=0.3)
    decided_a = a.evaluate(test_features, test_probabilities)
    decided_b = b.evaluate(test_features, test_probabilities)
    assert np.array_equal(decided_a.accepted, decided_b.accepted)
    assert np.array_equal(decided_a.credibility, decided_b.credibility)
    assert np.array_equal(decided_a.expert_credibility, decided_b.expert_credibility)


def _count_rebalances(monkeypatch):
    calls = []
    rebalance = ShardedCalibrationStore.rebalance

    def counting(store, *args, **kwargs):
        calls.append(store)
        return rebalance(store, *args, **kwargs)

    monkeypatch.setattr(ShardedCalibrationStore, "rebalance", counting)
    return calls


class BlobInterface(ModelInterface):
    def feature_extraction(self, X):
        return np.asarray(X, dtype=float)


@pytest.mark.parametrize("n_shards", [1, 4])
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("router", ROUTERS)
@pytest.mark.parametrize("relabel", [False, True])
def test_shortcut_equals_full_rebuild(router, policy, n_shards, relabel, tmp_path, monkeypatch):
    streaming = _streamed(router, policy, n_shards)
    features = np.array(streaming.store.column("features"))
    labels = np.array(streaming.store.column("label"))
    if relabel:
        labels[::7] = (labels[::7] + 1) % 5
    probabilities = _batch(len(features), seed=50)[1]
    reference = copy.deepcopy(streaming)
    _full_rebuild(reference, features, probabilities, labels)

    calls = _count_rebalances(monkeypatch)
    streaming.replace_outputs(features, probabilities, labels)
    shortcut = n_shards == 1 or router == "hash" or (router == "label" and not relabel)
    assert calls == ([] if shortcut else [streaming.store])
    _assert_same_state(streaming, reference, tmp_path)

    g = np.random.default_rng(2)
    for round_ in range(3):
        batch = _batch(45, seed=30 + round_, shift=0.4)
        priority = g.random(45)
        streaming.update(*batch, priority=priority)
        reference.update(*batch, priority=priority)
        _assert_same_state(streaming, reference, tmp_path)


@pytest.mark.parametrize("router", ROUTERS)
def test_changed_features_take_the_full_path(router, tmp_path, monkeypatch):
    streaming = _streamed(router, "reservoir", 4)
    features = streaming.store.column("features") + 0.25
    probabilities = _batch(len(features), seed=51)[1]
    labels = streaming.store.column("label")
    reference = copy.deepcopy(streaming)
    _full_rebuild(reference, features, probabilities, labels)
    calls = _count_rebalances(monkeypatch)
    streaming.replace_outputs(features, probabilities, labels)
    assert calls == [streaming.store]
    _assert_same_state(streaming, reference, tmp_path)


def test_negative_zero_is_a_feature_change(monkeypatch):
    """``-0.0 == 0.0``, but the hash router keys on the bytes."""
    streaming = _streamed("hash", "fifo", 4)
    store = streaming.store
    features = np.array(store.column("features"))
    features[:, 0] = 0.0
    streaming.replace_outputs(features, store.column("probabilities"), store.column("label"))
    features = np.array(store.column("features"))
    features[:, 0] = -0.0
    calls = _count_rebalances(monkeypatch)
    streaming.replace_outputs(features, store.column("probabilities"), store.column("label"))
    assert calls == [store]
    assert np.signbit(store.column("features")[:, 0]).all()


@pytest.mark.parametrize("router", ["hash", "label"])
def test_widened_probability_head(router, tmp_path, monkeypatch):
    """A refit that grew a class keeps the features: the shortcut takes it."""
    streaming = _streamed(router, "lowest_weight", 4)
    features = streaming.store.column("features")
    labels = streaming.store.column("label")
    probabilities = _batch(len(features), n_classes=6, seed=52)[1]
    reference = copy.deepcopy(streaming)
    _full_rebuild(reference, features, probabilities, labels)
    calls = _count_rebalances(monkeypatch)
    streaming.replace_outputs(features, probabilities, labels)
    assert calls == []
    assert streaming.store.column("probabilities").shape[1] == 6
    _assert_same_state(streaming, reference, tmp_path, n_classes=6)
    batch = _batch(30, n_classes=6, seed=53)
    streaming.update(*batch)
    reference.update(*batch)
    _assert_same_state(streaming, reference, tmp_path, n_classes=6)


def test_empty_shards_restart_like_fresh_clones(tmp_path, monkeypatch):
    """Label routing over more shards than labels leaves shards empty.

    Shard 0 is emptied by an eviction, so it still holds a column
    schema; a fresh clone has none.
    """
    streaming = _streamed("label", "reservoir", 8)
    streaming.evict(np.arange(streaming.store.shard_sizes[0]))
    assert streaming.store.shard_sizes[0] == 0
    assert streaming.store.shards[0].column_names
    features = streaming.store.column("features")
    labels = streaming.store.column("label")
    probabilities = _batch(len(features), seed=54)[1]
    reference = copy.deepcopy(streaming)
    _full_rebuild(reference, features, probabilities, labels)
    calls = _count_rebalances(monkeypatch)
    streaming.replace_outputs(features, probabilities, labels)
    assert calls == []
    _assert_same_state(streaming, reference, tmp_path)
    batch = _batch(60, seed=55)
    streaming.update(*batch)
    reference.update(*batch)
    _assert_same_state(streaming, reference, tmp_path)


def test_cluster_refit_moves_rows():
    """Why cluster routing stays on the full path.

    The router was fit on the first batch; a refit on the rows the store
    holds now places other centers, so re-routing moves rows.
    """
    streaming = _streamed("cluster", "fifo", 4)
    store = streaming.store
    before = [np.array(store.column_segment(s, "features")) for s in range(4)]
    store.rebalance(refit_router=True)
    after = [store.column_segment(s, "features") for s in range(4)]
    assert any(
        len(old) != len(new) or not np.array_equal(old, new)
        for old, new in zip(before, after)
    )
    assert not store.keeps_routes(("features", "label"))
    with pytest.raises(CalibrationError, match="may move rows"):
        store.replace_outputs(("features", "label"), probabilities=store.column("probabilities"))


@pytest.mark.parametrize("policy", POLICIES)
def test_one_shard_model_update_takes_the_shortcut(policy, tmp_path, monkeypatch):
    """A one-shard interface stores the new rows' real features, so a
    static extractor's update rescores only the outputs."""
    interface = BlobInterface(
        MLPClassifier(epochs=5, seed=0), max_calibration=90, eviction=policy, seed=3
    )
    interface.train(*make_blobs(400, seed=0))
    for seed in (1, 2):
        interface.extend_calibration(*make_blobs(30, seed=seed, shift=0.5))
    reference = copy.deepcopy(interface)
    # the full path: every column replaced, rebalance, refresh
    monkeypatch.setattr(reference.streaming.store, "keeps_routes", lambda unchanged: False)

    calls = _count_rebalances(monkeypatch)
    refreshes = []
    refresh = StreamingPromClassifier.refresh

    def counting_refresh(streaming):
        refreshes.append(streaming)
        return refresh(streaming)

    monkeypatch.setattr(StreamingPromClassifier, "refresh", counting_refresh)
    X_new, y_new = make_blobs(40, seed=5, shift=1.0)
    interface.incremental_update(X_new, y_new, epochs=3)
    assert calls == [] and refreshes == []
    reference.incremental_update(X_new, y_new, epochs=3)
    assert calls == [reference.streaming.store]
    assert refreshes == [reference.streaming]
    _assert_same_state(interface.streaming, reference.streaming, tmp_path, n_classes=3)

    for seed in (6, 7):
        batch = make_blobs(35, seed=seed, shift=0.8)
        interface.extend_calibration(*batch)
        reference.extend_calibration(*batch)
        _assert_same_state(interface.streaming, reference.streaming, tmp_path, n_classes=3)
