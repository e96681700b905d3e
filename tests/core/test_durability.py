"""Tests for durable incremental checkpoints (DESIGN.md §7).

The acceptance property: a kill-and-restore round trip is
**bit-identical** for every shard router × eviction policy combination
— a detector restored from the newest generation serves exactly the
decisions the pre-crash detector would have, with zero recalibration.
On top of that: incremental block reuse, torn-manifest and
truncated-block fallback to the previous generation, crashes injected
at every writer stage, the serving loop's retry/dead-letter policy,
the hard close deadline, and the warm-restart path through
``stream_deployment``.

Thread-exercising tests carry the ``concurrency`` marker individually;
the pure writer/restore tests run in the main suite.
"""

import json
import threading
import time
import zlib

import numpy as np
import pytest

from repro.core import (
    AsyncServingLoop,
    CheckpointConfig,
    CheckpointError,
    CheckpointWriter,
    ConfigurationError,
    LoopConfig,
    ModelInterface,
    RegressionModelInterface,
    RetryPolicy,
    ServingConfig,
    TriggerConfig,
    list_generations,
    restore_checkpoint,
)
from repro.core.faults import FaultInjector, InjectedFault
from repro.experiments import stream_deployment
from repro.ml import MLPClassifier, MLPRegressor

from ..conftest import make_blobs

ROUTERS = ("hash", "label", "cluster")
POLICIES = ("fifo", "reservoir", "lowest_weight")


class BlobInterface(ModelInterface):
    def feature_extraction(self, X):
        return np.asarray(X)


class BlobRegressionInterface(RegressionModelInterface):
    def feature_extraction(self, X):
        return np.asarray(X)


def _classifier(n_shards=3, router="hash", eviction="fifo", seed=0):
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


def _regressor(n_shards=3, router="hash", eviction="fifo", seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(300, 4))
    y = X @ rng.normal(size=4) + 0.1 * rng.normal(size=300)
    interface = BlobRegressionInterface(
        MLPRegressor(epochs=15, seed=seed),
        max_calibration=120,
        seed=seed,
        n_shards=n_shards,
        router=router,
        eviction=eviction,
    )
    interface.train(X, y)
    return interface, X, y


def _assert_identical_classifier(a, b, seed=9):
    X, _ = make_blobs(40, seed=seed)
    pa, da = a.predict(X)
    pb, db = b.predict(X)
    assert np.array_equal(pa, pb)
    assert np.array_equal(da.accepted, db.accepted)
    assert np.array_equal(da.credibility, db.credibility)
    assert np.array_equal(da.confidence, db.confidence)
    assert np.array_equal(da.drifting, db.drifting)


# -- round-trip bit-identity ---------------------------------------------------
@pytest.mark.parametrize("router", ROUTERS)
@pytest.mark.parametrize("eviction", POLICIES)
def test_classifier_roundtrip_bit_identical(tmp_path, router, eviction):
    live = _classifier(router=router, eviction=eviction)
    # mutate past calibrate(): folds force evictions and reservoir/
    # weight policies consume shard RNG state, all of which must survive
    for seed in (5, 6):
        live.extend_calibration(*make_blobs(60, seed=seed))
    CheckpointWriter(tmp_path).checkpoint(live.streaming)

    restored = _classifier(router=router, eviction=eviction)
    report = restore_checkpoint(restored.streaming, tmp_path)
    assert report.generation == 1
    assert report.fallbacks == ()
    _assert_identical_classifier(live, restored)

    # the restored runtime keeps *streaming*: identical future folds
    # must keep the two runtimes in lockstep (RNG state survived)
    Xf, yf = make_blobs(50, seed=11)
    live.extend_calibration(Xf, yf)
    restored.extend_calibration(Xf, yf)
    _assert_identical_classifier(live, restored, seed=12)


@pytest.mark.parametrize("router", ("hash", "cluster"))
@pytest.mark.parametrize("eviction", POLICIES)
def test_regressor_roundtrip_bit_identical(tmp_path, router, eviction):
    live, X, y = _regressor(router=router, eviction=eviction)
    live.extend_calibration(X[:50], y[:50])
    CheckpointWriter(tmp_path).checkpoint(live.streaming)

    restored, _, _ = _regressor(router=router, eviction=eviction)
    restore_checkpoint(restored.streaming, tmp_path)
    pa, da = live.predict(X[60:100])
    pb, db = restored.predict(X[60:100])
    assert np.array_equal(pa, pb)
    assert np.array_equal(da.accepted, db.accepted)
    assert np.array_equal(da.credibility, db.credibility)
    assert np.array_equal(da.drifting, db.drifting)


def test_single_store_roundtrip_bit_identical(tmp_path):
    live = _classifier(n_shards=1)
    live.extend_calibration(*make_blobs(60, seed=5))
    CheckpointWriter(tmp_path).checkpoint(live.streaming)

    restored = _classifier(n_shards=1)
    restore_checkpoint(restored.streaming, tmp_path)
    _assert_identical_classifier(live, restored)

    Xf, yf = make_blobs(50, seed=11)
    live.extend_calibration(Xf, yf)
    restored.extend_calibration(Xf, yf)
    _assert_identical_classifier(live, restored, seed=12)


def test_restore_requires_no_recalibration(tmp_path):
    """Restoring must rebuild state, not recompute it."""
    live = _classifier()
    CheckpointWriter(tmp_path).checkpoint(live.streaming)
    restored = _classifier()
    calls = {"n": 0}
    original = type(restored.streaming.prom).calibrate

    def counting(self, *args, **kwargs):
        calls["n"] += 1
        return original(self, *args, **kwargs)

    type(restored.streaming.prom).calibrate = counting
    try:
        restore_checkpoint(restored.streaming, tmp_path)
    finally:
        type(restored.streaming.prom).calibrate = original
    assert calls["n"] == 0
    _assert_identical_classifier(live, restored)


# -- incremental reuse ---------------------------------------------------------
def test_untouched_shards_are_reused(tmp_path):
    live = _classifier(n_shards=4)
    writer = CheckpointWriter(tmp_path)
    first = writer.checkpoint(live.streaming)
    assert first.blocks_written >= 4
    assert first.blocks_reused == 0

    # no mutation at all: everything reuses, nothing is written
    second = writer.checkpoint(live.streaming)
    assert second.blocks_written == 0
    assert second.blocks_reused == first.blocks_written

    # touch a single shard: only that shard's block is rewritten
    update = live.extend_calibration(*make_blobs(3, seed=5))
    touched = len(update.touched)
    third = writer.checkpoint(live.streaming)
    assert third.blocks_written == touched
    assert third.blocks_reused == second.blocks_reused - touched


def test_fresh_writer_reuses_blocks_by_content(tmp_path):
    """Content-addressed filenames dedupe across writer instances."""
    live = _classifier()
    CheckpointWriter(tmp_path).checkpoint(live.streaming)
    info = CheckpointWriter(tmp_path).checkpoint(live.streaming)
    assert info.blocks_written == 0
    assert info.blocks_reused > 0


def test_keep_bounds_generations(tmp_path):
    live = _classifier()
    writer = CheckpointWriter(tmp_path, keep=2)
    for seed in (5, 6, 7, 8):
        live.extend_calibration(*make_blobs(20, seed=seed))
        writer.checkpoint(live.streaming)
    assert list_generations(tmp_path) == (3, 4)
    restored = _classifier()
    assert restore_checkpoint(restored.streaming, tmp_path).generation == 4
    _assert_identical_classifier(live, restored)


# -- fault injection: crash consistency ----------------------------------------
@pytest.mark.parametrize(
    "stage", ("serialize", "write_block", "write_manifest", "gc")
)
def test_crash_at_every_writer_stage_preserves_previous(tmp_path, stage):
    live = _classifier()
    CheckpointWriter(tmp_path).checkpoint(live.streaming)
    snapshot = _classifier()
    restore_checkpoint(snapshot.streaming, tmp_path)  # what gen 1 serves

    live.extend_calibration(*make_blobs(30, seed=5))
    faults = FaultInjector()
    faults.fail_on(stage)
    with pytest.raises(InjectedFault):
        CheckpointWriter(tmp_path, faults=faults).checkpoint(live.streaming)

    restored = _classifier()
    report = restore_checkpoint(restored.streaming, tmp_path)
    if stage == "gc":
        # garbage collection runs after the manifest commit: a crash
        # there loses nothing, the *new* generation restores
        assert report.generation == 2
        _assert_identical_classifier(live, restored)
    else:
        assert report.generation == 1
        _assert_identical_classifier(snapshot, restored)


def test_torn_manifest_falls_back(tmp_path):
    live = _classifier()
    writer = CheckpointWriter(tmp_path)
    writer.checkpoint(live.streaming)
    live.extend_calibration(*make_blobs(30, seed=5))
    faults = FaultInjector()
    faults.truncate_on("write_manifest", keep=25)
    with pytest.raises(InjectedFault):
        CheckpointWriter(tmp_path, faults=faults).checkpoint(live.streaming)
    assert list_generations(tmp_path) == (1, 2)  # torn gen 2 on disk

    restored = _classifier()
    report = restore_checkpoint(restored.streaming, tmp_path)
    assert report.generation == 1
    assert len(report.fallbacks) == 1
    assert "generation 2" in report.fallbacks[0]


def test_truncated_block_falls_back(tmp_path):
    live = _classifier()
    CheckpointWriter(tmp_path).checkpoint(live.streaming)
    snapshot = _classifier()
    restore_checkpoint(snapshot.streaming, tmp_path)

    live.extend_calibration(*make_blobs(30, seed=5))
    faults = FaultInjector()
    faults.truncate_on("write_block", keep=10, crash=False)
    CheckpointWriter(tmp_path, faults=faults).checkpoint(live.streaming)

    restored = _classifier()
    report = restore_checkpoint(restored.streaming, tmp_path)
    assert report.generation == 1
    assert len(report.fallbacks) == 1
    _assert_identical_classifier(snapshot, restored)


def test_missing_block_falls_back(tmp_path):
    live = _classifier()
    writer = CheckpointWriter(tmp_path)
    writer.checkpoint(live.streaming)
    live.extend_calibration(*make_blobs(30, seed=5))
    info = writer.checkpoint(live.streaming)
    first = json.loads((tmp_path / "manifest-0000000001.json").read_text())
    second = json.loads((tmp_path / info.manifest).read_text())
    kept = {entry["file"] for entry in first["shards"]}
    # delete a block referenced only by the newest generation
    victim = next(
        entry["file"]
        for entry in second["shards"]
        if entry["file"] not in kept
    )
    (tmp_path / victim).unlink()

    restored = _classifier()
    report = restore_checkpoint(restored.streaming, tmp_path)
    assert report.generation == 1
    assert len(report.fallbacks) == 1


def test_all_generations_corrupt_raises(tmp_path):
    live = _classifier()
    CheckpointWriter(tmp_path).checkpoint(live.streaming)
    for manifest in tmp_path.glob("manifest-*.json"):
        manifest.write_text("{ not json")
    restored = _classifier()
    with pytest.raises(CheckpointError):
        restore_checkpoint(restored.streaming, tmp_path)


def test_empty_directory_raises(tmp_path):
    restored = _classifier()
    with pytest.raises(CheckpointError):
        restore_checkpoint(restored.streaming, tmp_path)


def test_config_mismatch_raises_not_falls_back(tmp_path):
    live = _classifier(n_shards=3)
    CheckpointWriter(tmp_path).checkpoint(live.streaming)
    other = _classifier(n_shards=4)
    with pytest.raises(CheckpointError, match="shards"):
        restore_checkpoint(other.streaming, tmp_path)


def test_single_store_layout_is_refused(tmp_path):
    """A manifest in the removed single-store layout (router ``None``)
    fails the configuration check; there is no compatibility reader."""
    live = _classifier(n_shards=1)
    CheckpointWriter(tmp_path).checkpoint(live.streaming)
    (path,) = tmp_path.glob("manifest-*.json")
    payload = json.loads(path.read_text())
    payload.pop("payload_crc")
    payload["router"] = None
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    payload["payload_crc"] = zlib.crc32(canonical.encode())
    path.write_text(json.dumps(payload))
    restored = _classifier(n_shards=1)
    with pytest.raises(CheckpointError, match="router"):
        restore_checkpoint(restored.streaming, tmp_path)


def test_writer_rejects_bad_keep(tmp_path):
    with pytest.raises(ConfigurationError):
        CheckpointWriter(tmp_path, keep=0)


# -- serving loop: retry, dead-letter, checkpoint job, hard close --------------
@pytest.mark.concurrency
def test_transient_failure_retries_to_success():
    interface = _classifier()
    faults = FaultInjector()
    faults.fail_on("job:fold", call=1, times=2)
    loop = AsyncServingLoop(
        interface,
        retry=RetryPolicy(max_attempts=3, base_delay=0.01),
        faults=faults,
    )
    assert loop.submit_fold(*make_blobs(30, seed=5))
    loop.drain(timeout=10)
    loop.close()
    assert loop.stats.n_retries == 2
    assert loop.stats.jobs_failed == 0
    assert loop.stats.jobs_executed == 1
    assert loop.errors == []
    assert loop.dead_letters == []


@pytest.mark.concurrency
def test_persistent_failure_dead_letters():
    interface = _classifier()
    faults = FaultInjector()
    faults.fail_on("job:fold", times=99)
    loop = AsyncServingLoop(
        interface,
        retry=RetryPolicy(max_attempts=3, base_delay=0.01),
        faults=faults,
    )
    loop.submit_fold(*make_blobs(30, seed=5))
    loop.drain(timeout=10)
    assert loop.stats.n_retries == 2
    assert loop.stats.n_dead_lettered == 1
    assert len(loop.dead_letters) == 1
    assert loop.dead_letters[0].kind == "fold"
    [error] = loop.errors
    assert "RetryExhaustedError" in error.error
    assert error.attempts == 3
    # the loop is still serving
    _, decisions = loop.predict(make_blobs(20, seed=9)[0])
    assert len(decisions.accepted) == 20
    loop.close()


@pytest.mark.concurrency
def test_no_retry_policy_keeps_fail_once_behaviour():
    interface = _classifier()
    faults = FaultInjector()
    faults.fail_on("job:fold", times=99)
    loop = AsyncServingLoop(interface, faults=faults)
    loop.submit_fold(*make_blobs(30, seed=5))
    loop.drain(timeout=10)
    loop.close()
    assert loop.stats.n_retries == 0
    assert loop.stats.n_dead_lettered == 0
    assert len(loop.errors) == 1
    assert loop.errors[0].attempts == 1


@pytest.mark.concurrency
def test_checkpoint_job_runs_after_publish(tmp_path):
    interface = _classifier()
    writer = CheckpointWriter(tmp_path)
    loop = AsyncServingLoop(interface, checkpoint=writer, checkpoint_every=1)
    loop.submit_fold(*make_blobs(30, seed=5))
    deadline = time.monotonic() + 10
    while loop.stats.checkpoint_generations < 1:
        assert time.monotonic() < deadline, "checkpoint job never ran"
        loop.drain(timeout=5)
        time.sleep(0.01)
    loop.close()
    assert writer.latest_generation == 1
    assert loop.stats.last_checkpoint_ms > 0

    restored = _classifier()
    restore_checkpoint(restored.streaming, tmp_path)
    _assert_identical_classifier(interface, restored)


@pytest.mark.concurrency
def test_checkpoint_failure_never_disturbs_serving(tmp_path):
    interface = _classifier()
    faults = FaultInjector()
    faults.fail_on("serialize", times=99)
    writer = CheckpointWriter(tmp_path, faults=faults)
    loop = AsyncServingLoop(interface, checkpoint=writer, checkpoint_every=1)
    loop.submit_fold(*make_blobs(30, seed=5))
    deadline = time.monotonic() + 10
    while loop.stats.checkpoint_errors < 1:
        assert time.monotonic() < deadline, "checkpoint job never failed"
        loop.drain(timeout=5)
        time.sleep(0.01)
    assert loop.stats.checkpoint_generations == 0
    assert any(e.kind == "checkpoint" for e in loop.errors)
    _, decisions = loop.predict(make_blobs(20, seed=9)[0])
    assert len(decisions.accepted) == 20
    loop.close()


@pytest.mark.concurrency
def test_close_honours_hard_timeout_on_wedged_worker():
    interface = _classifier()
    release = threading.Event()
    original = interface.extend_calibration

    def wedged(X, y):
        release.wait()
        return original(X, y)

    interface.extend_calibration = wedged
    loop = AsyncServingLoop(interface)
    loop.submit_fold(*make_blobs(10, seed=5))
    started = time.monotonic()
    loop.close(timeout=0.4)
    elapsed = time.monotonic() - started
    release.set()
    assert elapsed < 2.0
    assert any(error.kind == "drain" for error in loop.errors)
    # the last published snapshot still serves
    _, decisions = loop.predict(make_blobs(20, seed=9)[0])
    assert len(decisions.accepted) == 20


@pytest.mark.concurrency
def test_serving_ctor_rejects_bad_config():
    interface = _classifier()
    with pytest.raises(ConfigurationError):
        AsyncServingLoop(interface, n_workers=0)
    with pytest.raises(ConfigurationError):
        AsyncServingLoop(interface, checkpoint_every=0)
    with pytest.raises(ConfigurationError):
        RetryPolicy(max_attempts=0)
    # taxonomy: pre-existing callers catching ValueError keep working
    with pytest.raises(ValueError):
        AsyncServingLoop(interface, backpressure="bogus")


# -- stream_deployment: warm restart -------------------------------------------
def test_stream_deployment_warm_restart_sync(tmp_path):
    X, y = make_blobs(400, seed=1)
    live = _classifier()
    result = stream_deployment(
        live,
        X,
        y,
        loop=LoopConfig(
            batch_size=50,
            triggers=TriggerConfig(threshold=1.0),  # folds only
        ),
        checkpointing=CheckpointConfig(directory=tmp_path),
    )
    assert result.checkpoint_generations > 0
    assert result.n_model_updates == 0
    assert result.steps[-1].checkpoint_generations == (
        result.checkpoint_generations
    )
    assert result.steps[-1].last_checkpoint_ms > 0

    restored = _classifier()
    warm = stream_deployment(
        restored,
        X[:0],
        y[:0],
        checkpointing=CheckpointConfig(directory=tmp_path, restore=True),
    )
    assert warm.restored_generation == result.checkpoint_generations
    assert warm.restore_fallbacks == ()
    _assert_identical_classifier(live, restored)


@pytest.mark.concurrency
def test_stream_deployment_warm_restart_async(tmp_path):
    X, y = make_blobs(400, seed=1)
    live = _classifier()
    result = stream_deployment(
        live,
        X,
        y,
        loop=LoopConfig(
            batch_size=50, triggers=TriggerConfig(threshold=1.0)
        ),
        serving=ServingConfig(drain_each_step=True),
        checkpointing=CheckpointConfig(
            directory=tmp_path, retry=RetryPolicy(max_attempts=2)
        ),
    )
    assert result.errors == ()
    assert result.checkpoint_generations > 0
    assert result.serving.checkpoint_generations == (
        result.checkpoint_generations
    )

    restored = _classifier()
    warm = stream_deployment(
        restored,
        X[:0],
        y[:0],
        checkpointing=CheckpointConfig(directory=tmp_path, restore=True),
    )
    assert warm.restored_generation == result.checkpoint_generations


def test_stream_deployment_cold_start_on_empty_dir(tmp_path):
    X, y = make_blobs(100, seed=1)
    interface = _classifier()
    result = stream_deployment(
        interface,
        X,
        y,
        loop=LoopConfig(batch_size=50),
        checkpointing=CheckpointConfig(directory=tmp_path, restore=True),
    )
    assert result.restored_generation is None
    assert result.errors == ()
