"""Streaming calibration runtime: incremental update vs full recalibration.

The deployment story (paper Secs. 5.3-5.4) feeds relabelled samples
back into the calibration set continuously.  Before the streaming
runtime, every such round paid a full ``calibrate()`` — per-expert
scores, label groupings and tau over the entire calibration set.  The
:class:`~repro.core.streaming.StreamingPromClassifier` amortizes that:
``update()`` scores only the micro-batch and carries the rest of the
state across the store mutation.

This bench asserts, at a production-ish scale (12k calibration samples,
64 classes):

* ``update()`` of a full store is at least **5x** faster than a full
  recalibration on the same samples (measured ~7x), while remaining
  decision-identical to it; and
* the end-to-end serving loop (``stream_deployment``: evaluate ->
  monitor -> relabel -> recalibrate) sustains a floor throughput in
  decisions/sec, the median of repeated passes on fresh interfaces
  (recorded with its quartiles).

The ``fold_job`` section times the maintenance job that follows every
one-row relabel in a sharded deployment: ``update`` (fold), snapshot
publish (``detector_snapshot``) and evaluation-view prewarm, on a
12k-row, 48-feature, 32-class, 16-shard hash-routed state.  It reports
per-fold medians, splits the update into tau, store and compose, and
checks after every fold that the incrementally resolved tau is bitwise
the tau a fresh ``calibrate()`` on the store would resolve.  It uses
only long-standing public entry points, so the same script times any
revision of the runtime.

Results are appended to ``out/BENCH_streaming.json`` alongside
``BENCH_batch_eval.json`` so later PRs can track both trajectories.
"""

import argparse
import contextlib
import copy
import json
import time

# conftest first: it pins BLAS threads before NumPy loads
from conftest import update_bench_json

import numpy as np

from repro.core import (
    AdaptiveWeighting,
    LoopConfig,
    ModelInterface,
    PromClassifier,
    StreamingPromClassifier,
)
from repro.core import segments as segments_module
from repro.core import sharding as sharding_module
from repro.core import weighting as weighting_module
from repro.experiments import stream_deployment
from repro.ml import MLPClassifier

#: acceptance floor for incremental update() vs full recalibration
#: (n_calibration=12000, n_classes=64, batch=32)
SPEEDUP_FLOOR = 5.0

#: conservative floor for the end-to-end serving loop (decisions/sec);
#: measured throughput is one to two orders of magnitude above this.
THROUGHPUT_FLOOR = 1000.0

#: fresh-interface deploys behind the end-to-end figure: one pass takes
#: about 30 ms, and single passes read 35k-80k decisions/s on a shared
#: 2-core box, so the median and quartiles are recorded
STREAM_REPEATS = 15


def _classification_batch(n, n_classes, n_features, seed=0):
    g = np.random.default_rng(seed)
    features = g.normal(size=(n, n_features))
    raw = g.random((n, n_classes)) + 0.05
    probabilities = raw / raw.sum(axis=1, keepdims=True)
    labels = g.integers(0, n_classes, n)
    return features, probabilities, labels


def _time_best(function, repeats):
    best = np.inf
    for _ in range(repeats):
        started = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - started)
    return best


def test_incremental_update_speedup():
    """The ISSUE 2 acceptance measurement: >= 5x at 12000 x 64."""
    n_calibration, n_classes, n_features, batch = 12_000, 64, 64, 32
    streaming = StreamingPromClassifier(capacity=n_calibration, seed=0)
    streaming.calibrate(
        *_classification_batch(n_calibration, n_classes, n_features, seed=0)
    )
    new = _classification_batch(batch, n_classes, n_features, seed=1)

    streaming.update(*new)  # warmup (store reaches steady state)
    update_seconds = _time_best(lambda: streaming.update(*new), repeats=15)

    # Full-recalibration baseline on the same surviving samples.
    features = streaming.store.column("features").copy()
    probabilities = streaming.store.column("probabilities").copy()
    labels = streaming.store.column("label").copy()
    full_seconds = _time_best(
        lambda: PromClassifier().calibrate(features, probabilities, labels),
        repeats=8,
    )

    # The speedup must not come at the cost of the guarantee: the
    # streamed detector stays decision-identical to the fresh one.
    fresh = PromClassifier().calibrate(features, probabilities, labels)
    test_f, test_p, _ = _classification_batch(200, n_classes, n_features, seed=2)
    streamed_batch = streaming.evaluate(test_f, test_p)
    fresh_batch = fresh.evaluate(test_f, test_p)
    assert np.array_equal(streamed_batch.accepted, fresh_batch.accepted)
    assert np.array_equal(streamed_batch.credibility, fresh_batch.credibility)

    speedup = full_seconds / update_seconds
    update_bench_json(
        "BENCH_streaming.json",
        {
            "incremental_update": {
                "n_calibration": n_calibration,
                "n_classes": n_classes,
                "batch": batch,
                "update_seconds": round(update_seconds, 6),
                "full_recalibration_seconds": round(full_seconds, 6),
                "updates_per_second": round(1.0 / update_seconds, 1),
                "speedup": round(speedup, 2),
            }
        },
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"incremental update() only {speedup:.1f}x faster than full "
        f"recalibration (floor {SPEEDUP_FLOOR}x)"
    )


class _BlobInterface(ModelInterface):
    def feature_extraction(self, X):
        return np.asarray(X)


def _make_blobs(n, n_classes=3, n_features=6, shift=0.0, seed=0):
    g = np.random.default_rng(seed)
    y = g.integers(0, n_classes, n)
    X = g.normal(size=(n, n_features)) * 0.5
    X[:, 0] += y * 2.0 + shift
    X[:, 1] += (y == n_classes - 1) * 1.5 + shift
    return X, y


def test_stream_deployment_throughput():
    """End-to-end serving loop throughput over a drifting stream.

    The deploy is repeated on fresh copies of one trained interface;
    every pass must make the same decisions, and the median rate must
    clear the floor.
    """
    X_train, y_train = _make_blobs(600, seed=0)
    trained = _BlobInterface(
        MLPClassifier(epochs=30, seed=0), max_calibration=200, seed=0
    )
    trained.train(X_train, y_train)

    X_a, y_a = _make_blobs(1000, seed=1)
    X_b, y_b = _make_blobs(1000, shift=3.0, seed=2)
    X_stream = np.concatenate([X_a, X_b])
    y_stream = np.concatenate([y_a, y_b])

    results = [
        stream_deployment(
            copy.deepcopy(trained),
            X_stream,
            y_stream,
            loop=LoopConfig(batch_size=100, budget_fraction=0.1, epochs=10),
        )
        for _ in range(STREAM_REPEATS)
    ]
    result = results[0]
    assert result.final_calibration_size <= 200
    assert all(step.calibration_size <= 200 for step in result.steps)
    assert result.n_flagged > 0
    for other in results[1:]:
        assert (other.n_flagged, other.n_relabelled) == (
            result.n_flagged,
            result.n_relabelled,
        )
    q1, median, q3 = np.percentile(
        [run.decisions_per_second for run in results], [25, 50, 75]
    )

    update_bench_json(
        "BENCH_streaming.json",
        {
            "stream_deployment": {
                "n_samples": result.n_samples,
                "batch_size": 100,
                "repeats": STREAM_REPEATS,
                "decisions_per_second": round(median, 1),
                "decisions_per_second_q1": round(q1, 1),
                "decisions_per_second_q3": round(q3, 1),
                "n_flagged": result.n_flagged,
                "n_relabelled": result.n_relabelled,
                "n_model_updates": result.n_model_updates,
                "lifetime_rejection_rate": round(
                    result.lifetime_rejection_rate, 4
                ),
                "final_calibration_size": result.final_calibration_size,
            }
        },
    )
    assert median >= THROUGHPUT_FLOOR, (
        f"serving loop sustained a median {median:.0f} "
        f"decisions/sec (floor {THROUGHPUT_FLOOR:.0f})"
    )


def _prototype_batch(centers, n, g, shift=0.0):
    """Rows around class centres, scored by a softmax over distances."""
    labels = g.integers(0, len(centers), n)
    features = centers[labels] + 0.5 * g.normal(size=(n, centers.shape[1])) + shift
    logits = 2.0 * features @ centers.T - np.einsum("ij,ij->i", centers, centers)
    logits /= 8.0
    logits -= logits.max(axis=1, keepdims=True)
    probabilities = np.exp(logits)
    probabilities /= probabilities.sum(axis=1, keepdims=True)
    return features, probabilities, labels


@contextlib.contextmanager
def _timed(owner, name, totals, key):
    """Accumulate the wall time of every ``owner.name`` call in ``totals[key]``."""
    original = getattr(owner, name)

    def timed(*args, **kwargs):
        started = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            totals[key] += time.perf_counter() - started

    setattr(owner, name, timed)
    try:
        yield
    finally:
        setattr(owner, name, original)


def _fold_sequence(n_calibration, n_folds, n_shards, n_classes, n_features, seed):
    """One replay of the fold sequence: per-fold timings and checks."""
    g = np.random.default_rng(seed)
    centers = g.normal(size=(n_classes, n_features)) * 2.0
    streaming = StreamingPromClassifier(
        capacity=n_calibration, n_shards=n_shards, router="hash", seed=seed
    )
    streaming.calibrate(*_prototype_batch(centers, n_calibration, g))
    snapshot = streaming.detector_snapshot()
    snapshot._segment_bundle.evaluation_view().prewarm()
    features, probabilities, labels = _prototype_batch(centers, n_folds, g, shift=0.3)
    requests = _prototype_batch(centers, 2 * n_folds, g, shift=0.3)
    keys = ("update", "publish", "prewarm", "tau", "store")
    times = {key: np.zeros(n_folds) for key in keys}
    totals = {"tau": 0.0, "store": 0.0, "kernel_calls": 0}
    resized = skipped = 0
    tau_bitwise = True
    kernel = weighting_module.median_pairwise_tau

    def counted_kernel(*args, **kwargs):
        totals["kernel_calls"] += 1
        return kernel(*args, **kwargs)

    with contextlib.ExitStack() as stack:
        stack.enter_context(
            _timed(segments_module.TauSketch, "resolve", totals, "tau")
        )
        stack.enter_context(
            _timed(sharding_module.ShardedCalibrationStore, "add", totals, "store")
        )
        weighting_module.median_pairwise_tau = counted_kernel
        stack.callback(setattr, weighting_module, "median_pairwise_tau", kernel)
        for i in range(n_folds):
            sizes = streaming.shard_sizes
            totals["tau"] = totals["store"] = 0.0
            calls = totals["kernel_calls"]
            started = time.perf_counter()
            streaming.update(
                features[i : i + 1], probabilities[i : i + 1], labels[i : i + 1]
            )
            folded = time.perf_counter()
            snapshot = streaming.detector_snapshot()
            published = time.perf_counter()
            snapshot._segment_bundle.evaluation_view().prewarm()
            warmed = time.perf_counter()
            times["update"][i] = folded - started
            times["publish"][i] = published - folded
            times["prewarm"][i] = warmed - published
            times["tau"][i] = totals["tau"]
            times["store"][i] = totals["store"]
            resized += sizes != streaming.shard_sizes
            skipped += totals["kernel_calls"] == calls
            # the store's own column() would cache a concatenation that
            # the next add frees inside the timed fold
            fresh = AdaptiveWeighting()
            fresh.resolve_tau(
                np.concatenate(streaming.store.column_segments("features"))
            )
            live = streaming.prom.weighting.effective_tau
            tau_bitwise &= np.float64(live).tobytes() == np.float64(
                fresh.effective_tau
            ).tobytes()
            # a batch-2 decision on the published snapshot between
            # folds, as in a closed-loop deployment
            snapshot.evaluate(
                requests[0][2 * i : 2 * i + 2], requests[1][2 * i : 2 * i + 2]
            )
    return times, resized, skipped, tau_bitwise, len(streaming.store)


def _fold_job(
    n_calibration, n_folds, n_shards, repeats=5, n_classes=32, n_features=48, seed=0
):
    """Per-fold update / publish / prewarm medians of one-row folds.

    The store is capped at its calibration size, so hash routing leaves
    some shards under capacity: a fold into one of those grows it and
    shifts every later shard's rows, a fold into a full shard replaces
    its oldest row.  Between folds (untimed) the tau check runs and the
    published snapshot makes one batch-2 decision.  The same seeded
    sequence is replayed ``repeats`` times from a fresh state; each
    fold's time is its fastest replay (a shared machine's slow phases
    last longer than one replay), and the reported figures are medians
    over the folds.
    """
    replays = [
        _fold_sequence(n_calibration, n_folds, n_shards, n_classes, n_features, seed)
        for _ in range(repeats)
    ]
    fastest = {
        key: np.min([times[key] for times, *_ in replays], axis=0)
        for key in replays[0][0]
    }
    _, resized, skipped, _, store_rows = replays[0]

    def median_ms(values):
        return round(1e3 * float(np.median(values)), 4)

    update, tau, store = fastest["update"], fastest["tau"], fastest["store"]
    job = update + fastest["publish"] + fastest["prewarm"]
    return {
        "n_calibration": n_calibration,
        "n_shards": n_shards,
        "n_features": n_features,
        "n_folds": n_folds,
        "repeats": repeats,
        "store_rows": store_rows,
        "median_job_ms": median_ms(job),
        "median_update_ms": median_ms(update),
        "median_update_tau_ms": median_ms(tau),
        "median_update_store_ms": median_ms(store),
        "median_update_compose_ms": median_ms(update - tau - store),
        "median_publish_ms": median_ms(fastest["publish"]),
        "median_prewarm_ms": median_ms(fastest["prewarm"]),
        "folds_resizing_a_shard": resized,
        "folds_skipping_the_tau_kernel": skipped,
        "tau_bitwise_equal_to_fresh": all(replay[3] for replay in replays),
    }


def test_fold_job():
    """One-row fold job at the deployment benchmark's state shape."""
    result = _fold_job(n_calibration=12_000, n_folds=120, n_shards=16)
    update_bench_json("BENCH_streaming.json", {"fold_job": result})
    assert result["tau_bitwise_equal_to_fresh"]


def _smoke() -> dict:
    """Seconds-long, assertion-free pass for CI (nothing written to out/)."""
    n_calibration, n_classes, n_features, batch = 1_500, 8, 16, 32
    streaming = StreamingPromClassifier(capacity=n_calibration, seed=0)
    streaming.calibrate(
        *_classification_batch(n_calibration, n_classes, n_features, seed=0)
    )
    new = _classification_batch(batch, n_classes, n_features, seed=1)
    streaming.update(*new)
    update_seconds = _time_best(lambda: streaming.update(*new), repeats=3)

    X_train, y_train = _make_blobs(300, seed=0)
    interface = _BlobInterface(
        MLPClassifier(epochs=10, seed=0), max_calibration=100, seed=0
    )
    interface.train(X_train, y_train)
    X_stream, y_stream = _make_blobs(300, shift=2.0, seed=1)
    result = stream_deployment(
        interface,
        X_stream,
        y_stream,
        loop=LoopConfig(batch_size=50, budget_fraction=0.1, epochs=5),
    )
    fold_job = _fold_job(n_calibration=3_000, n_folds=20, n_shards=8, repeats=2)
    assert fold_job["tau_bitwise_equal_to_fresh"]
    return {
        "smoke": True,
        "fold_job": fold_job,
        "incremental_update_seconds": round(update_seconds, 6),
        "stream_decisions_per_second": round(result.decisions_per_second, 1),
        "stream_final_calibration_size": result.final_calibration_size,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes, no perf assertions, nothing written to out/",
    )
    args = parser.parse_args()
    if args.smoke:
        print(json.dumps(_smoke(), indent=2, sort_keys=True))
        return
    test_incremental_update_speedup()
    test_stream_deployment_throughput()
    test_fold_job()
    print("BENCH_streaming.json updated")


if __name__ == "__main__":
    main()
