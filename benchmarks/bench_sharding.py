"""Sharded calibration runtime: touched-shard recalibration + serving loop.

ISSUE 3 splits the calibration store into N routed shards
(``core/sharding.py``) so per-shard eviction and recalibration run
independently.  This bench measures, at the PR 2 scale (12k calibration
samples, 64 classes):

* **touched-shard recalibration** — fully rescoring one shard of a
  16-shard store vs a full-store recalibration on the same samples.
  Floor: **3x** (measured ~its shard fraction, minus the composition
  constant);
* **update latency** — ``update()`` of a full store at 1 / 4 / 16
  shards (the sharded fold only touches the routed shards);
* **end-to-end serving throughput** — ``stream_deployment`` over a
  drifting stream with a 4-shard interface vs the default one-shard
  runtime, asserted no worse than ``PARITY`` of the one-shard run
  measured in the same process (and above the PR 2 absolute floor).

Results land in ``out/BENCH_sharding.json``.  Run as a script with
``--smoke`` for a seconds-long, assertion-free pass (CI uses this to
keep the bench from rotting).
"""

import argparse
import json
import time

# conftest first: it pins BLAS threads before NumPy loads
from conftest import update_bench_json

import numpy as np

from repro.core import (
    LoopConfig,
    ModelInterface,
    PromClassifier,
    StreamingPromClassifier,
)
from repro.experiments import stream_deployment
from repro.ml import MLPClassifier

#: acceptance floor: one-shard recalibration vs full-store recalibration
#: at 16 shards (n_calibration=12000, n_classes=64)
RECALIBRATION_SPEEDUP_FLOOR = 3.0

#: absolute serving-loop floor carried over from PR 2
THROUGHPUT_FLOOR = 1000.0

#: sharded decisions/sec must stay within this fraction of the
#: one-shard run measured in the same process (evaluation is
#: shard-independent, so parity is expected; the margin absorbs noise)
THROUGHPUT_PARITY = 0.7

FULL_SCALE = dict(n_calibration=12_000, n_classes=64, n_features=64, batch=32)
SMOKE_SCALE = dict(n_calibration=600, n_classes=8, n_features=16, batch=16)


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


def _calibrated_streaming(scale, n_shards, seed=0):
    streaming = StreamingPromClassifier(
        capacity=scale["n_calibration"],
        seed=seed,
        n_shards=n_shards,
        router="hash",
    )
    streaming.calibrate(
        *_classification_batch(
            scale["n_calibration"], scale["n_classes"], scale["n_features"], seed=0
        )
    )
    return streaming


def measure_recalibration(scale, n_shards=16, repeats=10):
    """One-shard recalibration vs full-store recalibration."""
    streaming = _calibrated_streaming(scale, n_shards)
    # the busiest shard is the representative "touched" shard
    busiest = int(np.argmax(streaming.shard_sizes))
    streaming.recalibrate_shards([busiest])  # warmup
    touched_seconds = _time_best(
        lambda: streaming.recalibrate_shards([busiest]), repeats
    )

    features = streaming.store.column("features").copy()
    probabilities = streaming.store.column("probabilities").copy()
    labels = streaming.store.column("label").copy()
    full_seconds = _time_best(
        lambda: PromClassifier().calibrate(features, probabilities, labels),
        max(3, repeats // 2),
    )

    # the shard-recalibrated detector must still match a fresh one
    fresh = PromClassifier().calibrate(features, probabilities, labels)
    test_f, test_p, _ = _classification_batch(
        200, scale["n_classes"], scale["n_features"], seed=2
    )
    streamed = streaming.evaluate(test_f, test_p)
    reference = fresh.evaluate(test_f, test_p)
    assert np.array_equal(streamed.accepted, reference.accepted)
    assert np.array_equal(streamed.credibility, reference.credibility)

    return {
        "n_calibration": scale["n_calibration"],
        "n_classes": scale["n_classes"],
        "n_shards": n_shards,
        "shard_rows": int(streaming.shard_sizes[busiest]),
        "touched_shard_seconds": round(touched_seconds, 6),
        "full_recalibration_seconds": round(full_seconds, 6),
        "speedup": round(full_seconds / touched_seconds, 2),
    }


def measure_update_latency(scale, shard_counts=(1, 4, 16), repeats=10):
    """Steady-state ``update()`` latency across shard counts.

    Since the segment compose layer (DESIGN.md §6), a sharded
    ``update()`` is ``O(touched shards)`` and builds no flat array —
    so two numbers are recorded per shard count: ``update_seconds``
    (the fold + segment recomposition alone, what the deployment pays)
    and ``update_materialized_seconds`` (fold plus the flat
    concatenation of every bundle field, the cost of the eager flat
    rebuild the compose layer replaced).  For ``n_shards=1`` the two
    nearly coincide: a one-segment field is its block, no copy.
    """
    new = _classification_batch(
        scale["batch"], scale["n_classes"], scale["n_features"], seed=1
    )
    latencies = {}
    for n_shards in shard_counts:
        streaming = _calibrated_streaming(scale, n_shards)
        streaming.update(*new)  # warmup (store reaches steady state)
        seconds = _time_best(lambda: streaming.update(*new), repeats)

        def update_and_materialize():
            streaming.update(*new)
            for field in streaming.prom._segment_bundle.iter_fields():
                field.flat()

        materialized = _time_best(update_and_materialize, repeats)
        latencies[str(n_shards)] = {
            "update_seconds": round(seconds, 6),
            "updates_per_second": round(1.0 / seconds, 1),
            "update_materialized_seconds": round(materialized, 6),
        }
    return {
        "batch": scale["batch"],
        "n_calibration": scale["n_calibration"],
        "by_shard_count": latencies,
    }


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


def measure_stream_throughput(n_stream=1000, n_shards=4, epochs=30):
    """End-to-end serving loop: one shard vs several, same stream.

    ``single_store_decisions_per_second`` is the one-shard run (the key
    keeps older ``BENCH_sharding.json`` files comparable).
    """
    X_train, y_train = _make_blobs(600, seed=0)
    X_a, y_a = _make_blobs(n_stream, seed=1)
    X_b, y_b = _make_blobs(n_stream, shift=3.0, seed=2)
    X_stream = np.concatenate([X_a, X_b])
    y_stream = np.concatenate([y_a, y_b])

    def run(shards):
        interface = _BlobInterface(
            MLPClassifier(epochs=epochs, seed=0),
            max_calibration=200,
            seed=0,
            n_shards=shards,
            router="hash",
        )
        interface.train(X_train, y_train)
        return stream_deployment(
            interface,
            X_stream,
            y_stream,
            loop=LoopConfig(batch_size=100, budget_fraction=0.1, epochs=10),
        )

    single = run(1)
    sharded = run(n_shards)
    assert sharded.final_calibration_size <= 200
    assert sharded.n_shards == n_shards
    assert any(step.n_shards_touched for step in sharded.steps)
    return {
        "n_samples": sharded.n_samples,
        "n_shards": n_shards,
        "single_store_decisions_per_second": round(single.decisions_per_second, 1),
        "sharded_decisions_per_second": round(sharded.decisions_per_second, 1),
        "sharded_final_shard_sizes": list(sharded.final_shard_sizes),
        "sharded_n_flagged": sharded.n_flagged,
        "sharded_n_model_updates": sharded.n_model_updates,
    }


def test_touched_shard_recalibration_speedup():
    """The ISSUE 3 acceptance measurement: >= 3x at 16 shards."""
    outcome = measure_recalibration(FULL_SCALE, n_shards=16)
    update_bench_json(
        "BENCH_sharding.json", {"touched_shard_recalibration": outcome}
    )
    assert outcome["speedup"] >= RECALIBRATION_SPEEDUP_FLOOR, (
        f"one-shard recalibration only {outcome['speedup']:.1f}x faster than "
        f"a full-store recalibration (floor {RECALIBRATION_SPEEDUP_FLOOR}x)"
    )


def test_update_latency_by_shard_count():
    outcome = measure_update_latency(FULL_SCALE)
    update_bench_json("BENCH_sharding.json", {"update_latency": outcome})
    # sharding must not regress steady-state update latency noticeably
    single = outcome["by_shard_count"]["1"]["update_seconds"]
    sharded = outcome["by_shard_count"]["16"]["update_seconds"]
    assert sharded <= 5.0 * single, (
        f"16-shard update {sharded * 1e3:.2f} ms vs one-shard "
        f"{single * 1e3:.2f} ms"
    )


def test_sharded_stream_throughput_parity():
    outcome = measure_stream_throughput()
    update_bench_json("BENCH_sharding.json", {"stream_deployment": outcome})
    sharded = outcome["sharded_decisions_per_second"]
    single = outcome["single_store_decisions_per_second"]
    assert sharded >= THROUGHPUT_FLOOR, (
        f"sharded serving loop sustained only {sharded:.0f} decisions/sec "
        f"(floor {THROUGHPUT_FLOOR:.0f})"
    )
    assert sharded >= THROUGHPUT_PARITY * single, (
        f"sharded serving loop at {sharded:.0f} decisions/sec fell below "
        f"{THROUGHPUT_PARITY:.0%} of the one-shard run ({single:.0f})"
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes, no perf assertions, nothing written to out/",
    )
    args = parser.parse_args()
    if args.smoke:
        scale = SMOKE_SCALE
        summary = {
            "smoke": True,
            "touched_shard_recalibration": measure_recalibration(
                scale, n_shards=8, repeats=3
            ),
            "update_latency": measure_update_latency(
                scale, shard_counts=(1, 4), repeats=3
            ),
            "stream_deployment": measure_stream_throughput(
                n_stream=150, n_shards=2, epochs=5
            ),
        }
        print(json.dumps(summary, indent=2, sort_keys=True))
        return
    test_touched_shard_recalibration_speedup()
    test_update_latency_by_shard_count()
    test_sharded_stream_throughput_parity()
    print("BENCH_sharding.json updated")


if __name__ == "__main__":
    main()
