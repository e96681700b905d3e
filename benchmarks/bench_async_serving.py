"""Async serving loop: decision latency under recalibration + throughput.

The synchronous serving loop stalls decisions while maintenance runs
inline: any batch that arrives behind a shard recalibration (or model
update) pays the whole rebuild before its decisions come back.  The
:class:`~repro.core.serving.AsyncServingLoop` moves that work onto
background workers and serves every batch against an immutable compose
snapshot, so the stall disappears from the decision path.

This bench asserts, at production-ish scale (12k calibration samples,
16 shards, 32 classes):

* **p99 decision latency during recalibration** improves by at least
  **5x** over the synchronous loop (the ISSUE 4 acceptance floor).
  The maintenance schedule mirrors the serving loop's: periodic
  whole-shard rescoring (``recalibrate_shards``) plus the occasional
  alert-triggered model update with its full calibration rebuild — the
  dominant stall.  The sync loop pays both inline before the stalled
  batch's decisions come back; the async loop's p99 is just the
  evaluate kernel; and
* **steady-state throughput** (no maintenance in flight) through the
  snapshot path stays at **>= 90%** of the direct synchronous
  interface — the snapshot indirection and serving stats must be a
  near-zero tax.  The end-to-end ``stream_deployment`` comparison on
  the ``BENCH_streaming.json`` workload is recorded alongside for the
  perf trajectory.

Snapshot-publish cost is measured twice: inside the maintenance
schedule (``snapshot_publish_ms``) and head-to-head in the
``segment_publish`` section, which compares the structural-sharing
publish (DESIGN.md §6: untouched shards' blocks are referenced, not
copied) for a 1-of-N-shards-touched update against an all-shards
rescoring and against the PR 4 full-flat-copy reference — asserting
the shared-block publish is at least **3x** cheaper than the flat
copy at 12k rows x 16 shards.  The one-off cost that moved off the
publish path (the lazy flat materialization paid by the first
decision after a publish) is recorded alongside for honesty.

Results go to ``out/BENCH_async_serving.json``; ``--smoke`` runs a
seconds-long, assertion-free pass for CI.
"""

import argparse
import json
import time

# conftest first: it pins BLAS threads before NumPy loads
from conftest import update_bench_json

import numpy as np

from repro.core import AsyncServingLoop, LoopConfig, ModelInterface, ServingConfig
from repro.experiments import stream_deployment
from repro.ml import MLPClassifier

#: acceptance floor: p99 decision latency during shard recalibration,
#: synchronous loop vs async serving loop
P99_SPEEDUP_FLOOR = 5.0

#: acceptance floor: async steady-state throughput relative to the
#: direct synchronous evaluate path, same process, same workload
THROUGHPUT_PARITY = 0.90

#: floor for the end-to-end stream_deployment comparison.  Unlike the
#: steady-state measure, the end-to-end loop pays a queue handoff, a
#: worker wake-up and a snapshot publish per relabelled batch; on a
#: single-core runner (the measured ~28% tax at 1.7 ms/batch) none of
#: that can be hidden behind the absent parallelism, so the floor is
#: loose — the p99 latency win above is what the handoff buys.
END_TO_END_PARITY = 0.60

#: absolute end-to-end serving floor, matching bench_streaming.py
END_TO_END_DECISIONS_FLOOR = 1000.0

#: acceptance floor (ISSUE 5): a structural-sharing publish after a
#: single-touched-shard update must beat the full flat-copy publish
#: (the PR 4 behaviour, ~2.4 ms at this scale) by at least this factor
SEGMENT_PUBLISH_SPEEDUP_FLOOR = 3.0

FULL_SCALE = dict(
    n_calibration=12_000,
    n_classes=32,
    n_features=48,
    n_shards=16,
    n_steps=240,
    recalibrate_every=8,
    model_update_every=16,
    relabel_batch=32,
    latency_batch=8,
    throughput_batches=60,
    throughput_batch=256,
)

SMOKE_SCALE = dict(
    n_calibration=1_500,
    n_classes=8,
    n_features=16,
    n_shards=4,
    n_steps=40,
    recalibrate_every=8,
    model_update_every=16,
    relabel_batch=16,
    latency_batch=8,
    throughput_batches=10,
    throughput_batch=128,
)


class _ProjectionModel:
    """A deterministic stand-in classifier (softmax over a wide MLP).

    Keeps the bench free of training noise: the serving-path costs under
    measurement are the detector kernels and the maintenance stalls, not
    model fitting.  The hidden layer is deliberately wide — a model
    update's calibration rebuild must re-run this forward pass over the
    *entire* store, which is exactly the production stall the async
    loop removes from the decision path; an 8-row serving batch barely
    notices it.
    """

    def __init__(self, n_features, n_classes, hidden=1536, seed=0):
        generator = np.random.default_rng(seed)
        self._hidden = generator.normal(size=(n_features, hidden))
        self._head = generator.normal(size=(hidden, n_classes))
        self.classes_ = np.arange(n_classes)

    def fit(self, X, y):
        return self

    def partial_fit(self, X, y, epochs: int = 1):
        return self

    def predict_proba(self, X):
        activations = np.tanh(np.asarray(X, dtype=float) @ self._hidden)
        logits = activations @ self._head
        logits -= logits.max(axis=1, keepdims=True)
        exp = np.exp(logits)
        return exp / exp.sum(axis=1, keepdims=True)


class _ServingInterface(ModelInterface):
    def feature_extraction(self, X):
        return np.asarray(X)


def _batch(n, n_features, seed=0, shift=0.0):
    generator = np.random.default_rng(seed)
    return generator.normal(size=(n, n_features)) + shift


def _make_interface(scale, seed=0):
    model = _ProjectionModel(
        scale["n_features"], scale["n_classes"], seed=seed
    )
    interface = _ServingInterface(
        model,
        max_calibration=scale["n_calibration"],
        seed=seed,
        n_shards=scale["n_shards"],
        router="hash",
    )
    X_cal = _batch(scale["n_calibration"], scale["n_features"], seed=seed)
    generator = np.random.default_rng(seed + 1)
    y_cal = generator.integers(0, scale["n_classes"], scale["n_calibration"])
    interface.model.fit(X_cal, y_cal)
    interface.calibrate(X_cal, y_cal)
    return interface


def measure_recalibration_latency(scale, seed=0) -> dict:
    """Per-step decision latency under the serving maintenance schedule.

    Every ``recalibrate_every``-th step triggers whole-shard rescoring
    and every ``model_update_every``-th step an (alert-style)
    incremental model update with its full calibration rebuild.  In the
    synchronous loop both run inline — the step's decisions wait for
    them; in the async loop they are queued and the step serves
    immediately from the snapshot.  Latency is measured from step start
    (batch arrival) to decisions returned.
    """
    batches = [
        _batch(scale["latency_batch"], scale["n_features"], seed=100 + step)
        for step in range(scale["n_steps"])
    ]
    generator = np.random.default_rng(seed + 3)
    relabel_X = _batch(scale["relabel_batch"], scale["n_features"], seed=9)
    relabel_y = generator.integers(
        0, scale["n_classes"], scale["relabel_batch"]
    )

    def run_sync():
        interface = _make_interface(scale, seed=seed)
        latencies = []
        for step, X in enumerate(batches):
            started = time.perf_counter()
            if step and step % scale["model_update_every"] == 0:
                interface.incremental_update(relabel_X, relabel_y, epochs=1)
            elif step and step % scale["recalibrate_every"] == 0:
                interface.recalibrate_shards()
            interface.predict(X)
            latencies.append(time.perf_counter() - started)
        return np.asarray(latencies)

    def run_async():
        interface = _make_interface(scale, seed=seed)
        latencies = []
        with AsyncServingLoop(interface, queue_capacity=8) as loop:
            for step, X in enumerate(batches):
                started = time.perf_counter()
                if step and step % scale["model_update_every"] == 0:
                    loop.submit_model_update(relabel_X, relabel_y, epochs=1)
                elif step and step % scale["recalibrate_every"] == 0:
                    loop.submit_recalibration()
                loop.predict(X)
                latencies.append(time.perf_counter() - started)
            loop.drain(timeout=120)
            stats = loop.stats
        return np.asarray(latencies), stats

    sync_latencies = run_sync()
    async_latencies, stats = run_async()
    p99_sync = float(np.percentile(sync_latencies, 99))
    p99_async = float(np.percentile(async_latencies, 99))
    publish_seconds = stats.total_publish_seconds / max(
        1, stats.snapshots_published
    )
    return {
        "n_calibration": scale["n_calibration"],
        "n_shards": scale["n_shards"],
        "n_steps": scale["n_steps"],
        "recalibrate_every": scale["recalibrate_every"],
        "model_update_every": scale["model_update_every"],
        "latency_batch": scale["latency_batch"],
        "p50_sync_ms": round(float(np.percentile(sync_latencies, 50)) * 1e3, 4),
        "p50_async_ms": round(float(np.percentile(async_latencies, 50)) * 1e3, 4),
        "p99_sync_ms": round(p99_sync * 1e3, 4),
        "p99_async_ms": round(p99_async * 1e3, 4),
        "p99_speedup": round(p99_sync / p99_async, 2),
        "snapshot_publish_ms": round(publish_seconds * 1e3, 4),
        "snapshots_published": stats.snapshots_published,
    }


def measure_segment_publish(scale, seed=0, rounds=5) -> dict:
    """Snapshot publish cost: structural sharing vs the flat-copy world.

    Three measurements at the same store state (best-of-``rounds``
    each, like the throughput bench):

    * ``publish_single_touched_ms`` — publish after a fold routed to
      exactly one shard: the structural-sharing path reuses the other
      ``n_shards - 1`` shards' blocks by reference;
    * ``publish_all_touched_ms`` — publish after a whole-store
      rescoring (every shard's score blocks rebuilt);
    * ``flat_copy_reference_ms`` — the PR 4 publish kernel: one deep
      copy of every store-aliased array (features, labels, and every
      expert layout's scores/labels/counts), timed on the same state.

    ``first_decision_after_publish_ms`` records where the deferred
    ``O(n)`` went: the first decision after a publish materializes the
    snapshot's flat arrays once; ``warm_decision_ms`` is the same batch
    on the already-materialized snapshot.
    """
    interface = _make_interface(scale, seed=seed)
    generator = np.random.default_rng(seed + 7)
    X_warm = _batch(scale["latency_batch"], scale["n_features"], seed=41)
    with AsyncServingLoop(interface) as loop:
        loop.predict(X_warm)  # materialize the initial snapshot

        # a fold batch the hash router sends to exactly one shard
        store = interface.streaming.store
        candidates = _batch(4096, scale["n_features"], seed=42)
        routes = store.router.route(candidates)
        single = candidates[routes == 0][: scale["relabel_batch"]]
        y_single = generator.integers(0, scale["n_classes"], len(single))

        single_ms = []
        shared_per_publish = []
        for _ in range(rounds):
            loop.submit_fold(single, y_single)
            loop.drain(timeout=120)
            single_ms.append(loop.stats.last_publish_seconds * 1e3)
            shared_per_publish.append(loop.snapshot.blocks_shared)
            loop.predict(X_warm)  # materialize before the next round

        all_ms = []
        for _ in range(rounds):
            loop.submit_recalibration()  # rebuilds every shard's scores
            loop.drain(timeout=120)
            all_ms.append(loop.stats.last_publish_seconds * 1e3)
            loop.predict(X_warm)

        # the PR 4 reference publish: deep-copy every store-aliased
        # array of the (materialized) detector state
        prom = interface.streaming.prom
        n_rows = len(prom._features)
        reference_ms = []
        for _ in range(rounds):
            started = time.perf_counter()
            np.array(prom._features)
            np.array(prom._labels)
            for layout in prom._layouts:
                np.array(layout.scores)
                np.array(layout.labels)
                np.array(layout.group_counts)
            reference_ms.append((time.perf_counter() - started) * 1e3)

        # where the deferred O(n) went: the publish-following decision
        loop.submit_fold(single, y_single)
        loop.drain(timeout=120)
        started = time.perf_counter()
        loop.predict(X_warm)
        first_decision_ms = (time.perf_counter() - started) * 1e3
        started = time.perf_counter()
        loop.predict(X_warm)
        warm_decision_ms = (time.perf_counter() - started) * 1e3
        stats = loop.stats

    best_single = min(single_ms)
    best_reference = min(reference_ms)
    return {
        "n_calibration": n_rows,
        "n_shards": scale["n_shards"],
        "fold_batch": len(single),
        "publish_single_touched_ms": round(best_single, 4),
        "publish_all_touched_ms": round(min(all_ms), 4),
        "flat_copy_reference_ms": round(best_reference, 4),
        "publish_speedup_vs_flat_copy": round(best_reference / best_single, 2),
        "blocks_shared_per_single_touch_publish": shared_per_publish,
        "first_decision_after_publish_ms": round(first_decision_ms, 4),
        "warm_decision_ms": round(warm_decision_ms, 4),
        "shard_blocks_shared_total": stats.shard_blocks_shared,
        "shard_blocks_rebuilt_total": stats.shard_blocks_rebuilt,
    }


def measure_steady_state_throughput(scale, seed=0, rounds=3) -> dict:
    """Decisions/sec with an idle maintenance plane: snapshot tax only.

    The two paths run the same kernels, so the measurement alternates
    sync/async rounds and keeps each path's best pass — isolating the
    snapshot indirection from scheduler and frequency noise.
    """
    interface = _make_interface(scale, seed=seed)
    batches = [
        _batch(
            scale["throughput_batch"], scale["n_features"], seed=500 + step
        )
        for step in range(scale["throughput_batches"])
    ]
    n_decisions = scale["throughput_batch"] * scale["throughput_batches"]

    def one_pass(predict):
        started = time.perf_counter()
        for X in batches:
            predict(X)
        return time.perf_counter() - started

    with AsyncServingLoop(interface) as loop:
        interface.predict(batches[0])  # warm both paths
        loop.predict(batches[0])
        sync_seconds = float("inf")
        async_seconds = float("inf")
        for _ in range(rounds):
            sync_seconds = min(sync_seconds, one_pass(interface.predict))
            async_seconds = min(async_seconds, one_pass(loop.predict))

    return {
        "n_decisions": n_decisions,
        "sync_decisions_per_second": round(n_decisions / sync_seconds, 1),
        "async_decisions_per_second": round(n_decisions / async_seconds, 1),
        "throughput_ratio": round(sync_seconds / async_seconds, 4),
    }


def measure_stream_deployment(n_stream=2000, epochs=10, seed=0, rounds=3) -> dict:
    """End-to-end serving loop on the ``BENCH_streaming.json`` workload.

    Alternates sync/async rounds (fresh interface each — the stream
    mutates it) and keeps each path's best pass, for the same
    noise-isolation reason as :func:`measure_steady_state_throughput`.
    """

    def make_blobs(n, n_classes=3, n_features=6, shift=0.0, blob_seed=0):
        generator = np.random.default_rng(blob_seed)
        y = generator.integers(0, n_classes, n)
        X = generator.normal(size=(n, n_features)) * 0.5
        X[:, 0] += y * 2.0 + shift
        X[:, 1] += (y == n_classes - 1) * 1.5 + shift
        return X, y

    def make_interface():
        interface = _BlobInterface(
            MLPClassifier(epochs=30, seed=seed), max_calibration=200, seed=seed
        )
        X_train, y_train = make_blobs(600, blob_seed=seed)
        interface.train(X_train, y_train)
        return interface

    X_a, y_a = make_blobs(n_stream // 2, blob_seed=1)
    X_b, y_b = make_blobs(n_stream // 2, shift=3.0, blob_seed=2)
    X_stream = np.concatenate([X_a, X_b])
    y_stream = np.concatenate([y_a, y_b])
    loop_config = LoopConfig(batch_size=100, budget_fraction=0.1, epochs=epochs)

    sync = asynchronous = None
    for _ in range(rounds):
        sync_run = stream_deployment(
            make_interface(), X_stream, y_stream, loop=loop_config
        )
        if sync is None or (
            sync_run.decisions_per_second > sync.decisions_per_second
        ):
            sync = sync_run
        async_run = stream_deployment(
            make_interface(),
            X_stream,
            y_stream,
            loop=loop_config,
            serving=ServingConfig(),
        )
        if asynchronous is None or (
            async_run.decisions_per_second > asynchronous.decisions_per_second
        ):
            asynchronous = async_run
    outcome = {
        "n_samples": n_stream,
        "sync_decisions_per_second": round(sync.decisions_per_second, 1),
        "async_decisions_per_second": round(
            asynchronous.decisions_per_second, 1
        ),
        "async_served_during_maintenance": sum(
            step.served_during_maintenance for step in asynchronous.steps
        ),
        "async_max_staleness": asynchronous.serving.max_staleness,
        "async_errors": len(asynchronous.errors),
    }
    reference = _streaming_reference()
    if reference is not None:
        outcome["reference_streaming_decisions_per_second"] = reference
    return outcome


def _streaming_reference():
    """The recorded BENCH_streaming.json throughput, for the trajectory."""
    import os

    path = os.path.join(
        os.path.dirname(__file__), "out", "BENCH_streaming.json"
    )
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        data = json.load(handle)
    return data.get("stream_deployment", {}).get("decisions_per_second")


class _BlobInterface(ModelInterface):
    def feature_extraction(self, X):
        return np.asarray(X)


def test_p99_latency_during_recalibration():
    """The ISSUE 4 acceptance measurement: >= 5x p99 improvement."""
    outcome = measure_recalibration_latency(FULL_SCALE)
    update_bench_json(
        "BENCH_async_serving.json", {"recalibration_latency": outcome}
    )
    assert outcome["p99_speedup"] >= P99_SPEEDUP_FLOOR, (
        f"async serving only improved p99 decision latency "
        f"{outcome['p99_speedup']:.1f}x during recalibration "
        f"(floor {P99_SPEEDUP_FLOOR}x)"
    )


def test_segment_snapshot_publish():
    """The ISSUE 5 acceptance measurement: shared-block publish >= 3x.

    A single-touched-shard update's snapshot publish must beat the
    full flat-copy publish (the pre-segment behaviour, the ~2.4 ms
    ``snapshot_publish_ms`` baseline recorded by PR 4) by at least 3x
    at 12k rows x 16 shards, and all but one shard's blocks must be
    shared with the previous snapshot on every such publish.
    """
    outcome = measure_segment_publish(FULL_SCALE)
    update_bench_json(
        "BENCH_async_serving.json", {"segment_publish": outcome}
    )
    assert (
        outcome["publish_speedup_vs_flat_copy"]
        >= SEGMENT_PUBLISH_SPEEDUP_FLOOR
    ), (
        f"structural-sharing publish only "
        f"{outcome['publish_speedup_vs_flat_copy']:.1f}x cheaper than the "
        f"flat-copy reference (floor {SEGMENT_PUBLISH_SPEEDUP_FLOOR}x)"
    )
    n_shards = FULL_SCALE["n_shards"]
    assert all(
        shared == n_shards - 1
        for shared in outcome["blocks_shared_per_single_touch_publish"]
    ), (
        f"single-touched-shard publishes shared "
        f"{outcome['blocks_shared_per_single_touch_publish']} blocks, "
        f"expected {n_shards - 1} each"
    )


def test_steady_state_throughput_parity():
    outcome = measure_steady_state_throughput(FULL_SCALE)
    update_bench_json(
        "BENCH_async_serving.json", {"steady_state_throughput": outcome}
    )
    assert outcome["throughput_ratio"] >= THROUGHPUT_PARITY, (
        f"async steady-state throughput fell to "
        f"{outcome['throughput_ratio']:.0%} of the synchronous path "
        f"(floor {THROUGHPUT_PARITY:.0%})"
    )


def test_stream_deployment_end_to_end():
    outcome = measure_stream_deployment()
    update_bench_json(
        "BENCH_async_serving.json", {"stream_deployment": outcome}
    )
    assert outcome["async_errors"] == 0
    assert (
        outcome["async_decisions_per_second"] >= END_TO_END_DECISIONS_FLOOR
    ), (
        f"async serving loop sustained only "
        f"{outcome['async_decisions_per_second']:.0f} decisions/sec "
        f"(floor {END_TO_END_DECISIONS_FLOOR:.0f})"
    )
    assert outcome["async_decisions_per_second"] >= END_TO_END_PARITY * (
        outcome["sync_decisions_per_second"]
    ), (
        f"async stream_deployment at "
        f"{outcome['async_decisions_per_second']:.0f} decisions/sec fell "
        f"below {END_TO_END_PARITY:.0%} of the synchronous loop "
        f"({outcome['sync_decisions_per_second']:.0f})"
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
        summary = {
            "smoke": True,
            "recalibration_latency": measure_recalibration_latency(
                SMOKE_SCALE
            ),
            "segment_publish": measure_segment_publish(SMOKE_SCALE),
            "steady_state_throughput": measure_steady_state_throughput(
                SMOKE_SCALE
            ),
            "stream_deployment": measure_stream_deployment(
                n_stream=300, epochs=5
            ),
        }
        print(json.dumps(summary, indent=2, sort_keys=True))
        return
    test_p99_latency_during_recalibration()
    test_segment_snapshot_publish()
    test_steady_state_throughput_parity()
    test_stream_deployment_end_to_end()
    print("BENCH_async_serving.json updated")


if __name__ == "__main__":
    main()
