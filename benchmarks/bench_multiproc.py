"""Multi-process serving tier: throughput scaling + bit-identity.

The async serving loop (PR 4) hides maintenance stalls but still
executes every decision on the parent's cores.  The
:class:`~repro.core.multiproc.ProcessServingPool` moves the evaluate
kernels into worker *processes* that attach the published
shared-memory segments read-only (DESIGN.md §10) — the calibration
state is mapped, never copied, so adding workers adds decision
throughput without multiplying memory.

This bench records, at production-ish scale (12k calibration samples,
16 shards, 32 classes):

* **throughput scaling** — decisions/sec through ``map_predict`` at
  1 / 2 / 4 workers against the in-process async loop on the same
  batches.  The acceptance floor (**>= 1.8x** at 4 workers vs the
  in-process loop) is asserted only on machines with at least 4 CPU
  cores; on smaller boxes the floor is recorded as skipped with the
  reason — process parallelism cannot beat a single core that the
  workers and the parent already share; and
* **bit-identity** — pooled decisions equal the in-process
  ``interface.predict`` for every shard router × eviction policy
  combination (always asserted; parallelism must never change a
  decision).

Results go to ``out/BENCH_multiproc.json``; ``--smoke`` runs a
seconds-long, assertion-free pass for CI.
"""

import argparse
import json
import os
import time

# conftest first: it pins BLAS threads before NumPy loads
from conftest import update_bench_json

import numpy as np

from repro.core import AsyncServingLoop, ModelInterface, ProcessServingPool

#: acceptance floor: map_predict decisions/sec at 4 workers vs the
#: in-process async loop, same batches, same process — asserted only
#: when the box has at least MIN_CORES_FOR_FLOOR cores
WORKER_SPEEDUP_FLOOR = 1.8

#: the 4-worker floor is meaningless below this core count
MIN_CORES_FOR_FLOOR = 4

WORKER_COUNTS = (1, 2, 4)

ROUTERS = ("hash", "label", "cluster")
POLICIES = ("fifo", "reservoir", "lowest_weight")

FULL_SCALE = dict(
    n_calibration=12_000,
    n_classes=32,
    n_features=48,
    n_shards=16,
    throughput_batches=48,
    throughput_batch=256,
    identity_batch=120,
)

SMOKE_SCALE = dict(
    n_calibration=1_500,
    n_classes=8,
    n_features=16,
    n_shards=4,
    throughput_batches=8,
    throughput_batch=64,
    identity_batch=40,
)


class _ProjectionModel:
    """A deterministic stand-in classifier (softmax over a wide MLP).

    Keeps the bench free of training noise: what is under measurement
    is the evaluate kernel per process and the pipe/segment transport,
    not model fitting.
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
    model = _ProjectionModel(scale["n_features"], scale["n_classes"], seed=seed)
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


def measure_throughput_scaling(scale, seed=0, rounds=3) -> dict:
    """map_predict decisions/sec at 1/2/4 workers vs the in-process loop.

    The in-process baseline drives the same batches through
    ``AsyncServingLoop.predict`` (the snapshot path every pooled worker
    also runs), so the comparison isolates what the process fan-out
    buys: the kernels run N-wide instead of inline.  Best-of-``rounds``
    per configuration, alternated to dodge frequency noise.
    """
    interface = _make_interface(scale, seed=seed)
    batches = [
        _batch(scale["throughput_batch"], scale["n_features"], seed=500 + step)
        for step in range(scale["throughput_batches"])
    ]
    n_decisions = scale["throughput_batch"] * scale["throughput_batches"]

    with AsyncServingLoop(interface) as loop:
        loop.predict(batches[0])  # warm the snapshot
        in_process_seconds = float("inf")
        for _ in range(rounds):
            started = time.perf_counter()
            for X in batches:
                loop.predict(X)
            in_process_seconds = min(
                in_process_seconds, time.perf_counter() - started
            )

    by_workers = {}
    for n_workers in WORKER_COUNTS:
        with ProcessServingPool(interface, n_workers=n_workers) as pool:
            pool.predict(batches[0])  # warm every worker's attach path
            pool_seconds = float("inf")
            for _ in range(rounds):
                started = time.perf_counter()
                pool.map_predict(batches)
                pool_seconds = min(pool_seconds, time.perf_counter() - started)
            by_workers[str(n_workers)] = {
                "decisions_per_second": round(n_decisions / pool_seconds, 1),
                "speedup_vs_in_process": round(
                    in_process_seconds / pool_seconds, 3
                ),
                "shm_bytes_exported": pool.stats.shm_bytes_exported,
            }

    outcome = {
        "n_calibration": scale["n_calibration"],
        "n_shards": scale["n_shards"],
        "n_decisions": n_decisions,
        "cpu_cores": os.cpu_count(),
        "in_process_decisions_per_second": round(
            n_decisions / in_process_seconds, 1
        ),
        "by_workers": by_workers,
    }
    if os.cpu_count() < MIN_CORES_FOR_FLOOR:
        outcome["floor_skipped"] = (
            f"{WORKER_SPEEDUP_FLOOR}x floor at 4 workers needs "
            f">= {MIN_CORES_FOR_FLOOR} cores; this machine has "
            f"{os.cpu_count()} — workers and parent share the core, so "
            f"process fan-out only adds transport cost"
        )
    return outcome


def measure_bit_identity(scale, seed=0) -> dict:
    """Pooled decisions vs in-process, per router × eviction policy."""
    X_train = _batch(scale["n_calibration"], scale["n_features"], seed=seed)
    generator = np.random.default_rng(seed + 1)
    y_train = generator.integers(
        0, scale["n_classes"], scale["n_calibration"]
    )
    X_test = _batch(
        scale["identity_batch"], scale["n_features"], seed=77, shift=0.5
    )

    grid = {}
    for router in ROUTERS:
        for policy in POLICIES:
            interface = _ServingInterface(
                _ProjectionModel(
                    scale["n_features"], scale["n_classes"], seed=seed
                ),
                max_calibration=scale["n_calibration"],
                seed=seed,
                n_shards=scale["n_shards"],
                router=router,
                eviction=policy,
            )
            interface.model.fit(X_train, y_train)
            interface.calibrate(X_train, y_train)
            live_predictions, live = interface.predict(X_test)
            with ProcessServingPool(interface, n_workers=2) as pool:
                pool_predictions, pooled = pool.predict(X_test)
            identical = (
                np.array_equal(live_predictions, pool_predictions)
                and np.array_equal(live.accepted, pooled.accepted)
                and np.array_equal(live.credibility, pooled.credibility)
                and np.array_equal(live.confidence, pooled.confidence)
                and np.array_equal(live.drifting, pooled.drifting)
            )
            grid[f"{router}/{policy}"] = {
                "bit_identical": bool(identical),
                "n_decisions": len(X_test),
            }
    return {
        "n_calibration": scale["n_calibration"],
        "n_shards": scale["n_shards"],
        "grid": grid,
    }


def test_throughput_scaling():
    """The ISSUE 9 acceptance measurement: >= 1.8x at 4 workers.

    Skipped with the recorded reason on boxes under 4 cores — the
    scaling numbers are still written to the JSON for the trajectory.
    """
    outcome = measure_throughput_scaling(FULL_SCALE)
    update_bench_json("BENCH_multiproc.json", {"throughput_scaling": outcome})
    if "floor_skipped" in outcome:
        print(f"floor skipped: {outcome['floor_skipped']}")
        return
    speedup = outcome["by_workers"]["4"]["speedup_vs_in_process"]
    assert speedup >= WORKER_SPEEDUP_FLOOR, (
        f"4-worker pool only {speedup:.2f}x the in-process async loop "
        f"(floor {WORKER_SPEEDUP_FLOOR}x on {os.cpu_count()} cores)"
    )


def test_bit_identity_grid():
    """Always asserted: parallelism must never change a decision."""
    outcome = measure_bit_identity(FULL_SCALE)
    update_bench_json("BENCH_multiproc.json", {"bit_identity": outcome})
    broken = [
        combo
        for combo, entry in outcome["grid"].items()
        if not entry["bit_identical"]
    ]
    assert not broken, (
        f"pooled decisions diverged from in-process for {broken}"
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
            "throughput_scaling": measure_throughput_scaling(
                SMOKE_SCALE, rounds=1
            ),
            "bit_identity": measure_bit_identity(SMOKE_SCALE),
        }
        print(json.dumps(summary, indent=2, sort_keys=True))
        return
    test_throughput_scaling()
    test_bit_identity_grid()
    print("BENCH_multiproc.json updated")


if __name__ == "__main__":
    main()
