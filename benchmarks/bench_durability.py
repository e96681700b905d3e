"""Durability layer: incremental checkpoint cost and warm-restart gain.

Two claims back DESIGN.md §7, both measured here at production-ish
scale (12k calibration samples, 16 shards, 32 classes):

* **incremental checkpoints are cheap** — after a fold touching one
  shard, :class:`~repro.core.durability.CheckpointWriter` rewrites only
  that shard's block (every other block is reused by identity) and
  commits a new manifest.  That must beat a full-store dump (a fresh
  writer in an empty directory, every block serialized and written) by
  at least **3x** (the ISSUE 6 acceptance floor); and
* **warm restart skips recalibration** — restoring the persisted
  blocks (:func:`~repro.core.durability.restore_checkpoint`) and
  serving a first decision must be cheaper than the cold path of
  recalibrating the same store from raw samples and serving the same
  decision.  The restored decisions are bit-identical (asserted here
  too; the property matrix lives in ``tests/core/test_durability.py``).

Results go to ``out/BENCH_durability.json``; ``--smoke`` runs a
seconds-long, assertion-free pass for CI.
"""

import argparse
import json
import shutil
import tempfile
import time
from pathlib import Path

# conftest first: it pins BLAS threads before NumPy loads
from conftest import update_bench_json

import numpy as np

from repro.core import CheckpointWriter, ModelInterface, restore_checkpoint

#: acceptance floor (ISSUE 6): checkpointing after a single-touched-
#: shard fold must beat a full-store dump by at least this factor
INCREMENTAL_SPEEDUP_FLOOR = 3.0

FULL_SCALE = dict(
    n_calibration=12_000,
    n_classes=32,
    n_features=48,
    n_shards=16,
    rounds=7,
)

SMOKE_SCALE = dict(
    n_calibration=1_500,
    n_classes=8,
    n_features=16,
    n_shards=4,
    rounds=3,
)


class _ProjectionModel:
    """Deterministic stand-in classifier (fixed random projection).

    Keeps the bench free of training noise: what is under measurement
    is serialization, fsync and restore cost, not model fitting.
    """

    def __init__(self, n_features, n_classes, hidden=256, seed=0):
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


class _BlobInterface(ModelInterface):
    def feature_extraction(self, X):
        return np.asarray(X)


def _calibration_data(scale, seed=0):
    generator = np.random.default_rng(seed)
    X = generator.normal(size=(scale["n_calibration"], scale["n_features"]))
    y = generator.integers(0, scale["n_classes"], scale["n_calibration"])
    return X, y


def _make_interface(scale, seed=0, calibrate=True):
    interface = _BlobInterface(
        _ProjectionModel(scale["n_features"], scale["n_classes"], seed=seed),
        max_calibration=scale["n_calibration"],
        seed=seed,
        n_shards=scale["n_shards"],
        router="hash",
    )
    if calibrate:
        X, y = _calibration_data(scale, seed=seed)
        interface.calibrate(X, y)
    return interface


def measure_incremental_checkpoint(scale, seed=0) -> dict:
    """Single-touched-shard checkpoint vs full-store dump (best-of-N).

    The incremental writer holds generation 1 already; each round folds
    one sample (touching one shard) and times the follow-up checkpoint.
    The dump rounds time a *fresh* writer over an *empty* directory on
    the same state — no block memory, no content-addressed reuse, every
    block serialized, written and fsynced.
    """
    interface = _make_interface(scale, seed=seed)
    generator = np.random.default_rng(seed + 7)
    incremental_ms, dump_ms = [], []
    touched_counts, written_counts = [], []
    with tempfile.TemporaryDirectory() as root:
        incremental_dir = Path(root) / "incremental"
        writer = CheckpointWriter(incremental_dir, keep=2)
        writer.checkpoint(interface.streaming)
        for round_id in range(scale["rounds"]):
            X1 = generator.normal(size=(1, scale["n_features"]))
            y1 = generator.integers(0, scale["n_classes"], 1)
            update = interface.extend_calibration(X1, y1)
            touched_counts.append(len(update.touched))

            started = time.perf_counter()
            info = writer.checkpoint(interface.streaming)
            incremental_ms.append((time.perf_counter() - started) * 1e3)
            written_counts.append(info.blocks_written)

            dump_dir = Path(root) / f"dump-{round_id}"
            started = time.perf_counter()
            dump_info = CheckpointWriter(dump_dir).checkpoint(
                interface.streaming
            )
            dump_ms.append((time.perf_counter() - started) * 1e3)
            shutil.rmtree(dump_dir)
        checkpoint_bytes = dump_info.bytes_written
    best_incremental = float(min(incremental_ms))
    best_dump = float(min(dump_ms))
    return {
        "n_calibration": scale["n_calibration"],
        "n_shards": scale["n_shards"],
        "rounds": scale["rounds"],
        "shards_touched_per_round": touched_counts,
        "blocks_written_per_round": written_counts,
        "incremental_checkpoint_ms": round(best_incremental, 4),
        "full_dump_ms": round(best_dump, 4),
        "incremental_speedup": round(best_dump / best_incremental, 2),
        "full_store_bytes": int(checkpoint_bytes),
    }


def measure_warm_restart(scale, seed=0) -> dict:
    """Restore-to-first-decision vs recalibrate-to-first-decision."""
    live = _make_interface(scale, seed=seed)
    X_cal, y_cal = _calibration_data(scale, seed=seed)
    X_first = np.random.default_rng(seed + 9).normal(
        size=(8, scale["n_features"])
    )
    with tempfile.TemporaryDirectory() as root:
        CheckpointWriter(root).checkpoint(live.streaming)

        warm = _make_interface(scale, seed=seed, calibrate=False)
        started = time.perf_counter()
        restore_checkpoint(warm.streaming, root)
        _, warm_decisions = warm.predict(X_first)
        warm_seconds = time.perf_counter() - started

    cold = _make_interface(scale, seed=seed, calibrate=False)
    started = time.perf_counter()
    cold.calibrate(X_cal, y_cal)
    _, cold_decisions = cold.predict(X_first)
    cold_seconds = time.perf_counter() - started

    _, live_decisions = live.predict(X_first)
    identical = bool(
        np.array_equal(live_decisions.accepted, warm_decisions.accepted)
        and np.array_equal(
            live_decisions.credibility, warm_decisions.credibility
        )
    )
    return {
        "n_calibration": scale["n_calibration"],
        "n_shards": scale["n_shards"],
        "warm_restart_to_first_decision_ms": round(warm_seconds * 1e3, 4),
        "cold_recalibration_to_first_decision_ms": round(
            cold_seconds * 1e3, 4
        ),
        "warm_restart_speedup": round(cold_seconds / warm_seconds, 2),
        "decisions_bit_identical": identical,
        "cold_decisions_match": bool(
            np.array_equal(cold_decisions.accepted, warm_decisions.accepted)
        ),
    }


def test_incremental_checkpoint_speedup():
    """The ISSUE 6 acceptance measurement: incremental >= 3x dump."""
    outcome = measure_incremental_checkpoint(FULL_SCALE)
    update_bench_json(
        "BENCH_durability.json", {"incremental_checkpoint": outcome}
    )
    assert outcome["incremental_speedup"] >= INCREMENTAL_SPEEDUP_FLOOR, (
        f"single-touched-shard checkpoint only "
        f"{outcome['incremental_speedup']:.1f}x cheaper than a full-store "
        f"dump (floor {INCREMENTAL_SPEEDUP_FLOOR}x)"
    )
    assert all(
        written <= touched
        for written, touched in zip(
            outcome["blocks_written_per_round"],
            outcome["shards_touched_per_round"],
        )
    ), (
        f"incremental checkpoints rewrote "
        f"{outcome['blocks_written_per_round']} blocks for "
        f"{outcome['shards_touched_per_round']} touched shards"
    )


def test_warm_restart_beats_cold_recalibration():
    outcome = measure_warm_restart(FULL_SCALE)
    update_bench_json("BENCH_durability.json", {"warm_restart": outcome})
    assert outcome["decisions_bit_identical"], (
        "restored detector decisions diverged from the live detector"
    )
    assert outcome["warm_restart_speedup"] >= 1.0, (
        f"warm restart took "
        f"{outcome['warm_restart_to_first_decision_ms']:.1f} ms vs "
        f"{outcome['cold_recalibration_to_first_decision_ms']:.1f} ms cold"
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
            "incremental_checkpoint": measure_incremental_checkpoint(
                SMOKE_SCALE
            ),
            "warm_restart": measure_warm_restart(SMOKE_SCALE),
        }
        print(json.dumps(summary, indent=2, sort_keys=True))
        return
    test_incremental_checkpoint_speedup()
    test_warm_restart_beats_cold_recalibration()
    print("BENCH_durability.json updated")


if __name__ == "__main__":
    main()
