"""Batch-evaluation engine: throughput vs the per-sample loop.

The deployment story (paper Sec. 7.6) needs cheap per-sample scoring;
the batch engine goes further and amortizes scoring across a whole
test window, the way a production drift monitor consumes traffic.
This bench pits ``evaluate()`` (vectorized batch path) against
``evaluate_serial()`` (the original per-sample loop, kept as the
reference implementation in ``tests/core/serial_reference.py``) at a
realistic deployment size and asserts:

* the batch path is at least 10x faster, and
* both paths produce identical accept/reject decisions, with
  credibility/confidence equal to floating-point tolerance.

The ``kernel_stages`` section times the batch engine's four stages —
neighbour selection, label binning, p-values (all experts) and the
committee vote — at the deployment size (12k calibration rows x 48
features x 32 classes, batch 256, chunked exactly like ``evaluate()``),
once through the live kernels and once through the frozen pre-rewrite
copies in ``tests/core/legacy_kernels.py``, alternating, and requires
the two to agree bitwise.

Results are appended to ``out/BENCH_batch_eval.json`` so later PRs can
track the perf trajectory.  ``--smoke`` runs the bitwise-oracle grid
plus a small-scale stage timing, with no perf assertion and nothing
written.
"""

import argparse
import json
import os
import sys
import time

# conftest first: it pins BLAS threads before NumPy loads
from conftest import update_bench_json

import numpy as np

from repro.core import AdaptiveWeighting, PromClassifier, PromRegressor
from repro.core import assess_batch, bin_subset_by_label, pvalues_from_binning
from repro.core.prom import _evaluation_chunk, _evaluation_view

# the frozen kernel oracle lives with the tests, one level up
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from tests.core.legacy_kernels import (  # noqa: E402
    LegacyLayout,
    check_bit_identity,
    legacy_bin_subset_by_label,
    legacy_pvalues_from_binning,
    legacy_select_batch,
    oracle_grid,
)
from tests.core.serial_reference import evaluate_serial  # noqa: E402

#: acceptance floor for the batch-vs-serial speedup (classifier,
#: n_test=500 vs n_calibration=2000)
SPEEDUP_FLOOR = 10.0

#: acceptance floor: live vs frozen select + bin + p-value stages at
#: the deployment size (same process, alternating, median of rounds)
KERNEL_SPEEDUP_FLOOR = 1.2

KERNEL_SCALE = dict(
    n_calibration=12_000, n_features=48, n_classes=32, batch=256, rounds=7
)
KERNEL_SMOKE_SCALE = dict(
    n_calibration=2_400, n_features=16, n_classes=8, batch=64, rounds=2
)

STAGES = ("select", "bin", "pvalues", "vote")



def _legacy_pvalues(calibration_scores, binning, test_scores, **kwargs):
    """The frozen p-value kernel, fed one expert's scores as its layout."""
    layout = LegacyLayout(calibration_scores, binning.n_labels)
    return legacy_pvalues_from_binning(layout, binning, test_scores, **kwargs)


#: (select, bin, p-values) kernel triples under comparison
LIVE_KERNELS = (AdaptiveWeighting.select_batch, bin_subset_by_label, pvalues_from_binning)
LEGACY_KERNELS = (legacy_select_batch, legacy_bin_subset_by_label, _legacy_pvalues)


def _classification_setup(n_calibration, n_classes, n_features, seed=0):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n_calibration, n_features))
    raw = rng.random((n_calibration, n_classes)) + 0.05
    probabilities = raw / raw.sum(axis=1, keepdims=True)
    labels = rng.integers(0, n_classes, n_calibration)
    prom = PromClassifier()
    prom.calibrate(features, probabilities, labels)
    return prom, rng


def _time_best(function, repeats):
    best = np.inf
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = function()
        best = min(best, time.perf_counter() - started)
    return best, result


def _assert_identical(batch, serial):
    assert [d.accepted for d in batch] == [d.accepted for d in serial]
    np.testing.assert_allclose(
        batch.credibility, [d.credibility for d in serial], rtol=1e-9, atol=1e-12
    )
    np.testing.assert_allclose(
        batch.confidence, [d.confidence for d in serial], rtol=1e-9, atol=1e-12
    )


def test_classifier_batch_speedup():
    """The ISSUE 1 acceptance measurement: >= 10x at 500 x 2000."""
    n_test, n_calibration = 500, 2000
    prom, rng = _classification_setup(n_calibration, n_classes=8, n_features=32)
    test_features = rng.normal(size=(n_test, 32))
    raw = rng.random((n_test, 8)) + 0.05
    test_probabilities = raw / raw.sum(axis=1, keepdims=True)

    prom.evaluate(test_features[:32], test_probabilities[:32])  # warmup
    serial_seconds, serial = _time_best(
        lambda: evaluate_serial(prom, test_features, test_probabilities), repeats=2
    )
    batch_seconds, batch = _time_best(
        lambda: prom.evaluate(test_features, test_probabilities), repeats=5
    )
    _assert_identical(batch, serial)

    speedup = serial_seconds / batch_seconds
    update_bench_json(
        "BENCH_batch_eval.json",
        {
            "classifier": {
                "n_test": n_test,
                "n_calibration": n_calibration,
                "serial_seconds": round(serial_seconds, 6),
                "batch_seconds": round(batch_seconds, 6),
                "serial_samples_per_second": round(n_test / serial_seconds, 1),
                "batch_samples_per_second": round(n_test / batch_seconds, 1),
                "speedup": round(speedup, 2),
            }
        },
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"batch evaluate() only {speedup:.1f}x faster than the per-sample "
        f"loop (floor {SPEEDUP_FLOOR}x)"
    )


def test_regressor_batch_speedup():
    """Regressor batch path: identical decisions, speedup recorded."""
    n_test, n_calibration = 300, 1000
    rng = np.random.default_rng(0)
    features = rng.normal(size=(n_calibration, 16))
    targets = 2.0 * features[:, 0] + np.sin(features[:, 1])
    predictions = targets + rng.normal(scale=0.1, size=n_calibration)
    prom = PromRegressor(n_clusters=5, seed=0)
    prom.calibrate(features, predictions, targets)

    test_features = rng.normal(size=(n_test, 16))
    test_predictions = rng.normal(size=n_test)
    prom.evaluate(test_features[:16], test_predictions[:16])  # warmup
    serial_seconds, serial = _time_best(
        lambda: evaluate_serial(prom, test_features, test_predictions), repeats=2
    )
    batch_seconds, batch = _time_best(
        lambda: prom.evaluate(test_features, test_predictions), repeats=5
    )
    _assert_identical(batch, serial)

    speedup = serial_seconds / batch_seconds
    update_bench_json(
        "BENCH_batch_eval.json",
        {
            "regressor": {
                "n_test": n_test,
                "n_calibration": n_calibration,
                "serial_seconds": round(serial_seconds, 6),
                "batch_seconds": round(batch_seconds, 6),
                "batch_samples_per_second": round(n_test / batch_seconds, 1),
                "speedup": round(speedup, 2),
            }
        },
    )
    assert speedup >= 5.0


def test_weight_modes_identical_under_batching():
    """Both p-value weight modes stay serial-identical at bench sizes."""
    prom_count, rng = _classification_setup(600, n_classes=6, n_features=16)
    features = rng.normal(size=(600, 16))
    raw = rng.random((600, 6)) + 0.05
    probabilities = raw / raw.sum(axis=1, keepdims=True)
    labels = rng.integers(0, 6, 600)
    test_features = rng.normal(size=(120, 16))
    raw_t = rng.random((120, 6)) + 0.05
    test_probabilities = raw_t / raw_t.sum(axis=1, keepdims=True)
    for mode in ("count", "multiply"):
        prom = PromClassifier(weight_mode=mode)
        prom.calibrate(features, probabilities, labels)
        _assert_identical(
            prom.evaluate(test_features, test_probabilities),
            evaluate_serial(prom, test_features, test_probabilities),
        )


def _kernel_state(scale, seed=0):
    """A calibrated committee plus a deployment-sized test batch."""
    rng = np.random.default_rng(seed)
    n, d, n_classes = scale["n_calibration"], scale["n_features"], scale["n_classes"]
    centres = rng.normal(size=(n_classes, d)) * 2.0
    labels = rng.integers(0, n_classes, n)
    features = centres[labels] + rng.normal(size=(n, d))

    def softmax(true_labels):
        logits = 2.0 * rng.normal(size=(len(true_labels), n_classes))
        logits[np.arange(len(true_labels)), true_labels] += 3.0
        exp = np.exp(logits - logits.max(axis=1, keepdims=True))
        return exp / exp.sum(axis=1, keepdims=True)

    prom = PromClassifier()
    prom.calibrate(features, softmax(labels), labels)
    test_labels = rng.integers(0, n_classes, scale["batch"])
    test_features = centres[test_labels] + rng.normal(size=(scale["batch"], d))
    return prom, test_features, softmax(test_labels)


def _stage_pass(prom, features, probabilities, kernels):
    """One evaluate-shaped pass: per-stage seconds and every p-value."""
    select, binning_of, pvalues_of = kernels
    state = _evaluation_view(prom)
    predicted = probabilities.argmax(axis=1)
    chunk = _evaluation_chunk(len(state.features), None, prom._n_classes)
    seconds = dict.fromkeys(STAGES, 0.0)
    all_pvalues = []
    for start in range(0, len(features), chunk):
        rows = slice(start, start + chunk)
        test_scores = [f.score_all_labels(probabilities[rows]) for f in prom.functions]
        t0 = time.perf_counter()
        subset = select(prom.weighting, state.features, features[rows])
        t1 = time.perf_counter()
        binning = binning_of(subset, state.labels, prom._n_classes)
        t2 = time.perf_counter()
        pvalues = [
            pvalues_of(
                column, binning, scores, weight_mode=prom.weight_mode, tail=f.tail
            )
            for f, column, scores in zip(prom.functions, state.scores, test_scores)
        ]
        t3 = time.perf_counter()
        prom.committee.decide_batch(
            [
                assess_batch(
                    p,
                    predicted[rows],
                    epsilon=prom.epsilon,
                    gaussian_scale=prom.gaussian_scale,
                    credibility_threshold=prom.credibility_threshold,
                    confidence_threshold=prom.confidence_threshold,
                    function_name=f.name,
                )
                for f, p in zip(prom.functions, pvalues)
            ]
        )
        t4 = time.perf_counter()
        for stage, (a, b) in zip(STAGES, ((t0, t1), (t1, t2), (t2, t3), (t3, t4))):
            seconds[stage] += b - a
        all_pvalues.extend(pvalues)
    return seconds, all_pvalues


def measure_kernel_stages(scale, seed=0) -> dict:
    """Per-stage ms, live vs frozen kernels, alternating rounds (medians).

    The two kernel sets run on the same state in the same process, one
    after the other within each round, so a phase of the box's speed
    hits both alike.  Every round also checks that the two produce
    bitwise-equal p-values for every expert.
    """
    prom, features, probabilities = _kernel_state(scale, seed=seed)
    _stage_pass(prom, features, probabilities, LIVE_KERNELS)  # warm caches
    timings = {"live": [], "legacy": []}
    for _ in range(scale["rounds"]):
        live, live_p = _stage_pass(prom, features, probabilities, LIVE_KERNELS)
        legacy, legacy_p = _stage_pass(prom, features, probabilities, LEGACY_KERNELS)
        assert all(np.array_equal(a, b) for a, b in zip(live_p, legacy_p))
        timings["live"].append(live)
        timings["legacy"].append(legacy)

    def medians(runs):
        ms = {s: round(1e3 * float(np.median([r[s] for r in runs])), 3) for s in STAGES}
        ms["kernels"] = round(ms["select"] + ms["bin"] + ms["pvalues"], 3)
        return ms

    live_ms, legacy_ms = medians(timings["live"]), medians(timings["legacy"])
    return {
        "n_calibration": scale["n_calibration"],
        "n_features": scale["n_features"],
        "n_classes": scale["n_classes"],
        "batch": scale["batch"],
        "chunk_rows": _evaluation_chunk(scale["n_calibration"], None, scale["n_classes"]),
        "rounds": scale["rounds"],
        "live_ms": live_ms,
        "legacy_ms": legacy_ms,
        "speedup": {
            key: round(legacy_ms[key] / live_ms[key], 2) for key in live_ms
        },
        "bit_identical": True,
    }


def run_oracle_grid() -> int:
    """The bitwise-oracle grid of ``tests/core/test_kernel_oracle.py``."""
    cases = oracle_grid()
    for case in cases:
        check_bit_identity(*case)
    return len(cases)


def test_kernel_stages_at_deployment_size():
    """Live kernels bit-identical to the frozen ones, and faster."""
    outcome = measure_kernel_stages(KERNEL_SCALE)
    update_bench_json("BENCH_batch_eval.json", {"kernel_stages": outcome})
    assert outcome["speedup"]["kernels"] >= KERNEL_SPEEDUP_FLOOR, (
        f"select + bin + p-value stages only {outcome['speedup']['kernels']}x "
        f"faster than the frozen kernels (floor {KERNEL_SPEEDUP_FLOOR}x)"
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="oracle grid + tiny stage timing, no perf assertions, nothing written",
    )
    args = parser.parse_args()
    if args.smoke:
        summary = {
            "smoke": True,
            "oracle_cases": run_oracle_grid(),
            "kernel_stages": measure_kernel_stages(KERNEL_SMOKE_SCALE),
        }
        print(json.dumps(summary, indent=2, sort_keys=True))
        return
    test_classifier_batch_speedup()
    test_regressor_batch_speedup()
    test_weight_modes_identical_under_batching()
    test_kernel_stages_at_deployment_size()
    print("BENCH_batch_eval.json updated")


if __name__ == "__main__":
    main()
