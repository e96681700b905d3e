"""Deployment-time scoring overhead (paper Sec. 7.6).

The paper reports < 10 ms per sample for score computation and < 2 ms
for drift detection on a laptop; this bench measures our per-sample
``evaluate_one`` latency with a realistic calibration-set size, plus
the batch engine's steady-state throughput (samples/second) on a
deployment-sized window.  Both numbers land in
``out/BENCH_batch_eval.json`` so later PRs can track the trajectory.
"""

# conftest first: it pins BLAS threads before NumPy loads
from conftest import update_bench_json

import numpy as np

from repro.core import PromClassifier

#: minimum acceptable batch throughput (samples/second) for the
#: vectorized engine at 512 test samples vs 1000 calibration samples —
#: roughly 4x the old per-sample loop, far below the engine's actual
#: rate so only order-of-magnitude regressions trip it.
BATCH_THROUGHPUT_FLOOR = 2000.0


def _setup(n_calibration=500, n_classes=8, n_features=32, seed=0):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n_calibration, n_features))
    raw = rng.random((n_calibration, n_classes)) + 0.05
    probabilities = raw / raw.sum(axis=1, keepdims=True)
    labels = rng.integers(0, n_classes, n_calibration)
    prom = PromClassifier()
    prom.calibrate(features, probabilities, labels)
    test_feature = rng.normal(size=n_features)
    test_probability = probabilities[0]
    return prom, test_feature, test_probability


def test_per_sample_scoring_latency(benchmark):
    prom, feature, probability = _setup()
    decision = benchmark(prom.evaluate_one, feature, probability)
    assert decision is not None
    # The paper's bound is 12 ms on a low-end laptop; allow generous
    # slack for CI noise while still catching order-of-magnitude
    # regressions.
    assert benchmark.stats["mean"] < 0.1
    update_bench_json(
        "BENCH_batch_eval.json",
        {
            "per_sample_latency": {
                "n_calibration": 500,
                "mean_seconds": round(benchmark.stats["mean"], 6),
            }
        },
    )


def test_batch_scoring_throughput(benchmark):
    n_test, n_calibration = 512, 1000
    prom, _, _ = _setup(n_calibration=n_calibration)
    rng = np.random.default_rng(1)
    test_features = rng.normal(size=(n_test, 32))
    raw = rng.random((n_test, 8)) + 0.05
    test_probabilities = raw / raw.sum(axis=1, keepdims=True)

    decisions = benchmark(prom.evaluate, test_features, test_probabilities)
    assert len(decisions) == n_test
    throughput = n_test / benchmark.stats["mean"]
    update_bench_json(
        "BENCH_batch_eval.json",
        {
            "batch_throughput": {
                "n_test": n_test,
                "n_calibration": n_calibration,
                "samples_per_second": round(throughput, 1),
            }
        },
    )
    assert throughput >= BATCH_THROUGHPUT_FLOOR, (
        f"batch throughput {throughput:.0f} samples/s below floor "
        f"{BATCH_THROUGHPUT_FLOOR:.0f}"
    )
