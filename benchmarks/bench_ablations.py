"""Ablations of Prom's design choices (DESIGN.md Sec. 5).

Covers: adaptive calibration subset vs the full set (uniform weights),
the committee vote threshold, the weighted-count vs paper-literal
multiplicative p-value, and the regression k-NN approximation.  All
classification ablations reuse the session's fitted models and only
re-run the detector stage.
"""

# conftest first: it pins BLAS threads before NumPy loads
from conftest import write_artifact

import numpy as np

from repro.core import UniformWeighting, detection_metrics
from repro.experiments import figure13_sensitivity, reevaluate_with_prom

TASK = "vulnerability_detection"
MODEL = "Vulde"


def _base(suite):
    by_key = {(r.task, r.model): r for r in suite.classification_results()}
    return by_key[(TASK, MODEL)]


def test_ablation_adaptive_vs_uniform_weighting(benchmark, suite):
    task = suite.task(TASK)
    base = _base(suite)

    def run_both():
        uniform = reevaluate_with_prom(
            task, base, {"weighting": UniformWeighting()}
        )
        return base.detection, uniform

    adaptive, uniform = benchmark.pedantic(run_both, rounds=1, iterations=1)
    rendered = figure13_sensitivity(
        {
            "adaptive": [
                ("precision", adaptive.precision),
                ("recall", adaptive.recall),
                ("f1", adaptive.f1),
            ],
            "uniform": [
                ("precision", uniform.precision),
                ("recall", uniform.recall),
                ("f1", uniform.f1),
            ],
        },
        title="Ablation: adaptive calibration subset vs full/uniform",
    )
    print("\n" + rendered)
    write_artifact("ablation_weighting.txt", rendered)

    # Adaptive selection should not lose to the naive full-set variant.
    assert adaptive.f1 >= uniform.f1 - 0.1


def test_ablation_vote_threshold(benchmark, suite):
    task = suite.task(TASK)
    base = _base(suite)

    def sweep():
        points = {"f1": [], "recall": []}
        for threshold in (0.25, 0.5, 0.75):
            detection = reevaluate_with_prom(
                task, base, {"vote_threshold": threshold}
            )
            points["f1"].append((threshold, detection.f1))
            points["recall"].append((threshold, detection.recall))
        return points

    series = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rendered = figure13_sensitivity(
        series, title="Ablation: committee vote threshold"
    )
    print("\n" + rendered)
    write_artifact("ablation_vote_threshold.txt", rendered)

    # A stricter acceptance bar (higher threshold) never lowers recall.
    recalls = [v for _, v in series["recall"]]
    assert recalls[-1] >= recalls[0] - 1e-9


def test_ablation_weight_mode(benchmark, suite):
    """Weighted counting (default) vs the paper-literal multiplicative
    adjustment with the paper's tau=500."""
    task = suite.task(TASK)
    base = _base(suite)

    def run_both():
        multiply = reevaluate_with_prom(
            task, base, {"weight_mode": "multiply", "tau": 500.0}
        )
        return base.detection, multiply

    count_mode, multiply_mode = benchmark.pedantic(run_both, rounds=1, iterations=1)
    rendered = figure13_sensitivity(
        {
            "count (default)": [
                ("precision", count_mode.precision),
                ("recall", count_mode.recall),
                ("f1", count_mode.f1),
            ],
            "multiply (paper Eq.2)": [
                ("precision", multiply_mode.precision),
                ("recall", multiply_mode.recall),
                ("f1", multiply_mode.f1),
            ],
        },
        title="Ablation: weighted-count vs multiplicative p-value",
    )
    print("\n" + rendered)
    write_artifact("ablation_weight_mode.txt", rendered)
    assert count_mode.f1 >= 0.0 and multiply_mode.f1 >= 0.0


def test_ablation_knn_ground_truth_k(benchmark):
    """Regression k-NN approximation: k=3 (paper) vs extremes."""
    from repro.core import PromRegressor
    from repro.models import tlp
    from repro.tasks import DnnCodeGenerationTask

    task = DnnCodeGenerationTask(schedules_per_network=150, seed=0)
    base = task.dataset("bert-base")
    drifted = task.dataset("bert-tiny")
    train_idx, _ = task.design_data(seed=0)
    scale = float(base["throughputs"][train_idx].mean())
    model = tlp(seed=0)
    model.fit(base["tokens"][train_idx], base["throughputs"][train_idx] / scale)
    rng = np.random.default_rng(0)
    cal_idx = rng.choice(train_idx, size=100, replace=False)
    cal_emb = model.hidden_embedding(base["tokens"][cal_idx])
    cal_pred = model.predict(base["tokens"][cal_idx]) * scale
    test_emb = model.hidden_embedding(drifted["tokens"])
    test_pred = model.predict(drifted["tokens"]) * scale
    relative_error = np.abs(test_pred - drifted["throughputs"]) / np.maximum(
        drifted["throughputs"], 1e-12
    )
    mispredicted = relative_error >= 0.2

    def sweep():
        points = []
        for k in (1, 3, 7, 15):
            prom = PromRegressor(n_clusters=6, k_neighbors=k, seed=0)
            prom.calibrate(cal_emb, cal_pred, base["throughputs"][cal_idx])
            rejected = [d.drifting for d in prom.evaluate(test_emb, test_pred)]
            points.append((k, detection_metrics(mispredicted, rejected).f1))
        return points

    points = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rendered = figure13_sensitivity(
        {"f1": points}, title="Ablation: k-NN ground-truth approximation"
    )
    print("\n" + rendered)
    write_artifact("ablation_knn_k.txt", rendered)
    assert all(0.0 <= v <= 1.0 for _, v in points)
