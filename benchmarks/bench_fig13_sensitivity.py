"""Figure 13: sensitivity analyses of Prom's hyperparameters.

(a) significance level sweep on loop vectorization;
(b) regression cluster-size sweep on C5;
(c) confidence vs prediction-set size for Gaussian scales c=1..4;
(d) coverage deviation across the case studies.
"""

# conftest first: it pins BLAS threads before NumPy loads
from conftest import write_artifact

import numpy as np

from repro.core import (
    PromClassifier,
    PromRegressor,
    confidence_from_set_size,
    coverage_assessment,
    detection_metrics,
)
from repro.experiments import (
    figure13_sensitivity,
    reevaluate_with_prom,
)
from repro.models import tlp
from repro.tasks import DnnCodeGenerationTask


def test_fig13a_significance_sweep(benchmark, suite):
    """Detection quality as the significance level sweeps (C2/Magni).

    The fitted model is reused from the session cache; only the
    detector's epsilon varies.
    """
    task = suite.task("loop_vectorization")
    base = {
        (r.task, r.model): r for r in suite.classification_results()
    }[("loop_vectorization", "Magni")]

    def sweep():
        series = {"precision": [], "recall": [], "f1": []}
        for epsilon in (0.02, 0.05, 0.1, 0.2, 0.4):
            d = reevaluate_with_prom(task, base, {"epsilon": epsilon})
            series["precision"].append((epsilon, d.precision))
            series["recall"].append((epsilon, d.recall))
            series["f1"].append((epsilon, d.f1))
        return series

    series = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rendered = figure13_sensitivity(
        series, title="Figure 13(a): significance-level sensitivity (C2)"
    )
    print("\n" + rendered)
    write_artifact("fig13a_significance.txt", rendered)

    recalls = [v for _, v in series["recall"]]
    # Shape: a looser threshold (larger epsilon) never lowers recall.
    assert recalls[-1] >= recalls[0]


def test_fig13b_cluster_size_sweep(benchmark):
    """Regression detection quality varies with the cluster count."""
    task = DnnCodeGenerationTask(schedules_per_network=150, seed=0)
    base = task.dataset("bert-base")
    drifted = task.dataset("bert-tiny")
    train_idx, _ = task.design_data(seed=0)
    scale = float(base["throughputs"][train_idx].mean())
    model = tlp(seed=0)
    model.fit(base["tokens"][train_idx], base["throughputs"][train_idx] / scale)
    rng = np.random.default_rng(0)
    cal_idx = rng.choice(train_idx, size=100, replace=False)
    cal_pred = model.predict(base["tokens"][cal_idx]) * scale
    cal_emb = model.hidden_embedding(base["tokens"][cal_idx])
    test_emb = model.hidden_embedding(drifted["tokens"])
    test_pred = model.predict(drifted["tokens"]) * scale
    relative_error = np.abs(test_pred - drifted["throughputs"]) / np.maximum(
        drifted["throughputs"], 1e-12
    )
    mispredicted = relative_error >= 0.2

    def sweep():
        points = {"precision": [], "recall": [], "f1": []}
        for k in (2, 4, 8, 16):
            prom = PromRegressor(n_clusters=k, seed=0)
            prom.calibrate(cal_emb, cal_pred, base["throughputs"][cal_idx])
            rejected = [d.drifting for d in prom.evaluate(test_emb, test_pred)]
            d = detection_metrics(mispredicted, rejected)
            points["precision"].append((k, d.precision))
            points["recall"].append((k, d.recall))
            points["f1"].append((k, d.f1))
        return points

    series = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rendered = figure13_sensitivity(
        series, title="Figure 13(b): cluster-size sensitivity (C5)"
    )
    print("\n" + rendered)
    write_artifact("fig13b_cluster_size.txt", rendered)
    assert all(0.0 <= v <= 1.0 for pts in series.values() for _, v in pts)


def test_fig13c_gaussian_scale(benchmark):
    """Confidence vs set size, Gaussian c = 1..4 (analytic panel)."""

    def curves():
        return {
            f"c = {c}": [
                (size, confidence_from_set_size(size, float(c)))
                for size in range(0, 6)
            ]
            for c in (1, 2, 3, 4)
        }

    series = benchmark.pedantic(curves, rounds=1, iterations=1)
    rendered = figure13_sensitivity(
        series, title="Figure 13(c): confidence vs prediction-set size"
    )
    print("\n" + rendered)
    write_artifact("fig13c_gaussian.txt", rendered)

    # Shape: every curve peaks at a singleton set; larger c flattens.
    for name, points in series.items():
        values = dict(points)
        assert values[1] == max(values.values())
    assert dict(series["c = 4"])[5] > dict(series["c = 1"])[5]


def test_fig13d_coverage_deviation(benchmark, suite):
    """Coverage deviation stays small across the case studies."""
    pairs = {
        "thread_coarsening": "Magni",
        "loop_vectorization": "Magni",
        "heterogeneous_mapping": "IR2Vec",
        "vulnerability_detection": "Vulde",
    }
    by_key = {(r.task, r.model): r for r in suite.classification_results()}

    def measure():
        points = []
        for task_name, model_name in pairs.items():
            task = suite.task(task_name)
            result = by_key[(task_name, model_name)]
            model = result.fitted_model
            cal_samples = task.subset(result.calibration_indices)
            report = coverage_assessment(
                PromClassifier,
                model.features(cal_samples),
                model.predict_proba(cal_samples),
                result.calibration_columns,
                epsilon=0.1,
                seed=0,
            )
            points.append((task_name, report.deviation))
        return points

    points = benchmark.pedantic(measure, rounds=1, iterations=1)
    rendered = figure13_sensitivity(
        {"coverage deviation": points},
        title="Figure 13(d): coverage deviation per case study",
    )
    print("\n" + rendered)
    write_artifact("fig13d_coverage.txt", rendered)

    deviations = [v for _, v in points]
    # Shape: small deviations (the paper's geomean is 2.5%).
    assert np.mean(deviations) < 0.25
