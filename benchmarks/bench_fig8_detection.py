"""Figure 8: Prom's drift-detection quality across case studies."""

# conftest first: it pins BLAS threads before NumPy loads
from conftest import write_artifact

import numpy as np

from repro.experiments import figure8_detection


def test_fig8_detection(benchmark, suite):
    results = benchmark.pedantic(
        suite.classification_results, rounds=1, iterations=1
    )
    rendered = figure8_detection(results)
    print("\n" + rendered)
    write_artifact("fig8_detection.txt", rendered)

    # Shape check: averaged recall is substantial — Prom catches most
    # mispredictions (the paper reports 0.96 on the full-scale corpora;
    # the reduced synthetic corpora here leave some pairs with only a
    # handful of true mispredictions, which caps the achievable mean).
    recalls = [r.detection.recall for r in results if r.mispredicted.any()]
    assert np.mean(recalls) > 0.45

    # The vulnerability study (heaviest drift) approaches total recall.
    vuln = [r for r in results if r.task == "vulnerability_detection"]
    assert np.mean([r.detection.recall for r in vuln]) > 0.7


def test_fig8_regression_detection(benchmark, suite):
    summary = benchmark.pedantic(suite.regression_summary, rounds=1, iterations=1)
    lines = ["Figure 8(e): C5 drift detection per BERT variant"]
    for network, result in summary["networks"].items():
        d = result.detection
        lines.append(
            f"  {network}: acc {d.accuracy:.3f} pre {d.precision:.3f} "
            f"rec {d.recall:.3f} f1 {d.f1:.3f}"
        )
    rendered = "\n".join(lines)
    print("\n" + rendered)
    write_artifact("fig8e_regression_detection.txt", rendered)

    # The reduced-scale cost model is better-behaved than the paper's
    # (fewer catastrophic mispredictions), so recall is moderate while
    # precision stays high — the flagged schedules are real misses.
    detections = [r.detection for r in summary["networks"].values()]
    assert np.mean([d.recall for d in detections]) > 0.1
    assert np.mean([d.precision for d in detections]) > 0.6
