"""Table 2: cross-case-study summary of the main results."""

# conftest first: it pins BLAS threads before NumPy loads
from conftest import write_artifact

from repro.experiments import table2_summary


def test_table2_summary(benchmark, suite):
    def build():
        return table2_summary(
            suite.classification_results(), suite.regression_summary()
        )

    rendered = benchmark.pedantic(build, rounds=1, iterations=1)
    print("\n" + rendered)
    write_artifact("table2_summary.txt", rendered)

    # Shape checks on the one summary row.
    results = suite.classification_results()
    import numpy as np

    design = np.mean([r.design_ratios.mean() for r in results])
    deploy = np.mean([r.deploy_ratios.mean() for r in results])
    assert design > deploy  # drift hurts
    detections = [r.detection for r in results if r.mispredicted.any()]
    assert np.mean([d.recall for d in detections]) > 0.45
