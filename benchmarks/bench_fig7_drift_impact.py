"""Figure 7: design-time vs deployment performance for all 12
classification (task, model) pairs."""

# conftest first: it pins BLAS threads before NumPy loads
from conftest import write_artifact

import numpy as np

from repro.experiments import figure7_drift_impact


def test_fig7_drift_impact(benchmark, suite):
    results = benchmark.pedantic(
        suite.classification_results, rounds=1, iterations=1
    )
    rendered = figure7_drift_impact(results)
    print("\n" + rendered)
    write_artifact("fig7_drift_impact.txt", rendered)

    assert len(results) == 12

    # Shape check: averaged over all pairs, deployment performance is
    # clearly below design-time performance (the paper's headline drop).
    design = np.mean([r.design_ratios.mean() for r in results])
    deploy = np.mean([r.deploy_ratios.mean() for r in results])
    assert deploy < design - 0.03

    # The vulnerability task (new code patterns) shows the largest hit.
    vuln = [r for r in results if r.task == "vulnerability_detection"]
    assert all(r.deploy_accuracy < r.design_accuracy - 0.3 for r in vuln)
