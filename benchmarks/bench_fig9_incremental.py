"""Figure 9: incremental learning restores deployment performance."""

# conftest first: it pins BLAS threads before NumPy loads
from conftest import write_artifact

import numpy as np

from repro.experiments import figure9_incremental


def test_fig9_incremental_learning(benchmark, suite):
    suite.classification_results()  # ensure base runs exist (not timed twice)
    outcomes = benchmark.pedantic(suite.incremental_results, rounds=1, iterations=1)
    rendered = figure9_incremental(outcomes)
    print("\n" + rendered)
    write_artifact("fig9_incremental.txt", rendered)

    native = np.mean([o.native_ratios.mean() for o in outcomes])
    improved = np.mean([o.improved_ratios.mean() for o in outcomes])
    # Shape check: relabelling <=5% of flagged samples lifts deployment
    # performance on average and never relabels more than the budget.
    assert improved > native
    for outcome in outcomes:
        if outcome.n_flagged > 0:
            budget = max(1, int(round(0.05 * outcome.n_flagged)))
            assert outcome.n_relabelled <= budget

    # The heavily drifted vulnerability task shows a large recovery.
    vuln = [o for o in outcomes if o.task == "vulnerability_detection"]
    gains = [o.improved_accuracy - o.native_accuracy for o in vuln]
    assert max(gains) > 0.1
