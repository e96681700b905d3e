"""Figure 10: Prom vs RISE / TESSERACT / naive CP (MAPIE-PUNCC)."""

# conftest first: it pins BLAS threads before NumPy loads
from conftest import write_artifact

import numpy as np

from repro.experiments import figure10_comparison, run_baseline_comparison

#: one representative model per classification case study (keeps the
#: bench tractable; the suite's other models behave comparably)
REPRESENTATIVE = {
    "thread_coarsening": "Magni",
    "loop_vectorization": "Magni",
    "heterogeneous_mapping": "IR2Vec",
    "vulnerability_detection": "Vulde",
}


def test_fig10_baseline_comparison(benchmark, suite):
    def compare_all():
        per_task = {}
        by_key = {
            (r.task, r.model): r for r in suite.classification_results()
        }
        for task_name, model_name in REPRESENTATIVE.items():
            task = suite.task(task_name)
            base = by_key[(task_name, model_name)]
            per_task[task_name] = run_baseline_comparison(task, base_result=base)
        return per_task

    per_task = benchmark.pedantic(compare_all, rounds=1, iterations=1)
    rendered = figure10_comparison(per_task)
    print("\n" + rendered)
    write_artifact("fig10_comparison.txt", rendered)

    # Shape check: averaged across case studies Prom is the strongest
    # or tied-strongest detector family.
    mean_of = {
        detector: np.mean([scores[detector] for scores in per_task.values()])
        for detector in ("PROM", "RISE", "TESSERACT", "MAPIE-PUNCC")
    }
    assert mean_of["PROM"] >= mean_of["RISE"] - 1e-9
    assert mean_of["PROM"] >= mean_of["TESSERACT"] - 0.05
