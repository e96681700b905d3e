"""Figure 11: single nonconformity functions vs the Prom committee."""

# conftest first: it pins BLAS threads before NumPy loads
from conftest import write_artifact

from repro.experiments import figure11_nonconformity, run_nonconformity_ablation

#: two contrasting case studies keep this ablation tractable
ABLATION_PAIRS = {
    "thread_coarsening": "Magni",
    "vulnerability_detection": "Vulde",
}


def test_fig11_nonconformity_functions(benchmark, suite):
    by_key = {(r.task, r.model): r for r in suite.classification_results()}

    def ablate_all():
        outcomes = {}
        for task_name, model_name in ABLATION_PAIRS.items():
            task = suite.task(task_name)
            base = by_key[(task_name, model_name)]
            outcomes[task_name] = run_nonconformity_ablation(
                task, base_result=base, seed=0
            )
        return outcomes

    outcomes = benchmark.pedantic(ablate_all, rounds=1, iterations=1)
    rendered = figure11_nonconformity(outcomes)
    print("\n" + rendered)
    write_artifact("fig11_nonconformity.txt", rendered)

    # Shape check: the committee is never far below the best single
    # function, and beats the weakest one — the paper's generalization
    # argument for the ensemble.
    for task_name, task_outcomes in outcomes.items():
        singles = [
            task_outcomes[name].f1 for name in ("LAC", "TopK", "APS", "RAPS")
        ]
        ensemble = task_outcomes["PROM"].f1
        assert ensemble >= min(singles)
        assert ensemble >= max(singles) - 0.3
