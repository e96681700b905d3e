"""Figure 12: initial training vs incremental-learning wall-clock."""

# conftest first: it pins BLAS threads before NumPy loads
from conftest import write_artifact

from repro.experiments import figure12_overhead


def test_fig12_training_overhead(benchmark, suite):
    suite.classification_results()

    def collect():
        rows = {}
        for result in suite.classification_results():
            initial, incremental = rows.get(result.task, (0.0, 0.0))
            rows[result.task] = (initial + result.train_seconds, incremental)
        for outcome in suite.incremental_results():
            initial, incremental = rows[outcome.task]
            rows[outcome.task] = (initial, incremental + outcome.update_seconds)
        return [(task, initial, inc) for task, (initial, inc) in rows.items()]

    rows = benchmark.pedantic(collect, rounds=1, iterations=1)
    rendered = figure12_overhead(rows)
    print("\n" + rendered)
    write_artifact("fig12_overhead.txt", rendered)

    # Shape check: incremental learning costs a small fraction of
    # initial training for every case study (the paper: minutes vs hours).
    for task, initial, incremental in rows:
        assert incremental < initial
