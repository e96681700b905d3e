"""Table 3: the C5 cost model on BERT variants, native vs Prom-assisted."""

# conftest first: it pins BLAS threads before NumPy loads
from conftest import write_artifact

from repro.experiments import table3_dnn_codegen


def test_table3_dnn_codegen(benchmark, suite):
    summary = benchmark.pedantic(suite.regression_summary, rounds=1, iterations=1)
    rendered = table3_dnn_codegen(summary)
    print("\n" + rendered)
    write_artifact("table3_dnn_codegen.txt", rendered)

    networks = summary["networks"]
    # Shape checks mirroring the paper's Table 3:
    # (1) the in-distribution (BERT-base) search quality is high;
    assert summary["base_ratio"] > 0.7
    # (2) deployment on unseen variants degrades the native cost model;
    natives = [r.native_ratio for r in networks.values()]
    assert min(natives) < summary["base_ratio"]
    # (3) Prom-assisted online retraining recovers performance.
    for result in networks.values():
        assert result.prom_ratio >= result.native_ratio - 0.02
    assert any(r.prom_ratio > r.native_ratio + 0.02 for r in networks.values())
