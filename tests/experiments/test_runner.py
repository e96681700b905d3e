"""Tests for the experiment harness (runner + table/figure rendering)."""

import numpy as np
import pytest

import repro
from repro.core import (
    CalibrationError,
    LoopConfig,
    ModelInterface,
    ServingConfig,
    TriggerConfig,
    ValidationError,
    split_calibration,
)
from repro.experiments import (
    detection_table,
    distribution_summary,
    figure7_drift_impact,
    figure8_detection,
    figure9_incremental,
    figure10_comparison,
    figure12_overhead,
    figure13_sensitivity,
    format_table,
    run_baseline_comparison,
    run_classification,
    run_incremental,
    run_regression,
    stream_deployment,
    table2_summary,
    table3_dnn_codegen,
)
from repro.models import magni
from repro.tasks import DnnCodeGenerationTask, ThreadCoarseningTask

from ..conftest import make_blobs as _make_blobs


@pytest.fixture(scope="module")
def c1():
    return ThreadCoarseningTask(kernels_per_suite=25, seed=0)


@pytest.fixture(scope="module")
def c1_result(c1):
    return run_classification(c1, magni, model_name="Magni", seed=0)


class TestRunClassification:
    def test_result_fields(self, c1_result):
        assert c1_result.task == "thread_coarsening"
        assert c1_result.model == "Magni"
        assert 0.0 <= c1_result.design_accuracy <= 1.0
        assert len(c1_result.decisions) == len(c1_result.test_indices)
        assert c1_result.mispredicted.shape == c1_result.test_indices.shape

    def test_ratios_bounded(self, c1_result):
        assert np.all(c1_result.design_ratios <= 1.0)
        assert np.all(c1_result.deploy_ratios > 0.0)

    def test_deterministic_given_seed(self, c1):
        a = run_classification(c1, magni, seed=3)
        b = run_classification(c1, magni, seed=3)
        assert a.deploy_accuracy == b.deploy_accuracy
        assert a.detection.f1 == b.detection.f1

    def test_calibration_uses_model_columns(self, c1_result):
        model_classes = np.asarray(c1_result.fitted_model.classes_)
        assert c1_result.calibration_columns.max() < len(model_classes)


class TestRunIncremental:
    def test_reuses_base_result_without_mutation(self, c1, c1_result):
        before = c1_result.fitted_model.predict_proba(c1.subset([0]))
        outcome = run_incremental(
            c1, magni, base_result=c1_result, budget_fraction=0.2
        )
        after = c1_result.fitted_model.predict_proba(c1.subset([0]))
        assert np.allclose(before, after)  # deep copy protected the cache
        assert outcome.n_relabelled <= max(
            1, int(round(0.2 * max(outcome.n_flagged, 1)))
        )

    def test_improves_or_holds_performance(self, c1, c1_result):
        outcome = run_incremental(
            c1, magni, base_result=c1_result, budget_fraction=0.25, epochs=40
        )
        assert outcome.improved_ratios.mean() >= outcome.native_ratios.mean() - 0.05


class TestRunRegression:
    @pytest.fixture(scope="class")
    def summary(self):
        task = DnnCodeGenerationTask(schedules_per_network=120, seed=0)
        return run_regression(task, networks=("bert-tiny",), seed=0)

    def test_structure(self, summary):
        assert "base_ratio" in summary
        assert "bert-tiny" in summary["networks"]
        result = summary["networks"]["bert-tiny"]
        assert 0.0 <= result.native_ratio <= 1.0
        assert 0.0 <= result.prom_ratio <= 1.0

    def test_table3_renders(self, summary):
        text = table3_dnn_codegen(summary)
        assert "bert-tiny" in text
        assert "Native deployment" in text


class TestComparisonsAndAblation:
    def test_baseline_comparison_scores(self, c1, c1_result):
        scores = run_baseline_comparison(c1, base_result=c1_result)
        assert set(scores) == {"PROM", "RISE", "TESSERACT", "MAPIE-PUNCC"}
        assert all(0.0 <= v <= 1.0 for v in scores.values())


class TestRendering:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [["1", "22"], ["333", "4"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert len(set(len(line) for line in lines[1:])) <= 2

    def test_distribution_summary_keys(self):
        stats = distribution_summary([0.1, 0.5, 0.9])
        assert stats["min"] == pytest.approx(0.1)
        assert stats["median"] == pytest.approx(0.5)
        assert stats["max"] == pytest.approx(0.9)

    def test_distribution_summary_empty(self):
        with pytest.raises(ValueError):
            distribution_summary([])

    def test_figure_renderers_accept_results(self, c1_result):
        results = [c1_result]
        assert "Figure 7" in figure7_drift_impact(results)
        assert "Figure 8" in figure8_detection(results)
        assert "thread_coarsening" in detection_table(results)
        assert "Table 2" in table2_summary(results)

    def test_figure9_renderer(self, c1, c1_result):
        outcome = run_incremental(c1, magni, base_result=c1_result)
        assert "Figure 9" in figure9_incremental([outcome])

    def test_figure10_renderer(self):
        text = figure10_comparison(
            {"c1": {"PROM": 0.9, "RISE": 0.5, "TESSERACT": 0.6, "MAPIE-PUNCC": 0.4}}
        )
        assert "PROM" in text

    def test_figure12_renderer(self):
        text = figure12_overhead([("c1", 12.0, 0.5)])
        assert "12.00s" in text

    def test_figure13_renderer(self):
        text = figure13_sensitivity({"f1": [(0.1, 0.8), (0.2, 0.9)]}, title="S")
        assert "0.800" in text

    def test_table2_requires_results(self):
        with pytest.raises(ValueError):
            table2_summary([])


class TestSplitCalibration:
    """The consolidated splitter shared by the harness and ModelInterface."""

    def test_split_sizes_and_disjointness(self):
        train, cal = split_calibration(np.arange(100), 0.2, 1000, seed=0)
        assert len(cal) == 20
        assert len(train) == 80
        assert len(np.intersect1d(train, cal)) == 0

    def test_cap_applies(self):
        train, cal = split_calibration(np.arange(100), 0.5, 10, seed=0)
        assert len(cal) == 10

    def test_never_consumes_whole_pool(self):
        train, cal = split_calibration(np.arange(2), 0.9, 1000, seed=0)
        assert len(train) == 1
        assert len(cal) == 1

    def test_single_sample_raises_early(self):
        with pytest.raises(CalibrationError):
            split_calibration(np.arange(1), 0.2, 1000, seed=0)

    def test_invalid_ratio_raises(self):
        with pytest.raises(CalibrationError):
            split_calibration(np.arange(10), 1.5, 1000, seed=0)
        with pytest.raises(CalibrationError):
            split_calibration(np.arange(10), 0.0, 1000, seed=0)

    def test_arbitrary_index_pools(self):
        pool = np.array([5, 17, 3, 99, 42, 8])
        train, cal = split_calibration(pool, 0.3, 1000, seed=1)
        assert sorted(np.concatenate([train, cal]).tolist()) == sorted(pool.tolist())


class _BlobInterface(ModelInterface):
    def feature_extraction(self, X):
        return np.asarray(X)


class TestStreamDeployment:
    @pytest.fixture(scope="class")
    def trained_interface(self):
        from repro.ml import MLPClassifier

        X, y = _make_blobs(400, seed=0)
        interface = _BlobInterface(
            MLPClassifier(epochs=30, seed=0), max_calibration=60, seed=0
        )
        return interface.train(X, y)

    def test_end_to_end_stream(self, trained_interface):
        X_a, y_a = _make_blobs(200, seed=5)
        X_b, y_b = _make_blobs(200, shift=3.0, seed=6)
        X_stream = np.concatenate([X_a, X_b])
        y_stream = np.concatenate([y_a, y_b])
        result = stream_deployment(
            trained_interface,
            X_stream,
            y_stream,
            loop=LoopConfig(
                batch_size=50,
                budget_fraction=0.2,
                triggers=TriggerConfig(window=100, threshold=0.3),
                epochs=10,
            ),
        )
        assert result.n_samples == 400
        assert len(result.steps) == 8
        assert result.decisions_per_second > 0
        # the drifted half must trip the detector into at least one update
        assert result.n_flagged > 0
        assert result.n_relabelled > 0
        assert result.n_model_updates >= 1
        # the capped store never overflows at any step
        assert all(s.calibration_size <= 60 for s in result.steps)
        assert result.final_calibration_size <= 60
        # bookkeeping is internally consistent
        assert result.n_flagged == sum(s.n_flagged for s in result.steps)
        assert result.n_relabelled == sum(s.n_relabelled for s in result.steps)
        assert result.n_dropped_unknown == sum(
            s.n_dropped_unknown for s in result.steps
        )
        assert 0.0 <= result.lifetime_rejection_rate <= 1.0
        # alert steps record the rate that tripped the alarm, not the
        # post-reset zero
        assert all(s.rejection_rate > 0.0 for s in result.steps if s.model_updated)

    def test_validates_alignment(self, trained_interface):
        with pytest.raises(ValueError):
            stream_deployment(trained_interface, np.zeros((10, 6)), np.zeros(5))
        with pytest.raises(ValueError):
            stream_deployment(
                trained_interface,
                np.zeros((10, 6)),
                np.zeros(10),
                loop=LoopConfig(batch_size=0),
            )

    @pytest.mark.parametrize("asynchronous", [False, True])
    def test_misaligned_deploy_raises_validation_error(
        self, trained_interface, asynchronous
    ):
        X, y = _make_blobs(30, seed=7)
        epoch = trained_interface.epoch
        calibration_size = trained_interface.calibration_size
        with pytest.raises(ValidationError, match="must align"):
            repro.deploy(
                trained_interface,
                X,
                y[:-1],
                serving=ServingConfig(asynchronous=asynchronous),
            )
        assert trained_interface.epoch == epoch
        assert trained_interface.calibration_size == calibration_size

    def test_sharded_interface_routes_through_shard_layer(self):
        from repro.ml import MLPClassifier

        X, y = _make_blobs(400, seed=0)
        interface = _BlobInterface(
            MLPClassifier(epochs=30, seed=0),
            max_calibration=60,
            seed=0,
            n_shards=3,
            router="hash",
            parallel=2,
        )
        interface.train(X, y)
        assert interface.shard_sizes == interface.streaming.store.shard_sizes
        assert sum(interface.shard_sizes) == interface.calibration_size

        X_a, y_a = _make_blobs(200, seed=5)
        X_b, y_b = _make_blobs(200, shift=3.0, seed=6)
        result = stream_deployment(
            interface,
            np.concatenate([X_a, X_b]),
            np.concatenate([y_a, y_b]),
            loop=LoopConfig(
                batch_size=50,
                budget_fraction=0.2,
                triggers=TriggerConfig(window=100, threshold=0.3),
                epochs=10,
            ),
        )
        assert result.n_shards == 3
        assert sum(result.final_shard_sizes) == result.final_calibration_size
        assert result.final_calibration_size <= 60
        # calibration extensions report which shards they folded into
        touched = [s.n_shards_touched for s in result.steps if s.n_relabelled]
        assert touched and all(1 <= t <= 3 for t in touched)
        # model-update steps rebuild every shard
        assert all(
            s.n_shards_touched == 3 for s in result.steps if s.model_updated
        )
        # the operator escape hatch: whole-shard rescoring through the
        # interface keeps decisions identical to a fresh calibration
        probe = np.concatenate([X_a[:40], X_b[:40]])
        _, before = interface.predict(probe)
        interface.recalibrate_shards()
        _, after = interface.predict(probe)
        assert np.array_equal(before.accepted, after.accepted)
        assert np.array_equal(before.credibility, after.credibility)
