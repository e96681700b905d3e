"""End-to-end integration tests crossing all package layers."""

import numpy as np
import pytest

from repro import PromClassifier
from repro.core import detection_metrics, drifting_indices
from repro.experiments import run_classification, run_incremental
from repro.models import ir2vec, magni
from repro.tasks import HeterogeneousMappingTask, ThreadCoarseningTask


class TestPaperPipelineSmall:
    """A miniature version of the paper's full C1 protocol."""

    @pytest.fixture(scope="class")
    def task(self):
        return ThreadCoarseningTask(kernels_per_suite=25, seed=1)

    def test_drift_hurts_accuracy(self, task):
        result = run_classification(task, magni, seed=1)
        assert result.deploy_accuracy <= result.design_accuracy + 0.1

    def test_detection_beats_coin_flip_recall(self, task):
        result = run_classification(task, magni, seed=1)
        if result.mispredicted.any():
            assert result.detection.recall >= 0.3

    def test_incremental_never_relabels_above_budget(self, task):
        base = run_classification(task, magni, seed=1)
        outcome = run_incremental(task, magni, base_result=base, budget_fraction=0.05)
        if outcome.n_flagged > 0:
            assert outcome.n_relabelled <= max(1, int(round(0.05 * outcome.n_flagged)))


class TestCrossGPUConsistency:
    def test_all_four_platforms_run(self):
        for gpu_name in (
            "amd-radeon-7970",
            "amd-radeon-5900",
            "nvidia-gtx-480",
            "nvidia-tesla-k20",
        ):
            task = ThreadCoarseningTask(
                gpu_name=gpu_name, kernels_per_suite=12, seed=0
            )
            assert len(task) == 36
            assert task.labels.max() < len(task.classes)


class TestSuiteRotation:
    """The paper rotates the held-out suite; every rotation must work."""

    def test_mapping_rotation(self):
        task = HeterogeneousMappingTask(kernels_per_suite=8, seed=0)
        from repro.lang import MAPPING_SUITES

        for suite in MAPPING_SUITES:
            split = task.drift_split(suite)
            assert len(split.test) == 8

    def test_coarsening_rotation_runs_model(self):
        task = ThreadCoarseningTask(kernels_per_suite=15, seed=0)
        from repro.lang import COARSENING_SUITES

        accuracies = []
        for suite in COARSENING_SUITES:
            result = run_classification(
                task, ir2vec, seed=0, drift_kwargs={"held_out_suite": suite}
            )
            accuracies.append(result.deploy_accuracy)
        assert all(0.0 <= a <= 1.0 for a in accuracies)


class TestPromStateIsolation:
    """Two Prom instances calibrated differently must not interact."""

    def test_independent_calibrations(self):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(100, 4))
        raw = rng.random((100, 3)) + 0.1
        probabilities = raw / raw.sum(axis=1, keepdims=True)
        labels = rng.integers(0, 3, 100)

        first = PromClassifier(epsilon=0.05)
        second = PromClassifier(epsilon=0.4)
        first.calibrate(features, probabilities, labels)
        second.calibrate(features[:50], probabilities[:50], labels[:50])

        decision_a = first.evaluate_one(features[0], probabilities[0])
        decision_b = second.evaluate_one(features[0], probabilities[0])
        assert first.epsilon == 0.05
        assert second.epsilon == 0.4
        assert first.calibration_size == 100
        assert second.calibration_size == 50
        # both produce valid decisions
        assert decision_a.credibility >= 0.0
        assert decision_b.credibility >= 0.0


class TestDecisionStreamAccounting:
    def test_indices_partition_stream(self):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(60, 4))
        raw = rng.random((60, 3)) + 0.1
        probabilities = raw / raw.sum(axis=1, keepdims=True)
        labels = rng.integers(0, 3, 60)
        prom = PromClassifier()
        prom.calibrate(features, probabilities, labels)
        decisions = prom.evaluate(features, probabilities)
        flagged = drifting_indices(decisions)
        metrics = detection_metrics(
            np.zeros(60, dtype=bool) | (np.arange(60) % 7 == 0),
            [d.drifting for d in decisions],
        )
        assert metrics.n_samples == 60
        assert len(flagged) <= 60
