"""Tests for drift reports and the rolling drift alarm (a trigger stack)."""

import numpy as np
import pytest

from repro.core import TriggerConfig, build_trigger_stack, summarize_decisions
from repro.core.committee import Decision
from repro.core.scores import ExpertAssessment


def _decision(drifting, credibility=0.5, confidence=0.8, votes=()):
    return Decision(
        accepted=not drifting,
        credibility=credibility,
        confidence=confidence,
        votes=votes,
    )


def _monitor(window=100, threshold=0.3):
    """The rolling rejection-rate alarm, built from its config."""
    return build_trigger_stack(TriggerConfig(window=window, threshold=threshold))


def _vote(accept):
    return ExpertAssessment(
        function_name="t",
        credibility=0.5,
        confidence=0.5,
        prediction_set_size=1,
        accept=accept,
    )


class TestSummarizeDecisions:
    def test_basic_counts(self):
        decisions = [_decision(True), _decision(False), _decision(False)]
        report = summarize_decisions(decisions)
        assert report.n_samples == 3
        assert report.n_rejected == 1
        assert report.rejection_rate == pytest.approx(1 / 3)

    def test_credibility_statistics(self):
        decisions = [_decision(False, credibility=c) for c in (0.1, 0.5, 0.9)]
        report = summarize_decisions(decisions)
        assert report.mean_credibility == pytest.approx(0.5)
        q10, q50, q90 = report.credibility_quantiles
        assert q10 < q50 < q90

    def test_per_label_rejection(self):
        decisions = [_decision(True), _decision(False), _decision(True)]
        report = summarize_decisions(decisions, predicted_labels=[0, 0, 1])
        assert report.per_label_rejection[0] == pytest.approx(0.5)
        assert report.per_label_rejection[1] == pytest.approx(1.0)

    def test_expert_disagreement(self):
        unanimous = _decision(False, votes=(_vote(True), _vote(True)))
        split = _decision(False, votes=(_vote(True), _vote(False)))
        report = summarize_decisions([unanimous, split])
        assert report.expert_disagreement == pytest.approx(0.5)

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            summarize_decisions([])

    def test_misaligned_labels_rejected(self):
        with pytest.raises(ValueError):
            summarize_decisions([_decision(True)], predicted_labels=[0, 1])

    def test_str_rendering(self):
        report = summarize_decisions(
            [_decision(True), _decision(False)], predicted_labels=[0, 1]
        )
        text = str(report)
        assert "rejected" in text
        assert "label 0" in text


class TestRollingAlarm:
    def test_no_alert_on_clean_stream(self):
        monitor = _monitor(window=20, threshold=0.3)
        for _ in range(20):
            assert not monitor.observe(_decision(False))

    def test_alert_on_sustained_rejections(self):
        monitor = _monitor(window=20, threshold=0.3)
        monitor.observe_batch([_decision(False)] * 10)
        assert not monitor.alert
        monitor.observe_batch([_decision(True)] * 10)
        assert monitor.alert

    def test_minimum_samples_before_alert(self):
        monitor = _monitor(window=100, threshold=0.1)
        # a few early rejections cannot trip the alarm
        for _ in range(5):
            assert not monitor.observe(_decision(True))

    def test_window_forgets_old_rejections(self):
        monitor = _monitor(window=10, threshold=0.3)
        monitor.observe_batch([_decision(True)] * 10)
        assert monitor.alert
        monitor.observe_batch([_decision(False)] * 10)
        assert not monitor.alert

    def test_lifetime_rate_is_cumulative(self):
        monitor = _monitor(window=5)
        monitor.observe_batch([_decision(True)] * 5)
        monitor.observe_batch([_decision(False)] * 5)
        assert monitor.lifetime_rejection_rate == pytest.approx(0.5)
        assert monitor.rejection_rate == pytest.approx(0.0)

    def test_reset_clears_window_only(self):
        monitor = _monitor(window=10)
        monitor.observe_batch([_decision(True)] * 10)
        monitor.reset()
        assert monitor.rejection_rate == 0.0
        assert monitor.lifetime_rejection_rate == pytest.approx(1.0)

    def test_reset_drops_alert_until_window_refills(self):
        monitor = _monitor(window=10, threshold=0.3)
        monitor.observe_batch([_decision(True)] * 10)
        assert monitor.alert
        monitor.reset()
        assert not monitor.alert
        # fewer than min(10, window) fresh samples cannot re-trip it
        for _ in range(9):
            assert not monitor.observe(_decision(True))
        assert monitor.observe(_decision(True))

    def test_lifetime_counters_accumulate_across_resets(self):
        monitor = _monitor(window=5)
        monitor.observe_batch([_decision(True)] * 5)
        monitor.reset()
        monitor.observe_batch([_decision(False)] * 5)
        assert monitor.lifetime_rejection_rate == pytest.approx(0.5)

    def test_reset_lifetime_true_zeroes_everything(self):
        monitor = _monitor(window=5)
        monitor.observe_batch([_decision(True)] * 5)
        monitor.reset(lifetime=True)
        assert monitor.lifetime_rejection_rate == 0.0
        assert monitor.rejection_rate == 0.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TriggerConfig(window=0)
        with pytest.raises(ValueError):
            TriggerConfig(threshold=0.0)

    def test_integration_with_prom(self, blob_data, fitted_mlp, calibrated_prom):
        X_drift, _ = blob_data["drift"]
        probs = fitted_mlp.predict_proba(X_drift)
        decisions = calibrated_prom.evaluate(
            fitted_mlp.hidden_embedding(X_drift), probs
        )
        monitor = _monitor(window=50, threshold=0.3)
        monitor.observe_batch(decisions)
        # Heavy drift should trip the alarm.
        assert monitor.alert
        report = summarize_decisions(decisions, np.argmax(probs, axis=1))
        assert report.rejection_rate > 0.3
