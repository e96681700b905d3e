"""Tests for credibility/confidence scoring and the expert committee.

Verdicts and votes go through the shipped batch kernels
(``assess_batch``, ``ExpertCommittee.decide_batch``) with a batch of
one test sample.
"""

import numpy as np
import pytest

from repro.core import (
    ExpertAssessment,
    ExpertAssessmentBatch,
    ExpertCommittee,
    assess_batch,
    confidence_from_set_size,
)

from .serial_reference import prediction_set


def _assess_one(pvalues, predicted_label, epsilon, **kwargs) -> ExpertAssessment:
    """One sample's verdict through :func:`assess_batch`."""
    batch = assess_batch(
        np.asarray(pvalues, dtype=float)[None, :], [predicted_label], epsilon, **kwargs
    )
    return ExpertAssessment(
        function_name=batch.function_name,
        credibility=float(batch.credibility[0]),
        confidence=float(batch.confidence[0]),
        prediction_set_size=int(batch.prediction_set_size[0]),
        accept=bool(batch.accept[0]),
    )


def _decide_one(committee, votes):
    """One sample's committee decision through ``decide_batch``."""
    batches = [
        ExpertAssessmentBatch(
            function_name=vote.function_name,
            credibility=np.array([vote.credibility]),
            confidence=np.array([vote.confidence]),
            prediction_set_size=np.array([vote.prediction_set_size]),
            accept=np.array([vote.accept]),
        )
        for vote in votes
    ]
    return committee.decide_batch(batches)[0]


class TestPredictionSet:
    """The reference region rule, and the batch kernel's set size."""

    def test_keeps_labels_above_epsilon(self):
        region = prediction_set(np.array([0.05, 0.5, 0.2]), epsilon=0.1)
        assert region.tolist() == [1, 2]
        assert _assess_one([0.05, 0.5, 0.2], 1, 0.1).prediction_set_size == 2

    def test_empty_when_all_below(self):
        region = prediction_set(np.array([0.01, 0.02]), epsilon=0.1)
        assert len(region) == 0
        assert _assess_one([0.01, 0.02], 0, 0.1).prediction_set_size == 0

    def test_boundary_is_strict(self):
        region = prediction_set(np.array([0.1, 0.11]), epsilon=0.1)
        assert region.tolist() == [1]
        assert _assess_one([0.1, 0.11], 1, 0.1).prediction_set_size == 1
        # label 1 is the member: predicting it gives the ideal singleton
        assert _assess_one([0.1, 0.11], 1, 0.1).confidence == pytest.approx(1.0)
        assert _assess_one([0.1, 0.11], 0, 0.1).confidence < 1.0


class TestConfidence:
    def test_singleton_set_is_ideal(self):
        assert confidence_from_set_size(1) == pytest.approx(1.0)

    def test_symmetric_around_one(self):
        assert confidence_from_set_size(0) == pytest.approx(confidence_from_set_size(2))

    def test_decreases_with_ambiguity(self):
        values = [confidence_from_set_size(k) for k in range(1, 6)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_larger_scale_flattens(self):
        sharp = confidence_from_set_size(3, gaussian_scale=1.0)
        flat = confidence_from_set_size(3, gaussian_scale=4.0)
        assert flat > sharp

    def test_paper_scale_values(self):
        # f(0) with c=3 is exp(-1/18)
        assert confidence_from_set_size(0, 3.0) == pytest.approx(np.exp(-1 / 18))

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            confidence_from_set_size(1, gaussian_scale=0.0)


class TestAssess:
    def test_accepts_conforming_prediction(self):
        pvalues = np.array([0.8, 0.05, 0.02])
        verdict = _assess_one(pvalues, predicted_label=0, epsilon=0.1)
        assert verdict.accept
        assert verdict.credibility == pytest.approx(0.8)
        assert verdict.prediction_set_size == 1

    def test_rejects_alien_sample(self):
        pvalues = np.array([0.01, 0.02, 0.03])
        verdict = _assess_one(pvalues, predicted_label=0, epsilon=0.1)
        assert not verdict.accept
        assert verdict.prediction_set_size == 0

    def test_foreign_singleton_does_not_endorse_prediction(self):
        """cred < eps and only a *different* label conforms: reject.

        With require_predicted_in_set (default) the conforming singleton
        around another label cannot vouch for the model's prediction.
        """
        pvalues = np.array([0.05, 0.9])
        verdict = _assess_one(pvalues, predicted_label=0, epsilon=0.1)
        assert verdict.prediction_set_size == 1
        assert not verdict.accept

    def test_legacy_set_size_semantics(self):
        """require_predicted_in_set=False restores the paper-literal rule."""
        pvalues = np.array([0.05, 0.9])
        verdict = _assess_one(
            pvalues, predicted_label=0, epsilon=0.1, require_predicted_in_set=False
        )
        assert verdict.confidence == pytest.approx(1.0)
        assert verdict.accept

    def test_ambiguous_set_with_low_credibility_rejected(self):
        pvalues = np.array([0.05, 0.5, 0.5, 0.5])
        verdict = _assess_one(pvalues, predicted_label=0, epsilon=0.1)
        assert not verdict.accept

    def test_custom_thresholds(self):
        pvalues = np.array([0.2, 0.02])
        strict = _assess_one(
            pvalues, predicted_label=0, epsilon=0.1, credibility_threshold=0.5,
            confidence_threshold=1.1,
        )
        assert not strict.accept

    def test_function_name_is_recorded(self):
        verdict = _assess_one(np.array([0.5, 0.5]), 0, 0.1, function_name="LAC")
        assert verdict.function_name == "LAC"


def _vote(accept, cred=0.5, conf=0.5):
    return ExpertAssessment(
        function_name="t",
        credibility=cred,
        confidence=conf,
        prediction_set_size=1,
        accept=accept,
    )


class TestCommittee:
    def test_majority_accepts(self):
        committee = ExpertCommittee()
        decision = _decide_one(committee, [_vote(True), _vote(True), _vote(True), _vote(False)])
        assert decision.accepted

    def test_majority_rejects(self):
        committee = ExpertCommittee()
        decision = _decide_one(committee, [_vote(False), _vote(False), _vote(False), _vote(True)])
        assert not decision.accepted
        assert decision.drifting

    def test_tie_rejects(self):
        committee = ExpertCommittee()
        decision = _decide_one(committee, [_vote(True), _vote(True), _vote(False), _vote(False)])
        assert not decision.accepted

    def test_median_scores_reported(self):
        committee = ExpertCommittee()
        votes = [_vote(True, cred=0.1), _vote(True, cred=0.3), _vote(True, cred=0.9)]
        decision = _decide_one(committee, votes)
        assert decision.credibility == pytest.approx(0.3)

    def test_empty_committee_raises(self):
        with pytest.raises(ValueError):
            ExpertCommittee().decide_batch([])

    def test_custom_threshold(self):
        committee = ExpertCommittee(vote_threshold=0.75)
        # 3/4 accepts does not clear a 0.75 strict threshold
        decision = _decide_one(committee, [_vote(True)] * 3 + [_vote(False)])
        assert not decision.accepted

    def test_votes_preserved(self):
        committee = ExpertCommittee()
        decision = _decide_one(committee, [_vote(True), _vote(False)])
        assert len(decision.votes) == 2

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            ExpertCommittee(vote_threshold=0.0)
