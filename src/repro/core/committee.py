"""The expert committee: majority voting over nonconformity functions.

Each nonconformity function is one "expert"; its accept/reject verdict
on a test sample is aggregated by majority vote (paper Sec. 5,
Figure 5).  Ties are resolved conservatively as *reject* so that an
evenly split committee asks for human verification rather than
silently trusting the prediction.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .scores import ExpertAssessment
from .exceptions import ConfigurationError, ValidationError


@dataclass(frozen=True)
class Decision:
    """The committee's aggregated verdict for one test sample.

    Attributes:
        accepted: final accept (True) / drifting (False) outcome.
        credibility: median credibility across experts.
        confidence: median confidence across experts.
        votes: the individual expert assessments.
    """

    accepted: bool
    credibility: float
    confidence: float
    votes: tuple = field(default_factory=tuple)

    @property
    def drifting(self) -> bool:
        """True when the committee flags this sample as drifting."""
        return not self.accepted


@dataclass(frozen=True)
class DecisionBatch(Sequence):
    """Committee verdicts for a whole batch in struct-of-arrays form.

    The batch-evaluation engine produces one of these per
    ``evaluate()`` call: per-sample data lives in flat arrays so
    downstream consumers (detection metrics, relabel budgeting, drift
    reports) operate with NumPy instead of object lists.  It is also a
    full :class:`~collections.abc.Sequence` of :class:`Decision` —
    indexing and iteration materialize per-sample objects on demand, so
    existing per-sample code keeps working unchanged.

    Attributes:
        accepted: ``(n,)`` final accept/reject outcomes.
        credibility / confidence: ``(n,)`` median scores across experts.
        expert_names: the committee's function names, outer axis of the
            per-expert arrays.
        expert_credibility / expert_confidence / expert_set_size /
            expert_accept: ``(n_experts, n)`` per-expert detail.
        n_candidates_scored / n_shards_pruned: whole-batch pruning
            observability (set by the shard-pruned evaluate path,
            ``None`` otherwise): total calibration rows in the test
            samples' candidate pools, and total shards those samples
            skipped.  Preserved by :meth:`take` (a permutation keeps
            the whole batch), summed by :meth:`concatenate`, dropped by
            slicing (a subset is no longer the whole batch).
    """

    accepted: np.ndarray
    credibility: np.ndarray
    confidence: np.ndarray
    expert_names: tuple
    expert_credibility: np.ndarray
    expert_confidence: np.ndarray
    expert_set_size: np.ndarray
    expert_accept: np.ndarray
    n_candidates_scored: int | None = None
    n_shards_pruned: int | None = None

    def __len__(self) -> int:
        return len(self.accepted)

    @property
    def drifting(self) -> np.ndarray:
        """``(n,)`` boolean mask of samples flagged as drifting."""
        return ~np.asarray(self.accepted, dtype=bool)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return DecisionBatch(
                accepted=self.accepted[index],
                credibility=self.credibility[index],
                confidence=self.confidence[index],
                expert_names=self.expert_names,
                expert_credibility=self.expert_credibility[:, index],
                expert_confidence=self.expert_confidence[:, index],
                expert_set_size=self.expert_set_size[:, index],
                expert_accept=self.expert_accept[:, index],
            )
        i = int(index)
        if i < -len(self) or i >= len(self):
            raise IndexError(f"decision index {index} out of range")
        votes = tuple(
            ExpertAssessment(
                function_name=name,
                credibility=float(self.expert_credibility[e, i]),
                confidence=float(self.expert_confidence[e, i]),
                prediction_set_size=int(self.expert_set_size[e, i]),
                accept=bool(self.expert_accept[e, i]),
            )
            for e, name in enumerate(self.expert_names)
        )
        return Decision(
            accepted=bool(self.accepted[i]),
            credibility=float(self.credibility[i]),
            confidence=float(self.confidence[i]),
            votes=votes,
        )

    def take(self, indices) -> "DecisionBatch":
        """Gather batch rows into a new order (a permutation/gather).

        Used by the shard-pruned evaluate path to restore the caller's
        row order after grouping test samples by candidate shard; the
        whole-batch pruning counters are preserved.
        """
        indices = np.asarray(indices, dtype=int)
        return DecisionBatch(
            accepted=self.accepted[indices],
            credibility=self.credibility[indices],
            confidence=self.confidence[indices],
            expert_names=self.expert_names,
            expert_credibility=self.expert_credibility[:, indices],
            expert_confidence=self.expert_confidence[:, indices],
            expert_set_size=self.expert_set_size[:, indices],
            expert_accept=self.expert_accept[:, indices],
            n_candidates_scored=self.n_candidates_scored,
            n_shards_pruned=self.n_shards_pruned,
        )

    @classmethod
    def concatenate(cls, batches, expert_names=()) -> "DecisionBatch":
        """Stitch per-chunk batches back into one result.

        Pruning counters sum when every batch carries them and drop to
        ``None`` when any batch lacks them.
        """
        batches = list(batches)
        if not batches:
            n_experts = len(expert_names)
            return cls(
                accepted=np.zeros(0, dtype=bool),
                credibility=np.zeros(0),
                confidence=np.zeros(0),
                expert_names=tuple(expert_names),
                expert_credibility=np.zeros((n_experts, 0)),
                expert_confidence=np.zeros((n_experts, 0)),
                expert_set_size=np.zeros((n_experts, 0), dtype=int),
                expert_accept=np.zeros((n_experts, 0), dtype=bool),
            )
        return cls(
            accepted=np.concatenate([b.accepted for b in batches]),
            credibility=np.concatenate([b.credibility for b in batches]),
            confidence=np.concatenate([b.confidence for b in batches]),
            expert_names=batches[0].expert_names,
            expert_credibility=np.concatenate(
                [b.expert_credibility for b in batches], axis=1
            ),
            expert_confidence=np.concatenate(
                [b.expert_confidence for b in batches], axis=1
            ),
            expert_set_size=np.concatenate(
                [b.expert_set_size for b in batches], axis=1
            ),
            expert_accept=np.concatenate(
                [b.expert_accept for b in batches], axis=1
            ),
            n_candidates_scored=(
                sum(b.n_candidates_scored for b in batches)
                if all(b.n_candidates_scored is not None for b in batches)
                else None
            ),
            n_shards_pruned=(
                sum(b.n_shards_pruned for b in batches)
                if all(b.n_shards_pruned is not None for b in batches)
                else None
            ),
        )


class ExpertCommittee:
    """Aggregates expert assessments by (configurable) majority vote.

    Args:
        vote_threshold: fraction of experts that must *accept* for the
            committee to accept; the default 0.5 with strict comparison
            implements "reject on ties" majority voting.
    """

    def __init__(self, vote_threshold: float = 0.5):
        if not 0.0 < vote_threshold <= 1.0:
            raise ConfigurationError(f"vote_threshold must be in (0, 1], got {vote_threshold}")
        self.vote_threshold = vote_threshold

    def decide_batch(self, assessment_batches) -> DecisionBatch:
        """Combine per-expert assessment batches into one :class:`DecisionBatch`.

        ``assessment_batches`` holds one
        :class:`~repro.core.scores.ExpertAssessmentBatch` per expert; a
        sample is accepted when more than ``vote_threshold`` of the
        experts accept it, and reports the median credibility and
        confidence across experts.  The vote count, accept threshold
        and medians are array reductions over the whole batch.
        """
        batches = list(assessment_batches)
        if not batches:
            raise ValidationError("committee needs at least one expert assessment")
        accept_matrix = np.stack([np.asarray(b.accept, dtype=bool) for b in batches])
        accepts = accept_matrix.sum(axis=0)
        credibility_matrix = np.stack([b.credibility for b in batches])
        confidence_matrix = np.stack([b.confidence for b in batches])
        return DecisionBatch(
            accepted=accepts > self.vote_threshold * len(batches),
            credibility=np.median(credibility_matrix, axis=0),
            confidence=np.median(confidence_matrix, axis=0),
            expert_names=tuple(b.function_name for b in batches),
            expert_credibility=credibility_matrix,
            expert_confidence=confidence_matrix,
            expert_set_size=np.stack(
                [np.asarray(b.prediction_set_size, dtype=int) for b in batches]
            ),
            expert_accept=accept_matrix,
        )
