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


class DecisionDetail:
    """The confidence half of a :class:`DecisionBatch`, filled on first read.

    Holds ``confidence`` (``(n,)`` median across experts),
    ``expert_confidence`` and ``expert_set_size`` (``(n_experts, n)``).
    These need every label's p-value, while the accept flag needs only
    the predicted label's (DESIGN.md §2, "Verdict vs detail").  A
    detail is either *computed* — its arrays known — or *deferred*: a
    sequence of parts, each a source that recomputes one evaluate
    chunk's arrays (``len(part)`` rows, ``part.compute(cache)``; a
    computed detail is such a part too), plus the row order the batch
    reads them in.  :meth:`take` and :meth:`concatenate` only reorder
    rows, so a deferred detail stays deferred through them; the first
    read computes every part once, keeps the arrays and drops the
    parts, which releases whatever the sources held.  Pickling computes
    first, so a pickled batch carries plain arrays.
    """

    __slots__ = ("_parts", "_rows", "_arrays")

    def __init__(self, parts, rows=None):
        self._parts = tuple(parts)
        self._rows = rows
        self._arrays = None

    @classmethod
    def computed(cls, confidence, expert_confidence, expert_set_size) -> "DecisionDetail":
        """A detail over known arrays."""
        detail = cls(())
        detail._arrays = (
            np.asarray(confidence),
            np.asarray(expert_confidence),
            np.asarray(expert_set_size),
        )
        return detail

    @classmethod
    def from_assessments(cls, assessment_batches) -> "DecisionDetail":
        """The computed detail of per-expert assessment batches."""
        confidence_matrix = np.stack([b.confidence for b in assessment_batches])
        return cls.computed(
            np.median(confidence_matrix, axis=0),
            confidence_matrix,
            np.stack(
                [np.asarray(b.prediction_set_size, dtype=int) for b in assessment_batches]
            ),
        )

    def __len__(self) -> int:
        if self._arrays is not None:
            return len(self._arrays[0])
        if self._rows is not None:
            return len(self._rows)
        return sum(len(part) for part in self._parts)

    @property
    def is_computed(self) -> bool:
        """Whether the arrays are known (no source left to run)."""
        return self._arrays is not None

    def arrays(self) -> tuple:
        """``(confidence, expert_confidence, expert_set_size)``."""
        if self._arrays is None:
            cache: dict = {}
            parts = [part.compute(cache) for part in self._parts]
            arrays = (
                np.concatenate([p[0] for p in parts]),
                np.concatenate([p[1] for p in parts], axis=1),
                np.concatenate([p[2] for p in parts], axis=1),
            )
            rows = self._rows
            if rows is not None:
                arrays = (arrays[0][rows], arrays[1][:, rows], arrays[2][:, rows])
            self._arrays = arrays
            self._parts = ()
            self._rows = None
        return self._arrays

    def compute(self, cache=None) -> tuple:
        """:meth:`arrays`, for a detail serving as another's part."""
        return self.arrays()

    def _part_rows(self) -> tuple:
        """``(parts, rows)`` with ``rows`` explicit (never ``None``)."""
        if self._arrays is not None:
            return (self,), np.arange(len(self))
        rows = self._rows
        if rows is None:
            rows = np.arange(len(self))
        return self._parts, rows

    def take(self, rows) -> "DecisionDetail":
        """The detail of rows ``rows`` (an index array or a slice)."""
        if self._arrays is not None:
            confidence, experts, sizes = self._arrays
            return DecisionDetail.computed(
                confidence[rows], experts[:, rows], sizes[:, rows]
            )
        parts, own = self._part_rows()
        return DecisionDetail(parts, own[rows])

    @classmethod
    def concatenate(cls, details) -> "DecisionDetail":
        """The details of consecutive batches, stitched in order."""
        details = list(details)
        if all(detail.is_computed for detail in details):
            return cls.computed(
                *(
                    np.concatenate([detail.arrays()[i] for detail in details], axis=-1)
                    for i in range(3)
                )
            )
        parts = []
        rows = []
        offset = 0
        for detail in details:
            own_parts, own_rows = detail._part_rows()
            parts.extend(own_parts)
            rows.append(own_rows + offset)
            offset += sum(len(part) for part in own_parts)
        return cls(parts, np.concatenate(rows))

    def __getstate__(self):
        return self.arrays()

    def __setstate__(self, arrays):
        self._parts = ()
        self._rows = None
        self._arrays = arrays


@dataclass(frozen=True, init=False, eq=False)
class DecisionBatch(Sequence):
    """Committee verdicts for a whole batch in struct-of-arrays form.

    The batch-evaluation engine produces one of these per
    ``evaluate()`` call: per-sample data lives in flat arrays so
    downstream consumers (detection metrics, relabel budgeting, drift
    reports) operate with NumPy instead of object lists.  It is also a
    full :class:`~collections.abc.Sequence` of :class:`Decision` —
    indexing and iteration materialize per-sample objects on demand, so
    existing per-sample code keeps working unchanged.

    The batch has two halves.  The *verdict* — ``accepted``,
    ``credibility``, ``expert_credibility`` and ``expert_accept`` — is
    always computed.  The *detail* — ``confidence``,
    ``expert_confidence`` and ``expert_set_size`` — is a
    :class:`DecisionDetail`.  A detector decides its own batches with
    the predicted-label kernel and defers the detail to the first read
    of one of those fields; it is then computed exactly against the
    calibration state and parameters the batch was decided on.  The
    detail survives :meth:`take`, slicing, :meth:`concatenate`,
    ``dataclasses.replace`` and pickling.

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
        detail: the :class:`DecisionDetail` behind ``confidence``,
            ``expert_confidence`` and ``expert_set_size``.

    Equality and hashing are by identity: compare two batches' arrays
    with ``np.array_equal``.
    """

    accepted: np.ndarray
    credibility: np.ndarray
    expert_names: tuple
    expert_credibility: np.ndarray
    expert_accept: np.ndarray
    n_candidates_scored: int | None = None
    n_shards_pruned: int | None = None
    detail: DecisionDetail = field(default=None, repr=False, compare=False)

    def __init__(
        self,
        accepted,
        credibility,
        confidence=None,
        expert_names=(),
        expert_credibility=None,
        expert_confidence=None,
        expert_set_size=None,
        expert_accept=None,
        n_candidates_scored=None,
        n_shards_pruned=None,
        detail=None,
    ):
        if detail is None:
            detail = DecisionDetail.computed(
                confidence, expert_confidence, expert_set_size
            )
        for name, value in (
            ("accepted", accepted),
            ("credibility", credibility),
            ("expert_names", tuple(expert_names)),
            ("expert_credibility", expert_credibility),
            ("expert_accept", expert_accept),
            ("n_candidates_scored", n_candidates_scored),
            ("n_shards_pruned", n_shards_pruned),
            ("detail", detail),
        ):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.accepted)

    @property
    def confidence(self) -> np.ndarray:
        """``(n,)`` median confidence across experts (detail)."""
        return self.detail.arrays()[0]

    @property
    def expert_confidence(self) -> np.ndarray:
        """``(n_experts, n)`` per-expert confidence (detail)."""
        return self.detail.arrays()[1]

    @property
    def expert_set_size(self) -> np.ndarray:
        """``(n_experts, n)`` per-expert prediction-set size (detail)."""
        return self.detail.arrays()[2]

    @property
    def drifting(self) -> np.ndarray:
        """``(n,)`` boolean mask of samples flagged as drifting."""
        return ~np.asarray(self.accepted, dtype=bool)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return DecisionBatch(
                accepted=self.accepted[index],
                credibility=self.credibility[index],
                expert_names=self.expert_names,
                expert_credibility=self.expert_credibility[:, index],
                expert_accept=self.expert_accept[:, index],
                detail=self.detail.take(index),
            )
        i = int(index)
        if i < -len(self) or i >= len(self):
            raise IndexError(f"decision index {index} out of range")
        confidence, expert_confidence, expert_set_size = self.detail.arrays()
        votes = tuple(
            ExpertAssessment(
                function_name=name,
                credibility=float(self.expert_credibility[e, i]),
                confidence=float(expert_confidence[e, i]),
                prediction_set_size=int(expert_set_size[e, i]),
                accept=bool(self.expert_accept[e, i]),
            )
            for e, name in enumerate(self.expert_names)
        )
        return Decision(
            accepted=bool(self.accepted[i]),
            credibility=float(self.credibility[i]),
            confidence=float(confidence[i]),
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
            expert_names=self.expert_names,
            expert_credibility=self.expert_credibility[:, indices],
            expert_accept=self.expert_accept[:, indices],
            n_candidates_scored=self.n_candidates_scored,
            n_shards_pruned=self.n_shards_pruned,
            detail=self.detail.take(indices),
        )

    @classmethod
    def concatenate(cls, batches, expert_names=()) -> "DecisionBatch":
        """Stitch per-chunk batches back into one result.

        Pruning counters sum when every batch carries them and drop to
        ``None`` when any batch lacks them.
        """
        batches = list(batches)
        if len(batches) == 1:
            return batches[0]
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
            expert_names=batches[0].expert_names,
            expert_credibility=np.concatenate(
                [b.expert_credibility for b in batches], axis=1
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
            detail=DecisionDetail.concatenate(b.detail for b in batches),
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

    def decide_batch(self, assessment_batches, detail=None) -> DecisionBatch:
        """Combine per-expert assessment batches into one :class:`DecisionBatch`.

        ``assessment_batches`` holds one
        :class:`~repro.core.scores.ExpertAssessmentBatch` per expert; a
        sample is accepted when more than ``vote_threshold`` of the
        experts accept it, and reports the median credibility and
        confidence across experts.  The vote count, accept threshold
        and medians are array reductions over the whole batch.

        With ``detail`` (a deferred :class:`DecisionDetail`) only the
        verdict fields of the assessments are read: their confidence
        and set-size fields may be ``None``.
        """
        batches = list(assessment_batches)
        if not batches:
            raise ValidationError("committee needs at least one expert assessment")
        accept_matrix = np.stack([np.asarray(b.accept, dtype=bool) for b in batches])
        accepts = accept_matrix.sum(axis=0)
        credibility_matrix = np.stack([b.credibility for b in batches])
        return DecisionBatch(
            accepted=accepts > self.vote_threshold * len(batches),
            credibility=np.median(credibility_matrix, axis=0),
            expert_names=tuple(b.function_name for b in batches),
            expert_credibility=credibility_matrix,
            expert_accept=accept_matrix,
            detail=(
                DecisionDetail.from_assessments(batches) if detail is None else detail
            ),
        )
