"""Deployment drift reports: summarize a stream of committee decisions.

Production users of Prom want more than a per-sample bit: operators
watch rejection rates over time, per-class rejection skew, and the
credibility distribution to decide *when* to trigger relabelling or
retraining.  :func:`summarize_decisions` condenses a decision stream
into those quantities.  The rolling-window alarm over a live stream is
a trigger stack (:func:`~repro.core.triggers.build_trigger_stack`,
DESIGN.md §11).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .committee import DecisionBatch
from .exceptions import ValidationError


@dataclass(frozen=True)
class DriftReport:
    """Aggregate view of a batch of Prom decisions.

    Attributes:
        n_samples: decisions summarized.
        n_rejected: how many the committee flagged as drifting.
        rejection_rate: ``n_rejected / n_samples``.
        mean_credibility / mean_confidence: averages over the stream.
        credibility_quantiles: (q10, q50, q90) of credibility.
        per_label_rejection: rejection rate per predicted label, when
            predicted labels were supplied.
        expert_disagreement: fraction of samples on which the experts
            were not unanimous — a leading indicator of drift onset.
    """

    n_samples: int
    n_rejected: int
    rejection_rate: float
    mean_credibility: float
    mean_confidence: float
    credibility_quantiles: tuple
    per_label_rejection: dict = field(default_factory=dict)
    expert_disagreement: float = 0.0

    def __str__(self) -> str:
        q10, q50, q90 = self.credibility_quantiles
        lines = [
            f"drift report over {self.n_samples} samples:",
            f"  rejected          {self.n_rejected} ({self.rejection_rate:.1%})",
            f"  credibility       mean {self.mean_credibility:.3f} "
            f"(q10 {q10:.3f}, median {q50:.3f}, q90 {q90:.3f})",
            f"  confidence        mean {self.mean_confidence:.3f}",
            f"  expert split rate {self.expert_disagreement:.1%}",
        ]
        for label, rate in sorted(self.per_label_rejection.items()):
            lines.append(f"  label {label}: rejected {rate:.1%}")
        return "\n".join(lines)


def summarize_decisions(decisions, predicted_labels=None) -> DriftReport:
    """Condense a stream of committee decisions into a :class:`DriftReport`.

    Accepts either a list of per-sample ``Decision`` objects or a
    :class:`~repro.core.committee.DecisionBatch` (the batch-engine
    output), which is summarized with array reductions directly.
    """
    if isinstance(decisions, DecisionBatch):
        if len(decisions) == 0:
            raise ValidationError("cannot summarize an empty decision stream")
        rejected = np.asarray(decisions.drifting)
        credibilities = np.asarray(decisions.credibility, dtype=float)
        confidences = np.asarray(decisions.confidence, dtype=float)
        accepts = decisions.expert_accept.sum(axis=0)
        n_experts = decisions.expert_accept.shape[0]
        disagreements = ((accepts > 0) & (accepts < n_experts)).astype(float)
    else:
        decisions = list(decisions)
        if not decisions:
            raise ValidationError("cannot summarize an empty decision stream")
        rejected = np.asarray([d.drifting for d in decisions])
        credibilities = np.asarray([d.credibility for d in decisions])
        confidences = np.asarray([d.confidence for d in decisions])
        disagreements = np.asarray(
            [
                0.0 if not d.votes else float(
                    0 < sum(1 for v in d.votes if v.accept) < len(d.votes)
                )
                for d in decisions
            ]
        )

    per_label = {}
    if predicted_labels is not None:
        predicted_labels = np.asarray(predicted_labels)
        if len(predicted_labels) != len(decisions):
            raise ValidationError("predicted_labels must align with decisions")
        for label in np.unique(predicted_labels):
            mask = predicted_labels == label
            per_label[label.item() if hasattr(label, "item") else label] = float(
                rejected[mask].mean()
            )

    return DriftReport(
        n_samples=len(decisions),
        n_rejected=int(rejected.sum()),
        rejection_rate=float(rejected.mean()),
        mean_credibility=float(credibilities.mean()),
        mean_confidence=float(confidences.mean()),
        credibility_quantiles=tuple(
            float(q) for q in np.percentile(credibilities, [10, 50, 90])
        ),
        per_label_rejection=per_label,
        expert_disagreement=float(disagreements.mean()),
    )
