"""Credibility and confidence evaluation (paper Sec. 5.3).

* **Credibility** of a prediction is the conformal p-value of the
  predicted label — high when the test sample resembles calibration
  samples that carry the same label.
* **Confidence** is a Gaussian function of the prediction-set size,
  ``f(x) = exp(-(x - 1)^2 / (2 c^2))``: exactly one conforming label is
  the ideal; an empty set (no label conforms) or many conforming labels
  (ambiguity) both lower confidence.

Position in the evaluation pipeline (see README architecture map): the
p-value kernels of :mod:`repro.core.pvalue` reduce each test batch to
p-values per expert, computed against the calibration state the
detector holds (the segment bundle of :mod:`repro.core.segments`).
Two readers turn them into verdicts, which :mod:`repro.core.committee`
then votes into decisions:

* :func:`verdict_batch` reads only the credibility column.  It decides
  every row whose accept flag does not depend on the rest of the label
  row (under the default thresholds, every row) and names the others;
* :func:`assess_batch` reads the full ``(n_test, n_labels)`` matrix and
  also yields confidence and set sizes, the detail fields.

This module is deliberately state-free: it only ever sees p-values, so
it is identical across the batch, streaming, sharded and async-serving
paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from .exceptions import ConfigurationError


def confidence_from_set_size(set_size: int, gaussian_scale: float = 1.0) -> float:
    """Map a prediction-set size to a confidence score in ``(0, 1]``.

    ``gaussian_scale`` is the constant ``c`` of the paper's Gaussian;
    the paper discusses c in 1..4 (Fig. 13(c)).  We default to ``c=1``
    because with small label spaces (binary tasks) larger scales make
    the confidence score insensitive to set size; the paper's own
    sensitivity analysis covers the same trade-off.
    """
    if gaussian_scale <= 0:
        raise ConfigurationError("gaussian_scale must be positive")
    return float(np.exp(-((set_size - 1.0) ** 2) / (2.0 * gaussian_scale**2)))


def _confidence(effective_sizes, gaussian_scale: float) -> np.ndarray:
    """The confidence Gaussian over an array of effective set sizes."""
    return np.exp(-((effective_sizes - 1.0) ** 2) / (2.0 * gaussian_scale**2))


@dataclass(frozen=True)
class ExpertAssessment:
    """One nonconformity function's verdict on one test sample."""

    function_name: str
    credibility: float
    confidence: float
    prediction_set_size: int
    accept: bool


@dataclass(frozen=True)
class ExpertAssessmentBatch:
    """One nonconformity function's verdicts on a batch of test samples.

    Struct-of-arrays counterpart of :class:`ExpertAssessment`: each
    field holds one ``(n_test,)`` array so the committee can vote with
    array operations instead of per-sample Python objects.
    """

    function_name: str
    credibility: np.ndarray
    confidence: np.ndarray
    prediction_set_size: np.ndarray
    accept: np.ndarray

    def __len__(self) -> int:
        return len(self.credibility)


def assess_batch(
    pvalues: np.ndarray,
    predicted_labels: np.ndarray,
    epsilon: float,
    gaussian_scale: float = 1.0,
    credibility_threshold: float | None = None,
    confidence_threshold: float = 0.9,
    require_predicted_in_set: bool = True,
    function_name: str = "",
) -> ExpertAssessmentBatch:
    """One expert's accept/reject verdicts over a ``(n_test, n_labels)`` p-value matrix.

    A sample is flagged as drifting when *both* scores fall below their
    thresholds (paper Sec. 5.3): credibility (the p-value of the
    predicted label) below ``credibility_threshold`` (default: epsilon)
    and confidence below ``confidence_threshold``.  The prediction set
    holds the labels whose p-value exceeds ``epsilon``.

    When ``require_predicted_in_set`` is true (default), a prediction
    set that does not contain the predicted label provides no
    endorsement: the effective set size for the confidence score is
    then 0, so a conforming-looking singleton around a *different*
    label cannot vouch for the model's actual output.
    """
    if gaussian_scale <= 0:
        raise ConfigurationError("gaussian_scale must be positive")
    if credibility_threshold is None:
        credibility_threshold = epsilon
    pvalues = np.asarray(pvalues, dtype=float)
    predicted_labels = np.asarray(predicted_labels, dtype=int)
    rows = np.arange(len(pvalues))
    credibility = pvalues[rows, predicted_labels]
    in_region = pvalues > epsilon
    set_sizes = in_region.sum(axis=1)
    effective_sizes = set_sizes
    if require_predicted_in_set:
        effective_sizes = np.where(in_region[rows, predicted_labels], set_sizes, 0)
    confidence = _confidence(effective_sizes, gaussian_scale)
    reject = (credibility < credibility_threshold) & (confidence < confidence_threshold)
    return ExpertAssessmentBatch(
        function_name=function_name,
        credibility=credibility,
        confidence=confidence,
        prediction_set_size=set_sizes,
        accept=~reject,
    )


def verdict_batch(
    credibility: np.ndarray,
    epsilon: float,
    gaussian_scale: float = 1.0,
    credibility_threshold: float | None = None,
    confidence_threshold: float = 0.9,
) -> tuple:
    """One expert's accept flags from its credibility column alone.

    Returns ``(accept, undecided)``: ``accept`` equals
    :func:`assess_batch`'s flag (with ``require_predicted_in_set``) on
    every row outside the boolean mask ``undecided``.  A row at or
    above ``credibility_threshold`` is accepted.  Below it, a row whose
    credibility is at most ``epsilon`` has its predicted label outside
    the prediction set, so its effective set size is 0 and its
    confidence is the Gaussian at 0, whatever the other labels' p-values
    are.  Only a row with ``epsilon < credibility < credibility_threshold``
    (possible only when that threshold exceeds epsilon) needs the full
    label row; it is left undecided.
    """
    if gaussian_scale <= 0:
        raise ConfigurationError("gaussian_scale must be positive")
    if credibility_threshold is None:
        credibility_threshold = epsilon
    below = credibility < credibility_threshold
    undecided = below & (credibility > epsilon)
    outside = _confidence(np.zeros(1, dtype=int), gaussian_scale)[0]
    if outside < confidence_threshold:
        accept = ~below | undecided
    else:
        accept = np.ones(len(credibility), dtype=bool)
    return accept, undecided
