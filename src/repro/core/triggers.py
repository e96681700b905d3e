"""Pluggable drift-trigger policy layer (DESIGN.md §11).

The historical drift monitor was the last hard-coded policy in the
maintenance plane: one credibility threshold over one rolling window.
This module decomposes drift detection the way eviction, sharding and
serving are already decomposed — into small policy objects that
compose:

* :class:`DetectionWindows` — the observation state: an amount- or
  step-based *current* window plus a seeded reservoir-sampled
  *reference* window (the long-run baseline distribution detectors
  compare against).
* :class:`DriftDetector` — per-metric evidence: the windowed
  rejection rate (:class:`CredibilityDetector`, the legacy metric), a
  two-sample test on the conformal p-value distribution
  (:class:`PValueDetector`), and an expert-disagreement accuracy proxy
  (:class:`AccuracyProxyDetector`).
* :class:`DriftDecisionPolicy` — metric series → fire/no-fire:
  static threshold, dynamic quantile threshold, dynamic EWMA
  threshold, hysteresis.  Raw hypothesis testing (a static
  significance cut on :class:`PValueDetector`) is deliberately
  reproduced *and measured* as oversensitive — see
  ``benchmarks/bench_triggers.py``.
* :class:`WarmupPolicy` — minimum window fill before any fire.
* :class:`DriftTrigger` / :class:`TriggerStack` — one assembled
  (windows, detector, policy, warmup) unit, and an any/all/majority
  ensemble of them behind the monitor protocol the deployment loop
  calls (``observe_stream_batch`` / ``rejection_rate`` / ``alert`` /
  ``last_decision`` / ``relabel_budget`` / ``reset``).
* :class:`PerShardTriggerStack` — per-shard trigger instances keyed
  off a :class:`~repro.core.sharding.ShardRouter`.
* :class:`CostAwareBudgetPolicy` — scales the relabel budget by
  trigger severity × expected coverage loss, using the PR 8
  agreement-vs-spill study (:class:`CoverageCostModel`).

:func:`build_trigger_stack` assembles a stack from a
:class:`~repro.core.config.TriggerConfig`; it is the only way the
library builds one.  The default stack (what a bare ``TriggerConfig()``
builds, or ``TriggerConfig(window=w, threshold=t)`` for another window
and threshold) is property-tested decision-identical to the historical
deque-based monitor — bit-identical ``alert`` and ``rejection_rate``
sequences under any interleaving of observes and resets — so the
refactor inherits the repo's equivalence contract.

Determinism: every random choice (the reference reservoir) is driven
by an explicitly seeded generator, and "time"-based windows count
observe *steps*, not wall-clock (``time.time()`` is banned from
``core/`` by promlint PL004) — so trigger state checkpoints and
restores bit-identically (DESIGN.md §7).
"""

from __future__ import annotations

import abc
import threading
from collections import deque
from dataclasses import dataclass

import numpy as np

from .committee import DecisionBatch
from .config import TRIGGER_DETECTOR_CHOICES, TRIGGER_POLICY_CHOICES
from .exceptions import ConfigurationError, ValidationError

#: window modes accepted by DetectionWindows (``"steps"`` is the
#: deterministic stand-in for Modyn's time-based windows: logical
#: observe steps, since wall-clock reads are banned from core/)
WINDOW_MODES = ("amount", "steps")

#: ensemble vote-combination modes accepted by TriggerStack
ENSEMBLE_MODES = ("any", "all", "majority")

_STATE_VERSION = 1


# -- observations ------------------------------------------------------------------


@dataclass(frozen=True)
class ObservationBatch:
    """Per-sample trigger observations extracted from committee output.

    Detectors consume this normalized form so a decision batch is
    unpacked exactly once per observe call (and so per-shard stacks can
    slice observations without re-touching the source batch).

    Attributes:
        flags: per-sample drifting verdicts.
        credibility: per-sample conformal p-values.
        disagreement: per-sample expert-split indicator (1.0 when the
            committee was not unanimous), the accuracy proxy.
    """

    flags: tuple
    credibility: tuple
    disagreement: tuple

    def __len__(self) -> int:
        """Number of samples observed."""
        return len(self.flags)

    @classmethod
    def from_decisions(cls, decisions) -> "ObservationBatch":
        """Normalize a ``DecisionBatch`` or ``Decision`` iterable."""
        if isinstance(decisions, ObservationBatch):
            return decisions
        if isinstance(decisions, DecisionBatch):
            flags = tuple(bool(f) for f in np.asarray(decisions.drifting))
            credibility = tuple(
                float(c) for c in np.asarray(decisions.credibility, dtype=float)
            )
            accepts = decisions.expert_accept.sum(axis=0)
            n_experts = decisions.expert_accept.shape[0]
            disagreement = tuple(
                float(0 < a < n_experts) for a in accepts
            )
            return cls(flags, credibility, disagreement)
        decisions = list(decisions)
        flags = tuple(bool(d.drifting) for d in decisions)
        credibility = tuple(float(d.credibility) for d in decisions)
        disagreement = tuple(
            0.0
            if not d.votes
            else float(0 < sum(1 for v in d.votes if v.accept) < len(d.votes))
            for d in decisions
        )
        return cls(flags, credibility, disagreement)

    def select(self, indices) -> "ObservationBatch":
        """The sub-batch at ``indices`` (per-shard routing)."""
        return ObservationBatch(
            flags=tuple(self.flags[i] for i in indices),
            credibility=tuple(self.credibility[i] for i in indices),
            disagreement=tuple(self.disagreement[i] for i in indices),
        )


# -- detection windows -------------------------------------------------------------


class DetectionWindows:
    """Current + reference observation windows for one detector.

    The *current* window holds the most recent observations — either
    the last ``size`` samples (``mode="amount"``) or every sample of
    the last ``size`` observe steps (``mode="steps"``, the logical-time
    window).  The *reference* window is a seeded reservoir sample over
    every observation ever pushed, so distribution detectors keep a
    stationary baseline even after drift has flushed through the
    current window.

    Args:
        size: current-window span (samples or steps, per ``mode``).
        mode: ``"amount"`` or ``"steps"``.
        reference_size: reservoir capacity of the reference window.
        seed: reservoir RNG seed — explicit so trigger state is
            checkpoint-covered (promlint PL004).
    """

    def __init__(
        self,
        size: int = 100,
        mode: str = "amount",
        reference_size: int = 256,
        seed: int = 0,
    ):
        if size < 1:
            raise ConfigurationError(f"window size must be >= 1, got {size}")
        if mode not in WINDOW_MODES:
            raise ConfigurationError(
                f"window mode must be one of {WINDOW_MODES}, got {mode!r}"
            )
        if reference_size < 1:
            raise ConfigurationError(
                f"reference_size must be >= 1, got {reference_size}"
            )
        self.size = int(size)
        self.mode = mode
        self.reference_size = int(reference_size)
        self.seed = int(seed)
        self._samples = deque(maxlen=size) if mode == "amount" else None
        self._steps = deque(maxlen=size) if mode == "steps" else None
        self._reference = []
        self._rng = np.random.default_rng(seed)
        self._n_pushed = 0

    @property
    def current(self) -> tuple:
        """The current-window observations, oldest first."""
        if self.mode == "amount":
            return tuple(self._samples)
        return tuple(v for step in self._steps for v in step)

    @property
    def reference(self) -> tuple:
        """The reservoir-sampled reference observations."""
        return tuple(self._reference)

    @property
    def n_pushed(self) -> int:
        """Observations pushed over this window's lifetime."""
        return self._n_pushed

    def push(self, values) -> None:
        """Ingest one observe step's observations."""
        values = [float(v) for v in values]
        if self.mode == "amount":
            self._samples.extend(values)
        else:
            self._steps.append(tuple(values))
        for value in values:
            self._n_pushed += 1
            if len(self._reference) < self.reference_size:
                self._reference.append(value)
            else:
                # reservoir algorithm R: keep each of the n pushed
                # observations with probability reference_size / n
                slot = int(self._rng.integers(self._n_pushed))
                if slot < self.reference_size:
                    self._reference[slot] = value

    def reset(self, reference: bool = False) -> None:
        """Clear the current window; optionally re-warm the reference.

        ``reference=True`` restores the construction state exactly —
        empty reservoir, reseeded RNG, zero counters — so a fully reset
        window is bit-identical to a fresh one (the deterministic
        re-warm contract of DESIGN.md §7).
        """
        if self.mode == "amount":
            self._samples.clear()
        else:
            self._steps.clear()
        if reference:
            self._reference = []
            self._rng = np.random.default_rng(self.seed)
            self._n_pushed = 0

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of the window state."""
        state = {
            "mode": self.mode,
            "size": self.size,
            "reference_size": self.reference_size,
            "seed": self.seed,
            "reference": list(self._reference),
            "n_pushed": self._n_pushed,
            "rng": self._rng.bit_generator.state,
        }
        if self.mode == "amount":
            state["current"] = list(self._samples)
        else:
            state["steps"] = [list(step) for step in self._steps]
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        if state.get("mode") != self.mode or state.get("size") != self.size:
            raise ValidationError(
                f"window state is {state.get('mode')!r}/{state.get('size')}, "
                f"this window is {self.mode!r}/{self.size}"
            )
        if self.mode == "amount":
            self._samples = deque(
                (float(v) for v in state["current"]), maxlen=self.size
            )
        else:
            self._steps = deque(
                (tuple(float(v) for v in step) for step in state["steps"]),
                maxlen=self.size,
            )
        self._reference = [float(v) for v in state["reference"]]
        self._n_pushed = int(state["n_pushed"])
        self._rng = np.random.default_rng(self.seed)
        self._rng.bit_generator.state = state["rng"]


# -- detectors ---------------------------------------------------------------------


class DriftDetector(abc.ABC):
    """One drift metric over a pair of detection windows.

    Subclasses pick which observation column they watch
    (:meth:`update`) and how the windows condense into a scalar
    (:meth:`metric`).  Higher metric values always mean *more* drift
    evidence, so every decision policy composes with every detector.
    """

    #: short name used in TriggerDecision records and state dicts
    name = "detector"

    def __init__(self, windows: DetectionWindows):
        self.windows = windows

    @abc.abstractmethod
    def update(self, observations: ObservationBatch) -> None:
        """Ingest one observe step's observations."""

    @abc.abstractmethod
    def metric(self) -> float:
        """Current drift evidence (higher = more drifted)."""

    def ready(self) -> bool:
        """Whether enough data arrived for :meth:`metric` to mean much."""
        return len(self.windows.current) > 0

    def reset(self, reference: bool = False) -> None:
        """Clear the current window (and optionally the reference)."""
        self.windows.reset(reference=reference)

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of the detector state."""
        return {"name": self.name, "windows": self.windows.state_dict()}

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        if state.get("name") != self.name:
            raise ValidationError(
                f"detector state is for {state.get('name')!r}, "
                f"this detector is {self.name!r}"
            )
        self.windows.load_state_dict(state["windows"])


class CredibilityDetector(DriftDetector):
    """Windowed rejection rate — the historical monitor's metric.

    Watches the committee's per-sample drifting verdicts (credibility
    below the calibrated threshold) and reports their rate over the
    current window.  With a static threshold policy and the legacy
    warmup this is decision-identical to the historical monitor.
    """

    name = "credibility"

    def update(self, observations: ObservationBatch) -> None:
        """Push this step's drifting flags."""
        self.windows.push(float(f) for f in observations.flags)

    def metric(self) -> float:
        """Rejection rate over the current window (0 when empty).

        Computed as ``sum/len`` over 0.0/1.0 flags — bit-identical to
        the legacy integer ``sum/len`` for any window that fits in a
        float's exact-integer range.
        """
        current = self.windows.current
        if not current:
            return 0.0
        return sum(current) / len(current)


def _ks_statistic(current, reference) -> float:
    """Two-sample Kolmogorov–Smirnov statistic."""
    a = np.sort(np.asarray(current, dtype=float))
    b = np.sort(np.asarray(reference, dtype=float))
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / len(a)
    cdf_b = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.max(np.abs(cdf_a - cdf_b)))


def _ks_p_value(statistic: float, n_current: int, n_reference: int) -> float:
    """Asymptotic two-sample KS significance (Q_KS series)."""
    if statistic <= 0.0:
        return 1.0
    effective = n_current * n_reference / (n_current + n_reference)
    lam = (np.sqrt(effective) + 0.12 + 0.11 / np.sqrt(effective)) * statistic
    j = np.arange(1, 101)
    terms = 2.0 * ((-1.0) ** (j - 1)) * np.exp(-2.0 * (j * lam) ** 2)
    return float(min(max(terms.sum(), 0.0), 1.0))


class PValueDetector(DriftDetector):
    """Two-sample KS test: current vs reference credibility windows.

    The *raw hypothesis testing* detector: it compares the conformal
    p-value (credibility) distribution of the current window against
    the reservoir-sampled reference and reports ``1 - p`` of the KS
    test as its metric, so a static threshold of ``1 - alpha``
    reproduces a textbook significance cut.  Measured oversensitive at
    production window sizes (overlapping windows = massive multiple
    testing) — pair it with a dynamic policy instead; the repro of
    that finding lives in ``benchmarks/bench_triggers.py`` and is
    locked in by ``tests/core/test_triggers.py``.

    Args:
        windows: detection windows over credibility values.
        min_samples: smallest per-side sample count the test runs on.
    """

    name = "p_value"

    def __init__(self, windows: DetectionWindows, min_samples: int = 10):
        super().__init__(windows)
        if min_samples < 2:
            raise ConfigurationError(
                f"min_samples must be >= 2, got {min_samples}"
            )
        self.min_samples = int(min_samples)

    def update(self, observations: ObservationBatch) -> None:
        """Push this step's credibility values."""
        self.windows.push(observations.credibility)

    def ready(self) -> bool:
        """Both windows hold at least ``min_samples`` observations."""
        return (
            len(self.windows.current) >= self.min_samples
            and len(self.windows.reference) >= self.min_samples
        )

    def statistic(self) -> float:
        """The raw KS statistic between current and reference."""
        if not self.ready():
            return 0.0
        return _ks_statistic(self.windows.current, self.windows.reference)

    def p_value(self) -> float:
        """Asymptotic significance of the current KS statistic."""
        if not self.ready():
            return 1.0
        return _ks_p_value(
            self.statistic(),
            len(self.windows.current),
            len(self.windows.reference),
        )

    def metric(self) -> float:
        """``1 - p_value`` — higher means stronger drift evidence."""
        return 1.0 - self.p_value()


class AccuracyProxyDetector(DriftDetector):
    """Windowed expert-disagreement rate — a label-free accuracy proxy.

    A committee that stops being unanimous is losing accuracy before
    the rejection rate shows it (the leading indicator noted in
    :class:`~repro.core.report.DriftReport`); this detector makes that
    signal triggerable without oracle labels.
    """

    name = "accuracy_proxy"

    def update(self, observations: ObservationBatch) -> None:
        """Push this step's expert-split indicators."""
        self.windows.push(observations.disagreement)

    def metric(self) -> float:
        """Expert-disagreement rate over the current window."""
        current = self.windows.current
        if not current:
            return 0.0
        return sum(current) / len(current)


# -- decision policies -------------------------------------------------------------


class DriftDecisionPolicy(abc.ABC):
    """Condense a drift-metric series into fire/no-fire decisions.

    ``last_threshold`` always reports the effective threshold the most
    recent :meth:`decide` compared against, so dynamic policies stay
    observable per step.
    """

    def __init__(self):
        self.last_threshold = float("inf")

    @abc.abstractmethod
    def decide(self, metric: float) -> bool:
        """Whether this metric value fires the trigger."""

    def reset(self) -> None:
        """Drop adaptive state (called after accepted model updates)."""
        self.last_threshold = float("inf")

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of the policy state."""
        return {}

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""


class StaticThresholdPolicy(DriftDecisionPolicy):
    """Fire whenever the metric crosses a fixed threshold.

    The legacy policy (``metric >= threshold``); with
    :class:`PValueDetector` and ``threshold = 1 - alpha`` it is exactly
    a raw hypothesis test at significance ``alpha``.

    Args:
        threshold: fixed firing threshold, in ``(0, 1]``.
    """

    def __init__(self, threshold: float = 0.3):
        super().__init__()
        if not 0.0 < threshold <= 1.0:
            raise ConfigurationError(
                f"threshold must be in (0, 1], got {threshold}"
            )
        self.threshold = float(threshold)
        self.last_threshold = self.threshold

    def decide(self, metric: float) -> bool:
        """``metric >= threshold``."""
        self.last_threshold = self.threshold
        return metric >= self.threshold

    def reset(self) -> None:
        """Stateless — nothing to drop."""
        self.last_threshold = self.threshold


class QuantileThresholdPolicy(DriftDecisionPolicy):
    """Fire when the metric exceeds a rolling quantile of its history.

    The dynamic threshold Modyn found robust where raw hypothesis
    testing is oversensitive: the policy calibrates itself to whatever
    the metric does on *this* deployment's stationary traffic and fires
    only on excursions above its recent ``quantile``.  Decisions start
    once half the history window has filled; the current metric is
    compared against history *excluding itself*, then recorded.

    Args:
        quantile: history quantile used as the threshold, in (0, 1).
        history: metric observations retained (>= 2).
    """

    def __init__(self, quantile: float = 0.95, history: int = 32):
        super().__init__()
        if not 0.0 < quantile < 1.0:
            raise ConfigurationError(
                f"quantile must be in (0, 1), got {quantile}"
            )
        if history < 2:
            raise ConfigurationError(f"history must be >= 2, got {history}")
        self.quantile = float(quantile)
        self.history = int(history)
        self._values = deque(maxlen=history)

    def decide(self, metric: float) -> bool:
        """``metric > quantile(history)`` once history is warm."""
        fired = False
        if len(self._values) >= max(1, self.history // 2):
            self.last_threshold = float(
                np.quantile(np.asarray(self._values, dtype=float), self.quantile)
            )
            fired = metric > self.last_threshold
        else:
            self.last_threshold = float("inf")
        self._values.append(float(metric))
        return fired

    def reset(self) -> None:
        """Drop the metric history (the distribution just changed)."""
        self._values.clear()
        self.last_threshold = float("inf")

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of the policy state."""
        return {
            "values": list(self._values),
            "last_threshold": self.last_threshold,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        self._values = deque(
            (float(v) for v in state["values"]), maxlen=self.history
        )
        self.last_threshold = float(state["last_threshold"])


class EWMAThresholdPolicy(DriftDecisionPolicy):
    """Fire when the metric leaves an EWMA control band.

    Tracks an exponentially weighted mean and variance of the metric
    and fires on ``metric > mean + widen * std`` — the annealed-
    criterion shape: the band keeps adapting, so sustained level shifts
    fire once at onset instead of on every step.

    Args:
        alpha: EWMA smoothing factor, in (0, 1].
        widen: band width in EWMA standard deviations (>= 0).
        warm_steps: metric observations before decisions start.
    """

    def __init__(
        self, alpha: float = 0.3, widen: float = 2.0, warm_steps: int = 5
    ):
        super().__init__()
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError(f"alpha must be in (0, 1], got {alpha}")
        if widen < 0.0:
            raise ConfigurationError(f"widen must be >= 0, got {widen}")
        if warm_steps < 1:
            raise ConfigurationError(
                f"warm_steps must be >= 1, got {warm_steps}"
            )
        self.alpha = float(alpha)
        self.widen = float(widen)
        self.warm_steps = int(warm_steps)
        self._n = 0
        self._mean = 0.0
        self._variance = 0.0

    def decide(self, metric: float) -> bool:
        """Band check against pre-update statistics, then fold in."""
        fired = False
        if self._n >= self.warm_steps:
            self.last_threshold = self._mean + self.widen * float(
                np.sqrt(self._variance)
            )
            fired = metric > self.last_threshold
        else:
            self.last_threshold = float("inf")
        delta = float(metric) - self._mean
        self._mean += self.alpha * delta
        self._variance = (1.0 - self.alpha) * (
            self._variance + self.alpha * delta * delta
        )
        self._n += 1
        return fired

    def reset(self) -> None:
        """Drop the control band (the distribution just changed)."""
        self._n = 0
        self._mean = 0.0
        self._variance = 0.0
        self.last_threshold = float("inf")

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of the policy state."""
        return {
            "n": self._n,
            "mean": self._mean,
            "variance": self._variance,
            "last_threshold": self.last_threshold,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        self._n = int(state["n"])
        self._mean = float(state["mean"])
        self._variance = float(state["variance"])
        self.last_threshold = float(state["last_threshold"])


class HysteresisPolicy(DriftDecisionPolicy):
    """Fire at ``enter``; stay fired until the metric drops below ``exit``.

    Debounces a metric that oscillates around a single threshold: a
    trigger that entered the fired state keeps firing while the metric
    stays above the (lower) exit threshold, so the maintenance plane
    sees one sustained alarm instead of a flapping one.

    Args:
        enter: threshold that arms the alarm, in (0, 1].
        exit_below: threshold that disarms it (must be <= ``enter``).
    """

    def __init__(self, enter: float = 0.3, exit_below: float = 0.15):
        super().__init__()
        if not 0.0 < enter <= 1.0:
            raise ConfigurationError(f"enter must be in (0, 1], got {enter}")
        if not 0.0 <= exit_below <= enter:
            raise ConfigurationError(
                f"exit_below must be in [0, enter], got {exit_below}"
            )
        self.enter = float(enter)
        self.exit_below = float(exit_below)
        self._active = False

    def decide(self, metric: float) -> bool:
        """Two-threshold comparison with memory of the armed state."""
        self.last_threshold = self.exit_below if self._active else self.enter
        self._active = metric >= self.last_threshold
        return self._active

    def reset(self) -> None:
        """Disarm the alarm."""
        self._active = False
        self.last_threshold = self.enter

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of the policy state."""
        return {"active": self._active, "last_threshold": self.last_threshold}

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        self._active = bool(state["active"])
        self.last_threshold = float(state["last_threshold"])


class WarmupPolicy:
    """Minimum current-window fill before a trigger may fire.

    The legacy monitor required ``min(10, window)`` observed samples
    before alerting, and re-required them after every window reset;
    this object makes that rule explicit and swappable.

    Args:
        min_samples: smallest window fill that may fire (>= 0).
    """

    def __init__(self, min_samples: int = 10):
        if min_samples < 0:
            raise ConfigurationError(
                f"min_samples must be >= 0, got {min_samples}"
            )
        self.min_samples = int(min_samples)

    def ready(self, window_fill: int) -> bool:
        """Whether ``window_fill`` observations satisfy the warmup."""
        return window_fill >= self.min_samples


# -- triggers ----------------------------------------------------------------------


@dataclass(frozen=True)
class TriggerDecision:
    """One observe step's outcome for a trigger (or trigger stack).

    Attributes:
        fired: the combined fire/no-fire verdict.
        metric: the primary detector's metric value.
        threshold: the effective threshold it was compared against
            (``inf`` while the policy itself is still warming).
        detector: the primary detector's name.
        window_fill: current-window fill after this step.
        warmed: whether the warmup policy allowed firing.
        votes: per-trigger decisions when this is an ensemble verdict.
    """

    fired: bool
    metric: float
    threshold: float
    detector: str
    window_fill: int
    warmed: bool
    votes: tuple = ()


class DriftTrigger:
    """One assembled (windows, detector, policy, warmup) trigger unit.

    Args:
        detector: the :class:`DriftDetector` (owns its windows).
        policy: the :class:`DriftDecisionPolicy`.
        warmup: optional :class:`WarmupPolicy`; ``None`` fires as soon
            as the detector itself is ready.
        name: display name (defaults to the detector's).
    """

    def __init__(
        self,
        detector: DriftDetector,
        policy: DriftDecisionPolicy,
        warmup: WarmupPolicy | None = None,
        name: str | None = None,
    ):
        self.detector = detector
        self.policy = policy
        self.warmup = warmup
        self.name = name or detector.name

    def observe_batch(self, decisions) -> TriggerDecision:
        """Ingest one step's decisions and decide fire/no-fire.

        The policy sees the metric of every step (so dynamic thresholds
        calibrate during warmup too), but ``fired`` is masked until the
        detector is ready and the warmup is satisfied.
        """
        observations = ObservationBatch.from_decisions(decisions)
        self.detector.update(observations)
        metric = self.detector.metric()
        fill = len(self.detector.windows.current)
        warmed = self.detector.ready() and (
            self.warmup is None or self.warmup.ready(fill)
        )
        decided = self.policy.decide(metric)
        return TriggerDecision(
            fired=bool(decided and warmed),
            metric=float(metric),
            threshold=float(self.policy.last_threshold),
            detector=self.name,
            window_fill=fill,
            warmed=warmed,
        )

    def reset(self, lifetime: bool = False) -> None:
        """Clear window + policy state; ``lifetime=True`` re-warms fully."""
        self.detector.reset(reference=lifetime)
        self.policy.reset()

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of detector + policy state."""
        return {
            "name": self.name,
            "detector": self.detector.state_dict(),
            "policy": self.policy.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        if state.get("name") != self.name:
            raise ValidationError(
                f"trigger state is for {state.get('name')!r}, "
                f"this trigger is {self.name!r}"
            )
        self.detector.load_state_dict(state["detector"])
        self.policy.load_state_dict(state["policy"])


def _combine_votes(votes: tuple, ensemble: str) -> bool:
    """Any/all/majority combination of per-trigger verdicts."""
    fired = [vote.fired for vote in votes]
    if ensemble == "any":
        return any(fired)
    if ensemble == "all":
        return all(fired)
    return sum(fired) * 2 > len(fired)


class TriggerStack:
    """An ensemble of triggers behind the legacy monitor protocol.

    This is what the deployment loop holds: it exposes the historical
    monitor's surface (``observe`` / ``observe_batch`` /
    ``rejection_rate`` / ``alert`` / ``lifetime_rejection_rate`` /
    ``reset``) plus trigger observability (:attr:`last_decision`),
    durability (:meth:`state_dict` / :meth:`load_state_dict`) and the
    cost-aware relabel budget (:meth:`relabel_budget`).  All entry
    points are serialized on one internal leaf lock, so serving threads
    may observe while a maintenance worker checkpoints the state.

    The stack always tracks the windowed rejection-rate flags itself
    (independent of which detectors are configured), so
    ``rejection_rate`` stays legacy-identical even for stacks built
    without a credibility detector.

    Args:
        triggers: the :class:`DriftTrigger` members (>= 1); the first
            is the *primary* whose metric/threshold the combined
            :class:`TriggerDecision` reports.
        ensemble: ``"any"`` / ``"all"`` / ``"majority"``.
        window: span of the stack's own rejection-rate flag window.
        budget_policy: optional :class:`CostAwareBudgetPolicy`.
    """

    def __init__(
        self,
        triggers,
        ensemble: str = "any",
        window: int = 100,
        budget_policy=None,
    ):
        triggers = tuple(triggers)
        if not triggers:
            raise ConfigurationError("TriggerStack needs at least one trigger")
        if ensemble not in ENSEMBLE_MODES:
            raise ConfigurationError(
                f"ensemble must be one of {ENSEMBLE_MODES}, got {ensemble!r}"
            )
        if window < 1:
            raise ConfigurationError(f"window must be >= 1, got {window}")
        self.triggers = triggers
        self.ensemble = ensemble
        self.window = int(window)
        self.budget_policy = budget_policy
        self._flags = deque(maxlen=window)
        self._total_seen = 0
        self._total_rejected = 0
        self._last = None
        self._lock = threading.RLock()

    def observe(self, decision) -> bool:
        """Record one decision; returns the current alert state."""
        return self.observe_batch([decision])

    def observe_batch(self, decisions) -> bool:
        """Record a batch of decisions; returns the current alert state."""
        observations = ObservationBatch.from_decisions(decisions)
        with self._lock:
            if len(observations) == 0:
                return self.alert
            self._ingest(observations)
            return self.alert

    def observe_stream_batch(self, decisions, raw=None, labels=None) -> bool:
        """The deployment-loop entry point.

        ``raw`` / ``labels`` carry routing context for per-shard stacks
        (:class:`PerShardTriggerStack`); the global stack ignores them,
        which keeps the two interchangeable at the call site.
        """
        return self.observe_batch(decisions)

    def _ingest(self, observations: ObservationBatch) -> None:
        """Update flags, counters and every member trigger (locked)."""
        self._flags.extend(observations.flags)
        self._total_seen += len(observations)
        self._total_rejected += sum(1 for f in observations.flags if f)
        votes = tuple(
            trigger.observe_batch(observations) for trigger in self.triggers
        )
        primary = votes[0]
        self._last = TriggerDecision(
            fired=_combine_votes(votes, self.ensemble),
            metric=primary.metric,
            threshold=primary.threshold,
            detector=primary.detector,
            window_fill=primary.window_fill,
            warmed=primary.warmed,
            votes=votes,
        )

    @property
    def last_decision(self) -> TriggerDecision | None:
        """The most recent combined decision (``None`` before/after reset)."""
        return self._last

    @property
    def rejection_rate(self) -> float:
        """Rejection rate over the stack's flag window (0 when empty)."""
        with self._lock:
            if not self._flags:
                return 0.0
            return sum(self._flags) / len(self._flags)

    @property
    def alert(self) -> bool:
        """Whether the most recent observe step fired the ensemble."""
        last = self._last
        return bool(last is not None and last.fired)

    @property
    def lifetime_rejection_rate(self) -> float:
        """Rejection rate since creation (survives window resets)."""
        with self._lock:
            if self._total_seen == 0:
                return 0.0
            return self._total_rejected / self._total_seen

    def relabel_budget(self, base_fraction: float) -> float:
        """The effective relabel budget for the last observed step.

        Pass-through of ``base_fraction`` unless a
        :class:`CostAwareBudgetPolicy` is attached — so the default
        stack's deployment behaviour is identical to the legacy loop.
        """
        with self._lock:
            if self.budget_policy is None:
                return base_fraction
            return self.budget_policy.budget(base_fraction, self._last)

    def reset(self, lifetime: bool = False) -> None:
        """Clear windows and policy state (e.g. after a model update).

        Mirrors the legacy contract: lifetime counters survive unless
        ``lifetime=True``, which re-warms everything deterministically
        (reference reservoirs re-seeded) so a fully reset stack is
        bit-identical to a fresh one.
        """
        with self._lock:
            self._flags.clear()
            self._last = None
            for trigger in self.triggers:
                trigger.reset(lifetime=lifetime)
            if lifetime:
                self._total_seen = 0
                self._total_rejected = 0

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of the whole stack (DESIGN.md §7)."""
        with self._lock:
            return {
                "version": _STATE_VERSION,
                "kind": "stack",
                "window": self.window,
                "ensemble": self.ensemble,
                "flags": [int(f) for f in self._flags],
                "total_seen": self._total_seen,
                "total_rejected": self._total_rejected,
                "triggers": [t.state_dict() for t in self.triggers],
            }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot onto this stack."""
        if state.get("version") != _STATE_VERSION or state.get("kind") != "stack":
            raise ValidationError(
                f"unsupported trigger state {state.get('kind')!r} "
                f"v{state.get('version')!r}"
            )
        if len(state.get("triggers", ())) != len(self.triggers):
            raise ValidationError(
                f"trigger state has {len(state.get('triggers', ()))} members, "
                f"this stack has {len(self.triggers)}"
            )
        with self._lock:
            self._flags = deque(
                (bool(f) for f in state["flags"]), maxlen=self.window
            )
            self._total_seen = int(state["total_seen"])
            self._total_rejected = int(state["total_rejected"])
            self._last = None
            for trigger, sub in zip(self.triggers, state["triggers"]):
                trigger.load_state_dict(sub)


class PerShardTriggerStack:
    """Per-shard trigger instances keyed off a shard router.

    Routes each observed sample to the shard that would store it and
    feeds that shard's own :class:`TriggerStack`, so drift localized to
    one shard fires without having to dominate the global window — the
    signal the drift-aware-eviction and adaptive-spill ROADMAP items
    consume.  The ensemble fires when any shard stack fires.

    Thread-safety: all observation and checkpoint entry points take one
    internal leaf lock, and routing reads the router *snapshot* this
    stack was constructed with — never the live, mutating shard state —
    so observing is safe while :class:`~repro.core.serving.AsyncServingLoop`
    maintenance churns the calibration shards.

    Args:
        factory: ``factory(shard_id) -> TriggerStack`` building one
            per-shard stack (seeds should derive from ``shard_id`` so
            the assembly is deterministic).
        router: a fitted :class:`~repro.core.sharding.ShardRouter`
            used to route observations (read-only).
        n_shards: shard count (stacks are built eagerly).
        featurizer: optional callable mapping raw inputs to routing
            features (``interface.feature_extraction``); used when
            ``observe_stream_batch`` receives ``raw`` without
            ``features``.
        window: span of the global rejection-rate flag window.
    """

    def __init__(
        self,
        factory,
        router,
        n_shards: int,
        featurizer=None,
        window: int = 100,
    ):
        if n_shards < 1:
            raise ConfigurationError(f"n_shards must be >= 1, got {n_shards}")
        if window < 1:
            raise ConfigurationError(f"window must be >= 1, got {window}")
        self.router = router
        self.n_shards = int(n_shards)
        self.featurizer = featurizer
        self.window = int(window)
        self.shard_stacks = tuple(factory(shard) for shard in range(n_shards))
        self._flags = deque(maxlen=window)
        self._total_seen = 0
        self._total_rejected = 0
        self._last = None
        self._fired_shards = ()
        self._lock = threading.RLock()

    def observe(self, decision) -> bool:
        """Record one decision (unrouted; lands on shard 0)."""
        return self.observe_batch([decision])

    def observe_batch(self, decisions) -> bool:
        """Record a batch without routing context (lands on shard 0)."""
        return self.observe_stream_batch(decisions)

    def observe_stream_batch(self, decisions, raw=None, labels=None) -> bool:
        """Route one batch's decisions to their shards and observe.

        ``raw`` is featurized through ``featurizer`` when no explicit
        features are derivable; without any routing context the whole
        batch lands on shard 0 (degraded but safe).  ``labels`` feeds
        label-keyed routers (the model's *predicted* labels at serving
        time, mirroring :class:`~repro.core.pruning.CandidatePruner`).
        """
        observations = ObservationBatch.from_decisions(decisions)
        if len(observations) == 0:
            return self.alert
        shard_ids = self._route(len(observations), raw, labels)
        with self._lock:
            self._flags.extend(observations.flags)
            self._total_seen += len(observations)
            self._total_rejected += sum(1 for f in observations.flags if f)
            votes = []
            fired_shards = []
            for shard in range(self.n_shards):
                indices = [
                    i for i, s in enumerate(shard_ids) if s == shard
                ]
                if not indices:
                    continue
                stack = self.shard_stacks[shard]
                stack.observe_batch(observations.select(indices))
                decision = stack.last_decision
                if decision is not None:
                    votes.append(decision)
                    if decision.fired:
                        fired_shards.append(shard)
            fired = bool(fired_shards)
            primary = max(votes, key=lambda v: v.metric) if votes else None
            self._fired_shards = tuple(fired_shards)
            self._last = TriggerDecision(
                fired=fired,
                metric=primary.metric if primary else 0.0,
                threshold=primary.threshold if primary else float("inf"),
                detector=primary.detector if primary else "",
                window_fill=primary.window_fill if primary else 0,
                warmed=bool(primary and primary.warmed),
                votes=tuple(votes),
            )
            return fired

    def _route(self, n: int, raw, labels) -> np.ndarray:
        """Shard assignment for ``n`` samples from the routing context."""
        if self.router is None or raw is None or self.featurizer is None:
            return np.zeros(n, dtype=int)
        features = self.featurizer(np.asarray(raw))
        routed = np.asarray(
            self.router.route(features, labels), dtype=int
        )
        return np.clip(routed, 0, self.n_shards - 1)

    @property
    def last_decision(self) -> TriggerDecision | None:
        """The most recent combined decision (max-metric shard primary)."""
        return self._last

    @property
    def fired_shards(self) -> tuple:
        """Shard ids whose stacks fired on the most recent step."""
        return self._fired_shards

    @property
    def rejection_rate(self) -> float:
        """Global rejection rate over the flag window (0 when empty)."""
        with self._lock:
            if not self._flags:
                return 0.0
            return sum(self._flags) / len(self._flags)

    @property
    def alert(self) -> bool:
        """Whether any shard stack fired on the most recent step."""
        last = self._last
        return bool(last is not None and last.fired)

    @property
    def lifetime_rejection_rate(self) -> float:
        """Global rejection rate since creation."""
        with self._lock:
            if self._total_seen == 0:
                return 0.0
            return self._total_rejected / self._total_seen

    def relabel_budget(self, base_fraction: float) -> float:
        """Delegate to the highest-severity fired shard's budget policy."""
        with self._lock:
            for shard in self._fired_shards:
                stack = self.shard_stacks[shard]
                if stack.budget_policy is not None:
                    return stack.budget_policy.budget(
                        base_fraction, stack.last_decision
                    )
            return base_fraction

    def reset(self, lifetime: bool = False) -> None:
        """Reset every shard stack plus the global window/counters."""
        with self._lock:
            self._flags.clear()
            self._last = None
            self._fired_shards = ()
            for stack in self.shard_stacks:
                stack.reset(lifetime=lifetime)
            if lifetime:
                self._total_seen = 0
                self._total_rejected = 0

    def state_dict(self) -> dict:
        """JSON-serializable snapshot across every shard stack."""
        with self._lock:
            return {
                "version": _STATE_VERSION,
                "kind": "per_shard",
                "window": self.window,
                "n_shards": self.n_shards,
                "flags": [int(f) for f in self._flags],
                "total_seen": self._total_seen,
                "total_rejected": self._total_rejected,
                "shards": [s.state_dict() for s in self.shard_stacks],
            }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot onto this stack."""
        if (
            state.get("version") != _STATE_VERSION
            or state.get("kind") != "per_shard"
        ):
            raise ValidationError(
                f"unsupported trigger state {state.get('kind')!r} "
                f"v{state.get('version')!r}"
            )
        if state.get("n_shards") != self.n_shards:
            raise ValidationError(
                f"trigger state has {state.get('n_shards')} shards, "
                f"this stack has {self.n_shards}"
            )
        with self._lock:
            self._flags = deque(
                (bool(f) for f in state["flags"]), maxlen=self.window
            )
            self._total_seen = int(state["total_seen"])
            self._total_rejected = int(state["total_rejected"])
            self._last = None
            self._fired_shards = ()
            for stack, sub in zip(self.shard_stacks, state["shards"]):
                stack.load_state_dict(sub)


# -- cost-aware relabel budget -----------------------------------------------------


@dataclass(frozen=True)
class CoverageCostModel:
    """Expected decision-agreement loss as a function of prune spill.

    The default curve is the PR 8 coverage study
    (``BENCH_segment_eval.json: coverage_vs_spill``, cluster router —
    the worst measured case): agreement with the unpruned path at
    spill 0 / 0.25 / 0.5 / 1.0 under drift.  ``expected_loss`` is
    ``1 - agreement`` linearly interpolated over that curve.

    Attributes:
        spills: measured spill settings, ascending.
        agreement: measured agreement-with-unpruned at each spill.
    """

    spills: tuple = (0.0, 0.25, 0.5, 1.0)
    agreement: tuple = (0.55, 0.795, 0.915, 1.0)

    def __post_init__(self):
        if len(self.spills) != len(self.agreement) or len(self.spills) < 2:
            raise ConfigurationError(
                "spills and agreement must be equal-length (>= 2) curves"
            )
        if list(self.spills) != sorted(self.spills):
            raise ConfigurationError("spills must be ascending")

    def expected_loss(self, spill: float) -> float:
        """``1 - agreement`` interpolated at ``spill``, clipped to [0, 1]."""
        agreement = float(np.interp(spill, self.spills, self.agreement))
        return float(min(max(1.0 - agreement, 0.0), 1.0))


class CostAwareBudgetPolicy:
    """Scale the relabel budget by severity × expected coverage loss.

    When a trigger fires, the effective budget rises from the loop's
    base fraction toward ``ceiling``, scaled by the larger of (a) how
    far the metric overshot its threshold and (b) the expected
    coverage loss at the deployment's prune-spill setting — drifted
    traffic served under aggressive pruning has lost the most
    agreement (PR 8's study), so it earns the most oracle labels.
    Without a fire the base budget passes through untouched.

    Args:
        ceiling: largest budget fraction the policy may spend, (0, 1].
        cost_model: the agreement-vs-spill curve (PR 8 defaults).
        spill: the deployment's prune-spill setting, in [0, 1]
            (1.0 = exact mode, no expected coverage loss).
    """

    def __init__(
        self,
        ceiling: float = 0.25,
        cost_model: CoverageCostModel | None = None,
        spill: float = 1.0,
    ):
        if not 0.0 < ceiling <= 1.0:
            raise ConfigurationError(
                f"ceiling must be in (0, 1], got {ceiling}"
            )
        if not 0.0 <= spill <= 1.0:
            raise ConfigurationError(f"spill must be in [0, 1], got {spill}")
        self.ceiling = float(ceiling)
        self.cost_model = cost_model or CoverageCostModel()
        self.spill = float(spill)

    def budget(self, base_fraction: float, decision) -> float:
        """The effective budget fraction for one observed step."""
        if decision is None or not decision.fired:
            return base_fraction
        if base_fraction >= self.ceiling:
            return base_fraction
        threshold = decision.threshold
        if not np.isfinite(threshold):
            severity = 1.0
        else:
            span = max(threshold, 1.0 - threshold, 1e-12)
            severity = min(
                1.0, max(0.0, (decision.metric - threshold) / span)
            )
        loss = self.cost_model.expected_loss(self.spill)
        scale = max(severity, loss)
        return min(
            1.0, base_fraction + (self.ceiling - base_fraction) * scale
        )


# -- assembly ----------------------------------------------------------------------

def observe_decisions(monitor, decisions, raw=None, labels=None) -> bool:
    """Observe one batch through a trigger stack; returns the alert verdict.

    ``raw`` / ``labels`` carry the routing context a
    :class:`PerShardTriggerStack` keys on (a global :class:`TriggerStack`
    ignores them).  The single call site both the deployment loop and
    the async serving loop use.
    """
    return monitor.observe_stream_batch(decisions, raw=raw, labels=labels)


def _build_policy(config) -> DriftDecisionPolicy:
    """One decision policy per the config's ``policy`` selector."""
    if config.policy == "static":
        return StaticThresholdPolicy(config.threshold)
    if config.policy == "quantile":
        return QuantileThresholdPolicy(config.quantile, config.history)
    if config.policy == "ewma":
        return EWMAThresholdPolicy(config.ewma_alpha, config.ewma_widen)
    if config.policy == "hysteresis":
        exit_below = (
            config.hysteresis_exit
            if config.hysteresis_exit is not None
            else config.threshold / 2.0
        )
        return HysteresisPolicy(config.threshold, exit_below)
    raise ConfigurationError(
        f"policy must be one of {TRIGGER_POLICY_CHOICES}, got {config.policy!r}"
    )


def _build_detector(name: str, config, seed: int) -> DriftDetector:
    """One detector per the config, with its own seeded windows."""
    windows = DetectionWindows(
        size=config.window,
        mode=config.window_mode,
        reference_size=config.reference,
        seed=seed,
    )
    if name == "credibility":
        return CredibilityDetector(windows)
    if name == "p_value":
        return PValueDetector(windows)
    if name == "accuracy_proxy":
        return AccuracyProxyDetector(windows)
    raise ConfigurationError(
        f"detectors must be from {TRIGGER_DETECTOR_CHOICES}, got {name!r}"
    )


def _build_single_stack(config, seed: int, spill: float) -> TriggerStack:
    """One TriggerStack from a TriggerConfig (ignoring per_shard)."""
    warmup_samples = (
        config.warmup
        if config.warmup is not None
        else min(10, config.window)
    )
    triggers = tuple(
        DriftTrigger(
            _build_detector(name, config, seed + 31 * index),
            _build_policy(config),
            warmup=WarmupPolicy(warmup_samples),
        )
        for index, name in enumerate(config.detectors)
    )
    budget_policy = None
    if config.budget_ceiling is not None:
        budget_policy = CostAwareBudgetPolicy(
            ceiling=config.budget_ceiling, spill=spill
        )
    return TriggerStack(
        triggers,
        ensemble=config.ensemble,
        window=config.window,
        budget_policy=budget_policy,
    )


def build_trigger_stack(
    config, router=None, n_shards: int = 1, featurizer=None, spill: float = 1.0
):
    """Assemble the trigger stack a :class:`~repro.core.config.TriggerConfig` describes.

    Returns a :class:`TriggerStack`, or a :class:`PerShardTriggerStack`
    when ``config.per_shard`` is set and a router with more than one
    shard is available (per-shard mode silently degrades to the global
    stack otherwise — a one-shard deployment has nothing to key on).
    Per-shard member stacks derive their reservoir seeds from
    ``config.seed`` and the shard id, so assembly is deterministic.
    ``spill`` is the deployment's effective prune spill, priced by the
    cost-aware budget policy (1.0 = exact mode, no expected loss).
    """
    if config.per_shard and router is not None and n_shards > 1:
        return PerShardTriggerStack(
            factory=lambda shard: _build_single_stack(
                config, config.seed + 7919 * (shard + 1), spill
            ),
            router=router,
            n_shards=n_shards,
            featurizer=featurizer,
            window=config.window,
        )
    return _build_single_stack(config, config.seed, spill)
