"""The drift trigger the deployment loop consults (DESIGN.md §11).

Prom's feedback loop needs one signal: enough flagged samples have
piled up in a recent window to relabel and update the model.
:class:`TriggerStack` keeps the last ``window`` drifting verdicts and
fires when their rate reaches ``threshold`` once the window holds at
least ``warmup`` of them.  :func:`build_trigger_stack` builds it from a
:class:`~repro.core.config.TriggerConfig`; it is the only way the
library builds one.  The stack is property-tested decision-identical to
the historical deque-based monitor — bit-identical ``alert`` and
``rejection_rate`` sequences under any interleaving of observes and
resets (``tests/core/test_triggers.py``).

It is the only trigger because no other detector, decision policy,
ensemble, per-shard stack or budget policy beat it on tail accuracy or
relabel spend through the deployment loop (DESIGN.md §11,
``benchmarks/out/BENCH_drift_detection.json``).
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass

import numpy as np

from .committee import DecisionBatch
from .config import TriggerConfig
from .exceptions import ValidationError

#: version of :meth:`TriggerStack.state_dict`; a checkpoint holding
#: another version re-warms the trigger instead of loading it
_STATE_VERSION = 2


@dataclass(frozen=True)
class TriggerDecision:
    """One observe step's outcome.

    Attributes:
        fired: whether the step fired the trigger.
        rejection_rate: drifting share of the window after the step.
        window_fill: verdicts in the window after the step.
        warmed: whether the window held at least ``warmup`` verdicts.
    """

    fired: bool
    rejection_rate: float
    window_fill: int
    warmed: bool


def _drifting_flags(decisions) -> list:
    """Per-sample drifting verdicts of a ``DecisionBatch`` or ``Decision`` iterable."""
    if isinstance(decisions, DecisionBatch):
        return np.asarray(decisions.drifting, dtype=bool).tolist()
    return [bool(d.drifting) for d in decisions]


class TriggerStack:
    """Windowed rejection rate against a static threshold, after a warmup.

    All entry points take one internal leaf lock, so serving threads
    may observe while a maintenance worker checkpoints the state.

    Args:
        window / threshold / warmup: as in
            :class:`~repro.core.config.TriggerConfig`, which validates
            them.
    """

    def __init__(self, window: int = 100, threshold: float = 0.3, warmup=None):
        # one place validates trigger settings
        TriggerConfig(window=window, threshold=threshold, warmup=warmup)
        self.window = int(window)
        self.threshold = float(threshold)
        self.warmup = min(10, self.window) if warmup is None else int(warmup)
        self._flags = deque(maxlen=self.window)
        self._total_seen = 0
        self._total_rejected = 0
        self._last = None
        self._lock = threading.Lock()

    def observe(self, decision) -> bool:
        """Record one decision; returns the current alert state."""
        return self.observe_batch([decision])

    def observe_batch(self, decisions) -> bool:
        """Record a batch of decisions; returns the current alert state."""
        flags = _drifting_flags(decisions)
        with self._lock:
            if flags:
                self._flags.extend(flags)
                self._total_seen += len(flags)
                self._total_rejected += sum(flags)
                fill = len(self._flags)
                rate = sum(self._flags) / fill
                warmed = fill >= self.warmup
                self._last = TriggerDecision(
                    fired=warmed and rate >= self.threshold,
                    rejection_rate=rate,
                    window_fill=fill,
                    warmed=warmed,
                )
            return self.alert

    @property
    def last_decision(self) -> TriggerDecision | None:
        """The most recent step's outcome (``None`` before/after reset)."""
        return self._last

    @property
    def rejection_rate(self) -> float:
        """Rejection rate over the flag window (0 when empty)."""
        with self._lock:
            if not self._flags:
                return 0.0
            return sum(self._flags) / len(self._flags)

    @property
    def alert(self) -> bool:
        """Whether the most recent observe step fired."""
        last = self._last
        return bool(last is not None and last.fired)

    @property
    def lifetime_rejection_rate(self) -> float:
        """Rejection rate since creation (survives window resets)."""
        with self._lock:
            if self._total_seen == 0:
                return 0.0
            return self._total_rejected / self._total_seen

    def reset(self, lifetime: bool = False) -> None:
        """Clear the window (e.g. after a model update).

        Lifetime counters survive unless ``lifetime=True``, which makes
        the stack bit-identical to a fresh one.
        """
        with self._lock:
            self._flags.clear()
            self._last = None
            if lifetime:
                self._total_seen = 0
                self._total_rejected = 0

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of the stack (DESIGN.md §7)."""
        with self._lock:
            return {
                "version": _STATE_VERSION,
                "window": self.window,
                "flags": [int(f) for f in self._flags],
                "total_seen": self._total_seen,
                "total_rejected": self._total_rejected,
            }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot onto this stack."""
        if state.get("version") != _STATE_VERSION:
            raise ValidationError(
                f"unsupported trigger state v{state.get('version')!r}"
            )
        if state.get("window") != self.window:
            raise ValidationError(
                f"trigger state has window {state.get('window')}, "
                f"this stack has {self.window}"
            )
        with self._lock:
            self._flags = deque(
                (bool(f) for f in state["flags"]), maxlen=self.window
            )
            self._total_seen = int(state["total_seen"])
            self._total_rejected = int(state["total_rejected"])
            self._last = None


def observe_decisions(monitor, decisions) -> bool:
    """Observe one batch through a trigger stack; returns the alert verdict.

    The single call site both the deployment loop and the async serving
    loop use.
    """
    return monitor.observe_batch(decisions)


def build_trigger_stack(config) -> TriggerStack:
    """The trigger stack a :class:`~repro.core.config.TriggerConfig` describes."""
    return TriggerStack(config.window, config.threshold, config.warmup)
