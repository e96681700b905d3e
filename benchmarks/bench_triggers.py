"""Trigger observe overhead.

**observe_overhead** — the drift trigger's ``observe_batch`` on a
decision batch, as a fraction of the serving step that produced it
(model forward + conformal evaluate).  Asserts the trigger costs
**< 5%** of the step latency floor — drift monitoring must ride along
for free.

Whether any other trigger option earns its keep is measured end to end
by ``bench_drift_detection.py``.

Results go to ``out/BENCH_triggers.json``; ``--smoke`` runs a
seconds-long pass for CI with no perf assertions and nothing written
to ``out/``.
"""

import argparse
import json
import time

# conftest first: it pins BLAS threads before NumPy loads
from conftest import update_bench_json

import numpy as np

from repro.core import ModelInterface, TriggerConfig, build_trigger_stack

#: acceptance ceiling: trigger observe cost as a fraction of
#: the serving step (forward + evaluate) that produced the decisions
OVERHEAD_CEILING = 0.05

FULL_SCALE = dict(
    n_calibration=4_000,
    n_features=32,
    n_classes=16,
    step_batch=256,
    rounds=30,
)

SMOKE_SCALE = dict(
    n_calibration=800,
    n_features=16,
    n_classes=8,
    step_batch=64,
    rounds=5,
)


class _ProjectionModel:
    """Deterministic softmax projection: no training noise in the bench."""

    def __init__(self, n_features, n_classes, hidden=64, seed=0):
        generator = np.random.default_rng(seed)
        self._hidden = generator.normal(size=(n_features, hidden))
        self._head = generator.normal(size=(hidden, n_classes))
        self.classes_ = np.arange(n_classes)

    def fit(self, X, y):
        return self

    def partial_fit(self, X, y, epochs: int = 1):
        return self

    def predict_proba(self, X):
        activations = np.tanh(np.asarray(X, dtype=float) @ self._hidden)
        logits = activations @ self._head
        logits -= logits.max(axis=1, keepdims=True)
        exp = np.exp(logits)
        return exp / exp.sum(axis=1, keepdims=True)


class _ServingInterface(ModelInterface):
    def feature_extraction(self, X):
        return np.asarray(X)


def measure_observe_overhead(scale, seed=0) -> dict:
    """Trigger observe cost vs the serving step that produced the batch.

    The step latency floor is ``interface.predict`` — model forward
    plus the conformal evaluate — on a warm interface.  The trigger
    cost is ``observe_batch`` on the decisions that step returned.
    Medians over rounds on one stack: it is a fixed-size deque, so
    steady state is the honest regime.
    """
    generator = np.random.default_rng(seed)
    model = _ProjectionModel(scale["n_features"], scale["n_classes"], seed=seed)
    interface = _ServingInterface(
        model, max_calibration=scale["n_calibration"], seed=seed
    )
    X_cal = generator.normal(size=(scale["n_calibration"], scale["n_features"]))
    y_cal = generator.integers(0, scale["n_classes"], scale["n_calibration"])
    interface.model.fit(X_cal, y_cal)
    interface.calibrate(X_cal, y_cal)

    X_step = generator.normal(size=(scale["step_batch"], scale["n_features"]))
    stack = build_trigger_stack(TriggerConfig(window=100))
    _, decisions = interface.predict(X_step)  # warm both paths
    stack.observe_batch(decisions)

    step_ms, observe_ms = [], []
    for _ in range(scale["rounds"]):
        started = time.perf_counter()
        _, decisions = interface.predict(X_step)
        step_ms.append((time.perf_counter() - started) * 1e3)
        started = time.perf_counter()
        stack.observe_batch(decisions)
        observe_ms.append((time.perf_counter() - started) * 1e3)

    med_step = float(np.median(step_ms))
    med_observe = float(np.median(observe_ms))
    return {
        "n_calibration": scale["n_calibration"],
        "step_batch": scale["step_batch"],
        "rounds": scale["rounds"],
        "step_ms": round(med_step, 4),
        "observe_ms": round(med_observe, 4),
        "overhead_fraction": round(med_observe / med_step, 5),
    }


def test_observe_overhead():
    """Trigger observe costs < 5% of the step floor."""
    outcome = measure_observe_overhead(FULL_SCALE)
    update_bench_json("BENCH_triggers.json", {"observe_overhead": outcome})
    assert outcome["overhead_fraction"] < OVERHEAD_CEILING, (
        f"trigger observe_batch costs "
        f"{outcome['overhead_fraction']:.1%} of a serving step "
        f"(ceiling {OVERHEAD_CEILING:.0%}) — monitoring no longer rides "
        f"along for free"
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes, no perf assertions, nothing written to out/",
    )
    args = parser.parse_args()
    if args.smoke:
        summary = {
            "smoke": True,
            "observe_overhead": measure_observe_overhead(SMOKE_SCALE),
        }
        print(json.dumps(summary, indent=2, sort_keys=True))
        return
    test_observe_overhead()
    print("BENCH_triggers.json updated")


if __name__ == "__main__":
    main()
