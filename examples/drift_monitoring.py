"""Operating Prom in production: drift reports and a rolling alarm.

Simulates a deployment stream that starts in-distribution and then
drifts.  A drift-trigger stack built from a ``TriggerConfig`` watches
the committee decisions and raises its alert when the windowed
rejection rate crosses the threshold — the signal an operator would
use to trigger the incremental-learning loop.  A ``DriftReport``
summarizes each phase.

Run:  python examples/drift_monitoring.py
"""

import numpy as np

from repro.core import (
    ModelInterface,
    TriggerConfig,
    build_trigger_stack,
    summarize_decisions,
)
from repro.ml import MLPClassifier


def make_blobs(n, shift=0.0, seed=0):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 3, n)
    X = rng.normal(size=(n, 8)) * 0.5
    X[:, 0] += y * 2.0
    X[:, 1] += (y == 2) * 1.5 + shift
    X[:, 2:5] += shift
    return X, y


class MyModel(ModelInterface):
    def feature_extraction(self, X):
        return self.model.hidden_embedding(X)


def main():
    X_train, y_train = make_blobs(800, seed=0)
    interface = MyModel(MLPClassifier(epochs=80, seed=0), calibration_ratio=0.2)
    interface.train(X_train, y_train)

    monitor = build_trigger_stack(TriggerConfig(window=60, threshold=0.35))
    phases = [
        ("healthy traffic", make_blobs(120, seed=10)),
        ("drift begins", make_blobs(120, shift=1.5, seed=11)),
        ("full drift", make_blobs(120, shift=3.0, seed=12)),
    ]
    for name, (X, _) in phases:
        predictions, decisions = interface.predict(X)
        monitor.observe_batch(decisions)
        report = summarize_decisions(decisions, predictions)
        print(f"== {name} ==")
        print(report)
        print(
            f"  monitor: window rejection {monitor.rejection_rate:.1%}, "
            f"alert={'YES' if monitor.alert else 'no'}\n"
        )

    if monitor.alert:
        print("alert raised -> operator would trigger the incremental-")
        print("learning loop (see examples/quickstart.py) and reset the monitor")


if __name__ == "__main__":
    main()
