"""Seeded inputs, the stand-in model and one deployment episode.

Everything a run feeds to ``repro.deploy`` is generated here from the
workload seed and a stream index: a 32-class, 48-feature stream with a
covariate shift at a fixed point, a 12k-row calibration set drawn before
the shift, and a narrow deterministic nearest-prototype model.  Before the
shift the model is right; after it the shifted classes' inputs sit
between their own prototype and a neighbour's, so the model predicts
the neighbour and every misprediction is caused by the drift.
Relabelled samples pull the true class's prototype toward the shifted
inputs (``partial_fit``), so model updates make the model recover.
"""

from __future__ import annotations

import contextlib
import hashlib
import time
from dataclasses import dataclass, replace

import numpy as np

from repro import (
    LoopConfig,
    ModelInterface,
    PromClassifier,
    ServingConfig,
    TriggerConfig,
    deploy,
)

N_CLASSES = 32
N_FEATURES = 48
N_CALIBRATION = 12_000
NOISE = 0.32  # per-feature sample noise around a class centre
PULL = 0.62  # how far a shifted input moves toward its neighbour's centre
TEMPERATURE = 4.0  # of the stand-in model's softmax


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: stream shape plus deployment config."""

    name: str
    n_stream: int
    batch_size: int
    budget_fraction: float
    n_shards: int
    asynchronous: bool
    n_shifted: int  # classes whose inputs move at the shift point
    shift_at: float  # share of the stream served before the shift


#: why each workload exists, and what it should and should not move,
#: is in README.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="scan_b256",
            n_stream=1024,
            batch_size=256,
            budget_fraction=0.05,
            n_shards=16,
            asynchronous=False,
            n_shifted=10,
            shift_at=0.25,
        ),
        Workload(
            name="online_b2",
            n_stream=300,
            batch_size=2,
            budget_fraction=0.1,
            n_shards=16,
            asynchronous=True,
            n_shifted=10,
            shift_at=0.25,
        ),
    )
}


class PrototypeModel:
    """Softmax over negative squared distances to one prototype per class.

    Narrow on purpose (one ``(n, 48) x (48, 32)`` product per call), so
    the detector, not the model, is what the benchmark measures.
    ``partial_fit`` moves each relabelled class's prototype halfway
    toward the mean of its new samples.
    """

    def __init__(self, prototypes: np.ndarray, temperature: float):
        self.prototypes = np.array(prototypes, dtype=float)
        self.temperature = float(temperature)
        self.classes_ = np.arange(len(prototypes))

    def fit(self, X, y):
        return self

    def partial_fit(self, X, y, epochs: int = 1):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        for label in np.unique(y):
            target = X[y == label].mean(axis=0)
            self.prototypes[label] += 0.5 * (target - self.prototypes[label])
        return self

    def predict_proba(self, X):
        X = np.asarray(X, dtype=float)
        logits = 2.0 * X @ self.prototypes.T
        logits -= np.einsum("ij,ij->i", self.prototypes, self.prototypes)[None, :]
        logits /= self.temperature
        logits -= logits.max(axis=1, keepdims=True)
        np.exp(logits, out=logits)
        logits /= logits.sum(axis=1, keepdims=True)
        return logits


class StandInInterface(ModelInterface):
    """Identity feature extraction; remembers what each decision returned.

    The deployment loop calls ``predict`` once per micro-batch; the
    returned labels and verdicts are kept so the benchmark can score
    the stream afterwards without re-running anything.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.served = []

    def feature_extraction(self, X):
        return np.asarray(X, dtype=float)

    def predict(self, X):
        predictions, decisions = super().predict(X)
        self.served.append((predictions, decisions))
        return predictions, decisions


@dataclass
class Inputs:
    """The generated arrays of one seed (the only thing the program sees)."""

    prototypes: np.ndarray
    X_cal: np.ndarray
    y_cal: np.ndarray
    X_stream: np.ndarray
    y_stream: np.ndarray
    X_probe: np.ndarray


def make_inputs(workload: Workload, seed: int, stream: int = 0) -> Inputs:
    """Calibration set and drifting stream number ``stream`` of ``seed``."""
    # the drift's structure is the same for every seed and stream, so the
    # seed moves the samples but not the difficulty of the stream:
    # orthogonal class centres (every pair equally far apart), a fixed
    # set of shifted classes, each drifting toward a fixed neighbour
    fixed = np.random.default_rng([N_CLASSES, N_FEATURES])
    basis, _ = np.linalg.qr(fixed.normal(size=(N_FEATURES, N_FEATURES)))
    centers = np.sqrt(N_FEATURES) * basis[:N_CLASSES]
    order = fixed.permutation(N_CLASSES)
    shifted = order[: workload.n_shifted]
    neighbour = np.empty(N_CLASSES, dtype=int)
    neighbour[order] = np.roll(order, -1)
    rng = np.random.default_rng([seed, stream, N_CLASSES, N_FEATURES])

    def draw(n, drifted):
        # every class equally often, in a seeded order
        y = rng.permutation(np.arange(n) % N_CLASSES)
        X = centers[y] + NOISE * rng.normal(size=(n, N_FEATURES))
        if drifted is not None:
            moved = drifted & np.isin(y, shifted)
            X[moved] += PULL * (centers[neighbour[y[moved]]] - centers[y[moved]])
        return X, y

    X_cal, y_cal = draw(N_CALIBRATION, None)
    n_before = int(round(workload.shift_at * workload.n_stream))
    X_stream, y_stream = draw(
        workload.n_stream, np.arange(workload.n_stream) >= n_before
    )
    X_probe, _ = draw(64, np.ones(64, dtype=bool))
    return Inputs(
        prototypes=centers,
        X_cal=X_cal,
        y_cal=y_cal,
        X_stream=X_stream,
        y_stream=y_stream,
        X_probe=X_probe,
    )


def build_interface(workload: Workload, inputs: Inputs) -> StandInInterface:
    """Interface build + 12k-row calibrate + one warm decision (set-up)."""
    interface = StandInInterface(
        PrototypeModel(inputs.prototypes, TEMPERATURE),
        max_calibration=N_CALIBRATION,
        n_shards=workload.n_shards,
        router="hash",
    )
    interface.calibrate(inputs.X_cal, inputs.y_cal)
    interface.predict(inputs.X_stream[: workload.batch_size])
    interface.served.clear()
    return interface


def warmup_inputs(inputs: Inputs) -> Inputs:
    """The last quarter of the stream: drifted, so updates and folds run."""
    tail = len(inputs.y_stream) - len(inputs.y_stream) // 4
    return replace(inputs, X_stream=inputs.X_stream[tail:], y_stream=inputs.y_stream[tail:])


@dataclass
class Episode:
    """One set-up plus one ``repro.deploy`` call, with what it returned."""

    setup_s: float
    deploy_s: float
    started_ns: int  # ``perf_counter_ns`` at the start of the deploy call
    result: object
    interface: StandInInterface
    predictions: np.ndarray
    accepted: np.ndarray


def run_episode(workload: Workload, inputs: Inputs, instruments=()) -> Episode:
    """Set up a fresh interface and deploy it over the whole stream.

    ``instruments`` are context managers entered around the timed
    ``repro.deploy`` call only (latency probe, tracer).  The async
    workload drains the loop after every step, so every run of a stream
    makes the same decisions as the sync loop would.
    """
    started = time.perf_counter()
    interface = build_interface(workload, inputs)
    setup_s = time.perf_counter() - started
    loop = LoopConfig(
        batch_size=workload.batch_size,
        budget_fraction=workload.budget_fraction,
        # a full window of decisions between model updates
        triggers=TriggerConfig(warmup=100),
    )
    serving = ServingConfig(
        asynchronous=workload.asynchronous,
        workers=1,
        drain_each_step=workload.asynchronous,
    )
    with contextlib.ExitStack() as stack:
        for instrument in instruments:
            stack.enter_context(instrument)
        started_ns = time.perf_counter_ns()
        result = deploy(
            interface, inputs.X_stream, inputs.y_stream, loop=loop, serving=serving
        )
        deploy_s = (time.perf_counter_ns() - started_ns) / 1e9
    served = interface.served
    return Episode(
        setup_s=setup_s,
        deploy_s=deploy_s,
        started_ns=started_ns,
        result=result,
        interface=interface,
        predictions=np.concatenate([np.asarray(p) for p, _ in served] or [[]]),
        accepted=np.concatenate(
            [np.asarray(d.accepted, dtype=bool) for _, d in served] or [[]]
        ).astype(bool),
    )


def quality(runs) -> dict:
    """Detection and recovery ratios pooled over ``(episode, inputs)`` pairs."""
    wrong, flagged, tail_right = [], [], []
    n_relabelled = 0
    for episode, inputs in runs:
        y = inputs.y_stream
        wrong.append(episode.predictions != y)
        flagged.append(~episode.accepted)
        tail_right.append(~wrong[-1][len(y) - len(y) // 5:])
        n_relabelled += episode.result.n_relabelled
    wrong = np.concatenate(wrong)
    flagged = np.concatenate(flagged)
    return {
        "mispred_recall": float(np.mean(flagged[wrong])) if wrong.any() else 1.0,
        "false_flag_rate": float(np.mean(flagged[~wrong])) if (~wrong).any() else 0.0,
        "relabel_fraction": n_relabelled / len(wrong),
        "tail_accuracy": float(np.mean(np.concatenate(tail_right))),
    }


def digest(episode: Episode) -> str:
    """Short hash of the accept flags, predicted labels and relabel count."""
    h = hashlib.sha256()
    h.update(np.packbits(episode.accepted).tobytes())
    h.update(np.asarray(episode.predictions, dtype=np.int64).tobytes())
    h.update(str(episode.result.n_relabelled).encode())
    return h.hexdigest()[:16]


def fresh_detector_agrees(episode: Episode, inputs: Inputs) -> bool:
    """Incremental == from-scratch, checked from outside the runtime.

    A fresh ``PromClassifier`` calibrated on the final store's columns
    must return identical verdicts and credibilities on a probe batch.
    """
    interface = episode.interface
    store = interface.streaming.store
    fresh = PromClassifier().calibrate(
        store.column("features"), store.column("probabilities"), store.column("label")
    )
    features = interface.feature_extraction(inputs.X_probe)
    probabilities = interface.model.predict_proba(inputs.X_probe)
    live = interface.prom.evaluate(features, probabilities)
    scratch = fresh.evaluate(features, probabilities)
    return bool(
        np.array_equal(live.accepted, scratch.accepted)
        and np.array_equal(live.credibility, scratch.credibility)
    )
