"""Drift-trigger options, end to end: the default stack and its record.

Every deployment runs the same feedback loop: when the trigger fires,
the loop relabels the batch's flagged samples and updates the model.
A trigger option can only pay for itself through that loop.

``out/BENCH_drift_detection.json`` holds, under ``matrix``, every
option :class:`~repro.core.config.TriggerConfig` used to offer
(detectors, decision policies, ensembles, step windows, per-shard
stacks, the cost-aware budget ceiling), each run through ``repro.deploy``
(the synchronous loop) and paired with the default stack at the same
seed and warmup.  The matrix records the commit it ran at
(``matrix.git_sha``); that commit's version of this script produces
it.

**Keep rule.**  An option was kept only if, on some stream, it won at
least 9 of 10 paired seeds: a higher ``tail_accuracy`` at no higher
``relabel_fraction``, or a lower ``relabel_fraction`` at no lower
``tail_accuracy``.  A label-spending option (``budget_ceiling``) was
paired with the default at the smallest ``budget_fraction`` whose
median spend was at least the option's.  Firing earlier keeps nothing
by itself: the loop acts on a fire only through a model update.  No
option won on any stream, so the library keeps only the default stack.

This script runs that default stack — credibility flags over a
100-sample window, threshold 0.3, warmup — on the same streams, seeds
1-10:

* ``scan_b256`` / ``online_b2`` — perfbench's ``make_inputs`` at the
  two workload shapes (12k calibration rows, 16 hash shards, a
  covariate shift a quarter of the way in), run synchronously with
  perfbench's warmup of 100;
* ``blobs`` — the tests' two-half Gaussian-blob stream
  (``tests/core/test_triggers._drift_stream``, a trained MLP, 3 hash
  shards);
* ``credibility_segments`` — trigger-only: the two-segment synthetic
  credibility stream, fed straight to the stack.

Per seed it records the fire steps, the detection delay (steps from
the first drifted step to the first fire at or after it), pre-shift
fires, ``tail_accuracy`` (accuracy over the last fifth of the stream,
as perfbench scores it) and ``relabel_fraction`` (relabelled samples
per stream sample).  The full run asserts that every per-seed record
equals the default rows of the recorded matrix, so the deletion left
the default's decisions unchanged, and writes ``default_stack``.
``--smoke`` runs seed 1 of the blob and segment streams, with no
assertions and nothing written to ``out/``.
"""

import argparse
import json
import os
import statistics
import sys

# conftest first: it pins BLAS threads before NumPy loads
from conftest import OUT_DIR, REPO_ROOT, git_sha, update_bench_json

import numpy as np

sys.path.insert(0, str(REPO_ROOT))
sys.path.insert(0, str(REPO_ROOT / "perfbench"))

import workloads  # noqa: E402  (perfbench's stream generator)

from repro import LoopConfig, ServingConfig, TriggerConfig, deploy  # noqa: E402
from repro.core import DecisionBatch, build_trigger_stack  # noqa: E402
from tests.core.test_triggers import _drift_stream, _trained_interface  # noqa: E402

SEEDS = tuple(range(1, 11))

ARTIFACT = "BENCH_drift_detection.json"


class Stream:
    """One deployment stream shape: inputs, loop settings, drift onset."""

    def __init__(self, name, batch_size, budget_fraction, warmup, epochs=20):
        self.name = name
        self.batch_size = batch_size
        self.budget_fraction = budget_fraction
        self.warmup = warmup
        self.epochs = epochs

    def setup(self, seed):
        """``(interface, X, y, onset_sample)`` of one seed, freshly built."""
        if self.name == "blobs":
            interface = _trained_interface(n_shards=3, router="hash", seed=seed)
            X, y = _drift_stream(seed=seed)
            return interface, X, y, len(y) // 2
        workload = workloads.WORKLOADS[self.name]
        inputs = workloads.make_inputs(workload, seed)
        interface = workloads.build_interface(workload, inputs)
        onset = int(round(workload.shift_at * workload.n_stream))
        return interface, inputs.X_stream, inputs.y_stream, onset


STREAMS = (
    # perfbench's shapes and trigger warmup, served synchronously
    Stream("scan_b256", batch_size=256, budget_fraction=0.05, warmup=100),
    Stream("online_b2", batch_size=2, budget_fraction=0.1, warmup=100),
    # test_triggers' stream-equivalence loop settings
    Stream("blobs", batch_size=50, budget_fraction=0.1, warmup=None, epochs=5),
)


def run_episode(stream, seed):
    """One deploy of one stream seed under the default stack."""
    interface, X, y, onset = stream.setup(seed)
    served = []
    predict = interface.predict

    def recording_predict(X_batch):
        predictions, decisions = predict(X_batch)
        served.append(np.asarray(predictions))
        return predictions, decisions

    interface.predict = recording_predict
    loop = LoopConfig(
        batch_size=stream.batch_size,
        budget_fraction=stream.budget_fraction,
        epochs=stream.epochs,
        triggers=TriggerConfig(warmup=stream.warmup),
    )
    result = deploy(interface, X, y, loop=loop, serving=ServingConfig(asynchronous=False))
    predictions = np.concatenate(served)
    tail = len(y) - len(y) // 5
    onset_step = onset // stream.batch_size
    fires = [i for i, step in enumerate(result.steps) if step.alert]
    late = [i - onset_step for i in fires if i >= onset_step]
    return {
        "fires": fires,
        "delay_steps": late[0] if late else None,
        "pre_shift_fires": sum(1 for i in fires if i < onset_step),
        "tail_accuracy": float(np.mean(predictions[tail:] == y[tail:])),
        "relabel_fraction": result.n_relabelled / len(y),
        "n_model_updates": result.n_model_updates,
    }


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def stream_row(stream, seeds):
    """Per-seed records of the default stack on one stream, with medians."""
    runs = [run_episode(stream, seed) for seed in seeds]
    return {
        "median_delay_steps": _median(r["delay_steps"] for r in runs),
        "never_fired_after_onset": sum(1 for r in runs if r["delay_steps"] is None),
        "median_pre_shift_fires": _median(r["pre_shift_fires"] for r in runs),
        "median_tail_accuracy": _median(r["tail_accuracy"] for r in runs),
        "median_relabel_fraction": _median(r["relabel_fraction"] for r in runs),
        "per_seed": runs,
    }


# -- trigger-only rows: the two-segment credibility stream -------------------------

SEGMENT_STREAM = dict(n_steps=240, step=20, segments=((80, 120), (180, 220)))


def credibility_batches(seed):
    """Decision batches whose credibility drops inside the two segments."""
    rng = np.random.default_rng(seed)
    batches, truth = [], []
    for t in range(SEGMENT_STREAM["n_steps"]):
        drifted = any(a <= t < b for a, b in SEGMENT_STREAM["segments"])
        credibility = rng.uniform(0.0, 0.25 if drifted else 1.0, SEGMENT_STREAM["step"])
        accepted = credibility >= 0.3
        batches.append(
            DecisionBatch(
                accepted=accepted,
                credibility=credibility,
                expert_names=("e0",),
                expert_credibility=credibility[None, :],
                expert_accept=accepted[None, :],
            )
        )
        truth.append(drifted)
    return batches, truth


def segment_row(seeds):
    """Fires, per-onset delay and clean-step fires of the default stack."""
    segments = SEGMENT_STREAM["segments"]
    per_seed = []
    for seed in seeds:
        batches, truth = credibility_batches(seed)
        stack = build_trigger_stack(TriggerConfig())
        fires = [bool(stack.observe_batch(batch)) for batch in batches]
        delays = []
        for a, b in segments:
            hits = [t - a for t in range(a, b) if fires[t]]
            delays.append(hits[0] if hits else None)
        per_seed.append({
            "fires": sum(fires),
            "false_fires": sum(f for f, t in zip(fires, truth) if not t),
            "delays_steps": delays,
        })
    return {
        "median_fires": _median(r["fires"] for r in per_seed),
        "median_false_fires": _median(r["false_fires"] for r in per_seed),
        "median_delay_steps": [
            _median(r["delays_steps"][i] for r in per_seed) for i in range(len(segments))
        ],
        "per_seed": per_seed,
    }


def measure(seeds, streams=STREAMS):
    """The default stack over ``streams`` and the segment stream."""
    return {
        "git_sha": git_sha(),
        "seeds": list(seeds),
        "streams": {stream.name: stream_row(stream, seeds) for stream in streams},
        "credibility_segments": segment_row(seeds),
    }


def assert_matches_recorded_matrix(outcome):
    """Every per-seed record equals the matrix's default row."""
    with open(os.path.join(OUT_DIR, ARTIFACT)) as handle:
        matrix = json.load(handle)["matrix"]
    assert matrix["kept_options"] == [], matrix["kept_options"]
    for name, row in outcome["streams"].items():
        recorded = matrix["streams"][name]["rows"]["default"]["per_seed"]
        assert row["per_seed"] == recorded, f"default stack moved on {name}"
    recorded = matrix["credibility_segments"]["default"]["per_seed"]
    assert outcome["credibility_segments"]["per_seed"] == recorded


def test_default_stack_matches_matrix():
    """The default stack reproduces its recorded matrix rows exactly."""
    outcome = measure(SEEDS)
    assert_matches_recorded_matrix(outcome)
    update_bench_json(ARTIFACT, {"default_stack": outcome})


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="seed 1 of the blob and segment streams, nothing written to out/",
    )
    args = parser.parse_args()
    if args.smoke:
        blobs = [s for s in STREAMS if s.name == "blobs"]
        print(json.dumps(measure((1,), blobs), indent=2, sort_keys=True))
        return
    test_default_stack_matches_matrix()
    print(f"{ARTIFACT} updated")


if __name__ == "__main__":
    main()
