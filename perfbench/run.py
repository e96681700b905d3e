"""Deployment benchmark: one workload through ``repro.deploy`` in this process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload scan_b256 --seed 1 --seconds 55 --trace 0

The seed generates one stream (see ``workloads.py``), and a fixed seed
eight reference streams; the program sees only those arrays.  An
episode is a fresh set-up plus one ``repro.deploy`` call over one
stream.  After a warm-up, the run makes one pass through the reference
streams, then repeats the seeded stream until ``--seconds`` have passed.  Each episode runs on whichever CPU a short
probe finds fastest just before it.  Every episode's outputs are
checked, and every repeat of a stream must make exactly the same
decisions.

``--trace 0`` reports the end-to-end metrics.  Because a repeat of a
stream does the same work step for step, each step's time is taken from
its fastest repeat: the box switches between a fast and a slow speed in
phases of a fraction of a second to many seconds, and over a long run a
step of a few milliseconds is rarely slow on every repeat.  Quality
ratios are pooled over the reference pass.

``--trace 1`` runs untraced/traced episode pairs on the same stream and
reports the per-layer metrics of the traced ones (median over
episodes) plus the tracing overhead; the spans are written to
``.perfbench/trace-<workload>-<seed>.json`` under the repository root.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it (``detail``) records the environment, the per-stream digests, the
tail percentile used and any failed check.
"""

from __future__ import annotations

import os

# BLAS stays on one thread: with the one maintenance worker that keeps
# busy threads within the two cores.  Must happen before NumPy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: the quality ratios come from one pass through this many reference
#: streams, the same for every seed: the ratios then repeat exactly from
#: run to run, and any change in decisions moves them
REFERENCE_STREAMS = 8
REFERENCE_SEED = 0

#: a run stops after this many episodes whatever ``--seconds`` says; a
#: traced run keeps between one and 16 untraced/traced pairs
MAX_EPISODES = 400
MAX_PAIRS = 16

#: candidate tail percentiles, highest first
TAIL_LADDER = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0)


def metric_units(kind: str) -> dict:
    """Name -> unit of the ``kind`` metrics, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def tail_percentile(n_calls: int):
    """The highest ladder percentile with at least ten calls beyond it.

    ``None`` when there are too few calls even for the lowest rung.
    """
    for percentile in TAIL_LADDER:
        if n_calls * (1.0 - percentile / 100.0) >= 10:
            return percentile
    return None


def probe_kernel_ms(np) -> float:
    """Median time of a fixed NumPy kernel: how fast the box is right now."""
    a = np.linspace(0.0, 1.0, 192 * 192).reshape(192, 192)
    times = []
    for _ in range(7):
        start = time.perf_counter()
        for _ in range(20):
            b = a @ a
            np.exp(b * 1e-3, out=b)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def pin_fastest_cpu(np, cpus) -> int:
    """Pin this thread to whichever CPU runs a short fixed kernel fastest.

    Other tenants slow each CPU down at their own times, in phases of
    seconds; an episode takes under a second, so the CPU that is fast
    now is likely to stay fast for it.  Threads started later (the
    maintenance worker) inherit the pin.
    """
    a = np.linspace(0.0, 1.0, 128 * 128).reshape(128, 128)
    best, best_ms = cpus[0], float("inf")
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        times = []
        for _ in range(5):
            start = time.perf_counter()
            b = a @ a
            np.exp(b * 1e-3, out=b)
            times.append(time.perf_counter() - start)
        if statistics.median(times) < best_ms:
            best, best_ms = cpu, statistics.median(times)
    os.sched_setaffinity(0, {best})
    return best


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(np, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 -- the record is best effort
        blas = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_sha": git_sha(),
        "seed": seed,
    }


class Checks:
    """Counts attempted and failed operations; remembers what failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def ops(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"{failed} of {attempted} {what}")

    def check(self, ok: bool, what: str) -> None:
        self.ops(1, 0 if ok else 1, what)


def check_episode(checks, workload, inputs, episode) -> None:
    """Output checks of one episode, counted into attempted/failed."""
    import workloads

    result = episode.result
    steps = list(result.steps)
    n = len(inputs.y_stream)
    checks.ops(n, max(0, n - len(episode.accepted)), "decisions returned")
    checks.check(
        len(episode.accepted) == n
        and [s.start for s in steps] == list(range(0, n, workload.batch_size)),
        "one decision per sample",
    )
    checks.check(
        all(s.calibration_size <= workloads.N_CALIBRATION for s in steps),
        "calibration size within capacity at every step",
    )
    checks.check(
        all(
            s.n_relabelled <= min(
                s.n_flagged,
                max(1, int(round(s.effective_budget_fraction * s.n_flagged))),
            )
            for s in steps
        ),
        "relabelled count within the budget at every step",
    )
    serving = result.serving
    if serving is not None:
        jobs = serving.jobs_submitted
        lost = serving.jobs_failed + serving.jobs_dropped
        checks.ops(jobs, lost, "maintenance jobs failed or dropped")
        checks.check(result.n_lost_to_backpressure == 0, "no samples lost to backpressure")
    else:
        jobs = sum(1 for s in steps if s.n_relabelled)
        checks.ops(jobs, 0, "maintenance jobs")
    checks.check(not result.errors, "no JobError")
    checks.check(
        workloads.fresh_detector_agrees(episode, inputs),
        "incremental state equals a fresh calibration",
    )


def best_of_repeats(repeats) -> tuple:
    """``(wall_s, call_s)`` of one stream, each step from its fastest repeat.

    ``repeats`` holds ``(episode, calls)`` per run of the stream, where
    ``calls`` are the ``(start_ns, end_ns)`` of its decision calls.  The
    deploy call's wall time is cut at the start of every decision call:
    the lead-in, then one interval per step (the decision plus the
    step's maintenance).  ``wall_s`` sums each interval's minimum over
    the repeats; ``call_s`` is each decision call's minimum.
    """
    import numpy as np

    bounds, durations = [], []
    for episode, calls in repeats:
        starts = np.array([start for start, _ in calls]) - episode.started_ns
        ends = np.array([end for _, end in calls]) - episode.started_ns
        bounds.append(np.concatenate(([0.0], starts / 1e9, [episode.deploy_s])))
        durations.append((ends - starts) / 1e9)
    intervals = np.diff(np.array(bounds), axis=1)
    return float(intervals.min(axis=0).sum()), np.array(durations).min(axis=0)


def timing_metrics(repeats, n_samples) -> tuple:
    """Throughput and decision latency from the repeats of stream 0."""
    import numpy as np

    wall_s, calls_s = best_of_repeats(repeats)
    calls_ms = calls_s * 1e3
    percentile = tail_percentile(len(calls_ms))
    if percentile is None:
        tail, how = float(calls_ms.max()), f"max of {len(calls_ms)} call positions"
    else:
        tail = float(np.percentile(calls_ms, percentile))
        how = f"p{percentile:g} of {len(calls_ms)} call positions"
    metrics = {
        "decisions_per_s": n_samples / wall_s,
        "decision_p50_ms": float(np.median(calls_ms)),
        "decision_tail_ms": tail,
    }
    return metrics, how


def layer_metrics(tracer, episode, main_thread) -> dict:
    """Per-layer metrics of one traced episode (times are self times)."""
    totals = tracer.layer_totals()
    counts = tracer.counts
    result = episode.result
    wall_ms = episode.deploy_s * 1e3
    self_ms = wall_ms - tracer.root_ms(main_thread)
    metrics = {
        "model.forward_ms": totals["model.forward"],
        "model.calls": counts["model.calls"],
        "blocks.gemm_ms": totals["blocks.gemm"],
        "blocks.gemm_calls": counts["blocks.gemm_calls"],
        "blocks.gemm_bytes": counts["blocks.gemm_bytes"],
        "weighting.select_ms": totals["weighting.select"],
        "weighting.pairs_scored": counts["weighting.pairs_scored"],
        "pvalue.bin_ms": totals["pvalue.bin"],
        "pvalue.pvalues_ms": totals["pvalue.pvalues"],
        "pvalue.calls": counts["pvalue.calls"],
        "committee.vote_ms": totals["committee.vote"],
        "prom.evaluate_ms": totals["prom.evaluate"],
        "interface.predict_ms": totals["interface.predict"],
        "interface.update_ms": totals["interface.update"],
        "triggers.observe_ms": totals["triggers.observe"],
        "triggers.fires": counts["triggers.fires"],
        "incremental.select_ms": totals["incremental.select"],
        "incremental.relabel_per_flag": result.n_relabelled / max(1, result.n_flagged),
        "streaming.fold_ms": totals["streaming.fold"],
        "streaming.fold_calls": counts["streaming.fold_calls"],
        "streaming.rows_folded": counts["streaming.rows_folded"],
        "streaming.rebuild_ms": totals["streaming.rebuild"],
        "streaming.rebuild_calls": counts["streaming.rebuild_calls"],
        "serving.predict_ms": totals["serving.predict"],
        "serving.drain_ms": totals["serving.drain"],
        "runner.self_ms": self_ms,
        "runner.self_share": self_ms / wall_ms,
    }
    serving = result.serving
    if serving is None:
        # the sync loop has no serving plane: its serving metrics are 0
        metrics.update({
            "serving.publish_ms": 0.0,
            "serving.prewarm_ms": 0.0,
            "serving.publishes": 0,
            "serving.jobs_submitted": 0,
            "serving.worker_busy_share": 0.0,
        })
        return metrics
    publish_ms = serving.total_publish_seconds * 1e3
    prewarm_ms = serving.total_prewarm_seconds * 1e3
    worker_ms = tracer.root_ms(main_thread, same_thread=False)
    metrics.update({
        "serving.publish_ms": publish_ms,
        "serving.prewarm_ms": prewarm_ms,
        "serving.publishes": serving.snapshots_published,
        "serving.jobs_submitted": serving.jobs_submitted,
        "serving.worker_busy_share": (worker_ms + publish_ms + prewarm_ms) / wall_ms,
    })
    return metrics


def write_trace(path: Path, detail: dict, tracers: list) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fields = ("id", "name", "start_ns", "end_ns", "parent", "step", "thread", "self_ns")
    with open(path, "w") as out:
        json.dump(
            {
                "detail": detail,
                "fields": fields,
                "episodes": [[list(span) for span in t.spans] for t in tracers],
            },
            out,
        )


def schedule(trace: bool, index: int) -> tuple:
    """``(stream, traced)`` of episode ``index``.

    Stream 0 is the seeded one; streams 1 to ``REFERENCE_STREAMS`` are
    the reference streams.  Untraced runs make one pass through the
    reference streams, then repeat stream 0.  Traced runs pair an
    untraced and a traced episode on stream 0, so the overhead compares
    like with like.
    """
    if trace:
        return 0, index % 2 == 1
    return (index + 1 if index < REFERENCE_STREAMS else 0), False


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Run one workload; returns ``(result_line, detail)`` dicts."""
    import numpy as np

    import tracing
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    streams = [workloads.make_inputs(workload, seed, 0)] + [
        workloads.make_inputs(workload, REFERENCE_SEED, k)
        for k in range(1, REFERENCE_STREAMS + 1)
    ]
    n_samples = len(streams[0].y_stream)
    detail = {"workload": workload_name, "env": environment(np, seed)}
    probe_start = probe_kernel_ms(np)
    checks = Checks()
    main_thread = threading.get_ident()
    thread_budget = max(2, os.cpu_count() or 1)
    if workload.asynchronous:
        entry = ("repro.core.serving", "AsyncServingLoop.predict")
    else:
        entry = ("workloads", "StandInInterface.predict")

    workloads.run_episode(workload, workloads.warmup_inputs(streams[0]))
    untraced, traced = [], []
    timed = []  # (episode, decision calls) of every untraced run of stream 0
    digests = {}
    cpus = sorted(os.sched_getaffinity(0))
    pins = []  # the CPU each episode ran on
    # untraced runs: the reference pass plus two runs of stream 0
    least = 2 if trace else REFERENCE_STREAMS + 2
    most = 2 * MAX_PAIRS if trace else MAX_EPISODES
    started = time.perf_counter()
    for index in range(most):
        if index >= least and time.perf_counter() - started >= seconds:
            break
        k, is_traced = schedule(trace, index)
        inputs = streams[k]
        pins.append(pin_fastest_cpu(np, cpus))
        tracer = tracing.Tracer() if is_traced else tracing.probe(*entry)
        gc.collect()
        episode = workloads.run_episode(workload, inputs, (tracer,))
        check_episode(checks, workload, inputs, episode)
        checks.check(tracer.max_threads <= thread_budget, "busy threads within nproc")
        episode.interface = None  # keep one calibration state alive at a time
        digest = workloads.digest(episode)
        if k in digests:
            checks.check(digest == digests[k], "accept-flag digest repeats")
        digests.setdefault(k, digest)
        if is_traced:
            traced.append((episode, tracer))
            continue
        if k == 0:
            # only the reference pass feeds the quality ratios; a run keeps
            # no more results than that, so ``peak_rss_mb`` does not grow
            # with the number of episodes
            episode.result = None
        untraced.append((episode, inputs))
        if k == 0:
            timed.append((episode, tracer.calls("decision")))
    probe_end = probe_kernel_ms(np)

    detail.update({
        "episodes": len(untraced) + len(traced),
        "digests": [digests[k] for k in sorted(digests)],
        "timed_repeats": len(timed),
        "cpus": pins,
        "setup_s": [e.setup_s for e, _ in untraced],
        "deploy_s": [e.deploy_s for e, _ in untraced],
        "probe_start_ms": probe_start,
        "probe_end_ms": probe_end,
        "problems": checks.problems,
    })
    if trace:
        per_episode = [layer_metrics(t, e, main_thread) for e, t in traced]
        metrics = {
            key: statistics.median(m[key] for m in per_episode) for key in per_episode[0]
        }
        # pairs run back to back on one stream, so the box is in the same
        # state for both halves far more often than across the run
        metrics["trace.overhead_ratio"] = statistics.median(
            t.deploy_s / u.deploy_s for (u, _), (t, _) in zip(untraced, traced)
        )
        metrics["env.probe_start_ms"] = probe_start
        metrics["env.probe_end_ms"] = probe_end
        write_trace(
            ROOT / ".perfbench" / f"trace-{workload_name}-{seed}.json",
            detail,
            [t for _, t in traced],
        )
        units = metric_units("per_layer")
    else:
        metrics, detail["tail"] = timing_metrics(timed, n_samples)
        metrics["setup_s"] = min(e.setup_s for e, _ in untraced)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics.update(workloads.quality(untraced[:REFERENCE_STREAMS]))
        units = metric_units("end_to_end")
    line = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            key: {"value": float(metrics[key]), "unit": unit} for key, unit in units.items()
        },
    }
    return line, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    line, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"detail": detail}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
