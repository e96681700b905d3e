"""The benchmark's own checks; run with ``python3 -m pytest perfbench -q``.

The exact-repeat guard runs a sync workload in two fresh processes on
one seed and requires the same accept-flag digests and the same quality
ratios: a performance change that quietly changes decisions shows up as
a digest change.  The other tests pin the result-line contract, the
tracer's refusal to report a layer it could not wrap, and the
best-of-repeats timing estimator.
"""

import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402

QUALITY = ("mispred_recall", "false_flag_rate", "relabel_fraction", "tail_accuracy")


def _run(*args, cwd=HERE.parent):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def _result(workload, seed, trace=0):
    done = _run("--workload", workload, "--seed", str(seed), "--seconds", "0",
                "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    *_, detail, line = done.stdout.strip().splitlines()
    return json.loads(detail)["detail"], json.loads(line)


def test_sync_workload_repeats_exactly_across_processes():
    first_detail, first = _result("scan_b256", seed=3)
    second_detail, second = _result("scan_b256", seed=3)
    assert first["correct"] and second["correct"], first_detail["problems"]
    assert first["failed"] == second["failed"] == 0
    assert first_detail["digests"] == second_detail["digests"]
    for key in QUALITY:
        assert first["metrics"][key] == second["metrics"][key]


def test_result_line_names_every_end_to_end_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    _, line = _result("online_b2", seed=4)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert {m["name"] for m in spec["end_to_end"]} == set(line["metrics"])
    for metric in spec["end_to_end"]:
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert line["metrics"][metric["name"]]["value"] > 0


def test_traced_run_wraps_every_layer():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    detail, line = _result("online_b2", seed=5, trace=1)
    assert line["correct"], detail["problems"]
    assert {m["name"] for m in spec["per_layer"]} == set(line["metrics"])
    assert line["metrics"]["runner.self_share"]["value"] < 0.10
    assert line["metrics"]["serving.publishes"]["value"] > 0


def test_tracer_refuses_a_missing_target_and_restores_the_rest():
    from repro.core.serving import AsyncServingLoop

    original = AsyncServingLoop.__dict__["predict"]
    tracer = tracing.Tracer(targets=(
        ("serving.predict", "repro.core.serving", "AsyncServingLoop.predict"),
        ("serving.gone", "repro.core.serving", "AsyncServingLoop.no_such_method"),
    ))
    with pytest.raises(KeyError):
        tracer.__enter__()
    assert AsyncServingLoop.__dict__["predict"] is original


def test_best_of_repeats_takes_each_step_from_its_fastest_repeat():
    ms = 1_000_000

    def repeat(starts_ms, ends_ms, wall_ms):
        episode = SimpleNamespace(started_ns=5 * ms, deploy_s=wall_ms / 1e3)
        calls = [(5 * ms + s * ms, 5 * ms + e * ms) for s, e in zip(starts_ms, ends_ms)]
        return episode, calls

    # lead-in 1 ms; steps of 10 and 20 ms, each slowed down in one repeat
    fast_first = repeat([1, 11], [3, 14], 41)
    fast_second = repeat([1, 16], [4, 18], 36)
    wall_s, calls_s = run.best_of_repeats([fast_first, fast_second])
    assert wall_s == pytest.approx(0.031)
    assert calls_s == pytest.approx([0.002, 0.002])


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "tracing.py"):
        (bench / name).write_text((HERE / name).read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan_b256", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
