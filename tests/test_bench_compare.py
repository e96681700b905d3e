"""The perf-artifact diff script (``benchmarks/compare.py``)."""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "compare.py"
_spec = importlib.util.spec_from_file_location("bench_compare", _SCRIPT)
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)


@pytest.mark.parametrize(
    "path,better",
    [
        ("fold_job/median_update_ms", "lower"),
        ("incremental_update/update_seconds", "lower"),
        ("kernel_stages/live_ms/select", "lower"),
        ("classifier/speedup", "higher"),
        ("kernel_stages/speedup/bin", "higher"),
        ("stream_deployment/decisions_per_second", "higher"),
        ("fold_job/n_shards", None),
    ],
)
def test_direction_from_the_key_or_its_parent(path, better):
    assert compare.direction(path) == better


def test_flags_only_judged_changes_over_the_threshold(tmp_path, capsys):
    before = {
        "env": {"git_sha": "a"},
        "stage": {"select_ms": 100.0, "speedup": 2.0, "rows": 10, "ok": True},
        "rates": {"per_second": 50.0, "bin_ms": 10.0},
    }
    after = {
        "env": {"git_sha": "b"},
        "stage": {"select_ms": 115.0, "speedup": 2.5, "rows": 30, "ok": False},
        "rates": {"per_second": 47.0, "bin_ms": 0.0},
    }
    verdicts = {row[0]: row[4] for row in compare.compare(before, after, 0.10)}
    assert verdicts == {
        "stage/select_ms": "REGRESSION",
        "stage/speedup": "improved",
        "stage/rows": "-",
        "rates/per_second": "",
        "rates/bin_ms": "improved",
    }
    paths = []
    for name, tree in (("before", before), ("after", after)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(tree))
    assert compare.main([str(paths[0]), str(paths[1])]) == 1
    assert "1 regression(s) over 10%: stage/select_ms" in capsys.readouterr().out
    assert compare.main([str(paths[0]), str(paths[0])]) == 0
