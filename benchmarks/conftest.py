"""Shared fixtures for the benchmark harness.

The benches regenerate the paper's tables and figures; the heavy
(task, model) experiment runs are computed once per session and shared,
so each bench times its own end-to-end regeneration without repeating
every other bench's training.

Dataset sizes are scaled down from the full evaluation (the paper's own
artifact does the same "reduced-scale evaluation") but keep every
protocol intact: drift splits, calibration, committee voting,
incremental learning.  Rendered outputs are also written to
``benchmarks/out/`` for inspection.
"""

import os
import sys

# BLAS stays on one thread, as perfbench/run.py pins it: unpinned,
# multithreaded BLAS on a small box stalls some processes for ~16 ms
# per streaming update().  The pin only takes if it happens before
# NumPy loads, so every bench script imports this module first.
assert "numpy" not in sys.modules, (
    "benchmarks/conftest.py must be imported before numpy (it pins BLAS threads)"
)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from repro.experiments import run_classification, run_incremental, run_regression  # noqa: E402
from repro.models import MODEL_CATALOG  # noqa: E402
from repro.tasks import (  # noqa: E402
    DnnCodeGenerationTask,
    HeterogeneousMappingTask,
    LoopVectorizationTask,
    ThreadCoarseningTask,
    VulnerabilityDetectionTask,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = os.path.join(os.path.dirname(__file__), "out")
CACHE_DIR = os.path.join(os.path.dirname(__file__), ".cache")

#: reduced-scale corpus sizes (paper protocol, smaller corpora)
TASK_SIZES = {
    "thread_coarsening": dict(kernels_per_suite=40),
    "loop_vectorization": dict(n_loops=300),
    "heterogeneous_mapping": dict(kernels_per_suite=25),
    "vulnerability_detection": dict(n_samples=320),
}

TASK_FACTORIES = {
    "thread_coarsening": ThreadCoarseningTask,
    "loop_vectorization": LoopVectorizationTask,
    "heterogeneous_mapping": HeterogeneousMappingTask,
    "vulnerability_detection": VulnerabilityDetectionTask,
}


def write_artifact(name: str, text: str) -> None:
    """Persist a rendered table/figure for EXPERIMENTS.md cross-checks."""
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, name), "w") as handle:
        handle.write(text + "\n")


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = REPO_ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def bench_environment() -> dict:
    """Where a bench ran: the fields ``perfbench/run.py`` records too."""
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
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "git_sha": git_sha(),
    }


def update_bench_json(name: str, payload: dict) -> str:
    """Merge ``payload`` into a JSON perf artifact under ``out/``.

    Several benches contribute sections to the same tracking file (e.g.
    ``BENCH_batch_eval.json``), so the update is a read-merge-write of
    top-level keys.  Every write also refreshes the ``env`` envelope
    (git SHA, cores, NumPy/BLAS), so numbers stay comparable across
    checkouts.  Returns the artifact path.
    """
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, name)
    data = {}
    if os.path.exists(path):
        with open(path) as handle:
            data = json.load(handle)
    data.update(payload)
    data["env"] = bench_environment()
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


class ExperimentSuite:
    """Lazily computed, session-cached experiment results."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._tasks = {}
        self._classification = None
        self._incremental = None
        self._regression = None

    def task(self, name: str):
        if name not in self._tasks:
            factory = TASK_FACTORIES[name]
            self._tasks[name] = factory(seed=self.seed, **TASK_SIZES[name])
        return self._tasks[name]

    def _cache_path(self, kind: str, key: str) -> str:
        os.makedirs(CACHE_DIR, exist_ok=True)
        return os.path.join(CACHE_DIR, f"{kind}-{key}-seed{self.seed}.pkl")

    def _cached(self, kind: str, key: str, compute):
        """Disk-memoize an expensive experiment run.

        The cache makes the regeneration benches restartable: model
        training dominates wall-clock, so a warmed cache lets the full
        table/figure suite re-render in seconds.  Delete
        ``benchmarks/.cache`` to force recomputation.
        """
        path = self._cache_path(kind, key)
        if os.path.exists(path):
            with open(path, "rb") as handle:
                return pickle.load(handle)
        value = compute()
        with open(path, "wb") as handle:
            pickle.dump(value, handle)
        return value

    def pair_result(self, task_name: str, model_name: str):
        """One cached run_classification pair."""
        factory = MODEL_CATALOG[task_name][model_name]
        task = self.task(task_name)
        return self._cached(
            "classification",
            f"{task_name}-{model_name}",
            lambda: run_classification(
                task, factory, model_name=model_name, seed=self.seed
            ),
        )

    def classification_results(self) -> list:
        """run_classification over all 12 classification (task, model) pairs."""
        if self._classification is None:
            results = []
            for task_name, models in MODEL_CATALOG.items():
                if task_name == "dnn_code_generation":
                    continue
                for model_name in models:
                    results.append(self.pair_result(task_name, model_name))
            self._classification = results
        return self._classification

    def incremental_results(self) -> list:
        """One incremental-learning round per classification result."""
        if self._incremental is None:
            outcomes = []
            for result in self.classification_results():
                task = self.task(result.task)
                models = MODEL_CATALOG[result.task]
                outcomes.append(
                    run_incremental(
                        task,
                        models[result.model],
                        model_name=result.model,
                        base_result=result,
                        budget_fraction=0.05,
                    )
                )
            self._incremental = outcomes
        return self._incremental

    def regression_summary(self) -> dict:
        """The C5 (Table 3) run: TLP on BERT-base vs variants."""
        if self._regression is None:
            def compute():
                task = DnnCodeGenerationTask(
                    schedules_per_network=200, seed=self.seed
                )
                return run_regression(task, seed=self.seed)

            self._regression = self._cached("regression", "bert", compute)
        return self._regression


@pytest.fixture(scope="session")
def suite():
    return ExperimentSuite(seed=0)
