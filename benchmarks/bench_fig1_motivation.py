"""Figure 1(a): data drift degrades a Vulde-style detector over time.

Trains the Bi-LSTM on the earliest era window and measures binary
detection F1 on successive year windows — the F1 should fall sharply
for windows far from the training data, reproducing the paper's
motivation plot.
"""

# conftest first: it pins BLAS threads before NumPy loads
from conftest import write_artifact

from repro.core import f1_score
from repro.experiments import figure13_sensitivity
from repro.models import vulde
from repro.tasks import VulnerabilityDetectionTask

YEAR_WINDOWS = [
    ("12-14", range(2013, 2015)),
    ("15-17", range(2015, 2018)),
    ("18-19", range(2018, 2020)),
    ("20-21", range(2020, 2022)),
    ("22-23", range(2022, 2024)),
]


def _figure1_series():
    task = VulnerabilityDetectionTask(n_samples=640, mode="binary", seed=0)
    train_years = YEAR_WINDOWS[0][1]
    model = vulde(seed=0)
    split0 = task.era_split(train_years, YEAR_WINDOWS[1][1])
    model.fit(task.subset(split0.train), task.labels[split0.train])

    points = []
    # First window: in-distribution holdout from the training years.
    train_idx = split0.train
    holdout = train_idx[: max(1, len(train_idx) // 5)]
    predictions = model.predict(task.subset(holdout))
    points.append(
        (YEAR_WINDOWS[0][0], f1_score(task.labels[holdout] == 1, predictions == 1))
    )
    for name, years in YEAR_WINDOWS[1:]:
        split = task.era_split(train_years, years)
        predictions = model.predict(task.subset(split.test))
        points.append(
            (name, f1_score(task.labels[split.test] == 1, predictions == 1))
        )
    return points


def test_fig1_vulde_f1_decays_over_time(benchmark):
    points = benchmark.pedantic(_figure1_series, rounds=1, iterations=1)
    rendered = figure13_sensitivity(
        {"Vulde F1": points}, title="Figure 1(a): drift impact over CVE eras"
    )
    print("\n" + rendered)
    write_artifact("fig1_motivation.txt", rendered)

    values = dict(points)
    early = values["12-14"]
    late = min(values["20-21"], values["22-23"])
    # Shape check: in-window F1 is high; far-future F1 degrades clearly.
    assert early > 0.7
    assert late < early - 0.1
