"""Tests for the pluggable drift-trigger layer (DESIGN.md §11).

The acceptance property: the default ``TriggerConfig`` stack is
**decision-identical** to the legacy deque-based monitor — a verbatim
copy of which lives here as the oracle — under any interleaving of
observes and resets (hypothesis property test), and across every shard
router × eviction policy in the deployment loop, sync and async.  On top of that: the oversensitivity
reproduction (raw hypothesis-testing triggers fire ≥3x more than the
dynamic-threshold policy at equal recall, Modyn's finding), the
trigger-state durability round-trip, per-shard triggers under async
maintenance, and unit coverage of windows, detectors, policies,
ensembles and the cost-aware budget.
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    AsyncServingLoop,
    CheckpointWriter,
    ConfigurationError,
    CostAwareBudgetPolicy,
    CoverageCostModel,
    CredibilityDetector,
    Decision,
    DecisionBatch,
    DetectionWindows,
    DriftTrigger,
    EWMAThresholdPolicy,
    HysteresisPolicy,
    LoopConfig,
    ModelInterface,
    ObservationBatch,
    PValueDetector,
    AccuracyProxyDetector,
    PerShardTriggerStack,
    PruningConfig,
    QuantileThresholdPolicy,
    ServingConfig,
    CheckpointConfig,
    StaticThresholdPolicy,
    TriggerConfig,
    TriggerStack,
    ValidationError,
    WarmupPolicy,
    build_trigger_stack,
    restore_checkpoint,
)
from repro.experiments import runner, stream_deployment
from repro.ml import MLPClassifier

from ..conftest import make_blobs

ROUTERS = ("hash", "label", "cluster")
POLICIES = ("fifo", "reservoir", "lowest_weight")


class _LegacyDriftMonitor:
    """The pre-trigger-layer DriftMonitor, copied verbatim as the oracle.

    Below the verbatim part, the three members the deployment loop
    calls on its trigger stack that the old monitor did not have.
    """

    def __init__(self, window: int = 100, alert_threshold: float = 0.3):
        self.window = window
        self.alert_threshold = alert_threshold
        self._flags = deque(maxlen=window)
        self._total_seen = 0
        self._total_rejected = 0

    def observe(self, decision) -> bool:
        self._flags.append(bool(decision.drifting))
        self._total_seen += 1
        self._total_rejected += int(decision.drifting)
        return self.alert

    def observe_batch(self, decisions) -> bool:
        if isinstance(decisions, DecisionBatch):
            flags = np.asarray(decisions.drifting, dtype=bool)
            self._flags.extend(map(bool, flags))
            self._total_seen += len(flags)
            self._total_rejected += int(flags.sum())
            return self.alert
        for decision in decisions:
            self.observe(decision)
        return self.alert

    @property
    def rejection_rate(self) -> float:
        if not self._flags:
            return 0.0
        return sum(self._flags) / len(self._flags)

    @property
    def alert(self) -> bool:
        minimum = min(10, self.window)
        if len(self._flags) < minimum:
            return False
        return self.rejection_rate >= self.alert_threshold

    @property
    def lifetime_rejection_rate(self) -> float:
        if self._total_seen == 0:
            return 0.0
        return self._total_rejected / self._total_seen

    def reset(self, lifetime: bool = False) -> None:
        self._flags.clear()
        if lifetime:
            self._total_seen = 0
            self._total_rejected = 0

    def observe_stream_batch(self, decisions, raw=None, labels=None) -> bool:
        return self.observe_batch(decisions)

    last_decision = None

    def relabel_budget(self, base_fraction: float) -> float:
        return base_fraction


def _stack(window=100, threshold=0.3):
    """The default stack for one window and threshold, built from its config."""
    return build_trigger_stack(TriggerConfig(window=window, threshold=threshold))


def _decision(drifting, credibility=0.5):
    return Decision(
        accepted=not drifting,
        credibility=credibility,
        confidence=0.8,
        votes=(),
    )


def _decision_batch(flags, credibility=None):
    flags = np.asarray(flags, dtype=bool)
    credibility = (
        np.full(len(flags), 0.5)
        if credibility is None
        else np.asarray(credibility, dtype=float)
    )
    return DecisionBatch(
        accepted=~flags,
        credibility=credibility,
        confidence=np.full(len(flags), 0.8),
        expert_names=("e0",),
        expert_credibility=credibility[None, :],
        expert_confidence=np.full((1, len(flags)), 0.8),
        expert_set_size=np.ones((1, len(flags)), dtype=int),
        expert_accept=(~flags)[None, :],
    )


class BlobInterface(ModelInterface):
    def feature_extraction(self, X):
        return np.asarray(X)


def _trained_interface(n_shards=1, router="hash", eviction="fifo", seed=0):
    interface = BlobInterface(
        MLPClassifier(epochs=15, seed=seed),
        max_calibration=120,
        seed=seed,
        n_shards=n_shards,
        router=router,
        eviction=eviction,
    )
    X, y = make_blobs(350, seed=seed)
    interface.train(X, y)
    return interface


def _drift_stream(n=400, seed=1):
    X_a, y_a = make_blobs(n // 2, seed=seed)
    X_b, y_b = make_blobs(n // 2, shift=3.0, seed=seed + 1)
    return np.concatenate([X_a, X_b]), np.concatenate([y_a, y_b])


# -- hypothesis property: default stack ≡ legacy monitor ---------------------------

_events = st.lists(
    st.one_of(
        st.booleans().map(lambda f: ("observe", f)),
        st.lists(st.booleans(), max_size=12).map(lambda fs: ("batch", fs)),
        st.lists(st.booleans(), min_size=1, max_size=12).map(
            lambda fs: ("decision_batch", fs)
        ),
        st.just(("reset",)),
        st.just(("reset_lifetime",)),
    ),
    max_size=40,
)


class TestLegacyEquivalenceProperty:
    @settings(max_examples=120, deadline=None)
    @given(
        window=st.integers(min_value=1, max_value=25),
        threshold=st.floats(min_value=0.05, max_value=1.0),
        events=_events,
    )
    def test_default_stack_bit_identical_to_legacy(
        self, window, threshold, events
    ):
        legacy = _LegacyDriftMonitor(window, threshold)
        stack = _stack(window=window, threshold=threshold)
        for event in events:
            if event[0] == "observe":
                returned = (
                    legacy.observe(_decision(event[1])),
                    stack.observe(_decision(event[1])),
                )
                assert returned[0] == returned[1]
            elif event[0] == "batch":
                decisions = [_decision(f) for f in event[1]]
                returned = (
                    legacy.observe_batch(decisions),
                    stack.observe_batch(decisions),
                )
                assert returned[0] == returned[1]
            elif event[0] == "decision_batch":
                batch = _decision_batch(event[1])
                returned = (
                    legacy.observe_batch(batch),
                    stack.observe_batch(batch),
                )
                assert returned[0] == returned[1]
            elif event[0] == "reset":
                legacy.reset()
                stack.reset()
            else:
                legacy.reset(lifetime=True)
                stack.reset(lifetime=True)
            assert legacy.alert == stack.alert
            assert legacy.rejection_rate == stack.rejection_rate
            assert (
                legacy.lifetime_rejection_rate
                == stack.lifetime_rejection_rate
            )


# -- stream-level equivalence: every router × eviction, sync + async ---------------


def _stream_run(router, eviction, asynchronous):
    interface = _trained_interface(n_shards=3, router=router, eviction=eviction)
    X_stream, y_stream = _drift_stream()
    serving = (
        ServingConfig(drain_each_step=True, record_decisions=True)
        if asynchronous
        else ServingConfig(asynchronous=False, record_decisions=True)
    )
    return stream_deployment(
        interface,
        X_stream,
        y_stream,
        loop=LoopConfig(batch_size=50, budget_fraction=0.1, epochs=5),
        serving=serving,
    )


def _legacy_stream_run(monkeypatch, router, eviction, asynchronous):
    """A whole run with the legacy monitor in place of the trigger stack."""
    with monkeypatch.context() as patch:
        patch.setattr(
            runner, "build_trigger_stack", lambda *a, **k: _LegacyDriftMonitor()
        )
        run = _stream_run(router, eviction, asynchronous)
    assert isinstance(run.monitor, _LegacyDriftMonitor)
    return run


def _assert_runs_identical(legacy_run, default_run):
    assert len(legacy_run.steps) == len(default_run.steps)
    for a, b in zip(legacy_run.steps, default_run.steps):
        assert a.alert == b.alert
        assert a.rejection_rate == b.rejection_rate
        assert a.model_updated == b.model_updated
        assert a.n_relabelled == b.n_relabelled
        assert np.array_equal(a.decisions.accepted, b.decisions.accepted)
        assert np.array_equal(a.decisions.credibility, b.decisions.credibility)
    assert legacy_run.n_model_updates == default_run.n_model_updates
    assert (
        legacy_run.lifetime_rejection_rate
        == default_run.lifetime_rejection_rate
    )
    assert (
        legacy_run.final_calibration_size == default_run.final_calibration_size
    )
    assert legacy_run.final_shard_sizes == default_run.final_shard_sizes


class TestStreamEquivalence:
    @pytest.mark.parametrize("router", ROUTERS)
    @pytest.mark.parametrize("eviction", POLICIES)
    def test_sync_stream_matches_legacy_monitor(self, monkeypatch, router, eviction):
        legacy_run = _legacy_stream_run(
            monkeypatch, router, eviction, asynchronous=False
        )
        default_run = _stream_run(router, eviction, asynchronous=False)
        _assert_runs_identical(legacy_run, default_run)
        assert default_run.n_trigger_fires == sum(
            1 for step in default_run.steps if step.alert
        )

    @pytest.mark.concurrency
    @pytest.mark.parametrize("router", ROUTERS)
    @pytest.mark.parametrize("eviction", POLICIES)
    def test_async_stream_matches_legacy_monitor(self, monkeypatch, router, eviction):
        legacy_run = _legacy_stream_run(
            monkeypatch, router, eviction, asynchronous=True
        )
        default_run = _stream_run(router, eviction, asynchronous=True)
        _assert_runs_identical(legacy_run, default_run)

    def test_trigger_observability_on_steps(self):
        run = _stream_run("hash", "fifo", asynchronous=False)
        assert all(s.trigger_detector == "credibility" for s in run.steps)
        for step in run.steps:
            assert step.trigger_metric >= 0.0
            assert step.effective_budget_fraction == 0.1
        alert_steps = [s for s in run.steps if s.alert]
        assert alert_steps, "drifted stream must fire the default trigger"
        assert all(
            s.trigger_metric >= s.trigger_threshold for s in alert_steps
        )


# -- oversensitivity reproduction (fixed seeds, regression-locked) -----------------


def synthetic_credibility_stream(
    n_steps=240, step=20, segments=((80, 120), (180, 220)), seed=5
):
    """Credibility batches with two sustained drift segments."""
    rng = np.random.default_rng(seed)
    batches, truth = [], []
    for t in range(n_steps):
        drifted = any(a <= t < b for a, b in segments)
        cred = rng.uniform(0.0, 0.25 if drifted else 1.0, size=step)
        batches.append(
            ObservationBatch(
                flags=tuple(bool(c < 0.3) for c in cred),
                credibility=tuple(float(c) for c in cred),
                disagreement=tuple(0.0 for _ in cred),
            )
        )
        truth.append(drifted)
    return batches, truth, segments


def run_pvalue_trigger(policy, batches):
    """Fire sequence of a KS-detector trigger under ``policy``."""
    trigger = DriftTrigger(
        PValueDetector(DetectionWindows(size=60, reference_size=256, seed=0)),
        policy,
        warmup=WarmupPolicy(20),
    )
    return [trigger.observe_batch(obs).fired for obs in batches]


class TestOversensitivity:
    def test_raw_hypothesis_testing_fires_3x_more_than_dynamic(self):
        batches, truth, segments = synthetic_credibility_stream()
        raw = run_pvalue_trigger(StaticThresholdPolicy(0.95), batches)
        dynamic = run_pvalue_trigger(
            QuantileThresholdPolicy(0.95, history=32), batches
        )

        def recall(fires):
            return sum(any(fires[a:b]) for a, b in segments) / len(segments)

        # equal (perfect) recall of the true drift segments ...
        assert recall(raw) == 1.0
        assert recall(dynamic) == 1.0
        # ... yet the raw significance cut fires >= 3x more often — the
        # Modyn finding this layer exists to fix (regression-locked on
        # fixed seeds; bench_triggers.py records the full study)
        assert sum(raw) >= 3 * sum(dynamic)
        # and the raw trigger's surplus is false fires on clean traffic
        raw_false = sum(f for f, t in zip(raw, truth) if not t)
        dyn_false = sum(f for f, t in zip(dynamic, truth) if not t)
        assert raw_false > dyn_false


# -- detection windows -------------------------------------------------------------


class TestDetectionWindows:
    def test_amount_window_truncates_to_size(self):
        windows = DetectionWindows(size=5, seed=0)
        windows.push([1.0, 2.0, 3.0])
        windows.push([4.0, 5.0, 6.0, 7.0])
        assert windows.current == (3.0, 4.0, 5.0, 6.0, 7.0)
        assert windows.n_pushed == 7

    def test_steps_window_spans_observe_calls(self):
        windows = DetectionWindows(size=2, mode="steps", seed=0)
        windows.push([1.0, 2.0, 3.0])
        windows.push([4.0])
        windows.push([5.0, 6.0])
        assert windows.current == (4.0, 5.0, 6.0)

    def test_reservoir_is_seed_deterministic(self):
        a = DetectionWindows(size=10, reference_size=8, seed=42)
        b = DetectionWindows(size=10, reference_size=8, seed=42)
        for chunk in np.split(np.arange(200, dtype=float), 20):
            a.push(chunk)
            b.push(chunk)
        assert a.reference == b.reference
        assert len(a.reference) == 8

    def test_reset_keeps_reference_unless_lifetime(self):
        windows = DetectionWindows(size=4, reference_size=4, seed=1)
        windows.push([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        windows.reset()
        assert windows.current == ()
        assert len(windows.reference) == 4
        windows.reset(reference=True)
        assert windows.reference == ()
        # full reset is bit-identical to a fresh window
        fresh = DetectionWindows(size=4, reference_size=4, seed=1)
        assert windows.state_dict() == fresh.state_dict()

    def test_state_roundtrip_preserves_reservoir_stream(self):
        a = DetectionWindows(size=6, reference_size=4, seed=3)
        a.push(np.arange(40, dtype=float))
        b = DetectionWindows(size=6, reference_size=4, seed=3)
        b.load_state_dict(a.state_dict())
        # identical state now, and identical randomness afterwards
        tail = np.arange(40, 80, dtype=float)
        a.push(tail)
        b.push(tail)
        assert a.state_dict() == b.state_dict()

    def test_mismatched_state_rejected(self):
        windows = DetectionWindows(size=6, seed=0)
        other = DetectionWindows(size=7, seed=0)
        with pytest.raises(ValidationError):
            windows.load_state_dict(other.state_dict())

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            DetectionWindows(size=0)
        with pytest.raises(ConfigurationError):
            DetectionWindows(mode="wallclock")
        with pytest.raises(ConfigurationError):
            DetectionWindows(reference_size=0)


# -- detectors ---------------------------------------------------------------------


class TestDetectors:
    def test_credibility_metric_is_windowed_rejection_rate(self):
        detector = CredibilityDetector(DetectionWindows(size=4, seed=0))
        detector.update(ObservationBatch((True, False), (0.1, 0.9), (0.0, 0.0)))
        assert detector.metric() == 0.5
        detector.update(ObservationBatch((True, True), (0.1, 0.1), (0.0, 0.0)))
        assert detector.metric() == 0.75

    def test_pvalue_detector_separates_shifted_credibility(self):
        detector = PValueDetector(
            DetectionWindows(size=40, reference_size=128, seed=0)
        )
        rng = np.random.default_rng(0)
        clean = rng.uniform(0.0, 1.0, 200)
        for chunk in np.split(clean, 10):
            detector.update(
                ObservationBatch(
                    tuple(False for _ in chunk),
                    tuple(float(c) for c in chunk),
                    tuple(0.0 for _ in chunk),
                )
            )
        in_dist_metric = detector.metric()
        shifted = rng.uniform(0.0, 0.1, 40)
        detector.update(
            ObservationBatch(
                tuple(True for _ in shifted),
                tuple(float(c) for c in shifted),
                tuple(0.0 for _ in shifted),
            )
        )
        assert detector.metric() > 0.99
        assert detector.metric() > in_dist_metric

    def test_accuracy_proxy_tracks_disagreement(self):
        detector = AccuracyProxyDetector(DetectionWindows(size=4, seed=0))
        detector.update(
            ObservationBatch((False,) * 4, (0.5,) * 4, (1.0, 0.0, 1.0, 1.0))
        )
        assert detector.metric() == 0.75


# -- decision policies -------------------------------------------------------------


class TestPolicies:
    def test_static_threshold(self):
        policy = StaticThresholdPolicy(0.3)
        assert not policy.decide(0.29)
        assert policy.decide(0.3)
        assert policy.last_threshold == 0.3

    def test_quantile_policy_adapts_to_level_shifts(self):
        policy = QuantileThresholdPolicy(0.9, history=10)
        # warming: no fires while history fills
        assert not any(policy.decide(0.1) for _ in range(5))
        # excursion above the rolling quantile fires ...
        assert policy.decide(0.8)
        # ... but a *sustained* shift stops firing once absorbed
        fires = [policy.decide(0.8) for _ in range(10)]
        assert not all(fires)
        assert not fires[-1]

    def test_ewma_policy_fires_on_band_exit_then_adapts(self):
        policy = EWMAThresholdPolicy(alpha=0.5, widen=2.0, warm_steps=3)
        for _ in range(6):
            assert not policy.decide(0.1)
        assert policy.decide(0.9)
        # the band swallows the new level after a few steps
        fires = [policy.decide(0.9) for _ in range(8)]
        assert not fires[-1]

    def test_hysteresis_stays_armed_until_exit(self):
        policy = HysteresisPolicy(enter=0.5, exit_below=0.2)
        assert not policy.decide(0.4)
        assert policy.decide(0.6)
        assert policy.decide(0.3)  # below enter, above exit: still armed
        assert not policy.decide(0.1)
        assert not policy.decide(0.3)  # disarmed: needs enter again

    def test_policy_state_roundtrip(self):
        for make in (
            lambda: QuantileThresholdPolicy(0.9, history=8),
            lambda: EWMAThresholdPolicy(0.4, 1.5),
            lambda: HysteresisPolicy(0.5, 0.2),
        ):
            a, b = make(), make()
            for metric in (0.1, 0.2, 0.8, 0.4):
                a.decide(metric)
            b.load_state_dict(a.state_dict())
            for metric in (0.5, 0.9, 0.1):
                assert a.decide(metric) == b.decide(metric)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            StaticThresholdPolicy(0.0)
        with pytest.raises(ConfigurationError):
            QuantileThresholdPolicy(1.0)
        with pytest.raises(ConfigurationError):
            QuantileThresholdPolicy(0.9, history=1)
        with pytest.raises(ConfigurationError):
            EWMAThresholdPolicy(alpha=0.0)
        with pytest.raises(ConfigurationError):
            HysteresisPolicy(enter=0.3, exit_below=0.4)
        with pytest.raises(ConfigurationError):
            WarmupPolicy(-1)


# -- ensembles + stack surface -----------------------------------------------------


def _stack_with(detectors, ensemble):
    triggers = tuple(
        DriftTrigger(
            detector,
            StaticThresholdPolicy(0.5),
            warmup=WarmupPolicy(1),
        )
        for detector in detectors
    )
    return TriggerStack(triggers, ensemble=ensemble, window=10)


class TestEnsembles:
    @pytest.mark.parametrize(
        "ensemble,expected", [("any", True), ("all", False), ("majority", False)]
    )
    def test_vote_combination_one_of_two(self, ensemble, expected):
        # credibility fires (all drifting), accuracy proxy does not
        stack = _stack_with(
            (
                CredibilityDetector(DetectionWindows(size=10, seed=0)),
                AccuracyProxyDetector(DetectionWindows(size=10, seed=1)),
            ),
            ensemble,
        )
        fired = stack.observe_batch(
            ObservationBatch((True,) * 4, (0.05,) * 4, (0.0,) * 4)
        )
        assert fired is expected
        assert len(stack.last_decision.votes) == 2

    def test_majority_two_of_three(self):
        stack = _stack_with(
            (
                CredibilityDetector(DetectionWindows(size=10, seed=0)),
                CredibilityDetector(DetectionWindows(size=10, seed=1)),
                AccuracyProxyDetector(DetectionWindows(size=10, seed=2)),
            ),
            "majority",
        )
        assert stack.observe_batch(
            ObservationBatch((True,) * 4, (0.05,) * 4, (0.0,) * 4)
        )

    def test_stack_validation(self):
        with pytest.raises(ConfigurationError):
            TriggerStack(())
        with pytest.raises(ConfigurationError):
            _stack_with(
                (CredibilityDetector(DetectionWindows(size=5, seed=0)),),
                "quorum",
            )


# -- cost-aware relabel budget -----------------------------------------------------


class TestCostAwareBudget:
    def test_expected_loss_interpolates_pr8_curve(self):
        model = CoverageCostModel()
        assert model.expected_loss(1.0) == 0.0
        assert model.expected_loss(0.0) == pytest.approx(0.45)
        assert model.expected_loss(0.375) == pytest.approx(
            1.0 - (0.795 + 0.915) / 2.0
        )

    def test_budget_passthrough_without_fire(self):
        policy = CostAwareBudgetPolicy(ceiling=0.5, spill=0.0)
        assert policy.budget(0.05, None) == 0.05
        stack = _stack(window=10)
        assert stack.relabel_budget(0.05) == 0.05

    def test_budget_rises_toward_ceiling_on_fire(self):
        policy = CostAwareBudgetPolicy(ceiling=0.5, spill=0.0)
        fired = _stack(window=10, threshold=0.3)
        fired.observe_batch([_decision(True) for _ in range(10)])
        decision = fired.last_decision
        assert decision.fired
        raised = policy.budget(0.05, decision)
        assert 0.05 < raised <= 0.5
        # aggressive pruning (low spill) earns a bigger budget than
        # exact mode at the same severity
        exact = CostAwareBudgetPolicy(ceiling=0.5, spill=1.0)
        assert raised >= exact.budget(0.05, decision)

    def test_stream_budget_raised_on_alert_steps(self):
        interface = _trained_interface()
        X_stream, y_stream = _drift_stream()
        run = stream_deployment(
            interface,
            X_stream,
            y_stream,
            loop=LoopConfig(
                batch_size=50,
                budget_fraction=0.05,
                epochs=5,
                triggers=TriggerConfig(budget_ceiling=0.5),
            ),
            serving=ServingConfig(asynchronous=False),
            pruning=PruningConfig(spill=0.0),
        )
        alert_steps = [s for s in run.steps if s.alert]
        assert alert_steps
        assert all(
            s.effective_budget_fraction > 0.05 for s in alert_steps
        )
        assert all(
            s.effective_budget_fraction == 0.05
            for s in run.steps
            if not s.alert
        )

    def test_stream_budget_prices_the_effective_spill(self, monkeypatch):
        built = []

        def build(*args, **kwargs):
            built.append(build_trigger_stack(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(runner, "build_trigger_stack", build)
        X_stream, y_stream = _drift_stream()
        loop = LoopConfig(
            batch_size=50,
            budget_fraction=0.05,
            epochs=5,
            triggers=TriggerConfig(budget_ceiling=0.5),
        )
        runs = [
            stream_deployment(
                _trained_interface(),
                X_stream,
                y_stream,
                loop=loop,
                serving=ServingConfig(asynchronous=False),
                **extra,
            )
            for extra in (
                {},
                {"pruning": PruningConfig(enabled=False, spill=0.0)},
                {"pruning": PruningConfig(spill=0.0)},
            )
        ]
        # pruning off budgets in exact mode, whatever its spill says
        assert [stack.budget_policy.spill for stack in built] == [1.0, 1.0, 0.0]
        exact, disabled, pruned = (
            [step.effective_budget_fraction for step in run.steps] for run in runs
        )
        assert exact == disabled
        assert all(a <= b for a, b in zip(exact, pruned))
        assert exact != pruned

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            CostAwareBudgetPolicy(ceiling=0.0)
        with pytest.raises(ConfigurationError):
            CostAwareBudgetPolicy(spill=1.5)
        with pytest.raises(ConfigurationError):
            CoverageCostModel(spills=(0.5, 0.0), agreement=(0.9, 1.0))


# -- TriggerConfig / LoopConfig plumbing -------------------------------------------


class TestTriggerConfig:
    def test_default_config_builds_legacy_equivalent_stack(self):
        stack = build_trigger_stack(TriggerConfig())
        assert isinstance(stack, TriggerStack)
        assert stack.window == 100
        legacy = _LegacyDriftMonitor()
        for _ in range(3):
            batch = [_decision(True) for _ in range(12)]
            assert stack.observe_batch(batch) == legacy.observe_batch(batch)

    def test_config_selects_detectors_policy_ensemble(self):
        stack = build_trigger_stack(
            TriggerConfig(
                detectors=("credibility", "p_value", "accuracy_proxy"),
                policy="ewma",
                ensemble="majority",
                window=40,
            )
        )
        assert len(stack.triggers) == 3
        assert stack.ensemble == "majority"
        assert all(
            isinstance(t.policy, EWMAThresholdPolicy) for t in stack.triggers
        )

    def test_per_shard_config_builds_router_keyed_stack(self):
        interface = _trained_interface(n_shards=4, router="cluster")
        stack = build_trigger_stack(
            TriggerConfig(per_shard=True, window=30),
            router=interface.streaming.store.router,
            n_shards=4,
            featurizer=interface.feature_extraction,
        )
        assert isinstance(stack, PerShardTriggerStack)
        assert len(stack.shard_stacks) == 4
        # distinct deterministic seeds per shard
        seeds = {
            s.triggers[0].detector.windows.seed for s in stack.shard_stacks
        }
        assert len(seeds) == 4

    def test_per_shard_degrades_to_global_without_router(self):
        stack = build_trigger_stack(TriggerConfig(per_shard=True))
        assert isinstance(stack, TriggerStack)

    def test_loop_config_takes_no_prebuilt_monitor(self):
        with pytest.raises(TypeError):
            LoopConfig(monitor=_LegacyDriftMonitor())

    def test_invalid_values_rejected(self):
        for bad in (
            dict(window=0),
            dict(window_mode="wallclock"),
            dict(reference=0),
            dict(warmup=-1),
            dict(detectors=()),
            dict(detectors=("nope",)),
            dict(policy="magic"),
            dict(threshold=0.0),
            dict(quantile=1.0),
            dict(history=1),
            dict(ewma_alpha=2.0),
            dict(ewma_widen=-1.0),
            dict(hysteresis_exit=0.9),
            dict(ensemble="quorum"),
            dict(budget_ceiling=0.0),
        ):
            with pytest.raises(ConfigurationError):
                TriggerConfig(**bad)


# -- durability: trigger-state round-trip ------------------------------------------


class TestTriggerDurability:
    def _observed_stack(self, interface, window=30):
        stack = _stack(window=window)
        X_stream, _ = _drift_stream(200)
        for start in range(0, 200, 50):
            _, decisions = interface.predict(X_stream[start : start + 50])
            stack.observe_batch(decisions)
        return stack, X_stream

    def test_checkpoint_restores_trigger_window_state(self, tmp_path):
        interface = _trained_interface()
        stack, X_stream = self._observed_stack(interface)
        writer = CheckpointWriter(tmp_path, triggers=stack)
        writer.checkpoint(interface.streaming)

        fresh_interface = _trained_interface()
        fresh_stack = _stack(window=30)
        report = restore_checkpoint(
            fresh_interface.streaming, tmp_path, triggers=fresh_stack
        )
        assert report.trigger_restored
        assert fresh_stack.state_dict() == stack.state_dict()
        assert fresh_stack.rejection_rate == stack.rejection_rate
        assert (
            fresh_stack.lifetime_rejection_rate
            == stack.lifetime_rejection_rate
        )
        # and the two stacks stay decision-identical on a shared tail
        _, tail = interface.predict(X_stream[100:150])
        assert stack.observe_batch(tail) == fresh_stack.observe_batch(tail)
        assert stack.rejection_rate == fresh_stack.rejection_rate

    def test_pre_trigger_manifest_rewarms_deterministically(self, tmp_path):
        interface = _trained_interface()
        # a writer with no trigger target: the manifest carries no state
        CheckpointWriter(tmp_path).checkpoint(interface.streaming)
        stack = _stack(window=30)
        stack.observe_batch([_decision(True) for _ in range(20)])
        report = restore_checkpoint(
            _trained_interface().streaming, tmp_path, triggers=stack
        )
        assert not report.trigger_restored
        # deterministic re-warm: bit-identical to a fresh stack
        assert stack.state_dict() == _stack(window=30).state_dict()
        assert not stack.alert

    def test_incompatible_trigger_state_rewarms(self, tmp_path):
        interface = _trained_interface()
        stack, _ = self._observed_stack(interface, window=30)
        CheckpointWriter(tmp_path, triggers=stack).checkpoint(
            interface.streaming
        )
        mismatched = _stack(window=40)
        mismatched.observe_batch([_decision(True) for _ in range(20)])
        report = restore_checkpoint(
            _trained_interface().streaming, tmp_path, triggers=mismatched
        )
        assert not report.trigger_restored
        assert any("trigger state" in f for f in report.fallbacks)
        assert (
            mismatched.state_dict()
            == _stack(window=40).state_dict()
        )

    def test_monitor_reset_lifetime_matches_fresh_after_restore(self, tmp_path):
        interface = _trained_interface()
        stack, _ = self._observed_stack(interface)
        CheckpointWriter(tmp_path, triggers=stack).checkpoint(
            interface.streaming
        )
        restored = _stack(window=30)
        restore_checkpoint(
            _trained_interface().streaming, tmp_path, triggers=restored
        )
        restored.reset(lifetime=True)
        assert restored.state_dict() == _stack(window=30).state_dict()

    def test_stream_deployment_warm_restart_restores_triggers(self, tmp_path):
        X_stream, y_stream = _drift_stream()
        first = stream_deployment(
            _trained_interface(),
            X_stream,
            y_stream,
            loop=LoopConfig(batch_size=50, budget_fraction=0.1, epochs=5),
            serving=ServingConfig(asynchronous=False),
            checkpointing=CheckpointConfig(directory=tmp_path),
        )
        assert first.checkpoint_generations > 0
        assert not first.trigger_restored
        second = stream_deployment(
            _trained_interface(),
            X_stream,
            y_stream,
            loop=LoopConfig(batch_size=50, budget_fraction=0.1, epochs=5),
            serving=ServingConfig(asynchronous=False),
            checkpointing=CheckpointConfig(directory=tmp_path, restore=True),
        )
        assert second.restored_generation is not None
        assert second.trigger_restored


# -- per-shard triggers under async maintenance ------------------------------------


@pytest.mark.concurrency
class TestPerShardConcurrency:
    def test_per_shard_triggers_survive_async_maintenance(self):
        import threading

        interface = _trained_interface(
            n_shards=4, router="cluster", eviction="reservoir"
        )
        stack = build_trigger_stack(
            TriggerConfig(per_shard=True, window=40),
            router=interface.streaming.store.router,
            n_shards=4,
            featurizer=interface.feature_extraction,
        )
        loop = AsyncServingLoop(interface, n_workers=2, triggers=stack)
        X_stream, y_stream = _drift_stream(480)
        stop = threading.Event()
        errors = []

        def serve(seed):
            rng = np.random.default_rng(seed)
            try:
                while not stop.is_set():
                    start = int(rng.integers(0, len(X_stream) - 40))
                    loop.predict(X_stream[start : start + 40])
            except Exception as err:  # noqa: BLE001 — surfaced below
                errors.append(err)

        threads = [
            threading.Thread(target=serve, args=(seed,)) for seed in (1, 2)
        ]
        for thread in threads:
            thread.start()
        # churn the calibration shards hard while serving observes
        for r in range(8):
            X_new, y_new = make_blobs(40, shift=2.0, seed=30 + r)
            loop.submit_fold(X_new, y_new)
            # snapshot trigger state mid-maintenance: must never block
            # or read a mutating shard (sanitizer is armed)
            state = stack.state_dict()
            assert state["kind"] == "per_shard"
        loop.drain(timeout=60)
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        loop.close()
        assert not errors
        assert loop.stats.trigger_observations > 0
        assert stack.lifetime_rejection_rate >= 0.0
        # routed observations reached more than one shard stack
        populated = sum(
            1
            for s in stack.shard_stacks
            if len(s.triggers[0].detector.windows.current)
        )
        assert populated >= 2

    def test_loop_counts_trigger_fires(self):
        interface = _trained_interface()
        stack = _stack(window=40)
        loop = AsyncServingLoop(interface, triggers=stack)
        X_drifted, _ = make_blobs(200, shift=4.0, seed=11)
        for start in range(0, 200, 40):
            loop.predict(X_drifted[start : start + 40])
        loop.close()
        assert loop.stats.trigger_observations == 200
        assert loop.stats.trigger_fires > 0
        assert stack.alert
