"""Tests for the drift trigger (DESIGN.md §11).

The acceptance property: the default ``TriggerConfig`` stack is
**decision-identical** to the legacy deque-based monitor — a verbatim
copy of which lives here as the oracle — under any interleaving of
observes and resets (hypothesis property test), and across every shard
router × eviction policy in the deployment loop, sync and async.  On
top of that: the stack's own contract (window truncation, the inclusive
threshold, warmup, lifetime counters, ``state_dict`` round trip and
rejection), the trigger-state durability round-trip (including a
checkpoint of the previous state version) and observation from
concurrent serving threads under async maintenance.
"""

import json
import threading
from collections import deque
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    AsyncServingLoop,
    CheckpointWriter,
    ConfigurationError,
    Decision,
    DecisionBatch,
    LoopConfig,
    ModelInterface,
    ServingConfig,
    CheckpointConfig,
    TriggerConfig,
    TriggerDecision,
    TriggerStack,
    ValidationError,
    build_trigger_stack,
    observe_decisions,
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
        for step in run.steps:
            assert step.effective_budget_fraction == 0.1
        alert_steps = [s for s in run.steps if s.alert]
        assert alert_steps, "drifted stream must fire the default trigger"
        assert all(
            s.rejection_rate >= run.monitor.threshold for s in alert_steps
        )


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

    def test_last_decision_reports_the_step(self):
        stack = build_trigger_stack(TriggerConfig(window=20, warmup=12))
        stack.observe_batch([_decision(True) for _ in range(10)])
        assert stack.last_decision == TriggerDecision(
            fired=False, rejection_rate=1.0, window_fill=10, warmed=False
        )
        stack.observe_batch([_decision(False) for _ in range(5)])
        assert stack.last_decision == TriggerDecision(
            fired=True, rejection_rate=10 / 15, window_fill=15, warmed=True
        )
        stack.reset()
        assert stack.last_decision is None

    def test_loop_config_takes_no_prebuilt_monitor(self):
        with pytest.raises(TypeError):
            LoopConfig(monitor=_LegacyDriftMonitor())

    def test_invalid_values_rejected(self):
        for bad in (
            dict(window=0),
            dict(warmup=-1),
            dict(threshold=0.0),
            dict(threshold=1.5),
        ):
            with pytest.raises(ConfigurationError):
                TriggerConfig(**bad)
            with pytest.raises(ConfigurationError):
                TriggerStack(**bad)

    def test_removed_options_are_unknown_keywords(self):
        for removed in ("policy", "detectors", "per_shard", "budget_ceiling"):
            with pytest.raises(TypeError):
                TriggerConfig(**{removed: None})


# -- the stack itself: window, threshold, warmup, counters, state ----------------


def _observe_flags(stack, flags):
    return stack.observe_batch([_decision(f) for f in flags])


class TestTriggerStack:
    def test_amount_window_truncates_to_size(self):
        stack = _stack(window=5)
        _observe_flags(stack, (True, True, True))
        _observe_flags(stack, (False, False, True, False))
        # the window holds the last five verdicts
        assert stack.state_dict()["flags"] == [1, 0, 0, 1, 0]
        assert stack.rejection_rate == 0.4
        assert stack.last_decision.window_fill == 5
        assert stack.state_dict()["total_seen"] == 7

    def test_credibility_metric_is_windowed_rejection_rate(self):
        stack = _stack(window=4)
        stack.observe_batch(_decision_batch([True, False]))
        assert stack.rejection_rate == 0.5
        stack.observe_batch(_decision_batch([True, True]))
        assert stack.rejection_rate == 0.75
        # the first two verdicts slide out
        stack.observe_batch(_decision_batch([False, False]))
        assert stack.rejection_rate == 0.5
        assert stack.last_decision.rejection_rate == 0.5

    @pytest.mark.parametrize("threshold", (0.25, 0.5, 1.0))
    def test_static_threshold(self, threshold):
        stack = TriggerStack(window=4, threshold=threshold, warmup=4)
        n_at = int(round(threshold * 4))
        assert not _observe_flags(stack, [True] * (n_at - 1) + [False] * (5 - n_at))
        assert stack.last_decision.rejection_rate < threshold
        stack.reset()
        # a rate equal to the threshold fires
        assert _observe_flags(stack, [True] * n_at + [False] * (4 - n_at))
        assert stack.last_decision.rejection_rate == threshold

    @pytest.mark.parametrize("window, warmup", ((3, 3), (10, 10), (50, 10)))
    def test_default_warmup_is_min_of_10_and_window(self, window, warmup):
        stack = _stack(window=window)
        assert stack.warmup == warmup
        assert not _observe_flags(stack, [True] * (warmup - 1))
        assert stack.observe(_decision(True))

    def test_warmup_holds_fire_until_window_fill(self):
        stack = TriggerStack(window=20, threshold=0.3, warmup=6)
        for fill in range(1, 6):
            assert not stack.observe(_decision(True))
            assert stack.last_decision == TriggerDecision(
                fired=False, rejection_rate=1.0, window_fill=fill, warmed=False
            )
        assert stack.observe(_decision(True))
        assert stack.last_decision.warmed

    def test_zero_warmup_fires_on_first_flag(self):
        assert TriggerStack(window=10, threshold=0.5, warmup=0).observe(
            _decision(True)
        )

    def test_reset_restarts_warmup(self):
        stack = TriggerStack(window=10, threshold=0.3, warmup=3)
        assert _observe_flags(stack, [True] * 3)
        stack.reset()
        assert not stack.alert
        assert not stack.observe(_decision(True))
        assert stack.last_decision.window_fill == 1

    def test_alert_follows_the_latest_step(self):
        stack = TriggerStack(window=4, threshold=0.5, warmup=1)
        assert _observe_flags(stack, [True, True])
        assert stack.alert
        # window [T, F, F, F]: 0.25 < 0.5
        assert not _observe_flags(stack, [False] * 3)
        assert not stack.alert

    @pytest.mark.parametrize("kind", ("list", "decision_batch"))
    def test_empty_observe_keeps_the_last_step(self, kind):
        stack = TriggerStack(window=4, threshold=0.5, warmup=1)
        stack.observe(_decision(True))
        last = stack.last_decision
        empty = [] if kind == "list" else _decision_batch([])
        assert stack.observe_batch(empty)
        assert stack.last_decision is last
        assert stack.state_dict()["total_seen"] == 1

    def test_decision_batch_and_decisions_observe_alike(self):
        flags = [True, False, True, True, False, False, True]
        batch_stack, list_stack = _stack(window=5), _stack(window=5)
        assert batch_stack.observe_batch(_decision_batch(flags)) == _observe_flags(
            list_stack, flags
        )
        assert batch_stack.state_dict() == list_stack.state_dict()
        assert batch_stack.last_decision == list_stack.last_decision

    def test_reset_keeps_lifetime_counters_unless_lifetime(self):
        stack = _stack(window=4)
        _observe_flags(stack, (True, True, False, True, False, False))
        stack.reset()
        assert stack.rejection_rate == 0.0
        assert stack.state_dict()["flags"] == []
        assert stack.lifetime_rejection_rate == 0.5
        _observe_flags(stack, (True, True))
        assert stack.lifetime_rejection_rate == 5 / 8
        stack.reset(lifetime=True)
        assert stack.lifetime_rejection_rate == 0.0
        assert stack.state_dict() == _stack(window=4).state_dict()

    def test_rates_are_zero_before_any_observation(self):
        stack = _stack()
        assert stack.rejection_rate == 0.0
        assert stack.lifetime_rejection_rate == 0.0
        assert not stack.alert
        assert stack.last_decision is None

    def test_trigger_decision_is_frozen(self):
        stack = _stack(window=4)
        stack.observe(_decision(True))
        with pytest.raises(FrozenInstanceError):
            stack.last_decision.fired = False

    def test_state_roundtrip_continues_identically(self):
        rng = np.random.default_rng(5)
        source = TriggerStack(window=12, threshold=0.4, warmup=5)
        for _ in range(6):
            source.observe_batch(_decision_batch(rng.random(7) < 0.3))
        target = TriggerStack(window=12, threshold=0.4, warmup=5)
        target.load_state_dict(json.loads(json.dumps(source.state_dict())))
        assert target.state_dict() == source.state_dict()
        assert target.rejection_rate == source.rejection_rate
        assert target.lifetime_rejection_rate == source.lifetime_rejection_rate
        for _ in range(6):
            batch = _decision_batch(rng.random(7) < 0.5)
            assert source.observe_batch(batch) == target.observe_batch(batch)
            assert source.last_decision == target.last_decision
        assert target.state_dict() == source.state_dict()

    def test_load_state_clears_the_last_step(self):
        source = TriggerStack(window=4, threshold=0.5, warmup=1)
        _observe_flags(source, [True] * 4)
        target = TriggerStack(window=4, threshold=0.5, warmup=1)
        assert _observe_flags(target, [True] * 4)
        target.load_state_dict(source.state_dict())
        assert target.last_decision is None
        assert not target.alert
        assert target.rejection_rate == 1.0

    def test_load_keeps_the_target_settings(self):
        # threshold and warmup are configuration, not state
        source = TriggerStack(window=10, threshold=0.3, warmup=2)
        _observe_flags(source, [True, False, False, False])
        strict = TriggerStack(window=10, threshold=0.9, warmup=2)
        strict.load_state_dict(source.state_dict())
        assert source.observe(_decision(True))
        assert not strict.observe(_decision(True))
        assert strict.threshold == 0.9
        assert strict.state_dict() == source.state_dict()

    def test_mismatched_state_rejected(self):
        state = _stack(window=6).state_dict()
        with pytest.raises(ValidationError):
            _stack(window=7).load_state_dict(state)

    @pytest.mark.parametrize("version", (None, 1, 3, "2"))
    def test_other_state_versions_rejected(self, version):
        source = _stack(window=4)
        _observe_flags(source, [True] * 3)
        state = source.state_dict()
        if version is None:
            del state["version"]
        else:
            state["version"] = version
        target = _stack(window=4)
        target.observe(_decision(False))
        before = target.state_dict()
        with pytest.raises(ValidationError):
            target.load_state_dict(state)
        # a rejected payload changes nothing
        assert target.state_dict() == before

    def test_recorded_v1_payload_rejected(self):
        with pytest.raises(ValidationError, match="v1"):
            _stack(window=4).load_state_dict(V1_DEFAULT_STACK_STATE)

    @pytest.mark.parametrize(
        "config, warmup",
        (
            (TriggerConfig(), 10),
            (TriggerConfig(window=1), 1),
            (TriggerConfig(window=7, threshold=1.0, warmup=0), 0),
            (TriggerConfig(window=30, threshold=0.05, warmup=30), 30),
        ),
    )
    def test_build_trigger_stack_carries_config(self, config, warmup):
        stack = build_trigger_stack(config)
        assert (stack.window, stack.threshold, stack.warmup) == (
            config.window,
            config.threshold,
            warmup,
        )

    def test_observe_decisions_returns_the_stack_verdict(self):
        stack = TriggerStack(window=4, threshold=0.5, warmup=2)
        assert observe_decisions(stack, _decision_batch([True])) is False
        assert observe_decisions(stack, _decision_batch([True])) is True
        assert stack.state_dict()["total_seen"] == 2

    def test_runner_observes_through_module_level_lookup(self, monkeypatch):
        # tracing tools patch runner.observe_decisions; the loop must see it
        observed = []
        original = runner.observe_decisions

        def traced(monitor, decisions):
            observed.append(len(decisions))
            return original(monitor, decisions)

        monkeypatch.setattr(runner, "observe_decisions", traced)
        run = _stream_run("hash", "fifo", asynchronous=False)
        assert len(observed) == len(run.steps)
        assert sum(observed) == 400
        assert run.monitor.state_dict()["total_seen"] == 400


# -- durability: trigger-state round-trip ------------------------------------------


#: a default stack's ``state_dict`` as written by state version 1, which
#: also carried a reference reservoir and per-trigger policy state
V1_DEFAULT_STACK_STATE = {
    "version": 1,
    "kind": "stack",
    "window": 4,
    "ensemble": "any",
    "flags": [1, 1, 0, 1],
    "total_seen": 6,
    "total_rejected": 4,
    "triggers": [
        {
            "name": "credibility",
            "detector": {
                "name": "credibility",
                "windows": {
                    "mode": "amount",
                    "size": 4,
                    "reference_size": 256,
                    "seed": 0,
                    "reference": [1.0, 0.0, 1.0, 1.0, 0.0, 1.0],
                    "n_pushed": 6,
                    "rng": {
                        "bit_generator": "PCG64",
                        "state": {
                            "state": 35399562948360463058890781895381311971,
                            "inc": 87136372517582989555478159403783844777,
                        },
                        "has_uint32": 0,
                        "uinteger": 0,
                    },
                    "current": [1.0, 1.0, 0.0, 1.0],
                },
            },
            "policy": {},
        }
    ],
}


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

    def test_previous_state_version_rewarms(self, tmp_path):
        class _RecordedState:
            """A writer target that replays a recorded trigger payload."""

            def state_dict(self):
                return V1_DEFAULT_STACK_STATE

        interface = _trained_interface()
        CheckpointWriter(tmp_path, triggers=_RecordedState()).checkpoint(
            interface.streaming
        )
        stack = _stack(window=4)
        stack.observe_batch([_decision(True) for _ in range(20)])
        restored = _trained_interface(seed=1)
        report = restore_checkpoint(restored.streaming, tmp_path, triggers=stack)
        # the calibration comes back ...
        assert report.generation is not None
        for column in ("features", "label"):
            assert np.array_equal(
                restored.streaming.store.column(column),
                interface.streaming.store.column(column),
            )
        # ... and the trigger re-warms to a fresh stack
        assert not report.trigger_restored
        assert any("trigger state" in f for f in report.fallbacks)
        assert stack.state_dict() == _stack(window=4).state_dict()
        assert not stack.alert

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


# -- trigger observation under async maintenance ---------------------------------


@pytest.mark.concurrency
class TestPerShardConcurrency:
    def test_per_shard_triggers_survive_async_maintenance(self):
        """Two serving threads observe one stack while folds churn 4 shards."""
        interface = _trained_interface(
            n_shards=4, router="cluster", eviction="reservoir"
        )
        stack = _stack(window=40)
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
            assert len(state["flags"]) <= 40
            assert state["total_rejected"] <= state["total_seen"]
        loop.drain(timeout=60)
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        loop.close()
        assert not errors
        assert loop.stats.trigger_observations > 0
        # the leaf lock lost no observation from either thread
        assert stack.state_dict()["total_seen"] == loop.stats.trigger_observations
        assert 0.0 <= stack.lifetime_rejection_rate <= 1.0

    def test_threads_observing_one_stack_lose_no_verdict(self):
        stack = _stack(window=50)
        rng = np.random.default_rng(3)
        batches = [
            [_decision_batch(rng.random(5) < 0.3) for _ in range(200)]
            for _ in range(4)
        ]

        def observe(own):
            for batch in own:
                stack.observe_batch(batch)

        threads = [threading.Thread(target=observe, args=(b,)) for b in batches]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        state = stack.state_dict()
        assert state["total_seen"] == 4 * 200 * 5
        assert state["total_rejected"] == sum(
            int(np.sum(batch.drifting)) for own in batches for batch in own
        )
        assert len(state["flags"]) == 50

    def test_loop_without_triggers_counts_nothing(self):
        loop = AsyncServingLoop(_trained_interface())
        X_drifted, _ = make_blobs(80, shift=4.0, seed=11)
        loop.predict(X_drifted)
        loop.close()
        assert loop.stats.trigger_observations == 0
        assert loop.stats.trigger_fires == 0

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
