"""Outside-in layer tracing; also the decision-latency probe.

Nothing here edits the program: wrappers are installed from the
benchmark's own files around the calls *into* each layer's public
functions (as bound where the caller looks them up), and removed again
after the traced ``repro.deploy`` call.  A target the program does not
have, or a call whose arguments a counter cannot read, raises: a layer
that silently read 0 would look like a 100% improvement.

Each span records name, start, end, parent span, step id (the decision
call it belongs to) and thread.  Spans stay in memory; the caller
writes them out at exit.  A layer's self time is its spans' durations
minus the time covered by their child spans.  Every call also samples
the number of live threads.

The latency probe is a ``Tracer`` with one target, the decision entry
point: one clock pair and one thread count per decision call.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict

#: (layer span name, module, attribute path) of every traced call.
#: Module-level functions are patched where the caller looks them up.
TARGETS = (
    ("serving.predict", "repro.core.serving", "AsyncServingLoop.predict"),
    ("serving.drain", "repro.core.serving", "AsyncServingLoop.drain"),
    ("interface.predict", "repro.core.interface", "ModelInterface.predict"),
    ("interface.update", "repro.core.interface", "ModelInterface.extend_calibration"),
    ("interface.update", "repro.core.interface", "ModelInterface.incremental_update"),
    ("prom.evaluate", "repro.core.prom", "PromClassifier.evaluate"),
    ("weighting.select", "repro.core.weighting", "AdaptiveWeighting.select_batch"),
    ("blocks.gemm", "repro.core.weighting", "panel_product"),
    ("pvalue.bin", "repro.core.prom", "bin_subset_by_label"),
    ("pvalue.pvalues", "repro.core.prom", "pvalues_from_binning"),
    ("committee.vote", "repro.core.prom", "assess_batch"),
    ("committee.vote", "repro.core.committee", "ExpertCommittee.decide_batch"),
    ("triggers.observe", "repro.experiments.runner", "observe_decisions"),
    ("incremental.select", "repro.experiments.runner", "select_relabel_budget"),
    ("streaming.fold", "repro.core.streaming", "StreamingPromClassifier.update"),
    ("streaming.rebuild", "repro.core.streaming", "StreamingPromClassifier.replace_outputs"),
    ("model.forward", "workloads", "PrototypeModel.predict_proba"),
)

#: span names that open a new step (one decision call of the loop)
STEP_SPANS = ("serving.predict", "interface.predict")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_gemm(tracer, args, kwargs):
    """GEMM calls and bytes moved, from the operand shapes."""
    panels = list(_arg(args, kwargs, 1, "panels"))  # may be a one-shot iterator
    if len(args) > 1:
        args = args[:1] + (panels,) + args[2:]
    else:
        kwargs = {**kwargs, "panels": panels}
    rows, width = _arg(args, kwargs, 0, "test_rows").shape
    n_columns = _arg(args, kwargs, 2, "n_columns")
    tracer.counts["blocks.gemm_calls"] += len(panels)
    tracer.counts["blocks.gemm_bytes"] += 8 * (rows * width + n_columns * width + rows * n_columns)
    return args, kwargs


def _count_select(tracer, args, kwargs):
    calibration = _arg(args, kwargs, 1, "calibration_features")
    test = _arg(args, kwargs, 2, "test_features")
    n_test = 1 if test.ndim == 1 else len(test)
    tracer.counts["weighting.pairs_scored"] += n_test * len(calibration)
    return args, kwargs


def _count_fold(tracer, args, kwargs):
    tracer.counts["streaming.fold_calls"] += 1
    tracer.counts["streaming.rows_folded"] += len(_arg(args, kwargs, 1, "features"))
    return args, kwargs


def _counter(key):
    def count(tracer, args, kwargs):
        tracer.counts[key] += 1
        return args, kwargs

    return count


def _count_fires(tracer, fired):
    if fired:
        tracer.counts["triggers.fires"] += 1


#: per-call counters, run before the traced call (may rewrite its args)
BEFORE = {
    "blocks.gemm": _count_gemm,
    "weighting.select": _count_select,
    "streaming.fold": _count_fold,
    "streaming.rebuild": _counter("streaming.rebuild_calls"),
    "pvalue.pvalues": _counter("pvalue.calls"),
    "model.forward": _counter("model.calls"),
}

#: per-call counters, run on the traced call's result
AFTER = {"triggers.observe": _count_fires}


class Tracer:
    """In-memory span recorder; a context manager around one deploy call."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []  # (id, name, start_ns, end_ns, parent, step, thread, self_ns)
        self.counts = defaultdict(int)
        self.max_threads = 0
        self.step = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, before=None, after=None):
        """``fn`` recording one span per call (and the given counters)."""
        tracer = self
        opens_step = name in STEP_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if opens_step and not stack:
                tracer.step += 1
            if before is not None:
                args, kwargs = before(tracer, args, kwargs)
            span_id = next(tracer._ids)
            frame = [span_id, 0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                tracer.spans.append((
                    span_id, name, start, end, parent, tracer.step,
                    threading.get_ident(), end - start - frame[1],
                ))
                tracer.max_threads = max(tracer.max_threads, threading.active_count())
            if after is not None:
                after(tracer, result)
            return result

        return traced

    def __enter__(self):
        try:
            for name, module_name, path in self.targets:
                self._patch(module_name, path, name)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    def _patch(self, module_name, path, name) -> None:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        # read from the class's own namespace, so that __exit__ puts back
        # exactly what was there
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, BEFORE.get(name), AFTER.get(name)))

    def calls(self, name) -> list:
        """``(start_ns, end_ns)`` of every span called ``name``, in order."""
        return sorted((span[2], span[3]) for span in self.spans if span[1] == name)

    def layer_totals(self) -> dict:
        """Per span name: summed self time in ms (all threads)."""
        totals = defaultdict(float)
        for span in self.spans:
            totals[span[1]] += span[7] / 1e6
        return totals

    def root_ms(self, thread_id, same_thread=True) -> float:
        """Summed duration of root spans on (or off) ``thread_id``."""
        return sum(
            (span[3] - span[2]) / 1e6
            for span in self.spans
            if span[4] == 0 and (span[6] == thread_id) == same_thread
        )


def probe(module_name, path) -> Tracer:
    """A tracer of the decision entry point alone (span name ``decision``)."""
    return Tracer(targets=(("decision", module_name, path),))
