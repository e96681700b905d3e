"""Segment-aware composition of per-shard calibration state (DESIGN.md §6).

Sharded calibration maintenance folds an ``update()`` only into the
shards its batch touched.  A detector that consumed one flat array per
state field (features, labels, per-expert scores) would still end every
fold with an ``O(n)`` concatenation memcpy to rebuild them — and the
async serving plane would pay the same ``O(n)`` *again* per snapshot
publish, deep-copying every store-aliased array so lock-free readers
could never observe an in-place rewrite.

This module replaces both copies with a **segment compose layer**:

* :class:`SegmentedField` — one logical calibration column held as an
  ordered tuple of immutable per-shard blocks;
* :class:`SegmentBundle` — the full composed detector state (every
  per-sample field and every expert's score blocks — a conformal
  p-value needs nothing else per calibration sample), built in
  ``O(touched shards)`` after a mutation because untouched shards
  contribute the *same block objects* as the previous bundle.

A bundle is the *only* calibration state of every detector: a plain
``calibrate()`` installs a one-segment bundle, and a streaming
detector, its snapshots and its pool workers hold the wrapper's
per-shard bundle.  The detector holds it as ``_segment_bundle`` and
evaluates through its :class:`EvaluationView`, so no flat copy of the
state exists.  That also gives the serving plane **structural-sharing
publishes**: a
snapshot references the live bundle's blocks instead of deep-copying
them, so publish cost drops from ``O(store)`` to ``O(touched shards)``
and consecutive snapshots share (``np.shares_memory``) every untouched
shard's blocks.

The safety contract is copy-on-write: a block handed to a bundle is
never mutated in place — folds and rescores *replace* a shard's blocks
with fresh arrays, and store-backed blocks are the store's immutable
views (:meth:`~repro.core.sharding.ShardedCalibrationStore.
column_segment`), whose buffers are copied before any slot-reuse write.
Under that discipline sharing blocks between the live detector and any
number of published snapshots is free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import BlockColumn
from .weighting import TAU_MAX_ROWS, TAU_SEED


class SegmentedField:
    """An ordered tuple of immutable array blocks for one state field.

    ``segments`` holds one block per shard (empty blocks for empty
    shards), in global exposed order.
    """

    __slots__ = ("segments",)

    def __init__(self, segments):
        self.segments = tuple(segments)

    def __len__(self) -> int:
        return sum(len(segment) for segment in self.segments)

    @property
    def trailing_shape(self) -> tuple:
        """Per-row shape of the field (``()`` for scalar columns)."""
        return self.segments[0].shape[1:] if self.segments else ()

    def flat(self) -> np.ndarray:
        """The flat concatenation of the segments.

        A single-segment field returns its block directly — the block
        is immutable, so no defensive copy is needed.
        """
        if not self.segments:
            return np.zeros(0)
        if len(self.segments) == 1:
            return self.segments[0]
        return np.concatenate(self.segments)

    def same_segments(self, segments) -> bool:
        """Whether ``segments`` are exactly this field's blocks (by identity)."""
        segments = tuple(segments)
        return len(self.segments) == len(segments) and all(
            mine is theirs for mine, theirs in zip(self.segments, segments)
        )


def make_field(segments, previous: SegmentedField | None = None) -> SegmentedField:
    """Build a :class:`SegmentedField`, reusing ``previous`` when unchanged.

    Reuse is by block identity: when every segment is the same object as
    in the previous field, the previous field itself is returned.
    """
    segments = tuple(segments)
    if previous is not None and previous.same_segments(segments):
        return previous
    return SegmentedField(segments)


@dataclass(frozen=True)
class EvaluationView:
    """Calibration state the evaluate kernels consume, block-direct.

    The one evaluation state of both detectors (DESIGN.md §9), built by
    :meth:`SegmentBundle.evaluation_view` over a bundle's per-shard
    blocks.  ``labels`` is the p-value grouping column (class labels or
    cluster pseudo-labels); ``scores`` holds one score column per
    expert; ``targets`` is present for regression only.  ``shard_ids``
    maps each block position to its shard id and ``router`` is the
    bundle's shard router — the contract the candidate pruner
    (:mod:`repro.core.pruning`) keys on.
    """

    features: BlockColumn
    labels: BlockColumn
    scores: tuple
    targets: BlockColumn | None = None
    shard_ids: tuple = ()
    router: object = None

    def prewarm(self) -> None:
        """Build every cache a first evaluate would otherwise pay for.

        GEMM panels and row norms of the feature column, and the flat
        gather bases of the scalar columns.  Called from the serving
        maintenance plane right after a snapshot is built
        (:meth:`~repro.core.serving.AsyncServingLoop._build_snapshot`),
        so the repair work a publish leaves behind — rebuilding the
        panels whose rows moved or changed — runs on the worker
        thread and the first decision after the publish lands on a hot
        view.  Idempotent; every cache build is also safe (and merely
        redundant) if a decision thread races it.
        """
        self.features.panels()
        self.features.row_norms()
        for column in (self.labels, self.targets) + self.scores:
            if column is not None and len(column.segments) > 1:
                column.gather_base()

    def restrict(self, positions) -> "EvaluationView":
        """A view over the block subset at ``positions`` (ascending)."""
        positions = tuple(int(p) for p in positions)
        return EvaluationView(
            features=self.features.restrict(positions),
            labels=self.labels.restrict(positions),
            scores=tuple(column.restrict(positions) for column in self.scores),
            targets=(
                None if self.targets is None else self.targets.restrict(positions)
            ),
            shard_ids=tuple(self.shard_ids[p] for p in positions),
            router=self.router,
        )


class SegmentBundle:
    """The composed per-shard detector state behind one immutable handle.

    Attributes:
        fields: detector attribute name (``"_features"``, ``"_labels"``,
            ``"_targets"``, ``"_clusters"``) -> :class:`SegmentedField`.
        score_fields: one :class:`SegmentedField` per expert's
            calibration scores.
        label_key: which entry of ``fields`` plays the p-value grouping
            label (``"_labels"`` for classification, ``"_clusters"``
            for regression pseudo-labels).
        router: the shard router of the store whose shards the blocks
            are (``None`` for a plain detector's one-segment bundle);
            the candidate pruner routes test samples with it, so a
            snapshot keeps routing like the generation it froze.

    A bundle is immutable once built; a mutation builds a *new* bundle
    whose untouched shards contribute the same block objects, so bundle
    identity comparisons (:meth:`shared_shards_with`) quantify the
    structural sharing between consecutive snapshots.
    """

    __slots__ = (
        "fields",
        "score_fields",
        "label_key",
        "router",
        "_view",
        "_inherit_view",
        "__weakref__",
    )

    def __init__(self, fields, score_fields, label_key, router=None):
        self.fields = dict(fields)
        self.score_fields = tuple(score_fields)
        self.label_key = label_key
        self.router = router
        self._view = None
        self._inherit_view = None

    @property
    def n_shards(self) -> int:
        """Number of per-shard blocks each field carries."""
        return len(self.score_fields[0].segments) if self.score_fields else 0

    def iter_fields(self):
        """Yield every field (state fields first, then expert scores)."""
        yield from self.fields.values()
        yield from self.score_fields

    def evaluation_view(self) -> EvaluationView:
        """The :class:`EvaluationView` over this bundle's blocks.

        Built once and cached on the (immutable) bundle, so every
        evaluate against one block set reads one panel cache.  The feature
        column inherits the predecessor bundle's panels and norms
        (``_inherit_view``, wired by the streaming compose) wherever
        their block slices survived the mutation, so a publish rebuilds
        only the panels whose rows moved or changed.
        """
        view = self._view
        if view is None:
            features = self.fields["_features"].segments
            targets = self.fields.get("_targets")
            view = EvaluationView(
                features=BlockColumn(features),
                labels=BlockColumn(self.fields[self.label_key].segments),
                scores=tuple(BlockColumn(field.segments) for field in self.score_fields),
                targets=None if targets is None else BlockColumn(targets.segments),
                shard_ids=tuple(range(len(features))),
                router=self.router,
            )
            inherit = self._inherit_view
            if inherit is not None:
                view.features.inherit_cache(inherit.features)
            self._inherit_view = None
            self._view = view
        return view

    def shared_shards_with(self, previous: "SegmentBundle | None") -> int:
        """Count shards whose every block is shared with ``previous``.

        Sharing is by object identity — the exact property the
        structural-sharing snapshot tests verify with
        ``np.shares_memory``.  Returns 0 when the bundles are not
        comparable (different fields or shard counts).
        """
        if previous is None:
            return 0
        if set(self.fields) != set(previous.fields):
            return 0
        if len(self.score_fields) != len(previous.score_fields):
            return 0
        n_shards = self.n_shards
        mine = list(self.iter_fields())
        theirs = [previous.fields[name] for name in self.fields]
        theirs += list(previous.score_fields)
        if any(len(field.segments) != n_shards for field in mine + theirs):
            return 0
        shared = 0
        for shard_id in range(n_shards):
            if all(
                a.segments[shard_id] is b.segments[shard_id]
                for a, b in zip(mine, theirs)
            ):
                shared += 1
        return shared


def bundle_manifest(bundle: SegmentBundle, export) -> dict:
    """Serialize a bundle as a name-table manifest (parent side).

    ``export`` is the arena's block exporter
    (:meth:`~repro.core.shm.SharedSegmentArena.export`): every block of
    every field becomes a picklable ref, so the manifest is a few
    hundred bytes regardless of calibration size.  The bundle's router
    is not part of it: it travels in the pool's interface spec.
    """
    return {
        "fields": {
            name: [export(block) for block in field.segments]
            for name, field in bundle.fields.items()
        },
        "score_fields": [
            [export(block) for block in field.segments]
            for field in bundle.score_fields
        ],
        "label_key": bundle.label_key,
    }


def manifest_refs(manifest: dict) -> list:
    """Every block ref a manifest references (with duplicates).

    The parent retains/releases exactly this list around a publish, so
    a ref shared by two fields is counted twice and survives as long
    as any field needs it.
    """
    refs = []
    for field_refs in manifest["fields"].values():
        refs.extend(field_refs)
    for field_refs in manifest["score_fields"]:
        refs.extend(field_refs)
    return refs


def bundle_from_manifest(manifest: dict, attach, router) -> SegmentBundle:
    """Rebuild a :class:`SegmentBundle` over mapped arrays (worker side).

    ``attach`` is the worker's ref resolver
    (:meth:`~repro.core.shm.SegmentAttacher.get`); the rebuilt bundle's
    blocks are read-only zero-copy views of the shared segments, so
    evaluating against it touches the same physical pages the parent
    exported.  ``router`` is the parent bundle's shard router.
    """
    return SegmentBundle(
        fields={
            name: SegmentedField([attach(ref) for ref in refs])
            for name, refs in manifest["fields"].items()
        },
        score_fields=[
            SegmentedField([attach(ref) for ref in refs])
            for refs in manifest["score_fields"]
        ],
        label_key=manifest["label_key"],
        router=router,
    )


class TauSketch:
    """Incremental, bit-identical automatic-tau resolution (DESIGN.md §9).

    ``resolve_tau`` subsamples :data:`~repro.core.weighting.TAU_MAX_ROWS`
    feature rows with a fixed-seed draw that depends only on the set
    size ``n``, then takes the median pairwise squared distance.  The
    sketch exploits that: across store mutations it caches the drawn
    row indices (per ``n``), the gathered sample, and the resolved tau.
    On each retune it re-gathers the sampled rows from the segments
    (``O(max_rows * d)``, no flat concat) and compares values — when no
    sampled row changed, the cached tau is adopted without recomputing
    the ``max_rows x max_rows`` distance GEMM and median; when anything
    changed (or ``n`` changed, which changes the draw itself), the full
    median kernel reruns on the fresh sample.  Partial GEMM updates are
    *never* attempted: BLAS row-splits are not bit-stable, so the full
    recompute is what keeps resolved taus bit-identical to a fresh
    ``calibrate()`` on the flat state.
    """

    __slots__ = ("max_rows", "seed", "_n", "_rows", "_sample", "_tau")

    def __init__(self, max_rows: int = TAU_MAX_ROWS, seed: int = TAU_SEED):
        self.max_rows = int(max_rows)
        self.seed = seed
        self._n = -1
        self._rows = None
        self._sample = None
        self._tau = None

    def resolve(self, weighting, field: SegmentedField) -> float:
        """Resolve ``weighting``'s tau against the segmented features.

        Bit-identical to ``weighting.resolve_tau(field.flat())`` in
        every case; the cache only ever short-circuits arithmetic whose
        inputs are verified (by value) to be unchanged.
        """
        if weighting.tau is not None:
            return weighting.resolve_tau(None)  # fixed tau: features unused
        n = len(field)
        if n != self._n:
            self._n = n
            if n > self.max_rows:
                self._rows = np.random.default_rng(self.seed).choice(
                    n, size=self.max_rows, replace=False
                )
            else:
                self._rows = None
            self._sample = None
        if self._rows is None:
            sample = field.flat()
        else:
            sample = BlockColumn(field.segments)[self._rows]
        if self._sample is not None and np.array_equal(sample, self._sample):
            return weighting.adopt_tau(self._tau)
        self._sample = sample
        self._tau = weighting.resolve_tau(sample)
        return self._tau
