"""Router-aware candidate-shard pruning for segment-direct evaluate.

Segment-direct evaluation (DESIGN.md §9) scores every test sample
against the *whole* composed calibration set.  But a sharded store
already encodes locality: a router keeps samples that share a feature
region (or a label) on the same shard, and the adaptive weighting's
nearest-fraction selection mostly picks calibration rows from shards
near the test sample anyway.  The :class:`CandidatePruner` exploits
that — each test sample is scored only against its *primary* shard
plus a configurable spill fraction of the nearest sibling shards:

* primary shard: the router of the store that built the evaluated
  bundle (:attr:`~repro.core.segments.EvaluationView.router`), when it
  can route test samples (cluster routing by fitted center; label routing by the
  model's *predicted* label), otherwise the nearest shard centroid;
* spill shards: ``ceil(spill * (n_active - 1))`` siblings nearest by
  shard centroid (fitted router centers when available, per-block
  feature means otherwise), taken in ascending shard order so the
  restricted block view preserves the global layout order.

``spill=1.0`` keeps every shard for every sample, which short-circuits
to the unpruned segment-direct path — **bit-identical** to evaluating
the same rows as one flat block, by the §9 contract.  ``spill < 1.0`` trades decision fidelity for
a ``~1/spill`` smaller GEMM and gather per sample; the coverage delta
is measured per router in ``benchmarks/bench_segment_eval.py``.

Pruned evaluation is the *unpruned machinery over a restricted block
view*: selection (the nearest-fraction rule applies to the candidate
pool), binning, p-values and committee vote are byte-for-byte the same
kernels.  Whole-batch observability rides on the returned
:class:`~repro.core.committee.DecisionBatch` (``n_candidates_scored``,
``n_shards_pruned``) and is surfaced per stream step and in the
serving-plane stats.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .committee import DecisionBatch
from .exceptions import CalibrationError, ConfigurationError
from .weighting import squared_distance_matrix


class CandidatePruner:
    """Restricts each test sample's evaluation to candidate shards.

    The router comes from the evaluated view: the
    :class:`~repro.core.sharding.ShardRouter` of the store whose shards
    the view's blocks are.  It assigns test samples their primary shard
    and, when it exposes fitted ``centers``, orders sibling shards by
    affinity.  A store that re-fits its router (``calibrate``,
    ``replace_outputs``) composes a bundle carrying the new one, while a
    published snapshot keeps routing with its own generation's router.

    Args:
        spill: fraction of the remaining (non-primary) active shards
            each sample additionally scores, in ``[0, 1]``.  ``1.0``
            (the default) scores every shard — exactly the unpruned
            segment-direct evaluation.

    The pruner is installed on a detector as ``prom._pruner``; it holds
    per-bundle caches (centroids, candidate lists) keyed on the current
    evaluation view, re-derived whenever a mutation publishes a new
    bundle.  Detector snapshots share the pruner object — its caches
    are read-mostly and the evaluation view they key on is immutable.
    """

    def __init__(self, spill: float = 1.0):
        if not 0.0 <= spill <= 1.0:
            raise ConfigurationError(f"spill must be in [0, 1], got {spill}")
        self.spill = float(spill)
        self._cached_view = None
        self._centroids = None
        self._candidate_cache: dict = {}

    def candidate_shard_count(self, n_active: int) -> int:
        """Candidate shards per sample given ``n_active`` non-empty shards."""
        if n_active <= 1:
            return n_active
        return min(n_active, 1 + math.ceil(self.spill * (n_active - 1)))

    # -- per-bundle geometry -----------------------------------------------------
    def _view_centroids(self, view) -> np.ndarray:
        """Per-block centroids (NaN rows for empty blocks), cached per view."""
        if self._cached_view is view and self._centroids is not None:
            return self._centroids
        segments = view.features.segments
        centers = getattr(view.router, "centers", None)
        if centers is not None and len(centers) == len(segments):
            centroids = np.asarray(centers, dtype=float)
        else:
            d = segments[0].shape[1]
            centroids = np.full((len(segments), d), np.nan)
            for position, block in enumerate(segments):
                if len(block):
                    centroids[position] = block.mean(axis=0)
        self._cached_view = view
        self._centroids = centroids
        self._candidate_cache = {}
        return centroids

    def _active_positions(self, view) -> list:
        """Block positions with at least one calibration row."""
        return [
            position
            for position, block in enumerate(view.features.segments)
            if len(block)
        ]

    def _primary_positions(self, view, features, route_labels, active) -> np.ndarray:
        """Each test row's primary block position (always an active one)."""
        centroids = self._view_centroids(view)
        primary = None
        router = view.router
        if router is not None and getattr(router, "is_fitted", False):
            try:
                routed = np.asarray(
                    router.route(features, labels=route_labels), dtype=int
                )
            except CalibrationError:
                routed = None
            if routed is not None:
                # router shard ids are block positions in bundle order
                position_of = {view.shard_ids[p]: p for p in range(len(view.shard_ids))}
                primary = np.asarray(
                    [position_of.get(int(shard), -1) for shard in routed], dtype=int
                )
        active_centroids = centroids[active]
        if primary is None:
            nearest = np.argmin(
                squared_distance_matrix(features, active_centroids), axis=1
            )
            return np.asarray(active, dtype=int)[nearest]
        is_active = np.zeros(len(view.features.segments) + 1, dtype=bool)
        is_active[active] = True
        misrouted = ~is_active[primary]
        if misrouted.any():
            nearest = np.argmin(
                squared_distance_matrix(features[misrouted], active_centroids),
                axis=1,
            )
            primary[misrouted] = np.asarray(active, dtype=int)[nearest]
        return primary

    def _candidates(self, primary: int, active, centroids, count: int) -> tuple:
        """Candidate block positions for one primary shard, ascending."""
        cached = self._candidate_cache.get((primary, count))
        if cached is not None:
            return cached
        others = [p for p in active if p != primary]
        if count <= 1 or not others:
            positions = (primary,)
        else:
            distances = np.einsum(
                "ij,ij->i", centroids[others] - centroids[primary],
                centroids[others] - centroids[primary],
            )
            order = np.argsort(distances, kind="stable")[: count - 1]
            positions = tuple(sorted([primary] + [others[i] for i in order]))
        self._candidate_cache[(primary, count)] = positions
        return positions

    # -- evaluation --------------------------------------------------------------
    def evaluate(
        self, prom, view, features, payload, chunk_size, route_labels=None, eager=False
    ) -> DecisionBatch | None:
        """Shard-pruned evaluation of a test batch against ``view``.

        Groups the batch by primary shard, evaluates each group with
        the detector's unpruned machinery over the candidate-restricted
        block view, and reassembles the caller's row order.  Returns
        ``None`` when pruning does not apply (empty view or batch) —
        the caller then runs the plain path.  ``eager`` is the
        detector's choice between detail in the deciding pass and
        detail on first read; a deferred detail keeps each group's
        restricted blocks and follows the reassembly.
        """
        n_test = len(features)
        active = self._active_positions(view)
        if not active or n_test == 0:
            return None
        total_rows = len(view.features)
        count = self.candidate_shard_count(len(active))
        if count >= len(active):
            # every shard is a candidate: the unpruned segment-direct
            # path
            batch = prom._evaluate_rows(view, features, payload, chunk_size, eager)
            return replace(
                batch,
                n_candidates_scored=n_test * total_rows,
                n_shards_pruned=0,
            )
        centroids = self._view_centroids(view)
        primary = self._primary_positions(view, features, route_labels, active)
        batches = []
        row_groups = []
        scored = 0
        pruned = 0
        for shard in np.unique(primary):
            rows = np.flatnonzero(primary == shard)
            positions = self._candidates(int(shard), active, centroids, count)
            restricted = view.restrict(positions)
            batches.append(
                prom._evaluate_rows(
                    restricted,
                    features[rows],
                    tuple(array[rows] for array in payload),
                    chunk_size,
                    eager,
                )
            )
            row_groups.append(rows)
            scored += len(rows) * len(restricted.features)
            pruned += len(rows) * (len(active) - len(positions))
        order = np.concatenate(row_groups)
        inverse = np.empty(n_test, dtype=int)
        inverse[order] = np.arange(n_test)
        combined = DecisionBatch.concatenate(
            batches, expert_names=batches[0].expert_names
        ).take(inverse)
        return replace(
            combined, n_candidates_scored=scored, n_shards_pruned=pruned
        )
