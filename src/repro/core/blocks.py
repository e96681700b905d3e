"""Segment-direct GEMM kernels and block-column views (DESIGN.md §9).

The segment compose layer (:mod:`repro.core.segments`) holds detector
state as per-shard blocks and defers the ``O(n)`` flat concatenation
until a consumer asks for it.  The kernels here never ask: the distance
GEMM, the row norms and every score/label gather read a
:class:`BlockColumn` — a virtual concatenation of blocks — and a plain
detector's flat arrays are simply a one-block column.  There is one
evaluation path, and its results do not depend on how the calibration
rows are cut into blocks.

Gathers and row norms are easy: a gather moves bytes without
arithmetic, and a squared row norm reduces each row independently, so
per-block results concatenated equal the flat results bitwise.  The
GEMM is not: BLAS picks different micro-kernels and reduction
associations depending on the operand shapes and layouts (measured on
OpenBLAS 0.3.31: splitting ``test @ cal.T`` along the calibration axis
changes low bits in shape-dependent, non-monotonic ways).  Chasing those heuristics is hopeless, so the kernel pins the
call sequence instead:

* the calibration axis is partitioned into **fixed panels** of
  :data:`PANEL_ROWS` rows by *global row index only* — the partition is
  a function of ``n``, never of the segmentation;
* every panel is a freshly built, C-contiguous ``(d, rows)`` transpose
  of its rows, gathered across block boundaries where it straddles
  them, and each panel is one ``NN`` GEMM written straight into its
  slice of the output;
* identical call sequences over value-identical operands of identical
  layout produce identical bits, whatever the segmentation.

Below :data:`SEGMENT_DIRECT_MIN_ROWS` total rows the partition is a
single panel.  :class:`BlockColumn` builds each panel once and caches
it keyed by the identity of the block slices it was gathered from, so a
publish rebuilds only the panels whose rows moved or changed
(:meth:`BlockColumn.inherit_cache`).
"""

from __future__ import annotations

import numpy as np

from .exceptions import ValidationError

#: rows per panel of the canonical calibration-axis GEMM partition.
#: Larger panels cost less per-call GEMM overhead but coarsen the
#: cache-repair granularity after a shard mutation; 1024 measured ~7%
#: over the single GEMM at single-sample batches on the container BLAS.
PANEL_ROWS = 1024

#: below this many total calibration rows the canonical partition is a
#: single panel, and the candidate pruner stays off (it would split a
#: GEMM that is already one call).
SEGMENT_DIRECT_MIN_ROWS = 2048


def panel_bounds(n: int) -> tuple:
    """The canonical ``(start, stop)`` panel partition of ``n`` rows.

    A function of ``n`` alone, so every segmentation of the same rows
    issues exactly one GEMM per entry.
    """
    if n <= 0:
        return ()
    if n < SEGMENT_DIRECT_MIN_ROWS:
        return ((0, n),)
    return tuple(
        (c0, min(c0 + PANEL_ROWS, n)) for c0 in range(0, n, PANEL_ROWS)
    )


def panel_product(test_rows: np.ndarray, panels, n_columns: int) -> np.ndarray:
    """``test_rows @ concat(panels)`` as one GEMM per canonical panel.

    ``panels`` is the ``(start, panel_t)`` list of
    :meth:`BlockColumn.panels`: each ``panel_t`` is a C-contiguous
    ``(d, rows)`` transpose, so every call is a plain ``NN`` product
    written straight into its output columns — BLAS never packs a
    transposed operand, which dominates at small batches.
    """
    out = np.empty((len(test_rows), n_columns))
    for c0, panel in panels:
        np.matmul(test_rows, panel, out=out[:, c0 : c0 + panel.shape[1]])
    return out


def as_column(values, dtype=None) -> "BlockColumn":
    """``values`` as a :class:`BlockColumn`.

    A column is returned as is; an array-like becomes a one-block
    column over ``np.asarray(values, dtype)`` — the form every kernel
    consumes.
    """
    if isinstance(values, BlockColumn):
        return values
    return BlockColumn((np.asarray(values, dtype=dtype),))


class BlockColumn:
    """Virtual concatenation of per-shard blocks for one state column.

    The evaluate kernels' view of a calibration column: it answers
    ``len``, ``shape``, integer-array indexing (a gather, which is
    exact — no floating-point arithmetic), canonical GEMM panels and
    cached row norms without ever materializing the flat concatenation
    of a multi-block column.  Blocks follow the compose layer's
    copy-on-write contract and are never mutated.

    The panel and norm caches only ever hold entries whose blocks are
    segments of this column (``inherit_cache`` filters by block
    identity), so ``id()``-based keys cannot dangle: every keyed block
    is pinned by the ``segments`` tuple for the cache's lifetime.
    """

    __slots__ = (
        "segments",
        "_starts",
        "_bounds",
        "_length",
        "_panel_map",
        "_panels",
        "_norm_map",
        "_norms",
        "_gather_flat",
    )

    def __init__(self, segments):
        self.segments = tuple(segments)
        if not self.segments:
            raise ValidationError("BlockColumn needs at least one segment")
        sizes = np.fromiter(
            (len(segment) for segment in self.segments),
            dtype=np.int64,
            count=len(self.segments),
        )
        self._bounds = np.cumsum(sizes)
        self._starts = self._bounds - sizes
        self._length = int(self._bounds[-1])
        self._panel_map: dict = {}
        self._panels = None
        self._norm_map: dict = {}
        self._norms = None
        self._gather_flat = None

    def __len__(self) -> int:
        return self._length

    @property
    def trailing_shape(self) -> tuple:
        """Per-row shape of the column (``()`` for scalar columns)."""
        return self.segments[0].shape[1:]

    @property
    def shape(self) -> tuple:
        return (self._length,) + self.trailing_shape

    @property
    def ndim(self) -> int:
        return 1 + len(self.trailing_shape)

    @property
    def dtype(self):
        return self.segments[0].dtype

    def restrict(self, positions) -> "BlockColumn":
        """A new column over the block subset at ``positions`` (in order)."""
        return BlockColumn(tuple(self.segments[p] for p in positions))

    def gather_base(self) -> np.ndarray:
        """The cached flat gather base of a *scalar* column.

        Labels, per-expert scores and regression targets are one value
        per row, so their flat concatenation is tiny next to the
        feature matrix (``1/d`` of it) — cheaper to build once than to
        pay the searchsorted-and-scatter gather loop on every evaluate.
        The feature column never takes this path: its ``O(n x d)``
        concat is exactly the deferred cost the segment-direct kernels
        exist to avoid, and it is consumed through :meth:`panels`, not
        through gathers.  A one-block column is its own gather base.
        """
        if self._gather_flat is None:
            self._gather_flat = (
                self.segments[0]
                if len(self.segments) == 1
                else np.concatenate(self.segments)
            )
        return self._gather_flat

    def __getitem__(self, rows) -> np.ndarray:
        """Gather global rows; an integer array of any shape is accepted.

        Bit-identical to indexing the flat concatenation (gathers move
        bytes, they never do arithmetic); negative indices wrap like
        NumPy's.  Scalar columns gather from :meth:`gather_base`, which
        is the same bytes by construction.
        """
        if len(self.segments) == 1:
            return self.segments[0][rows]
        if not self.trailing_shape:
            return self.gather_base()[rows]
        rows = np.asarray(rows)
        flat_rows = rows.reshape(-1).astype(np.int64, copy=False)
        if flat_rows.size:
            flat_rows = np.where(flat_rows < 0, flat_rows + self._length, flat_rows)
            if flat_rows.min() < 0 or flat_rows.max() >= self._length:
                raise IndexError(
                    f"row index out of range for {self._length} segmented rows"
                )
        out = np.empty(
            (flat_rows.size,) + self.trailing_shape, dtype=self.dtype
        )
        owners = np.searchsorted(self._bounds, flat_rows, side="right")
        for index, segment in enumerate(self.segments):
            mask = owners == index
            if mask.any():
                out[mask] = segment[flat_rows[mask] - self._starts[index]]
        return out.reshape(rows.shape + self.trailing_shape)

    def _panel_parts(self, c0: int, c1: int):
        """Yield ``(block_index, local_start, local_stop)`` covering ``[c0, c1)``."""
        first = int(np.searchsorted(self._bounds, c0, side="right"))
        for index in range(first, len(self.segments)):
            start = int(self._starts[index])
            if start >= c1:
                break
            stop = int(self._bounds[index])
            if stop <= c0:
                continue
            yield index, max(c0, start) - start, min(c1, stop) - start

    def _panel_key(self, c0: int, c1: int) -> tuple:
        """Cache key of panel ``[c0, c1)``: the block slices composing it."""
        return tuple(
            (id(self.segments[index]), a, b)
            for index, a, b in self._panel_parts(c0, c1)
        )

    def panels(self) -> list:
        """``(start, panel_t)`` pairs of the canonical GEMM partition.

        ``panel_t`` is a new C-contiguous ``(d, rows)`` float64 array
        holding the transpose of the panel's rows, gathered across
        block boundaries where the panel straddles them.  Each panel is
        built once and cached by block identity, so repeated evaluates
        — and, via :meth:`inherit_cache`, bundles that share blocks
        with a predecessor — never rebuild it.  The cache then keeps
        only the panels in use: an inherited panel whose block slices
        moved off the partition grid is dropped, not carried forward.
        """
        if self._panels is None:
            panels = []
            panel_map = {}
            for c0, c1 in panel_bounds(self._length):
                key = self._panel_key(c0, c1)
                panel = self._panel_map.get(key)
                if panel is None:
                    panel = np.empty(self.trailing_shape + (c1 - c0,))
                    offset = 0
                    for index, a, b in self._panel_parts(c0, c1):
                        rows = self.segments[index][a:b]
                        panel[:, offset : offset + len(rows)] = rows.T
                        offset += len(rows)
                panel_map[key] = panel
                panels.append((c0, panel))
            self._panel_map = panel_map
            self._panels = panels
        return self._panels

    def row_norms(self) -> np.ndarray:
        """Concatenated per-block squared row norms, bit-identical to flat.

        ``np.einsum("ij,ij->i", ...)`` reduces each row independently,
        so per-block norms concatenated equal the flat einsum bitwise.
        Cached per block, inheritable across bundles.
        """
        if self._norms is None:
            parts = []
            for block in self.segments:
                norms = self._norm_map.get(id(block))
                if norms is None:
                    norms = np.einsum("ij,ij->i", block, block)
                    self._norm_map[id(block)] = norms
                parts.append(norms)
            self._norms = parts[0] if len(parts) == 1 else np.concatenate(parts)
        return self._norms

    def inherit_cache(self, previous: "BlockColumn | None") -> None:
        """Adopt a predecessor column's caches for blocks still present.

        Entries are filtered by block identity against this column's
        segments, so only panels/norms whose every underlying block
        survived the mutation carry over — exactly the panels a publish
        did not touch.  Stale entries are dropped here, which also
        unpins the predecessor's dead blocks.
        """
        if previous is None:
            return
        live = set(map(id, self.segments))
        # list() snapshots the dicts atomically (CPython): the
        # predecessor's owner may be a decision thread still inserting
        # panels while a maintenance thread prewarms this column
        for key, panel in list(previous._panel_map.items()):
            if all(part[0] in live for part in key):
                self._panel_map.setdefault(key, panel)
        for block_id, norms in list(previous._norm_map.items()):
            if block_id in live:
                self._norm_map.setdefault(block_id, norms)


def export_block(block) -> np.ndarray:
    """A C-contiguous ndarray with ``block``'s bytes, ready for export.

    The shared-memory arena (:mod:`repro.core.shm`) copies a block into
    a mapped buffer with one ``memcpy``; that needs a contiguous source.
    Compose-layer blocks are already contiguous copies, so this is a
    no-copy pass-through on the hot path — the copy only happens for a
    sliced/strided array handed in by a caller outside the compose
    discipline.
    """
    return np.ascontiguousarray(block)


def attach_block(buffer, shape, dtype) -> np.ndarray:
    """A read-only ndarray view over a mapped shared-memory buffer.

    The inverse of :func:`export_block` on the worker side: zero-copy
    (``np.ndarray(buffer=...)`` maps the bytes in place) and marked
    non-writeable so the single-writer contract — only the parent
    process mutates, and it only ever *creates* blocks, never rewrites
    one — cannot be broken by accident in an evaluator process.
    """
    array = np.ndarray(shape, dtype=dtype, buffer=buffer)
    array.flags.writeable = False
    return array
