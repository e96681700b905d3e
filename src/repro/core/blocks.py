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
single panel.  :class:`BlockColumn` builds its panels once and caches
them.  A column that follows a mutation repairs its panels from its
predecessor's (:meth:`BlockColumn.inherit_cache`): a panel whose rows
are exactly one old panel's is that panel object, rows that only moved
are copied from the old panels' contiguous row slices, and only the
rows of replaced blocks are transposed afresh.
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

    The norm cache only ever holds entries whose blocks are segments of
    this column (``inherit_cache`` filters by block identity), so
    ``id()``-based keys cannot dangle: every keyed block is pinned by
    the ``segments`` tuple for the cache's lifetime.  The predecessor a
    column repairs its panels from is held only until they are built.
    """

    __slots__ = (
        "segments",
        "_starts",
        "_bounds",
        "_length",
        "_panels",
        "_previous",
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
        self._panels = None
        self._previous = None
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
        # group the rows by owning block (a stable sort keeps each
        # block's rows in request order), take each group with one
        # call, then scatter the groups back to request order
        owners = np.searchsorted(self._bounds, flat_rows, side="right")
        order = np.argsort(owners, kind="stable")
        owners = owners[order]
        local = flat_rows[order] - self._starts[owners]
        ends = np.cumsum(np.bincount(owners, minlength=len(self.segments)))
        grouped = np.empty(
            (flat_rows.size,) + self.trailing_shape, dtype=self.dtype
        )
        lo = 0
        for segment, hi in zip(self.segments, ends.tolist()):
            if hi > lo:
                # in range by construction: "clip" lets take write into out
                np.take(segment, local[lo:hi], axis=0, out=grouped[lo:hi], mode="clip")
            lo = hi
        out = np.empty_like(grouped)
        out[order] = grouped
        return out.reshape(rows.shape + self.trailing_shape)

    def panels(self) -> list:
        """``(start, panel_t)`` pairs of the canonical GEMM partition.

        ``panel_t`` is a C-contiguous ``(d, rows)`` float64 array holding
        the transpose of the panel's rows.  Built once and cached; a
        column with a predecessor (:meth:`inherit_cache`) repairs each
        panel from the predecessor's panels where its blocks survived —
        reusing a whole old panel when the rows are exactly its rows,
        else copying the moved rows' contiguous slices — and transposes
        only rows of blocks the predecessor did not hold.  Every path
        writes the same bytes as a fresh transpose of the rows.
        """
        if self._panels is None:
            previous, self._previous = self._previous, None
            source = _PanelSource(previous) if previous is not None else None
            bounds = panel_bounds(self._length)
            pieces = self._panel_pieces(bounds, source)
            self._panels = [
                (c0, self._build_panel(c1 - c0, runs))
                for (c0, c1), runs in zip(bounds, pieces)
            ]
        return self._panels

    def _panel_pieces(self, bounds, source) -> list:
        """Per panel, the runs it is assembled from, in row order.

        A run is ``[old_panel, lo, hi]`` — columns of a predecessor
        panel, adjacent runs merged — or ``[None, rows]`` for block rows
        the predecessor did not hold.  One walk over the blocks.
        """
        pieces = [[] for _ in bounds]
        index = 0
        for block, g0, g1 in zip(
            self.segments, self._starts.tolist(), self._bounds.tolist()
        ):
            old = None if source is None else source.start_of(block)
            g = g0
            while g < g1:
                while bounds[index][1] <= g:
                    index += 1
                stop = min(g1, bounds[index][1])
                runs = pieces[index]
                if old is None:
                    runs.append([None, block[g - g0 : stop - g0]])
                else:
                    for panel, lo, hi in source.runs(old + g - g0, old + stop - g0):
                        if runs and runs[-1][0] is panel and runs[-1][2] == lo:
                            runs[-1][2] = hi
                        else:
                            runs.append([panel, lo, hi])
                g = stop
        return pieces

    def _build_panel(self, width: int, runs) -> np.ndarray:
        """One panel of ``width`` rows assembled from its runs."""
        if len(runs) == 1 and runs[0][0] is not None:
            old, lo, hi = runs[0]
            if lo == 0 and hi == old.shape[1] == width:
                return old
        panel = np.empty(self.trailing_shape + (width,))
        offset = 0
        for run in runs:
            if run[0] is None:
                part = run[1].T
            else:
                old, lo, hi = run
                part = old[:, lo:hi]
            panel[:, offset : offset + part.shape[1]] = part
            offset += part.shape[1]
        return panel

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

        Norms carry over per surviving block.  Panels are repaired from
        the newest column in ``previous``'s lineage whose panels were
        built, when this column builds its own (:meth:`panels`); the
        reference is dropped then, which unpins the predecessor's dead
        blocks and panels.
        """
        if previous is None:
            return
        live = set(map(id, self.segments))
        # list() snapshots the dict atomically (CPython): the
        # predecessor's owner may be a decision thread still inserting
        # norms while a maintenance thread prewarms this column
        for block_id, norms in list(previous._norm_map.items()):
            if block_id in live:
                self._norm_map.setdefault(block_id, norms)
        while previous is not None and previous._panels is None:
            previous = previous._previous
        self._previous = previous


class _PanelSource:
    """A built column's panels, addressed by the blocks they hold.

    The repair source of :meth:`BlockColumn.panels`: maps each block of
    the old column to its old global start, and old global rows to
    contiguous slices of the old ``(d, rows)`` panels.
    """

    __slots__ = ("_starts", "_panels", "_single")

    def __init__(self, column: BlockColumn):
        self._starts = {
            id(block): start
            for block, start in zip(column.segments, column._starts.tolist())
        }
        self._panels = column._panels
        self._single = len(self._panels) == 1

    def start_of(self, block) -> int | None:
        """The old global start of ``block``, or ``None`` if it is new."""
        return self._starts.get(id(block))

    def runs(self, g0: int, g1: int) -> list:
        """``(panel, lo, hi)`` column runs holding old global rows ``[g0, g1)``."""
        out = []
        while g0 < g1:
            index = 0 if self._single else g0 // PANEL_ROWS
            p0, panel = self._panels[index]
            stop = min(g1, p0 + panel.shape[1])
            out.append((panel, g0 - p0, stop - p0))
            g0 = stop
        return out


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
