"""Capped calibration sample store with pluggable eviction policies.

Prom's deployment story is a stream: flagged samples get relabelled and
folded back into the calibration set continuously.  Left unchecked that
set grows without bound (and every recalibration gets slower), so the
store enforces ``capacity`` on every :meth:`CalibrationStore.add` by
delegating the *which samples go* decision to an
:class:`EvictionPolicy`:

* :class:`FIFOEviction` (default) — evict the oldest samples first,
  keeping the newest, most drift-informative ones.
* :class:`ReservoirEviction` — Vitter's Algorithm R: at steady state
  every sample ever streamed has equal probability ``capacity / seen``
  of residing in the store, preserving an unbiased long-run view.
* :class:`LowestWeightEviction` — evict the lowest-priority samples
  first (ties broken oldest-first); callers attach a per-sample
  ``priority`` at :meth:`~CalibrationStore.add` time (e.g. ``1 -
  credibility`` so the strangest samples survive longest).

The store keeps an arbitrary set of *aligned columns* (features, model
outputs, labels, raw inputs, ...) as flat NumPy arrays in one exposed
order.  FIFO mutations keep that order equal to arrival order; the
other policies use a slot-stable layout where evicted rows free their
slots in place and incoming survivors fill them (``O(batch)`` writes
instead of one compacting copy per mutation), so the exposed order is
then a deterministic permutation of arrival order —
:meth:`CalibrationStore.arrival_order` normalizes it back when a test
needs the canonical arrival-ordered view.  Every mutation returns a
:class:`StoreUpdate` whose ``order`` gather lets incremental consumers
(the streaming detectors in :mod:`repro.core.streaming`) update any
aligned auxiliary array with a single ``concatenate + take`` instead of
recomputing it — see DESIGN.md §3-§4.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    CalibrationError,
    ConfigurationError,
    InternalError,
    ValidationError,
)


@dataclass(frozen=True)
class StoreUpdate:
    """Outcome of one store mutation, in *combined-layout* coordinates.

    The combined layout is the ``n_before`` pre-existing rows followed
    by the ``n_added`` rows of the triggering ``add`` call.  An
    auxiliary array aligned with the store is carried across the
    mutation with::

        aux = np.concatenate([aux_old, aux_new])[update.order]

    ``order`` lists the surviving combined-layout positions *in the
    store's new exposed order*.  For arrival-ordered mutations (FIFO
    appends, explicit ``evict``) it is monotone and equals
    ``np.flatnonzero(keep_mask)`` — the historical ``keep_mask`` gather
    stays valid there — but slot-reuse evictions (reservoir,
    lowest-weight) permute survivors, so order-sensitive consumers must
    gather with ``order``.

    Attributes:
        n_before: store size before the mutation.
        n_added: rows the triggering ``add`` supplied (0 for ``evict``).
        keep_mask: ``(n_before + n_added,)`` boolean mask of survivors.
        evicted: combined-layout positions that were dropped, sorted.
        order: surviving combined-layout positions in new exposed
            order (defaults to ``flatnonzero(keep_mask)`` when omitted).
    """

    n_before: int
    n_added: int
    keep_mask: np.ndarray
    evicted: np.ndarray
    order: np.ndarray = None

    def __post_init__(self):
        if self.order is None:
            object.__setattr__(self, "order", np.flatnonzero(self.keep_mask))

    @property
    def n_after(self) -> int:
        """Store size after the mutation."""
        return len(self.order)

    @property
    def evicted_existing(self) -> np.ndarray:
        """Evicted positions that were store members before the add."""
        return self.evicted[self.evicted < self.n_before]

    @property
    def evicted_added(self) -> np.ndarray:
        """Evicted positions belonging to the just-added batch."""
        return self.evicted[self.evicted >= self.n_before]


def check_batch_columns(columns: dict, schema: dict | None = None, priority=None):
    """Validate one ``add()`` batch against an optional fixed schema.

    The shared validation behind :class:`CalibrationStore` and the
    sharded facade, so both accept exactly the same batches.
    ``schema`` maps the fixed column names to their trailing row shapes
    (``None`` = schema not yet established).  Returns the columns as
    ndarrays, the batch length and the batch's retention priorities
    (``priority``, default 1.0 each).
    """
    if not columns:
        raise ValidationError("add() needs at least one column")
    arrays = {name: np.asarray(values) for name, values in columns.items()}
    lengths = {name: len(values) for name, values in arrays.items()}
    if len(set(lengths.values())) != 1:
        raise CalibrationError(f"store columns must align, got lengths {lengths}")
    if schema is not None:
        if set(arrays) != set(schema):
            raise CalibrationError(
                f"store columns are fixed to {sorted(schema)}, "
                f"got {sorted(arrays)}"
            )
        for name, values in arrays.items():
            if values.shape[1:] != schema[name]:
                raise CalibrationError(
                    f"column {name!r} rows have shape {values.shape[1:]}, "
                    f"store holds {schema[name]}"
                )
    n_new = next(iter(lengths.values()))
    if priority is None:
        return arrays, n_new, np.ones(n_new, dtype=float)
    priority = np.asarray(priority, dtype=float).ravel()
    if len(priority) != n_new:
        raise CalibrationError("priority must align with the added batch")
    return arrays, n_new, priority


class EvictionPolicy(abc.ABC):
    """Decides which samples leave a full :class:`CalibrationStore`."""

    #: registry name accepted by :func:`resolve_eviction_policy`
    name: str = "base"

    @abc.abstractmethod
    def select_victims(
        self,
        n_over: int,
        arrival: np.ndarray,
        priority: np.ndarray,
        n_before: int,
        capacity: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Return exactly ``n_over`` distinct combined-layout positions.

        Args:
            n_over: how many samples must go.
            arrival: per-sample monotone arrival counter (combined
                layout: existing members then the incoming batch).
            priority: per-sample retention priority, aligned with
                ``arrival``.
            n_before: how many leading rows are pre-existing members.
            capacity: the store's capacity.
            rng: the store's generator (policies must not own RNG state
                so that a store replay is reproducible from its seed).
        """

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}()"


class FIFOEviction(EvictionPolicy):
    """Evict the oldest samples first (keep the newest)."""

    name = "fifo"

    def select_victims(self, n_over, arrival, priority, n_before, capacity, rng):
        # CalibrationStore layouts are always arrival-ordered, making
        # the oldest a prefix; the argsort is only for foreign callers.
        if n_over == len(arrival) or arrival[:n_over].max() <= arrival[n_over:].min():
            return np.arange(n_over)
        return np.argsort(arrival, kind="stable")[:n_over]


class LowestWeightEviction(EvictionPolicy):
    """Evict the lowest-priority samples first, ties oldest-first."""

    name = "lowest_weight"

    def select_victims(self, n_over, arrival, priority, n_before, capacity, rng):
        # lexsort sorts by the *last* key first: priority ascending,
        # then arrival ascending among equal priorities.
        return np.lexsort((arrival, priority))[:n_over]


class ReservoirEviction(EvictionPolicy):
    """Vitter's Algorithm R over the sample stream.

    Each streamed sample ``t`` (1-indexed arrival order) enters a full
    reservoir with probability ``capacity / t``, replacing a uniformly
    random member; otherwise the sample itself is the victim.  The
    invariant: after any prefix of the stream, every sample seen so far
    is in the store with equal probability.
    """

    name = "reservoir"

    def select_victims(self, n_over, arrival, priority, n_before, capacity, rng):
        members = list(range(n_before))
        victims = []
        for position in range(n_before, len(arrival)):
            if len(members) < capacity:
                members.append(position)
                continue
            # arrival counters are 0-indexed; sample t = arrival + 1.
            j = int(rng.integers(0, arrival[position] + 1))
            if j < capacity:
                slot = int(rng.integers(0, len(members)))
                victims.append(members[slot])
                members[slot] = position
            else:
                victims.append(position)
        # Defensive remainder (never reached while n_before <= capacity,
        # which CalibrationStore guarantees): evict oldest-first.
        if len(victims) < n_over:
            victim_set = set(victims)
            for position in np.argsort(arrival, kind="stable"):
                if len(victims) >= n_over:
                    break
                if int(position) not in victim_set:
                    victims.append(int(position))
        return np.asarray(victims[:n_over], dtype=int)


# write-once registry: populated at import time, read-only afterwards
_POLICIES = {  # promlint: disable=PL005
    policy.name: policy
    for policy in (FIFOEviction, LowestWeightEviction, ReservoirEviction)
}


def resolve_eviction_policy(policy) -> EvictionPolicy:
    """Return an :class:`EvictionPolicy` from an instance or registry name."""
    if isinstance(policy, EvictionPolicy):
        return policy
    if isinstance(policy, str):
        try:
            return _POLICIES[policy]()
        except KeyError:
            raise ConfigurationError(
                f"unknown eviction policy {policy!r}; "
                f"choose from {sorted(_POLICIES)}"
            ) from None
    raise TypeError(
        f"policy must be an EvictionPolicy or one of {sorted(_POLICIES)}, "
        f"got {type(policy).__name__}"
    )


#: exposure keys of the arrival / priority buffers (tuples, so no
#: column name can collide with them)
_ARRIVAL = ("arrival",)
_PRIORITY = ("priority",)


class CalibrationStore:
    """Bounded, eviction-managed container of aligned sample columns.

    Args:
        capacity: hard upper bound on the number of stored samples.
        policy: an :class:`EvictionPolicy` instance or registry name
            (``"fifo"``, ``"reservoir"``, ``"lowest_weight"``).
        seed: seed of the store's generator (used by randomized
            policies), making any add/evict sequence reproducible.

    The column schema is fixed by the first :meth:`add`; later adds
    must supply the same column names with matching trailing shapes.

    Storage is a set of over-allocated buffers with a shared
    ``[head, tail)`` live window.  Appends write ``batch`` rows at the
    tail, and evicting the *oldest* samples — what the default FIFO
    policy always does — just advances the head: the steady-state
    streaming mutation costs ``O(batch)``, not an ``O(n)`` recopy of
    every column.  (A FIFO store stays arrival-ordered: appends arrive
    in order, prefix eviction and explicit-``evict`` compaction
    preserve relative order, so FIFO victims are always a prefix.)
    Adopting rows — the first add into an empty store, an ``evict``
    compaction, a checkpoint restore — leaves the same headroom growth
    does, so the appends after it write in place too.
    Non-prefix evictions use the slot-reuse fast path: victims free
    their slots in place and surviving incoming rows overwrite them, so
    reservoir / lowest-weight mutations are also ``O(batch)`` writes —
    at the cost of an exposed order that is a (deterministic,
    ``StoreUpdate.order``-tracked) permutation of arrival order; use
    :meth:`arrival_order` to normalize when comparing stores.

    Every view the store hands out (:meth:`column`, :attr:`arrival`,
    :attr:`priority`) is read-only and immutable: its bytes never change
    afterwards, so consumers may hold it across mutations without a
    defensive copy.  Appends and head advances never write exposed
    rows; a slot-reuse write first copies any buffer that handed out a
    view since its last copy (copy-on-write).  A FIFO store therefore
    never copies, while reservoir / lowest-weight stores pay one live-
    window copy per exposed buffer on the next slot reuse.
    """

    def __init__(self, capacity: int, policy="fifo", seed: int = 0):
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.policy = resolve_eviction_policy(policy)
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._buffers: dict[str, np.ndarray] = {}
        self._arrival_buffer = np.zeros(0, dtype=np.int64)
        self._priority_buffer = np.zeros(0, dtype=float)
        self._head = 0
        self._tail = 0
        self._seen = 0
        # keys of the buffers that handed out a view since their last
        # copy; slot-reuse writes copy these first (copy-on-write)
        self._exposed: set = set()

    def __len__(self) -> int:
        return self._tail - self._head

    @property
    def n_seen(self) -> int:
        """Total samples ever streamed through the store."""
        return self._seen

    @property
    def column_names(self) -> tuple:
        return tuple(self._buffers)

    def schema(self) -> dict | None:
        """Column name -> trailing row shape, or ``None`` pre-schema."""
        if not self._buffers:
            return None
        return {name: buffer.shape[1:] for name, buffer in self._buffers.items()}

    def _expose(self, key, buffer: np.ndarray) -> np.ndarray:
        """A read-only view of ``buffer``'s live window, recorded as exposed."""
        self._exposed.add(key)
        view = buffer[self._head : self._tail]
        view.flags.writeable = False
        return view

    def _private(self, key, buffer: np.ndarray) -> np.ndarray:
        """``buffer``, copied first when it exposed a view since its last copy.

        The copy-on-write step before an in-place slot-reuse write: only
        the live window is copied, into a buffer of the same layout, so
        the shared ``[head, tail)`` window stays valid.
        """
        if key not in self._exposed:
            return buffer
        self._exposed.discard(key)
        fresh = np.empty_like(buffer)
        fresh[self._head : self._tail] = buffer[self._head : self._tail]
        return fresh

    @property
    def arrival(self) -> np.ndarray:
        """Monotone arrival counter of each stored sample (read-only view)."""
        return self._expose(_ARRIVAL, self._arrival_buffer)

    @property
    def priority(self) -> np.ndarray:
        """Retention priority of each stored sample (read-only view)."""
        return self._expose(_PRIORITY, self._priority_buffer)

    def column(self, name: str) -> np.ndarray:
        """Return one stored column (exposed store order).

        The returned array is a read-only view of the store's buffer
        whose bytes never change: later slot-reuse writes copy the
        buffer first (see the class docstring).
        """
        try:
            buffer = self._buffers[name]
        except KeyError:
            raise KeyError(
                f"store has no column {name!r}; columns: {self.column_names}"
            ) from None
        return self._expose(name, buffer)

    def arrival_order(self) -> np.ndarray:
        """Exposed-order positions sorted by arrival (oldest first).

        The order-normalization helper: ``column(name)[arrival_order()]``
        is the canonical arrival-ordered view regardless of how slot
        reuse permuted the exposed layout, so content comparisons across
        stores with different mutation histories stay meaningful.
        """
        return np.argsort(
            self._arrival_buffer[self._head : self._tail], kind="stable"
        )

    def clear(self, lifetime: bool = False) -> None:
        """Drop all samples and the column schema; keep the RNG state.

        The stream-position counter (:attr:`n_seen`) survives by
        default, so arrival counters keep increasing and randomized
        eviction statistics — reservoir admission probability
        ``capacity / t`` — stay calibrated to the true stream position
        across a clear.  Pass ``lifetime=True`` to zero it too (a
        brand-new deployment), mirroring ``TriggerStack.reset(lifetime=)``.
        """
        self._buffers = {}
        self._arrival_buffer = np.zeros(0, dtype=np.int64)
        self._priority_buffer = np.zeros(0, dtype=float)
        self._head = 0
        self._tail = 0
        self._exposed = set()
        if lifetime:
            self._seen = 0

    def restart_stream(self) -> None:
        """Restart the stream in place, keeping every row where it is.

        Leaves the state ``clone_empty()`` followed by one ``add()`` of
        the stored rows would: arrival counters renumbered ``0..n-1`` in
        exposed order, :attr:`n_seen` equal to ``n`` and the generator
        re-seeded from :attr:`seed`; rows, priorities and their order
        stay.  An empty store drops its column schema, as a fresh clone
        has none.
        """
        n = len(self)
        if n:
            arrival = self._private(_ARRIVAL, self._arrival_buffer)
            arrival[self._head : self._tail] = np.arange(n)
            self._arrival_buffer = arrival
        else:
            self.clear()
        self._seen = n
        self._rng = np.random.default_rng(self.seed)

    def clone_empty(self) -> "CalibrationStore":
        """A fresh, empty store with the same capacity/policy/seed."""
        return CalibrationStore(self.capacity, self.policy, seed=self.seed)

    # -- internal storage ---------------------------------------------------------
    def _set_from_arrays(self, columns: dict, arrival, priority, rows=None) -> None:
        """Adopt rows as the live window (head 0) of fresh buffers.

        Each array is copied once, its ``rows`` positions (all rows by
        default) gathered into a buffer with the headroom :meth:`_reserve`
        gives on growth, ``max(2n, 16)`` rows.  The store owns what it
        adopts, so a caller mutating the sources afterwards cannot
        corrupt the views :meth:`column` hands out, and the appends
        after a ``calibrate``, an :meth:`evict` or a checkpoint restore
        write in place: a view taken before them stays a view of the
        live buffer instead of pinning one the first append regrew.
        """
        n = len(arrival) if rows is None else len(rows)
        size = max(2 * n, 16)

        def adopt(values):
            buffer = np.empty((size,) + values.shape[1:], dtype=values.dtype)
            if rows is None:
                buffer[:n] = values
            else:
                # mode="clip" skips take's buffered bounds check, which
                # would gather into a temporary first; rows are in range
                np.take(values, rows, axis=0, out=buffer[:n], mode="clip")
            return buffer

        self._buffers = {name: adopt(values) for name, values in columns.items()}
        self._arrival_buffer = adopt(arrival)
        self._priority_buffer = adopt(priority)
        self._head = 0
        self._tail = n
        self._exposed = set()

    def _reserve(self, columns: dict, n_extra: int) -> None:
        """Promote dtypes / grow buffers so ``n_extra`` tail rows fit.

        Buffer dtypes are promoted when an incoming batch needs it
        (e.g. int column receiving floats, or longer unicode class
        names) — a plain slice assignment would silently cast or
        truncate instead.  ``columns`` is the *whole* incoming batch so
        hole-fill writes see promoted buffers too.
        """
        n = len(self)
        promoted = {
            name: np.result_type(self._buffers[name], values)
            for name, values in columns.items()
        }
        needs_promotion = any(
            promoted[name] != self._buffers[name].dtype for name in columns
        )
        if needs_promotion or self._tail + n_extra > len(self._arrival_buffer):
            grown = max(2 * (n + n_extra), 16)

            def regrow(buffer, dtype=None):
                fresh = np.empty(
                    (grown,) + buffer.shape[1:], dtype=dtype or buffer.dtype
                )
                fresh[:n] = buffer[self._head : self._tail]
                return fresh

            self._buffers = {
                name: regrow(b, promoted.get(name))
                for name, b in self._buffers.items()
            }
            self._arrival_buffer = regrow(self._arrival_buffer)
            self._priority_buffer = regrow(self._priority_buffer)
            self._head, self._tail = 0, n
            self._exposed = set()

    def _append(self, columns: dict, arrival, priority) -> None:
        """Write a batch at the tail, growing-and-compacting if needed."""
        self._reserve(columns, len(arrival))
        stop = self._tail + len(arrival)
        for name, values in columns.items():
            self._buffers[name][self._tail : stop] = values
        self._arrival_buffer[self._tail : stop] = arrival
        self._priority_buffer[self._tail : stop] = priority
        self._tail = stop

    def add(self, priority=None, **columns) -> StoreUpdate:
        """Append a batch of samples, evicting down to capacity.

        Args:
            priority: optional ``(n_new,)`` retention priorities
                (default 1.0 each); consumed by priority-aware policies.
            **columns: aligned arrays, one keyword per schema column.

        Returns:
            the :class:`StoreUpdate` describing survivors and victims.
        """
        arrays, _, new_priority = check_batch_columns(columns, self.schema(), priority)
        return self._add_checked(arrays, new_priority)

    def _add_checked(self, arrays: dict, new_priority: np.ndarray) -> StoreUpdate:
        """:meth:`add` of a batch :func:`check_batch_columns` accepted."""
        n_new = len(new_priority)
        n_before = len(self)
        new_arrival = self._seen + np.arange(n_new, dtype=np.int64)
        live = slice(self._head, self._tail)
        combined_arrival = np.concatenate([self._arrival_buffer[live], new_arrival])
        combined_priority = np.concatenate([self._priority_buffer[live], new_priority])
        self._seen += n_new

        n_total = n_before + n_new
        keep_mask = np.ones(n_total, dtype=bool)
        n_over = n_total - self.capacity
        if n_over > 0:
            victims = np.asarray(
                self.policy.select_victims(
                    n_over,
                    combined_arrival,
                    combined_priority,
                    n_before,
                    self.capacity,
                    self._rng,
                ),
                dtype=int,
            )
            if len(victims) != n_over or len(set(victims.tolist())) != n_over:
                raise InternalError(
                    f"{self.policy!r} returned {len(victims)} victims, "
                    f"needed {n_over} distinct"
                )
            keep_mask[victims] = False

        order = None
        if n_over <= 0 or not keep_mask[:n_over].any():
            # Prefix eviction (FIFO's only shape): advance the head and
            # append — O(batch), no column recopy.  Exposed order stays
            # arrival order, so the default monotone `order` applies.
            dropped_new = max(0, n_over - n_before)
            if dropped_new:
                arrays = {name: values[dropped_new:] for name, values in arrays.items()}
                new_arrival = new_arrival[dropped_new:]
                new_priority = new_priority[dropped_new:]
            self._head += min(max(n_over, 0), n_before)
            if self._buffers:
                self._append(arrays, new_arrival, new_priority)
            else:
                self._set_from_arrays(arrays, new_arrival, new_priority)
        else:
            # Slot-reuse (free-list) eviction: existing victims free
            # their slots in place and surviving new rows overwrite
            # them, the remainder appending at the tail — O(batch)
            # writes for reservoir / lowest-weight instead of one
            # compacting copy per mutation.  Survivors never move, but
            # the exposed order is no longer arrival order; the
            # StoreUpdate.order permutation records where every
            # survivor landed.
            surviving_new = np.flatnonzero(keep_mask[n_before:])
            freed = np.flatnonzero(~keep_mask[:n_before])
            # Capacity arithmetic guarantees enough surviving new rows
            # to fill every freed slot (n_after == capacity >= n_before).
            fill = surviving_new[: len(freed)]
            tail = surviving_new[len(freed) :]
            if self._buffers:
                self._reserve(arrays, len(tail))
                slots = self._head + freed
                for name, values in arrays.items():
                    buffer = self._private(name, self._buffers[name])
                    buffer[slots] = values[fill]
                    self._buffers[name] = buffer
                self._arrival_buffer = self._private(_ARRIVAL, self._arrival_buffer)
                self._arrival_buffer[slots] = new_arrival[fill]
                self._priority_buffer = self._private(_PRIORITY, self._priority_buffer)
                self._priority_buffer[slots] = new_priority[fill]
                if len(tail):
                    self._append(
                        {name: values[tail] for name, values in arrays.items()},
                        new_arrival[tail],
                        new_priority[tail],
                    )
            else:
                # First-ever add already overflowing: no existing slots
                # to reuse, adopt the surviving new rows directly.
                self._set_from_arrays(arrays, new_arrival, new_priority, rows=tail)
            slot_map = np.arange(n_before, dtype=np.int64)
            slot_map[freed] = n_before + fill
            order = np.concatenate([slot_map, n_before + tail])
        return StoreUpdate(
            n_before=n_before,
            n_added=n_new,
            keep_mask=keep_mask,
            evicted=np.flatnonzero(~keep_mask),
            order=order,
        )

    def evict(self, positions) -> StoreUpdate:
        """Explicitly remove samples at ``positions`` (store order)."""
        n = len(self)
        positions = np.unique(np.asarray(positions, dtype=int))
        if len(positions) and (positions.min() < -n or positions.max() >= n):
            raise IndexError(f"eviction position out of range for store of {n}")
        positions = positions % n if len(positions) else positions
        keep_mask = np.ones(n, dtype=bool)
        keep_mask[positions] = False
        live = slice(self._head, self._tail)
        self._set_from_arrays(
            {name: b[live] for name, b in self._buffers.items()},
            self._arrival_buffer[live],
            self._priority_buffer[live],
            rows=np.flatnonzero(keep_mask),
        )
        return StoreUpdate(
            n_before=n,
            n_added=0,
            keep_mask=keep_mask,
            evicted=np.flatnonzero(~keep_mask),
        )

    def replace_column(self, name: str, values) -> None:
        """Overwrite one column in place (same length, same order).

        Used after a model update: membership is unchanged but derived
        columns (features, probabilities) must be recomputed — possibly
        with a different trailing shape (e.g. a grown class head).
        """
        values = np.asarray(values)
        if name not in self._buffers:
            raise KeyError(f"store has no column {name!r}")
        if len(values) != len(self):
            raise CalibrationError(
                f"replacement column {name!r} has {len(values)} rows, "
                f"store holds {len(self)}"
            )
        # A fresh buffer laid out like the others (same length, values
        # in the shared live window); its trailing shape may differ.
        buffer = np.empty(
            (len(self._arrival_buffer),) + values.shape[1:], dtype=values.dtype
        )
        buffer[self._head : self._tail] = values
        self._buffers[name] = buffer
        self._exposed.discard(name)

    def __repr__(self) -> str:
        return (
            f"CalibrationStore(n={len(self)}/{self.capacity}, "
            f"policy={self.policy.name!r}, seen={self._seen})"
        )
