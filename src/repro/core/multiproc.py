"""Multi-process serving over shared-memory segments (DESIGN.md §10).

The async serving loop (:mod:`repro.core.serving`) freed decisions from
maintenance stalls, but its evaluator threads still share one GIL — on
a multi-core box, evaluate throughput stops at one core.  This module
adds the process tier: a :class:`ProcessServingPool` whose evaluator
*processes* attach the calibration state exported by
:class:`~repro.core.shm.SharedSegmentArena`, rebuild the segment
bundle over the mapped arrays (zero copy), and serve
``predict``/``evaluate`` requests over per-worker
``multiprocessing.Pipe`` connections.

Ownership is strictly single-writer (the supervisor/worker split of
streaming-ML serving systems): the parent process runs maintenance,
:meth:`~ProcessServingPool.publish`-es name tables and checkpoints;
workers only ever read.  A publish exports the touched blocks, swaps
the name table, and releases the previous table's references — workers
notice the new version before their next request, re-attach only the
blocks that changed, and fall back to their last good table on a torn
read.  Decisions are bit-identical to the in-process path: the mapped
blocks hold the same bytes, the rebuilt bundle routes evaluation
through the same block-column kernels, and the model
weights travel in the pickled interface spec.

Crash containment: a worker that dies mid-request (detected by a
broken pipe) is respawned by the parent and re-attaches the current
table; the in-flight request is retried on the replacement, and the
crash/respawn is counted on :class:`~repro.core.serving.ServingStats`.
"""

from __future__ import annotations

import copy
import multiprocessing
import os
import pickle
import threading
import traceback
import zlib
from collections import deque
from multiprocessing.connection import wait as _connection_wait

import numpy as np

from .exceptions import ConfigurationError, ServingError, SharedSegmentError
from .segments import bundle_from_manifest, bundle_manifest, manifest_refs
from .serving import ServingStats
from .shm import (
    SegmentAttacher,
    SegmentNameTable,
    SharedSegmentArena,
    dumps_manifest,
    loads_manifest,
)

#: per-process counter making arena/table prefixes unique even when a
#: pool object's id() is reused after garbage collection
_POOL_SEQUENCE = 0

#: requests a worker may have in flight during :meth:`map_predict`
#: pipelining — bounded so a slow worker cannot fill its OS pipe
#: buffer with replies the parent is not reading yet (a full buffer
#: wedges the worker mid-send and deadlocks the plane).
_PIPELINE_DEPTH = 2


def _next_pool_prefix() -> str:
    """A collision-free shared-memory name prefix for one pool."""
    global _POOL_SEQUENCE
    _POOL_SEQUENCE += 1
    return f"prom-{os.getpid():x}-{_POOL_SEQUENCE:x}"


class _WorkerRuntime:
    """Worker-process state: the attached table and the rebuilt interface.

    Not a public class — it lives only inside ``_worker_main``.  The
    runtime keeps the *last good* interface: a torn table read (or a
    manifest pointing at segments the parent already unlinked, the
    same race observed one layer up) is counted and skipped, never
    served.
    """

    def __init__(self, table_name: str):
        self.table = SegmentNameTable.attach(table_name)
        self.attacher = SegmentAttacher()
        self.interface = None
        self.version = 0
        self.torn_reads = 0
        self._spec_name = None
        self._spec = None

    def refresh(self) -> None:
        """Adopt the newest consistent name table, if it changed."""
        if (
            self.interface is not None
            and self.table.version_hint() == self.version
        ):
            return
        result = self.table.read()
        if result is None:
            self.torn_reads += 1
            return
        version, payload = result
        if self.interface is not None and version == self.version:
            return
        manifest = loads_manifest(payload)
        try:
            interface = self._build(manifest)
        except SharedSegmentError:
            # the parent swapped tables between our read and our
            # attach; the next request re-reads the newer table
            self.torn_reads += 1
            return
        self.interface = interface
        self.version = version
        live = [ref.name for ref in manifest_refs(manifest["bundle"])]
        live.append(manifest["spec"].name)
        self.attacher.sweep(live)

    def _build(self, manifest: dict):
        spec_ref = manifest["spec"]
        if spec_ref.name != self._spec_name:
            blob = self.attacher.get(spec_ref)
            self._spec = pickle.loads(blob.tobytes())
            self._spec_name = spec_ref.name
        interface = copy.copy(self._spec)
        prom = copy.copy(self._spec.prom)
        interface.prom = prom
        prom._segment_bundle = bundle_from_manifest(
            manifest["bundle"], self.attacher.get, self._spec._bundle_router
        )
        # results leave the process pickled, and a later table swap
        # unmaps these blocks: decide with the detail computed
        prom._eager_detail = True
        return interface

    def close(self) -> None:
        """Detach every mapping before the worker exits."""
        self.interface = None
        self.attacher.close()
        self.table.close()


def _worker_main(conn, table_name: str) -> None:
    """Evaluator-process request loop (module-level: spawn-compatible).

    Messages are ``(kind, ...)`` tuples; every request is answered with
    ``("ok", result)`` or ``("err", message, traceback)`` — except
    ``("crash",)``, the fault hook, which hard-exits without a reply so
    tests can exercise the parent's broken-pipe detection.
    """
    runtime = _WorkerRuntime(table_name)
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            kind = message[0]
            if kind == "stop":
                conn.send(("ok", None))
                break
            if kind == "crash":
                os._exit(17)
            try:
                runtime.refresh()
                if kind == "ping":
                    result = "pong"
                elif kind == "sync":
                    result = (runtime.version, runtime.torn_reads)
                elif runtime.interface is None:
                    raise SharedSegmentError(
                        "worker has no consistent name table yet"
                    )
                elif kind == "predict":
                    result = runtime.interface.predict(message[1])
                elif kind == "evaluate":
                    result = runtime.interface.prom.evaluate(
                        *message[1], **message[2]
                    )
                else:
                    raise SharedSegmentError(f"unknown request {kind!r}")
            except BaseException as error:  # noqa: BLE001 — loop must survive
                reply = (
                    "err",
                    f"{type(error).__name__}: {error}",
                    traceback.format_exc(),
                )
            else:
                reply = ("ok", result)
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                break
    finally:
        runtime.close()
        conn.close()


class ProcessServingPool:
    """N evaluator processes serving from shared-memory segments.

    Args:
        interface: a trained, calibrated
            :class:`~repro.core.interface.ModelInterface` (or the
            regression variant).  The pool immediately publishes its
            current calibration state and spawns the workers.
        n_workers: evaluator processes.
        start_method: ``multiprocessing`` start method; default prefers
            ``"fork"`` (instant spawn, inherited imports) and falls
            back to the platform default where fork is unavailable.
        table_capacity: byte size of the name-table block — an upper
            bound on the pickled manifest, not on calibration data.
        stats: optional :class:`~repro.core.serving.ServingStats` to
            account on; the pool creates a private one when omitted
            (and :meth:`bind_stats` re-homes the counters when an
            :class:`~repro.core.serving.AsyncServingLoop` adopts the
            pool).

    The parent remains the single writer: call
    :meth:`publish` after every batch of maintenance (the async loop
    does this from its publish path when the pool is attached), and
    route decisions through :meth:`predict` / :meth:`map_predict`.
    """

    def __init__(
        self,
        interface,
        n_workers: int = 2,
        start_method: str | None = None,
        table_capacity: int = 1 << 20,
        stats: ServingStats | None = None,
    ):
        if n_workers < 1:
            raise ConfigurationError(
                f"n_workers must be >= 1, got {n_workers}"
            )
        self.interface = interface
        self.n_workers = int(n_workers)
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self._ctx = multiprocessing.get_context(start_method)
        self.start_method = start_method
        prefix = _next_pool_prefix()
        self._arena = SharedSegmentArena(prefix)
        self._table = SegmentNameTable.create(
            f"{prefix}-tbl", capacity=table_capacity
        )
        self._stats = stats if stats is not None else ServingStats()
        self._stats_lock = threading.Lock()
        self._retained: list = []
        self._spec_token = None
        self._spec_ref = None
        self._workers: list = []
        self._torn_seen: list = []
        self._round_robin = 0
        self._closed = False
        self.publish()
        for _ in range(self.n_workers):
            self._spawn()

    # -- write side (parent only) -------------------------------------------------
    @property
    def stats(self) -> ServingStats:
        """The stats object the pool accounts on."""
        return self._stats

    def bind_stats(self, stats: ServingStats, lock=None) -> None:
        """Re-home the pool's counters onto a shared stats object.

        Called by :class:`~repro.core.serving.AsyncServingLoop` when it
        adopts the pool, so one ``loop.stats`` carries both planes.
        Counter values accumulated so far are migrated.
        """
        with self._stats_lock:
            previous = self._stats
            if previous is not stats:
                for name in _PROCESS_COUNTERS:
                    setattr(
                        stats,
                        name,
                        getattr(stats, name) + getattr(previous, name),
                    )
            self._stats = stats
        if lock is not None:
            self._stats_lock = lock

    def _require_open(self) -> None:
        if self._closed:
            raise SharedSegmentError("process pool is closed")

    def _pickle_spec(self) -> bytes:
        spec = copy.copy(self.interface)
        spec.streaming = None
        spec.__dict__.pop("_X_train", None)
        spec.__dict__.pop("_y_train", None)
        prom = copy.copy(self.interface.prom)
        bundle = prom.__dict__.pop("_segment_bundle", None)
        spec.prom = prom
        # the bundle's shard router (the candidate pruner routes with
        # it) rides in the spec, not the size-bounded name table
        spec._bundle_router = None if bundle is None else bundle.router
        return pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL)

    def publish(self) -> int:
        """Export touched blocks, swap the name table; returns the version.

        Must be called from the writer side only, with maintenance
        quiescent (the async loop calls it under its state lock).  Cost
        is ``O(touched blocks)`` plus one interface-spec pickle; blocks
        already exported are reused by identity
        (:func:`~repro.core.durability.same_fingerprint` contract) and
        an unchanged spec is detected by checksum and not re-exported.
        """
        self._require_open()
        bundle = self.interface.prom._segment_bundle
        spec_bytes = self._pickle_spec()
        token = (zlib.crc32(spec_bytes), len(spec_bytes))
        if token != self._spec_token or self._spec_ref is None:
            self._spec_ref = self._arena.export(
                np.frombuffer(spec_bytes, dtype=np.uint8)
            )
            self._spec_token = token
        manifest = {
            "spec": self._spec_ref,
            "bundle": bundle_manifest(bundle, self._arena.export),
        }
        refs = manifest_refs(manifest["bundle"])
        refs.append(self._spec_ref)
        self._arena.retain(refs)
        version = self._table.publish(dumps_manifest(manifest))
        self._arena.release(self._retained)
        self._retained = refs
        with self._stats_lock:
            stats = self._stats
            stats.table_publishes += 1
            stats.shm_blocks_exported = self._arena.blocks_exported
            stats.shm_blocks_reused = self._arena.blocks_reused
            stats.shm_bytes_exported = self._arena.bytes_exported
        return version

    # -- worker lifecycle ---------------------------------------------------------
    def _spawn(self) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._table.name),
            daemon=True,
        )
        process.start()
        child_conn.close()
        self._workers.append([process, parent_conn])
        self._torn_seen.append(0)
        with self._stats_lock:
            self._stats.workers_spawned += 1

    def _respawn(self, slot: int) -> None:
        process, conn = self._workers[slot]
        try:
            conn.close()
        except OSError:  # pragma: no cover - already broken
            pass
        if process.is_alive():
            process.terminate()
        process.join(timeout=5)
        with self._stats_lock:
            self._stats.workers_crashed += 1
            self._stats.workers_respawned += 1
        parent_conn, child_conn = self._ctx.Pipe()
        replacement = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._table.name),
            daemon=True,
        )
        replacement.start()
        child_conn.close()
        self._workers[slot] = [replacement, parent_conn]
        self._torn_seen[slot] = 0
        with self._stats_lock:
            self._stats.workers_spawned += 1

    # -- read side ----------------------------------------------------------------
    def _roundtrip(self, slot: int, message):
        conn = self._workers[slot][1]
        conn.send(message)
        reply = conn.recv()
        if reply[0] == "err":
            raise ServingError(
                f"worker {slot} failed: {reply[1]}\n{reply[2]}"
            )
        return reply[1]

    def _request(self, message):
        self._require_open()
        for _ in range(len(self._workers) + 1):
            slot = self._round_robin % len(self._workers)
            self._round_robin += 1
            try:
                return self._roundtrip(slot, message)
            except (EOFError, BrokenPipeError, ConnectionResetError) as error:
                last_error = error
                self._respawn(slot)
        raise SharedSegmentError(
            "every worker died serving the request"
        ) from last_error

    def predict(self, X):
        """``(predictions, decisions)`` from one evaluator process.

        Bit-identical to ``interface.predict(X)`` at the published
        table's state; a worker crash mid-request is absorbed by a
        respawn + retry on the replacement (which attaches the current
        — last-good — table).
        """
        return self._request(("predict", np.asarray(X)))

    def evaluate(self, *args, **kwargs):
        """Batch-evaluate precomputed features/outputs on a worker."""
        return self._request(("evaluate", args, kwargs))

    def map_predict(self, batches) -> list:
        """Predict many batches, pipelined across every worker.

        The throughput API: batches fan out round-robin with a bounded
        per-worker pipeline, replies are collected as they land, and
        results return in input order.  Crashed workers are respawned
        and their in-flight batches requeued.
        """
        self._require_open()
        batches = list(batches)
        results = [None] * len(batches)
        work = deque(range(len(batches)))
        in_flight: list = [deque() for _ in self._workers]

        def slot_of(conn):
            for index, (_, worker_conn) in enumerate(self._workers):
                if worker_conn is conn:
                    return index
            raise SharedSegmentError("reply from unknown worker connection")

        def crash(slot):
            queued = in_flight[slot]
            work.extendleft(reversed(queued))
            queued.clear()
            self._respawn(slot)

        while work or any(in_flight):
            for slot in range(len(self._workers)):
                conn = self._workers[slot][1]
                while work and len(in_flight[slot]) < _PIPELINE_DEPTH:
                    index = work.popleft()
                    try:
                        conn.send(("predict", batches[index]))
                    except (BrokenPipeError, OSError):
                        work.appendleft(index)
                        crash(slot)
                        break
                    in_flight[slot].append(index)
            busy = [
                self._workers[slot][1]
                for slot in range(len(self._workers))
                if in_flight[slot]
            ]
            if not busy:
                continue
            for conn in _connection_wait(busy):
                slot = slot_of(conn)
                try:
                    reply = conn.recv()
                except (EOFError, OSError):
                    crash(slot)
                    continue
                index = in_flight[slot].popleft()
                if reply[0] == "err":
                    raise ServingError(
                        f"worker {slot} failed: {reply[1]}\n{reply[2]}"
                    )
                results[index] = reply[1]
        return results

    def sync(self) -> list:
        """Make every worker adopt the newest table; returns versions.

        Also drains the per-worker torn-read counters into
        ``stats.torn_table_reads``.  Used by tests and by
        ``drain_each_step`` deployments to assert freshness: after
        ``publish(); sync()`` every worker serves the new version (or
        kept its last good one through a torn read, which the counter
        exposes).
        """
        self._require_open()
        versions = []
        for slot in range(len(self._workers)):
            try:
                version, torn = self._roundtrip(slot, ("sync",))
            except (EOFError, BrokenPipeError, ConnectionResetError):
                self._respawn(slot)
                version, torn = self._roundtrip(slot, ("sync",))
            delta = torn - self._torn_seen[slot]
            if delta > 0:
                with self._stats_lock:
                    self._stats.torn_table_reads += delta
            self._torn_seen[slot] = torn
            versions.append(version)
        return versions

    @property
    def table_version(self) -> int:
        """The version of the most recently published name table."""
        return self._table.version

    # -- lifecycle ----------------------------------------------------------------
    def close(self) -> None:
        """Stop the workers and unlink every shared segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for process, conn in self._workers:
            try:
                conn.send(("stop",))
                conn.recv()
            except (EOFError, BrokenPipeError, ConnectionResetError, OSError):
                pass
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        for process, _ in self._workers:
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - wedged worker
                process.terminate()
                process.join(timeout=5)
        self._workers = []
        self._table.close()
        self._arena.close()

    def __enter__(self) -> "ProcessServingPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ProcessServingPool(workers={self.n_workers}, "
            f"start_method={self.start_method!r}, "
            f"table_version={self._table.version})"
        )


#: ServingStats fields owned by the process tier (used by bind_stats)
_PROCESS_COUNTERS = (
    "workers_spawned",
    "workers_crashed",
    "workers_respawned",
    "table_publishes",
    "torn_table_reads",
    "shm_blocks_exported",
    "shm_blocks_reused",
    "shm_bytes_exported",
)
