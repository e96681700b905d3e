"""Durable incremental checkpoints and warm restart (DESIGN.md §7).

The serving plane (DESIGN.md §5-§6) is entirely in-memory: a crash
loses the calibration store and detector state, and a restart pays a
full recalibration before the first decision.  This module persists the
streaming runtime to disk and restores it **bit-identically with zero
recalibration**, exploiting the same property that makes snapshot
publishes cheap: the segment compose layer already holds the detector's
state as immutable per-shard blocks, so a checkpoint only has to write
the blocks that changed since the previous generation.

Checkpoint format (one directory per runtime):

* **block files** (``shard-<s>-e<epoch>-<crc>.npz``) — one per shard,
  containing the shard's store columns, arrival/priority arrays, the
  per-expert calibration-score blocks and (regressor) cluster
  pseudo-labels.  Blocks are content-addressed (the CRC-32 of the
  serialized bytes is part of the name) and epoch-tagged, and they are
  write-once: a block whose shard did not mutate since the last
  generation is *skipped* — not reserialized, not rewritten — which is
  what makes a single-touched-shard checkpoint ``O(shard)`` instead of
  ``O(store)``.
* an optional **global block** (``global-<crc>.npz``) — small fitted
  state outside the store: cluster-router K-means centers and the
  regressor's calibration clusterer (labels, centers, and the feature
  matrix its nearest-neighbour ``assign`` searches).
* a **generation manifest** (``manifest-<generation>.json``) — every
  scalar (epochs, per-shard stream counters and RNG states, the
  resolved tau, the label-space size) plus the block file names and
  CRCs, self-checksummed with ``payload_crc``.  Manifests commit
  atomically (write temp → fsync → rename), so a generation either
  exists completely or not at all.

Restore walks the manifests newest-first and installs the first
generation whose manifest parses, whose payload checksum matches and
whose every block file exists with the recorded CRC — a torn manifest,
a truncated block or a crash between block writes and the manifest
commit therefore *falls back to the previous generation* instead of
failing the restart (the skipped generations are reported on the
:class:`RestoreReport`).  Only the last ``keep`` generations are
retained; older manifests and unreferenced blocks are garbage-collected
after each successful commit.

What is NOT checkpointed: the model itself and the interface's
training-set accumulator.  The caller constructs an interface with a
trained model (its own persistence problem) and a matching runtime
configuration, then :func:`restore_checkpoint` installs the
calibration/detector state into it.  Restored decisions are
bit-identical to the pre-crash detector because every input of the
decision function is persisted exactly: the detector's segment bundle
is rebuilt from the restored per-shard blocks in store order, and the
resolved tau and RNG states are carried as scalars.
"""

from __future__ import annotations

import io
import json
import os
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .clustering import CalibrationClusterer
from .exceptions import CheckpointError, ConfigurationError, ValidationError
from .streaming import StreamingPromClassifier, _ShardState

#: manifest schema version; bump on incompatible layout changes
MANIFEST_FORMAT = 1

_MANIFEST_PREFIX = "manifest-"


class _CorruptGeneration(Exception):
    """Internal: this generation is unreadable; restore falls back."""


@dataclass(frozen=True)
class CheckpointInfo:
    """Outcome of one :meth:`CheckpointWriter.checkpoint` call.

    ``blocks_written``/``blocks_reused`` count per-shard (plus global)
    data blocks: a steady-state incremental checkpoint of a
    single-touched-shard publish writes 1 and reuses ``n_shards - 1``.
    """

    generation: int
    manifest: str
    blocks_written: int
    blocks_reused: int
    bytes_written: int
    seconds: float


@dataclass(frozen=True)
class RestoreReport:
    """Outcome of one :func:`restore_checkpoint` call.

    ``fallbacks`` lists the newer generations that were skipped as
    corrupt (empty for a clean restore of the latest generation) —
    the observable half of the graceful-degradation contract.

    ``trigger_restored`` reports whether the drift-trigger state was
    recovered from the manifest (DESIGN.md §11).  ``False`` when no
    trigger target was passed, when the manifest predates the trigger
    layer, or when the recorded state no longer matches the configured
    stack (another window or state version) — in the latter two cases the stack is deterministically
    re-warmed instead (``reset(lifetime=True)``), never left holding
    stale pre-restore observations.
    """

    generation: int
    epoch: int
    seconds: float
    fallbacks: tuple = ()
    trigger_restored: bool = False


def _canonical_payload(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def _serialize_arrays(arrays: dict) -> bytes:
    for name, array in arrays.items():
        if array.dtype == object:
            raise CheckpointError(
                f"cannot checkpoint object-dtype column {name!r}; store "
                f"only numeric/string columns or drop it from extra="
            )
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def _load_block(path: Path, crc: int) -> dict:
    if not path.exists():
        raise _CorruptGeneration(f"missing block file {path.name}")
    data = path.read_bytes()
    if zlib.crc32(data) != crc:
        raise _CorruptGeneration(f"CRC mismatch in block file {path.name}")
    try:
        with np.load(io.BytesIO(data), allow_pickle=False) as npz:
            return {name: np.array(npz[name]) for name in npz.files}
    except (OSError, ValueError, KeyError) as err:
        raise _CorruptGeneration(
            f"unreadable block file {path.name}: {err}"
        ) from err


def _manifest_generation(path: Path) -> int | None:
    stem = path.name
    if not stem.startswith(_MANIFEST_PREFIX) or not stem.endswith(".json"):
        return None
    digits = stem[len(_MANIFEST_PREFIX) : -len(".json")]
    return int(digits) if digits.isdigit() else None


def list_generations(directory) -> tuple:
    """Committed generation numbers in ``directory``, ascending.

    Lists every manifest file present; corrupt manifests are still
    listed (they are only detected when read).
    """
    directory = Path(directory)
    if not directory.is_dir():
        return ()
    generations = sorted(
        g
        for path in directory.iterdir()
        if (g := _manifest_generation(path)) is not None
    )
    return tuple(generations)


def _read_manifest(path: Path) -> dict:
    try:
        payload = json.loads(path.read_bytes())
    except (OSError, ValueError) as err:
        raise _CorruptGeneration(f"unreadable manifest {path.name}: {err}") from err
    if not isinstance(payload, dict) or "payload_crc" not in payload:
        raise _CorruptGeneration(f"manifest {path.name} lacks payload_crc")
    recorded = payload.pop("payload_crc")
    if zlib.crc32(_canonical_payload(payload)) != recorded:
        raise _CorruptGeneration(f"payload CRC mismatch in manifest {path.name}")
    if payload.get("format") != MANIFEST_FORMAT:
        raise _CorruptGeneration(
            f"manifest {path.name} has format {payload.get('format')!r}, "
            f"this reader speaks {MANIFEST_FORMAT}"
        )
    return payload


def _is_classifier(streaming) -> bool:
    return isinstance(streaming, StreamingPromClassifier)


def _capture(streaming) -> tuple:
    """Snapshot the runtime into ``(payload, shard_entries, global_arrays)``.

    ``shard_entries`` is one ``(manifest_entry, arrays)`` pair per
    shard; ``arrays`` are the immutable blocks to persist.  Must run
    with the runtime quiescent (the serving loop calls this under its
    maintenance mutex).
    """
    prom = streaming.prom
    store = streaming.store
    classifier = _is_classifier(streaming)
    if not streaming.is_calibrated:
        raise CheckpointError("cannot checkpoint an uncalibrated runtime")
    columns = list(store.column_names)
    experts = streaming._compose_experts()
    n_labels = int(streaming._compose_n_labels())
    weighting = prom.weighting
    payload = {
        "format": MANIFEST_FORMAT,
        "kind": "classifier" if classifier else "regressor",
        "epoch": int(streaming.epoch),
        "n_shards": int(streaming.n_shards),
        "n_experts": len(experts),
        "n_labels": n_labels,
        "columns": columns,
        "tau": {
            "fixed": weighting.tau,
            "resolved": weighting._resolved_tau,
        },
        "store_epoch": int(store.epoch),
        "capacities": [int(c) for c in store.shard_capacities],
        "policies": [policy.name for policy in store.policies],
        "router": store.router.name,
    }
    shard_entries = []
    states = streaming._shard_states
    for s, shard in enumerate(store.shards):
        arrays = {f"col:{name}": store.column_segment(s, name) for name in columns}
        arrays["arrival"] = shard.arrival
        arrays["priority"] = shard.priority
        for e in range(len(experts)):
            arrays[f"score:{e}"] = np.asarray(states[s].scores[e])
        if not classifier:
            arrays["clusters"] = np.asarray(states[s].clusters)
        entry = {
            "epoch": int(store.shard_epochs[s]),
            "n_seen": int(shard.n_seen),
            "rng": shard._rng.bit_generator.state,
        }
        shard_entries.append((entry, arrays))

    global_arrays = {}
    router = store.router
    if router.name == "cluster" and router.is_fitted:
        global_arrays["router_centers"] = np.asarray(router.centers)
    if not classifier:
        clusterer = prom.clusterer_
        global_arrays["clusterer_labels"] = np.asarray(clusterer.labels_)
        global_arrays["clusterer_centers"] = np.asarray(clusterer.centers_)
        global_arrays["clusterer_features"] = np.asarray(clusterer._features)
        payload["clusterer_k"] = int(clusterer.k_)
    return payload, shard_entries, global_arrays


def _shard_fingerprint(streaming, shard_id: int, columns) -> tuple:
    """The tuple of one shard's immutable block objects.

    Under the compose layer's copy-on-write discipline, a shard whose
    every block is the *same object* as at the previous checkpoint has
    bit-identical content — the same invariant structural-sharing
    snapshot publishes rely on.  The writer holds the previous
    fingerprint's objects (not bare ``id()`` integers, which a later
    allocation could legally reuse) and compares by identity.
    """
    store = streaming.store
    state = streaming._shard_states[shard_id]
    blocks = [store.column_segment(shard_id, name) for name in columns]
    blocks.extend(state.scores)
    if state.clusters is not None:
        blocks.append(state.clusters)
    return tuple(blocks)


def same_fingerprint(current: tuple | None, remembered: tuple | None) -> bool:
    """Identity-compare two block fingerprints (see ``_shard_fingerprint``).

    Shared by the checkpoint writer (skip rewriting an untouched
    shard's files) and the shared-memory arena
    (:mod:`repro.core.shm` — skip re-exporting an untouched block):
    both planes rely on the same copy-on-write invariant, *same object
    implies same bytes*, and both must hold the remembered objects
    alive so ``id()`` reuse cannot alias a dead block.
    """
    return (
        current is not None
        and remembered is not None
        and len(current) == len(remembered)
        and all(a is b for a, b in zip(current, remembered))
    )


class CheckpointWriter:
    """Incremental, crash-consistent checkpoints of a streaming runtime.

    Args:
        directory: checkpoint directory (created if missing).  One
            directory serves one runtime; sharing it across runtimes
            interleaves their generations.
        keep: how many committed generations to retain (older manifests
            and unreferenced block files are garbage-collected after
            each successful commit).
        faults: optional :class:`~repro.core.faults.FaultInjector`;
            the writer reports the stages ``serialize``,
            ``write_block``, ``write_manifest`` and ``gc`` to it, so
            tests can crash or corrupt any step.
        triggers: optional drift-trigger stack (any object with a
            JSON-serializable ``state_dict()``, e.g. a
            :class:`~repro.core.triggers.TriggerStack`); its state is
            embedded in every manifest so warm restarts resume the
            detection windows instead of re-warming (DESIGN.md §11).

    :meth:`checkpoint` must see a quiescent runtime — the async serving
    loop runs it as a maintenance job under the maintenance mutex; a
    synchronous driver simply calls it between steps.  Trigger state is
    snapshotted through the stack's own lock, so serving threads may
    keep observing while a checkpoint job captures it.
    """

    def __init__(self, directory, keep: int = 3, faults=None, triggers=None):
        if keep < 1:
            raise ConfigurationError(f"keep must be >= 1, got {keep}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep = int(keep)
        self.triggers = triggers
        self._faults = faults
        self._block_memory: dict = {}
        generations = list_generations(self.directory)
        self._next_generation = (generations[-1] + 1) if generations else 1

    @property
    def latest_generation(self) -> int | None:
        """The newest committed generation number, or ``None``."""
        generations = list_generations(self.directory)
        return generations[-1] if generations else None

    def _hit(self, stage: str) -> None:
        if self._faults is not None:
            self._faults.hit(stage)

    def _write_atomic(self, name: str, data: bytes, stage: str) -> int:
        """Write-temp → fsync → rename; returns the bytes written.

        An armed truncation rule corrupts the committed bytes (and may
        raise after the rename) — the torn-write shape restore must
        survive by falling back a generation.
        """
        crash = None
        if self._faults is not None:
            data, crash = self._faults.mangle(stage, data)
        path = self.directory / name
        temp = path.with_name(path.name + ".tmp")
        with open(temp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
        if crash is not None:
            raise crash(f"injected crash after committing {name}")
        return len(data)

    def checkpoint(self, streaming) -> CheckpointInfo:
        """Persist the runtime as a new generation; returns the outcome.

        Incremental: a shard whose immutable blocks are unchanged since
        this writer's previous generation is skipped outright (its
        manifest entry is carried over), and blocks are additionally
        content-addressed so identical content is never written twice
        even across process restarts.
        """
        started = time.perf_counter()
        payload, shard_entries, global_arrays = _capture(streaming)
        columns = payload["columns"]
        blocks_written = 0
        blocks_reused = 0
        bytes_written = 0
        next_memory = {}
        shards = []
        for s, (entry, arrays) in enumerate(shard_entries):
            fingerprint = _shard_fingerprint(streaming, s, columns)
            remembered = self._block_memory.get(s)
            if (
                remembered is not None
                and same_fingerprint(fingerprint, remembered[0])
                and (self.directory / remembered[1]["file"]).exists()
            ):
                entry.update(remembered[1])
                blocks_reused += 1
            else:
                self._hit("serialize")
                data = _serialize_arrays(arrays)
                crc = zlib.crc32(data)
                name = f"shard-{s:03d}-e{entry['epoch']:010d}-{crc:08x}.npz"
                if (self.directory / name).exists():
                    blocks_reused += 1
                else:
                    bytes_written += self._write_atomic(name, data, "write_block")
                    blocks_written += 1
                entry.update({"file": name, "crc": crc})
            next_memory[s] = (
                fingerprint,
                {"file": entry["file"], "crc": entry["crc"]},
            )
            shards.append(entry)
        payload["shards"] = shards
        if global_arrays:
            self._hit("serialize")
            data = _serialize_arrays(global_arrays)
            crc = zlib.crc32(data)
            name = f"global-{crc:08x}.npz"
            if (self.directory / name).exists():
                blocks_reused += 1
            else:
                bytes_written += self._write_atomic(name, data, "write_block")
                blocks_written += 1
            payload["global"] = {"file": name, "crc": crc}
        else:
            payload["global"] = None
        payload["triggers"] = (
            self.triggers.state_dict() if self.triggers is not None else None
        )
        generation = self._next_generation
        payload["generation"] = generation
        payload["payload_crc"] = zlib.crc32(_canonical_payload(payload))
        manifest_name = f"{_MANIFEST_PREFIX}{generation:010d}.json"
        bytes_written += self._write_atomic(
            manifest_name, json.dumps(payload, sort_keys=True).encode(),
            "write_manifest",
        )
        # The generation is committed; bookkeeping below may still crash
        # (an injected gc fault) without invalidating it.
        self._next_generation = generation + 1
        self._block_memory = next_memory
        self._collect_garbage()
        return CheckpointInfo(
            generation=generation,
            manifest=str(self.directory / manifest_name),
            blocks_written=blocks_written,
            blocks_reused=blocks_reused,
            bytes_written=bytes_written,
            seconds=time.perf_counter() - started,
        )

    def _collect_garbage(self) -> None:
        """Drop manifests beyond ``keep`` and blocks nothing references."""
        self._hit("gc")
        manifests = sorted(
            (
                (g, path)
                for path in self.directory.iterdir()
                if (g := _manifest_generation(path)) is not None
            ),
        )
        keep, drop = manifests[-self.keep :], manifests[: -self.keep]
        referenced = set()
        all_readable = bool(keep)
        for _, path in keep:
            try:
                payload = _read_manifest(path)
            except _CorruptGeneration:
                # An unreadable survivor might name blocks we cannot
                # enumerate — leave every block alone this round.
                all_readable = False
                continue
            for entry in payload.get("shards", ()):
                referenced.add(entry.get("file"))
            if payload.get("global"):
                referenced.add(payload["global"].get("file"))
        for _, path in drop:
            path.unlink(missing_ok=True)
        for path in self.directory.iterdir():
            name = path.name
            if name.endswith(".tmp"):
                path.unlink(missing_ok=True)
            elif (
                name.endswith(".npz") and all_readable and name not in referenced
            ):
                path.unlink(missing_ok=True)


def _validate(streaming, payload: dict) -> None:
    """Reject restoring into a runtime with a different configuration.

    Raises :class:`CheckpointError` (not a fallback): a configuration
    mismatch affects every generation in the directory equally.
    """
    kind = "classifier" if _is_classifier(streaming) else "regressor"
    store = streaming.store
    problems = []
    if payload["kind"] != kind:
        problems.append(f"checkpoint is a {payload['kind']}, runtime is a {kind}")
    if payload["n_shards"] != streaming.n_shards:
        problems.append(
            f"checkpoint has {payload['n_shards']} shards, "
            f"runtime has {streaming.n_shards}"
        )
    experts = streaming._compose_experts()
    if payload["n_experts"] != len(experts):
        problems.append(
            f"checkpoint carries {payload['n_experts']} expert score sets, "
            f"runtime has {len(experts)}"
        )
    capacities = [int(c) for c in store.shard_capacities]
    policies = [policy.name for policy in store.policies]
    router = store.router.name
    if payload["capacities"] != capacities:
        problems.append(
            f"capacities differ: checkpoint {payload['capacities']}, "
            f"runtime {capacities}"
        )
    if payload["policies"] != policies:
        problems.append(
            f"eviction policies differ: checkpoint {payload['policies']}, "
            f"runtime {policies}"
        )
    if payload["router"] != router:
        problems.append(
            f"router differs: checkpoint {payload['router']!r}, "
            f"runtime {router!r}"
        )
    fixed = streaming.prom.weighting.tau
    if payload["tau"]["fixed"] != fixed:
        problems.append(
            f"fixed tau differs: checkpoint {payload['tau']['fixed']}, "
            f"runtime {fixed}"
        )
    if problems:
        raise CheckpointError(
            "checkpoint does not match the target runtime: "
            + "; ".join(problems)
        )


def _restore_rng(shard, state: dict) -> None:
    rng = np.random.default_rng(shard.seed)
    rng.bit_generator.state = state
    shard._rng = rng


def _restore_clusterer(prom, payload: dict, global_arrays: dict) -> None:
    clusterer = CalibrationClusterer(n_clusters=prom.n_clusters, seed=prom.seed)
    clusterer.k_ = int(payload["clusterer_k"])
    clusterer.labels_ = global_arrays["clusterer_labels"]
    clusterer.centers_ = global_arrays["clusterer_centers"]
    clusterer._features = global_arrays["clusterer_features"]
    prom.clusterer_ = clusterer


def _restore_router(store, global_arrays: dict) -> None:
    if store.router.name != "cluster":
        return
    centers = global_arrays.get("router_centers")
    if centers is None:
        return
    store.router.load_centers(centers)


def _install(streaming, payload: dict, shard_blobs, global_arrays) -> None:
    """Install a validated, fully-read generation onto the runtime."""
    prom = streaming.prom
    store = streaming.store
    classifier = payload["kind"] == "classifier"
    columns = payload["columns"]
    n_experts = payload["n_experts"]
    n_labels = payload["n_labels"]
    if classifier:
        prom._n_classes = n_labels
    else:
        _restore_clusterer(prom, payload, global_arrays)
    prom.weighting._resolved_tau = payload["tau"]["resolved"]

    _restore_router(store, global_arrays)
    store._invalidate_columns()
    states = []
    for s, (entry, arrays) in enumerate(zip(payload["shards"], shard_blobs)):
        shard = store.shards[s]
        shard_columns = {name: arrays[f"col:{name}"] for name in columns}
        shard._set_from_arrays(shard_columns, arrays["arrival"], arrays["priority"])
        shard._seen = int(entry["n_seen"])
        _restore_rng(shard, entry["rng"])
        store._shard_epochs[s] = int(entry["epoch"])
        states.append(
            _ShardState(
                scores=[arrays[f"score:{e}"] for e in range(n_experts)],
                clusters=None if classifier else arrays["clusters"],
            )
        )
    store._epoch = int(payload["store_epoch"])
    streaming._shard_states = states
    streaming._build_bundle()
    streaming._epoch = int(payload["epoch"])


def restore_checkpoint(streaming, directory, triggers=None) -> RestoreReport:
    """Rebuild a streaming runtime from the newest valid generation.

    Walks ``directory``'s manifests newest-first and installs the first
    generation that reads back clean (manifest parses, payload CRC
    matches, every block present with its recorded CRC); corrupt newer
    generations are skipped and reported via
    :attr:`RestoreReport.fallbacks`.  The runtime's configuration
    (shard count, capacities, policies, router, expert count, fixed
    tau) must match the checkpoint's; the restored detector state —
    store contents, RNG states, scores, groupings, resolved tau — is
    bit-identical to the checkpointed runtime, with zero recalibration
    work.

    Args:
        streaming: a :class:`~repro.core.streaming.StreamingPromClassifier`
            or :class:`~repro.core.streaming.StreamingPromRegressor`
            constructed with the same configuration as the runtime that
            wrote the checkpoints (it may be freshly constructed and
            never calibrated).
        directory: the checkpoint directory a
            :class:`CheckpointWriter` committed generations into.
        triggers: optional drift-trigger stack to restore alongside the
            calibration state (the counterpart of the writer's
            ``triggers``).  When the installed manifest carries a
            compatible trigger snapshot it is loaded
            (``RestoreReport.trigger_restored``); a pre-trigger-era or
            incompatible snapshot deterministically re-warms the stack
            (``reset(lifetime=True)``) instead — either way the stack
            never resumes with stale pre-restore observations.

    Raises:
        CheckpointError: no generation could be restored, or the
            runtime configuration does not match the checkpoint.
    """
    started = time.perf_counter()
    directory = Path(directory)
    generations = list_generations(directory)
    if not generations:
        raise CheckpointError(f"no checkpoint generations in {directory}")
    fallbacks = []
    for generation in reversed(generations):
        path = directory / f"{_MANIFEST_PREFIX}{generation:010d}.json"
        try:
            payload = _read_manifest(path)
            shard_blobs = [
                _load_block(directory / entry["file"], entry["crc"])
                for entry in payload["shards"]
            ]
            global_arrays = (
                _load_block(
                    directory / payload["global"]["file"],
                    payload["global"]["crc"],
                )
                if payload.get("global")
                else {}
            )
        except _CorruptGeneration as err:
            fallbacks.append(f"generation {generation}: {err}")
            continue
        _validate(streaming, payload)
        _install(streaming, payload, shard_blobs, global_arrays)
        trigger_restored = False
        if triggers is not None:
            trigger_state = payload.get("triggers")
            if trigger_state is not None:
                try:
                    triggers.load_state_dict(trigger_state)
                    trigger_restored = True
                except ValidationError as err:
                    # recorded under a different trigger configuration:
                    # re-warm deterministically rather than fail the
                    # whole (otherwise valid) calibration restore
                    fallbacks.append(f"trigger state: {err}")
                    triggers.reset(lifetime=True)
            else:
                # pre-trigger-era manifest (or a writer without a
                # trigger target): deterministic re-warm
                triggers.reset(lifetime=True)
        return RestoreReport(
            generation=generation,
            epoch=int(payload["epoch"]),
            seconds=time.perf_counter() - started,
            fallbacks=tuple(fallbacks),
            trigger_restored=trigger_restored,
        )
    raise CheckpointError(
        f"no valid checkpoint generation in {directory}: "
        + "; ".join(fallbacks)
    )
