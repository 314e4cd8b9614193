"""Saving and loading trained CAE-Ensembles.

A production deployment trains offline (Table 7) and serves online
(Table 8) — usually in different processes.  This module persists a
fitted :class:`CAEEnsemble` to a directory:

* ``manifest.json`` — both config dataclasses plus scaler statistics;
* ``model_<i>.npz`` — each basic model's state dict.

A live :class:`repro.streaming.StreamingDetector` can likewise be
checkpointed (:func:`save_streaming_detector`): the ensemble directory
plus a ``streaming.json`` holding the runtime state (window/history
buffers, calibrator, drift detector, counters), so an online detector
survives process restarts mid-stream.

A whole :class:`repro.streaming.StreamFleet` checkpoints with
:func:`save_fleet` / :func:`load_fleet`: each *distinct* ensemble is
stored once — the common case of hundreds of streams sharing one fitted
ensemble costs one copy of the weights, while streams whose drift-
triggered refresh gave them a private replacement get their own
directory — plus per-stream detector state in ``fleet.json``.  On load,
streams that shared an ensemble share the reloaded instance again.  A
detector saved with an async refresh build in flight resolves
deterministically: the half-trained build is discarded, the refresh
*request* is persisted as pending, and the resumed detector rebuilds the
replacement from its restored corpus as soon as the refresher's gates
allow.  Fleets running refresh admission control
(:class:`repro.streaming.RefreshCoordinator`) persist the coordinator's
configuration and cumulative counters (fleet format v2); queued and
deduplicated builds in flight resolve like any other in-flight build —
per-stream pending requests, re-submitted (and re-deduplicated) after
resume.

**Crash safety.**  Every save (:func:`save_ensemble`,
:func:`save_streaming_detector`, :func:`save_fleet`) is written to a
temporary sibling directory, fsynced, and atomically renamed over the
previous checkpoint, with a ``checkpoint.json`` manifest written last
listing every file the checkpoint must contain.  A crash mid-save
therefore never corrupts the previous checkpoint: either the old
directory is still in place, or it survives under a ``.stale`` suffix
that the loaders transparently recover.  The checkpoint directory is
**owned** by the checkpoint: each save replaces it wholesale, so files
placed next to the state files do not survive (a populated directory
that is not a checkpoint is refused outright).  See
``docs/checkpoints.md`` for the full format specification.

Round-trips are exact: a reloaded ensemble produces bit-identical scores,
and a reloaded detector continues with an identical threshold.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
from typing import Callable

import numpy as np

from ..datasets.preprocess import StandardScaler
from ..nn.serialization import load_state_dict, save_state_dict
from .cae import CAE
from .config import CAEConfig, EnsembleConfig
from .ensemble import CAEEnsemble

MANIFEST_NAME = "manifest.json"
FORMAT_VERSION = 1

STREAMING_STATE_NAME = "streaming.json"
STREAMING_ENSEMBLE_DIR = "ensemble"
# v2: reservoir corpus states ('entries'/'partial' instead of 'rows') and
# the async-refresh engine keys.  v1 states remain loadable (the new keys
# all default); v1 readers reject v2 files cleanly at the version check.
STREAMING_FORMAT_VERSION = 2
STREAMING_COMPAT_VERSIONS = (1, 2)

FLEET_STATE_NAME = "fleet.json"
# v2: optional top-level 'coordinator' entry (admission-control config +
# counters).  v1 fleets remain loadable (no coordinator); v1 readers
# reject v2 files cleanly at the version check.
FLEET_FORMAT_VERSION = 2
FLEET_COMPAT_VERSIONS = (1, 2)

# The crash-safety manifest written last into every checkpoint directory.
CHECKPOINT_MANIFEST_NAME = "checkpoint.json"
CHECKPOINT_FORMAT_VERSION = 1
_SAVING_SUFFIX = ".saving"
_STALE_SUFFIX = ".stale"

# The sharded-fleet parent manifest (written by ShardedFleet.checkpoint;
# the format version lives with the writer in repro.runtime.fleet).
SHARDED_MANIFEST_NAME = "sharded.json"


class CheckpointError(RuntimeError):
    """A checkpoint directory is missing, incomplete, or damaged.

    Raised by the sharded-fleet loaders *before* any server process is
    forked, naming exactly which shard (or which manifest) is at fault —
    a half-present checkpoint must fail the restore up front, not crash
    N server processes with N different confusing errors.
    """


# ----------------------------------------------------------------------
# Atomic checkpoint directories
# ----------------------------------------------------------------------
def _write_checkpoint_manifest(directory: str, kind: str) -> None:
    """Record what a complete checkpoint of ``kind`` contains.

    Written *last*: a checkpoint directory without (or with an
    incomplete) manifest is a torn write.  The file list is relative and
    sorted, so completeness can be verified on load.
    """
    files = []
    for root, _, names in os.walk(directory):
        for name in names:
            files.append(os.path.relpath(os.path.join(root, name),
                                         directory))
    manifest = {
        "checkpoint_format": CHECKPOINT_FORMAT_VERSION,
        "kind": kind,
        "files": sorted(files),
    }
    with open(os.path.join(directory, CHECKPOINT_MANIFEST_NAME),
              "w") as handle:
        json.dump(manifest, handle, indent=2)


_CHECKPOINT_MARKERS = (CHECKPOINT_MANIFEST_NAME, MANIFEST_NAME,
                       STREAMING_STATE_NAME, FLEET_STATE_NAME)


def _fsync_dir(path: str) -> None:
    """Flush a directory entry to stable storage, best-effort
    (filesystems that reject directory fsync are tolerated — the same
    guarantee most checkpointing systems settle for there)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _fsync_tree(directory: str) -> None:
    """Flush every file (and directory entry) under ``directory`` to
    stable storage — the new checkpoint must be durable *before* the
    previous one is deleted, or a power loss after the rename could
    leave truncated files as the only copy."""
    for root, _, names in os.walk(directory):
        for name in names:
            with open(os.path.join(root, name), "rb") as handle:
                os.fsync(handle.fileno())
        _fsync_dir(root)


def _atomic_save(directory: str, kind: str,
                 write: Callable[[str], None]) -> None:
    """Run ``write(tmp_dir)`` then atomically publish it at ``directory``.

    The writer populates a temporary sibling directory, which is
    fsynced; the previous checkpoint — if any — is moved aside, the new
    one renamed into place, and only then is the old one deleted.  Any
    crash leaves either the old checkpoint at ``directory`` or (in the
    narrow window between the two renames) intact under
    ``directory + '.stale'``, which :func:`_recover_checkpoint` restores
    on the next load.

    Because the whole directory is replaced, ``directory`` is owned by
    the checkpoint: files a user drops next to the state files do not
    survive the next save.  An existing ``directory`` must itself be a
    checkpoint (any known state file marks it, so pre-manifest
    checkpoints qualify) — refusing to replace anything else protects
    unrelated data from a mistyped path.
    """
    directory = os.path.normpath(directory)
    if os.path.isdir(directory) and os.listdir(directory) and \
            not any(os.path.exists(os.path.join(directory, marker))
                    for marker in _CHECKPOINT_MARKERS):
        raise ValueError(
            f"refusing to replace {directory!r}: it exists, is not "
            f"empty, and does not look like a checkpoint (no "
            f"{'/'.join(_CHECKPOINT_MARKERS)}) — saves atomically "
            f"replace the whole directory, so point them at a "
            f"dedicated checkpoint path")
    parent = os.path.dirname(os.path.abspath(directory))
    os.makedirs(parent, exist_ok=True)
    tmp = directory + _SAVING_SUFFIX
    stale = directory + _STALE_SUFFIX
    for leftover in (tmp,):
        if os.path.isdir(leftover):       # a previous save crashed mid-write
            shutil.rmtree(leftover)
    if os.path.isdir(stale) and os.path.isdir(directory):
        shutil.rmtree(stale)              # crashed after publishing: done
    os.makedirs(tmp)
    try:
        write(tmp)
        _write_checkpoint_manifest(tmp, kind)
        _fsync_tree(tmp)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    if os.path.isdir(directory):
        os.rename(directory, stale)
    os.rename(tmp, directory)
    _fsync_dir(parent)     # make the renames durable before deleting
    if os.path.isdir(stale):
        shutil.rmtree(stale)


def _recover_checkpoint(directory: str) -> None:
    """Roll back to the last good checkpoint after a mid-save crash.

    If a save crashed between moving the old checkpoint aside and
    publishing the new one, ``directory`` is missing but the previous
    good state survives at ``directory + '.stale'`` — restore it.
    Leftover ``.saving`` temp directories are ignored (torn writes).
    """
    directory = os.path.normpath(directory)
    stale = directory + _STALE_SUFFIX
    if not os.path.isdir(directory) and os.path.isdir(stale):
        os.rename(stale, directory)


def verify_checkpoint(directory: str) -> bool:
    """Whether ``directory`` is a complete checkpoint.

    True when its ``checkpoint.json`` manifest exists and every listed
    file is present.  Directories predating the manifest (or written by
    hand) return True as long as they exist — completeness is then only
    checked by the loaders' own format validation.  Mirrors the loaders:
    a checkpoint recoverable from a mid-rename crash (intact under
    ``.stale``) is recovered first, then verified.
    """
    directory = os.path.normpath(directory)
    _recover_checkpoint(directory)
    if not os.path.isdir(directory):
        return False
    if os.path.exists(os.path.join(directory, SHARDED_MANIFEST_NAME)):
        # A sharded-fleet checkpoint: complete when the parent manifest
        # parses and every listed shard_<i>/ verifies in turn.
        try:
            validate_sharded_checkpoint(directory)
        except CheckpointError:
            return False
        return True
    manifest_path = os.path.join(directory, CHECKPOINT_MANIFEST_NAME)
    if not os.path.exists(manifest_path):
        return True                       # pre-manifest checkpoint
    try:
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        files = manifest.get("files", [])
    except (OSError, ValueError, AttributeError):
        return False                      # truncated/corrupt manifest IS
        #                                   the damage this detects
    return all(os.path.exists(os.path.join(directory, name))
               for name in files)


def save_ensemble(ensemble: CAEEnsemble, directory: str) -> None:
    """Persist a fitted ensemble to ``directory``.

    Crash-safe: the checkpoint is assembled in a temporary sibling
    directory and atomically renamed into place, so an interrupted save
    never corrupts an existing checkpoint at ``directory``.
    """
    _atomic_save(directory, "ensemble",
                 lambda tmp: _write_ensemble(ensemble, tmp))


def _write_ensemble(ensemble: CAEEnsemble, directory: str) -> None:
    """Write the ensemble files into an existing ``directory``."""
    if not ensemble.models:
        raise ValueError("cannot save an unfitted ensemble")
    os.makedirs(directory, exist_ok=True)
    manifest = {
        "format_version": FORMAT_VERSION,
        "n_models": len(ensemble.models),
        "cae_config": dataclasses.asdict(ensemble.cae_config),
        "ensemble_config": dataclasses.asdict(ensemble.config),
        "train_seconds": ensemble.train_seconds_,
        "scaler": None,
    }
    if ensemble.scaler is not None:
        manifest["scaler"] = {
            "mean": ensemble.scaler.mean_.tolist(),
            "std": ensemble.scaler.std_.tolist(),
        }
    with open(os.path.join(directory, MANIFEST_NAME), "w") as handle:
        json.dump(manifest, handle, indent=2)
    for index, model in enumerate(ensemble.models):
        save_state_dict(os.path.join(directory, f"model_{index}.npz"),
                        model)


def load_ensemble(directory: str) -> CAEEnsemble:
    """Reconstruct a fitted ensemble saved by :func:`save_ensemble`.

    Transparently recovers the previous checkpoint if the last save
    crashed between its atomic renames.
    """
    _recover_checkpoint(directory)
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    if not os.path.exists(manifest_path):
        raise FileNotFoundError(f"no ensemble manifest at {manifest_path}")
    with open(manifest_path) as handle:
        manifest = json.load(handle)
    if manifest.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported ensemble format "
                         f"{manifest.get('format_version')!r}")

    cae_config = CAEConfig(**manifest["cae_config"])
    config_fields = dict(manifest["ensemble_config"])
    # Retired switch: v1/v2 manifests store it (as false); every fit now
    # trains fused, so the key carries nothing.
    config_fields.pop("fused_training", None)
    ensemble_config = EnsembleConfig(**config_fields)
    ensemble = CAEEnsemble(cae_config, ensemble_config)
    ensemble.train_seconds_ = float(manifest.get("train_seconds", 0.0))

    scaler_state = manifest.get("scaler")
    if scaler_state is not None:
        scaler = StandardScaler()
        scaler.mean_ = np.asarray(scaler_state["mean"], dtype=np.float64)
        scaler.std_ = np.asarray(scaler_state["std"], dtype=np.float64)
        ensemble.scaler = scaler

    # Seeded construction then exact state overwrite: architecture comes
    # from the config, weights from the checkpoints.
    seed_rng = np.random.default_rng(ensemble_config.seed)
    for index in range(int(manifest["n_models"])):
        model = CAE(cae_config,
                    np.random.default_rng(seed_rng.integers(2 ** 32)))
        state = load_state_dict(os.path.join(directory,
                                             f"model_{index}.npz"))
        model.load_state_dict(state)
        ensemble.models.append(model)
    return ensemble


def save_streaming_detector(detector, directory: str) -> None:
    """Checkpoint a live streaming detector (ensemble + runtime state).

    ``detector`` is a :class:`repro.streaming.StreamingDetector`; imported
    lazily because ``repro.streaming`` builds on ``repro.core``.
    Crash-safe: written to a temporary directory and atomically renamed,
    so a mid-save crash never corrupts the previous checkpoint.
    """
    def write(tmp: str) -> None:
        _write_ensemble(detector.ensemble,
                        os.path.join(tmp, STREAMING_ENSEMBLE_DIR))
        payload = {
            "format_version": STREAMING_FORMAT_VERSION,
            "state": detector.state_dict(),
        }
        with open(os.path.join(tmp, STREAMING_STATE_NAME), "w") as handle:
            json.dump(payload, handle, indent=2)

    _atomic_save(directory, "streaming_detector", write)


def load_streaming_detector(directory: str, refresher=None):
    """Resume a streaming detector saved by :func:`save_streaming_detector`.

    The refresher (a policy object, not stream state) is supplied fresh by
    the caller rather than persisted.  Recovers the previous checkpoint
    first if the last save crashed mid-rename.
    """
    from ..streaming.engine import StreamingDetector
    _recover_checkpoint(directory)
    state_path = os.path.join(directory, STREAMING_STATE_NAME)
    if not os.path.exists(state_path):
        raise FileNotFoundError(f"no streaming state at {state_path}")
    with open(state_path) as handle:
        payload = json.load(handle)
    if payload.get("format_version") not in STREAMING_COMPAT_VERSIONS:
        raise ValueError(f"unsupported streaming format "
                         f"{payload.get('format_version')!r}; this reader "
                         f"handles {STREAMING_COMPAT_VERSIONS}")
    ensemble = load_ensemble(os.path.join(directory,
                                          STREAMING_ENSEMBLE_DIR))
    return StreamingDetector.from_state(ensemble, payload["state"],
                                        refresher=refresher)


def save_fleet(fleet, directory: str) -> None:
    """Checkpoint a live :class:`repro.streaming.StreamFleet`.

    Layout: ``fleet.json`` (per-stream detector state plus an ensemble
    reference per stream, and — fleet format v2 — the refresh
    coordinator's configuration and admission counters) next to
    ``ensemble_<i>/`` directories — one per *distinct* ensemble instance
    across the fleet, so the shared ensemble of a large deployment is
    written exactly once.  Detectors with an async refresh build in
    flight — private, queued, or deduplicated onto a shared coordinator
    build — are saved with the build discarded and the refresh request
    pending per stream (see the module docstring).  Crash-safe: written
    to a temporary directory and atomically renamed.
    """
    ensembles = []                  # distinct instances, identity-deduped
    references = {}
    for name in fleet.names:
        ensemble = fleet.detector(name).ensemble
        for index, seen in enumerate(ensembles):
            if seen is ensemble:
                references[name] = index
                break
        else:
            references[name] = len(ensembles)
            ensembles.append(ensemble)

    def write(tmp: str) -> None:
        for index, ensemble in enumerate(ensembles):
            _write_ensemble(ensemble, os.path.join(tmp,
                                                   f"ensemble_{index}"))
        state = fleet.state_dict()
        payload = {
            "format_version": FLEET_FORMAT_VERSION,
            "n_ensembles": len(ensembles),
            "coordinator": state.get("coordinator"),
            "streams": {name: {"ensemble": references[name],
                               "state": state["streams"][name]}
                        for name in fleet.names},
        }
        with open(os.path.join(tmp, FLEET_STATE_NAME), "w") as handle:
            json.dump(payload, handle, indent=2)

    _atomic_save(directory, "fleet", write)


def load_fleet(directory: str, refresher_factory=None,
               detector_factory=None, coordinator=None):
    """Resume a fleet saved by :func:`save_fleet`.

    ``refresher_factory`` builds one fresh refresher per resumed stream
    (refresh policy is not persisted); each stream's saved cooldown clock
    is restored onto its refresher.  ``detector_factory`` (optional)
    serves stream names first seen after the resume; without it, unknown
    names raise ``KeyError``.  Streams that shared an ensemble at save
    time share one reloaded instance.  ``coordinator`` overrides the
    admission control of the resumed fleet; when None and the checkpoint
    carries a coordinator entry (fleet format v2), one is rebuilt from
    the saved configuration and counters — its queue starts empty, and
    each stream's persisted pending request re-submits (and re-dedups)
    once its gates allow.  Recovers the previous checkpoint first if the
    last save crashed mid-rename.
    """
    from ..streaming.multi import StreamFleet
    _recover_checkpoint(directory)
    state_path = os.path.join(directory, FLEET_STATE_NAME)
    if not os.path.exists(state_path):
        raise FileNotFoundError(f"no fleet state at {state_path}")
    with open(state_path) as handle:
        payload = json.load(handle)
    if payload.get("format_version") not in FLEET_COMPAT_VERSIONS:
        raise ValueError(f"unsupported fleet format "
                         f"{payload.get('format_version')!r}; this reader "
                         f"handles {FLEET_COMPAT_VERSIONS}")
    ensembles = [load_ensemble(os.path.join(directory, f"ensemble_{index}"))
                 for index in range(int(payload["n_ensembles"]))]
    streams = payload["streams"]
    state = {"streams": {name: entry["state"]
                         for name, entry in streams.items()},
             "coordinator": payload.get("coordinator")}
    return StreamFleet.from_state(
        state,
        ensemble_for=lambda name: ensembles[int(streams[name]["ensemble"])],
        refresher_factory=refresher_factory,
        detector_factory=detector_factory,
        coordinator=coordinator)


# ----------------------------------------------------------------------
# Sharded fleets (repro.runtime.fleet)
# ----------------------------------------------------------------------
def validate_sharded_checkpoint(directory: str) -> dict:
    """Validate a sharded-fleet checkpoint's layout; return its manifest.

    Checks — in order, raising :class:`CheckpointError` naming the first
    failure — that the directory exists, that its ``sharded.json``
    manifest is present and parseable, and that **every** shard
    directory the manifest lists exists and passes
    :func:`verify_checkpoint`.  Called by the loaders before any server
    process forks; safe to call directly as a pre-flight check.
    """
    directory = os.path.normpath(directory)
    _recover_checkpoint(directory)
    if not os.path.isdir(directory):
        raise CheckpointError(
            f"no sharded checkpoint at {directory!r}: the directory "
            f"does not exist")
    manifest_path = os.path.join(directory, SHARDED_MANIFEST_NAME)
    if not os.path.exists(manifest_path):
        raise CheckpointError(
            f"{directory!r} is not a sharded-fleet checkpoint: "
            f"{SHARDED_MANIFEST_NAME} is missing (a save that crashed "
            f"before writing the manifest leaves shard directories "
            f"without one — re-checkpoint, or load the intact "
            f"shard_<i>/ fleets individually)")
    try:
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        shards = list(manifest["shards"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(
            f"unreadable sharded manifest at {manifest_path!r}: "
            f"{type(exc).__name__}: {exc}") from exc
    for name in shards:
        shard_dir = os.path.join(directory, str(name))
        if not os.path.isdir(shard_dir):
            raise CheckpointError(
                f"sharded checkpoint {directory!r} is incomplete: shard "
                f"directory {name!r} is missing (the manifest lists "
                f"{len(shards)} shards)")
        if not verify_checkpoint(shard_dir):
            raise CheckpointError(
                f"sharded checkpoint {directory!r} is damaged: shard "
                f"{name!r} fails checkpoint verification (torn or "
                f"partially deleted files under {shard_dir!r})")
        if not os.path.exists(os.path.join(shard_dir, FLEET_STATE_NAME)):
            raise CheckpointError(
                f"sharded checkpoint {directory!r} is damaged: shard "
                f"{name!r} has no {FLEET_STATE_NAME} — not a fleet "
                f"checkpoint")
    return manifest


def save_sharded_fleet(fleet, directory: str) -> str:
    """Checkpoint a live :class:`repro.runtime.fleet.ShardedFleet`.

    Layout: one ``shard_<i>/`` fleet checkpoint per server process —
    written *by* that process through :func:`save_fleet`, so ensemble
    weights never cross the control pipe — plus a ``sharded.json``
    manifest recording the shard count (routing is
    ``crc32(name) % n_shards``, so the count is part of the state).
    Returns the manifest path.
    """
    return fleet.checkpoint(directory)


def load_sharded_fleet(directory: str, refresher_factory=None,
                       detector_factory=None, **kwargs):
    """Resume a sharded fleet saved by :func:`save_sharded_fleet`.

    Forks one server per saved shard; each loads its own ``shard_<i>/``
    checkpoint via :func:`load_fleet`.  The layout is validated first
    (:func:`validate_sharded_checkpoint`): a missing manifest or a
    missing/damaged shard directory raises :class:`CheckpointError`
    naming the shard, *before* any server process is forked.
    ``kwargs`` pass through to
    :class:`~repro.runtime.fleet.ShardedFleet` (``broker``,
    ``n_build_workers``, ``namespace``, ...).  Imported lazily so the
    core package stays loadable where the runtime package's fork
    requirement cannot be met.
    """
    from ..runtime.fleet import ShardedFleet
    return ShardedFleet.restore(directory,
                                refresher_factory=refresher_factory,
                                detector_factory=detector_factory,
                                **kwargs)
