"""Shared-memory publication of fused weight packs.

The fused scorer's stacked ``(M, ...)`` tensors (:mod:`repro.core.fused`)
are flat, contiguous and read-only at serve time — exactly the shape
``multiprocessing.shared_memory`` wants.  A build worker publishes a
replacement ensemble's pack **once** into one segment; every subscribing
server process maps it zero-copy (the attached scorer's weight arrays are
read-only views straight into the segment) and swaps at its next batch
boundary.

Protocol
--------
* :func:`publish_pack` exports the scorer (`export_pack`), copies the
  arrays into one 64-byte-aligned segment and returns a JSON-pure
  **manifest**: segment name, generation tag, array table (key / shape /
  dtype / offset), a SHA-256 fingerprint of the payload, the
  :class:`~repro.core.config.CAEConfig` and the training scaler.  The
  manifest — not the pack — is what travels over queues.
* :func:`attach_pack` maps the segment named by a manifest, re-hashes it
  against the fingerprint (a torn publish from a crashed worker raises
  :class:`TornPackError` instead of serving garbage) and rebuilds a
  :class:`~repro.core.fused.FusedEnsembleScorer` over read-only views.
* Segment names embed the publisher's namespace and PID
  (``repro-<ns>-<pid>-<token>``): :func:`sweep_orphans` unlinks any
  segment whose owner process is dead, and both publish and attach run
  the sweep first, so segments leaked by a SIGKILLed publisher are
  reclaimed on the next refresh instead of accumulating.

Ownership is explicit: every segment is unregistered from the
``resource_tracker`` as soon as it is created or attached (CPython 3.11
registers attachments too, which would otherwise double-unlink across
processes), and reclaimed by :func:`unlink_pack`, the publisher's
``shutdown`` or the orphan sweep.
"""

from __future__ import annotations

import dataclasses
import os
import secrets
import threading
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import faults
from ..core.config import CAEConfig
from ..core.fused import FusedEnsembleScorer, fingerprint_arrays

_ALIGN = 64
_PREFIX = "repro"
_SHM_DIR = "/dev/shm"

_namespace = "default"
_namespace_lock = threading.Lock()


class TornPackError(RuntimeError):
    """A mapped pack failed fingerprint verification (partial publish)."""


class OrphanedSegmentError(RuntimeError):
    """A manifest points at a segment that no longer exists."""


def segment_namespace() -> str:
    """The process-wide namespace new segments are published under."""
    return _namespace


def set_segment_namespace(namespace: str) -> str:
    """Set the publish namespace; returns the previous one.

    Namespaces isolate fleets (and tests) from each other: sweeps and
    listings only ever touch segments of the given namespace.  Keep it
    short and filesystem-safe — it becomes part of the segment name.
    """
    global _namespace
    if not namespace or "-" in namespace or "/" in namespace:
        raise ValueError(f"namespace must be non-empty and contain no "
                         f"'-' or '/', got {namespace!r}")
    with _namespace_lock:
        previous, _namespace = _namespace, namespace
    return previous


def _segment_name(namespace: str) -> str:
    return f"{_PREFIX}-{namespace}-{os.getpid()}-{secrets.token_hex(4)}"


def _owner_pid(segment: str) -> Optional[int]:
    parts = segment.split("-")
    if len(parts) != 4 or parts[0] != _PREFIX:
        return None
    try:
        return int(parts[2])
    except ValueError:
        return None


def pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _unregister(name: str) -> None:
    """Drop a segment from this process's resource tracker: lifetime is
    managed explicitly here, never by interpreter-exit cleanup."""
    try:
        resource_tracker.unregister("/" + name, "shared_memory")
    except Exception:
        pass


def list_segments(namespace: Optional[str] = None) -> List[str]:
    """Names of live segments in ``namespace`` (default: current)."""
    namespace = segment_namespace() if namespace is None else namespace
    prefix = f"{_PREFIX}-{namespace}-"
    if not os.path.isdir(_SHM_DIR):
        return []
    return sorted(entry for entry in os.listdir(_SHM_DIR)
                  if entry.startswith(prefix))


def sweep_orphans(namespace: Optional[str] = None) -> List[str]:
    """Unlink segments whose owner process is dead; returns their names.

    Run automatically by :func:`publish_pack` and :func:`attach_pack`,
    so a publisher crashing between segment creation and manifest
    delivery leaks its segment only until the next refresh touches the
    namespace.
    """
    removed = []
    for segment in list_segments(namespace):
        pid = _owner_pid(segment)
        if pid is None or pid_alive(pid):
            continue
        try:
            os.unlink(os.path.join(_SHM_DIR, segment))
            removed.append(segment)
        except FileNotFoundError:
            pass
    return removed


def unlink_pack(manifest: dict) -> bool:
    """Free a published segment; True if this call removed it."""
    try:
        segment = shared_memory.SharedMemory(name=manifest["segment"])
    except FileNotFoundError:
        return False
    # The attach registered the name; unlink() unregisters it again, so
    # the tracker books stay balanced without an explicit _unregister.
    segment.unlink()
    segment.close()
    return True


# ----------------------------------------------------------------------
# Publish
# ----------------------------------------------------------------------
def publish_pack(ensemble, generation: int = 0,
                 namespace: Optional[str] = None,
                 dtype=None) -> dict:
    """Publish ``ensemble``'s fused weight pack into shared memory.

    Returns the manifest (JSON-pure).  The caller owns the segment and
    must eventually :func:`unlink_pack` it; until then any process may
    :func:`attach_pack` the manifest.
    """
    if faults.enabled:
        faults.point("shm.publish")
    sweep_orphans(namespace)
    scorer = ensemble.fused_scorer(dtype=dtype) \
        if hasattr(ensemble, "fused_scorer") else ensemble
    meta, arrays = scorer.export_pack()
    fingerprint = fingerprint_arrays(arrays)

    table = []
    offset = 0
    for key, array in arrays.items():
        array = np.ascontiguousarray(array)
        offset = (offset + _ALIGN - 1) // _ALIGN * _ALIGN
        table.append({"key": key, "shape": list(array.shape),
                      "dtype": array.dtype.str, "offset": offset})
        offset += array.nbytes
    total = max(offset, 1)

    name = _segment_name(segment_namespace() if namespace is None
                         else namespace)
    segment = shared_memory.SharedMemory(name=name, create=True, size=total)
    _unregister(name)
    try:
        for entry, array in zip(table, arrays.values()):
            array = np.ascontiguousarray(array)
            view = np.ndarray(array.shape, dtype=array.dtype,
                              buffer=segment.buf, offset=entry["offset"])
            view[...] = array
        if faults.enabled and faults.point("shm.publish.torn") == "torn":
            # Simulate a torn publish: corrupt one payload byte so the
            # manifest fingerprint no longer matches the segment.
            segment.buf[table[0]["offset"]] ^= 0xFF
        scaler = getattr(ensemble, "scaler", None)
        manifest = {
            "segment": name,
            "generation": int(generation),
            "owner_pid": os.getpid(),
            "fingerprint": fingerprint,
            "total_bytes": total,
            "pack_meta": meta,
            "arrays": table,
            "cae_config": dataclasses.asdict(scorer.config),
            "scaler": None if scaler is None else {
                "mean": np.asarray(scaler.mean_, dtype=np.float64).tolist(),
                "std": np.asarray(scaler.std_, dtype=np.float64).tolist(),
            },
            "n_models": scorer.n_models,
        }
    finally:
        segment.close()
    return manifest


# ----------------------------------------------------------------------
# Attach
# ----------------------------------------------------------------------
def _map_arrays(manifest: dict,
                segment: shared_memory.SharedMemory
                ) -> Dict[str, np.ndarray]:
    arrays: Dict[str, np.ndarray] = {}
    for entry in manifest["arrays"]:
        view = np.ndarray(tuple(entry["shape"]),
                          dtype=np.dtype(entry["dtype"]),
                          buffer=segment.buf, offset=entry["offset"])
        view.flags.writeable = False
        arrays[entry["key"]] = view
    return arrays


class _ManifestScaler:
    """The published scaler statistics, broadcast-shaped like the
    fitted ``StandardScaler`` the ensemble trained with."""

    __slots__ = ("mean_", "std_")

    def __init__(self, mean, std):
        self.mean_ = np.asarray(mean, dtype=np.float64)
        self.std_ = np.asarray(std, dtype=np.float64)


class AttachedPack:
    """A mapped pack: the segment plus a scorer serving out of it.

    ``scorer`` reads its weights directly from the segment (zero-copy);
    keep the handle alive as long as the scorer serves, then
    :meth:`close`.  Closing never unlinks — the publisher owns the
    segment's lifetime.
    """

    def __init__(self, manifest: dict,
                 segment: shared_memory.SharedMemory,
                 scorer: FusedEnsembleScorer):
        self.manifest = manifest
        self.generation = manifest["generation"]
        self.scaler = None if manifest["scaler"] is None else \
            _ManifestScaler(manifest["scaler"]["mean"],
                            manifest["scaler"]["std"])
        self._segment = segment
        self.scorer = scorer
        scorer._attached_pack = self   # tie segment lifetime to the scorer

    def close(self) -> None:
        if self._segment is not None:
            self._segment.close()
            self._segment = None


def attach_pack(manifest: dict, registry=None,
                verify: bool = True) -> AttachedPack:
    """Map a published pack and rebuild its scorer zero-copy.

    Raises :class:`OrphanedSegmentError` when the segment is gone and
    :class:`TornPackError` when the mapped bytes do not hash to the
    manifest fingerprint (a partial publish).
    """
    if faults.enabled:
        faults.point("shm.attach")
    sweep_orphans()
    try:
        segment = shared_memory.SharedMemory(name=manifest["segment"])
    except FileNotFoundError:
        raise OrphanedSegmentError(
            f"pack segment {manifest['segment']!r} (generation "
            f"{manifest['generation']}) no longer exists — its publisher "
            f"died or it was already unlinked") from None
    _unregister(segment.name)
    try:
        arrays = _map_arrays(manifest, segment)
        if verify and fingerprint_arrays(arrays) != manifest["fingerprint"]:
            raise TornPackError(
                f"pack segment {manifest['segment']!r} failed fingerprint "
                f"verification — torn publish")
        config = CAEConfig(**manifest["cae_config"])
        scorer = FusedEnsembleScorer.from_export(
            config, manifest["pack_meta"], arrays, registry=registry)
    except Exception:
        segment.close()
        raise
    return AttachedPack(manifest, segment, scorer)


def attach_pack_to_ensemble(ensemble, manifest: dict,
                            registry=None) -> AttachedPack:
    """Install a published pack as ``ensemble``'s cached fused scorer.

    The attached scorer adopts the ensemble's model instances as its
    ``packed_models`` identity, so
    :meth:`~repro.core.ensemble.CAEEnsemble.fused_scorer` keeps serving
    the shared segment instead of re-packing — the server process never
    materialises its own copy of the weights.
    """
    attached = attach_pack(manifest, registry=registry)
    attached.scorer.packed_models = tuple(ensemble.models)
    ensemble._fused_scorer = attached.scorer
    return attached


class PackServedEnsemble:
    """An ensemble facade serving purely from an attached pack.

    Scores exactly like the :class:`~repro.core.CAEEnsemble` the pack
    was exported from (same scaler broadcast, same fused kernels) but
    holds no model instances at all — the minimal surface a server
    process needs when the full float64 weights live elsewhere.
    """

    def __init__(self, attached: AttachedPack):
        self.attached = attached
        self.cae_config = attached.scorer.config
        self.scaler = attached.scaler
        self.generation = attached.generation
        self.models: Tuple = ("pack",) * attached.scorer.n_models

    @property
    def n_models(self) -> int:
        return self.attached.scorer.n_models

    def score_windows_last(self, windows: np.ndarray,
                           fused: Optional[bool] = None) -> np.ndarray:
        windows = np.asarray(windows, dtype=np.float64)
        if self.scaler is not None:
            windows = windows - self.scaler.mean_
            windows /= self.scaler.std_
        return self.attached.scorer.score_windows_last(windows)

    def window_scores(self, windows: np.ndarray) -> np.ndarray:
        windows = np.asarray(windows, dtype=np.float64)
        if self.scaler is not None:
            windows = windows - self.scaler.mean_
            windows /= self.scaler.std_
        return self.attached.scorer.window_scores(windows)

    def prepare_fused(self, dtype=None) -> FusedEnsembleScorer:
        return self.attached.scorer

    def invalidate_fused(self) -> None:
        pass

    def close(self) -> None:
        self.attached.close()
