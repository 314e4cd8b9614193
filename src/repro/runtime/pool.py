"""A process-backed build pool: refresh training off the serving process.

:class:`~repro.streaming.coordinator.RefreshCoordinator` runs each
admitted build on a daemon *thread*, which keeps the serving path
non-blocking but still time-slices the GIL between training GEMMs and
micro-batch scoring.  :class:`ProcessBuildPool` moves the training to a
small pool of forked worker processes: the coordinator's build thread
checks out an idle worker, sends it the job over that worker's own
duplex pipe and blocks cheaply on the reply, so the serving process
spends no interpreter time on the build at all.

The pool plugs into the coordinator's ``build_runner`` seam — admission,
dedup, priority, fan-out and cancellation semantics are untouched; only
where the training CPU burns changes.  Completed builds come back two
ways at once:

* the full replacement ensemble (pickled — float64 weights, needed for
  warm-starting the *next* refresh and for checkpointing), and
* a shared-memory pack manifest (:mod:`repro.runtime.shm`) already
  published by the worker, which the pool attaches to the replacement so
  the serving process swaps in a zero-copy scorer instead of re-packing.
  :meth:`ProcessBuildPool.run_build` returns the manifest unattached,
  for the broker (:mod:`repro.runtime.broker`), which fans it out to
  server processes instead.

Failure model: each worker talks to its owner over a private pipe, so a
killed worker can only break its own channel.  A worker that dies
mid-build (OOM kill, SIGKILL — even mid-send of its result) makes its
process sentinel ready or its pipe raise ``EOFError``; the runner then
fails exactly that build with :class:`WorkerCrashed` (subscribers observe
a failed refresh at their next boundary, serving is never poisoned) and
respawns that slot with a fresh pipe.  A cancel is one more message on
the same pipe; the worker reads it between basic-model fits of
:meth:`CAEEnsemble.fit <repro.core.CAEEnsemble.fit>`, and reads EOF —
its owner died — the same way, so an orphaned worker stops before its
next basic model.
"""

from __future__ import annotations

import copy
import multiprocessing as mp
import threading
import time
from multiprocessing.connection import wait
from typing import Dict, List, Optional

from .. import faults
from ..core.ensemble import TrainingCancelled
from ..obs import default_registry
from ..streaming.coordinator import _accepts_cancel
from . import shm

_POLL_SECONDS = 0.05

# Per-process context injected into pool workers at fork: tests use it to
# hand inherited synchronisation primitives (gates, queues) to refresher
# stubs that are themselves pickled through the worker's pipe — mp
# primitives cannot ride inside a job, but fork inheritance carries them
# for free.
_worker_context: Dict[str, object] = {}


def worker_context() -> Dict[str, object]:
    """The ambient context dict (parent: what was passed to the pool;
    worker: the same dict, transferred by fork inheritance)."""
    return _worker_context


class WorkerCrashed(RuntimeError):
    """A pool worker died (crash or kill) while running a build."""


class _PipeCancel:
    """A build's cancel flag, read off the worker's pipe: set by the
    owner's ``("cancel",)`` message, or by EOF when the owner died."""

    def __init__(self, conn):
        self._conn = conn
        self._set = False

    def is_set(self) -> bool:
        if not self._set:
            try:
                if self._conn.poll():
                    self._conn.recv()      # mid-build only a cancel arrives
                    self._set = True
            except (EOFError, OSError):
                self._set = True
        return self._set


def _worker_main(conn, inherited, context, namespace: str) -> None:
    global _worker_context
    _worker_context = context
    shm.set_segment_namespace(namespace)
    # Drop the owner's ends of every pipe (fork copied them), so the
    # owner's death is an EOF here instead of an open pipe kept alive by
    # this worker or a sibling.
    for other in inherited:
        other.close()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        if message[0] != "build":
            continue            # a cancel the last build never read
        _, refresher, ensemble, history, kwargs, publish, pack_dtype = \
            message
        try:
            if faults.enabled:
                faults.point("pool.build")
            call_kwargs = dict(kwargs)
            if _accepts_cancel(refresher.build):
                call_kwargs["cancel"] = _PipeCancel(conn)
            replacement, report = refresher.build(
                ensemble, history, kwargs.get("trigger_index", 0),
                **call_kwargs)
            manifest = None
            if publish and hasattr(replacement, "fused_scorer"):
                manifest = shm.publish_pack(
                    replacement, generation=kwargs.get("generation", 0),
                    dtype=pack_dtype)
            # Strip the fused scorer before pickling: it holds thread
            # locals, and the parent re-attaches the published pack.
            if hasattr(replacement, "_fused_scorer"):
                replacement._fused_scorer = None
            reply = ("done", replacement, report, manifest)
        except TrainingCancelled:
            reply = ("cancelled",)
        except Exception as exc:                      # ship it upstream
            reply = ("failed", exc)
        try:
            conn.send(reply)
        except (EOFError, OSError):
            return                                    # the owner died
        except Exception as exc:          # an unpicklable result or error
            conn.send(("failed", RuntimeError(
                f"{type(exc).__name__}: {exc}")))


class ProcessBuildPool:
    """Forked build workers behind the coordinator's ``build_runner`` seam.

    Parameters
    ----------
    n_workers:      build processes (match the coordinator's
                    ``max_concurrent_builds``; extra builds wait for an
                    idle worker).
    publish_packs:  publish each replacement's fused pack to shared
                    memory in the worker and attach it zero-copy in the
                    parent (default True).
    pack_dtype:     compute dtype of published packs; None uses the
                    worker's :func:`repro.nn.inference_dtype` policy.
    worker_context: dict handed to :func:`worker_context` inside each
                    worker (fork-inherited; see the module docstring).
    namespace:      shm namespace for published packs (default: the
                    parent's current namespace).
    """

    def __init__(self, n_workers: int = 1, publish_packs: bool = True,
                 pack_dtype=None,
                 worker_context: Optional[Dict[str, object]] = None,
                 namespace: Optional[str] = None):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if "fork" not in mp.get_all_start_methods():
            raise RuntimeError("ProcessBuildPool requires the 'fork' "
                               "start method (POSIX)")
        self._ctx = mp.get_context("fork")
        self.n_workers = int(n_workers)
        self.publish_packs = publish_packs
        self.pack_dtype = pack_dtype
        self.namespace = shm.segment_namespace() if namespace is None \
            else namespace
        self._context = dict(worker_context or {})
        # Slot i is (process, owner end of its pipe).  A slot is either
        # idle (its index in ``_idle``) or checked out by exactly one
        # runner, which alone touches its pipe until it checks it in.
        self._slots: List[tuple] = []
        self._lock = threading.Lock()
        self._returned = threading.Condition(self._lock)
        self._manifests: List[dict] = []
        self._idle = list(range(self.n_workers))
        self._closed = False
        with self._lock:
            for index in range(self.n_workers):
                self._spawn_locked(index)

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _spawn_locked(self, index: int) -> None:
        """Fork slot ``index``'s worker on a fresh pipe.  Holding the
        lock keeps every other pool fork out of the window in which the
        child end is still open here."""
        conn, child_conn = self._ctx.Pipe()
        inherited = [slot[1] for slot in self._slots] + [conn]
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, inherited, self._context, self.namespace),
            name=f"build-worker-{index}", daemon=True)
        process.start()
        child_conn.close()
        if index < len(self._slots):
            self._slots[index][1].close()
            self._slots[index] = (process, conn)
            registry = default_registry()
            if registry.enabled:
                registry.counter("repro_restarts_total",
                                 component="build_worker").inc()
        else:
            self._slots.append((process, conn))

    def worker_pids(self) -> List[int]:
        with self._lock:
            return [process.pid for process, _ in self._slots]

    def _checkout(self) -> int:
        """Take an idle worker (respawned first if it died while idle)."""
        with self._returned:
            while not self._idle and not self._closed:
                self._returned.wait()
            if self._closed:
                raise WorkerCrashed("build pool is shut down")
            index = self._idle.pop()
            if self._slots[index][0].exitcode is not None:
                self._spawn_locked(index)
            return index

    def _checkin(self, index: int, crashed: bool) -> None:
        with self._returned:
            if not self._closed:
                if crashed:
                    self._spawn_locked(index)
                self._idle.append(index)
                self._returned.notify()
                return
        conn = self._slots[index][1]               # shut down meanwhile
        try:
            conn.send(None)
        except (EOFError, OSError):
            pass
        conn.close()

    # ------------------------------------------------------------------
    # The coordinator-facing seam
    # ------------------------------------------------------------------
    def run_build(self, refresher, ensemble, history, kwargs: dict,
                  cancel=None) -> tuple:
        """Run one build on an idle worker (blocking); returns
        ``(replacement, report, manifest)`` with the published manifest
        (or None) *not* attached to the replacement.

        Raises :class:`~repro.core.ensemble.TrainingCancelled` on
        cooperative cancellation (``cancel`` set, or the pool shut down
        mid-build), the build's own exception when it fails, and
        :class:`WorkerCrashed` when the worker dies.
        """
        index = self._checkout()
        process, conn = self._slots[index]
        payload = ensemble
        if hasattr(ensemble, "_fused_scorer"):
            # Shallow copy: models/scaler are shared read-only, but the
            # serving ensemble's scorer (thread locals, possibly a mapped
            # segment) must not ride the pickle.
            payload = copy.copy(ensemble)
            payload._fused_scorer = None
        reply = None
        try:
            conn.send(("build", refresher, payload, history,
                       dict(kwargs), self.publish_packs, self.pack_dtype))
            cancel_sent = False
            while reply is None:
                ready = wait([conn, process.sentinel], _POLL_SECONDS)
                if conn in ready:
                    reply = conn.recv()
                elif ready:
                    break                        # died without replying
                elif not cancel_sent and (self._closed or (
                        cancel is not None and cancel.is_set())):
                    conn.send(("cancel",))
                    cancel_sent = True
        except (EOFError, OSError):
            reply = None
        finally:
            self._checkin(index, crashed=reply is None)
        if reply is None:
            raise WorkerCrashed(
                f"build worker (pid {process.pid}) died while training "
                f"the replacement for trigger {kwargs.get('trigger_index')}")
        if reply[0] == "cancelled":
            raise TrainingCancelled(0)
        if reply[0] == "failed":
            raise reply[1]
        return reply[1:]

    def build_runner(self, refresher, ensemble, history, index,
                     kwargs: dict, cancel=None):
        """Run one refresh build on a pool worker (blocking).

        Matches the coordinator's ``build_runner`` contract: returns
        ``(replacement, report)``, raises
        :class:`~repro.core.ensemble.TrainingCancelled` on cooperative
        cancellation and :class:`WorkerCrashed` when the worker dies.
        """
        replacement, report, manifest = self.run_build(
            refresher, ensemble, history, kwargs, cancel)
        if manifest is not None:
            with self._lock:
                self._manifests.append(manifest)
            shm.attach_pack_to_ensemble(replacement, manifest)
        return replacement, report

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def release_pack(self, manifest: dict) -> bool:
        """Unlink one published pack (e.g. after its generation was
        superseded everywhere)."""
        with self._lock:
            self._manifests = [m for m in self._manifests
                               if m["segment"] != manifest["segment"]]
        return shm.unlink_pack(manifest)

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop the workers and unlink every pack this pool published.

        Idempotent.  Idle workers are told to exit now; a worker still
        building is told to cancel, and exits when its runner checks it
        back in.  Whatever has not exited by ``timeout`` is terminated
        (its runner raises :class:`WorkerCrashed`).  Live attachments in
        this process keep their mapping (closed segments stay readable
        until the last map drops); new attaches fail, which is the point
        of shutting down.
        """
        with self._returned:
            if self._closed:
                return
            self._closed = True
            manifests, self._manifests = self._manifests, []
            idle, self._idle = self._idle, []
            self._returned.notify_all()
        for index in idle:
            try:
                self._slots[index][1].send(None)
            except (EOFError, OSError):
                pass
        deadline = time.monotonic() + timeout
        for process, _ in self._slots:
            process.join(max(0.0, deadline - time.monotonic()))
            if process.exitcode is None:
                process.terminate()
                process.join(1.0)
        for index in idle:
            self._slots[index][1].close()
        for manifest in manifests:
            shm.unlink_pack(manifest)
        shm.sweep_orphans(self.namespace)
