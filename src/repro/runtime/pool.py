"""A process-backed build pool: refresh training off the serving process.

:class:`~repro.streaming.coordinator.RefreshCoordinator` runs each
admitted build on a daemon *thread*, which keeps the serving path
non-blocking but still time-slices the GIL between training GEMMs and
micro-batch scoring.  :class:`ProcessBuildPool` moves the training to a
small pool of forked worker processes: the coordinator's build thread
ships the job over a queue and blocks cheaply on the result, so the
serving process spends no interpreter time on the build at all.

The pool plugs into the coordinator's ``build_runner`` seam — admission,
dedup, priority, fan-out and cancellation semantics are untouched; only
where the training CPU burns changes.  Completed builds come back two
ways at once:

* the full replacement ensemble (pickled — float64 weights, needed for
  warm-starting the *next* refresh and for checkpointing), and
* a shared-memory pack manifest (:mod:`repro.runtime.shm`) already
  published by the worker, which the pool attaches to the replacement so
  the serving process swaps in a zero-copy scorer instead of re-packing.

Failure model: a worker that dies mid-build (OOM kill, SIGKILL) fails
that build's handle with :class:`WorkerCrashed` — subscribers observe a
failed refresh at their next boundary, serving is never poisoned — and
the pool respawns the worker so later builds proceed.  Cooperative
cancellation bridges the coordinator's ``threading.Event`` to a
per-worker ``multiprocessing.Event`` polled by
:meth:`CAEEnsemble.fit <repro.core.CAEEnsemble.fit>` between basic-model
fits.
"""

from __future__ import annotations

import copy
import multiprocessing as mp
import os
import queue
import threading
import time
from typing import Dict, List, Optional

from .. import faults
from ..core.ensemble import TrainingCancelled
from ..streaming.coordinator import _accepts_cancel
from . import shm

_POLL_SECONDS = 0.05

# Per-process context injected into pool workers at fork: tests use it to
# hand inherited synchronisation primitives (gates, queues) to refresher
# stubs that are themselves pickled through the task queue — mp primitives
# cannot ride inside a job, but fork inheritance carries them for free.
_worker_context: Dict[str, object] = {}


def worker_context() -> Dict[str, object]:
    """The ambient context dict (parent: what was passed to the pool;
    worker: the same dict, transferred by fork inheritance)."""
    return _worker_context


class WorkerCrashed(RuntimeError):
    """A pool worker died (crash or kill) while running a build."""


class _PendingJob:
    __slots__ = ("job_id", "done", "outcome", "payload", "worker_index",
                 "worker_pid", "cancel_requested")

    def __init__(self, job_id: int):
        self.job_id = job_id
        self.done = threading.Event()
        self.outcome: Optional[str] = None
        self.payload = None
        self.worker_index: Optional[int] = None
        self.worker_pid: Optional[int] = None
        self.cancel_requested = False


def _worker_main(index: int, tasks, results, cancel_event, context,
                 namespace: str) -> None:
    global _worker_context
    _worker_context = context
    shm.set_segment_namespace(namespace)
    while True:
        task = tasks.get()
        if task is None:
            return
        (job_id, refresher, ensemble, history, kwargs, publish,
         pack_dtype) = task
        cancel_event.clear()
        results.put(("started", job_id, index, os.getpid()))
        try:
            if faults.enabled:
                faults.point("pool.build")
            call_kwargs = dict(kwargs)
            if _accepts_cancel(refresher.build):
                call_kwargs["cancel"] = cancel_event
            replacement, report = refresher.build(
                ensemble, history, kwargs.get("trigger_index", 0),
                **call_kwargs)
            manifest = None
            if publish and hasattr(replacement, "fused_scorer"):
                manifest = shm.publish_pack(replacement,
                                            generation=job_id,
                                            dtype=pack_dtype)
            # Strip the fused scorer before pickling: it holds thread
            # locals, and the parent re-attaches the published pack.
            if hasattr(replacement, "_fused_scorer"):
                replacement._fused_scorer = None
            results.put(("done", job_id, replacement, report, manifest))
        except TrainingCancelled:
            results.put(("cancelled", job_id, None, None, None))
        except Exception as exc:                      # ship it upstream
            try:
                results.put(("failed", job_id, exc, None, None))
            except Exception:
                results.put(("failed", job_id,
                             RuntimeError(f"{type(exc).__name__}: {exc}"),
                             None, None))


class ProcessBuildPool:
    """Forked build workers behind the coordinator's ``build_runner`` seam.

    Parameters
    ----------
    n_workers:      build processes (match the coordinator's
                    ``max_concurrent_builds``; extra jobs queue).
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
        self._tasks = self._ctx.Queue()
        self._results = self._ctx.Queue()
        self._cancel_events: List = []
        self._workers: List = []
        self._lock = threading.Lock()
        self._jobs: Dict[int, _PendingJob] = {}
        self._manifests: List[dict] = []
        self._next_job = 0
        self._closed = False
        for index in range(self.n_workers):
            self._spawn(index)
        self._dispatcher = threading.Thread(target=self._dispatch,
                                            name="build-pool-dispatch",
                                            daemon=True)
        self._dispatcher.start()

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, index: int) -> None:
        cancel_event = self._ctx.Event()
        process = self._ctx.Process(
            target=_worker_main,
            args=(index, self._tasks, self._results, cancel_event,
                  self._context, self.namespace),
            name=f"build-worker-{index}", daemon=True)
        process.start()
        if index < len(self._workers):
            self._workers[index] = process
            self._cancel_events[index] = cancel_event
        else:
            self._workers.append(process)
            self._cancel_events.append(cancel_event)

    def worker_pids(self) -> List[int]:
        with self._lock:
            return [process.pid for process in self._workers]

    def _respawn_dead_locked(self) -> None:
        """Replace dead workers and crash every job a dead worker held.

        Any runner thread may get here first, so every orphan is marked,
        not only the caller's own job: its runner then sees it done.  A
        job is matched by its worker's pid, which also catches a
        ``started`` report routed after the slot was already respawned.
        """
        for index, process in enumerate(self._workers):
            if process.exitcode is not None and not self._closed:
                self._spawn(index)
        for job in self._jobs.values():
            if job.worker_pid is not None and not job.done.is_set() \
                    and not shm.pid_alive(job.worker_pid):
                job.outcome = "crashed"
                job.done.set()

    # ------------------------------------------------------------------
    # Result routing
    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        while True:
            try:
                message = self._results.get(timeout=_POLL_SECONDS)
            except queue.Empty:
                if self._closed:
                    return
                continue
            except (EOFError, OSError):
                return
            kind, job_id = message[0], message[1]
            with self._lock:
                job = self._jobs.get(job_id)
                if job is None:
                    continue
                if kind == "started":
                    job.worker_index, job.worker_pid = message[2], message[3]
                    # A cancel that arrived while the job sat in the
                    # queue lands now, before any basic model trains.
                    if job.cancel_requested:
                        self._cancel_events[job.worker_index].set()
                    continue
                job.outcome = kind
                job.payload = message[2:]
                job.done.set()

    # ------------------------------------------------------------------
    # The coordinator-facing seam
    # ------------------------------------------------------------------
    def build_runner(self, refresher, ensemble, history, index,
                     kwargs: dict, cancel=None):
        """Run one refresh build on a pool worker (blocking).

        Matches the coordinator's ``build_runner`` contract: returns
        ``(replacement, report)``, raises
        :class:`~repro.core.ensemble.TrainingCancelled` on cooperative
        cancellation and :class:`WorkerCrashed` when the worker dies.
        """
        with self._lock:
            if self._closed:
                raise WorkerCrashed("build pool is shut down")
            job = _PendingJob(self._next_job)
            self._next_job += 1
            self._jobs[job.job_id] = job
        payload = ensemble
        if hasattr(ensemble, "_fused_scorer"):
            # Shallow copy: models/scaler are shared read-only, but the
            # serving ensemble's scorer (thread locals, possibly a mapped
            # segment) must not ride the pickle.
            payload = copy.copy(ensemble)
            payload._fused_scorer = None
        self._tasks.put((job.job_id, refresher, payload, history,
                         dict(kwargs), self.publish_packs,
                         self.pack_dtype))
        try:
            while not job.done.wait(_POLL_SECONDS):
                if cancel is not None and cancel.is_set() \
                        and not job.cancel_requested:
                    with self._lock:
                        job.cancel_requested = True
                        if job.worker_index is not None:
                            self._cancel_events[job.worker_index].set()
                with self._lock:
                    self._respawn_dead_locked()
        finally:
            with self._lock:
                self._jobs.pop(job.job_id, None)
        if job.outcome == "crashed":
            raise WorkerCrashed(
                f"build worker (pid {job.worker_pid}) died while training "
                f"the replacement for trigger {kwargs.get('trigger_index')}")
        if job.outcome == "cancelled":
            raise TrainingCancelled(0)
        if job.outcome == "failed":
            raise job.payload[0]
        replacement, report, manifest = job.payload
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

        Idempotent.  Live attachments in this process keep their mapping
        (closed segments stay readable until the last map drops); new
        attaches fail, which is the point of shutting down.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            manifests, self._manifests = self._manifests, []
            for job in self._jobs.values():
                if not job.done.is_set():
                    job.outcome = "crashed"
                    job.done.set()
        for _ in self._workers:
            try:
                self._tasks.put_nowait(None)
            except (ValueError, OSError):
                break
        deadline = time.monotonic() + timeout
        for process in self._workers:
            process.join(max(0.0, deadline - time.monotonic()))
            if process.exitcode is None:
                process.terminate()
                process.join(1.0)
        self._dispatcher.join(timeout=2.0)
        for manifest in manifests:
            shm.unlink_pack(manifest)
        shm.sweep_orphans(self.namespace)
        self._tasks.close()
        self._results.close()
