"""Cross-process refresh admission: broker, ports, degradable clients.

:class:`~repro.streaming.coordinator.RefreshCoordinator` keeps one
process honest; a *sharded* fleet has N server processes whose streams
may drift together, and admission control (bounded concurrency, priority,
dedup, one-build-fans-out-to-K-subscribers) must span all of them.
:class:`BuildBroker` hosts one ``RefreshCoordinator`` in a broker
process:

* server processes submit over a shared inbox queue; each server owns a
  **port** (a reply queue created before the fork, so every process
  inherits the plumbing);
* the broker's loop is only a transport: a submit becomes the hosted
  coordinator's ``_submit`` (keyed by the ensemble's explicit
  ``_broker_key`` — object identity cannot cross a process boundary), a
  cancel its ``_unsubscribe``, and each resolved handle one port reply;
* the coordinator runs every admitted build through the broker's own
  :class:`~repro.runtime.pool.ProcessBuildPool`, forked inside the
  broker process: one pipe per build worker, so a killed worker fails
  (or, under a retry policy, retries) only its own build and is
  respawned by the pool.  Each attempt passes the coordinator's
  ``coordinator.build`` fault point inside the broker process;
* a finished build is published **once** to shared memory by its
  worker; the broker fans the manifest out to every subscribing port,
  and each server attaches the same segment zero-copy.  When a newer
  generation for the same ensemble key resolves, the superseded segment
  is unlinked (live mappings stay valid; new attaches fail over to a
  local re-pack), and a pack whose build lost every subscriber is
  unlinked at once.

Failure model — the part the fault-injection battery exercises: clients
probe the broker process for liveness on every port pump.  A dead broker
resolves all pending requests to ``discarded`` (each engine restores its
refresh request at the next boundary, exactly like a coordinator
shutdown) and flips the port into **degraded mode**, where submits run
on one private in-process
:class:`~repro.streaming.coordinator.RefreshCoordinator` with the same
cap and policy — refreshes keep happening locally, serving never
deadlocks.
"""

from __future__ import annotations

import copy
import dataclasses
import multiprocessing as mp
import os
import queue
import secrets
import threading
import time
from typing import Dict, List, Optional

from .. import faults
from ..obs import default_registry
from ..streaming.admission import (Admission, AdmissionClosed,
                                   CoordinatorStats)
from ..streaming.coordinator import (CoordinatedRefreshClient,
                                     RefreshCoordinator, RefreshHandle)
from . import shm
from .pool import ProcessBuildPool
from .supervisor import RestartPolicy, RetryPolicy

_POLL_SECONDS = 0.05


# ----------------------------------------------------------------------
# Broker process
# ----------------------------------------------------------------------
def _broker_main(inbox, ports, max_concurrent, policy, namespace,
                 drain_timeout, retry, n_workers, worker_context) -> None:
    """The broker's message loop: a port transport over one
    :class:`~repro.streaming.coordinator.RefreshCoordinator`.

    The coordinator admits, dedups, runs each build on the broker's own
    :class:`~repro.runtime.pool.ProcessBuildPool`, cancels and retries;
    this loop turns port messages into its ``_submit`` /
    ``_unsubscribe`` / ``stats`` / ``shutdown`` calls and each resolved
    handle into one reply.  Only the broker's own work lives in its
    build runner and ``on_build_done`` hook: forwarding manifests and
    unlinking the packs no subscriber will attach.
    """
    # The owner still treats this process as a daemon (its copy of the
    # flag is untouched); clearing ours lets the broker fork its pool.
    mp.current_process().daemon = False
    shm.set_segment_namespace(namespace)
    pool = ProcessBuildPool(n_workers, worker_context=worker_context,
                            namespace=namespace)
    published: Dict[object, dict] = {}  # build's cancel flag -> manifest
    latest_manifest: Dict[object, dict] = {}    # dedup key -> manifest

    def run_build(refresher, ensemble, history, index, kwargs, cancel):
        replacement, report, manifest = pool.run_build(
            refresher, ensemble, history, kwargs, cancel)
        if manifest is not None:
            published[cancel] = manifest
        # The handle carries a plain tuple: it has no prepare_fused, so
        # no scorer is packed here, nor pickled into the reply.
        return (replacement, manifest), report

    def build_done(build):
        manifest = published.pop(build.payload.cancel, None)
        if manifest is not None and build.status == "ready":
            # Live mappings of the superseded generation survive its
            # unlink; only new attaches fail (and re-pack locally).
            manifest, latest_manifest[build.key] = \
                latest_manifest.get(build.key), manifest
        if manifest is not None:
            shm.unlink_pack(manifest)       # superseded, or unwanted

    coordinator = RefreshCoordinator(max_concurrent, policy, retry=retry,
                                     build_runner=run_build)
    coordinator.on_build_done = build_done
    pending: Dict[tuple, RefreshHandle] = {}  # (port, request id) -> handle

    def reply(port_index, message):
        try:
            ports[port_index].put(message)
        except (ValueError, OSError):
            pass

    def reply_resolved():
        for (port_index, request_id), handle in list(pending.items()):
            if handle.done.is_set():
                del pending[(port_index, request_id)]
                replacement, manifest = handle.replacement or (None, None)
                reply(port_index, ("resolved", request_id, handle.status,
                                   replacement, handle.report, manifest,
                                   handle.error))

    deadline = None
    while True:
        try:
            message = inbox.get(timeout=_POLL_SECONDS)
        except queue.Empty:
            message = None
        except (EOFError, OSError):
            break
        if message is not None:
            if faults.enabled:
                faults.point("broker.loop")
            kind = message[0]
            if kind == "submit":
                (_, port_index, request_id, key, priority, trigger_index,
                 generation, refresher, ensemble, history) = message
                try:
                    pending[(port_index, request_id)] = coordinator._submit(
                        coordinator.client(refresher, priority=priority),
                        ensemble, history, trigger_index, generation,
                        key=key)
                except AdmissionClosed:
                    reply(port_index, ("resolved", request_id, "discarded",
                                       None, None, None, None))
            elif kind == "cancel":
                handle = pending.pop(message[1:], None)
                if handle is not None:
                    coordinator._unsubscribe(handle)
            elif kind == "stats":
                _, port_index, request_id = message
                reply(port_index, ("stats", request_id, coordinator.stats()))
            elif kind == "shutdown":
                deadline = time.monotonic() + drain_timeout
                coordinator.shutdown()
        reply_resolved()
        if deadline is not None and (coordinator.drain(0)
                                     or time.monotonic() > deadline):
            break
    # Every build thread exited or the drain hit its deadline: abandon
    # stragglers to the pool shutdown, so no subscriber is left waiting
    # on a queue nobody will feed.
    coordinator.shutdown()
    reply_resolved()
    pool.shutdown(timeout=1.0)
    for manifest in list(latest_manifest.values()):
        shm.unlink_pack(manifest)
    shm.sweep_orphans(namespace)


class BuildBroker:
    """Owns the broker process (which owns its build pool) and the port
    queues.

    Construct (and :meth:`port`) **before** forking server processes so
    the queues are inherited everywhere.  The constructing process owns
    the lifecycle: call :meth:`shutdown` when the fleet stops.

    Parameters
    ----------
    n_ports:        server ports to pre-create (one per server process).
    n_workers:      build worker processes (defaults to
                    ``max_concurrent_builds``).
    max_concurrent_builds / policy: admission config, exactly as on
                    :class:`~repro.streaming.coordinator.RefreshCoordinator`.
    worker_context: fork-inherited dict exposed to build workers via
                    :func:`repro.runtime.pool.worker_context` (test
                    gates; see the pool docs).
    namespace:      shm namespace for published packs.
    retry:          optional :class:`~repro.runtime.supervisor.RetryPolicy`
                    for failed builds (worker crash or build exception),
                    the coordinator's rule: a retrying build keeps its
                    slot and re-runs once the policy's backoff passes.
    restart:        a :class:`~repro.runtime.supervisor.RestartPolicy`
                    enabling supervision: a watchdog thread respawns a
                    dead broker process over the **same** queues (ports
                    re-attach on their next pump; see
                    ``docs/robustness.md``) within the policy's budget.
                    Build workers need no watchdog: the broker's pool
                    respawns a dead one itself.
                    ``None`` (default) keeps the PR-8 behaviour: broker
                    death degrades ports to local refresh forever.
    """

    def __init__(self, n_ports: int = 1, n_workers: Optional[int] = None,
                 max_concurrent_builds: int = 1, policy: str = "fifo",
                 worker_context: Optional[dict] = None,
                 namespace: Optional[str] = None,
                 drain_timeout: float = 10.0,
                 retry: Optional[RetryPolicy] = None,
                 restart: Optional[RestartPolicy] = None,
                 watchdog_interval: float = 0.05):
        if n_ports < 1:
            raise ValueError(f"n_ports must be >= 1, got {n_ports}")
        Admission(max_concurrent_builds, policy)    # validate before forking
        if "fork" not in mp.get_all_start_methods():
            raise RuntimeError("BuildBroker requires the 'fork' start "
                               "method (POSIX)")
        self._ctx = mp.get_context("fork")
        self.max_concurrent_builds = int(max_concurrent_builds)
        self.policy = policy
        self.namespace = shm.segment_namespace() if namespace is None \
            else namespace
        self.n_workers = self.max_concurrent_builds if n_workers is None \
            else int(n_workers)
        self.retry = retry
        self._drain_timeout = float(drain_timeout)
        self._inbox = self._ctx.Queue()
        self._port_queues = [self._ctx.Queue() for _ in range(n_ports)]
        # Fork-shared: ports (in any process) read the current broker
        # pid here to re-attach after a supervised restart.
        self._pid_value = self._ctx.Value("i", 0)
        self._context = dict(worker_context or {})
        self._spawn_broker()
        self._closed = False
        self._restart_policy = restart
        self._restarted = threading.Event()
        self.n_restarts = 0
        self.quarantined = False
        self._stop_watchdog = threading.Event()
        self._watchdog: Optional[threading.Thread] = None
        if restart is not None:
            self._watchdog_interval = float(watchdog_interval)
            self._watchdog = threading.Thread(target=self._supervise,
                                              name="broker-watchdog",
                                              daemon=True)
            self._watchdog.start()

    def _spawn_broker(self) -> None:
        self._process = self._ctx.Process(
            target=_broker_main,
            args=(self._inbox, self._port_queues,
                  self.max_concurrent_builds, self.policy, self.namespace,
                  self._drain_timeout, self.retry, self.n_workers,
                  self._context),
            name="refresh-broker", daemon=True)
        self._process.start()
        self._pid_value.value = self._process.pid

    @property
    def pid(self) -> Optional[int]:
        return self._process.pid

    def alive(self) -> bool:
        return self._process.exitcode is None and shm.pid_alive(self.pid)

    # -- supervision ---------------------------------------------------
    def restart(self) -> bool:
        """Respawn a dead broker process over the existing queues.

        The new broker starts with empty admission state; in-flight
        requests were already resolved ``discarded`` by each port's
        degrade path, and ports re-attach (via the shared pid value) on
        their next pump.  Returns True when a restart happened.
        """
        if self._closed or self._process.exitcode is None:
            return False
        self._spawn_broker()
        self.n_restarts += 1
        registry = default_registry()
        if registry.enabled:
            registry.counter("repro_restarts_total",
                             component="broker").inc()
        self._restarted.set()
        return True

    def wait_restarted(self, timeout: Optional[float] = None) -> bool:
        """Block until the watchdog has restarted the broker at least
        once (test hook; event-gated, no polling)."""
        return self._restarted.wait(timeout)

    def _supervise(self) -> None:
        """Watchdog: respawn a dead broker within the restart budget."""
        while not self._stop_watchdog.wait(self._watchdog_interval):
            if self._closed:
                return
            if self._process.exitcode is not None and not self.quarantined:
                if self._restart_policy.allow():
                    self.restart()
                else:
                    self.quarantined = True

    def health(self) -> dict:
        """Supervision view: liveness plus restart history.

        ``recent_restarts`` counts restarts within the policy window —
        the signal health views use to stay ``degraded`` for a while
        after a recovery instead of silently healing.
        """
        recent = 0 if self._restart_policy is None \
            else self._restart_policy.recent()
        return {"alive": self.alive(), "quarantined": self.quarantined,
                "restarts": self.n_restarts,
                "recent_restarts": recent}

    def port(self, index: int) -> "BrokerPort":
        """The ``index``-th server port (call in, or before forking, the
        process that will serve through it)."""
        return BrokerPort(self, index)

    def coordinator(self, index: int) -> "ProcessCoordinator":
        """A coordinator facade over port ``index`` — what a server
        process hands to its :class:`~repro.streaming.multi.StreamFleet`."""
        return ProcessCoordinator(self.port(index))

    def kill(self) -> None:
        """SIGKILL the broker process (fault-injection hook)."""
        if self._process.exitcode is None:
            os.kill(self._process.pid, 9)
        self._process.join(5.0)

    def shutdown(self, timeout: float = 10.0) -> None:
        """Stop the broker (which stops its build pool); unlink every
        published pack."""
        if self._closed:
            return
        self._closed = True
        self._stop_watchdog.set()
        if self._watchdog is not None:
            self._watchdog.join(timeout=2.0)
        if self._process.exitcode is None:
            try:
                self._inbox.put(("shutdown",))
            except (ValueError, OSError):
                pass
        self._process.join(timeout)
        if self._process.exitcode is None:
            self._process.terminate()
            self._process.join(2.0)
        shm.sweep_orphans(self.namespace)


# ----------------------------------------------------------------------
# Server side
# ----------------------------------------------------------------------
class BrokerPort:
    """One server process's channel to the broker.

    Thread-safe within its process: the engine thread pumps it on every
    poll, stats calls pump it synchronously.  On broker death the pump
    resolves every pending request to ``discarded`` and marks the port
    degraded — its coordinator then builds locally.
    """

    def __init__(self, broker: BuildBroker, index: int):
        self.index = int(index)
        self.namespace = broker.namespace
        self.max_concurrent_builds = broker.max_concurrent_builds
        self.policy = broker.policy
        self._inbox = broker._inbox
        self._queue = broker._port_queues[self.index]
        self._broker_pid = broker.pid
        self._pid_value = broker._pid_value
        self._lock = threading.Lock()
        self._pending: Dict[tuple, RefreshHandle] = {}
        self._stats_replies: Dict[tuple, CoordinatorStats] = {}
        self._next_request = 0
        # Request ids carry a per-port-instance token: a respawned shard
        # builds a fresh port over the same queue, and the token keeps
        # any straggler reply addressed to the dead incarnation from
        # resolving one of the new port's requests.
        self._token = secrets.token_hex(4)
        self.degraded = False
        self.n_reattached = 0

    def alive(self) -> bool:
        return not self.degraded and shm.pid_alive(self._broker_pid)

    def send(self, message) -> None:
        self._inbox.put(message)

    def allocate(self, handle: RefreshHandle) -> tuple:
        with self._lock:
            request_id = (self._token, self._next_request)
            self._next_request += 1
            self._pending[request_id] = handle
        return request_id

    def release(self, handle: RefreshHandle) -> Optional[tuple]:
        """Stop tracking ``handle``; its request id, or None when it is
        not pending here."""
        with self._lock:
            for request_id, pending in self._pending.items():
                if pending is handle:
                    del self._pending[request_id]
                    return request_id
        return None

    def pending_handles(self) -> List[RefreshHandle]:
        with self._lock:
            return list(self._pending.values())

    def _degrade(self) -> None:
        """Broker died: fail over.  Pending handles resolve to
        ``discarded`` so each engine restores its request and re-submits
        — the resubmission lands on the coordinator's local fallback."""
        with self._lock:
            if self.degraded:
                return
            self.degraded = True
            pending, self._pending = list(self._pending.values()), {}
        for handle in pending:
            handle._resolve("discarded")
            handle.done.set()

    def pump(self) -> None:
        """Drain broker replies; detect broker death."""
        while True:
            try:
                message = self._queue.get_nowait()
            except queue.Empty:
                break
            except (EOFError, OSError):
                self._degrade()
                return
            if message[0] == "stats":
                with self._lock:
                    self._stats_replies[message[1]] = message[2]
                continue
            _, request_id, status, replacement, report, manifest, error \
                = message
            with self._lock:
                handle = self._pending.pop(request_id, None)
            if handle is not None:
                _resolve_remote(handle, status, replacement, report,
                                manifest, error)
        if not self.degraded and not shm.pid_alive(self._broker_pid):
            self._degrade()
        if self.degraded:
            self._probe_broker()

    def _probe_broker(self) -> None:
        """Re-attach to a supervised broker restart.

        The owner publishes the new broker pid through the fork-shared
        value; a degraded port (its pendings already resolved
        ``discarded``) that sees a *new, live* pid flips back to remote
        submission instead of degrading forever.
        """
        current = self._pid_value.value
        if current == self._broker_pid or not shm.pid_alive(current):
            return
        with self._lock:
            self._broker_pid = current
            self.degraded = False
            self.n_reattached += 1
        registry = default_registry()
        if registry.enabled:
            registry.counter("repro_broker_reattached_total").inc()

    def stats(self, timeout: float = 2.0) -> Optional[CoordinatorStats]:
        """Synchronous admission counters from the broker (None when the
        broker is unreachable)."""
        if not self.alive():
            return None
        with self._lock:
            request_id = (self._token, self._next_request)
            self._next_request += 1
        try:
            self.send(("stats", self.index, request_id))
        except (ValueError, OSError):
            return None
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            self.pump()
            with self._lock:
                reply = self._stats_replies.pop(request_id, None)
            if reply is not None:
                return reply
            if not self.alive():
                return None
            time.sleep(0.005)
        return None


def _resolve_remote(handle: RefreshHandle, status: str, replacement,
                    report, manifest, error) -> None:
    """A broker reply resolves a handle in this process."""
    if status == "ready":
        if manifest is not None and replacement is not None:
            try:
                shm.attach_pack_to_ensemble(replacement, manifest)
            except Exception:
                # Segment superseded/unlinked before we attached:
                # re-pack locally rather than failing the refresh.
                prepare = getattr(replacement, "prepare_fused", None)
                if prepare is not None:
                    prepare()
        handle._finish("ready", replacement=replacement, report=report)
    elif status == "failed":
        handle._finish("failed", error=error if error is not None
                       else RuntimeError("broker build failed"))
    else:
        handle._resolve("discarded")
    handle.done.set()


class ProcessCoordinator:
    """Coordinator facade a server process hands its ``StreamFleet``.

    Duck-types the :class:`RefreshCoordinator` surface the fleet and
    engine touch (``client`` / ``stats`` / ``state_dict`` /
    ``shutdown`` / ``drain``) while admission itself runs in the broker
    process.  Its clients are ordinary
    :class:`~repro.streaming.coordinator.CoordinatedRefreshClient`
    instances calling the same ``_submit`` / ``_unsubscribe`` /
    ``_pump`` as on the thread coordinator.  ``shutdown`` here is
    *port-local* — it stops this server's admission and discards its
    pending requests; the broker (and other servers) keep running until
    the broker's owner shuts it down.

    Degraded mode (broker dead): submits go to one private in-process
    :class:`RefreshCoordinator` with the broker's cap and policy, so
    refreshes continue locally and nothing deadlocks.  A local build
    runs to completion even if the port re-attaches meanwhile.
    """

    def __init__(self, port: BrokerPort):
        self.port = port
        self._shutdown = False
        self._fallback: Optional[RefreshCoordinator] = None

    def client(self, refresher, on_refire: str = "queue",
               priority: int = 0) -> CoordinatedRefreshClient:
        return CoordinatedRefreshClient(self, refresher, on_refire=on_refire,
                                        priority=priority)

    def _local(self) -> RefreshCoordinator:
        if self._fallback is None:
            self._fallback = RefreshCoordinator(
                self.port.max_concurrent_builds, self.port.policy)
        return self._fallback

    def _pump(self) -> None:
        self.port.pump()

    def _submit(self, client: CoordinatedRefreshClient, ensemble, history,
                trigger_index: int, generation: int,
                trace=None) -> RefreshHandle:
        if self._shutdown:
            raise AdmissionClosed("broker coordinator is shut down; no "
                                  "further refresh builds are admitted")
        port = self.port
        port.pump()
        if port.degraded:
            return self._local()._submit(client, ensemble, history,
                                         trigger_index, generation, trace)
        handle = RefreshHandle(trigger_index, generation)
        request_id = port.allocate(handle)
        payload = ensemble
        if hasattr(ensemble, "_fused_scorer"):
            payload = copy.copy(ensemble)
            payload._fused_scorer = None
        # Object identity cannot cross a process boundary: the dedup key
        # is the ensemble's explicit broker key, else port-local.
        key = getattr(ensemble, "_broker_key", None)
        if key is None:
            key = f"{port.index}:{id(ensemble)}"
        try:
            port.send(("submit", port.index, request_id, key,
                       client.priority, trigger_index, generation,
                       client.refresher, payload, history))
        except (ValueError, OSError):
            port.release(handle)
            port._degrade()
            return self._local()._submit(client, ensemble, history,
                                         trigger_index, generation, trace)
        if trace is not None:
            # Queue wait happens in another process; close the admission
            # span at hand-off so the trace never dangles.
            trace[1].set_attribute("remote", True)
            trace[1].end()
        return handle

    def _unsubscribe(self, handle: RefreshHandle) -> None:
        request_id = self.port.release(handle)
        if request_id is None and self._fallback is not None:
            self._fallback._unsubscribe(handle)     # a local build's
            return
        if request_id is not None:
            try:
                self.port.send(("cancel", self.port.index, request_id))
            except (ValueError, OSError):
                pass
        handle._resolve("discarded")
        handle.done.set()

    def stats(self) -> CoordinatorStats:
        """The broker's ledger; while it is unreachable, the degraded-mode
        fallback's (which runs every local build, and starts empty)."""
        stats = self.port.stats()
        return stats if stats is not None else self._local().stats()

    def state_dict(self) -> Dict[str, object]:
        """Same shape as ``RefreshCoordinator.state_dict`` so sharded
        checkpoints resume on either runtime."""
        stats = dataclasses.asdict(self.stats())
        state = Admission(self.port.max_concurrent_builds,
                          self.port.policy).state_dict()
        state["counters"] = {name: stats[name] for name in state["counters"]}
        return state

    def shutdown(self) -> None:
        self._shutdown = True
        for handle in self.port.pending_handles():
            self._unsubscribe(handle)
        if self._fallback is not None:
            self._fallback.shutdown()

    def drain(self, timeout: Optional[float] = None) -> bool:
        deadline = None if timeout is None else time.monotonic() + timeout
        self.port.pump()
        while self.port.pending_handles():
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(_POLL_SECONDS)
            self.port.pump()
        if self._fallback is None:
            return True
        return self._fallback.drain(
            None if deadline is None
            else max(0.0, deadline - time.monotonic()))
