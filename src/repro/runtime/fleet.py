"""Sharding a :class:`~repro.streaming.multi.StreamFleet` over processes.

One serving process time-slices every stream's scoring through a single
GIL.  :class:`ShardedFleet` forks N server processes, each owning a
private :class:`StreamFleet` built by a caller-supplied factory, and
routes streams to shards by a stable hash of the stream name — a
stream's sliding window, calibrator and drift state live in exactly one
process for its whole life, so no cross-process state ever needs
synchronising.

The parent speaks to each shard over a ``multiprocessing.Pipe`` with a
tiny request/response protocol.  ``update_many`` scatters the per-shard
sub-batches first and gathers replies second, so shards score their
slices of a scrape tick concurrently.

Refresh builds plug into the same cross-process admission control the
single-process engine uses: pass a :class:`~repro.runtime.broker
.BuildBroker` (or let the fleet create one) and each shard's factory
receives a :class:`~repro.runtime.broker.ProcessCoordinator` bound to
its own broker port — K shards co-drifting on a shared ensemble cost
one build, published once to shared memory and attached zero-copy by
every subscribing shard.

Observability stays whole-fleet: each shard runs its own fresh
:class:`~repro.obs.MetricsRegistry` (set as the process default at
fork), and :meth:`ShardedFleet.telemetry` merges the per-process
snapshots with :func:`repro.obs.merge_snapshots` into the one view the
single-process fleet would have produced.

Everything here requires the POSIX ``fork`` start method: factories and
their closed-over ensembles reach the children by inheritance, never by
pickle.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import threading
import time
import zlib
from typing import Callable, Dict, List, Mapping, Optional, Set

from .. import faults
from ..obs import (MetricsRegistry, default_registry, merge_snapshots,
                   set_default_registry)
from . import shm
from .supervisor import RestartPolicy

SHARDED_MANIFEST_NAME = "sharded.json"
SHARDED_FORMAT_VERSION = 1


class ShardCrashed(RuntimeError):
    """A fleet server process died while the parent awaited a reply."""


def shard_for(name: str, n_shards: int) -> int:
    """The shard index owning ``name`` — crc32 keeps it stable across
    runs and processes (``hash()`` is salted per interpreter)."""
    return zlib.crc32(name.encode("utf-8")) % n_shards


def _server_main(index: int, conn, fleet_factory, port,
                 namespace: str) -> None:
    """Command loop of one fleet server process."""
    shm.set_segment_namespace(namespace)
    # A fresh registry per process: the fork copied the parent's default
    # registry, and double-counting its instruments across shards would
    # corrupt the merged telemetry view.
    set_default_registry(MetricsRegistry())
    coordinator = None
    try:
        if port is not None:
            from .broker import ProcessCoordinator
            coordinator = ProcessCoordinator(port)
        fleet = fleet_factory(index, coordinator)
    except Exception as exc:
        try:
            conn.send(("fatal", exc))
        except Exception:
            conn.send(("fatal", RuntimeError(f"{type(exc).__name__}: {exc}")))
        return
    conn.send(("ready", os.getpid()))
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        op, args = message[0], message[1:]
        if faults.enabled:
            faults.point("fleet.shard.op")
            if op in ("update", "update_batch", "update_many",
                      "update_coalesced"):
                # A separate point for scoring traffic only, so chaos
                # schedules can pin "crash during the k-th update" without
                # counting warm-ups, checkpoints or telemetry probes.
                faults.point("fleet.shard.update")
        if op == "shutdown":
            try:
                fleet.shutdown()
                if coordinator is not None:
                    coordinator.shutdown()
            finally:
                try:
                    conn.send(("ok", None))
                except Exception:
                    pass
            break
        try:
            if op == "update":
                result = fleet.update(args[0], args[1])
            elif op == "update_batch":
                result = fleet.update_batch(args[0], args[1])
            elif op == "update_many":
                result = fleet.update_many(args[0])
            elif op == "update_coalesced":
                result = fleet.update_coalesced(args[0])
            elif op == "warm_up":
                fleet.warm_up(args[0], args[1])
                result = None
            elif op == "names":
                result = fleet.names
            elif op == "totals":
                result = {
                    "n_streams": len(fleet),
                    "n_observations": fleet.total_observations,
                    "n_alerts": fleet.total_alerts,
                    "n_refreshes": sum(
                        d.n_refreshes for d in fleet._detectors.values()),
                }
            elif op == "stats":
                result = fleet.stats(args[0])
            elif op == "telemetry":
                result = fleet.telemetry()
            elif op == "state":
                result = fleet.state_dict()
            elif op == "checkpoint":
                from ..core.persistence import save_fleet
                save_fleet(fleet, args[0])
                result = None
            else:
                raise ValueError(f"unknown fleet op {op!r}")
            conn.send(("ok", result))
        except Exception as exc:
            try:
                conn.send(("error", exc))
            except Exception:
                conn.send(("error",
                           RuntimeError(f"{type(exc).__name__}: {exc}")))


class _Shard:
    __slots__ = ("index", "process", "conn", "pid")

    def __init__(self, index, process, conn):
        self.index = index
        self.process = process
        self.conn = conn
        self.pid = process.pid


class ShardedFleet:
    """N forked server processes, each serving one slice of the streams.

    Parameters
    ----------
    fleet_factory: called *inside* each server process as
                   ``fleet_factory(shard_index, coordinator)`` and must
                   return the shard's :class:`StreamFleet`.  The
                   coordinator is a
                   :class:`~repro.runtime.broker.ProcessCoordinator`
                   bound to the shard's broker port (``None`` without a
                   broker); factories typically hand it to
                   :func:`~repro.streaming.multi.shared_fleet`.
    n_shards:      server processes.  Streams route by
                   ``crc32(name) % n_shards`` — resharding a checkpoint
                   to a different count is not supported (the manifest
                   records the count and :meth:`restore` re-uses it).
    broker:        an existing :class:`~repro.runtime.broker.BuildBroker`
                   with at least ``n_shards`` ports; not owned (the
                   caller shuts it down).
    n_build_workers: convenience — when set (and ``broker`` is None) the
                   fleet creates and owns a broker with this many build
                   workers, shut down with the fleet.
    namespace:     shared-memory namespace for published packs.
    timeout:       per-request reply timeout in seconds; a shard that
                   neither replies nor dies within it raises
                   :class:`ShardCrashed`.
    restart:       a :class:`~repro.runtime.supervisor.RestartPolicy`
                   enabling supervision: a crashed shard is respawned —
                   from ``shard_<i>/`` of the last :meth:`checkpoint`
                   (or :meth:`restore`) directory when one is known,
                   else by re-running ``fleet_factory`` — and the
                   failing request is retried once on the fresh shard.
                   A shard exceeding the per-shard budget is
                   **quarantined** (its requests raise
                   :class:`ShardCrashed`; :meth:`health` reports
                   ``degraded``).  ``None`` (default) keeps crashes
                   terminal as before.
    refresher_factory / detector_factory: used only for
                   checkpoint-based respawns (passed to
                   :func:`~repro.core.persistence.load_fleet`);
                   :meth:`restore` wires its own through.
    """

    def __init__(self, fleet_factory: Callable[[int, object], object],
                 n_shards: int = 2, broker=None,
                 n_build_workers: Optional[int] = None,
                 max_concurrent_builds: int = 1, policy: str = "fifo",
                 namespace: Optional[str] = None, timeout: float = 60.0,
                 restart: Optional[RestartPolicy] = None,
                 refresher_factory: Optional[Callable[[], object]] = None,
                 detector_factory=None):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if "fork" not in mp.get_all_start_methods():
            raise RuntimeError("ShardedFleet requires the 'fork' start "
                               "method (POSIX)")
        self.n_shards = int(n_shards)
        self.namespace = shm.segment_namespace() if namespace is None \
            else namespace
        self.timeout = float(timeout)
        self._ctx = mp.get_context("fork")
        self._lock = threading.Lock()
        self._closed = False
        self._owns_broker = False
        self._fleet_factory = fleet_factory
        self._restart = restart
        self._restart_policies: Dict[int, RestartPolicy] = {}
        self._restart_counts: Dict[int, int] = {}
        self._restart_log: List[float] = []
        self._quarantined: Set[int] = set()
        self._last_checkpoint: Optional[str] = None
        self._refresher_factory = refresher_factory
        self._detector_factory = detector_factory
        self.broker = broker
        if broker is None and n_build_workers is not None:
            from .broker import BuildBroker
            self.broker = BuildBroker(
                n_ports=self.n_shards, n_workers=n_build_workers,
                max_concurrent_builds=max_concurrent_builds,
                policy=policy, namespace=self.namespace,
                restart=None if restart is None else restart.clone())
            self._owns_broker = True
        self._shards: List[_Shard] = []
        try:
            for index in range(self.n_shards):
                shard = self._spawn_shard(index, fleet_factory)
                kind, payload = self._recv(shard)
                if kind == "fatal":
                    raise payload
                self._shards.append(shard)
        except Exception:
            self._closed = True
            for shard in self._shards:
                shard.process.terminate()
            if self._owns_broker:
                self.broker.shutdown()
            raise

    def _spawn_shard(self, index: int, factory) -> _Shard:
        port = self.broker.port(index) if self.broker is not None else None
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_server_main,
            args=(index, child_conn, factory, port, self.namespace),
            name=f"fleet-shard-{index}", daemon=True)
        process.start()
        child_conn.close()
        return _Shard(index, process, parent_conn)

    # ------------------------------------------------------------------
    # Pipe plumbing
    # ------------------------------------------------------------------
    def _recv(self, shard: _Shard):
        deadline = time.monotonic() + self.timeout
        while not shard.conn.poll(0.05):
            if shard.process.exitcode is not None:
                raise ShardCrashed(
                    f"fleet shard {shard.index} (pid {shard.pid}) died "
                    f"with exit code {shard.process.exitcode}")
            if time.monotonic() > deadline:
                raise ShardCrashed(
                    f"fleet shard {shard.index} (pid {shard.pid}) did "
                    f"not reply within {self.timeout:.0f}s")
        try:
            return shard.conn.recv()
        except (EOFError, OSError) as exc:
            raise ShardCrashed(
                f"fleet shard {shard.index} (pid {shard.pid}) closed "
                f"its pipe mid-reply") from exc

    def _ensure_up_locked(self, index: int) -> None:
        if index in self._quarantined:
            raise ShardCrashed(
                f"fleet shard {index} is quarantined after exhausting "
                f"its restart budget")

    def _revive_locked(self, index: int, error: ShardCrashed) -> _Shard:
        """Respawn a crashed shard within its restart budget, or
        quarantine it.  Caller holds ``self._lock``."""
        if self._restart is None or self._closed:
            raise error
        policy = self._restart_policies.setdefault(index,
                                                   self._restart.clone())
        registry = default_registry()
        if not policy.allow():
            self._quarantined.add(index)
            if registry.enabled:
                registry.counter("repro_shard_quarantined_total").inc()
            raise ShardCrashed(
                f"fleet shard {index} quarantined after "
                f"{policy.max_restarts} restarts within "
                f"{policy.window:.0f}s") from error
        old = self._shards[index]
        if old.process.exitcode is None:
            # Wedged, not dead (reply timeout): make it dead before
            # handing its slice to a replacement.
            old.process.kill()
            old.process.join(5.0)
        try:
            old.conn.close()
        except OSError:
            pass
        shard = self._spawn_shard(index, self._respawn_factory())
        kind, payload = self._recv(shard)
        if kind == "fatal":
            self._quarantined.add(index)
            shard.process.join(1.0)
            raise payload
        self._shards[index] = shard
        self._restart_counts[index] = self._restart_counts.get(index, 0) + 1
        self._restart_log.append(time.monotonic())
        if registry.enabled:
            registry.counter("repro_restarts_total", component="shard").inc()
        return shard

    def _respawn_factory(self):
        """Factory for a replacement shard: reload the shard's slice of
        the last known checkpoint when there is one (crash-consistent —
        updates applied after that checkpoint are lost, like any
        restore), else rebuild from the original factory."""
        checkpoint = self._last_checkpoint
        if checkpoint is None:
            return self._fleet_factory
        refresher_factory = self._refresher_factory
        detector_factory = self._detector_factory

        def factory(index, coordinator):
            from ..core.persistence import load_fleet
            return load_fleet(
                os.path.join(checkpoint, f"shard_{index}"),
                refresher_factory=refresher_factory,
                detector_factory=detector_factory,
                coordinator=coordinator)

        return factory

    def _request(self, index: int, op: str, *args):
        with self._lock:
            if self._closed:
                raise RuntimeError("sharded fleet is shut down")
            self._ensure_up_locked(index)
            shard = self._shards[index]
            try:
                shard.conn.send((op,) + args)
                kind, payload = self._recv(shard)
            except (ShardCrashed, OSError) as exc:
                # Supervised path: respawn and retry the request once on
                # the fresh shard (raises when unsupervised/quarantined).
                crash = exc
                if not isinstance(exc, ShardCrashed):
                    crash = ShardCrashed(
                        f"fleet shard {index} (pid {shard.pid}) closed its "
                        f"pipe mid-request")
                    crash.__cause__ = exc
                shard = self._revive_locked(index, crash)
                shard.conn.send((op,) + args)
                kind, payload = self._recv(shard)
        if kind == "error":
            raise payload
        return payload

    def _scatter(self, ops: Dict[int, tuple],
                 skip_quarantined: bool = False) -> Dict[int, object]:
        """Send every shard its request, then gather every reply —
        shards execute their slices concurrently.  Crashed shards are
        revived (within budget) and their ops retried after the healthy
        replies are in, so one dead shard never loses another's reply."""
        with self._lock:
            if self._closed:
                raise RuntimeError("sharded fleet is shut down")
            indices = sorted(ops)
            if skip_quarantined:
                indices = [i for i in indices
                           if i not in self._quarantined]
            else:
                for index in indices:
                    self._ensure_up_locked(index)
            crashed: Dict[int, ShardCrashed] = {}
            sent: List[int] = []
            for index in indices:
                try:
                    self._shards[index].conn.send(ops[index])
                    sent.append(index)
                except (BrokenPipeError, OSError):
                    crashed[index] = ShardCrashed(
                        f"fleet shard {index} closed its pipe mid-request")
            replies: Dict[int, object] = {}
            errors: List[BaseException] = []
            for index in sent:
                try:
                    kind, payload = self._recv(self._shards[index])
                except ShardCrashed as exc:
                    crashed[index] = exc
                    continue
                if kind == "error":
                    errors.append(payload)
                else:
                    replies[index] = payload
            for index, exc in crashed.items():
                if skip_quarantined and self._restart is None:
                    continue
                try:
                    shard = self._revive_locked(index, exc)
                except ShardCrashed:
                    if skip_quarantined:
                        continue
                    raise
                shard.conn.send(ops[index])
                kind, payload = self._recv(shard)
                if kind == "error":
                    errors.append(payload)
                else:
                    replies[index] = payload
        if errors:
            raise errors[0]
        return replies

    # ------------------------------------------------------------------
    # The StreamFleet-shaped surface
    # ------------------------------------------------------------------
    def shard_of(self, name: str) -> int:
        return shard_for(name, self.n_shards)

    def update(self, name: str, observation):
        return self._request(self.shard_of(name), "update", name,
                             observation)

    def update_batch(self, name: str, observations):
        return self._request(self.shard_of(name), "update_batch", name,
                             observations)

    def update_many(self, batches: Mapping[str, object]
                    ) -> Dict[str, list]:
        return self._scatter_streams("update_many", batches)

    def update_coalesced(self, batches: Mapping[str, object]
                         ) -> Dict[str, list]:
        """Scatter like :meth:`update_many`, but each shard coalesces
        the streams of its slice that share an ensemble into one fused
        scoring call (:meth:`StreamFleet.update_coalesced`).  Coalescing
        never crosses a shard boundary — windows would have to cross
        the pipe — so the fused-group ceiling is the per-shard stream
        count, which is exactly the set sharing a process anyway."""
        return self._scatter_streams("update_coalesced", batches)

    def _scatter_streams(self, op: str, batches: Mapping[str, object]
                         ) -> Dict[str, list]:
        """Split per-stream batches by shard, run ``op`` on every shard
        slice concurrently and merge the per-stream replies."""
        per_shard: Dict[int, dict] = {}
        for name, observations in batches.items():
            per_shard.setdefault(self.shard_of(name), {})[name] = \
                observations
        replies = self._scatter({index: (op, sub)
                                 for index, sub in per_shard.items()})
        merged: Dict[str, list] = {}
        for reply in replies.values():
            merged.update(reply)
        return merged

    def warm_up(self, name: str, series) -> None:
        self._request(self.shard_of(name), "warm_up", name, series)

    @property
    def names(self) -> List[str]:
        replies = self._scatter({index: ("names",)
                                 for index in range(self.n_shards)})
        return sorted(name for names in replies.values() for name in names)

    def __len__(self) -> int:
        return sum(t["n_streams"] for t in self._totals().values())

    def __contains__(self, name: str) -> bool:
        return name in self._request(self.shard_of(name), "names")

    def _totals(self) -> Dict[int, dict]:
        return self._scatter({index: ("totals",)
                              for index in range(self.n_shards)})

    @property
    def total_observations(self) -> int:
        return sum(t["n_observations"] for t in self._totals().values())

    @property
    def total_alerts(self) -> int:
        return sum(t["n_alerts"] for t in self._totals().values())

    def stats(self, names=None) -> list:
        replies = self._scatter({index: ("stats", names)
                                 for index in range(self.n_shards)})
        flat = [stat for stats in replies.values() for stat in stats]
        return sorted(flat, key=lambda stat: stat.name)

    def telemetry(self) -> Dict[str, object]:
        """The whole-fleet view a single-process fleet would produce.

        Per-shard registries merge via
        :func:`repro.obs.merge_snapshots`; stream rows concatenate; the
        coordinator entry appears once (every shard's port reports the
        same broker-global admission counters, so duplicates are
        dropped).  A ``shards`` section records the per-process split.
        """
        replies = self._scatter({index: ("telemetry",)
                                 for index in range(self.n_shards)},
                                skip_quarantined=True)
        views = [replies[index] for index in sorted(replies)]
        totals: Dict[str, int] = {}
        for view in views:
            for key, value in view["totals"].items():
                totals[key] = totals.get(key, 0) + value
        streams = sorted(
            (row for view in views for row in view["streams"]),
            key=lambda row: row["name"])
        coordinator = next((view["coordinator"] for view in views
                            if view["coordinator"] is not None), None)
        return {
            "totals": totals,
            "streams": streams,
            "coordinator": coordinator,
            "metrics": merge_snapshots([view["metrics"]
                                        for view in views]),
            "shards": [{"index": shard.index, "pid": shard.pid,
                        "totals": replies[shard.index]["totals"]}
                       for shard in self._shards
                       if shard.index in replies],
            "supervision": self._supervision_view(),
        }

    def _supervision_view(self) -> Dict[str, object]:
        with self._lock:
            return {
                "restarts": dict(self._restart_counts),
                "quarantined": sorted(self._quarantined),
                "broker": None if self.broker is None
                else getattr(self.broker, "health", lambda: None)(),
            }

    def health(self) -> Dict[str, object]:
        """Supervision health: ``ok`` or ``degraded`` plus the evidence.

        ``degraded`` means the fleet is serving but something needed (or
        needs) attention: a shard restarted within the restart window, a
        shard or the broker is quarantined, or the broker is dead.
        Recoveries surface here — and through ``healthz`` on a
        :class:`~repro.serving.server.DetectionServer` — instead of
        healing silently.
        """
        now = time.monotonic()
        window = self._restart.window if self._restart is not None \
            else float("inf")
        with self._lock:
            recent = sum(1 for t in self._restart_log
                         if now - t <= window)
            quarantined = sorted(self._quarantined)
            restarts = dict(self._restart_counts)
            shards = [{"index": shard.index, "pid": shard.pid,
                       "status": "quarantined" if shard.index
                       in self._quarantined else
                       ("up" if shard.process.exitcode is None
                        else "down"),
                       "restarts": self._restart_counts.get(shard.index,
                                                            0)}
                      for shard in self._shards]
        broker_health = None
        if self.broker is not None:
            health = getattr(self.broker, "health", None)
            broker_health = health() if health is not None else {
                "alive": self.broker.alive()}
        degraded = bool(quarantined) or recent > 0 or (
            broker_health is not None
            and (not broker_health.get("alive", True)
                 or broker_health.get("quarantined", False)
                 or broker_health.get("recent_restarts", 0) > 0))
        return {"state": "degraded" if degraded else "ok",
                "shards": shards, "restarts": restarts,
                "recent_restarts": recent, "quarantined": quarantined,
                "broker": broker_health}

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def checkpoint(self, directory: str) -> str:
        """Save the whole fleet: one ``shard_<i>/`` fleet checkpoint per
        server (written *by* that server — ensembles never cross the
        pipe) plus a parent manifest recording the shard count."""
        os.makedirs(directory, exist_ok=True)
        self._scatter({
            index: ("checkpoint",
                    os.path.join(directory, f"shard_{index}"))
            for index in range(self.n_shards)})
        manifest = {"format_version": SHARDED_FORMAT_VERSION,
                    "n_shards": self.n_shards,
                    "shards": [f"shard_{i}" for i in range(self.n_shards)]}
        path = os.path.join(directory, SHARDED_MANIFEST_NAME)
        # Each shard_<i>/ is already an atomic checkpoint (save_fleet);
        # the manifest is written last, tmp + fsync + rename, so a torn
        # save is a directory without a manifest — restore() refuses it.
        tmp = path + ".saving"
        with open(tmp, "w") as fh:
            json.dump(manifest, fh, indent=2)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        # Supervised respawns reload from the freshest checkpoint.
        self._last_checkpoint = directory
        return path

    @classmethod
    def restore(cls, directory: str,
                refresher_factory: Optional[Callable[[], object]] = None,
                detector_factory=None, **kwargs) -> "ShardedFleet":
        """Rebuild a sharded fleet from :meth:`checkpoint`.

        Each server process loads its own ``shard_<i>/`` checkpoint via
        :func:`repro.core.persistence.load_fleet`; the factories are
        fork-inherited, so they may close over anything.  ``kwargs``
        pass through to the constructor (``broker``,
        ``n_build_workers``, ...); the shard count always comes from the
        manifest.

        The layout is validated up front
        (:func:`repro.core.persistence.validate_sharded_checkpoint`):
        a missing manifest or a missing/partial ``shard_<i>/`` raises
        :class:`~repro.core.persistence.CheckpointError` naming the
        shard before any server process forks.
        """
        from ..core.persistence import validate_sharded_checkpoint
        manifest = validate_sharded_checkpoint(directory)
        if manifest["format_version"] > SHARDED_FORMAT_VERSION:
            raise ValueError(
                f"sharded checkpoint format "
                f"{manifest['format_version']} is newer than this "
                f"code ({SHARDED_FORMAT_VERSION})")

        def factory(index, coordinator):
            from ..core.persistence import load_fleet
            return load_fleet(
                os.path.join(directory, f"shard_{index}"),
                refresher_factory=refresher_factory,
                detector_factory=detector_factory,
                coordinator=coordinator)

        kwargs.setdefault("refresher_factory", refresher_factory)
        kwargs.setdefault("detector_factory", detector_factory)
        fleet = cls(factory, n_shards=manifest["n_shards"], **kwargs)
        fleet._last_checkpoint = directory
        return fleet

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def worker_pids(self) -> List[int]:
        """Pids of the server processes (not the broker's)."""
        return [shard.pid for shard in self._shards]

    def alive(self) -> bool:
        return all(shard.process.exitcode is None
                   for shard in self._shards)

    def shutdown(self, timeout: float = 10.0) -> None:
        """Stop every shard (graceful, then terminate) and the owned
        broker, if any.  Idempotent; leaked shm is swept last."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for shard in self._shards:
                if shard.process.exitcode is not None:
                    continue
                try:
                    shard.conn.send(("shutdown",))
                except (BrokenPipeError, OSError):
                    pass
        deadline = time.monotonic() + timeout
        for shard in self._shards:
            shard.process.join(max(0.0, deadline - time.monotonic()))
            if shard.process.exitcode is None:
                shard.process.terminate()
                shard.process.join(1.0)
            shard.conn.close()
        if self._owns_broker and self.broker is not None:
            self.broker.shutdown(timeout=timeout)
        shm.sweep_orphans(self.namespace)
