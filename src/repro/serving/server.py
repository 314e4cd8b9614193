"""The networked detection front-end: :class:`DetectionServer`.

An asyncio TCP server that turns a :class:`~repro.streaming.multi
.StreamFleet` (or a multi-process :class:`~repro.runtime.fleet
.ShardedFleet`) into the production service the ROADMAP describes:
observations arrive over length-prefixed JSON frames
(:mod:`repro.serving.protocol`), route to named streams, and — the
headline mechanism — updates that arrive concurrently for *different
streams sharing one ensemble* are **coalesced into a single fused
batched scoring call** instead of per-stream serial calls.

How coalescing works
--------------------
Every scoring request lands in one bounded queue.  A single dispatcher
task drains the queue in flushes: each flush merges the pending
requests into one per-stream batch map and hands it to
``fleet.update_coalesced`` — which stacks the windows of every stream
sharing an ensemble into one ``score_windows_last`` call (see
:meth:`~repro.streaming.multi.StreamFleet.update_coalesced`).  Because
scoring a flush takes real time, the *next* flush's requests pile up
behind it — natural batching: the busier the service, the larger the
fused batches, with zero added latency when idle.

Results are bit-identical to per-stream serial calls — the coalesced
path shares the exact prepare/apply code of ``update_batch`` and
per-window scores are independent of what else shares the stack.

Backpressure
------------
The queue is bounded (``max_pending``): a request that would overflow
it is answered ``{"status": "overloaded"}`` immediately — the client
retries with backoff — rather than buffered without bound.  Refresh
admission state feeds in too: when the fleet's coordinator/broker has
more queued builds than ``max_queued_builds`` allows, scoring requests
are likewise refused as overloaded (drift storms make scoring slower
*and* build queues deep; shedding load early keeps p99 honest).

Shutdown
--------
``stop()`` drains: the listener closes, every request already admitted
to the queue is scored and answered, late arrivals get
``{"status": "draining"}``, the fleet is checkpointed (when
``checkpoint_dir`` is configured) and connections close.  Nothing
admitted is ever dropped.

Threading
---------
All fleet access runs on one scoring lane, one thread at a time — the
fleet objects are not thread-safe.  For an in-process
:class:`~repro.streaming.multi.StreamFleet` the lane is the event-loop
thread itself: a flush scores inline, so no request pays a hop to
another thread and back, nor the GIL handoffs between that thread and
the loop.  Frames that arrive during a flush wait in the socket and are
read before the next one, so coalescing is unchanged.  Any other fleet
(a :class:`~repro.runtime.fleet.ShardedFleet`, whose calls wait on shard
pipes, or a duck-typed stand-in) keeps a one-worker executor thread as
its lane, which leaves the loop free to answer ``request_timeout``
while a shard is wedged.  A served ``StreamFleet`` should refresh with
``refresh_mode="async"``: an inline refresh build holds the event loop
for the build's duration.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import dataclasses
import time
from collections import deque
from typing import Deque, Dict, List, Optional

import numpy as np

from .. import faults
from ..metrics.events import fleet_refresh_report_from_registry
from ..obs import default_registry, render_prometheus
from ..streaming.multi import StreamFleet
from .protocol import (FrameError, read_frame, render_update,
                       write_frame)

__all__ = ["DetectionServer", "ServerClosed"]


class ServerClosed(RuntimeError):
    """An operation reached a server that has already been stopped."""


class _ServingTelemetry:
    """The server's cached instruments (see ``docs/serving.md``)."""

    __slots__ = ("enabled", "requests", "responses", "request_seconds",
                 "queue_depth", "dispatch_batch", "open_connections")

    def __init__(self, registry):
        self.enabled = registry.enabled
        self.requests = {
            op: registry.counter("repro_serving_requests_total", op=op)
            for op in ("update", "update_batch", "warm_up", "metrics",
                       "healthz", "telemetry")}
        self.responses = {
            status: registry.counter("repro_serving_responses_total",
                                     status=status)
            for status in ("ok", "overloaded", "draining", "timeout",
                           "error")}
        self.request_seconds = registry.histogram(
            "repro_serving_request_seconds")
        self.queue_depth = registry.gauge("repro_serving_queue_depth")
        self.dispatch_batch = registry.histogram(
            "repro_serving_dispatch_batch_requests", low=1.0, high=1e5,
            buckets_per_decade=4)
        self.open_connections = registry.gauge(
            "repro_serving_open_connections")

    def count_request(self, op: str) -> None:
        counter = self.requests.get(op)
        if counter is not None:
            counter.inc()

    def count_response(self, status: str) -> None:
        counter = self.responses.get(status)
        if counter is not None:
            counter.inc()


@dataclasses.dataclass
class _Pending:
    """One admitted scoring request awaiting a dispatcher flush."""
    stream: str
    observations: np.ndarray
    future: asyncio.Future
    enqueued: float


class DetectionServer:
    """Serve a stream fleet over TCP with cross-stream coalescing.

    Parameters
    ----------
    fleet:            a :class:`~repro.streaming.multi.StreamFleet` or
                      :class:`~repro.runtime.fleet.ShardedFleet` (any
                      object with ``update_batch``/``update_many``/
                      ``warm_up``/``telemetry``; coalescing engages when
                      it also has ``update_coalesced``).  The server
                      borrows the fleet — it never shuts it down.  A
                      ``StreamFleet`` is scored on the event-loop
                      thread, any other fleet on a one-worker lane
                      thread (module docstring).
    host, port:       bind address; ``port=0`` picks an ephemeral port,
                      readable from :attr:`port` after :meth:`start`.
    coalesce:         ``False`` scores every request in its own
                      per-stream serial call (the baseline the bench
                      compares against); coalescing is on by default.
    max_coalesce:     cap on requests per flush (bounds one fused
                      call's memory).
    max_pending:      bound on queued-but-unscored requests; the
                      ``overloaded`` backpressure threshold.
    max_queued_builds: when set and the fleet's refresh coordinator
                      reports more than this many queued builds,
                      scoring requests are refused as ``overloaded``
                      (admission-state backpressure).
    request_timeout:  when set, a per-request deadline in seconds: a
                      scoring request still unanswered after this long
                      (e.g. a wedged shard being respawned under it)
                      returns ``{"status": "timeout"}`` instead of
                      blocking its connection forever.  The underlying
                      flush keeps running — a late result is simply
                      dropped; every admitted request is answered
                      exactly once either way.  A deadline can fire
                      mid-flush only on a lane fleet; an inline
                      ``StreamFleet`` flush holds the loop until it
                      returns.
    checkpoint_dir:   when set, :meth:`stop` checkpoints the fleet here
                      after the drain.
    registry:         metrics registry (``None`` binds the process
                      default).
    """

    def __init__(self, fleet, host: str = "127.0.0.1", port: int = 0,
                 coalesce: bool = True, max_coalesce: int = 1024,
                 max_pending: int = 4096,
                 max_queued_builds: Optional[int] = None,
                 request_timeout: Optional[float] = None,
                 checkpoint_dir: Optional[str] = None, registry=None):
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        if max_coalesce < 1:
            raise ValueError(f"max_coalesce must be >= 1, "
                             f"got {max_coalesce}")
        if request_timeout is not None and request_timeout <= 0:
            raise ValueError(f"request_timeout must be > 0, "
                             f"got {request_timeout}")
        self.fleet = fleet
        self.host = host
        self._requested_port = port
        self.coalesce = bool(coalesce)
        self.max_coalesce = int(max_coalesce)
        self.max_pending = int(max_pending)
        self.max_queued_builds = max_queued_builds
        self.request_timeout = None if request_timeout is None \
            else float(request_timeout)
        self.checkpoint_dir = checkpoint_dir
        self._registry = registry if registry is not None \
            else default_registry()
        self._obs = _ServingTelemetry(self._registry)
        self._queue: Deque[_Pending] = deque()
        self._queue_event: Optional[asyncio.Event] = None
        self._depth_waiters: List = []     # (threshold, future)
        self._hold: Optional[asyncio.Event] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._connections: set = set()
        self._draining = False
        self._stopped = False
        # An in-process fleet scores on the loop thread; anything else
        # gets its own one-worker lane (see the module docstring).
        self._executor = None if isinstance(fleet, StreamFleet) \
            else concurrent.futures.ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="serving-fleet")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "DetectionServer":
        """Bind, start the listener and the dispatcher; returns self."""
        if self._server is not None or self._stopped:
            raise ServerClosed("start() may be called once")
        self._queue_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port)
        self._dispatcher = asyncio.create_task(self._dispatch_loop(),
                                               name="serving-dispatcher")
        return self

    @property
    def port(self) -> int:
        """The bound TCP port (resolves ``port=0`` ephemeral binds)."""
        if self._server is None:
            raise ServerClosed("server is not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def draining(self) -> bool:
        return self._draining

    async def stop(self) -> None:
        """Graceful drain: answer everything admitted, then close.

        Stops accepting connections, flushes the request queue (every
        already-admitted request is scored and answered; late requests
        get ``draining``), checkpoints the fleet when
        ``checkpoint_dir`` is configured, then closes the remaining
        client connections.  Idempotent.
        """
        if self._stopped:
            return
        self._stopped = True
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Drain overrides a test hold: everything admitted must answer.
        if self._hold is not None:
            self._hold.set()
        if self._queue_event is not None:
            self._queue_event.set()
        if self._dispatcher is not None:
            await self._dispatcher
        if self.checkpoint_dir is not None:
            await self._run_on_fleet(self._checkpoint)
        for writer in list(self._connections):
            writer.close()
        for writer in list(self._connections):
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._connections.clear()
        if self._executor is not None:
            self._executor.shutdown(wait=True)

    def _checkpoint(self) -> None:
        checkpoint = getattr(self.fleet, "checkpoint", None)
        if checkpoint is not None:          # ShardedFleet saves per shard
            checkpoint(self.checkpoint_dir)
            return
        from ..core.persistence import save_fleet
        save_fleet(self.fleet, self.checkpoint_dir)

    # ------------------------------------------------------------------
    # Deterministic-test hooks (no sleeps anywhere in the tests)
    # ------------------------------------------------------------------
    def pause_dispatch(self) -> None:
        """Hold the dispatcher before its next flush (test hook): queued
        requests accumulate until :meth:`resume_dispatch`.  A drain
        (:meth:`stop`) overrides the hold."""
        if self._hold is None:
            self._hold = asyncio.Event()
        else:
            self._hold.clear()

    def resume_dispatch(self) -> None:
        """Release a :meth:`pause_dispatch` hold."""
        if self._hold is not None:
            self._hold.set()

    async def wait_for_queue_depth(self, depth: int) -> None:
        """Await the queue holding at least ``depth`` requests (test
        hook for gated, sleep-free coalescing assertions)."""
        if len(self._queue) >= depth:
            return
        future = asyncio.get_running_loop().create_future()
        self._depth_waiters.append((depth, future))
        await future

    def _notify_depth(self) -> None:
        if not self._depth_waiters:
            return
        depth = len(self._queue)
        still = []
        for threshold, future in self._depth_waiters:
            if depth >= threshold and not future.done():
                future.set_result(None)
            elif not future.done():
                still.append((threshold, future))
        self._depth_waiters = still

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        self._connections.add(writer)
        if self._obs.enabled:
            self._obs.open_connections.inc()
        try:
            while True:
                try:
                    request = await read_frame(reader)
                except FrameError as exc:
                    await self._respond(writer, {"status": "error",
                                                 "error": str(exc)})
                    break
                if request is None:
                    break
                response = await self._handle_request(request)
                response["id"] = request.get("id")
                try:
                    await self._respond(writer, response)
                except (ConnectionError, OSError):
                    break
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections.discard(writer)
            if self._obs.enabled:
                self._obs.open_connections.dec()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _respond(self, writer, response: dict) -> None:
        self._obs.count_response(response.get("status", "error"))
        await write_frame(writer, response)

    async def _handle_request(self, request: dict) -> dict:
        op = request.get("op")
        self._obs.count_request(op if isinstance(op, str) else "")
        try:
            if op == "update":
                return await self._score(request, "observation",
                                         single=True)
            if op == "update_batch":
                return await self._score(request, "observations",
                                         single=False)
            if op == "warm_up":
                return await self._warm_up(request)
            if op == "metrics":
                return self._metrics()
            if op == "healthz":
                return self._healthz()
            if op == "telemetry":
                telemetry = await self._run_on_fleet(
                    self.fleet.telemetry)
                return {"status": "ok", "telemetry": telemetry}
            return {"status": "error", "error": f"unknown op {op!r}"}
        except Exception as exc:                # noqa: BLE001 — one bad
            #                                     request must not kill
            #                                     the connection loop
            return {"status": "error",
                    "error": f"{type(exc).__name__}: {exc}"}

    async def _run_on_fleet(self, fn, *args):
        """Run a fleet-touching call on the scoring lane: inline on the
        loop thread for a ``StreamFleet``, else on the lane's thread."""
        if self._executor is None:
            return fn(*args)
        return await asyncio.get_running_loop().run_in_executor(
            self._executor, fn, *args)

    # ------------------------------------------------------------------
    # Scoring path
    # ------------------------------------------------------------------
    def _parse_observations(self, request: dict, key: str,
                            single: bool) -> np.ndarray:
        raw = request.get(key)
        if raw is None:
            raise ValueError(f"{request.get('op')} requires {key!r}")
        observations = np.asarray(raw, dtype=np.float64)
        if single:
            if observations.ndim != 1:
                raise ValueError(f"observation must be one (D,) row, "
                                 f"got shape {observations.shape}")
            observations = observations[None]
        elif observations.ndim != 2:
            raise ValueError(f"observations must be (B, D), got shape "
                             f"{observations.shape}")
        return observations

    async def _score(self, request: dict, key: str, single: bool) -> dict:
        stream = request.get("stream")
        if not isinstance(stream, str) or not stream:
            raise ValueError("a scoring request needs a stream name")
        observations = self._parse_observations(request, key, single)
        if self._draining:
            return {"status": "draining"}
        if len(self._queue) >= self.max_pending \
                or self._builds_backlogged():
            return {"status": "overloaded",
                    "queue_depth": len(self._queue)}
        pending = _Pending(stream=stream, observations=observations,
                           future=asyncio.get_running_loop()
                           .create_future(),
                           enqueued=time.perf_counter())
        self._queue.append(pending)
        if self._obs.enabled:
            self._obs.queue_depth.set(len(self._queue))
        self._notify_depth()
        self._queue_event.set()
        if self.request_timeout is None:
            updates = await pending.future
        else:
            try:
                updates = await asyncio.wait_for(pending.future,
                                                 self.request_timeout)
            except asyncio.TimeoutError:
                # wait_for cancelled the future; the dispatcher skips
                # done futures, so a late result is dropped, not raised.
                return {"status": "timeout",
                        "timeout": self.request_timeout}
        if self._obs.enabled:
            self._obs.request_seconds.observe(
                time.perf_counter() - pending.enqueued)
        results = [render_update(update) for update in updates]
        response = {"status": "ok", "results": results}
        if single and results:
            response["result"] = results[0]
        return response

    def _builds_backlogged(self) -> bool:
        """Admission-state backpressure: refuse scoring work while the
        refresh build queue is deeper than the configured bound."""
        if self.max_queued_builds is None:
            return False
        coordinator = getattr(self.fleet, "coordinator", None)
        if coordinator is None:
            return False
        return coordinator.stats().n_queued > self.max_queued_builds

    async def _warm_up(self, request: dict) -> dict:
        stream = request.get("stream")
        if not isinstance(stream, str) or not stream:
            raise ValueError("warm_up needs a stream name")
        series = np.asarray(request.get("series"), dtype=np.float64)
        if series.ndim != 2:
            raise ValueError(f"warm_up series must be (L, D), got "
                             f"shape {series.shape}")
        if self._draining:
            return {"status": "draining"}
        await self._run_on_fleet(self.fleet.warm_up, stream, series)
        return {"status": "ok", "rows": int(series.shape[0])}

    # ------------------------------------------------------------------
    # Introspection ops
    # ------------------------------------------------------------------
    def _metrics(self) -> dict:
        coordinator = getattr(self.fleet, "coordinator", None)
        report = fleet_refresh_report_from_registry(
            self._registry,
            max_concurrent_builds=getattr(coordinator,
                                          "max_concurrent_builds", 0))
        return {
            "status": "ok",
            "content_type": "text/plain; version=0.0.4",
            "body": render_prometheus(self._registry),
            "refresh_report": dict(
                dataclasses.asdict(report),
                builds_saved=report.builds_saved,
                dedup_ratio=report.dedup_ratio),
        }

    def _healthz(self) -> dict:
        coordinator = getattr(self.fleet, "coordinator", None)
        fleet_health = None
        health = getattr(self.fleet, "health", None)
        if callable(health):
            try:
                fleet_health = health()
            except Exception as exc:            # noqa: BLE001 — health
                #                                 must answer even when
                #                                 the fleet is wedged
                fleet_health = {"state": "degraded",
                                "error": f"{type(exc).__name__}: {exc}"}
        state = "ok"
        if self._stopped or (fleet_health is not None
                             and fleet_health.get("state") != "ok"):
            state = "degraded"
        return {
            "status": "ok",
            "state": state,
            "healthy": not self._stopped,
            "draining": self._draining,
            "queue_depth": len(self._queue),
            "coalesce": self.coalesce,
            "max_pending": self.max_pending,
            "fleet": fleet_health,
            "coordinator": dataclasses.asdict(coordinator.stats())
            if coordinator is not None else None,
        }

    # ------------------------------------------------------------------
    # The dispatcher: one task, one flush at a time
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        while True:
            if not self._queue:
                if self._draining:
                    break
                self._queue_event.clear()
                await self._queue_event.wait()
                continue
            if self._hold is not None and not self._hold.is_set():
                # Test hook: requests accumulate until resumed (or a
                # drain overrides the hold).
                await self._hold.wait()
            flush: List[_Pending] = []
            while self._queue and len(flush) < self.max_coalesce:
                flush.append(self._queue.popleft())
            if self._obs.enabled:
                self._obs.queue_depth.set(len(self._queue))
                self._obs.dispatch_batch.observe(len(flush))
            try:
                answers = await self._run_on_fleet(self._score_flush,
                                                   flush)
            except Exception as exc:            # noqa: BLE001 — a flush
                #                                 failure answers every
                #                                 member, never kills
                #                                 the dispatcher
                for pending in flush:
                    if not pending.future.done():
                        pending.future.set_exception(
                            RuntimeError(f"scoring failed: {exc}"))
                continue
            for pending, updates in zip(flush, answers):
                if pending.future.done():
                    # Deadline expired: the request already answered
                    # ``timeout`` — drop the late result.
                    continue
                if isinstance(updates, Exception):
                    pending.future.set_exception(updates)
                else:
                    pending.future.set_result(updates)
            if self._queue:
                # An inline flush never yields: let this flush's replies
                # go out (and new frames in) before the next one scores.
                await asyncio.sleep(0)

    def _validate_against_stream(self, per_stream: Dict[str, List[_Pending]],
                                 answers: Dict[int, object]) -> None:
        """Reject requests whose width cannot fit their stream.

        Runs on the scoring lane, like every fleet call (detector
        resolution lazily creates streams, so it must not race a
        flush).  Shape mismatches must be answered *before* the fused
        call: ``update_coalesced`` mutates stream buffers as it
        prepares, so a mid-batch failure cannot be retried per-stream
        without double-ingesting the already-prepared rows.
        """
        for stream, members in list(per_stream.items()):
            try:
                detector = self.fleet.detector(stream)
            except AttributeError:
                return                     # sharded fleets check remotely
            expected = detector.ensemble.cae_config.input_dim
            kept = []
            for pending in members:
                if pending.observations.shape[1] != expected:
                    answers[id(pending)] = ValueError(
                        f"stream {stream!r} expects "
                        f"(B, {expected}) observations, got "
                        f"{pending.observations.shape}")
                else:
                    kept.append(pending)
            if kept:
                per_stream[stream] = kept
            else:
                del per_stream[stream]

    def _score_flush(self, flush: List[_Pending]) -> list:
        """Score one flush on the scoring lane.

        Requests merge into one per-stream batch map — several requests
        for the *same* stream concatenate in arrival order and split
        back afterwards — then a single ``update_coalesced`` call
        scores every stream, fusing the ones that share an ensemble.
        Per-request shape failures answer only their own requests; a
        failure inside the fused call itself answers the whole flush
        (buffers were already touched — partial retry would
        double-ingest).
        """
        if faults.enabled:
            faults.point("serving.flush")
        per_stream: Dict[str, List[_Pending]] = {}
        for pending in flush:
            per_stream.setdefault(pending.stream, []).append(pending)
        answers: Dict[int, object] = {}
        self._validate_against_stream(per_stream, answers)
        if self.coalesce and per_stream:
            batches = {}
            for stream, members in per_stream.items():
                batches[stream] = members[0].observations \
                    if len(members) == 1 else np.concatenate(
                        [pending.observations for pending in members])
            updater = getattr(self.fleet, "update_coalesced",
                              self.fleet.update_many)
            results = updater(batches)
            for stream, members in per_stream.items():
                updates = results[stream]
                offset = 0
                for pending in members:
                    count = pending.observations.shape[0]
                    answers[id(pending)] = updates[offset:offset + count]
                    offset += count
        elif per_stream:
            for stream, members in per_stream.items():
                for pending in members:
                    try:
                        answers[id(pending)] = self.fleet.update_batch(
                            stream, pending.observations)
                    except Exception as exc:    # noqa: BLE001
                        answers[id(pending)] = exc
        return [answers[id(pending)] for pending in flush]
