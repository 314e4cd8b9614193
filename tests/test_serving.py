"""Deterministic battery for the serving front-end (``repro.serving``).

Every asyncio test is gated on events and awaited futures — the server's
``pause_dispatch`` / ``wait_for_queue_depth`` / ``resume_dispatch``
hooks make coalescing observable without a single sleep: hold the
dispatcher, land N concurrent requests in the queue, release, and the
flush *must* fuse them.  Sockets always bind ephemeral ports (the
server's ``port=0`` default, plus the ``free_tcp_port`` conftest helper
where a port must be known up front), so parallel runs never collide.
"""

import asyncio
import os
import threading

import numpy as np
import pytest

from tests.conftest import free_tcp_port, sine_regime
from repro import obs
from repro.serving import (DetectionServer, FrameError, ServingClient,
                           encode_frame, split_frames)
from repro.serving.protocol import (MAX_FRAME_BYTES, decode_payload,
                                    render_update)
from repro.streaming import DDMDrift, EnsembleRefresher, shared_fleet

WINDOW = 8          # the stream_ensemble fixture's window length


# ----------------------------------------------------------------------
# Protocol (sans-IO — no sockets, no loop)
# ----------------------------------------------------------------------
def test_frame_roundtrip_and_incremental_split():
    payloads = [{"op": "healthz", "id": index} for index in range(3)]
    wire = b"".join(encode_frame(payload) for payload in payloads)
    # Feed the buffer byte by byte: messages must pop out exactly at
    # frame boundaries and the tail must carry over in between.
    seen, buffer = [], b""
    for index in range(len(wire)):
        buffer += wire[index:index + 1]
        messages, buffer = split_frames(buffer)
        seen.extend(messages)
    assert seen == payloads
    assert buffer == b""


def test_frame_errors():
    with pytest.raises(FrameError):
        decode_payload(b"not json")
    with pytest.raises(FrameError):
        decode_payload(b"[1, 2]")            # JSON but not an object
    oversize = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
    with pytest.raises(FrameError):
        split_frames(oversize + b"x")
    with pytest.raises((FrameError, ValueError)):
        encode_frame({"bad": float("nan")})  # NaN never hits the wire


# ----------------------------------------------------------------------
# Server scaffolding
# ----------------------------------------------------------------------
def make_fleet(stream_ensemble, streams, warm_rows=64, **fleet_kwargs):
    fleet = shared_fleet(stream_ensemble, history=256, **fleet_kwargs)
    series = sine_regime(warm_rows, seed=7)
    for name in streams:
        fleet.warm_up(name, series)
    return fleet


async def serve(fleet, **server_kwargs):
    server = DetectionServer(fleet, **server_kwargs)
    await server.start()
    return server


async def connect_clients(server, count):
    return [await ServingClient.connect("127.0.0.1", server.port)
            for _ in range(count)]


async def close_all(server, clients):
    for client in clients:
        await client.close()
    await server.stop()


# ----------------------------------------------------------------------
# The acceptance battery
# ----------------------------------------------------------------------
def test_coalesces_concurrent_streams_into_one_fused_batch(stream_ensemble):
    """N concurrent single-observation updates for N streams sharing an
    ensemble must score in ONE fused call: the coalesce-size histogram
    records a batch of N, and every request is answered ``ok``."""
    registry = obs.MetricsRegistry()
    obs.set_default_registry(registry)
    streams = [f"s{index}" for index in range(6)]

    async def scenario():
        fleet = make_fleet(stream_ensemble, streams)
        server = await serve(fleet)
        clients = await connect_clients(server, len(streams))
        row = sine_regime(1, start=64, seed=7)[0]
        server.pause_dispatch()
        tasks = [asyncio.create_task(client.update(name, row))
                 for name, client in zip(streams, clients)]
        await server.wait_for_queue_depth(len(streams))
        server.resume_dispatch()
        replies = await asyncio.gather(*tasks)
        await close_all(server, clients)
        return replies

    replies = asyncio.run(scenario())
    assert all(reply["status"] == "ok" for reply in replies)
    assert all(len(reply["results"]) == 1 for reply in replies)
    fused = registry.histogram("repro_fleet_coalesce_size", low=1.0,
                               high=1e4, buckets_per_decade=4)
    assert fused.count >= 1
    assert fused.max >= len(streams)     # all six fused into one call
    dispatch = registry.histogram("repro_serving_dispatch_batch_requests",
                                  low=1.0, high=1e5, buckets_per_decade=4)
    assert dispatch.max >= len(streams)


def test_coalesced_results_bit_identical_to_serial(stream_ensemble):
    """The whole point of the two-phase split: updates served through
    coalesced flushes equal serial per-stream ``update_batch`` calls
    bit for bit (scores, thresholds, alerts, indexes)."""
    streams = [f"s{index}" for index in range(4)]
    ticks = sine_regime(10, start=64, seed=7)

    async def scenario():
        fleet = make_fleet(stream_ensemble, streams)
        server = await serve(fleet)
        clients = await connect_clients(server, len(streams))
        served = {name: [] for name in streams}
        for row in ticks:
            server.pause_dispatch()
            tasks = [asyncio.create_task(client.update(name, row))
                     for name, client in zip(streams, clients)]
            await server.wait_for_queue_depth(len(streams))
            server.resume_dispatch()
            for name, reply in zip(streams, await asyncio.gather(*tasks)):
                assert reply["status"] == "ok"
                served[name].append(reply["result"])
        await close_all(server, clients)
        return served

    served = asyncio.run(scenario())

    serial_fleet = make_fleet(stream_ensemble, streams)
    for name in streams:
        for tick, row in enumerate(ticks):
            [update] = serial_fleet.update_batch(name, row[None])
            over_wire = served[name][tick]
            assert over_wire["index"] == update.index
            assert over_wire["score"] == update.score      # exact
            assert over_wire["threshold"] == update.threshold
            assert over_wire["alert"] == bool(update.alert)


# ----------------------------------------------------------------------
# The scoring lane: the loop thread for a StreamFleet, a worker otherwise
# ----------------------------------------------------------------------
def serving_lanes():
    return [thread.name for thread in threading.enumerate()
            if thread.name.startswith("serving-fleet")]


def test_stream_fleet_scores_on_the_event_loop_thread(stream_ensemble):
    """An in-process fleet is scored inline: every ``update_coalesced``
    runs on the event loop's own thread, and no ``serving-fleet`` lane
    thread is ever started."""
    streams = ["a", "b"]
    ticks = sine_regime(3, start=64, seed=7)

    async def scenario():
        fleet = make_fleet(stream_ensemble, streams)
        seen = []
        coalesced = fleet.update_coalesced

        def spy(batches):
            seen.append(threading.get_ident())
            return coalesced(batches)

        fleet.update_coalesced = spy
        server = await serve(fleet)
        clients = await connect_clients(server, len(streams))
        for row in ticks:
            replies = await asyncio.gather(*[
                client.update(name, row)
                for name, client in zip(streams, clients)])
            assert all(reply["status"] == "ok" for reply in replies)
        lanes = serving_lanes()
        await close_all(server, clients)
        return threading.get_ident(), seen, lanes

    loop_thread, seen, lanes = asyncio.run(scenario())
    assert len(seen) >= len(ticks)
    assert set(seen) == {loop_thread}
    assert lanes == []


def test_inline_flush_answers_before_the_next_flush(stream_ensemble):
    """An inline flush never yields, so with a backlog the dispatcher
    yields once between flushes: the first flush's reply has gone out
    before the second flush scores (as it does with a lane thread)."""
    registry = obs.MetricsRegistry()
    answered = registry.counter("repro_serving_responses_total",
                                status="ok")

    async def scenario():
        fleet = make_fleet(stream_ensemble, ["a", "b"])
        seen = []
        coalesced = fleet.update_coalesced

        def spy(batches):
            seen.append(answered.value)
            return coalesced(batches)

        fleet.update_coalesced = spy
        server = await serve(fleet, max_coalesce=1, registry=registry)
        clients = await connect_clients(server, 2)
        row = sine_regime(1, start=64, seed=7)[0]
        server.pause_dispatch()
        tasks = []
        for depth, (name, client) in enumerate(zip("ab", clients), 1):
            tasks.append(asyncio.create_task(client.update(name, row)))
            await server.wait_for_queue_depth(depth)
        server.resume_dispatch()
        replies = await asyncio.gather(*tasks)
        await close_all(server, clients)
        return seen, replies

    seen, replies = asyncio.run(scenario())
    assert all(reply["status"] == "ok" for reply in replies)
    assert seen == [0, 1]


def test_other_fleets_keep_a_lane_thread():
    """Any fleet that is not a ``StreamFleet`` (a ``ShardedFleet``, a
    duck-typed stand-in) is scored on the one-worker lane thread."""
    from tests.test_chaos import BlockingFleet
    fleet = BlockingFleet()
    fleet.block_next = False
    threads = []
    coalesced = fleet.update_coalesced

    def spy(batches):
        threads.append(threading.current_thread().name)
        return coalesced(batches)

    fleet.update_coalesced = spy

    async def scenario():
        server = await serve(fleet)
        [client] = await connect_clients(server, 1)
        reply = await client.update_batch("stub", sine_regime(2, seed=1))
        await close_all(server, [client])
        return reply

    assert asyncio.run(scenario())["status"] == "ok"
    assert len(threads) == 1
    assert threads[0].startswith("serving-fleet")
    assert serving_lanes() == []          # the lane stopped with the server


def test_inline_refresh_fleet_served_bit_identical_to_serial(
        stream_ensemble):
    """A served fleet with ``refresh_mode="inline"`` builds its
    replacement ensemble on the loop thread mid-serving; every reply
    still equals the serial ``update_batch`` run, refresh included."""
    streams = ["calm", "shifted"]

    def fleet():
        return make_fleet(
            stream_ensemble, streams, warm_rows=7,
            drift_factory=lambda: DDMDrift(min_samples=15),
            refresher_factory=lambda: EnsembleRefresher(
                min_history=64, epochs_per_model=1))

    def traffic(name, tick):
        rows = sine_regime(12, start=7 + 12 * tick, seed=7)
        return rows + 2.5 if name == "shifted" and tick >= 4 else rows

    ticks = range(14)

    async def scenario():
        served_fleet = fleet()
        server = await serve(served_fleet)
        clients = await connect_clients(server, len(streams))
        served = {name: [] for name in streams}
        for tick in ticks:
            replies = await asyncio.gather(*[
                client.update_batch(name, traffic(name, tick))
                for name, client in zip(streams, clients)])
            for name, reply in zip(streams, replies):
                assert reply["status"] == "ok"
                served[name].extend(reply["results"])
        await close_all(server, clients)
        return served, served_fleet.detector("shifted").n_refreshes

    served, refreshes = asyncio.run(scenario())
    assert refreshes >= 1
    serial_fleet = fleet()
    for name in streams:
        serial = [render_update(update) for tick in ticks
                  for update in serial_fleet.update_batch(
                      name, traffic(name, tick))]
        assert served[name] == serial                     # exact
    assert serial_fleet.detector("shifted").n_refreshes == refreshes


def test_same_stream_requests_merge_in_arrival_order(stream_ensemble):
    """Two concurrent requests for ONE stream concatenate in arrival
    order inside the flush and split back to their own replies."""

    async def scenario():
        fleet = make_fleet(stream_ensemble, ["solo"])
        server = await serve(fleet)
        first, second = await connect_clients(server, 2)
        rows = sine_regime(2, start=64, seed=7)
        server.pause_dispatch()
        task_one = asyncio.create_task(first.update("solo", rows[0]))
        await server.wait_for_queue_depth(1)
        task_two = asyncio.create_task(second.update("solo", rows[1]))
        await server.wait_for_queue_depth(2)
        server.resume_dispatch()
        replies = await asyncio.gather(task_one, task_two)
        await close_all(server, [first, second])
        return replies

    reply_one, reply_two = asyncio.run(scenario())
    assert reply_one["status"] == reply_two["status"] == "ok"
    # Arrival order survives the merge: indexes are consecutive.
    assert reply_two["result"]["index"] == \
        reply_one["result"]["index"] + 1


def test_backpressure_returns_overloaded(stream_ensemble):
    """A full pending queue answers ``overloaded`` immediately instead
    of buffering; the queued requests still score once released."""
    registry = obs.MetricsRegistry()
    obs.set_default_registry(registry)

    async def scenario():
        fleet = make_fleet(stream_ensemble, ["a", "b", "c"])
        server = await serve(fleet, max_pending=2)
        clients = await connect_clients(server, 3)
        row = sine_regime(1, start=64, seed=7)[0]
        server.pause_dispatch()
        queued = [asyncio.create_task(client.update(name, row))
                  for name, client in zip("ab", clients)]
        await server.wait_for_queue_depth(2)
        shed = await clients[2].update("c", row)     # queue is full now
        server.resume_dispatch()
        admitted = await asyncio.gather(*queued)
        await close_all(server, clients)
        return shed, admitted

    shed, admitted = asyncio.run(scenario())
    assert shed["status"] == "overloaded"
    assert shed["queue_depth"] == 2
    assert all(reply["status"] == "ok" for reply in admitted)
    assert registry.counter("repro_serving_responses_total",
                            status="overloaded").value == 1


def test_graceful_shutdown_answers_all_in_flight(stream_ensemble):
    """``stop()`` drains: every admitted request is scored and answered
    (a drain overrides a dispatcher hold), then the listener refuses
    new connections."""
    streams = ["a", "b", "c"]

    async def scenario():
        fleet = make_fleet(stream_ensemble, streams)
        server = await serve(fleet)
        clients = await connect_clients(server, len(streams))
        row = sine_regime(1, start=64, seed=7)[0]
        server.pause_dispatch()
        tasks = [asyncio.create_task(client.update(name, row))
                 for name, client in zip(streams, clients)]
        await server.wait_for_queue_depth(len(streams))
        port = server.port
        await server.stop()                  # drain with the hold on
        replies = await asyncio.gather(*tasks)
        refused = None
        try:
            await ServingClient.connect("127.0.0.1", port)
        except OSError as exc:
            refused = exc
        for client in clients:
            await client.close()
        return replies, refused

    replies, refused = asyncio.run(scenario())
    assert all(reply["status"] == "ok" for reply in replies)
    assert refused is not None


def test_draining_rejects_new_scoring_work(stream_ensemble):
    """Scoring and warm-up requests that arrive during a drain are
    answered ``draining`` (white-box: the drain flag is raised directly
    so the rejection window is deterministic)."""

    async def scenario():
        fleet = make_fleet(stream_ensemble, ["a"])
        server = await serve(fleet)
        [client] = await connect_clients(server, 1)
        row = sine_regime(1, start=64, seed=7)[0]
        server._draining = True
        shed_update = await client.update("a", row)
        shed_warm = await client.warm_up("a", sine_regime(16, seed=7))
        health = await client.healthz()
        server._draining = False
        await close_all(server, [client])
        return shed_update, shed_warm, health

    shed_update, shed_warm, health = asyncio.run(scenario())
    assert shed_update["status"] == "draining"
    assert shed_warm["status"] == "draining"
    assert health["status"] == "ok" and health["draining"] is True


def test_stop_checkpoints_the_fleet(stream_ensemble, tmp_path):
    """With ``checkpoint_dir`` configured, a drain persists the fleet —
    and the checkpoint round-trips through ``load_fleet``."""
    from repro.core.persistence import load_fleet
    directory = str(tmp_path / "ckpt")
    streams = ["left", "right"]

    async def scenario():
        fleet = make_fleet(stream_ensemble, streams)
        server = await serve(fleet, checkpoint_dir=directory)
        [client] = await connect_clients(server, 1)
        for row in sine_regime(3, start=64, seed=7):
            reply = await client.update("left", row)
            assert reply["status"] == "ok"
        await close_all(server, [client])

    asyncio.run(scenario())
    restored = load_fleet(directory)
    assert sorted(restored.names) == sorted(streams)


def test_shape_mismatch_answers_only_its_own_request(stream_ensemble):
    """A bad-width request in a flush gets an ``error`` reply; the good
    request sharing the flush still scores — and nothing double-ingests
    (the stream's arrival index keeps advancing by exactly one)."""

    async def scenario():
        fleet = make_fleet(stream_ensemble, ["good", "bad"])
        server = await serve(fleet)
        good_client, bad_client = await connect_clients(server, 2)
        row = sine_regime(1, start=64, seed=7)[0]
        server.pause_dispatch()
        good_task = asyncio.create_task(good_client.update("good", row))
        await server.wait_for_queue_depth(1)
        bad_task = asyncio.create_task(
            bad_client.update("bad", [1.0, 2.0, 3.0]))   # dims=2 fleet
        await server.wait_for_queue_depth(2)
        server.resume_dispatch()
        good_reply, bad_reply = await asyncio.gather(good_task, bad_task)
        follow_up = await good_client.update("good",
                                             sine_regime(1, start=65,
                                                         seed=7)[0])
        await close_all(server, [good_client, bad_client])
        return good_reply, bad_reply, follow_up

    good_reply, bad_reply, follow_up = asyncio.run(scenario())
    assert good_reply["status"] == "ok"
    assert bad_reply["status"] == "error"
    assert "(B, 2)" in bad_reply["error"]
    assert follow_up["status"] == "ok"
    assert follow_up["result"]["index"] == \
        good_reply["result"]["index"] + 1


def test_metrics_healthz_and_refresh_report(stream_ensemble):
    """The introspection ops: Prometheus text with the serving
    instruments, the refresh-admission report, and a healthz that sees
    the coordinator when the fleet has one."""
    registry = obs.MetricsRegistry()
    obs.set_default_registry(registry)

    async def scenario():
        fleet = make_fleet(stream_ensemble, ["a"], refresh_mode="async",
                           max_concurrent_builds=1)
        server = await serve(fleet)
        [client] = await connect_clients(server, 1)
        reply = await client.update("a", sine_regime(1, start=64,
                                                     seed=7)[0])
        assert reply["status"] == "ok"
        metrics = await client.metrics()
        health = await client.healthz()
        telemetry = await client.telemetry()
        await close_all(server, [client])
        fleet.shutdown()
        return metrics, health, telemetry

    metrics, health, telemetry = asyncio.run(scenario())
    assert metrics["status"] == "ok"
    body = metrics["body"]
    for needle in ("repro_serving_requests_total",
                   "repro_serving_request_seconds",
                   "repro_fleet_coalesce_size"):
        assert needle in body
    assert metrics["refresh_report"]["max_concurrent_builds"] == 1
    assert "dedup_ratio" in metrics["refresh_report"]
    assert health["healthy"] is True
    assert health["coordinator"] is not None
    assert health["coordinator"]["n_queued"] == 0
    assert telemetry["status"] == "ok"
    assert any(stat["name"] == "a"
               for stat in telemetry["telemetry"]["streams"])


def test_unknown_op_and_garbage_frames(stream_ensemble):
    async def scenario():
        fleet = make_fleet(stream_ensemble, ["a"])
        server = await serve(fleet)
        [client] = await connect_clients(server, 1)
        unknown = await client.request({"op": "reboot"})
        # A raw garbage frame: valid length prefix, invalid JSON body.
        reader, writer = await asyncio.open_connection("127.0.0.1",
                                                       server.port)
        writer.write(len(b"garbage").to_bytes(4, "big") + b"garbage")
        await writer.drain()
        from repro.serving.protocol import read_frame
        reply = await read_frame(reader)
        eof = await reader.read()            # server closes afterwards
        writer.close()
        await writer.wait_closed()
        await close_all(server, [client])
        return unknown, reply, eof

    unknown, reply, eof = asyncio.run(scenario())
    assert unknown["status"] == "error"
    assert "unknown op" in unknown["error"]
    assert reply["status"] == "error"
    assert eof == b""


def test_server_on_a_preallocated_port(stream_ensemble):
    """The ``free_tcp_port`` helper path: bind a known-free explicit
    port instead of an ephemeral one (some deployments pin ports)."""
    port = free_tcp_port()

    async def scenario():
        fleet = make_fleet(stream_ensemble, ["a"])
        server = await serve(fleet, port=port)
        assert server.port == port
        [client] = await connect_clients(server, 1)
        health = await client.healthz()
        await close_all(server, [client])
        return health

    assert asyncio.run(scenario())["status"] == "ok"


def test_connecting_to_an_unbound_port_fails(free_tcp_port):
    """Negative control for the fixture: nothing listens on a port the
    fixture handed out (so tests that assert refused-connection are
    meaningful)."""

    async def scenario():
        try:
            await ServingClient.connect("127.0.0.1", free_tcp_port)
        except OSError:
            return True
        return False

    assert asyncio.run(scenario())


@pytest.mark.skipif(os.name != "posix", reason="sharded fleet forks")
def test_serving_a_sharded_fleet(stream_ensemble, shm_namespace):
    """The front-end drives a multi-process ShardedFleet through the
    same coalesced path: per-shard ``update_coalesced`` ops, answers
    ``ok``, and the drain leaves no orphan shard processes."""
    from repro.streaming import sharded_fleet
    streams = [f"s{index}" for index in range(5)]

    async def scenario():
        fleet = sharded_fleet(stream_ensemble, n_shards=2, history=256)
        try:
            series = sine_regime(64, seed=7)
            for name in streams:
                fleet.warm_up(name, series)
            server = await serve(fleet)
            clients = await connect_clients(server, len(streams))
            row = sine_regime(1, start=64, seed=7)[0]
            server.pause_dispatch()
            tasks = [asyncio.create_task(client.update(name, row))
                     for name, client in zip(streams, clients)]
            await server.wait_for_queue_depth(len(streams))
            server.resume_dispatch()
            replies = await asyncio.gather(*tasks)
            serial = {name: fleet.update_batch(
                name, sine_regime(1, start=65, seed=7)) for name in streams}
            await close_all(server, clients)
            return replies, serial
        finally:
            fleet.shutdown()

    replies, serial = asyncio.run(scenario())
    assert all(reply["status"] == "ok" for reply in replies)
    # The shard processes kept per-stream order: the follow-up serial
    # tick continues each stream's index sequence.
    for name, reply in zip(streams, replies):
        assert serial[name][0].index == reply["result"]["index"] + 1
