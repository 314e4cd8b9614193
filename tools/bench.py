#!/usr/bin/env python
"""Inference / streaming throughput bench harness (machine-readable).

Runs the Table 8-style scoring benches on a large ensemble and emits the
perf trajectory as JSON, so speedups (and regressions) are visible and
diffable across commits:

* ``BENCH_inference.json`` — single-observation (``score_window``) and
  micro-batch (``score_windows_last``) latency, fused engine vs the
  per-model loop, across batch sizes;
* ``BENCH_streaming.json`` — end-to-end ``StreamingDetector.update_batch``
  throughput (observations/second), fused vs unfused;
* ``BENCH_training.json`` (``--training``) — full ``CAEEnsemble.fit``
  wall-clock on a Table 7-style config, the fused trainer at float32 vs
  float64, plus the loss-trajectory deviation between the two;
* ``BENCH_fleet.json`` (``--fleet``) — single-process ``StreamFleet``
  vs the multi-process ``ShardedFleet`` on the same replay workload,
  across shard counts (the process-model scaling table of
  ``docs/performance.md``);
* ``BENCH_serving.json`` (``--serving``) — the TCP front-end under
  100+ concurrent streams, cross-stream coalesced scoring vs
  per-stream serial calls: observations/second, request p50/p99 and
  the fused-batch depth (the serving table of ``docs/performance.md``
  and ``docs/serving.md``).

The ensemble's basic models are random-initialised rather than trained:
inference cost is independent of the weight values, and fabricating the
models keeps a 40-model bench in CPU seconds.  Scores still go through
the full scaler -> forward -> aggregation path.

Usage::

    PYTHONPATH=src python tools/bench.py [--models 40] [--quick]
        [--out benchmarks/output]

``--quick`` shrinks rounds for a CI smoke lane; the emitted JSON marks
the mode so trajectories are compared like for like.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import os
import platform
import subprocess
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir,
                                "src"))

from repro.core import CAEConfig, CAEEnsemble, EnsembleConfig   # noqa: E402
from repro.core.cae import CAE                                   # noqa: E402
from repro.datasets.preprocess import StandardScaler             # noqa: E402
from repro.obs import (MetricsRegistry, use_registry,            # noqa: E402
                       write_snapshot)
from repro.streaming import StreamingDetector                    # noqa: E402


def git_commit() -> str:
    """Short hash of the benched tree, ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"

WINDOW = 16
DIMS = 3


def make_series(length: int) -> np.ndarray:
    rng = np.random.default_rng(0)
    t = np.arange(length)
    series = np.stack([np.sin(2 * np.pi * t / 31),
                       np.cos(2 * np.pi * t / 47),
                       np.sin(2 * np.pi * t / 19)], axis=1)
    return series + 0.05 * rng.standard_normal((length, DIMS))


def fabricate_ensemble(n_models: int, embed_dim: int, n_layers: int,
                       series: np.ndarray) -> CAEEnsemble:
    config = CAEConfig(input_dim=DIMS, embed_dim=embed_dim, window=WINDOW,
                       n_layers=n_layers)
    ensemble = CAEEnsemble(config, EnsembleConfig(n_models=n_models,
                                                  seed=0))
    root = np.random.default_rng(0)
    ensemble.models = [CAE(config, np.random.default_rng(
        root.integers(2 ** 32))) for _ in range(n_models)]
    ensemble.scaler = StandardScaler().fit(series)
    return ensemble


def best_of(fn, rounds: int, inner: int) -> float:
    """Best-of-rounds mean seconds per call (robust to machine noise)."""
    fn()                                    # warm-up: buffers, caches
    best = float("inf")
    for _ in range(rounds):
        tick = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - tick) / inner)
    return best


def bench_inference(ensemble: CAEEnsemble, series: np.ndarray,
                    batch_sizes, rounds: int) -> dict:
    results = {}
    window = series[:WINDOW]
    unfused = best_of(lambda: ensemble.score_window(window, fused=False),
                      rounds, 1)
    fused = best_of(lambda: ensemble.score_window(window, fused=True),
                    rounds, 10)
    results["single_observation"] = {
        "unfused_ms": unfused * 1e3, "fused_ms": fused * 1e3,
        "speedup": unfused / fused,
    }
    results["micro_batch"] = {}
    for batch in batch_sizes:
        windows = np.stack([series[i:i + WINDOW] for i in range(batch)])
        unfused = best_of(
            lambda: ensemble.score_windows_last(windows, fused=False),
            max(2, rounds // 2), 1)
        fused = best_of(
            lambda: ensemble.score_windows_last(windows, fused=True),
            rounds, 2)
        results["micro_batch"][str(batch)] = {
            "unfused_ms": unfused * 1e3, "fused_ms": fused * 1e3,
            "speedup": unfused / fused,
        }
    return results


def bench_streaming(ensemble: CAEEnsemble, train: np.ndarray,
                    stream: np.ndarray, micro_batch: int,
                    rounds: int) -> dict:
    results = {}
    for label, fused in (("fused", True), ("unfused", False)):
        ensemble.fused_inference = fused
        seconds = float("inf")
        for _ in range(rounds):
            detector = StreamingDetector(ensemble, history=WINDOW)
            detector.warm_up(train[-(WINDOW - 1):])
            tick = time.perf_counter()
            for start in range(0, len(stream), micro_batch):
                detector.update_batch(stream[start:start + micro_batch])
            seconds = min(seconds, time.perf_counter() - tick)
        results[label] = {
            "seconds": seconds,
            "observations_per_second": len(stream) / seconds,
            "ms_per_observation": seconds / len(stream) * 1e3,
        }
    ensemble.fused_inference = True
    results["speedup"] = results["fused"]["observations_per_second"] / \
        results["unfused"]["observations_per_second"]
    results["micro_batch"] = micro_batch
    results["stream_length"] = len(stream)
    return results


def bench_training(embed_dim: int, n_layers: int, rounds: int,
                   quick: bool) -> dict:
    """``fit`` wall-clock at float32 vs float64 on a Table 7-style config.

    Unlike the inference benches the models must actually train, so the
    config mirrors the standard bench budget of
    :mod:`repro.experiments.runner` (embed 32, 2 layers) scaled to a few
    CPU-seconds per fit.  Every fit runs the fused trainer; the two
    settings are its compute dtypes (``fused_training_dtype``).  Both
    consume identical RNG streams; the loss-trajectory deviation of the
    float32 default from float64 is reported alongside the speedup.
    """
    cae = CAEConfig(input_dim=DIMS, embed_dim=embed_dim, window=WINDOW,
                    n_layers=n_layers)
    base = dict(n_models=3 if quick else 5,
                epochs_per_model=2 if quick else 3,
                batch_size=64, seed=3,
                max_training_windows=512 if quick else 1024)
    series = make_series(2048)

    def fit(dtype: str) -> CAEEnsemble:
        config = EnsembleConfig(**base, fused_training_dtype=dtype)
        return CAEEnsemble(cae, config).fit(series)

    seconds = {"float64": float("inf"), "float32": float("inf")}
    ensembles = {}
    for _ in range(rounds):
        for dtype in seconds:
            tick = time.perf_counter()
            ensembles[dtype] = fit(dtype)
            seconds[dtype] = min(seconds[dtype], time.perf_counter() - tick)

    exact = np.array([r.loss for r in ensembles["float64"].history])
    fast = np.array([r.loss for r in ensembles["float32"].history])
    deviation = float(np.max(np.abs(exact - fast) /
                             np.maximum(np.abs(exact), 1e-12)))
    return {
        "config": dict(base, embed_dim=embed_dim, n_layers=n_layers,
                       window=WINDOW, input_dim=DIMS),
        "float64_seconds": seconds["float64"],
        "float32_seconds": seconds["float32"],
        "speedup": seconds["float64"] / seconds["float32"],
        "loss_trajectory_max_rel_deviation": deviation,
        "epochs_recorded": len(exact),
    }


def bench_fleet(n_streams: int, segment: int, micro_batch: int,
                rounds: int, shard_counts) -> dict:
    """Single-process ``StreamFleet`` vs the multi-process
    :class:`~repro.runtime.fleet.ShardedFleet` on one replay workload.

    Every configuration replays the same ``n_streams`` x ``segment``
    stream matrix through ``update_many``.  The model is kept small
    (8 basic models) on purpose: fleet scaling is about process/IPC
    overhead and core utilisation, not kernel speed, and a small model
    makes the per-observation IPC cost *visible* instead of hiding it
    under compute.  Numbers from a single-core runner therefore show
    sharding as pure overhead — which is the honest baseline; the
    speedup column only turns favourable with cores to spare.
    """
    from repro.streaming import shared_fleet, sharded_fleet

    series = make_series(2048)
    ensemble = fabricate_ensemble(8, 16, 2, series)
    streams = {f"stream-{i:02d}": make_series(2048 + segment)[-segment:]
               for i in range(n_streams)}
    warm = series[-(WINDOW - 1):]

    def replay(fleet) -> float:
        for name in streams:
            fleet.warm_up(name, warm)
        tick = time.perf_counter()
        for start in range(0, segment, micro_batch):
            fleet.update_many({name: chunk[start:start + micro_batch]
                               for name, chunk in streams.items()})
        return time.perf_counter() - tick

    total = n_streams * segment
    results = {"n_streams": n_streams, "segment": segment,
               "micro_batch": micro_batch,
               "total_observations": total, "n_models": 8,
               "configs": {}}

    seconds = float("inf")
    for _ in range(rounds):
        seconds = min(seconds, replay(shared_fleet(ensemble,
                                                   history=WINDOW)))
    results["configs"]["inline"] = {
        "seconds": seconds,
        "observations_per_second": total / seconds,
    }

    for n_shards in shard_counts:
        seconds = float("inf")
        for _ in range(rounds):
            fleet = sharded_fleet(ensemble, n_shards=n_shards,
                                  history=WINDOW)
            try:
                seconds = min(seconds, replay(fleet))
            finally:
                fleet.shutdown()
        results["configs"][f"sharded-{n_shards}"] = {
            "n_shards": n_shards,
            "seconds": seconds,
            "observations_per_second": total / seconds,
            "speedup_vs_inline":
                results["configs"]["inline"]["seconds"] / seconds,
        }
    return results


def bench_serving(n_streams: int, ticks: int, rounds: int) -> dict:
    """The networked front-end: coalesced vs per-stream serial scoring.

    ``n_streams`` concurrent clients (one TCP connection each) stream
    ``ticks`` single-observation updates through a
    :class:`~repro.serving.DetectionServer` over a shared-ensemble
    fleet.  The ``coalesced`` config fuses concurrent cross-stream
    updates into batched scoring calls; the ``serial`` config
    (``coalesce=False``) scores every request in its own
    ``update_batch`` call — the baseline the speedup column is against.
    Requests per stream are sequential (a client awaits each reply), so
    concurrency — and therefore fused batch depth — comes entirely from
    the stream count, exactly like production traffic.  Latency
    quantiles come from the server's own ``repro_serving_request
    _seconds`` histogram; mean fused-batch depth from
    ``repro_fleet_coalesce_size``.
    """
    import asyncio

    from repro.serving import DetectionServer, ServingClient
    from repro.streaming import shared_fleet

    series = make_series(2048)
    ensemble = fabricate_ensemble(8, 16, 2, series)
    warm = series[-(WINDOW - 1):]
    traffic = make_series(2048 + ticks)[-ticks:]
    names = [f"stream-{i:03d}" for i in range(n_streams)]

    async def run(coalesce: bool, registry: MetricsRegistry) -> float:
        fleet = shared_fleet(ensemble, history=WINDOW)
        for name in names:
            fleet.warm_up(name, warm)
        server = DetectionServer(fleet, coalesce=coalesce,
                                 registry=registry)
        await server.start()
        clients = [await ServingClient.connect("127.0.0.1", server.port)
                   for _ in names]

        async def drive(client, name):
            for row in traffic:
                reply = await client.update(name, row)
                assert reply["status"] == "ok", reply

        tick = time.perf_counter()
        await asyncio.gather(*[drive(client, name)
                               for client, name in zip(clients, names)])
        seconds = time.perf_counter() - tick
        for client in clients:
            await client.close()
        await server.stop()
        return seconds

    total = n_streams * ticks
    results = {"n_streams": n_streams, "ticks_per_stream": ticks,
               "total_observations": total, "n_models": 8,
               "configs": {}}
    for label, coalesce in (("serial", False), ("coalesced", True)):
        seconds = float("inf")
        registry = None
        for _ in range(rounds):
            candidate = MetricsRegistry()
            # Installed as the process default too: the fleet's
            # coalesce-size histogram is recorded by StreamFleet, not
            # the server, and must land in the same registry.
            with use_registry(candidate):
                round_seconds = asyncio.run(run(coalesce, candidate))
            if round_seconds < seconds:
                seconds, registry = round_seconds, candidate
        latency = registry.histogram("repro_serving_request_seconds")
        fused = registry.histogram("repro_fleet_coalesce_size", low=1.0,
                                   high=1e4, buckets_per_decade=4)
        results["configs"][label] = {
            "seconds": seconds,
            "observations_per_second": total / seconds,
            "request_p50_ms": (latency.quantile(0.50) or 0.0) * 1e3,
            "request_p99_ms": (latency.quantile(0.99) or 0.0) * 1e3,
            "mean_fused_batch": fused.sum / fused.count
            if fused.count else None,
            "max_fused_batch": fused.max if fused.count else None,
        }
    results["speedup_vs_serial"] = \
        results["configs"]["coalesced"]["observations_per_second"] / \
        results["configs"]["serial"]["observations_per_second"]
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--models", type=int, default=40)
    parser.add_argument("--embed-dim", type=int, default=32)
    parser.add_argument("--layers", type=int, default=2)
    parser.add_argument("--micro-batch", type=int, default=64)
    parser.add_argument("--stream-length", type=int, default=512)
    parser.add_argument("--quick", action="store_true",
                        help="fewer rounds / shorter stream (CI smoke)")
    parser.add_argument("--training", action="store_true",
                        help="also bench ensemble training at float32 "
                             "vs float64 and emit BENCH_training.json")
    parser.add_argument("--fleet", action="store_true",
                        help="also bench the single-process StreamFleet "
                             "vs the multi-process ShardedFleet and emit "
                             "BENCH_fleet.json")
    parser.add_argument("--serving", action="store_true",
                        help="also bench the TCP serving front-end, "
                             "coalesced vs per-stream serial scoring, "
                             "and emit BENCH_serving.json")
    parser.add_argument("--emit-telemetry", action="store_true",
                        help="run the benches against a fresh metrics "
                             "registry and dump its JSON snapshot as "
                             "BENCH_telemetry.json next to the results")
    parser.add_argument("--out", default=os.path.join(
        os.path.dirname(__file__), os.pardir, "benchmarks", "output"))
    args = parser.parse_args(argv)

    rounds = 3 if args.quick else 7
    stream_length = min(args.stream_length,
                        128 if args.quick else args.stream_length)
    batch_sizes = (16, args.micro_batch) if args.quick \
        else (8, 16, 32, args.micro_batch)

    series = make_series(4096)
    ensemble = fabricate_ensemble(args.models, args.embed_dim, args.layers,
                                  series)
    meta = {
        "commit": git_commit(),
        "timestamp": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
        "mode": "quick" if args.quick else "full",
        "n_models": args.models,
        "embed_dim": args.embed_dim,
        "n_layers": args.layers,
        "window": WINDOW,
        "input_dim": DIMS,
        "inference_dtype": "float32",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }

    print(f"bench: {args.models} basic models, embed {args.embed_dim}, "
          f"{args.layers} layers, window {WINDOW} "
          f"({meta['mode']} mode)")

    # A fresh registry (installed process-wide for the duration of the
    # benches) keeps the telemetry snapshot scoped to this run; without
    # the flag the benches run against whatever registry is already the
    # default (normally the process one — near-zero cost either way).
    registry = MetricsRegistry() if args.emit_telemetry else None
    stack = contextlib.ExitStack()
    if registry is not None:
        stack.enter_context(use_registry(registry))

    with stack:
        inference = bench_inference(ensemble, series, batch_sizes, rounds)
        single = inference["single_observation"]
        print(f"  single-observation: unfused {single['unfused_ms']:8.2f} "
              f"ms  fused {single['fused_ms']:6.2f} ms  "
              f"-> {single['speedup']:.1f}x")
        for batch, numbers in inference["micro_batch"].items():
            print(f"  micro-batch B={batch:>3}: unfused "
                  f"{numbers['unfused_ms']:8.2f} ms  "
                  f"fused {numbers['fused_ms']:6.2f} ms  "
                  f"-> {numbers['speedup']:.1f}x")

        stream = make_series(4096 + stream_length)[-stream_length:]
        streaming = bench_streaming(ensemble, series, stream,
                                    args.micro_batch, max(2, rounds // 2))
        training = None
        if args.training:
            training = bench_training(args.embed_dim, args.layers,
                                      2 if args.quick else 3, args.quick)
        fleet = None
        if args.fleet:
            fleet = bench_fleet(
                n_streams=4 if args.quick else 8,
                segment=128 if args.quick else 512,
                micro_batch=args.micro_batch,
                rounds=2 if args.quick else 3,
                shard_counts=(1, 2) if args.quick else (1, 2, 4))
        serving = None
        if args.serving:
            # The acceptance workload: >= 100 concurrent streams in
            # both modes (quick only trims the per-stream tick count).
            serving = bench_serving(
                n_streams=100 if args.quick else 128,
                ticks=6 if args.quick else 24,
                rounds=1 if args.quick else 2)
    print(f"  streaming update_batch({args.micro_batch}): "
          f"unfused {streaming['unfused']['observations_per_second']:7.0f}"
          f" obs/s  fused "
          f"{streaming['fused']['observations_per_second']:7.0f} obs/s  "
          f"-> {streaming['speedup']:.1f}x")
    if fleet is not None:
        for label, numbers in fleet["configs"].items():
            suffix = "" if "speedup_vs_inline" not in numbers else \
                f"  -> {numbers['speedup_vs_inline']:.2f}x vs inline"
            print(f"  fleet {label:>10}: "
                  f"{numbers['observations_per_second']:7.0f} obs/s"
                  f"{suffix}")
    if serving is not None:
        for label, numbers in serving["configs"].items():
            depth = numbers["mean_fused_batch"]
            print(f"  serving {label:>9}: "
                  f"{numbers['observations_per_second']:7.0f} obs/s  "
                  f"p99 {numbers['request_p99_ms']:7.2f} ms"
                  + (f"  mean fused batch {depth:.1f}"
                     if depth is not None else ""))
        print(f"  serving coalesced vs serial: "
              f"{serving['speedup_vs_serial']:.2f}x")
    if training is not None:
        print(f"  training fit: float64 "
              f"{training['float64_seconds']:6.2f} s  float32 "
              f"{training['float32_seconds']:6.2f} s  "
              f"-> {training['speedup']:.1f}x  "
              f"(loss dev {training['loss_trajectory_max_rel_deviation']:.1e})")

    os.makedirs(args.out, exist_ok=True)
    outputs = [("BENCH_inference.json", inference),
               ("BENCH_streaming.json", streaming)]
    if training is not None:
        outputs.append(("BENCH_training.json", training))
    if fleet is not None:
        outputs.append(("BENCH_fleet.json", fleet))
    if serving is not None:
        outputs.append(("BENCH_serving.json", serving))
    for name, payload in outputs:
        path = os.path.join(args.out, name)
        with open(path, "w") as handle:
            json.dump({"meta": meta, "results": payload}, handle, indent=2)
            handle.write("\n")
        print(f"  wrote {os.path.relpath(path)}")
    if registry is not None:
        path = os.path.join(args.out, "BENCH_telemetry.json")
        write_snapshot(registry, path, extra_meta=meta)
        print(f"  wrote {os.path.relpath(path)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
