"""Telemetry overhead on the fused serving path.

PR 6 instruments the hot serving loop (``StreamingDetector.update_batch``
and the fused chunk loop in :mod:`repro.core.fused`) with the
:mod:`repro.obs` registry.  The observability contract is that this
instrumentation is cheap enough to leave on in production — and close to
free when disabled:

* **enabled** (a live :class:`~repro.obs.MetricsRegistry`): the serve
  path pays two ``perf_counter`` reads plus a handful of histogram
  observes per micro-batch — budgeted at **< 5 %** of batch throughput;
* **disabled** (:class:`~repro.obs.NullRegistry`): every instrument is a
  shared no-op and every clock read sits behind an ``if obs.enabled:``
  guard, so the only residual cost is the guards themselves — budgeted
  at **< 2 %** (measured analytically below: guard count x guard cost).

Timing-ratio assertions on shared CI machines are inherently noisy, so
the enabled/disabled comparison interleaves the two configurations,
keeps best-of-round minima, and retries the whole measurement a few
times before declaring a regression — the same pattern as
``tools/bench.py``.  The ensemble's basic models are random-initialised
(inference cost does not depend on the weights), keeping the bench in
CPU seconds.
"""

import time

import numpy as np
import pytest

from repro.core import CAEConfig, CAEEnsemble, EnsembleConfig
from repro.core.cae import CAE
from repro.datasets.preprocess import StandardScaler
from repro.obs import MetricsRegistry, NullRegistry, use_registry
from repro.streaming import StreamingDetector

pytestmark = pytest.mark.slow

WINDOW = 16
DIMS = 3
MICRO_BATCH = 64
STREAM_LENGTH = 512
N_MODELS = 8

ENABLED_BUDGET = 0.05   # live registry: < 5 % of batch throughput
DISABLED_BUDGET = 0.02  # NullRegistry: guards alone, < 2 %
ATTEMPTS = 4            # re-measure before declaring a regression
ROUNDS = 3              # best-of minima within one attempt


def make_series(length, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    series = np.stack([np.sin(2 * np.pi * t / 31),
                       np.cos(2 * np.pi * t / 47),
                       np.sin(2 * np.pi * t / 19)], axis=1)
    return series + 0.05 * rng.standard_normal((length, DIMS))


def fabricate_ensemble(series):
    config = CAEConfig(input_dim=DIMS, embed_dim=16, window=WINDOW,
                       n_layers=2)
    ensemble = CAEEnsemble(config, EnsembleConfig(n_models=N_MODELS, seed=0))
    root = np.random.default_rng(0)
    ensemble.models = [CAE(config, np.random.default_rng(
        root.integers(2 ** 32))) for _ in range(N_MODELS)]
    ensemble.scaler = StandardScaler().fit(series)
    return ensemble


def replay_seconds(ensemble, registry, train, stream):
    """One full micro-batched replay under ``registry``; wall seconds."""
    with use_registry(registry):
        # The fused scorer binds its registry at pack time and is cached
        # on the ensemble — repack under *this* replay's registry so the
        # chunk-loop instrumentation is measured too (pack cost stays
        # outside the timed region, as in production where the build
        # thread packs).
        ensemble.invalidate_fused()
        ensemble.prepare_fused()
        detector = StreamingDetector(ensemble, history=WINDOW)
        detector.warm_up(train[-(WINDOW - 1):])
        tick = time.perf_counter()
        for start in range(0, len(stream), MICRO_BATCH):
            detector.update_batch(stream[start:start + MICRO_BATCH])
        return time.perf_counter() - tick


def measured_overhead(ensemble, train, stream):
    """Best-of-round enabled/disabled seconds, interleaved so slow-machine
    drift (thermal, noisy neighbours) hits both configurations alike."""
    enabled, disabled = float("inf"), float("inf")
    for _ in range(ROUNDS):
        enabled = min(enabled, replay_seconds(
            ensemble, MetricsRegistry(), train, stream))
        disabled = min(disabled, replay_seconds(
            ensemble, NullRegistry(), train, stream))
    return enabled, disabled


def test_enabled_telemetry_overhead_under_budget(save_artifact):
    train = make_series(1024)
    ensemble = fabricate_ensemble(train)
    stream = make_series(STREAM_LENGTH, seed=1)
    replay_seconds(ensemble, NullRegistry(), train, stream)  # warm-up

    overhead = float("inf")
    for attempt in range(ATTEMPTS):
        enabled, disabled = measured_overhead(ensemble, train, stream)
        overhead = min(overhead, enabled / disabled - 1.0)
        if overhead < ENABLED_BUDGET / 2:
            break

    rate = STREAM_LENGTH / disabled
    rendering = "\n".join([
        "Telemetry overhead on the fused serving path",
        f"  stream               {STREAM_LENGTH} observations, "
        f"micro-batch {MICRO_BATCH}, {N_MODELS} basic models",
        f"  disabled (Null)      {rate:10.0f} obs/s",
        f"  enabled  (registry)  {STREAM_LENGTH / enabled:10.0f} obs/s",
        f"  enabled overhead     {max(overhead, 0.0):10.2%} "
        f"(budget {ENABLED_BUDGET:.0%}, best of {attempt + 1} attempts)",
    ])
    print("\n" + rendering)
    save_artifact("obs_overhead", rendering)

    assert overhead < ENABLED_BUDGET, (
        f"live-registry telemetry costs {overhead:.1%} of fused "
        f"update_batch throughput (budget {ENABLED_BUDGET:.0%})")


def test_disabled_telemetry_guard_cost_negligible():
    """The disabled path's *entire* residual cost is ``if obs.enabled:``
    guards (plus two plain int adds in the fused workspace).  Bound it
    analytically — guard count per batch x measured per-guard cost vs
    measured batch time — instead of differencing two noisy timings."""
    train = make_series(1024)
    ensemble = fabricate_ensemble(train)
    stream = make_series(STREAM_LENGTH, seed=1)
    replay_seconds(ensemble, NullRegistry(), train, stream)  # warm-up
    disabled = min(replay_seconds(ensemble, NullRegistry(), train, stream)
                   for _ in range(ROUNDS))

    # Per-guard cost: attribute load + branch on the shared no-op
    # telemetry object, exactly the expression the hot loops evaluate.
    with use_registry(NullRegistry()):
        probe = StreamingDetector(ensemble, history=WINDOW)
    obs = probe._obs
    assert not obs.enabled
    iterations = 200_000
    tick = time.perf_counter()
    hits = 0
    for _ in range(iterations):
        if obs.enabled:
            hits += 1
    guard_seconds = (time.perf_counter() - tick) / iterations
    assert hits == 0

    # Guards evaluated per micro-batch: two at update_batch entry/exit,
    # two per drift-ingest observation, and two per fused chunk (the
    # chunk loop covers all MICRO_BATCH windows; CHUNK_TARGET_ROWS
    # bounds rows = models x chunk).
    scorer = ensemble.prepare_fused()
    n_chunks = -(-MICRO_BATCH // scorer._chunk_size(N_MODELS, MICRO_BATCH))
    guards_per_batch = 2 + 2 * MICRO_BATCH + 2 * n_chunks
    n_batches = -(-STREAM_LENGTH // MICRO_BATCH)
    guard_total = guard_seconds * guards_per_batch * n_batches

    fraction = guard_total / disabled
    print(f"\ndisabled-telemetry guard cost: {guard_seconds * 1e9:.0f} ns "
          f"per guard, {guards_per_batch} guards/batch "
          f"-> {fraction:.3%} of replay time (budget {DISABLED_BUDGET:.0%})")
    assert fraction < DISABLED_BUDGET, (
        f"NullRegistry guards cost {fraction:.2%} of the disabled replay "
        f"(budget {DISABLED_BUDGET:.0%})")
