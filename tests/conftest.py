"""Shared fixtures: seeded RNGs, tiny datasets and micro training budgets."""

import os
import random

import numpy as np
import pytest

from repro.datasets.registry import TimeSeriesDataset


def pytest_collection_modifyitems(config, items):
    """Optional seeded shuffle: ``REPRO_TEST_SHUFFLE=<seed>`` randomises
    test order (stdlib only, so it runs on a bare CI runner).  The fast
    lane sets it to flush hidden ordering dependencies — any state one
    test leaks into another reproduces under the same seed."""
    seed = os.environ.get("REPRO_TEST_SHUFFLE")
    if seed:
        random.Random(int(seed)).shuffle(items)


@pytest.fixture(autouse=True)
def _global_state_hygiene():
    """Restore the process-global knobs every test could leak through:
    the observability default registry/tracer and the shared-memory
    segment namespace.  Each is snapshotted before the test and restored
    after, so a test that swaps them cannot skew a later test's
    behaviour (or timings)."""
    from repro import faults
    from repro.obs import registry as obs_registry
    from repro.obs import tracing as obs_tracing
    from repro.runtime import shm
    registry = obs_registry.default_registry()
    tracer = obs_tracing.default_tracer()
    namespace = shm.segment_namespace()
    yield
    obs_registry.set_default_registry(registry)
    obs_tracing.set_default_tracer(tracer)
    shm.set_segment_namespace(namespace)
    faults.clear_plan()      # a leaked fault plan fires in later tests


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_planted_dataset(length: int = 600, dims: int = 3,
                         n_outliers: int = 24, magnitude: float = 8.0,
                         seed: int = 0) -> TimeSeriesDataset:
    """A small sinusoidal series with obvious planted spikes.

    Train is clean; test has ``n_outliers`` labelled spikes — easy enough
    that any functioning detector separates them, which makes it a crisp
    integration oracle.
    """
    generator = np.random.default_rng(seed)
    t = np.arange(2 * length)
    base = np.stack([np.sin(2 * np.pi * t / (20 + 7 * d)) +
                     0.05 * generator.standard_normal(t.shape)
                     for d in range(dims)], axis=1)
    train, test = base[:length].copy(), base[length:].copy()
    labels = np.zeros(length, dtype=np.int64)
    positions = generator.choice(np.arange(10, length - 10),
                                 size=n_outliers, replace=False)
    for position in positions:
        dim = int(generator.integers(dims))
        test[position, dim] += magnitude * generator.choice([-1.0, 1.0])
        labels[position] = 1
    return TimeSeriesDataset("planted", train, test, labels,
                             outlier_ratio=n_outliers / length)


@pytest.fixture
def planted_dataset():
    return make_planted_dataset()


@pytest.fixture
def tiny_windows(rng):
    """A small (N, w, D) window batch for model unit tests."""
    return rng.standard_normal((40, 8, 3))


def sine_regime(n: int, start: int = 0, shift: float = 0.0,
                noise: float = 0.05, seed: int = 0) -> np.ndarray:
    """A 2-D sinusoidal stream segment; ``shift`` models a regime change.

    Segments with the same seed but different ``start`` values continue
    each other's phase, so concatenations read as one continuous stream.
    """
    generator = np.random.default_rng(seed + start)
    t = np.arange(start, start + n)
    base = np.stack([np.sin(2 * np.pi * t / 17),
                     np.cos(2 * np.pi * t / 23)], axis=1)
    return base + shift + noise * generator.standard_normal((n, 2))


def make_stream_ensemble(seed: int = 0, epochs: int = 2):
    """A tiny fitted CAE-Ensemble over the :func:`sine_regime` stream."""
    from repro.core import CAEConfig, CAEEnsemble, EnsembleConfig
    ensemble = CAEEnsemble(
        CAEConfig(input_dim=2, embed_dim=8, window=8, n_layers=1),
        EnsembleConfig(n_models=2, epochs_per_model=epochs, seed=seed,
                       max_training_windows=128))
    ensemble.fit(sine_regime(360, seed=7))
    return ensemble


@pytest.fixture(scope="session")
def stream_ensemble():
    """Session-shared fitted ensemble for streaming tests (scored
    read-only — never mutate it; refreshes build new instances)."""
    return make_stream_ensemble()


def fabricate_ensemble(n_models=2, n_layers=1, seed=0, dims=2):
    """A structurally complete ensemble without the training bill:
    packing/publishing only reads weights, so random ones exercise the
    exact same code paths bit-for-bit."""
    from repro.core import CAEConfig, CAEEnsemble, EnsembleConfig
    from repro.core.cae import CAE
    from repro.datasets.preprocess import StandardScaler
    config = CAEConfig(input_dim=dims, embed_dim=8, window=8,
                       n_layers=n_layers)
    ensemble = CAEEnsemble(config,
                           EnsembleConfig(n_models=n_models, seed=seed))
    root = np.random.default_rng(seed)
    ensemble.models = [CAE(config, np.random.default_rng(
        root.integers(2 ** 32))) for _ in range(n_models)]
    ensemble.scaler = StandardScaler().fit(
        np.asarray(sine_regime(64, seed=seed)[:, :dims]))
    return ensemble


def free_tcp_port(host: str = "127.0.0.1") -> int:
    """Bind-then-release an ephemeral TCP port and return its number.

    Every serving test that needs a concrete port goes through this one
    helper (or the fixture below) instead of hard-coding numbers, so
    parallel test runs never collide.  Note the small race window
    between release and reuse — prefer letting the server bind
    ``port=0`` itself and reading ``server.port`` when possible; this
    helper exists for the cases that must know the port *before* the
    bind (e.g. negative tests against an unbound port).
    """
    import socket
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]


@pytest.fixture(name="free_tcp_port")
def _free_tcp_port_fixture():
    """Fixture form of :func:`free_tcp_port` for direct injection."""
    return free_tcp_port()


@pytest.fixture
def shm_namespace():
    """A unique shared-memory namespace per test, so segment-leak
    assertions are exact even when tests run concurrently."""
    import secrets
    from repro.runtime import shm
    namespace = f"t{os.getpid()}x{secrets.token_hex(3)}"
    previous = shm.set_segment_namespace(namespace)
    yield namespace
    shm.sweep_orphans(namespace)
    shm.set_segment_namespace(previous)


@pytest.fixture
def mp_handshake():
    """Fresh fork-context gate + started-queue per test, fork-inherited
    into build workers as their ``worker_context`` (mp primitives cannot
    ride inside a pickled job)."""
    import multiprocessing as mp
    ctx = mp.get_context("fork")
    # Everything exists twice: a SIGKILLed worker can die inside an mp
    # primitive's critical section (the Event's condition lock during
    # ``gate.wait()``, the Queue feeder's write lock right after the
    # handshake ``put`` the test killed it in response to), poisoning
    # that primitive for every later user.  Fault-injection tests route
    # post-kill survivors through the untouched second set.
    return {"gate": ctx.Event(), "gate2": ctx.Event(),
            "started": ctx.Queue(), "started2": ctx.Queue(),
            "replacement": fabricate_ensemble(seed=99)}
