"""Fused-vs-loop equivalence battery for the batched inference engine.

The contract of :mod:`repro.core.fused`: with float64 the fused scorer
reproduces the per-model scoring loop **bit for bit** (same elementwise
op order, same GEMM dot products); with float32 (the default inference
dtype) it agrees within 1e-5 relative tolerance.  The battery covers
ensemble sizes M in {1, 5, 40}, uni- and multivariate series, every
architecture toggle, streaming refresh swaps and save/load round-trips,
plus the causal-suffix ``score_windows_last`` over a grid of windows,
kernel sizes and depths, and batch ``score``, which decodes every window
after the first through it.  The chunk-parallel loop must give the same
bytes at any forced worker count, and the replayed scoring plans the
same float32 bytes as the executing forward they replaced.
"""

import hashlib
import multiprocessing
import sys
import threading

import numpy as np
import pytest

from repro.core import fused
from repro.core import (CAEConfig, CAEEnsemble, EnsembleConfig,
                        FusedEnsembleScorer, load_ensemble, save_ensemble)
from repro.core.cae import CAE
from repro.datasets.preprocess import StandardScaler
from repro.datasets.windows import (sliding_windows,
                                   window_scores_to_observation_scores)
from repro.nn import inference_dtype, inference_precision
from repro.obs import NullRegistry
from tests.conftest import sine_regime
from tests.test_core_fused_training import platform_fingerprint


def make_series(dims: int, length: int = 320, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    base = np.stack([np.sin(2 * np.pi * t / (17 + 5 * d))
                     for d in range(dims)], axis=1)
    return base + 0.05 * rng.standard_normal((length, dims))


def trained_ensemble(dims: int, n_models: int, seed: int = 0,
                     **config_kwargs) -> CAEEnsemble:
    config_kwargs.setdefault("n_layers", 2)
    ensemble = CAEEnsemble(
        CAEConfig(input_dim=dims, embed_dim=8, window=8, **config_kwargs),
        EnsembleConfig(n_models=n_models, epochs_per_model=1, seed=seed,
                       max_training_windows=32))
    return ensemble.fit(make_series(dims, seed=seed))


def fabricated_ensemble(dims: int, n_models: int,
                        seed: int = 0) -> CAEEnsemble:
    """An inference-ready ensemble with random-init models.

    Training is irrelevant to the fused-vs-loop comparison (both paths
    consume the same weights), so large M is fabricated cheaply.
    """
    config = CAEConfig(input_dim=dims, embed_dim=8, window=8, n_layers=2)
    ensemble = CAEEnsemble(config, EnsembleConfig(n_models=n_models, seed=0))
    root = np.random.default_rng(seed)
    ensemble.models = [CAE(config, np.random.default_rng(
        root.integers(2 ** 32))) for _ in range(n_models)]
    ensemble.scaler = StandardScaler().fit(make_series(dims, seed=seed))
    return ensemble


def assert_fused_equivalent(ensemble: CAEEnsemble, series: np.ndarray):
    """Both scoring entry points: float64 exact, float32 within 1e-5."""
    loop = ensemble.score(series, fused=False)
    with inference_precision(np.float64):
        np.testing.assert_array_equal(ensemble.score(series, fused=True),
                                      loop)
    np.testing.assert_allclose(ensemble.score(series, fused=True), loop,
                               rtol=1e-5)
    window = ensemble.cae_config.window
    windows = np.stack([series[i:i + window] for i in range(24)])
    loop_last = ensemble.score_windows_last(windows, fused=False)
    with inference_precision(np.float64):
        np.testing.assert_array_equal(
            ensemble.score_windows_last(windows, fused=True), loop_last)
    np.testing.assert_allclose(
        ensemble.score_windows_last(windows, fused=True), loop_last,
        rtol=1e-5)


class TestEquivalence:
    @pytest.mark.parametrize("dims", [1, 3])
    @pytest.mark.parametrize("n_models", [1, 5])
    def test_trained_ensembles(self, dims, n_models):
        ensemble = trained_ensemble(dims, n_models)
        assert_fused_equivalent(ensemble, make_series(dims, seed=9))

    @pytest.mark.parametrize("dims", [1, 3])
    def test_forty_model_ensemble(self, dims):
        ensemble = fabricated_ensemble(dims, 40)
        assert_fused_equivalent(ensemble, make_series(dims, seed=9))

    @pytest.mark.parametrize("kwargs", [
        dict(reconstruct="embedding"),
        dict(use_attention=False),
        dict(use_glu=False),
        dict(use_glu=False, use_attention=False),
        dict(position_mode="table"),
        dict(kernel_size=5),
        dict(n_layers=1),
    ])
    def test_architecture_toggles(self, kwargs):
        ensemble = trained_ensemble(2, 2, **kwargs)
        assert_fused_equivalent(ensemble, make_series(2, seed=9))

    def test_mean_aggregation(self):
        ensemble = CAEEnsemble(
            CAEConfig(input_dim=2, embed_dim=8, window=8, n_layers=1),
            EnsembleConfig(n_models=3, epochs_per_model=1, seed=0,
                           aggregation="mean", max_training_windows=32))
        ensemble.fit(make_series(2))
        assert_fused_equivalent(ensemble, make_series(2, seed=9))

    def test_no_rescale(self):
        ensemble = CAEEnsemble(
            CAEConfig(input_dim=2, embed_dim=8, window=8, n_layers=1),
            EnsembleConfig(n_models=2, epochs_per_model=1, seed=0,
                           rescale=False, max_training_windows=32))
        ensemble.fit(make_series(2))
        assert_fused_equivalent(ensemble, make_series(2, seed=9))

    @pytest.mark.parametrize("n_models", [1, 2, 5, 99])
    def test_n_models_slicing(self, n_models):
        ensemble = trained_ensemble(2, 5)
        series = make_series(2, seed=9)
        loop = ensemble.window_scores(series, n_models=n_models,
                                      fused=False)
        with inference_precision(np.float64):
            fused = ensemble.window_scores(series, n_models=n_models,
                                           fused=True)
        np.testing.assert_array_equal(fused, loop)
        # Batch score slices both its head and its suffix-decoded tail.
        loop = ensemble.score(series, n_models=n_models, fused=False)
        with inference_precision(np.float64):
            np.testing.assert_array_equal(
                ensemble.score(series, n_models=n_models), loop)
        np.testing.assert_allclose(ensemble.score(series, n_models=n_models),
                                   loop, rtol=1e-5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows", [5, 128, 512])
    def test_chunk_boundaries_are_invisible(self, monkeypatch, rows, dtype):
        """Chunked and single-pass fused scoring are bit-identical at
        every entry point — windows are independent, so the split is
        pure memory shaping."""
        ensemble = fabricated_ensemble(2, 5)
        series = make_series(2, seed=9)
        window = ensemble.cae_config.window
        windows = np.stack([series[i:i + window] for i in range(200)])

        def entry_points():
            return (ensemble.score(series), ensemble.window_scores(series),
                    ensemble.score_windows_last(windows))

        with inference_precision(dtype):
            monkeypatch.setattr(FusedEnsembleScorer, "CHUNK_TARGET_ROWS",
                                10 ** 6)
            one_pass = entry_points()
            monkeypatch.setattr(FusedEnsembleScorer, "CHUNK_TARGET_ROWS",
                                rows)
            assert ensemble.fused_scorer()._chunk_size(5, 200) == \
                max(1, rows // 5)
            for chunked, single in zip(entry_points(), one_pass):
                np.testing.assert_array_equal(chunked, single)

    def test_pin_chunk_rows_sets_the_chunk(self, monkeypatch):
        # Registered first, so teardown restores the class default.
        monkeypatch.setattr(FusedEnsembleScorer, "CHUNK_TARGET_ROWS",
                            FusedEnsembleScorer.CHUNK_TARGET_ROWS)
        scorer = fabricated_ensemble(2, 4).fused_scorer()
        assert scorer._chunk_size(4, 1000) == 128 // 4
        FusedEnsembleScorer.pin_chunk_rows(64)
        assert FusedEnsembleScorer.CHUNK_TARGET_ROWS == 64
        assert scorer._chunk_size(4, 1000) == 16

    def test_pin_chunk_rows_rejects_rows_below_one(self, monkeypatch):
        monkeypatch.setattr(FusedEnsembleScorer, "CHUNK_TARGET_ROWS", 64)
        for rows in (0, -3):
            with pytest.raises(ValueError, match="rows must be >= 1"):
                FusedEnsembleScorer.pin_chunk_rows(rows)
        assert FusedEnsembleScorer.CHUNK_TARGET_ROWS == 64

    def test_scalar_window_matches_batch(self):
        ensemble = trained_ensemble(2, 3)
        series = make_series(2, seed=9)
        window = ensemble.cae_config.window
        windows = np.stack([series[i:i + window] for i in range(10)])
        batch = ensemble.score_windows_last(windows)
        for i in range(10):
            assert ensemble.score_window(windows[i]) == batch[i]

    def test_repeated_calls_reuse_workspace_identically(self):
        ensemble = trained_ensemble(2, 3)
        series = make_series(2, seed=9)
        first = ensemble.score(series)
        for _ in range(3):
            np.testing.assert_array_equal(ensemble.score(series), first)

    def test_concurrent_scoring_threads(self):
        """The workspace is thread-local: parallel scorers sharing one
        fused scorer must not corrupt each other's buffers."""
        ensemble = trained_ensemble(2, 3)
        series = make_series(2, seed=9)
        expected = ensemble.score(series)
        results, errors = {}, []

        def work(tag):
            try:
                for _ in range(5):
                    results[tag] = ensemble.score(series)
            except Exception as exc:          # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
        assert not errors
        for scores in results.values():
            np.testing.assert_array_equal(scores, expected)


class TestCausalSuffix:
    """``score_windows_last`` decodes only the causal suffix the last
    column depends on (float32 fast path); float64 stays full width."""

    @staticmethod
    def scorers(window, kernel_size, n_layers, use_glu=True,
                use_attention=True, reconstruct="observations"):
        config = CAEConfig(input_dim=2, embed_dim=8, window=window,
                           n_layers=n_layers, kernel_size=kernel_size,
                           use_glu=use_glu, use_attention=use_attention,
                           reconstruct=reconstruct)
        models = [CAE(config, np.random.default_rng(seed))
                  for seed in range(3)]
        windows = np.random.default_rng(7).standard_normal((5, window, 2))
        return {dtype: FusedEnsembleScorer(models, config, dtype=dtype,
                                           registry=NullRegistry())
                for dtype in (np.float32, np.float64)}, windows

    @pytest.mark.parametrize("reconstruct", ["observations", "embedding"])
    @pytest.mark.parametrize("use_attention", [True, False])
    @pytest.mark.parametrize("use_glu", [True, False])
    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    @pytest.mark.parametrize("kernel_size", [1, 3, 5])
    @pytest.mark.parametrize("window", [4, 16, 64, 128])
    def test_matches_full_width(self, window, kernel_size, n_layers,
                                use_glu, use_attention, reconstruct):
        scorers, windows = self.scorers(window, kernel_size, n_layers,
                                        use_glu, use_attention, reconstruct)
        for dtype, scorer in scorers.items():
            last = scorer.score_windows_last(windows)
            full = scorer.window_scores(windows)[:, -1]
            if dtype is np.float64:
                np.testing.assert_array_equal(last, full)
            else:
                np.testing.assert_allclose(last, full, rtol=1e-5)
            # Coalescing contract: one window at a time == one batch.
            single = np.concatenate([
                scorer.score_windows_last(windows[i:i + 1])
                for i in range(len(windows))])
            np.testing.assert_array_equal(single, last)

    def test_suffix_widths(self):
        scorers, _ = self.scorers(64, 3, 2)
        scorer = scorers[np.float32]
        assert scorer._decoder_widths(63) == [11, 9, 7, 5, 3, 1]
        assert scorer._decoder_widths(0) == [64] * 6
        # w=4, K=5, L=3: every stage clamps at the window.
        scorers, _ = self.scorers(4, 5, 3)
        assert scorers[np.float32]._decoder_widths(3) == [4] * 7 + [1]

    def test_repeated_and_interleaved_calls_allocate_nothing(self):
        scorers, windows = self.scorers(16, 3, 2)
        for scorer in scorers.values():
            last = scorer.score_windows_last(windows)
            full = scorer.window_scores(windows)
            workspace = scorer._workspaces(1)[0]
            allocs = workspace.allocs
            for _ in range(3):
                np.testing.assert_array_equal(
                    scorer.score_windows_last(windows), last)
                np.testing.assert_array_equal(
                    scorer.window_scores(windows), full)
            assert workspace.allocs == allocs


class TestBatchScore:
    """``score`` decodes the head window at full width and every later
    window through the suffix decoder (Figure 10 keeps only their last
    column)."""

    def test_float32_matches_full_width_mapping(self):
        ensemble = trained_ensemble(2, 5)
        series = make_series(2, seed=9)
        full = window_scores_to_observation_scores(
            ensemble.window_scores(series), ensemble.cae_config.window)
        np.testing.assert_allclose(ensemble.score(series), full, rtol=1e-5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_single_window_series(self, dtype):
        ensemble = trained_ensemble(2, 3)
        series = make_series(2, length=ensemble.cae_config.window, seed=9)
        with inference_precision(dtype):
            scores = ensemble.score(series)
            np.testing.assert_array_equal(
                scores, ensemble.window_scores(series)[0])
        assert scores.shape == (ensemble.cae_config.window,)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_tiny_chunks_match_single_pass(self, monkeypatch, dtype):
        ensemble = trained_ensemble(2, 3)
        series = make_series(2, seed=9)
        with inference_precision(dtype):
            monkeypatch.setattr(FusedEnsembleScorer, "CHUNK_TARGET_ROWS",
                                10 ** 6)
            one_pass = ensemble.score(series)
            monkeypatch.setattr(FusedEnsembleScorer, "CHUNK_TARGET_ROWS", 5)
            np.testing.assert_array_equal(ensemble.score(series), one_pass)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_empty_batches(self, dtype):
        ensemble = trained_ensemble(2, 2)
        window = ensemble.cae_config.window
        empty = np.empty((0, window, 2))
        with inference_precision(dtype):
            scorer = ensemble.fused_scorer()
            full = scorer.window_scores(empty)
            last = scorer.score_windows_last(empty)
            online = ensemble.score_windows_last(empty)
        assert full.shape == (0, window) and full.dtype == np.float64
        assert last.shape == (0,) and last.dtype == np.float64
        assert online.shape == (0,) and online.dtype == np.float64


def force_cores(monkeypatch, cores: int) -> None:
    monkeypatch.setattr(fused, "_usable_cores", lambda: cores)


def fork_and_score(scorer, windows, conn) -> None:
    conn.send(scorer.window_scores(windows))
    conn.close()


class TestChunkParallel:
    """A batch's chunks are spread over up to ``min(cores, chunks // 2)``
    threads; every entry point is bit-identical at any worker count."""

    @staticmethod
    def batch(n_windows):
        """A 5-model ensemble (25 windows per chunk), a series and its
        ``n_windows`` model-space windows."""
        ensemble = fabricated_ensemble(3, 5)
        series = make_series(3, length=n_windows + 7, seed=9)
        return ensemble, series, sliding_windows(ensemble._transform(series),
                                                 8)

    @classmethod
    def scorer_and_windows(cls, n_windows):
        ensemble, _, windows = cls.batch(n_windows)
        return FusedEnsembleScorer(ensemble.models, ensemble.cae_config,
                                   dtype=np.float32,
                                   registry=NullRegistry()), windows

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n_models", [None, 3])
    def test_bit_identical_at_any_worker_count(self, monkeypatch, dtype,
                                               n_models):
        # 213 windows: 9 chunks of up to 25 at M=5 (last one 13), 6 of
        # up to 42 at n_models=3 (last one 3).  Up to 4 workers, more than
        # the cores of a small host, with fast thread switching.
        ensemble, series, windows = self.batch(213)

        def entry_points():
            scorer = ensemble.fused_scorer()
            return (scorer.window_scores(windows, n_models=n_models),
                    scorer.score_windows_last(windows, n_models=n_models),
                    ensemble.score(series, n_models=n_models))

        interval = sys.getswitchinterval()
        with inference_precision(dtype):
            force_cores(monkeypatch, 1)
            serial = entry_points()
            sys.setswitchinterval(1e-5)
            try:
                for cores in (2, 3, 4):
                    force_cores(monkeypatch, cores)
                    for parallel, expected in zip(entry_points(), serial):
                        np.testing.assert_array_equal(parallel, expected)
            finally:
                sys.setswitchinterval(interval)

    def test_workers_split_the_chunks(self, monkeypatch):
        scorer, windows = self.scorer_and_windows(163)
        names = []
        start = threading.Thread.start

        def spy(thread):
            names.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", spy)
        force_cores(monkeypatch, 3)
        scorer.window_scores(windows)            # 7 chunks: 3 spans
        assert names == ["fused-span-1", "fused-span-2"]
        names.clear()
        scorer.window_scores(windows[:75])       # 3 chunks: 1 span
        scorer.score_windows_last(windows[:25])  # 1 chunk
        assert names == []

    def test_helper_exception_reaches_the_caller(self, monkeypatch):
        scorer, windows = self.scorer_and_windows(100)
        force_cores(monkeypatch, 2)
        caller = threading.current_thread()
        score_chunk = scorer._score_chunk

        def failing(*args):
            if threading.current_thread() is not caller:
                raise RuntimeError("helper span failed")
            score_chunk(*args)

        monkeypatch.setattr(scorer, "_score_chunk", failing)
        with pytest.raises(RuntimeError, match="helper span failed"):
            scorer.window_scores(windows)

    def test_failed_thread_start_joins_the_started_helpers(self,
                                                          monkeypatch):
        scorer, windows = self.scorer_and_windows(163)
        force_cores(monkeypatch, 3)
        start = threading.Thread.start

        def start_one(thread):
            if thread.name == "fused-span-2":
                raise RuntimeError("can't start new thread")
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", start_one)
        with pytest.raises(RuntimeError, match="can't start new thread"):
            scorer.window_scores(windows)
        assert not [thread for thread in threading.enumerate()
                    if thread.name.startswith("fused-span")]

    def test_forked_child_scores_a_multi_chunk_batch(self, monkeypatch):
        scorer, windows = self.scorer_and_windows(163)
        force_cores(monkeypatch, 2)
        expected = scorer.window_scores(windows)    # helpers ran here
        context = multiprocessing.get_context("fork")
        receiver, sender = context.Pipe(duplex=False)
        child = context.Process(target=fork_and_score,
                                args=(scorer, windows, sender))
        child.start()
        sender.close()
        try:
            assert receiver.poll(60.0), "forked child hung while scoring"
            np.testing.assert_array_equal(receiver.recv(), expected)
        finally:
            child.join(10.0)
            if child.is_alive():                    # pragma: no cover
                child.kill()
                child.join()
        assert not child.is_alive() and child.exitcode == 0

    def test_cycling_batch_sizes_allocate_nothing(self, monkeypatch):
        """Buffers keep their largest size: a partial last chunk or a
        smaller coalesced batch reuses a prefix instead of reallocating."""
        scorer, windows = self.scorer_and_windows(163)
        force_cores(monkeypatch, 2)
        sizes = (163, 52, 110, 13, 8, 129)       # 1 or 2 spans
        for size in sizes:
            scorer.score_windows_last(windows[:size])
            scorer.window_scores(windows[:size])
        workspaces = scorer._workspaces(2)
        allocs = [workspace.allocs for workspace in workspaces]
        reuses = sum(workspace.reuses for workspace in workspaces)
        for size in sizes:
            scorer.score_windows_last(windows[:size])
            scorer.window_scores(windows[:size])
        assert [workspace.allocs for workspace in workspaces] == allocs
        assert sum(workspace.reuses for workspace in workspaces) > reuses


class TestCacheLifecycle:
    def test_scorer_cached_between_calls(self):
        ensemble = trained_ensemble(2, 2)
        series = make_series(2, seed=9)
        ensemble.score(series)
        scorer = ensemble._fused_scorer
        assert scorer is not None
        ensemble.score(series)
        assert ensemble._fused_scorer is scorer

    def test_refit_rebuilds_scorer(self):
        ensemble = trained_ensemble(2, 2)
        series = make_series(2, seed=9)
        before = ensemble.score(series)
        scorer = ensemble._fused_scorer
        ensemble.fit(make_series(2, seed=5))
        after = ensemble.score(series)
        assert ensemble._fused_scorer is not scorer
        assert not np.array_equal(before, after)
        assert_fused_equivalent(ensemble, series)

    def test_model_list_swap_detected(self):
        ensemble = trained_ensemble(2, 3)
        series = make_series(2, seed=9)
        ensemble.score(series)
        ensemble.models = ensemble.models[:2]     # drop a model
        assert_fused_equivalent(ensemble, series)

    def test_in_place_mutation_needs_invalidate(self):
        ensemble = trained_ensemble(2, 2)
        series = make_series(2, seed=9)
        stale = ensemble.score(series)
        # In-place weight surgery is invisible to the id fingerprint...
        for model in ensemble.models:
            state = {name: values * 1.5
                     for name, values in model.state_dict().items()}
            model.load_state_dict(state)
        np.testing.assert_array_equal(ensemble.score(series), stale)
        # ... until the cache is dropped explicitly.
        ensemble.invalidate_fused()
        fresh = ensemble.score(series)
        assert not np.array_equal(fresh, stale)
        assert_fused_equivalent(ensemble, series)

    def test_dtype_change_rebuilds(self):
        ensemble = trained_ensemble(2, 2)
        series = make_series(2, seed=9)
        ensemble.score(series)
        assert ensemble._fused_scorer.dtype == inference_dtype()
        with inference_precision(np.float64):
            ensemble.score(series)
            assert ensemble._fused_scorer.dtype == np.float64

    def test_unfitted_rejected(self):
        ensemble = CAEEnsemble(CAEConfig(input_dim=2))
        with pytest.raises(RuntimeError):
            ensemble.fused_scorer()
        with pytest.raises(ValueError):
            FusedEnsembleScorer([], CAEConfig(input_dim=2))

    def test_bad_window_shapes_rejected(self):
        ensemble = trained_ensemble(2, 2)
        with pytest.raises(ValueError):
            ensemble.fused_scorer().window_scores(np.zeros((4, 3, 2)))
        with pytest.raises(ValueError):
            ensemble.fused_scorer().window_scores(np.zeros((8, 2)))


class TestAfterRefreshAndPersistence:
    def test_streaming_refresh_swap_stays_equivalent(self):
        """After a drift-triggered inline refresh swap the serving
        ensemble is a new instance with packed fused weights — its fused
        and per-model scores must still match."""
        from repro.streaming import (DDMDrift, EnsembleRefresher,
                                     StreamingDetector)
        from tests.conftest import make_stream_ensemble
        detector = StreamingDetector(
            make_stream_ensemble(epochs=1),
            drift_detector=DDMDrift(min_samples=20),
            refresher=EnsembleRefresher(min_history=80, epochs_per_model=1),
            history=256)
        detector.warm_up(sine_regime(7, start=353))
        detector.update_batch(sine_regime(60, start=360))
        shifted = sine_regime(200, start=420, shift=3.0)
        for start in range(0, 200, 20):
            detector.update_batch(shifted[start:start + 20])
        assert detector.n_refreshes >= 1
        refreshed = detector.ensemble
        assert refreshed._fused_scorer is not None   # packed at build time
        assert_fused_equivalent(refreshed, sine_regime(120, start=620,
                                                       shift=3.0))

    def test_save_load_round_trip(self, tmp_path):
        ensemble = trained_ensemble(3, 5)
        series = make_series(3, seed=9)
        save_ensemble(ensemble, str(tmp_path / "ensemble"))
        reloaded = load_ensemble(str(tmp_path / "ensemble"))
        # Same weights -> bit-identical fused scores, and the reloaded
        # instance honours the full equivalence contract.
        np.testing.assert_array_equal(reloaded.score(series),
                                      ensemble.score(series))
        assert_fused_equivalent(reloaded, series)

    def test_refresh_build_prepares_fused_weights(self):
        from repro.streaming import EnsembleRefresher
        ensemble = trained_ensemble(2, 2)
        refresher = EnsembleRefresher(epochs_per_model=1)
        replacement, _ = refresher.build(ensemble, make_series(2, seed=3),
                                         index=100)
        assert replacement._fused_scorer is not None
        assert_fused_equivalent(replacement, make_series(2, seed=9))


# The float32 score battery the golden digest pins: every architecture
# toggle (and mean aggregation) at 5 models, scored at B in {1, 2, 5, 40}
# through window_scores and score_windows_last, plus batch score, each
# with the full ensemble (odd median), 4 models (even median) and 1.
SCORE_BATTERY = [{}, {"use_glu": False}, {"use_attention": False},
                 {"use_glu": False, "use_attention": False},
                 {"reconstruct": "embedding"}, {"position_mode": "table"},
                 {"kernel_size": 5}, {"n_layers": 1},
                 {"aggregation": "mean"}]


def score_battery_digest() -> str:
    digest = hashlib.sha256()
    for index, overrides in enumerate(SCORE_BATTERY):
        overrides = dict(overrides)
        aggregation = overrides.pop("aggregation", "median")
        overrides.setdefault("n_layers", 2)
        config = CAEConfig(input_dim=3, embed_dim=8, window=8, **overrides)
        ensemble = CAEEnsemble(config, EnsembleConfig(
            n_models=5, seed=0, aggregation=aggregation))
        root = np.random.default_rng(index)
        ensemble.models = [CAE(config, np.random.default_rng(
            root.integers(2 ** 32))) for _ in range(5)]
        ensemble.scaler = StandardScaler().fit(make_series(3, seed=index))
        series = make_series(3, length=60, seed=index + 50)
        windows = sliding_windows(ensemble._transform(series), 8)
        with inference_precision(np.float32):
            scorer = ensemble.fused_scorer()
            for n_models in (None, 4, 1):
                for batch in (1, 2, 5, 40):
                    for scores in (
                            scorer.window_scores(windows[:batch], n_models),
                            scorer.score_windows_last(windows[:batch],
                                                      n_models)):
                        digest.update(scores.tobytes())
                digest.update(ensemble.score(
                    series, n_models=n_models).tobytes())
    return digest.hexdigest()[:16]


def array_root(array: np.ndarray) -> np.ndarray:
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def plan_arrays(plan):
    """Every array a recorded plan reads or writes."""
    inputs, ops, result = plan
    arrays = [inputs, result]
    for _, args, kwargs in ops:
        arrays.extend(value for value in (*args, *kwargs.values())
                      if isinstance(value, np.ndarray))
    return arrays


class TestReplayedPlans:
    """The forward is recorded once per chunk shape and replayed as a flat
    list of NumPy calls: bit-identical scores, plans that die with the
    buffers they view, one set of plans per thread."""

    # The digest of score_battery_digest() taken from the executing
    # forward the plans replaced, and the numpy/OpenBLAS fingerprint it
    # was taken with.
    GOLDEN_DIGEST = "381f417d8b689085"
    GOLDEN_PLATFORM = "70766577d28813e8"

    def test_float32_scores_match_golden_digest(self):
        if platform_fingerprint() != self.GOLDEN_PLATFORM:
            pytest.skip("other BLAS/ufunc kernels round differently; the "
                        "digest pins this platform's bits")
        assert score_battery_digest() == self.GOLDEN_DIGEST

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("aggregation", ["median", "mean"])
    def test_aggregate_matches_numpy_bit_for_bit(self, aggregation, m,
                                                 dtype):
        rng = np.random.default_rng(m)
        errors = rng.standard_normal((m, 40, 3)).astype(dtype) ** 2
        errors[:, :10] = rng.integers(0, 3, (m, 10, 3))     # ties
        errors[0, 10, 0] = np.nan
        errors[m - 1, 11, 1] = np.inf
        expected = np.median(errors, axis=0) if aggregation == "median" \
            else errors.mean(axis=0)
        recorder = fused._Recorder(fused._Workspace(), np.dtype(dtype), m)
        scratch = errors.copy()
        result = recorder.aggregate(scratch, aggregation)
        for fn, args, kwargs in recorder.ops:
            fn(*args, **kwargs)
        assert result.dtype == expected.dtype
        assert result.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("window, kernel_size", [(2, 7), (3, 9)])
    def test_padding_wider_than_the_window(self, window, kernel_size):
        """A ``same`` pad wider than the window zeroes whole im2col rows:
        scores do not depend on what the shared unfolding buffer held."""
        config = CAEConfig(input_dim=2, embed_dim=4, window=window,
                           kernel_size=kernel_size, n_layers=2)
        ensemble = CAEEnsemble(config, EnsembleConfig(n_models=3, seed=0))
        ensemble.models = [CAE(config, np.random.default_rng(seed))
                           for seed in range(3)]
        series = make_series(2, length=40, seed=4)
        ensemble.scaler = StandardScaler().fit(series)
        windows = np.stack([series[i:i + window] for i in range(9)])
        with inference_precision(np.float64):
            workspace = ensemble.fused_scorer()._workspaces(1)[0]
            workspace.get("cols", (1 << 14,), np.float64).fill(np.nan)
            np.testing.assert_array_equal(
                ensemble.score(series), ensemble.score(series, fused=False))
            np.testing.assert_array_equal(
                ensemble.window_scores(series),
                ensemble.window_scores(series, fused=False))
            np.testing.assert_array_equal(
                ensemble.score_windows_last(windows),
                ensemble.score_windows_last(windows, fused=False))

    def test_cycling_batch_sizes_keep_allocs_flat(self, monkeypatch):
        scorer, windows = TestChunkParallel.scorer_and_windows(64)
        force_cores(monkeypatch, 1)
        workspace = scorer._workspaces(1)[0]
        first = [scorer.score_windows_last(windows[:size])
                 for size in (1, 64)]
        allocs = workspace.allocs
        for size, expected in zip((1, 64), first):
            np.testing.assert_array_equal(
                scorer.score_windows_last(windows[:size]), expected)
        assert workspace.allocs == allocs
        # One plan per chunk shape: 1 window, and 25 + 25 + 14.
        assert sorted(key[1] for key in workspace.plans) == [1, 14, 25]

    def test_plans_view_only_current_buffers(self, monkeypatch):
        scorer, windows = TestChunkParallel.scorer_and_windows(64)
        force_cores(monkeypatch, 1)
        workspace = scorer._workspaces(1)[0]
        for size in (1, 64, 3, 64, 2):      # grows, then reuses
            scorer.window_scores(windows[:size])
            scorer.score_windows_last(windows[:size])
        _, arrays = scorer.export_pack()
        owners = {id(array_root(array)) for array in arrays.values()} | {
            id(buffer) for buffer in workspace._buffers.values()}
        assert workspace.plans
        for plan in workspace.plans.values():
            assert all(id(array_root(array)) in owners
                       for array in plan_arrays(plan))
        # Growing a buffer drops every plan recorded before it.
        workspace.get("cols", (1 << 20,), scorer.dtype)
        assert not workspace.plans

    def test_plans_are_per_thread(self, monkeypatch):
        scorer, windows = TestChunkParallel.scorer_and_windows(163)
        force_cores(monkeypatch, 2)
        scorer.window_scores(windows)          # 7 chunks: 2 spans
        spans = scorer._workspaces(2)
        assert all(workspace.plans for workspace in spans)
        for workspace in spans:
            buffers = {id(buffer) for buffer in workspace._buffers.values()}
            for inputs, _, _ in workspace.plans.values():
                assert id(array_root(inputs)) in buffers
        other = []
        thread = threading.Thread(target=lambda: other.append(
            (scorer.window_scores(windows[:5]), scorer._workspaces(1)[0])))
        thread.start()
        thread.join(30.0)
        scores, workspace = other[0]
        assert workspace not in spans and workspace.plans
        np.testing.assert_array_equal(scores, scorer.window_scores(
            windows[:5]))

    def test_replays_count_as_workspace_reuses(self):
        from repro.obs import MetricsRegistry
        ensemble, _, windows = TestChunkParallel.batch(30)
        registry = MetricsRegistry()
        scorer = FusedEnsembleScorer(ensemble.models, ensemble.cae_config,
                                     registry=registry)
        allocs = registry.counter("repro_fused_workspace_allocs_total")
        reuses = registry.counter("repro_fused_workspace_reuses_total")
        scorer.score_windows_last(windows[:2])
        settled, seen = allocs.value, reuses.value
        for _ in range(3):
            scorer.score_windows_last(windows[:2])
            assert allocs.value == settled
            assert reuses.value == seen + 1
            seen = reuses.value

    def test_plans_are_capped_oldest_first(self, monkeypatch):
        """Forty partial-chunk sizes (M=2: 64 windows a chunk) keep at
        most ``MAX_PLANS`` plans, the newest ones, and every size scores
        bit-identically to a fresh scorer's, evicted ones included."""
        ensemble = fabricated_ensemble(3, 2)
        windows = sliding_windows(
            ensemble._transform(make_series(3, length=47, seed=9)), 8)
        force_cores(monkeypatch, 1)

        def fresh():
            return FusedEnsembleScorer(ensemble.models, ensemble.cae_config,
                                       dtype=np.float32,
                                       registry=NullRegistry())

        scorer = fresh()
        workspace = scorer._workspaces(1)[0]
        sizes = [40] + list(range(1, 40))    # the largest first: no growth
        assert len(sizes) > fused.MAX_PLANS
        first = []
        for size in sizes:
            first.append(scorer.score_windows_last(windows[:size]))
            assert len(workspace.plans) <= fused.MAX_PLANS
        assert [key[1] for key in workspace.plans] == \
            sizes[-fused.MAX_PLANS:]
        for size, scores in zip(sizes, first):
            expected = fresh().score_windows_last(windows[:size]).tobytes()
            assert scores.tobytes() == expected
            assert scorer.score_windows_last(windows[:size]).tobytes() \
                == expected
        assert len(workspace.plans) == fused.MAX_PLANS
