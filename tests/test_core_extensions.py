"""Extension modules: repair, ratio estimation, ensemble persistence."""

import numpy as np
import pytest

from repro.core import (CAEConfig, CAEEnsemble, EnsembleConfig,
                        elbow_ratio_estimate, ensemble_reconstruction,
                        estimate_outlier_ratio, gaussian_tail_estimate,
                        interpolate_over_mask, load_ensemble,
                        mad_ratio_estimate, repair_quality, repair_series,
                        save_ensemble)


@pytest.fixture(scope="module")
def clean_series():
    rng = np.random.default_rng(8)
    t = np.arange(500)
    series = np.stack([np.sin(2 * np.pi * t / 25),
                       np.cos(2 * np.pi * t / 40)], axis=1)
    return series + 0.03 * rng.standard_normal(series.shape)


@pytest.fixture(scope="module")
def corrupted(clean_series):
    rng = np.random.default_rng(9)
    corrupted = clean_series.copy()
    positions = rng.choice(np.arange(20, 480), size=15, replace=False)
    for position in positions:
        corrupted[position] += rng.choice([-1.0, 1.0]) * 5.0
    return corrupted, np.sort(positions)


@pytest.fixture(scope="module")
def fitted(clean_series):
    cae = CAEConfig(input_dim=2, embed_dim=16, window=8, n_layers=1)
    config = EnsembleConfig(n_models=2, epochs_per_model=3,
                            max_training_windows=300, seed=0)
    return CAEEnsemble(cae, config).fit(clean_series)


class TestInterpolation:
    def test_interpolates_masked_points(self):
        series = np.arange(10.0).reshape(-1, 1)
        mask = np.zeros(10, dtype=bool)
        mask[4] = True
        series_corrupt = series.copy()
        series_corrupt[4] = 99.0
        repaired = interpolate_over_mask(series_corrupt, mask)
        assert repaired[4, 0] == pytest.approx(4.0)

    def test_leading_run_takes_nearest_clean(self):
        series = np.arange(5.0).reshape(-1, 1)
        mask = np.array([True, True, False, False, False])
        repaired = interpolate_over_mask(series, mask)
        np.testing.assert_allclose(repaired[:2, 0], 2.0)

    def test_all_masked_is_noop(self):
        series = np.arange(5.0).reshape(-1, 1)
        repaired = interpolate_over_mask(series, np.ones(5, dtype=bool))
        np.testing.assert_array_equal(repaired, series)

    def test_none_masked_is_copy(self):
        series = np.arange(5.0).reshape(-1, 1)
        repaired = interpolate_over_mask(series, np.zeros(5, dtype=bool))
        np.testing.assert_array_equal(repaired, series)
        assert repaired is not series


class TestRepair:
    def test_reconstruction_repair_improves_rmse(self, fitted, clean_series,
                                                 corrupted):
        series, _ = corrupted
        result = repair_series(fitted, series, ratio=15 / 500)
        quality = repair_quality(clean_series, series, result.repaired)
        assert quality["improvement"] > 1.5, quality

    def test_interpolation_policy_improves_rmse(self, fitted, clean_series,
                                                corrupted):
        series, _ = corrupted
        result = repair_series(fitted, series, ratio=15 / 500,
                               policy="interpolation")
        quality = repair_quality(clean_series, series, result.repaired)
        assert quality["improvement"] > 1.5, quality

    def test_only_flagged_observations_change(self, fitted, corrupted):
        series, _ = corrupted
        result = repair_series(fitted, series, ratio=15 / 500)
        unchanged = ~result.outlier_mask
        np.testing.assert_array_equal(result.repaired[unchanged],
                                      series[unchanged])

    def test_mask_hits_real_corruption(self, fitted, corrupted):
        series, positions = corrupted
        result = repair_series(fitted, series, ratio=15 / 500)
        flagged = set(np.flatnonzero(result.outlier_mask).tolist())
        hits = sum(1 for p in positions if p in flagged)
        assert hits >= 0.6 * len(positions)

    def test_requires_threshold_or_ratio(self, fitted, corrupted):
        with pytest.raises(ValueError):
            repair_series(fitted, corrupted[0])

    def test_unknown_policy(self, fitted, corrupted):
        with pytest.raises(ValueError):
            repair_series(fitted, corrupted[0], ratio=0.03, policy="magic")

    def test_reconstruction_shape(self, fitted, clean_series):
        reconstruction = ensemble_reconstruction(fitted, clean_series)
        assert reconstruction.shape == clean_series.shape

    def test_reconstruction_tracks_signal(self, fitted, clean_series):
        reconstruction = ensemble_reconstruction(fitted, clean_series)
        rmse = np.sqrt(np.mean((reconstruction - clean_series) ** 2))
        assert rmse < clean_series.std()    # better than predicting mean

    def test_embedding_mode_rejected(self, clean_series):
        cae = CAEConfig(input_dim=2, embed_dim=8, window=8, n_layers=1,
                        reconstruct="embedding")
        ensemble = CAEEnsemble(cae, EnsembleConfig(
            n_models=1, epochs_per_model=1, max_training_windows=50))
        ensemble.fit(clean_series[:100])
        with pytest.raises(ValueError):
            ensemble_reconstruction(ensemble, clean_series[:100])


class TestRatioEstimation:
    @staticmethod
    def synthetic_scores(ratio, n=5000, seed=0):
        rng = np.random.default_rng(seed)
        n_out = int(n * ratio)
        inliers = rng.lognormal(0.0, 0.4, size=n - n_out)
        outliers = rng.lognormal(2.5, 0.3, size=n_out)
        return np.concatenate([inliers, outliers])

    @pytest.mark.parametrize("true_ratio", [0.02, 0.05, 0.1])
    def test_combined_estimate_in_right_ballpark(self, true_ratio):
        scores = self.synthetic_scores(true_ratio)
        estimate = estimate_outlier_ratio(scores)
        assert 0.3 * true_ratio <= estimate <= 3.0 * true_ratio, \
            (true_ratio, estimate)

    def test_mad_robust_to_contamination(self):
        scores = self.synthetic_scores(0.05)
        estimate = mad_ratio_estimate(scores)
        assert 0.0 < estimate < 0.3

    def test_mad_constant_scores(self):
        assert mad_ratio_estimate(np.ones(100)) == 0.0

    def test_elbow_clamped(self):
        scores = np.linspace(0, 1, 200)   # no tail at all
        assert 0.0 <= elbow_ratio_estimate(scores) <= 0.5

    def test_gaussian_tail_without_positives(self):
        assert gaussian_tail_estimate(np.zeros(100)) == 0.0

    def test_gaussian_fence_is_scipy_norm_ppf_bit_for_bit(self):
        """The fence skips importing ``scipy.stats`` but must be exactly
        the quantile ``stats.norm.ppf`` returns."""
        from scipy import stats

        from repro.core.ratio_estimation import _normal_ppf
        rng = np.random.default_rng(5)
        n = 200_000
        q = np.concatenate([rng.uniform(0.0, 1.0, n),
                            [0.0, 1.0, 0.5, 0.999, 0.75, 1e-300]])
        loc = rng.normal(0.0, 10.0, q.size)
        scale = rng.lognormal(0.0, 3.0, q.size)
        reference = stats.norm.ppf(q, loc=loc, scale=scale)
        np.testing.assert_array_equal(_normal_ppf(q, loc, scale), reference)
        for quantile in (0.9, 0.99, 0.999):
            assert _normal_ppf(quantile, np.float64(-1.25),
                               np.float64(0.4)) == \
                stats.norm.ppf(quantile, loc=-1.25, scale=0.4)

    def test_rejects_tiny_input(self):
        with pytest.raises(ValueError):
            estimate_outlier_ratio(np.ones(5))

    def test_rejects_nonfinite(self):
        scores = np.ones(50)
        scores[3] = np.inf
        with pytest.raises(ValueError):
            estimate_outlier_ratio(scores)

    def test_on_real_ensemble_scores(self, fitted, corrupted):
        """End to end: estimated ratio from actual detector scores is the
        right order of magnitude (15 planted / 500 = 3%)."""
        series, _ = corrupted
        scores = fitted.score(series)
        estimate = estimate_outlier_ratio(scores)
        assert 0.005 <= estimate <= 0.15


class TestPersistence:
    def test_round_trip_scores_identical(self, fitted, clean_series,
                                         tmp_path):
        directory = str(tmp_path / "ensemble")
        save_ensemble(fitted, directory)
        reloaded = load_ensemble(directory)
        np.testing.assert_array_equal(fitted.score(clean_series),
                                      reloaded.score(clean_series))

    def test_round_trip_preserves_configs(self, fitted, tmp_path):
        directory = str(tmp_path / "ensemble")
        save_ensemble(fitted, directory)
        reloaded = load_ensemble(directory)
        assert reloaded.cae_config == fitted.cae_config
        assert reloaded.config == fitted.config
        assert reloaded.n_models == fitted.n_models

    def test_scaler_preserved(self, fitted, tmp_path):
        directory = str(tmp_path / "ensemble")
        save_ensemble(fitted, directory)
        reloaded = load_ensemble(directory)
        np.testing.assert_array_equal(reloaded.scaler.mean_,
                                      fitted.scaler.mean_)

    def test_unfitted_rejected(self, tmp_path):
        ensemble = CAEEnsemble(CAEConfig(input_dim=2))
        with pytest.raises(ValueError):
            save_ensemble(ensemble, str(tmp_path / "nope"))

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_ensemble(str(tmp_path / "missing"))

    def test_bad_version_raises(self, fitted, tmp_path):
        import json
        import os
        directory = str(tmp_path / "ensemble")
        save_ensemble(fitted, directory)
        manifest_path = os.path.join(directory, "manifest.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["format_version"] = 999
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ValueError):
            load_ensemble(directory)
