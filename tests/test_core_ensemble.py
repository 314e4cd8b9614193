"""CAE-Ensemble training and scoring (Algorithm 1)."""

import numpy as np
import pytest

from repro.core import CAEConfig, CAEEnsemble, EnsembleConfig
from repro.nn import inference_precision


@pytest.fixture
def small_series():
    rng = np.random.default_rng(4)
    t = np.arange(400)
    series = np.stack([np.sin(2 * np.pi * t / 25),
                       np.cos(2 * np.pi * t / 40)], axis=1)
    return series + 0.05 * rng.standard_normal(series.shape)


def quick_ensemble(n_models=2, epochs=2, **overrides):
    cae = CAEConfig(input_dim=2, embed_dim=12, window=8, n_layers=1)
    defaults = dict(n_models=n_models, epochs_per_model=epochs,
                    batch_size=32, max_training_windows=200, seed=7)
    defaults.update(overrides)
    return CAEEnsemble(cae, EnsembleConfig(**defaults))


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"n_models": 0}, {"epochs_per_model": 0},
        {"transfer_fraction": 1.5}, {"diversity_weight": -1.0},
        {"batch_size": 0}, {"learning_rate": 0.0},
        {"aggregation": "mode"},
        # 0 windows: ZeroDivisionError in the epoch average; -3: numpy's
        # "negative dimensions" from the subsample.
        {"max_training_windows": 0}, {"max_training_windows": -3},
        # Adam scales by clip / norm: 0 zeroes every update, a negative
        # clip reverses it.
        {"grad_clip": 0.0}, {"grad_clip": -1.0},
        # 0 would stop every model after its second epoch.
        {"early_stop_patience": 0},
        # s·K/(K+s) is 0/0 at K = 0.
        {"diversity_saturation": 0.0}, {"diversity_saturation": -0.5},
    ])
    def test_invalid(self, kwargs):
        (field,) = kwargs
        with pytest.raises(ValueError, match=field):
            EnsembleConfig(**kwargs)

    def test_none_disables_cap_and_clip(self):
        config = EnsembleConfig(max_training_windows=None, grad_clip=None)
        assert config.max_training_windows is None
        assert config.grad_clip is None


class TestTraining:
    def test_fit_produces_m_models(self, small_series):
        ensemble = quick_ensemble(n_models=3).fit(small_series)
        assert ensemble.n_models == 3

    def test_history_records_all_epochs(self, small_series):
        ensemble = quick_ensemble(n_models=2, epochs=3).fit(small_series)
        assert len(ensemble.history) == 6
        assert ensemble.history[0].model_index == 0
        assert ensemble.history[-1].model_index == 1

    def test_loss_decreases_within_first_model(self, small_series):
        ensemble = quick_ensemble(n_models=1, epochs=5).fit(small_series)
        losses = [r.loss for r in ensemble.history]
        assert losses[-1] < losses[0]

    def test_transfer_reports_one_per_later_model(self, small_series):
        ensemble = quick_ensemble(n_models=3,
                                  transfer_fraction=0.5).fit(small_series)
        assert len(ensemble.transfer_reports) == 2
        for report in ensemble.transfer_reports:
            assert 0.3 < report.copied_fraction < 0.7

    def test_no_transfer_when_beta_zero(self, small_series):
        ensemble = quick_ensemble(n_models=2,
                                  transfer_fraction=0.0).fit(small_series)
        assert ensemble.transfer_reports == []

    def test_diversity_term_recorded_for_later_models(self, small_series):
        ensemble = quick_ensemble(n_models=2,
                                  diversity_weight=1.0).fit(small_series)
        first = [r for r in ensemble.history if r.model_index == 0]
        second = [r for r in ensemble.history if r.model_index == 1]
        assert all(r.diversity == 0.0 for r in first)
        assert any(r.diversity > 0.0 for r in second)

    def test_train_seconds_recorded(self, small_series):
        ensemble = quick_ensemble().fit(small_series)
        assert ensemble.train_seconds_ > 0.0

    def test_deterministic_given_seed(self, small_series):
        a = quick_ensemble(seed=3).fit(small_series).score(small_series)
        b = quick_ensemble(seed=3).fit(small_series).score(small_series)
        np.testing.assert_array_equal(a, b)

    def test_dim_mismatch_raises(self, small_series):
        ensemble = quick_ensemble()
        with pytest.raises(ValueError):
            ensemble.fit(np.zeros((100, 5)))

    def test_rejects_1d_series(self):
        with pytest.raises(ValueError):
            quick_ensemble().fit(np.zeros(100))


class TestScoring:
    def test_score_length_matches_series(self, small_series):
        ensemble = quick_ensemble().fit(small_series)
        scores = ensemble.score(small_series)
        assert scores.shape == (small_series.shape[0],)
        assert np.all(scores >= 0)

    def test_score_before_fit_raises(self, small_series):
        with pytest.raises(RuntimeError):
            quick_ensemble().score(small_series)

    def test_n_models_prefix_scoring(self, small_series):
        ensemble = quick_ensemble(n_models=3).fit(small_series)
        one = ensemble.score(small_series, n_models=1)
        three = ensemble.score(small_series, n_models=3)
        assert one.shape == three.shape
        assert not np.allclose(one, three)

    def test_n_models_zero_raises(self, small_series):
        ensemble = quick_ensemble(n_models=2).fit(small_series)
        with pytest.raises(ValueError):
            ensemble.score(small_series, n_models=0)

    def test_median_vs_mean_aggregation(self, small_series):
        median = quick_ensemble(n_models=3, aggregation="median")
        mean = quick_ensemble(n_models=3, aggregation="mean")
        s_median = median.fit(small_series).score(small_series)
        s_mean = mean.fit(small_series).score(small_series)
        assert not np.allclose(s_median, s_mean)

    def test_score_window_matches_batch_path(self, small_series):
        """Online scoring of window i must equal the batch score of the
        corresponding observation (Figure 10 tail entries): exactly on the
        float64 path, within the float32 contract at the default dtype."""
        ensemble = quick_ensemble().fit(small_series)
        w = ensemble.cae_config.window
        with inference_precision(np.float64):
            exact_scores = ensemble.score(small_series)
        batch_scores = ensemble.score(small_series)
        for i in (50, 100, 200):
            window = small_series[i - w + 1:i + 1]
            with inference_precision(np.float64):
                assert ensemble.score_window(window) == exact_scores[i]
            online = ensemble.score_window(window)
            assert online == pytest.approx(batch_scores[i], rel=1e-5)

    def test_score_window_shape_validation(self, small_series):
        ensemble = quick_ensemble().fit(small_series)
        with pytest.raises(ValueError):
            ensemble.score_window(np.zeros((3, 2)))

    def test_detect_with_ratio(self, small_series):
        ensemble = quick_ensemble().fit(small_series)
        predictions = ensemble.detect(small_series, ratio=0.05)
        assert predictions.sum() == pytest.approx(
            0.05 * small_series.shape[0], abs=2)

    def test_detect_with_threshold(self, small_series):
        ensemble = quick_ensemble().fit(small_series)
        scores = ensemble.score(small_series)
        predictions = ensemble.detect(small_series,
                                      threshold=float(np.median(scores)))
        assert 0 < predictions.sum() < small_series.shape[0]

    def test_detect_requires_threshold_or_ratio(self, small_series):
        ensemble = quick_ensemble().fit(small_series)
        with pytest.raises(ValueError):
            ensemble.detect(small_series)

    def test_no_rescale_mode(self, small_series):
        ensemble = quick_ensemble(rescale=False).fit(small_series)
        assert ensemble.scaler is None
        assert ensemble.score(small_series).shape == \
            (small_series.shape[0],)


class TestDiversityBehaviour:
    def test_diversity_weight_raises_ensemble_diversity(self, small_series):
        """The Table 6 claim: training with the diversity objective yields a
        more diverse ensemble than independent training."""
        plain = quick_ensemble(n_models=3, diversity_weight=0.0,
                               transfer_fraction=0.0, epochs=3)
        driven = quick_ensemble(n_models=3, diversity_weight=2.0,
                                transfer_fraction=0.5, epochs=3)
        d_plain = plain.fit(small_series).diversity(small_series[:150])
        d_driven = driven.fit(small_series).diversity(small_series[:150])
        assert d_driven > d_plain

    def test_validation_reconstruction_error_positive(self, small_series):
        ensemble = quick_ensemble().fit(small_series)
        error = ensemble.validation_reconstruction_error(small_series[:100])
        assert error > 0.0


class CancelAfterPolls:
    """Cooperative-cancellation flag that trips after N ``is_set`` polls
    (fit polls once before each basic-model fit)."""

    def __init__(self, polls):
        self.polls = polls

    def is_set(self):
        self.polls -= 1
        return self.polls < 0


class TestRefitDeterminism:
    """The fit-time RNG reset: repeated fits of one instance reproduce
    ("all randomness flows from the seed"), unless reuse_rng opts out."""

    def test_refit_same_instance_reproduces(self, small_series):
        ensemble = quick_ensemble().fit(small_series)
        first_scores = ensemble.score(small_series)
        first_losses = [record.loss for record in ensemble.history]
        ensemble.fit(small_series)
        assert [record.loss for record in ensemble.history] == first_losses
        np.testing.assert_array_equal(ensemble.score(small_series),
                                      first_scores)

    def test_refit_matches_fresh_instance(self, small_series):
        refitted = quick_ensemble().fit(small_series).fit(small_series)
        fresh = quick_ensemble().fit(small_series)
        np.testing.assert_array_equal(refitted.score(small_series),
                                      fresh.score(small_series))

    def test_reuse_rng_continues_the_stream(self, small_series):
        a = quick_ensemble().fit(small_series)
        b = quick_ensemble().fit(small_series)
        a.fit(small_series, reuse_rng=True)
        # The continued stream differs from the seed-reset first fit...
        assert not np.array_equal(a.score(small_series),
                                  b.score(small_series))
        # ...but is still deterministic across instances.
        b.fit(small_series, reuse_rng=True)
        np.testing.assert_array_equal(a.score(small_series),
                                      b.score(small_series))


class TestCancellationRollback:
    """A cancelled or failed fit must leave the ensemble in its exact
    pre-fit state."""

    def test_fresh_instance_stays_unfitted(self, small_series):
        from repro.core.ensemble import TrainingCancelled
        ensemble = quick_ensemble()
        with pytest.raises(TrainingCancelled):
            ensemble.fit(small_series, cancel=CancelAfterPolls(1))
        assert ensemble.models == []
        assert ensemble.history == []
        assert ensemble.transfer_reports == []
        assert ensemble.train_seconds_ == 0.0
        assert ensemble.scaler is None
        with pytest.raises(RuntimeError, match="fit"):
            ensemble.score(small_series)

    def test_fitted_instance_keeps_serving_old_generation(self, small_series):
        from repro.core.ensemble import TrainingCancelled
        ensemble = quick_ensemble().fit(small_series)
        old_models = ensemble.models
        old_history = list(ensemble.history)
        old_seconds = ensemble.train_seconds_
        old_scores = ensemble.score(small_series)
        shifted = small_series + 0.5
        with pytest.raises(TrainingCancelled) as excinfo:
            ensemble.fit(shifted, cancel=CancelAfterPolls(1))
        assert excinfo.value.models_trained == 1
        assert ensemble.models is old_models
        assert [record.loss for record in ensemble.history] == \
            [record.loss for record in old_history]
        assert ensemble.train_seconds_ == old_seconds
        np.testing.assert_array_equal(ensemble.score(small_series),
                                      old_scores)

    def test_failed_refit_keeps_serving_old_generation(self, small_series):
        # sliding_windows raises only after the scaler was refitted on the
        # short series, so the rollback must cover any exception.
        ensemble = quick_ensemble().fit(small_series[:300])
        old_models, old_scaler = ensemble.models, ensemble.scaler
        old_scores = ensemble.score(small_series)
        with pytest.raises(ValueError):
            ensemble.fit(small_series[:5])
        assert ensemble.models is old_models
        assert ensemble.scaler is old_scaler
        np.testing.assert_array_equal(ensemble.score(small_series),
                                      old_scores)
