"""The fused batched trainer vs the per-module reference loop.

Every :meth:`CAEEnsemble.fit` trains through
:class:`~repro.core.fused_training.FusedEnsembleTrainer`.  The per-module
float64 loop survives here only as the test oracle
:class:`ReferenceTrainer`, swapped in for one fit with ``monkeypatch``.

The equivalence contract of ``docs/performance.md``: both trainers consume
the ensemble RNG identically and train the same Algorithm 1 objective
over the same batches, so with ``fused_training_dtype='float64'`` the
loss trajectories and scores match to rounding error; the default
float32 path agrees within a documented looser tolerance.
"""

import json
import os

import numpy as np
import pytest

from repro.core import CAEConfig, CAEEnsemble, EnsembleConfig
from repro.core.cae import CAE
from repro.core.diversity import (diversity_driven_loss, diversity_term,
                                  reconstruction_loss)
from repro.core.persistence import load_ensemble, save_ensemble
from repro.nn import Adam, Tensor, no_grad
from repro.streaming.refresh import EnsembleRefresher


class ReferenceTrainer:
    """The per-module float64 training loop: the fused trainer's oracle.

    Same constructor and ``train_model`` contract as
    :class:`~repro.core.fused_training.FusedEnsembleTrainer`: each basic
    model trains through the fine-grained autograd modules, one
    ``rng.permutation(n)`` per epoch, with the J/K epoch statistics taken
    from detached re-evaluations.
    """

    def __init__(self, cae_config: CAEConfig, ensemble_config: EnsembleConfig,
                 windows: np.ndarray):
        self.cae_config = cae_config
        self.config = ensemble_config
        self.windows = windows

    def train_model(self, model: CAE, model_index: int, frozen_ensemble,
                    rng: np.random.Generator, verbose: bool = False):
        config, windows = self.config, self.windows
        optimizer = Adam(model.parameters(), lr=config.learning_rate,
                         grad_clip=config.grad_clip)
        n = windows.shape[0]
        use_diversity = (frozen_ensemble is not None and
                         config.diversity_weight > 0.0)
        records = []
        previous_loss = None
        stall_count = 0
        for epoch in range(config.epochs_per_model):
            order = rng.permutation(n)
            epoch_loss = epoch_j = epoch_k = 0.0
            n_batches = 0
            for start in range(0, n, config.batch_size):
                index = order[start:start + config.batch_size]
                batch_windows = Tensor(windows[index])
                optimizer.zero_grad()
                prediction = model(batch_windows)
                target = model.reconstruction_target(batch_windows)
                if use_diversity:
                    loss = diversity_driven_loss(
                        prediction, target, frozen_ensemble[index],
                        config.diversity_weight,
                        saturation=config.diversity_saturation)
                    with no_grad():
                        k_value = float(diversity_term(
                            prediction.detach(),
                            frozen_ensemble[index]).data)
                else:
                    loss = reconstruction_loss(prediction, target)
                    k_value = 0.0
                loss.backward()
                optimizer.step()
                with no_grad():
                    j_value = float(reconstruction_loss(
                        prediction.detach(), target).data)
                epoch_loss += float(loss.data)
                epoch_j += j_value
                epoch_k += k_value
                n_batches += 1
            record = (epoch, epoch_loss / n_batches, epoch_j / n_batches,
                      epoch_k / n_batches)
            records.append(record)
            tolerance = config.early_stop_tolerance
            if tolerance is not None and previous_loss is not None:
                improvement = (previous_loss - record[2]) / \
                    max(abs(previous_loss), 1e-12)
                stall_count = stall_count + 1 if improvement < tolerance \
                    else 0
                if stall_count >= config.early_stop_patience:
                    break
            previous_loss = record[2]
        with no_grad():
            output = model(Tensor(windows)).data
        return records, output


@pytest.fixture
def oracle(monkeypatch):
    """Fit with the per-module :class:`ReferenceTrainer` instead."""
    def fit(ensemble, series, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr("repro.core.ensemble.FusedEnsembleTrainer",
                          ReferenceTrainer)
            return ensemble.fit(series, **kwargs)
    return fit


def make_series(dims, length=220, seed=3):
    rng = np.random.default_rng(seed)
    t = np.arange(length)[:, None]
    periods = 17.0 + 6.0 * np.arange(dims)
    series = np.sin(2 * np.pi * t / periods)
    return series + 0.05 * rng.standard_normal(series.shape)


def make_pair(dims, n_models, dtype, epochs=2, ensemble_overrides=(),
              **cae_overrides):
    cae_kwargs = dict(input_dim=dims, embed_dim=8, window=8, n_layers=1)
    cae_kwargs.update(cae_overrides)
    cae = CAEConfig(**cae_kwargs)

    def build():
        return CAEEnsemble(cae, EnsembleConfig(
            n_models=n_models, epochs_per_model=epochs, batch_size=32,
            max_training_windows=96, seed=11, fused_training_dtype=dtype,
            **dict(ensemble_overrides)))

    return build(), build()


def history_rows(ensemble):
    return np.array([[r.model_index, r.epoch, r.loss, r.reconstruction,
                      r.diversity] for r in ensemble.history])


def assert_equivalent(reference, fused, series, rtol):
    ref_rows, fused_rows = history_rows(reference), history_rows(fused)
    assert ref_rows.shape == fused_rows.shape
    np.testing.assert_array_equal(fused_rows[:, :2], ref_rows[:, :2])
    np.testing.assert_allclose(fused_rows[:, 2:], ref_rows[:, 2:],
                               rtol=rtol, atol=rtol)
    np.testing.assert_allclose(fused.score(series), reference.score(series),
                               rtol=rtol, atol=rtol)


class TestFloat64Equivalence:
    """float64 compute dtype: same arithmetic as the reference loop."""

    @pytest.mark.parametrize("n_models", [1, 5])
    @pytest.mark.parametrize("dims", [1, 3])
    def test_matrix(self, oracle, n_models, dims):
        series = make_series(dims)
        reference, fused = make_pair(dims, n_models, "float64")
        oracle(reference, series)
        fused.fit(series)
        assert_equivalent(reference, fused, series, rtol=1e-9)

    @pytest.mark.parametrize("warm_fraction", [0.0, 0.4])
    def test_warm_start(self, oracle, warm_fraction):
        series = make_series(2)
        donor, _ = make_pair(2, 2, "float64")
        donor.fit(series)
        reference, fused = make_pair(2, 3, "float64")
        oracle(reference, series, warm_start=donor.models,
               warm_start_fraction=warm_fraction)
        fused.fit(series, warm_start=donor.models,
                  warm_start_fraction=warm_fraction)
        assert_equivalent(reference, fused, series, rtol=1e-9)

    @pytest.mark.parametrize("cae_overrides", [
        {"use_glu": False},
        {"use_attention": False},
        {"position_mode": "table"},
        {"reconstruct": "embedding"},
    ], ids=["no-glu", "no-attention", "table-positions",
            "embedding-reconstruct"])
    def test_architecture_variants(self, oracle, cae_overrides):
        series = make_series(2)
        reference, fused = make_pair(2, 2, "float64", **cae_overrides)
        oracle(reference, series)
        fused.fit(series)
        assert_equivalent(reference, fused, series, rtol=1e-9)

    def test_early_stopping_epochs(self, oracle):
        # Table 7's epochs column is read from these records: both trainers
        # must stop each basic model after the same epoch.
        series = make_series(2)
        reference, fused = make_pair(
            2, 3, "float64", epochs=8,
            ensemble_overrides={"early_stop_tolerance": 0.1,
                                "early_stop_patience": 2})
        oracle(reference, series)
        fused.fit(series)
        assert_equivalent(reference, fused, series, rtol=1e-9)
        epochs = [sum(r.model_index == m for r in fused.history)
                  for m in range(3)]
        assert all(count < 8 for count in epochs)


class TestFloat32Default:
    def test_default_dtype_is_float32(self):
        assert EnsembleConfig().fused_training_dtype == "float32"

    def test_loss_trajectory_within_documented_tolerance(self, oracle):
        series = make_series(2)
        reference, fused = make_pair(2, 3, "float32")
        oracle(reference, series)
        fused.fit(series)
        # The tolerance documented in docs/performance.md for short runs.
        assert_equivalent(reference, fused, series, rtol=5e-3)

    def test_trained_weights_written_back_as_float64(self):
        series = make_series(2)
        _, fused = make_pair(2, 1, "float32")
        fused.fit(series)
        for _, param in fused.models[0].named_parameters():
            assert param.data.dtype == np.float64


class TestStageOutputs:
    """Each finished stage feeds the Eq. 8 running sum with one frozen
    forward pass, except the last: nothing trains against its mean.  A
    ``diversity_weight == 0`` fit reads no mean, so it makes no pass."""

    @pytest.mark.parametrize("n_models", [1, 2, 3])
    def test_fit_makes_one_pass_per_model_but_the_last(self, monkeypatch,
                                                       n_models):
        from repro.core.fused_training import FusedEnsembleTrainer
        passes, outputs = [], []
        stage_output = FusedEnsembleTrainer._stage_output
        train_model = FusedEnsembleTrainer.train_model

        def counting_stage_output(self, leaves, windows_cf):
            passes.append(windows_cf.shape[1])
            return stage_output(self, leaves, windows_cf)

        def recording_train_model(self, *args, **kwargs):
            records, output = train_model(self, *args, **kwargs)
            outputs.append(output)
            return records, output

        monkeypatch.setattr(FusedEnsembleTrainer, "_stage_output",
                            counting_stage_output)
        monkeypatch.setattr(FusedEnsembleTrainer, "train_model",
                            recording_train_model)
        _, fused = make_pair(2, n_models, "float32")
        fused.fit(make_series(2))
        assert passes == [96] * (n_models - 1)
        assert outputs[-1] is None
        assert all(output.shape == (96, 8, 2) for output in outputs[:-1])

    def test_zero_diversity_weight_makes_no_pass(self, monkeypatch):
        """The skipped passes change nothing: the frozen forward draws no
        RNG, so the scores equal those of a fit that makes every pass."""
        from repro.core.fused_training import FusedEnsembleTrainer
        passes = []
        stage_output = FusedEnsembleTrainer._stage_output
        train_model = FusedEnsembleTrainer.train_model

        def counting_stage_output(self, leaves, windows_cf):
            passes.append(windows_cf.shape[1])
            return stage_output(self, leaves, windows_cf)

        def eager_train_model(self, model, model_index, *args, **kwargs):
            records, output = train_model(self, model, model_index, *args,
                                          **kwargs)
            if output is None and model_index + 1 < self.config.n_models:
                output = self._stage_output(self._pack_leaves(model),
                                            self._windows_cf)
            return records, output

        monkeypatch.setattr(FusedEnsembleTrainer, "_stage_output",
                            counting_stage_output)
        series = make_series(2)
        lean, eager = make_pair(2, 4, "float32",
                                ensemble_overrides={"diversity_weight": 0.0})
        lean.fit(series)
        assert passes == []
        monkeypatch.setattr(FusedEnsembleTrainer, "train_model",
                            eager_train_model)
        eager.fit(series)
        assert passes == [96] * 3
        np.testing.assert_array_equal(history_rows(lean),
                                      history_rows(eager))
        np.testing.assert_array_equal(lean.score(series),
                                      eager.score(series))


class TestLegacySwitch:
    """``fused_training`` survives only as an input that stores nothing."""

    FIXTURES = os.path.join(os.path.dirname(__file__), "data")

    def test_invalid_dtype_rejected(self):
        with pytest.raises(ValueError, match="fused_training_dtype"):
            EnsembleConfig(fused_training_dtype="float16")

    def test_true_constructs(self):
        config = EnsembleConfig(fused_training=True)
        assert config == EnsembleConfig()
        EnsembleRefresher(fused_training=True)

    def test_false_raises(self):
        with pytest.raises(ValueError, match="test oracle"):
            EnsembleConfig(fused_training=False)
        with pytest.raises(ValueError, match="test oracle"):
            EnsembleRefresher(fused_training=False)

    def test_refresher_rejects_non_bool(self):
        with pytest.raises(ValueError, match="fused_training"):
            EnsembleRefresher(fused_training=1)

    def test_saved_manifest_has_no_key(self, tmp_path):
        series = make_series(2)
        ensemble = CAEEnsemble(
            CAEConfig(input_dim=2, embed_dim=8, window=8, n_layers=1),
            EnsembleConfig(n_models=1, epochs_per_model=1,
                           fused_training=True))
        ensemble.fit(series)
        save_ensemble(ensemble, str(tmp_path / "ensemble"))
        with open(tmp_path / "ensemble" / "manifest.json") as handle:
            manifest = json.load(handle)
        assert "fused_training" not in manifest["ensemble_config"]
        assert "fused_training_dtype" in manifest["ensemble_config"]

    @pytest.mark.parametrize("version", [1, 2])
    def test_fixture_loads_and_refresher_builds(self, version):
        directory = os.path.join(self.FIXTURES,
                                 f"fleet_checkpoint_v{version}", "ensemble_0")
        with open(os.path.join(directory, "manifest.json")) as handle:
            stored = json.load(handle)["ensemble_config"]
        assert stored["fused_training"] is False
        ensemble = load_ensemble(directory)
        history = make_series(ensemble.cae_config.input_dim, length=64)
        replacement, report = EnsembleRefresher(
            epochs_per_model=1, fused_training=True).build(
                ensemble, history, index=len(history))
        assert len(replacement.models) == len(ensemble.models)
        assert np.all(np.isfinite(replacement.score(history)))
        assert report.index == len(history)
