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

The fused step itself is pinned three ways: a golden digest of a small
float32 fit (its bits equal those of the autograd-tape trainer it
replaced), a float64 step's gradients against the per-module autograd
gradients, and a float64 finite-difference check of every kernel.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from repro.core import CAEConfig, CAEEnsemble, EnsembleConfig
from repro.core.cae import CAE
from repro.core.diversity import (diversity_driven_loss, diversity_term,
                                  reconstruction_loss)
from repro.core.fused_training import FusedEnsembleTrainer
from repro.core.persistence import load_ensemble, save_ensemble
from repro.nn import Adam, Tensor, no_grad
from repro.streaming.refresh import EnsembleRefresher


class ReferenceTrainer:
    """The per-module float64 training loop: the fused trainer's oracle.

    Same constructor and ``train_model`` contract as
    :class:`~repro.core.fused_training.FusedEnsembleTrainer`: each basic
    model trains through the fine-grained autograd modules, one
    ``rng.permutation(n)`` per epoch, with the J/K epoch statistics taken
    from detached re-evaluations, against the mean of the Eq. 8 running
    sum the oracle keeps of the finished models' outputs.
    """

    def __init__(self, cae_config: CAEConfig, ensemble_config: EnsembleConfig,
                 windows: np.ndarray):
        self.cae_config = cae_config
        self.config = ensemble_config
        self.windows = windows
        self.ensemble_sum = None
        self.summed = 0

    def train_model(self, model: CAE, model_index: int,
                    rng: np.random.Generator, verbose: bool = False):
        config, windows = self.config, self.windows
        optimizer = Adam(model.parameters(), lr=config.learning_rate,
                         grad_clip=config.grad_clip)
        n = windows.shape[0]
        use_diversity = self.summed > 0 and config.diversity_weight > 0.0
        frozen_ensemble = self.ensemble_sum / self.summed \
            if use_diversity else None
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
        if model_index + 1 < config.n_models and \
                config.diversity_weight > 0.0:
            with no_grad():
                output = model(Tensor(windows)).data
            if self.ensemble_sum is None:
                self.ensemble_sum = output
            else:
                self.ensemble_sum += output
            self.summed += 1
        return records


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

    ensemble_kwargs = dict(n_models=n_models, epochs_per_model=epochs,
                           batch_size=32, max_training_windows=96, seed=11,
                           fused_training_dtype=dtype)
    ensemble_kwargs.update(ensemble_overrides)

    def build():
        return CAEEnsemble(cae, EnsembleConfig(**ensemble_kwargs))

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
    """The trainer owns the Eq. 8 running sum.  Each finished stage adds
    its frozen output to it with one pass over the training windows,
    except the last: nothing trains against its mean.  A
    ``diversity_weight == 0`` fit reads no mean, so it makes no pass and
    keeps no sum."""

    @pytest.mark.parametrize("n_models", [1, 2, 3])
    def test_fit_makes_one_pass_per_model_but_the_last(self, monkeypatch,
                                                       n_models):
        sums = []
        add_stage_output = FusedEnsembleTrainer._add_stage_output

        def recording_add(self):
            add_stage_output(self)
            sums.append((self.summed, self.ensemble_sum.shape,
                         self.ensemble_sum.dtype))

        monkeypatch.setattr(FusedEnsembleTrainer, "_add_stage_output",
                            recording_add)
        _, fused = make_pair(2, n_models, "float32")
        fused.fit(make_series(2))
        # Channel-first (out, N, w) float64, one more stage per pass.
        assert sums == [(i + 1, (2, 96, 8), np.float64)
                        for i in range(n_models - 1)]

    def test_mean_rounds_like_a_float64_division(self):
        """The mean is divided straight into the compute dtype: the same
        rounding as dividing in float64 and casting."""
        rng = np.random.default_rng(7)
        total = rng.standard_normal((3, 50, 8)) * 7.0
        mean = np.empty(total.shape, dtype=np.float32)
        np.divide(total, 3, out=mean)
        np.testing.assert_array_equal(mean,
                                      (total / 3).astype(np.float32))

    def test_zero_diversity_weight_makes_no_pass(self, monkeypatch):
        """The skipped passes change nothing: the frozen forward draws no
        RNG, so the scores equal those of a fit that makes every pass."""
        passes = []
        add_stage_output = FusedEnsembleTrainer._add_stage_output
        train_model = FusedEnsembleTrainer.train_model

        def counting_add(self):
            passes.append(self.summed)
            add_stage_output(self)

        def eager_train_model(self, model, model_index, *args, **kwargs):
            records = train_model(self, model, model_index, *args, **kwargs)
            if model_index + 1 < self.config.n_models:
                self._add_stage_output()
            return records

        monkeypatch.setattr(FusedEnsembleTrainer, "_add_stage_output",
                            counting_add)
        series = make_series(2)
        lean, eager = make_pair(2, 4, "float32",
                                ensemble_overrides={"diversity_weight": 0.0})
        lean.fit(series)
        assert passes == []
        monkeypatch.setattr(FusedEnsembleTrainer, "train_model",
                            eager_train_model)
        eager.fit(series)
        assert passes == [0, 1, 2]
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


def fit_digest(ensemble):
    """Digest of a fit's exact weight bytes and epoch records."""
    digest = hashlib.sha256()
    for model in ensemble.models:
        for name, param in model.named_parameters():
            digest.update(name.encode())
            digest.update(param.data.tobytes())
    digest.update(history_rows(ensemble).tobytes())
    return digest.hexdigest()[:16]


def platform_fingerprint():
    """Digest of the BLAS and ufunc kernels a fit's bits depend on."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((1, 64, 96)).astype(np.float32)
    b = rng.standard_normal((1, 96, 256)).astype(np.float32)
    digest = hashlib.sha256()
    for array in (np.matmul(a, b), np.matmul(a.swapaxes(-1, -2), a),
                  np.matmul(b, b.swapaxes(-1, -2)), np.tanh(b), np.exp(b),
                  np.linalg.norm(b)):
        digest.update(np.asarray(array).tobytes())
    return digest.hexdigest()[:16]


def step_trainer(dtype="float64", windows=16, **cae_overrides):
    """A trainer loaded with a fresh model, plus its model and windows."""
    cae_kwargs = dict(input_dim=3, embed_dim=4, window=6, n_layers=2)
    cae_kwargs.update(cae_overrides)
    cae = CAEConfig(**cae_kwargs)
    rng = np.random.default_rng(5)
    series_windows = rng.standard_normal((windows, cae.window, 3))
    trainer = FusedEnsembleTrainer(
        cae, EnsembleConfig(n_models=2, batch_size=windows,
                            fused_training_dtype=dtype), series_windows)
    model = CAE(cae, np.random.default_rng(6))
    trainer._load(model)
    return trainer, model, series_windows


ARCHITECTURES = [{}, {"use_glu": False}, {"use_attention": False},
                 {"position_mode": "table"}, {"reconstruct": "embedding"},
                 {"n_layers": 3, "kernel_size": 5}]
ARCHITECTURE_IDS = ["default", "no-glu", "no-attention", "table-positions",
                    "embedding-reconstruct", "deep-k5"]


class TestFusedStep:
    # A float32 fit's weight-and-history digest, equal to that of the
    # autograd-tape trainer this one replaced, and the fingerprint of the
    # numpy/OpenBLAS kernels it was taken with.
    GOLDEN_DIGEST = "04768ee9255e6642"
    GOLDEN_PLATFORM = "70766577d28813e8"

    def test_float32_fit_matches_golden_digest(self):
        if platform_fingerprint() != self.GOLDEN_PLATFORM:
            pytest.skip("other BLAS/ufunc kernels round differently; the "
                        "digest pins this platform's bits")
        _, fused = make_pair(2, 3, "float32", n_layers=2,
                             ensemble_overrides={"batch_size": 40})
        fused.fit(make_series(2))
        assert fit_digest(fused) == self.GOLDEN_DIGEST

    @pytest.mark.parametrize("weight", [0.0, 1.0])
    def test_workspace_allocations_stay_flat(self, monkeypatch, weight):
        """After a fit's first step sizes the workspace, steps allocate
        nothing: not for the partial last batch of an epoch, not for the
        frozen passes.  Only the diversity term takes buffers, once, at
        the second model: the Eq. 8 mean, its batch slice and the
        residual against it."""
        allocs = []
        backward = FusedEnsembleTrainer._backward

        def counting_backward(self, grad):
            backward(self, grad)
            allocs.append(self.workspace.allocs)

        monkeypatch.setattr(FusedEnsembleTrainer, "_backward",
                            counting_backward)
        _, fused = make_pair(2, 3, "float32", ensemble_overrides={
            "batch_size": 40, "diversity_weight": weight})
        fused.fit(make_series(2))
        steps = len(allocs) // 3            # 96 windows: 40 + 40 + 16
        assert allocs[1:steps] == [allocs[0]] * (steps - 1)
        diversity = 3 if weight else 0
        assert allocs[steps:] == [allocs[0] + diversity] * (2 * steps)

    @pytest.mark.parametrize("cae_overrides", ARCHITECTURES,
                             ids=ARCHITECTURE_IDS)
    def test_float64_step_matches_per_module_autograd(self, cae_overrides):
        trainer, model, windows = step_trainer(**cae_overrides)
        frozen = np.random.default_rng(8).standard_normal(
            (len(windows), model.config.window, model.config.output_dim))
        reference = diversity_driven_loss(
            model(Tensor(windows)),
            model.reconstruction_target(Tensor(windows)), frozen, 0.7,
            saturation=0.5)
        reference.backward()

        trainer.config = EnsembleConfig(
            n_models=2, diversity_weight=0.7, diversity_saturation=0.5,
            fused_training_dtype="float64")
        index = np.arange(len(windows))
        batch = trainer._gather("batch", trainer._windows_cf, index)
        prediction = trainer._forward(batch)
        grad, loss, _, _ = trainer._loss(
            prediction,
            batch if model.config.reconstruct == "observations"
            else trainer._states[2],
            trainer._gather("frozen", np.ascontiguousarray(
                frozen.transpose(2, 0, 1)), index))
        trainer._backward(grad)
        assert loss == pytest.approx(float(reference.data), rel=1e-12)
        grads = trainer._params.grads
        for name, param in model.named_parameters():
            np.testing.assert_allclose(
                trainer._layout(name, grads[name][0]), param.grad,
                rtol=1e-12, atol=1e-12, err_msg=name)


def numeric_gradient(f, array, eps=1e-6):
    """Central differences of the scalar ``f()`` w.r.t. ``array`` (which
    ``f`` reads in place)."""
    grad = np.zeros(array.shape)
    flat = array.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = f()
        flat[i] = original - eps
        minus = f()
        flat[i] = original
        grad.reshape(-1)[i] = (plus - minus) / (2 * eps)
    return grad


def assert_gradients(f, analytic):
    """Each ``(array, gradient)`` pair matches central differences."""
    for array, gradient in analytic:
        np.testing.assert_allclose(gradient, numeric_gradient(f, array),
                                   rtol=1e-5, atol=1e-7)


class TestKernelGradients:
    """Every VJP kernel of the fused step passes a float64
    finite-difference check: of ``sum(out · R)`` for a random ``R``
    against its input and parameter gradients."""

    @pytest.fixture
    def trainer(self):
        return step_trainer(windows=2, window=5, kernel_size=3)[0]

    @pytest.mark.parametrize("layer", ["encoder", "decoder", "head"])
    def test_conv(self, trainer, layer):
        site = {"encoder": trainer._encoder[0][1],
                "decoder": trainer._decoder[0][1],
                "head": trainer._head[1]}[layer]
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 4, 2, 5))
        out_shape = (1, site.weight.shape[1], 2, 5)
        r = rng.standard_normal(out_shape)

        def f():
            return float(np.sum(trainer._conv_forward(site, x) * r))

        trainer._conv_forward(site, x)
        grad_x = trainer._conv_backward(site, r).copy()
        assert_gradients(f, [(x, grad_x),
                             (site.weight, site.grad_weight.copy()),
                             (site.bias, site.grad_bias.reshape(
                                 site.bias.shape).copy())])

    @pytest.mark.parametrize("layer", ["encoder", "decoder"])
    def test_glu(self, trainer, layer):
        site = {"encoder": trainer._encoder[0][0],
                "decoder": trainer._decoder[0][0]}[layer]
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, 4, 2, 5))
        r = rng.standard_normal(x.shape)

        def f():
            return float(np.sum(trainer._glu_forward(site, x) * r))

        trainer._glu_forward(site, x)
        grad_x = trainer._glu_backward(site, r).copy()
        assert_gradients(f, [
            (x, grad_x), (site.weight, site.grad_weight.copy()),
            (site.bias, site.grad_bias.reshape(site.bias.shape).copy())])

    def test_attention(self, trainer):
        site = trainer._decoder[0][2]
        rng = np.random.default_rng(3)
        d = rng.standard_normal((1, 4, 2, 5))
        e = rng.standard_normal(d.shape)
        r = rng.standard_normal(d.shape)

        def f():
            return float(np.sum(trainer._attention_forward(site, d, e) * r))

        trainer._attention_forward(site, d, e)
        grad_e = np.empty_like(e)
        grad_d = trainer._attention_backward(site, r, grad_e).copy()
        assert_gradients(f, [(d, grad_d), (e, grad_e),
                             (site.weight, site.grad_weight.copy()),
                             (site.bias, site.grad_bias.reshape(
                                 site.bias.shape).copy())])

    @pytest.mark.parametrize("mode", ["linear", "table"])
    def test_positions(self, mode):
        trainer = step_trainer(windows=2, window=5, position_mode=mode)[0]
        r = np.random.default_rng(4).standard_normal((1, 4, 2, 5))

        def f():
            return float(np.sum(trainer._positions() * r))

        trainer._positions()
        trainer._positions_backward(r)
        names = ["embedding.position.weight"] + \
            (["embedding.position.bias"] if mode == "linear" else [])
        assert_gradients(f, [(trainer._params.views[name],
                              trainer._params.grads[name].copy())
                             for name in names])

    @pytest.mark.parametrize("diverse", [False, True])
    def test_loss(self, trainer, diverse):
        trainer.config = EnsembleConfig(diversity_weight=0.8,
                                        diversity_saturation=0.3)
        rng = np.random.default_rng(5)
        prediction = rng.standard_normal((1, 3, 2, 5))
        target = rng.standard_normal(prediction.shape)
        frozen = rng.standard_normal(prediction.shape) if diverse else None

        def f():
            return trainer._loss(prediction, target, frozen)[1]

        grad = trainer._loss(prediction, target, frozen)[0].copy()
        assert_gradients(f, [(prediction, grad)])

    @pytest.mark.parametrize("cae_overrides", ARCHITECTURES,
                             ids=ARCHITECTURE_IDS)
    def test_whole_step(self, cae_overrides):
        """The composed backward, including the embedding, the ReLU gates
        and the summed gradients of states read by several layers."""
        trainer = step_trainer(windows=2, window=5, **cae_overrides)[0]
        trainer.config = EnsembleConfig(diversity_weight=0.0)
        batch = trainer._gather("batch", trainer._windows_cf, np.arange(2))
        prediction = trainer._forward(batch)
        # An embedding target is detached: it is held fixed.
        target = batch if trainer.cae_config.reconstruct == "observations" \
            else trainer._states[2].copy()

        def f():
            return trainer._loss(trainer._forward(batch), target, None)[1]

        trainer._backward(trainer._loss(prediction, target, None)[0])
        params = trainer._params
        assert_gradients(f, [(params.data, params.grad.copy())])
