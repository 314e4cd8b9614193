"""Tests for the recurrent cells, optimisers and serialization."""

import os

import numpy as np
import pytest

from repro.nn import (Adam, FlatParameters, GRUCell, LSTM, LSTMCell, Linear,
                      Tensor, load_state_dict, save_state_dict)
from repro.nn.functional import mse_loss


@pytest.fixture
def rng():
    return np.random.default_rng(21)


class TestLSTMCell:
    def test_state_shapes(self, rng):
        cell = LSTMCell(4, 6, rng)
        h, c = cell.initial_state(3)
        h2, c2 = cell(Tensor(np.zeros((3, 4))), (h, c))
        assert h2.shape == (3, 6) and c2.shape == (3, 6)

    def test_forget_bias_initialised_positive(self, rng):
        cell = LSTMCell(4, 6, rng)
        np.testing.assert_allclose(cell.bias.data[6:12], 1.0)

    def test_state_changes_with_input(self, rng):
        cell = LSTMCell(2, 3, rng)
        state = cell.initial_state(1)
        h1, _ = cell(Tensor([[1.0, 0.0]]), state)
        h2, _ = cell(Tensor([[0.0, 1.0]]), state)
        assert not np.allclose(h1.data, h2.data)

    def test_gradient_through_time(self, rng):
        cell = LSTMCell(2, 3, rng)
        h, c = cell.initial_state(2)
        x = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
        for _ in range(5):
            h, c = cell(x, (h, c))
        (h * h).sum().backward()
        assert x.grad is not None and np.any(x.grad != 0)


class TestGRUCell:
    def test_shapes(self, rng):
        cell = GRUCell(4, 6, rng)
        h = cell(Tensor(np.zeros((3, 4))), cell.initial_state(3))
        assert h.shape == (3, 6)

    def test_zero_input_keeps_bounded_state(self, rng):
        cell = GRUCell(2, 3, rng)
        h = cell.initial_state(1)
        for _ in range(50):
            h = cell(Tensor(np.zeros((1, 2))), h)
        assert np.all(np.abs(h.data) <= 1.0)


class TestLSTMModule:
    def test_output_shapes(self, rng):
        lstm = LSTM(3, 5, rng)
        out, (h, c) = lstm(Tensor(np.zeros((2, 7, 3))))
        assert out.shape == (2, 7, 5)
        assert h.shape == (2, 5) and c.shape == (2, 5)

    def test_final_state_matches_last_output(self, rng):
        lstm = LSTM(3, 5, rng)
        out, (h, _) = lstm(Tensor(rng.standard_normal((2, 7, 3))))
        np.testing.assert_allclose(out.data[:, -1, :], h.data)


class TestAdam:
    def test_first_step_size_is_lr(self):
        # With bias correction, |first step| == lr regardless of grad scale.
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = Adam([p], lr=0.01)
        p.grad = np.array([1e-4])
        opt.step()
        np.testing.assert_allclose(abs(p.data), 0.01, rtol=1e-4)

    def test_skips_params_without_grad(self):
        p1 = Tensor(np.array([1.0]), requires_grad=True)
        p2 = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam([p1, p2], lr=0.1)
        p1.grad = np.array([1.0])
        opt.step()
        np.testing.assert_allclose(p2.data, [1.0])

    def test_grad_clip_limits_norm(self):
        p = Tensor(np.zeros(4), requires_grad=True)
        opt = Adam([p], lr=1.0, grad_clip=1.0)
        p.grad = np.full(4, 100.0)
        opt.step()   # would explode without the clip; just assert finite
        assert np.all(np.isfinite(p.data))

    def test_rosenbrock_ish_convergence(self, rng):
        w = Tensor(rng.standard_normal(3), requires_grad=True)
        target = np.array([1.0, -2.0, 0.5])
        opt = Adam([w], lr=0.05)
        for _ in range(500):
            opt.zero_grad()
            loss = ((w - Tensor(target)) ** 2).sum()
            loss.backward()
            opt.step()
        np.testing.assert_allclose(w.data, target, atol=1e-3)

    def test_invalid_betas(self):
        with pytest.raises(ValueError):
            Adam([Tensor([1.0], requires_grad=True)], betas=(1.0, 0.9))

    @pytest.mark.parametrize("betas", [(-0.1, 0.999), (0.9, 1.0),
                                       (0.9, -1e-3)])
    def test_rejects_betas_outside_unit_interval(self, betas):
        with pytest.raises(ValueError, match="betas"):
            Adam([Tensor([1.0], requires_grad=True)], betas=betas)

    def test_constant_gradient_moves_lr_per_step(self):
        # Bias correction makes m_hat = g and v_hat = g**2 for a constant
        # gradient, so every step is lr * sign(g), not just the first.
        p = Tensor(np.array([0.0, 0.0]), requires_grad=True)
        opt = Adam([p], lr=0.01)
        for step in range(1, 6):
            p.grad = np.array([3.0, -0.5])
            opt.step()
            np.testing.assert_allclose(p.data, [-0.01 * step, 0.01 * step],
                                       rtol=1e-6)

    def test_weight_decay_is_added_to_the_gradient(self):
        grad = np.array([0.3, -0.2, 0.05])
        start = np.array([1.0, -2.0, 0.5])
        decayed = Tensor(start.copy(), requires_grad=True)
        manual = Tensor(start.copy(), requires_grad=True)
        opt_decayed = Adam([decayed], lr=0.1, weight_decay=0.5)
        opt_manual = Adam([manual], lr=0.1)
        for _ in range(3):
            decayed.grad = grad.copy()
            manual.grad = grad + 0.5 * manual.data
            opt_decayed.step()
            opt_manual.step()
        np.testing.assert_array_equal(decayed.data, manual.data)

    def test_zero_grad_clears_every_param(self):
        params = [Tensor(np.ones(2), requires_grad=True) for _ in range(3)]
        opt = Adam(params, lr=0.1)
        for param in params:
            param.grad = np.ones(2)
        opt.zero_grad()
        assert all(param.grad is None for param in params)

    @pytest.mark.parametrize("clip", [0.0, -1.0])
    def test_rejects_non_positive_grad_clip(self, clip):
        with pytest.raises(ValueError, match="grad_clip"):
            Adam([Tensor([1.0], requires_grad=True)], grad_clip=clip)

    @pytest.mark.parametrize("lr", [0.0, -1e-3])
    def test_rejects_non_positive_lr(self, lr):
        with pytest.raises(ValueError, match="learning rate"):
            Adam([Tensor([1.0], requires_grad=True)], lr=lr)

    @pytest.mark.parametrize("clip, decay", [(None, 0.0), (0.5, 0.0),
                                             (0.5, 0.1)])
    def test_flat_pack_steps_like_tensors(self, clip, decay):
        """A FlatParameters pack steps bit-identically to the same
        parameters as tensors, each clipped by its own norm."""
        rng = np.random.default_rng(3)
        shapes = [("a", (2, 3)), ("b", (4,)), ("c", (1, 2, 2))]
        tensors = [Tensor(rng.standard_normal(shape).astype(np.float32),
                          requires_grad=True) for _, shape in shapes]
        pack = FlatParameters(shapes, np.float32)
        for (name, _), tensor in zip(shapes, tensors):
            pack.views[name][...] = tensor.data
        opt_tensors = Adam(tensors, lr=0.01, grad_clip=clip,
                           weight_decay=decay)
        opt_flat = Adam(pack, lr=0.01, grad_clip=clip, weight_decay=decay)
        for _ in range(4):
            for (name, shape), tensor in zip(shapes, tensors):
                tensor.grad = rng.standard_normal(shape).astype(np.float32)
                pack.grads[name][...] = tensor.grad
            opt_tensors.step()
            opt_flat.step()
        for (name, _), tensor in zip(shapes, tensors):
            np.testing.assert_array_equal(pack.views[name], tensor.data)

    def test_rejects_empty_params(self):
        with pytest.raises(ValueError, match="empty parameter list"):
            Adam([], lr=0.1)


class TestSerialization:
    def test_round_trip(self, tmp_path, rng):
        model = Linear(3, 2, rng)
        path = str(tmp_path / "checkpoint.npz")
        save_state_dict(path, model)
        fresh = Linear(3, 2, np.random.default_rng(1234))
        fresh.load_state_dict(load_state_dict(path))
        np.testing.assert_array_equal(model.weight.data, fresh.weight.data)
        np.testing.assert_array_equal(model.bias.data, fresh.bias.data)

    def test_load_state_dict_keys(self, tmp_path, rng):
        model = Linear(3, 2, rng)
        path = str(tmp_path / "checkpoint")
        save_state_dict(path + ".npz", model)
        state = load_state_dict(path)      # extension added automatically
        assert set(state) == {"weight", "bias"}

    def test_creates_directories(self, tmp_path, rng):
        path = str(tmp_path / "deep" / "nested" / "model.npz")
        save_state_dict(path, Linear(2, 2, rng))
        assert os.path.exists(path)
