"""Gradient verification: every analytic gradient vs central differences.

These tests certify the whole substrate — if they pass, the optimisation
dynamics of every model built on top follow the true gradients.
"""

import numpy as np
import pytest

from repro.nn import Tensor, concatenate, gradcheck, stack, where
from repro.nn import functional as F
from repro.nn.conv import conv1d


def _t(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestElementwiseGrads:
    def test_add_broadcast(self, rng):
        gradcheck(lambda a, b: a + b, [_t(rng, 3, 4), _t(rng, 4)])

    def test_mul_broadcast(self, rng):
        gradcheck(lambda a, b: a * b, [_t(rng, 2, 3), _t(rng, 3)])

    def test_div(self, rng):
        a, b = _t(rng, 3), _t(rng, 3)
        b.data[...] = np.abs(b.data) + 1.0
        gradcheck(lambda a, b: a / b, [a, b])

    def test_pow(self, rng):
        a = _t(rng, 4)
        a.data[...] = np.abs(a.data) + 0.5
        gradcheck(lambda a: a ** 3, [a])

    def test_neg_sub(self, rng):
        gradcheck(lambda a, b: a - b, [_t(rng, 3), _t(rng, 3)])

    def test_exp(self, rng):
        gradcheck(lambda a: a.exp(), [_t(rng, 3)])

    def test_log(self, rng):
        a = _t(rng, 3)
        a.data[...] = np.abs(a.data) + 0.5
        gradcheck(lambda a: a.log(), [a])

    def test_sigmoid_tanh(self, rng):
        gradcheck(lambda a: a.sigmoid(), [_t(rng, 5)])
        gradcheck(lambda a: a.tanh(), [_t(rng, 5)])

    def test_relu_away_from_kink(self, rng):
        a = _t(rng, 6)
        a.data[...] = np.where(np.abs(a.data) < 0.1, 0.5, a.data)
        gradcheck(lambda a: a.relu(), [a])

    def test_abs_away_from_zero(self, rng):
        a = _t(rng, 5)
        a.data[...] = np.sign(a.data) * (np.abs(a.data) + 0.5)
        gradcheck(lambda a: a.abs(), [a])

    def test_clip_interior(self, rng):
        a = _t(rng, 5)
        a.data[...] = np.clip(a.data, -0.8, 0.8)
        gradcheck(lambda a: a.clip(-1.0, 1.0), [a])

    def test_where(self, rng):
        cond = rng.random(5) > 0.5
        gradcheck(lambda a, b: where(cond, a, b), [_t(rng, 5), _t(rng, 5)])


class TestMatmulGrads:
    def test_2d_2d(self, rng):
        gradcheck(lambda a, b: a @ b, [_t(rng, 3, 4), _t(rng, 4, 5)])

    def test_2d_1d(self, rng):
        gradcheck(lambda a, b: a @ b, [_t(rng, 3, 4), _t(rng, 4)])

    def test_1d_2d(self, rng):
        gradcheck(lambda a, b: a @ b, [_t(rng, 4), _t(rng, 4, 3)])

    def test_1d_1d(self, rng):
        gradcheck(lambda a, b: a @ b, [_t(rng, 4), _t(rng, 4)])

    def test_batched_3d_3d(self, rng):
        gradcheck(lambda a, b: a @ b, [_t(rng, 2, 3, 4), _t(rng, 2, 4, 5)])

    def test_batched_3d_2d_broadcast(self, rng):
        gradcheck(lambda a, b: a @ b, [_t(rng, 2, 3, 4), _t(rng, 4, 5)])


class TestReductionGrads:
    def test_sum_all(self, rng):
        gradcheck(lambda a: a.sum(), [_t(rng, 3, 4)])

    def test_sum_axis(self, rng):
        gradcheck(lambda a: a.sum(axis=1), [_t(rng, 3, 4)])

    def test_sum_axis_keepdims(self, rng):
        gradcheck(lambda a: a.sum(axis=0, keepdims=True), [_t(rng, 3, 4)])

    def test_mean_axis(self, rng):
        gradcheck(lambda a: a.mean(axis=1), [_t(rng, 2, 5)])

    def test_max_axis_unique(self, rng):
        a = Tensor(np.array([[1.0, 5.0, 2.0], [7.0, 0.0, 3.0]]),
                   requires_grad=True)
        gradcheck(lambda a: a.max(axis=1), [a])


class TestShapeGrads:
    def test_reshape(self, rng):
        gradcheck(lambda a: a.reshape(6), [_t(rng, 2, 3)])

    def test_transpose(self, rng):
        gradcheck(lambda a: a.transpose(1, 0, 2), [_t(rng, 2, 3, 4)])

    def test_getitem(self, rng):
        gradcheck(lambda a: a[1:3], [_t(rng, 5, 2)])

    def test_concatenate(self, rng):
        gradcheck(lambda a, b: concatenate([a, b], axis=1),
                  [_t(rng, 2, 3), _t(rng, 2, 4)])

    def test_stack(self, rng):
        gradcheck(lambda a, b: stack([a, b], axis=1),
                  [_t(rng, 3), _t(rng, 3)])

    def test_pad1d(self, rng):
        gradcheck(lambda a: F.pad1d(a, 2, 3), [_t(rng, 2, 3, 5)])


class TestFunctionalGrads:
    def test_softmax(self, rng):
        gradcheck(lambda a: F.softmax(a, axis=-1), [_t(rng, 3, 4)])

    def test_mse_loss(self, rng):
        target = Tensor(rng.standard_normal((3, 4)))
        gradcheck(lambda a: F.mse_loss(a, target), [_t(rng, 3, 4)])

    def test_attention(self, rng):
        gradcheck(lambda q, k, v: F.batched_dot_attention(q, k, v)[0],
                  [_t(rng, 2, 4, 3), _t(rng, 2, 4, 3), _t(rng, 2, 4, 3)])

    def test_gaussian_kl(self, rng):
        gradcheck(lambda m, lv: F.gaussian_kl(m, lv),
                  [_t(rng, 3, 4), _t(rng, 3, 4)])

    def test_linear(self, rng):
        gradcheck(lambda x, w, b: F.linear(x, w, b),
                  [_t(rng, 5, 3), _t(rng, 2, 3), _t(rng, 2)])

    def test_gaussian_reparameterize(self, rng):
        # A fresh generator per call: every evaluation draws the same eps.
        gradcheck(lambda m, lv: F.gaussian_reparameterize(
            m, lv, np.random.default_rng(5)), [_t(rng, 3, 4), _t(rng, 3, 4)])


class TestFunctionalValues:
    def test_reparameterize_zero_logvar_adds_unit_noise(self, rng):
        mu = rng.standard_normal((4, 3))
        z = F.gaussian_reparameterize(Tensor(mu), Tensor(np.zeros((4, 3))),
                                      np.random.default_rng(9))
        eps = np.random.default_rng(9).standard_normal((4, 3))
        np.testing.assert_allclose(z.data, mu + eps, rtol=1e-12)

    def test_reparameterize_scales_noise_by_std(self, rng):
        mu = rng.standard_normal((4, 3))
        logvar = np.full((4, 3), np.log(4.0))
        z = F.gaussian_reparameterize(Tensor(mu), Tensor(logvar),
                                      np.random.default_rng(9))
        eps = np.random.default_rng(9).standard_normal((4, 3))
        np.testing.assert_allclose(z.data, mu + 2.0 * eps, rtol=1e-12)

    def test_sequence_errors_sum_squares_over_features(self, rng):
        x = rng.standard_normal((2, 5, 3))
        x_hat = rng.standard_normal((2, 5, 3))
        errors = F.sequence_reconstruction_errors(x, x_hat)
        assert errors.shape == (2, 5)
        expected = [[sum((x[n, t, d] - x_hat[n, t, d]) ** 2
                         for d in range(3)) for t in range(5)]
                    for n in range(2)]
        np.testing.assert_allclose(errors, expected, rtol=1e-12)

    def test_sequence_errors_reject_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            F.sequence_reconstruction_errors(np.zeros((5, 3)),
                                             np.zeros((5, 2)))


class TestConvGrads:
    def test_same_padding(self, rng):
        gradcheck(lambda x, w, b: conv1d(x, w, b, padding="same"),
                  [_t(rng, 2, 3, 6), _t(rng, 4, 3, 3), _t(rng, 4)])

    def test_causal_padding(self, rng):
        gradcheck(lambda x, w, b: conv1d(x, w, b, padding="causal"),
                  [_t(rng, 2, 3, 6), _t(rng, 4, 3, 3), _t(rng, 4)])

    def test_valid_padding(self, rng):
        gradcheck(lambda x, w: conv1d(x, w, padding="valid"),
                  [_t(rng, 2, 2, 7), _t(rng, 3, 2, 3)])

    def test_kernel_one(self, rng):
        gradcheck(lambda x, w, b: conv1d(x, w, b, padding="valid"),
                  [_t(rng, 2, 3, 5), _t(rng, 4, 3, 1), _t(rng, 4)])

    def test_wide_kernel(self, rng):
        gradcheck(lambda x, w: conv1d(x, w, padding="same"),
                  [_t(rng, 1, 2, 9), _t(rng, 2, 2, 5)])


class TestCompositeGrads:
    def test_mlp_chain(self, rng):
        def network(x, w1, b1, w2, b2):
            hidden = (x @ w1 + b1).tanh()
            return ((hidden @ w2 + b2).sigmoid() ** 2).mean()
        gradcheck(network, [_t(rng, 4, 3), _t(rng, 3, 5), _t(rng, 5),
                            _t(rng, 5, 2), _t(rng, 2)])

    def test_glu_like_composition(self, rng):
        def glu(x, w1, w2):
            return conv1d(x, w1, padding="same") * \
                conv1d(x, w2, padding="same").sigmoid()
        gradcheck(glu, [_t(rng, 2, 3, 5), _t(rng, 3, 3, 3),
                        _t(rng, 3, 3, 3)])
