"""Tests for the in-place weight initialisers (``repro.nn.init``)."""

import math

import numpy as np
import pytest

from repro.nn import Conv1d, Linear, Tensor, init
from repro.nn.init import _fan_in_out


def blank(*shape):
    return Tensor(np.zeros(shape))


class TestFanInOut:
    @pytest.mark.parametrize("shape, expected", [
        ((7,), (7, 7)),                 # a bias vector
        ((5, 3), (3, 5)),               # linear: (out, in)
        ((4, 3, 5), (15, 20)),          # conv1d: (out, in, k)
        ((2, 3, 4, 5), (60, 40)),       # conv2d-style: (out, in, kh, kw)
    ])
    def test_fans(self, shape, expected):
        assert _fan_in_out(shape) == expected


class TestUniformAndNormal:
    def test_uniform_writes_in_place_within_bounds(self):
        param = blank(200, 50)
        buffer = param.data
        out = init.uniform_(param, -0.25, 0.75, np.random.default_rng(0))
        assert out is param and param.data is buffer
        assert param.data.min() >= -0.25 and param.data.max() < 0.75
        # 10 000 draws span most of the interval.
        assert param.data.min() < -0.2 and param.data.max() > 0.7

    def test_normal_moments(self):
        param = blank(400, 100)
        init.normal_(param, 2.0, 0.5, np.random.default_rng(1))
        assert abs(param.data.mean() - 2.0) < 0.01
        assert abs(param.data.std() - 0.5) < 0.01

    def test_preserves_dtype(self):
        param = Tensor(np.zeros((8, 8), dtype=np.float32))
        init.normal_(param, 0.0, 1.0, np.random.default_rng(2))
        assert param.data.dtype == np.float32

    @pytest.mark.parametrize("fill", [init.uniform_, init.normal_])
    def test_same_generator_state_same_values(self, fill):
        a, b = blank(6, 4), blank(6, 4)
        fill(a, 0.0, 1.0, np.random.default_rng(3))
        fill(b, 0.0, 1.0, np.random.default_rng(3))
        np.testing.assert_array_equal(a.data, b.data)


class TestFanScaledBounds:
    @pytest.mark.parametrize("shape", [(32, 16), (8, 4, 3)])
    @pytest.mark.parametrize("gain", [1.0, 2.0])
    def test_xavier_uniform_bound(self, shape, gain):
        param = blank(*shape)
        init.xavier_uniform_(param, np.random.default_rng(4), gain=gain)
        fan_in, fan_out = _fan_in_out(shape)
        bound = gain * math.sqrt(6.0 / (fan_in + fan_out))
        assert np.abs(param.data).max() <= bound
        assert np.abs(param.data).max() > 0.8 * bound

    @pytest.mark.parametrize("shape", [(32, 16), (8, 4, 3)])
    def test_kaiming_uniform_default_is_pytorch_bound(self, shape):
        # a = sqrt(5) reduces PyTorch's default bound to 1 / sqrt(fan_in).
        param = blank(*shape)
        init.kaiming_uniform_(param, np.random.default_rng(5))
        fan_in, _ = _fan_in_out(shape)
        bound = 1.0 / math.sqrt(fan_in)
        assert np.abs(param.data).max() <= bound * (1 + 1e-12)
        assert np.abs(param.data).max() > 0.8 * bound

    def test_kaiming_uniform_relu_gain(self):
        param = blank(64, 32)
        init.kaiming_uniform_(param, np.random.default_rng(6), a=0.0)
        bound = math.sqrt(2.0) * math.sqrt(3.0 / 32)
        assert np.abs(param.data).max() <= bound
        assert np.abs(param.data).max() > 0.9 * bound

    @pytest.mark.parametrize("fan_in", [1, 9, 100])
    def test_bias_uniform_bound(self, fan_in):
        param = blank(500)
        init.bias_uniform_(param, fan_in, np.random.default_rng(7))
        bound = 1.0 / math.sqrt(fan_in)
        assert np.abs(param.data).max() <= bound
        assert np.abs(param.data).max() > 0.9 * bound

    def test_bias_uniform_zero_fan_in_is_unit_range(self):
        param = blank(500)
        init.bias_uniform_(param, 0, np.random.default_rng(8))
        assert np.abs(param.data).max() <= 1.0


class TestLayerDefaults:
    def test_linear_uses_fan_in_bounds(self):
        layer = Linear(25, 10, np.random.default_rng(9))
        assert np.abs(layer.weight.data).max() <= 1.0 / 5.0
        assert np.abs(layer.bias.data).max() <= 1.0 / 5.0

    def test_conv1d_fan_in_counts_the_kernel(self):
        layer = Conv1d(4, 6, 3, np.random.default_rng(10))
        bound = 1.0 / math.sqrt(4 * 3)
        assert np.abs(layer.weight.data).max() <= bound
        assert np.abs(layer.bias.data).max() <= bound
