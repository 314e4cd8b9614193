"""Module system tests: parameter discovery, state dicts, concrete layers."""

import numpy as np
import pytest

from repro.nn import Conv1d, Embedding, Linear, Module, Parameter, Tensor


@pytest.fixture
def rng():
    return np.random.default_rng(11)


class TwoLayer(Module):
    def __init__(self, rng):
        super().__init__()
        self.first = Linear(4, 8, rng)
        self.second = Linear(8, 2, rng)

    def forward(self, x):
        return self.second(self.first(x).relu())


class TestModuleBookkeeping:
    def test_named_parameters_paths(self, rng):
        model = TwoLayer(rng)
        names = dict(model.named_parameters())
        assert set(names) == {"first.weight", "first.bias", "second.weight",
                              "second.bias"}

    def test_parameters_order_stable(self, rng):
        model = TwoLayer(rng)
        params = model.parameters()
        assert params[0] is model.first.weight
        assert params[-1] is model.second.bias

    def test_num_parameters(self, rng):
        model = TwoLayer(rng)
        assert model.num_parameters() == 4 * 8 + 8 + 8 * 2 + 2

    def test_named_modules(self, rng):
        model = TwoLayer(rng)
        names = [name for name, _ in model.named_modules()]
        assert "" in names and "first" in names and "second" in names

    def test_zero_grad_clears_all(self, rng):
        model = TwoLayer(rng)
        out = model(Tensor(rng.standard_normal((3, 4))))
        out.sum().backward()
        assert model.first.weight.grad is not None
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())


class TestStateDict:
    def test_round_trip(self, rng):
        source, target = TwoLayer(rng), TwoLayer(np.random.default_rng(99))
        target.load_state_dict(source.state_dict())
        for (_, p_source), (_, p_target) in zip(source.named_parameters(),
                                                target.named_parameters()):
            np.testing.assert_array_equal(p_source.data, p_target.data)

    def test_state_dict_is_a_copy(self, rng):
        model = TwoLayer(rng)
        state = model.state_dict()
        state["first.weight"][...] = 0.0
        assert not np.all(model.first.weight.data == 0.0)

    def test_strict_missing_key_raises(self, rng):
        model = TwoLayer(rng)
        state = model.state_dict()
        del state["first.bias"]
        with pytest.raises(KeyError, match="missing"):
            model.load_state_dict(state)

    def test_strict_unexpected_key_raises(self, rng):
        model = TwoLayer(rng)
        state = model.state_dict()
        state["ghost"] = np.zeros(3)
        with pytest.raises(KeyError, match="unexpected"):
            model.load_state_dict(state)

    def test_non_strict_partial_load(self, rng):
        model = TwoLayer(rng)
        original_bias = model.second.bias.data.copy()
        model.load_state_dict({"first.weight": np.zeros((8, 4))},
                              strict=False)
        np.testing.assert_array_equal(model.first.weight.data,
                                      np.zeros((8, 4)))
        np.testing.assert_array_equal(model.second.bias.data, original_bias)

    def test_shape_mismatch_raises(self, rng):
        model = TwoLayer(rng)
        state = model.state_dict()
        state["first.weight"] = np.zeros((2, 2))
        with pytest.raises(ValueError, match="shape"):
            model.load_state_dict(state)


class TestLinear:
    def test_output_shape(self, rng):
        layer = Linear(3, 5, rng)
        assert layer(Tensor(np.zeros((7, 3)))).shape == (7, 5)

    def test_no_bias(self, rng):
        layer = Linear(3, 5, rng, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_affine_correctness(self, rng):
        layer = Linear(2, 2, rng)
        x = np.array([[1.0, 2.0]])
        expected = x @ layer.weight.data.T + layer.bias.data
        np.testing.assert_allclose(layer(Tensor(x)).data, expected)

    def test_batched_3d_input(self, rng):
        layer = Linear(3, 5, rng)
        assert layer(Tensor(np.zeros((2, 4, 3)))).shape == (2, 4, 5)


class TestConv1dModule:
    def test_shapes_same(self, rng):
        layer = Conv1d(3, 6, 3, rng, padding="same")
        assert layer(Tensor(np.zeros((2, 3, 9)))).shape == (2, 6, 9)

    def test_parameters_registered(self, rng):
        layer = Conv1d(3, 6, 3, rng)
        assert {"weight", "bias"} == set(dict(layer.named_parameters()))


class TestEmbedding:
    def test_lookup_shape(self, rng):
        table = Embedding(10, 4, rng)
        out = table(np.array([0, 3, 9]))
        assert out.shape == (3, 4)

    def test_lookup_values(self, rng):
        table = Embedding(10, 4, rng)
        out = table(np.array([2]))
        np.testing.assert_allclose(out.data[0], table.weight.data[2])

    def test_out_of_range_raises(self, rng):
        table = Embedding(10, 4, rng)
        with pytest.raises(IndexError):
            table(np.array([10]))
        with pytest.raises(IndexError):
            table(np.array([-1]))

    def test_gradient_flows_to_rows(self, rng):
        table = Embedding(5, 3, rng)
        table(np.array([1, 1])).sum().backward()
        assert table.weight.grad is not None
        np.testing.assert_allclose(table.weight.grad[1], [2.0, 2.0, 2.0])
        np.testing.assert_allclose(table.weight.grad[0], [0.0, 0.0, 0.0])
