"""Unit tests for the Tensor class and autograd mechanics."""

import numpy as np
import pytest

from repro.nn import (Tensor, as_tensor, concatenate, is_grad_enabled,
                      no_grad, ones, stack, tensor, where, zeros)


class TestConstruction:
    def test_from_list(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert t.dtype == np.float64

    def test_from_int_array_promotes_to_float(self):
        t = Tensor(np.array([1, 2, 3]))
        assert t.dtype == np.float64

    def test_float_array_kept(self):
        t = Tensor(np.zeros(3, dtype=np.float32))
        assert t.dtype == np.float32

    def test_requires_grad_default_false(self):
        assert not Tensor([1.0]).requires_grad

    def test_as_tensor_passthrough(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t

    def test_tensor_copies_data(self):
        source = np.ones(3)
        t = tensor(source)
        source[0] = 99.0
        assert t.data[0] == 1.0

    def test_factory_shapes(self):
        assert zeros(2, 3).shape == (2, 3)
        assert ones((4,)).shape == (4,)

    def test_len_and_size(self):
        t = zeros(5, 2)
        assert len(t) == 5
        assert t.size == 10

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))
        assert "requires_grad" not in repr(Tensor([1.0]))


class TestArithmetic:
    def test_add(self):
        c = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        np.testing.assert_allclose(c.data, [4.0, 6.0])

    def test_radd_scalar(self):
        c = 1.0 + Tensor([1.0])
        np.testing.assert_allclose(c.data, [2.0])

    def test_sub_and_rsub(self):
        np.testing.assert_allclose((Tensor([3.0]) - 1.0).data, [2.0])
        np.testing.assert_allclose((5.0 - Tensor([3.0])).data, [2.0])

    def test_mul_div(self):
        np.testing.assert_allclose((Tensor([2.0]) * 3.0).data, [6.0])
        np.testing.assert_allclose((Tensor([6.0]) / 3.0).data, [2.0])
        np.testing.assert_allclose((6.0 / Tensor([3.0])).data, [2.0])

    def test_neg_pow(self):
        np.testing.assert_allclose((-Tensor([2.0])).data, [-2.0])
        np.testing.assert_allclose((Tensor([3.0]) ** 2).data, [9.0])

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([2.0]) ** Tensor([2.0])

    def test_matmul_2d(self):
        a = Tensor(np.eye(2) * 2.0)
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose((a @ b).data, [[2.0, 4.0], [6.0, 8.0]])

    def test_broadcasting(self):
        c = Tensor(np.ones((2, 3))) + Tensor(np.arange(3.0))
        np.testing.assert_allclose(c.data, [[1, 2, 3], [1, 2, 3]])


class TestBackward:
    def test_scalar_backward_seeds_one(self):
        x = Tensor([2.0, 3.0], requires_grad=True)
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, [4.0, 6.0])

    def test_nonscalar_requires_grad_argument(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2).backward()

    def test_explicit_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        (x * 3.0).backward(np.array([1.0, 10.0]))
        np.testing.assert_allclose(x.grad, [3.0, 30.0])

    def test_backward_on_leaf_without_grad_raises(self):
        x = Tensor([1.0])
        with pytest.raises(RuntimeError):
            x.backward()

    def test_grad_accumulates_across_backward_calls(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2).sum().backward()
        (x * 2).sum().backward()
        np.testing.assert_allclose(x.grad, [4.0])

    def test_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_diamond_graph_sums_paths(self):
        # y = x*2 used twice: dz/dx = 2 + 2.
        x = Tensor([1.0], requires_grad=True)
        y = x * 2.0
        z = (y + y).sum()
        z.backward()
        np.testing.assert_allclose(x.grad, [4.0])

    def test_deep_chain_no_recursion_error(self):
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 1.0
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0])

    def test_broadcast_backward_unbroadcasts(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (2, 3)
        assert b.grad.shape == (3,)
        np.testing.assert_allclose(b.grad, [2.0, 2.0, 2.0])


class TestNoGrad:
    def test_no_grad_blocks_graph(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad

    def test_no_grad_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_restores_on_exception(self):
        try:
            with no_grad():
                raise ValueError("boom")
        except ValueError:
            pass
        assert is_grad_enabled()

    def test_detach_cuts_graph(self):
        x = Tensor([1.0], requires_grad=True)
        y = (x * 2.0).detach()
        assert not y.requires_grad


class TestShapeOps:
    def test_reshape_roundtrip(self):
        x = Tensor(np.arange(6.0), requires_grad=True)
        y = x.reshape(2, 3)
        assert y.shape == (2, 3)
        y.sum().backward()
        assert x.grad.shape == (6,)

    def test_transpose_default_reverses(self):
        x = Tensor(np.zeros((2, 3, 4)))
        assert x.transpose().shape == (4, 3, 2)
        assert x.T.shape == (4, 3, 2)

    def test_transpose_axes(self):
        x = Tensor(np.zeros((2, 3, 4)))
        assert x.transpose(0, 2, 1).shape == (2, 4, 3)

    def test_getitem_slice(self):
        x = Tensor(np.arange(10.0), requires_grad=True)
        y = x[2:5]
        np.testing.assert_allclose(y.data, [2.0, 3.0, 4.0])
        y.sum().backward()
        expected = np.zeros(10)
        expected[2:5] = 1.0
        np.testing.assert_allclose(x.grad, expected)

    def test_getitem_repeated_index_accumulates(self):
        x = Tensor(np.arange(4.0), requires_grad=True)
        y = x[np.array([1, 1, 2])]
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 2.0, 1.0, 0.0])

    def test_concatenate_and_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0], requires_grad=True)
        c = concatenate([a, b])
        np.testing.assert_allclose(c.data, [1.0, 2.0, 3.0])
        (c * Tensor([1.0, 2.0, 3.0])).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 2.0])
        np.testing.assert_allclose(b.grad, [3.0])

    def test_stack(self):
        a, b = Tensor([1.0, 2.0]), Tensor([3.0, 4.0])
        s = stack([a, b], axis=0)
        np.testing.assert_allclose(s.data, [[1.0, 2.0], [3.0, 4.0]])
        s = stack([a, b], axis=1)
        np.testing.assert_allclose(s.data, [[1.0, 3.0], [2.0, 4.0]])


class TestReductionsAndElementwise:
    def test_sum_axis_keepdims(self):
        x = Tensor(np.ones((2, 3)))
        assert x.sum(axis=0).shape == (3,)
        assert x.sum(axis=1, keepdims=True).shape == (2, 1)
        assert float(x.sum().data) == 6.0

    def test_mean(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        np.testing.assert_allclose(x.mean(axis=0).data, [1.5, 2.5, 3.5])
        assert float(x.mean().data) == 2.5

    def test_max(self):
        x = Tensor(np.array([[1.0, 5.0], [3.0, 2.0]]))
        np.testing.assert_allclose(x.max(axis=1).data, [5.0, 3.0])

    def test_sigmoid_extremes_are_stable(self):
        x = Tensor(np.array([-1000.0, 0.0, 1000.0]))
        s = x.sigmoid().data
        assert np.all(np.isfinite(s))
        np.testing.assert_allclose(s, [0.0, 0.5, 1.0], atol=1e-12)

    def test_relu(self):
        x = Tensor([-1.0, 0.0, 2.0])
        np.testing.assert_allclose(x.relu().data, [0.0, 0.0, 2.0])

    def test_clip(self):
        x = Tensor([-2.0, 0.5, 2.0])
        np.testing.assert_allclose(x.clip(-1.0, 1.0).data, [-1.0, 0.5, 1.0])

    def test_abs_sqrt_exp_log(self):
        np.testing.assert_allclose(Tensor([-3.0]).abs().data, [3.0])
        np.testing.assert_allclose(Tensor([9.0]).sqrt().data, [3.0])
        np.testing.assert_allclose(Tensor([0.0]).exp().data, [1.0])
        np.testing.assert_allclose(Tensor([1.0]).log().data, [0.0])

    def test_where_selects(self):
        result = where(np.array([True, False]), Tensor([1.0, 1.0]),
                       Tensor([2.0, 2.0]))
        np.testing.assert_allclose(result.data, [1.0, 2.0])

    def test_copy_inplace(self):
        a = Tensor(np.zeros(3))
        a.copy_(Tensor(np.arange(3.0)))
        np.testing.assert_allclose(a.data, [0.0, 1.0, 2.0])


class TestDtypePolicy:
    """Thread-local dtype policy: float64 training / float32 inference."""

    def test_defaults(self):
        from repro.nn import default_dtype, inference_dtype
        assert default_dtype() == np.float64
        assert inference_dtype() == np.float32

    def test_set_default_dtype_affects_construction(self):
        from repro.nn import default_dtype, set_default_dtype
        set_default_dtype(np.float32)
        try:
            assert Tensor([1.0, 2.0]).dtype == np.float32
            assert default_dtype() == np.float32
        finally:
            set_default_dtype(np.float64)
        assert Tensor([1.0, 2.0]).dtype == np.float64

    def test_float_arrays_keep_their_dtype(self):
        data = np.array([1.0, 2.0], dtype=np.float32)
        assert Tensor(data).dtype == np.float32

    def test_inference_precision_context(self):
        from repro.nn import inference_dtype, inference_precision
        with inference_precision(np.float64):
            assert inference_dtype() == np.float64
            with inference_precision(np.float32):
                assert inference_dtype() == np.float32
            assert inference_dtype() == np.float64
        assert inference_dtype() == np.float32

    def test_non_float_dtypes_rejected(self):
        from repro.nn import set_default_dtype, set_inference_dtype
        with pytest.raises(ValueError):
            set_default_dtype(np.int64)
        with pytest.raises(ValueError):
            set_inference_dtype(np.int32)

    def test_policy_is_thread_local(self):
        import threading
        from repro.nn import inference_dtype, set_inference_dtype
        seen = {}

        def probe():
            seen["before"] = inference_dtype()
            set_inference_dtype(np.float64)
            seen["after"] = inference_dtype()

        set_inference_dtype(np.float64)
        try:
            worker = threading.Thread(target=probe)
            worker.start()
            worker.join(10.0)
            # The worker starts from the module default, not this
            # thread's override, and its own override stays private.
            assert seen["before"] == np.float32
            assert seen["after"] == np.float64
        finally:
            set_inference_dtype(np.float32)
