import gc
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from contextvars import copy_context

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import emgforge.tensor as T
from emgforge.errors import DivergenceError, ShapeError
from emgforge.tensor import (
    AdamState,
    ConvKernel,
    Tensor,
    add,
    adam_step,
    backward,
    conv1d_causal,
    gated_activation,
    mean_all,
    mul,
    no_grad,
    relu,
    scale_channels,
    sub,
    sum_all,
)


class TestConv:
    def test_identity_1x1(self):
        k = ConvKernel(np.eye(3).reshape(3, 3, 1), np.zeros(3), 1)
        x = Tensor(np.random.default_rng(0).standard_normal((3, 10)))
        y = conv1d_causal(x, k)
        assert np.array_equal(y.data, x.data)

    def test_running_sum_k2_d1(self):
        k = ConvKernel(np.array([[[1.0, 1.0]]]), np.zeros(1), 1)
        y = conv1d_causal(Tensor([1.0, 2.0, 3.0]), k)
        assert y.data.tolist() == [[1.0, 3.0, 5.0]]

    def test_running_sum_k2_d2(self):
        k = ConvKernel(np.array([[[1.0, 1.0]]]), np.zeros(1), 2)
        y = conv1d_causal(Tensor([1.0, 2.0, 3.0, 4.0]), k)
        assert y.data.tolist() == [[1.0, 2.0, 4.0, 6.0]]

    def test_channel_mismatch(self):
        k = ConvKernel(np.zeros((1, 2, 3)), np.zeros(1), 1)
        with pytest.raises(ShapeError):
            conv1d_causal(Tensor(np.zeros((3, 5))), k)

    @settings(max_examples=40, deadline=None)
    @given(
        c_in=st.integers(1, 4),
        c_out=st.integers(1, 4),
        k=st.integers(1, 4),
        d=st.integers(1, 4),
        t_len=st.integers(2, 40),
        t_cut=st.integers(1, 39),
        seed=st.integers(0, 10_000),
    )
    def test_causality_exact(self, c_in, c_out, k, d, t_len, t_cut, seed):
        """Changing x beyond t leaves y[..t] bit-identical."""
        t_cut = min(t_cut, t_len - 1)
        rng = np.random.default_rng(seed)
        kern = ConvKernel(rng.standard_normal((c_out, c_in, k)), rng.standard_normal(c_out), d)
        x1 = rng.standard_normal((c_in, t_len))
        x2 = x1.copy()
        x2[:, t_cut:] = rng.standard_normal((c_in, t_len - t_cut)) * 10.0
        y1 = conv1d_causal(Tensor(x1), kern).data
        y2 = conv1d_causal(Tensor(x2), kern).data
        assert np.array_equal(y1[:, :t_cut], y2[:, :t_cut])

    @settings(max_examples=25, deadline=None)
    @given(shift=st.integers(1, 16), seed=st.integers(0, 1000))
    def test_shift_equivariance(self, shift, seed):
        rng = np.random.default_rng(seed)
        kern = ConvKernel(rng.standard_normal((2, 3, 3)), rng.standard_normal(2), 2)
        x = rng.standard_normal((3, 30))
        y = conv1d_causal(Tensor(x), kern).data
        x_shift = np.concatenate([np.zeros((3, shift)), x], axis=1)
        y_shift = conv1d_causal(Tensor(x_shift), kern).data
        assert np.array_equal(y_shift[:, shift:], y)


class TestActivations:
    def test_gated_zero_maps_to_zero(self):
        y = gated_activation(Tensor(np.zeros((4, 6))))
        assert np.all(y.data == 0.0)

    def test_gated_saturates_to_one(self):
        x = np.full((2, 3), 1e6)
        y = gated_activation(Tensor(x))
        assert np.max(np.abs(y.data - 1.0)) <= 1e-6

    def test_gated_odd_channels_rejected(self):
        with pytest.raises(ShapeError):
            gated_activation(Tensor(np.zeros((3, 4))))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), scale=st.floats(0.1, 1e4))
    def test_gated_output_bounded(self, seed, scale):
        x = np.random.default_rng(seed).standard_normal((6, 20)) * scale
        y = gated_activation(Tensor(x))
        assert np.all(np.abs(y.data) <= 1.0)

    def test_relu(self):
        y = relu(Tensor([[-1.0, 0.0, 2.0]]))
        assert y.data.tolist() == [[0.0, 0.0, 2.0]]


def masked_sigmoid(x):
    """The boolean-mask sigmoid the mask-free one replaced, kept as the reference."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoid:
    EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 745.0, -745.0, 746.0, -746.0,
             709.8, -709.8, 5e-324, -5e-324, 1e-300, -1e-300]

    def test_bit_identical_to_masked_on_edges(self):
        x = np.array(self.EDGES)
        with np.errstate(over="ignore", invalid="ignore"):
            want = masked_sigmoid(x)
        assert np.array_equal(T._sigmoid(x).view(np.uint64), want.view(np.uint64))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), scale=st.sampled_from([1e-3, 1.0, 30.0, 800.0]))
    def test_bit_identical_to_masked_on_random(self, seed, scale):
        x = np.random.default_rng(seed).standard_normal((8, 64)) * scale
        with np.errstate(over="ignore"):
            want = masked_sigmoid(x)
        assert np.array_equal(T._sigmoid(x).view(np.uint64), want.view(np.uint64))

    def test_input_left_unchanged(self):
        x = np.linspace(-5.0, 5.0, 11)
        before = x.copy()
        T._sigmoid(x)
        assert np.array_equal(x, before)


def loop_conv_with_grads(x, kernel, g):
    """The per-tap conv1d_causal loop with its backward, kept as the reference.

    Returns (output, grad_weights, grad_bias, grad_x) for upstream gradient g.
    """
    k, d = kernel.size, kernel.dilation
    t_len = x.shape[1]
    pad = (k - 1) * d
    xp = np.zeros((x.shape[0], t_len + pad))
    xp[:, pad:] = x
    out = np.repeat(kernel.bias[:, None], t_len, axis=1)
    for j in range(k):
        out += kernel.weights[:, :, j] @ xp[:, j * d : j * d + t_len]
    gw = np.zeros_like(kernel.weights)
    gb = np.zeros_like(kernel.bias)
    for j in range(k):
        gw[:, :, j] += g @ xp[:, j * d : j * d + t_len].T
    gb += g.sum(axis=1)
    gxp = np.zeros_like(xp)
    for j in range(k):
        gxp[:, j * d : j * d + t_len] += kernel.weights[:, :, j].T @ g
    gx = np.zeros_like(x)
    gx += gxp[:, pad:]
    return out, gw, gb, gx


@pytest.mark.parametrize("k,d", [(1, 1), (3, 1), (3, 4)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_conv_bit_identical_to_loop(k, d, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((32, 257))
    kernel = ConvKernel(rng.standard_normal((24, 32, k)), rng.standard_normal(24), d)
    g = rng.standard_normal((24, 257))
    want_out, want_gw, want_gb, want_gx = loop_conv_with_grads(x, kernel, g)

    xt = Tensor(x, requires_grad=True)
    y = conv1d_causal(xt, kernel)
    backward(sum_all(mul(y, Tensor(g))))
    assert np.array_equal(y.data, want_out)
    assert np.array_equal(kernel.grad_weights, want_gw)
    assert np.array_equal(kernel.grad_bias, want_gb)
    assert np.array_equal(xt.grad, want_gx)


class TestBackward:
    def test_sum_of_squares_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        backward(sum_all(mul(x, x)))
        assert x.grad.tolist() == [[2.0, 4.0]]

    def test_non_scalar_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = mul(x, x)
        with pytest.raises(ShapeError):
            backward(y)

    def test_loss_without_recorded_ops_rejected(self):
        x = Tensor([[1.0]], requires_grad=True)
        with pytest.raises(ShapeError):
            backward(x)

    def test_gradient_accumulates_additively(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = sum_all(mul(x, x))
        backward(y)
        first = x.grad.copy()
        # a second independent pass accumulates on top until reset
        backward(sum_all(mul(x, x)))
        assert np.array_equal(x.grad, 2 * first)
        x.zero_grad()
        assert x.grad is None

    def test_second_backward_on_same_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = sum_all(mul(x, x))
        backward(loss)
        first = x.grad.copy()
        with pytest.raises(ShapeError):
            backward(loss)
        assert np.array_equal(x.grad, first)

    def test_graph_released_during_backward(self):
        # Without the cyclic GC only reference counting can free the graph,
        # so a dead weakref means backward itself dropped every reference.
        rng = np.random.default_rng(3)
        kern = ConvKernel(rng.standard_normal((4, 2, 3)), rng.standard_normal(4), 2)
        x = Tensor(rng.standard_normal((2, 32)), requires_grad=True)
        gc.disable()
        try:
            h = gated_activation(conv1d_causal(x, kern))
            ref = weakref.ref(h)
            loss = mean_all(mul(h, h))
            del h
            assert ref() is not None
            backward(loss)
            assert ref() is None
        finally:
            gc.enable()
        assert kern.grad_weights is not None and x.grad is not None
        with pytest.raises(ShapeError):
            backward(loss)

    def test_second_backward_through_shared_subgraph_rejected(self):
        # Both losses read h; once the first has backpropagated through h's
        # op, the second must raise rather than stop at h with partial
        # gradients, and leave every gradient as it was.
        rng = np.random.default_rng(4)
        kern = ConvKernel(rng.standard_normal((2, 2, 2)), rng.standard_normal(2), 1)
        x = Tensor(rng.standard_normal((2, 8)), requires_grad=True)
        h = relu(conv1d_causal(x, kern))
        first = sum_all(mul(h, h))
        second = mean_all(sub(h, Tensor(np.ones((2, 8)))))
        backward(first)
        before = [g.copy() for g in (x.grad, h.grad, kern.grad_weights, kern.grad_bias)]
        with pytest.raises(ShapeError):
            backward(second)
        after = (x.grad, h.grad, kern.grad_weights, kern.grad_bias)
        assert all(np.array_equal(a, b) for a, b in zip(before, after))
        assert second.grad is None

    def test_gradients_sum_in_reverse_creation_order(self):
        # One leaf read by three muls: float addition is not associative at
        # 1e16, so the leaf's gradient shows the order its terms were summed.
        x = Tensor([[1.0]], requires_grad=True)
        consts = [1e16, -1e16, 1.0]
        terms = [mul(x, Tensor([[c]])) for c in consts]
        backward(sum_all(add(terms[2], add(terms[0], terms[1]))))
        want = 0.0
        for c in reversed(consts):
            want += c
        assert x.grad[0, 0] == want
        assert want != (consts[0] + consts[1]) + consts[2]  # creation order sums to 1.0

    def test_causal_input_gradient_is_zero_for_future(self):
        rng = np.random.default_rng(0)
        kern = ConvKernel(rng.standard_normal((2, 3, 3)), np.zeros(2), 2)
        x = Tensor(rng.standard_normal((3, 20)), requires_grad=True)
        y = conv1d_causal(x, kern)
        mask = np.zeros((2, 20))
        mask[:, 10] = 1.0
        backward(sum_all(mul(y, Tensor(mask))))
        assert np.all(x.grad[:, 11:] == 0.0)

    def test_finite_difference_oracle_small_graph(self):
        rng = np.random.default_rng(5)
        kern = ConvKernel(rng.standard_normal((2, 2, 3)), rng.standard_normal(2), 2)
        x_np = rng.standard_normal((2, 16))
        target = rng.standard_normal((1, 16))

        def loss_value():
            x = Tensor(x_np)
            h = gated_activation(conv1d_causal(x, kern))
            diff = sub(h, Tensor(target))
            return mean_all(mul(diff, diff))

        loss = loss_value()
        backward(loss)
        analytic = kern.grad_weights.copy()
        h = 1e-6
        flat = kern.weights.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_value().data[0, 0]
            flat[i] = orig - h
            dn = loss_value().data[0, 0]
            flat[i] = orig
            fd = (up - dn) / (2 * h)
            ad = analytic.ravel()[i]
            assert abs(ad - fd) <= 1e-6 * max(abs(ad), abs(fd), 1e-3)

    def test_relu_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        # keep sample points away from the kink
        x_np = rng.standard_normal((2, 12))
        x_np[np.abs(x_np) < 0.1] = 0.5

        def loss_value(x_tensor=None):
            x_tensor = x_tensor if x_tensor is not None else Tensor(x_np)
            return mean_all(mul(relu(x_tensor), relu(x_tensor)))

        x = Tensor(x_np, requires_grad=True)
        backward(loss_value(x))
        h = 1e-6
        flat = x_np.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_value().data[0, 0]
            flat[i] = orig - h
            dn = loss_value().data[0, 0]
            flat[i] = orig
            fd = (up - dn) / (2 * h)
            ad = x.grad.ravel()[i]
            assert abs(ad - fd) <= 1e-6 * max(abs(ad), abs(fd), 1e-3)

    def test_no_grad_disables_recording(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with no_grad():
            y = mul(x, x)
        assert not y.requires_grad
        with pytest.raises(ShapeError):
            backward(sum_all(y))

    def test_no_grad_is_per_thread(self):
        # One thread sits inside no_grad() while the other records; the
        # barrier makes both ops run while the no_grad() block is open.
        x = Tensor([1.0, 2.0], requires_grad=True)
        barrier = threading.Barrier(2, timeout=10)
        out = {}

        def quiet():
            with no_grad():
                barrier.wait()
                out["quiet"] = mul(x, x)
                barrier.wait()

        def recording():
            barrier.wait()
            out["recording"] = mul(x, x)
            barrier.wait()

        threads = [threading.Thread(target=quiet), threading.Thread(target=recording)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        assert not out["quiet"].requires_grad
        with pytest.raises(ShapeError):
            backward(sum_all(out["quiet"]))
        assert out["recording"].requires_grad
        backward(sum_all(out["recording"]))
        assert x.grad.tolist() == [[2.0, 4.0]]

    def test_no_grad_reaches_a_copied_context(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with ThreadPoolExecutor(1) as pool, no_grad():
            plain = pool.submit(mul, x, x).result()
            copied = pool.submit(copy_context().run, mul, x, x).result()
        assert plain.requires_grad
        assert not copied.requires_grad
        with pytest.raises(ShapeError):
            backward(sum_all(copied))
        backward(sum_all(plain))
        assert x.grad.tolist() == [[2.0, 4.0]]

    def test_deterministic_forward(self):
        rng = np.random.default_rng(9)
        kern = ConvKernel(rng.standard_normal((3, 3, 2)), rng.standard_normal(3), 1)
        x = rng.standard_normal((3, 50))
        y1 = conv1d_causal(Tensor(x), kern).data
        y2 = conv1d_causal(Tensor(x), kern).data
        assert np.array_equal(y1, y2)


class TestScaleChannels:
    def test_affine_applied(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        y = scale_channels(x, np.array([1.0, 3.0]), np.array([2.0, 10.0]))
        assert y.data.tolist() == [[0.0, 2.0], [0.0, 10.0]]

    def test_gradient_scales(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        y = scale_channels(x, np.zeros(2), np.array([2.0, 5.0]))
        backward(sum_all(y))
        assert np.array_equal(x.grad, np.array([[2.0] * 3, [5.0] * 3]))


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        p = {"w": np.array([1.0, -2.0])}
        g = {"w": np.zeros(2)}
        state = adam_step(p, g, None, lr=0.1)
        assert p["w"].tolist() == [1.0, -2.0]
        assert state.step == 1

    def test_first_step_is_signed_lr(self):
        p = {"w": np.array([0.0, 0.0])}
        g = {"w": np.array([0.5, -3.0])}
        adam_step(p, g, None, lr=0.01)
        assert np.max(np.abs(p["w"] - np.array([-0.01, 0.01]))) <= 0.01 * 1e-6

    def test_constant_gradient_approaches_signed_lr(self):
        p = {"w": np.array([0.0])}
        g = {"w": np.array([0.25])}
        state = None
        prev = p["w"].copy()
        for _ in range(500):
            prev = p["w"].copy()
            state = adam_step(p, g, state, lr=0.01)
        step = prev - p["w"]
        assert step[0] == pytest.approx(0.01, rel=1e-4)

    def test_nonfinite_gradient_names_parameter(self):
        p = {"bad_param": np.array([1.0])}
        g = {"bad_param": np.array([np.nan])}
        with pytest.raises(DivergenceError, match="bad_param"):
            adam_step(p, g, None, lr=0.1)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            adam_step({"w": np.zeros(2)}, {"w": np.zeros(3)}, None, lr=0.1)

    def test_deterministic(self):
        def run():
            p = {"w": np.array([1.0, 2.0])}
            state = None
            for i in range(10):
                g = {"w": np.array([0.1 * i, -0.2])}
                state = adam_step(p, g, state, lr=0.05)
            return p["w"]

        assert np.array_equal(run(), run())


class TestTensorBasics:
    def test_rank_coercion(self):
        assert Tensor(3.0).data.shape == (1, 1)
        assert Tensor([1.0, 2.0]).data.shape == (1, 2)

    def test_rank3_rejected(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 2, 2)))

    def test_independent_chains_merge_correctly(self):
        # u = a^2 and v = b^2 are separate chains until combined; backward
        # must still reach both.
        a = Tensor([3.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        u = mul(a, a)
        v = mul(b, b)
        backward(sum_all(mul(u, v)))
        assert a.grad[0, 0] == pytest.approx(2 * 3.0 * 2.0**2)  # 2ab^2
        assert b.grad[0, 0] == pytest.approx(2 * 2.0 * 3.0**2)  # 2ba^2

    def test_same_leaf_consumed_by_two_chains(self):
        x = Tensor([2.0], requires_grad=True)
        y = mul(relu(x), relu(x))  # two relu calls, two chains, one leaf
        backward(sum_all(y))
        assert x.grad[0, 0] == pytest.approx(4.0)  # d(x^2)/dx at 2
