import gc
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from contextvars import copy_context

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import emgforge.model as M
import emgforge.tensor as T
from emgforge.errors import DivergenceError, ShapeError
from emgforge.tensor import (
    AdamState,
    ConvKernel,
    Tensor,
    adam_step,
    backward,
    conv1d_causal,
    gated_activation,
    mean_all,
    mul,
    no_grad,
    sub,
    sum_all,
)
from reference_chain import add, relu, unfused_forward


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


def max_rel_error(got, want):
    """Largest |got - want| as a share of want's max-abs."""
    return np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300)


@pytest.mark.parametrize("t_len", [257, 1])
@pytest.mark.parametrize("k,d", [(1, 1), (3, 1), (3, 4), (2, 1), (2, 300), (3, 300)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_conv_matches_loop(k, d, seed, t_len):
    """The stacked conv sums in another order than the per-tap loop, so it
    must match within 1e-12 relative, output and every gradient."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((32, t_len))
    kernel = ConvKernel(rng.standard_normal((24, 32, k)), rng.standard_normal(24), d)
    g = rng.standard_normal((24, t_len))
    want = loop_conv_with_grads(x, kernel, g)

    xt = Tensor(x, requires_grad=True)
    y = conv1d_causal(xt, kernel)
    backward(sum_all(mul(y, Tensor(g))))
    got = (y.data, kernel.grad_weights, kernel.grad_bias, xt.grad)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert max_rel_error(a, b) <= 1e-12


def gated_grad(x, g):
    """d/dx of sum(g * tanh(x_top) * sigmoid(x_bottom)), written out."""
    half = x.shape[0] // 2
    th, sg = np.tanh(x[:half]), 1.0 / (1.0 + np.exp(-x[half:]))
    return np.concatenate([g * sg * (1.0 - th**2), g * th * sg * (1.0 - sg)])


class TestGradientAdoption:
    """An op's fresh gradient array may become its input's gradient; an
    array that another tensor also holds never may."""

    def test_add_same_input_twice(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        g = rng.standard_normal((3, 5))
        y = add(x, x)
        backward(sum_all(mul(y, Tensor(g))))
        assert np.array_equal(x.grad, 2.0 * g)
        assert np.array_equal(y.grad, g)

    def test_add_inputs_get_separate_arrays(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
        g = rng.standard_normal((2, 4))
        backward(sum_all(mul(add(a, b), Tensor(g))))
        assert a.grad is not b.grad
        assert np.array_equal(a.grad, g) and np.array_equal(b.grad, g)

    def test_conv_and_gated_reads_sum(self):
        """x is read by a conv, a gated op and, newest, a residual add; the
        conv's backward runs last and must see its own upstream gradient."""
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 9))
        kernel = ConvKernel(rng.standard_normal((4, 4, 3)), rng.standard_normal(4), 2)
        g_res, g_gate = rng.standard_normal((4, 9)), rng.standard_normal((2, 9))
        xt = Tensor(x, requires_grad=True)
        conv = conv1d_causal(xt, kernel)
        gate = gated_activation(xt)
        residual = add(xt, conv)
        backward(add(sum_all(mul(residual, Tensor(g_res))), sum_all(mul(gate, Tensor(g_gate)))))
        _, want_gw, want_gb, want_gx = loop_conv_with_grads(x, kernel, g_res)
        assert max_rel_error(xt.grad, g_res + want_gx + gated_grad(x, g_gate)) <= 1e-12
        assert max_rel_error(kernel.grad_weights, want_gw) <= 1e-12
        assert max_rel_error(kernel.grad_bias, want_gb) <= 1e-12

    def test_second_graph_leaves_first_graph_arrays(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 6))
        xt = Tensor(x, requires_grad=True)
        u = Tensor(rng.standard_normal((2, 6)), requires_grad=True)
        g1, g2 = rng.standard_normal((2, 6)), rng.standard_normal((2, 6))
        s = add(gated_activation(xt), u)
        backward(sum_all(mul(s, Tensor(g1))))
        first = xt.grad
        kernel = ConvKernel(rng.standard_normal((2, 4, 2)), rng.standard_normal(2), 1)
        backward(sum_all(mul(add(conv1d_causal(xt, kernel), u), Tensor(g2))))
        assert xt.grad is first  # the adopted array took the second graph's sum
        want = gated_grad(x, g1) + loop_conv_with_grads(x, kernel, g2)[3]
        assert max_rel_error(xt.grad, want) <= 1e-12
        assert np.array_equal(u.grad, g1 + g2)
        assert np.array_equal(s.grad, g1)


# ModelConfig's one block nonlinearity, a parameter so that the ids keep their suffix.
ACTIVATIONS = ["gated"]


def network(seed, activation="gated", k=3, blocks=3, c=4, s=3, window=5):
    """A small model with a random input normalizer and biases, so no term vanishes."""
    cfg = M.ModelConfig(
        kernel_size=k,
        num_blocks=blocks,
        residual_channels=c,
        skip_channels=s,
        context_window=window,
        activation=activation,
    )
    w = M.init_weights(cfg, seed=seed)
    rng = np.random.default_rng(seed + 1)
    w.input_offset[:] = rng.standard_normal(6)
    w.input_scale[:] = rng.uniform(0.5, 2.0, 6)
    for _, kern in w.named_kernels():
        kern.bias[:] = rng.standard_normal(kern.bias.shape) * 0.1
    return w


def network_grads(run, weights, x, target):
    """run(weights, x)'s output, then every gradient of sum(output * target):
    each kernel's in checkpoint order, then x's. Runs on a copy of the weights."""
    w = weights.copy()
    xt = Tensor(x, requires_grad=True)
    y = run(w, xt)
    backward(sum_all(mul(y, Tensor(target))))
    return [y.data, *w.gradient_arrays().values(), xt.grad]


def assert_matches_chain(weights, t_len, seed):
    """model.forward's output and gradients equal the op chain's within
    1e-12 of each array's max-abs."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((6, t_len))
    target = rng.standard_normal((1, t_len))
    got = network_grads(M.forward, weights, x, target)
    want = network_grads(unfused_forward, weights, x, target)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert max_rel_error(a, b) <= 1e-12


def assert_gradients_match_finite_differences(weights, arrays, x, target):
    """Central differences of the MSE against forward's backward, for every
    entry of `arrays` (weights' parameter names, or "x")."""

    def loss_value(xt):
        diff = sub(M.forward(weights, xt), Tensor(target))
        return mean_all(mul(diff, diff))

    weights.zero_grads()
    xt = Tensor(x, requires_grad=True)
    backward(loss_value(xt))
    params, grads = weights.parameter_arrays(), weights.gradient_arrays()
    checked = [(x, xt.grad) if name == "x" else (params[name], grads[name]) for name in arrays]
    h = 1e-5  # large enough that rounding in up - dn stays inside the tolerance
    for array, grad in checked:
        flat = array.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_value(Tensor(x)).data[0, 0]
            flat[i] = orig - h
            dn = loss_value(Tensor(x)).data[0, 0]
            flat[i] = orig
            fd = (up - dn) / (2 * h)
            ad = grad.ravel()[i]
            assert abs(ad - fd) <= 1e-6 * max(abs(ad), abs(fd), 1e-3)


class TestFusedBlockOps:
    """The dilated convs, their activations and the residual adds now run
    inside model.forward's one recorded op; it must equal the op chain."""

    @pytest.mark.parametrize("activation", ACTIVATIONS)
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("t_len", [1, 3, 257, 1024])
    def test_matches_unfused_chain(self, activation, k, t_len):
        assert_matches_chain(network(k + t_len, activation, k), t_len, seed=t_len)

    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_gradients_match_finite_differences(self, activation):
        w = network(8, activation, k=3, blocks=2, c=2, s=2, window=3)
        rng = np.random.default_rng(9)
        x, target = rng.standard_normal((6, 10)), rng.standard_normal((1, 10))
        assert_gradients_match_finite_differences(w, [*w.parameter_arrays(), "x"], x, target)

    def test_bad_shapes_rejected(self):
        w = network(0)
        with pytest.raises(ShapeError):  # the model reads 6 channels
            M.forward(w, Tensor(np.zeros((5, 8))))
        odd = w.blocks[1].dilated
        w.blocks[1].dilated = ConvKernel(odd.weights[:-1], odd.bias[:-1], odd.dilation)
        with pytest.raises(ShapeError):  # an odd channel count cannot gate
            M.forward(w, Tensor(np.zeros((6, 8))))


class TestReadout:
    """The skips, context conv and head now run as forward's tail product."""

    @pytest.mark.parametrize("activation", ACTIVATIONS)
    # One block has no residual 1x1; four reach dilation 8 with three of them.
    @pytest.mark.parametrize("blocks", [1, 2, 4])
    @pytest.mark.parametrize("t_len", [1, 3, 64])  # 1 and 3 are shorter than the window
    def test_matches_unfused_chain(self, activation, blocks, t_len):
        w = network(t_len + blocks, activation, k=2, blocks=blocks, c=3, s=5, window=7)
        assert_matches_chain(w, t_len, seed=t_len + 10 * blocks)

    def test_gradients_match_finite_differences(self):
        w = network(7, blocks=2, c=2, s=3, window=4)
        rng = np.random.default_rng(8)
        x, target = rng.standard_normal((6, 12)), rng.standard_normal((1, 12))
        tail = ("skip", "context", "output_proj")
        names = [n for n in w.parameter_arrays() if n.split(".")[-2] in tail]
        assert_gradients_match_finite_differences(w, names, x, target)

    @pytest.mark.parametrize(
        "change",
        ["no_gates", "one_skip_missing", "skip_k2", "gates_unequal_length", "context_dilated",
         "context_not_square", "head_k2"],
    )
    def test_bad_shapes_rejected(self, change):
        """A kernel whose shape or dilation does not fit the config is
        rejected, not read as if it did."""
        w = network(0)
        s, c = w.config.skip_channels, w.config.residual_channels
        if change == "no_gates":
            w.blocks = []
        elif change == "one_skip_missing":
            w.blocks[1].skip = ConvKernel(np.zeros((s - 1, c, 1)), np.zeros(s - 1))
        elif change == "skip_k2":
            w.blocks[0].skip = ConvKernel(np.zeros((s, c, 2)), np.zeros(s))
        elif change == "gates_unequal_length":  # a dilated kernel one tap longer
            w.blocks[2].dilated = ConvKernel(np.zeros((2 * c, c, 4)), np.zeros(2 * c), 4)
        elif change == "context_dilated":
            w.context = ConvKernel(w.context.weights, w.context.bias, 2)
        elif change == "context_not_square":
            w.context = ConvKernel(np.zeros((s, s - 1, 5)), np.zeros(s))
        else:
            w.output_proj = ConvKernel(np.zeros((1, s, 2)), np.zeros(1))
        with pytest.raises(ShapeError):
            M.forward(w, Tensor(np.zeros((6, 10))))
        with pytest.raises(ShapeError):
            M.forward_streaming(w, M.StreamState(w.config), np.zeros((6, 10)))


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
    """forward's input normalizer, (x - offset) * scale per channel."""

    def test_affine_applied(self):
        w = network(3)
        x = np.random.default_rng(4).standard_normal((6, 20))
        normalized = (x - w.input_offset[:, None]) * w.input_scale[:, None]
        want = M.forward(w, x).data
        w.input_offset[:], w.input_scale[:] = 0.0, 1.0
        assert np.array_equal(M.forward(w, normalized).data, want)

    def test_gradient_scales(self):
        w = network(5)
        rng = np.random.default_rng(6)
        x, g = rng.standard_normal((6, 20)), rng.standard_normal((1, 20))
        xt = Tensor(x, requires_grad=True)
        backward(sum_all(mul(M.forward(w, xt), Tensor(g))))
        scale = w.input_scale.copy()
        ut = Tensor((x - w.input_offset[:, None]) * scale[:, None], requires_grad=True)
        w.input_offset[:], w.input_scale[:] = 0.0, 1.0
        backward(sum_all(mul(M.forward(w, ut), Tensor(g))))
        assert np.array_equal(xt.grad, ut.grad * scale[:, None])


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
