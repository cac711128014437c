"""Rank-2 tensor engine with reverse-mode automatic differentiation.

Shapes are [channels x time]; scalars are (1, 1). An op computes its output
and hands it to record() with its inputs and a backward function, which
passes gradients on with accumulate(); the network is one such op,
model.forward, which maps [in_channels x T] to [1 x T]. The ops here are
what the loss and the tests' reference chain need: a causal dilated conv,
the gated activation, elementwise arithmetic, full reductions and an Adam
step. Everything is float64 numpy with a fixed reduction order, so a given
input always produces bit-identical results. The causal conv runs on one
stack of its input's delayed copies in the weights' own order
(stack_taps), shared with the model; it equals the per-tap loop within
1e-12 relative.

An op run while gradients are enabled records its inputs, its backward
function and a creation number on its output. The backward function keeps
only the arrays it reads. backward(loss) runs the ops reachable from the
loss newest first, accumulating gradients into every tensor and kernel
that requires them, and frees each op once it has run, so a graph is
backpropagated once.

Recording is a per-context setting: no_grad() in one thread never stops
recording in another.
"""

from __future__ import annotations

import contextvars
import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, ShapeError

_grad_enabled = contextvars.ContextVar("emgforge_grad_enabled", default=True)


@contextmanager
def no_grad():
    """Disable op recording inside the block (inference / validation).

    The setting belongs to the current thread's context; work handed to
    other threads sees it only if it runs in a copy of this context.
    """
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


def grad_enabled() -> bool:
    """Whether ops run in this context are recorded."""
    return _grad_enabled.get()


# Creation numbers of recorded ops: every op is numbered after its inputs.
# Threads share it; only the order within one graph matters.
_creation = itertools.count()

# The backward function of a recorded op that has already run.
_SPENT = object()


class Tensor:
    """[channels x time] float64 array with an optional gradient. A recorded
    op's output also holds its inputs, backward function and creation number."""

    __slots__ = ("data", "grad", "requires_grad", "_inputs", "_backward", "_order", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise ShapeError(f"tensors are rank-2 [channels x time], got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ShapeError(f"tensor dims must be >= 1, got shape {arr.shape}")
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._inputs = ()
        self._backward = None
        self._order = -1

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


@dataclass
class ConvKernel:
    """Weights [C_out x C_in x k], bias [C_out], and a dilation factor."""

    weights: np.ndarray
    bias: np.ndarray
    dilation: int = 1
    grad_weights: np.ndarray | None = field(default=None, repr=False)
    grad_bias: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 3:
            raise ShapeError(f"kernel weights must be [C_out x C_in x k], got {self.weights.shape}")
        if self.bias.shape != (self.weights.shape[0],):
            raise ShapeError(
                f"bias shape {self.bias.shape} does not match C_out={self.weights.shape[0]}"
            )
        if self.weights.shape[2] < 1:
            raise ShapeError("kernel size must be >= 1")
        if self.dilation < 1:
            raise ShapeError(f"dilation must be >= 1, got {self.dilation}")

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]

    @property
    def size(self) -> int:
        return self.weights.shape[2]

    def zero_grad(self) -> None:
        self.grad_weights = None
        self.grad_bias = None

    def copy(self) -> "ConvKernel":
        return ConvKernel(self.weights.copy(), self.bias.copy(), self.dilation)

    def shared(self) -> "ConvKernel":
        """A kernel on the same weight and bias arrays with its own gradients."""
        return ConvKernel(self.weights, self.bias, self.dilation)


def accumulate(tensor: Tensor, grad: np.ndarray, owned: bool = False) -> None:
    """Add grad into tensor.grad. When there is none yet, an array the op
    made for this input alone (`owned`) is adopted; any other, such as the
    output gradient that sub() passes on, is copied."""
    if tensor.grad is None:
        tensor.grad = grad if owned else grad.copy()
    else:
        tensor.grad += grad


def accumulate_kernel(kernel: ConvKernel, grad_weights: np.ndarray, grad_bias: np.ndarray) -> None:
    """Add an op's gradients, arrays it made, into the kernel's, adopting
    them when there are none yet. Each element takes one add per op, so
    ops accumulated into one kernel one after another give the same bits as
    summing their gradients."""
    if kernel.grad_weights is None:
        kernel.grad_weights, kernel.grad_bias = grad_weights, grad_bias
    else:
        kernel.grad_weights += grad_weights
        kernel.grad_bias += grad_bias


def record(data, inputs: tuple[Tensor, ...], backward, requires: bool = False) -> Tensor:
    """The op's output, recorded with `backward(out)` when it needs a
    gradient: when `requires` is set (the op has parameters) or an input
    needs one."""
    if not _grad_enabled.get():
        return Tensor(data)
    requires = requires or any(t.requires_grad for t in inputs)
    out = Tensor(data, requires_grad=requires)
    if requires:
        out._inputs = inputs
        out._backward = backward
        out._order = next(_creation)
    return out


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: shape mismatch {a.data.shape} vs {b.data.shape}")


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")

    def backward(out):
        if a.requires_grad:
            accumulate(a, out.grad)
        if b.requires_grad:
            accumulate(b, -out.grad, owned=True)

    return record(a.data - b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "mul")

    def backward(out):
        if a.requires_grad:
            accumulate(a, out.grad * b.data, owned=True)
        if b.requires_grad:
            accumulate(b, out.grad * a.data, owned=True)

    return record(a.data * b.data, (a, b), backward)


def sum_all(x: Tensor) -> Tensor:
    def backward(out):
        if x.requires_grad:
            accumulate(x, np.full_like(x.data, float(out.grad[0, 0])), owned=True)

    return record(np.sum(x.data).reshape(1, 1), (x,), backward)


def mean_all(x: Tensor) -> Tensor:
    inv = 1.0 / x.data.size

    def backward(out):
        if x.requires_grad:
            accumulate(x, np.full_like(x.data, float(out.grad[0, 0]) * inv), owned=True)

    return record(np.mean(x.data).reshape(1, 1), (x,), backward)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function without masks: exp(min(x, 0)) / (1 + exp(-|x|)).

    The numerator is 1 for x >= 0 and exp(x) otherwise; neither exp can
    overflow. e = exp(min(x, -x)) keeps a NaN input's sign bit (-|x| would
    set it).
    """
    e = np.minimum(x, -x)
    np.exp(e, out=e)
    out = np.minimum(x, 0.0)
    np.exp(out, out=out)
    e += 1.0
    out /= e
    return out


def gated_activation(x: Tensor) -> Tensor:
    """tanh(top half) * sigmoid(bottom half) along the channel axis. Its
    backward keeps the two halves' activations and the output, not x."""
    shape = x.data.shape
    if shape[0] % 2 != 0:
        raise ShapeError(f"gated activation needs an even channel count, got {shape[0]}")
    half = shape[0] // 2
    th = np.tanh(x.data[:half])
    sg = _sigmoid(x.data[half:])
    out_data = th * sg

    def backward(out):  # [sg * (1 - th^2); out * (1 - sg)] * out.grad, in place
        if x.requires_grad:
            grad = np.empty(shape)
            top, bottom, halves = grad[:half], grad[half:], grad.reshape(2, half, -1)
            np.multiply(np.subtract(1.0, np.square(th, out=top), out=top), sg, out=top)
            np.multiply(np.subtract(1.0, sg, out=bottom), out_data, out=bottom)
            np.multiply(halves, out.grad, out=halves)
            accumulate(x, grad, owned=True)

    return record(out_data, (x,), backward)


def stack_taps(x: np.ndarray, k: int, dilation: int, out: np.ndarray, context=None) -> np.ndarray:
    """Fill `out` ([C*k x T]) with the taps of a causal dilated conv over x
    ([C x T]): row i*k + j holds channel i delayed by (k-1-j)*dilation, the
    order of weights.reshape(C_out, -1). Columns before t = 0 read zeros,
    or `context` ([C x (k-1)*dilation], the inputs just before x) if given."""
    t_len = x.shape[1]
    for j in range(k):
        lag = min((k - 1 - j) * dilation, t_len)
        tap = out[j::k]
        tap[:, :lag] = 0.0 if context is None else context[:, j * dilation : j * dilation + lag]
        tap[:, lag:] = x[:, : t_len - lag]
    return out


def _conv_backward(x: Tensor, kernel: ConvKernel, g: np.ndarray) -> None:
    """Accumulate the conv's gradients for the output gradient g: the weights'
    tap by tap from x, and x's from one product whose delayed taps are added
    back shifted."""
    k, d = kernel.size, kernel.dilation
    c_out, c_in = kernel.weights.shape[:2]
    t_len = g.shape[1]
    lags = [(j, (k - 1 - j) * d) for j in range(k) if (k - 1 - j) * d < t_len]
    grad_weights = np.zeros_like(kernel.weights)
    for j, lag in lags:
        grad_weights[:, :, j] = g[:, lag:] @ x.data[:, : t_len - lag].T
    accumulate_kernel(kernel, grad_weights, g.sum(axis=1))
    if x.requires_grad:
        grad_taps = kernel.weights.T.reshape(k * c_in, c_out) @ g  # tap-major
        grad_x = grad_taps[(k - 1) * c_in :]
        for j, lag in lags[:-1]:
            grad_x[:, : t_len - lag] += grad_taps[j * c_in : (j + 1) * c_in, lag:]
        accumulate(x, grad_x, owned=True)


def conv1d_causal(x: Tensor, kernel: ConvKernel) -> Tensor:
    """Causal dilated 1-D convolution, left-padded so output length == T.

    y[c, t] = bias[c] + sum_{i,j} w[c, i, j] * x[i, t - (k-1-j)*d]
    (x indexed with zeros before t=0); tap j = k-1 reads the current sample.
    Forward is one product over the stacked taps, not kept for backward.
    Outputs and gradients equal the per-tap loop within 1e-12 of max-abs.
    """
    data, k = x.data, kernel.size
    if kernel.in_channels != data.shape[0]:
        raise ShapeError(f"kernel expects {kernel.in_channels} input channels, got {data.shape[0]}")
    if k > 1:
        data = stack_taps(data, k, kernel.dilation, np.empty((data.shape[0] * k, data.shape[1])))
    out_data = kernel.weights.reshape(kernel.weights.shape[0], -1) @ data
    out_data += kernel.bias[:, None]
    return record(out_data, (x,), lambda out: _conv_backward(x, kernel, out.grad), requires=True)


def backward(loss: Tensor) -> None:
    """Backpropagate from a scalar loss through the ops reachable from it.

    Ops run newest first, so each has its whole gradient when it runs, and
    are marked spent as they go, which frees their activations. Reaching a
    spent op, from this loss or another sharing its graph, raises before any
    gradient changes.
    """
    if loss.data.shape != (1, 1):
        raise ShapeError(f"backward needs a scalar (1, 1) tensor, got {loss.data.shape}")
    ops = []
    seen = {id(loss)}
    stack = [loss]
    while stack:
        node = stack.pop()
        if node._backward is _SPENT:
            raise ShapeError("backward already ran through an op of this graph")
        if node._backward is not None:
            ops.append(node)
            for t in node._inputs:
                if id(t) not in seen:
                    seen.add(id(t))
                    stack.append(t)
    if not ops:
        raise ShapeError("loss has no recorded ops to backpropagate through")
    ops.sort(key=lambda op: op._order)
    loss.grad = np.ones((1, 1), dtype=np.float64)
    while ops:
        op = ops.pop()
        op._backward(op)
        op._backward = _SPENT
        op._inputs = ()


@dataclass
class AdamState:
    """First/second moment estimates keyed by parameter name."""

    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


# Adam's moment decays and denominator offset (Kingma & Ba, 2015).
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def adam_step(params: dict, grads: dict, state: AdamState | None, lr: float) -> AdamState:
    """One Adam update with bias correction; parameters updated in place."""
    if state is None:
        state = AdamState()
    state.step += 1
    t = state.step
    for name in params:
        p = params[name]
        g = grads[name]
        if g.shape != p.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.shape} for {name!r}")
        if not np.all(np.isfinite(g)):
            raise DivergenceError(f"non-finite gradient for parameter {name!r}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        m_hat = m / (1.0 - ADAM_BETA1**t)
        v_hat = v / (1.0 - ADAM_BETA2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return state


def he_uniform_init(rng: np.random.Generator, c_out: int, c_in: int, k: int) -> np.ndarray:
    """Fan-in scaled uniform init for conv weights."""
    limit = math.sqrt(6.0 / (c_in * k))
    return rng.uniform(-limit, limit, size=(c_out, c_in, k))
