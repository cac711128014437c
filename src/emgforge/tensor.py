"""Rank-2 tensor engine with reverse-mode automatic differentiation.

Shapes are [channels x time]; scalars are (1, 1). The op set is exactly
what a dilated-causal-convolution regressor needs: causal conv, gated and
relu activations, elementwise arithmetic, full reductions, and an Adam
step. Everything is float64 numpy with a fixed reduction order, so a given
input always produces bit-identical results.

An op run while gradients are enabled records its inputs, its backward
function and a creation number on its output. backward(loss) runs the ops
reachable from the loss newest first, accumulating gradients into every
tensor and kernel that requires them, and frees each op once it has run, so
a graph is backpropagated once. Recording is a per-context setting:
no_grad() in one thread never stops recording in another.
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


def _accumulate(tensor: Tensor, grad: np.ndarray) -> None:
    if tensor.grad is None:
        tensor.grad = np.zeros_like(tensor.data)
    tensor.grad += grad


def _result(data, inputs: tuple[Tensor, ...], backward, requires: bool = False) -> Tensor:
    """The op's output, recorded with `backward(out)` when it needs a gradient."""
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


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")

    def backward(out):
        if a.requires_grad:
            _accumulate(a, out.grad)
        if b.requires_grad:
            _accumulate(b, out.grad)

    return _result(a.data + b.data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")

    def backward(out):
        if a.requires_grad:
            _accumulate(a, out.grad)
        if b.requires_grad:
            _accumulate(b, -out.grad)

    return _result(a.data - b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "mul")

    def backward(out):
        if a.requires_grad:
            _accumulate(a, out.grad * b.data)
        if b.requires_grad:
            _accumulate(b, out.grad * a.data)

    return _result(a.data * b.data, (a, b), backward)


def sum_all(x: Tensor) -> Tensor:
    def backward(out):
        if x.requires_grad:
            _accumulate(x, np.full_like(x.data, float(out.grad[0, 0])))

    return _result(np.sum(x.data).reshape(1, 1), (x,), backward)


def mean_all(x: Tensor) -> Tensor:
    inv = 1.0 / x.data.size

    def backward(out):
        if x.requires_grad:
            _accumulate(x, np.full_like(x.data, float(out.grad[0, 0]) * inv))

    return _result(np.mean(x.data).reshape(1, 1), (x,), backward)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0.0

    def backward(out):
        if x.requires_grad:
            _accumulate(x, out.grad * mask)

    return _result(np.where(mask, x.data, 0.0), (x,), backward)


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
    """tanh(top half) * sigmoid(bottom half) along the channel axis."""
    channels = x.data.shape[0]
    if channels % 2 != 0:
        raise ShapeError(f"gated activation needs an even channel count, got {channels}")
    half = channels // 2
    th = np.tanh(x.data[:half])
    sg = _sigmoid(x.data[half:])

    def backward(out):
        if x.requires_grad:
            g = out.grad
            grad = np.empty_like(x.data)
            grad[:half] = g * sg * (1.0 - th * th)
            grad[half:] = g * th * sg * (1.0 - sg)
            _accumulate(x, grad)

    return _result(th * sg, (x,), backward)


def scale_channels(x: Tensor, offset: np.ndarray, scale: np.ndarray) -> Tensor:
    """Per-channel affine (x - offset) * scale with constant parameters."""
    offset = np.asarray(offset, dtype=np.float64).reshape(-1, 1)
    scale = np.asarray(scale, dtype=np.float64).reshape(-1, 1)
    if offset.shape[0] != x.data.shape[0] or scale.shape[0] != x.data.shape[0]:
        raise ShapeError("offset/scale length must match the channel count")

    def backward(out):
        if x.requires_grad:
            _accumulate(x, out.grad * scale)

    return _result((x.data - offset) * scale, (x,), backward)


def conv1d_causal(x: Tensor, kernel: ConvKernel) -> Tensor:
    """Causal dilated 1-D convolution, left-padded so output length == T.

    y[c, t] = bias[c] + sum_{i,j} w[c, i, j] * x[i, t - (k-1-j)*d]
    (x indexed with zeros before t=0); tap j = k-1 reads the current sample.
    """
    if kernel.in_channels != x.data.shape[0]:
        raise ShapeError(
            f"kernel expects {kernel.in_channels} input channels, got {x.data.shape[0]}"
        )
    k = kernel.size
    d = kernel.dilation
    t_len = x.data.shape[1]
    pad = (k - 1) * d
    if pad:
        xp = np.zeros((x.data.shape[0], t_len + pad), dtype=np.float64)
        xp[:, pad:] = x.data
    else:
        xp = x.data

    out_data = kernel.bias[:, None] + kernel.weights[:, :, 0] @ xp[:, :t_len]
    for j in range(1, k):
        out_data += kernel.weights[:, :, j] @ xp[:, j * d : j * d + t_len]

    def backward(out):
        g = out.grad
        if kernel.grad_weights is None:
            kernel.grad_weights = np.zeros_like(kernel.weights)
            kernel.grad_bias = np.zeros_like(kernel.bias)
        for j in range(k):
            kernel.grad_weights[:, :, j] += g @ xp[:, j * d : j * d + t_len].T
        kernel.grad_bias += g.sum(axis=1)
        if x.requires_grad and not pad:
            _accumulate(x, kernel.weights[:, :, 0].T @ g)
        elif x.requires_grad:
            gxp = np.zeros_like(xp)
            for j in range(k):
                gxp[:, j * d : j * d + t_len] += kernel.weights[:, :, j].T @ g
            _accumulate(x, gxp[:, pad:])

    return _result(out_data, (x,), backward, requires=True)


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


def adam_step(
    params: dict,
    grads: dict,
    state: AdamState | None,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> AdamState:
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
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return state


def he_uniform_init(rng: np.random.Generator, c_out: int, c_in: int, k: int) -> np.ndarray:
    """Fan-in scaled uniform init for conv weights."""
    limit = math.sqrt(6.0 / (c_in * k))
    return rng.uniform(-limit, limit, size=(c_out, c_in, k))
