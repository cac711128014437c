"""Rank-2 tensor engine with reverse-mode automatic differentiation.

Shapes are [channels x time]; scalars are (1, 1). The op set is exactly
what a dilated-causal-convolution regressor needs: causal conv, gated and
relu activations, elementwise arithmetic, full reductions, and an Adam
step. Everything is float64 numpy with a fixed reduction order, so a given
input always produces bit-identical results.

Ops executed while gradients are enabled are recorded on a Tape; backward()
replays the records in exact reverse execution order, accumulating
gradients additively into every tensor and kernel that requires them, and
drops each record once it has run. Whether ops record is a per-context
setting, so no_grad() in one thread never stops recording in another.
"""

from __future__ import annotations

import contextvars
import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, ShapeError

# Toggle to validate that every forward op produces finite values.
debug_nan_checks = False

_grad_enabled = contextvars.ContextVar("emgforge_grad_enabled", default=True)


@contextmanager
def no_grad():
    """Disable tape recording inside the block (inference / validation).

    The setting belongs to the current thread's context; work handed to
    other threads sees it only if it runs in a copy of this context.
    """
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


class Tape:
    """Ordered record of executed ops; backward walks it back to front.

    Two tapes can meet when independent op chains started from the same
    leaves are combined; they are then merged union-find style, appending
    one record list to the other. The chains have no cross-dependencies
    before the merge point, so concatenation keeps every record after its
    producers and reverse traversal stays a valid backpropagation order.
    """

    __slots__ = ("_records", "_parent")

    def __init__(self):
        self._records = []
        self._parent = None

    def _root(self) -> "Tape":
        tape = self
        while tape._parent is not None:
            tape = tape._parent
        if tape is not self:
            self._parent = tape
        return tape

    def record(self, fn) -> None:
        self._root()._records.append(fn)

    def merge(self, other: "Tape") -> "Tape":
        a = self._root()
        b = other._root()
        if a is not b:
            a._records.extend(b._records)
            b._records = []
            b._parent = a
        return a

    def __len__(self) -> int:
        return len(self._root()._records)

    def run_backward(self) -> None:
        """Run the records newest first, dropping each as it runs.

        A record's closure holds its output Tensor, whose `.tape` holds the
        record: popping it breaks that cycle, so each op's activations are
        freed as soon as its backward step is done. The tape is empty after.
        """
        records = self._root()._records
        while records:
            records.pop()()


class Tensor:
    """[channels x time] float64 array with an optional gradient."""

    __slots__ = ("data", "grad", "requires_grad", "tape", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, tape: Tape | None = None):
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
        self.tape = tape

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
    requires_grad: bool = True
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
    def out_channels(self) -> int:
        return self.weights.shape[0]

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
        return ConvKernel(self.weights.copy(), self.bias.copy(), self.dilation, self.requires_grad)

    def shared(self) -> "ConvKernel":
        """A kernel on the same weight and bias arrays with its own gradients."""
        return ConvKernel(self.weights, self.bias, self.dilation, self.requires_grad)


def _accumulate(tensor: Tensor, grad: np.ndarray) -> None:
    if tensor.grad is None:
        tensor.grad = np.zeros_like(tensor.data)
    tensor.grad += grad


def _join_tapes(*tensors: Tensor) -> Tape | None:
    tape = None
    for t in tensors:
        if t.tape is not None:
            tape = t.tape if tape is None else tape.merge(t.tape)
    return tape


def _result(data, inputs: tuple[Tensor, ...], requires: bool, make_backward) -> Tensor:
    if debug_nan_checks and not np.all(np.isfinite(data)):
        raise DivergenceError("non-finite values produced by a forward op")
    if not _grad_enabled.get():
        return Tensor(data)
    requires = requires or any(t.requires_grad for t in inputs)
    tape = _join_tapes(*inputs)
    if requires and tape is None:
        tape = Tape()
    out = Tensor(data, requires_grad=requires, tape=tape)
    if requires:
        tape.record(make_backward(out))
    return out


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: shape mismatch {a.data.shape} vs {b.data.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")

    def make_backward(out):
        def backward():
            if out.grad is None:
                return
            if a.requires_grad:
                _accumulate(a, out.grad)
            if b.requires_grad:
                _accumulate(b, out.grad)

        return backward

    return _result(a.data + b.data, (a, b), False, make_backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")

    def make_backward(out):
        def backward():
            if out.grad is None:
                return
            if a.requires_grad:
                _accumulate(a, out.grad)
            if b.requires_grad:
                _accumulate(b, -out.grad)

        return backward

    return _result(a.data - b.data, (a, b), False, make_backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "mul")

    def make_backward(out):
        def backward():
            if out.grad is None:
                return
            if a.requires_grad:
                _accumulate(a, out.grad * b.data)
            if b.requires_grad:
                _accumulate(b, out.grad * a.data)

        return backward

    return _result(a.data * b.data, (a, b), False, make_backward)


def sum_all(x: Tensor) -> Tensor:
    def make_backward(out):
        def backward():
            if out.grad is None:
                return
            if x.requires_grad:
                _accumulate(x, np.full_like(x.data, float(out.grad[0, 0])))

        return backward

    return _result(np.sum(x.data).reshape(1, 1), (x,), False, make_backward)


def mean_all(x: Tensor) -> Tensor:
    inv = 1.0 / x.data.size

    def make_backward(out):
        def backward():
            if out.grad is None:
                return
            if x.requires_grad:
                _accumulate(x, np.full_like(x.data, float(out.grad[0, 0]) * inv))

        return backward

    return _result(np.mean(x.data).reshape(1, 1), (x,), False, make_backward)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0.0

    def make_backward(out):
        def backward():
            if out.grad is None:
                return
            if x.requires_grad:
                _accumulate(x, out.grad * mask)

        return backward

    return _result(np.where(mask, x.data, 0.0), (x,), False, make_backward)


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

    def make_backward(out):
        def backward():
            if out.grad is None:
                return
            if x.requires_grad:
                g = out.grad
                grad = np.empty_like(x.data)
                grad[:half] = g * sg * (1.0 - th * th)
                grad[half:] = g * th * sg * (1.0 - sg)
                _accumulate(x, grad)

        return backward

    return _result(th * sg, (x,), False, make_backward)


def scale_channels(x: Tensor, offset: np.ndarray, scale: np.ndarray) -> Tensor:
    """Per-channel affine (x - offset) * scale with constant parameters."""
    offset = np.asarray(offset, dtype=np.float64).reshape(-1, 1)
    scale = np.asarray(scale, dtype=np.float64).reshape(-1, 1)
    if offset.shape[0] != x.data.shape[0] or scale.shape[0] != x.data.shape[0]:
        raise ShapeError("offset/scale length must match the channel count")

    def make_backward(out):
        def backward():
            if out.grad is None:
                return
            if x.requires_grad:
                _accumulate(x, out.grad * scale)

        return backward

    return _result((x.data - offset) * scale, (x,), False, make_backward)


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

    def make_backward(out):
        def backward():
            if out.grad is None:
                return
            g = out.grad
            if kernel.requires_grad:
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

        return backward

    return _result(out_data, (x,), kernel.requires_grad, make_backward)


def backward(loss: Tensor) -> None:
    """Backpropagate from a scalar loss through its tape."""
    if loss.data.shape != (1, 1):
        raise ShapeError(f"backward needs a scalar (1, 1) tensor, got {loss.data.shape}")
    if loss.tape is None or len(loss.tape) == 0:
        raise ShapeError(
            "loss has no recorded ops to backpropagate through "
            "(backward runs once per recorded graph)"
        )
    loss.grad = np.ones((1, 1), dtype=np.float64)
    loss.tape.run_backward()


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
