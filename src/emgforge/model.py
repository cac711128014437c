"""Dilated causal convolution regressor mapping 6-axis IMU to one EMG channel.

Architecture: 1x1 input projection, a stack of dilated causal blocks with
gated activations and residual + skip paths, a skip sum feeding a causal
sliding-window convolution for context aggregation, and a linear 1x1 output
head (no final nonlinearity, so amplitude is unbounded). Dilation doubles
per block.

The network has one implementation, on a plan folded from the weights
(_Plan). Per block it stacks the input's taps, takes one product and the
activation, and adds the residual; the skips, context conv and head are
linear, so one tail product and w shifted adds give the output. There is
one output channel and one block nonlinearity, WaveNet's gated unit
tanh(a) * sigmoid(b), the only choices ModelConfig accepts. The batch pass
forward() runs the plan over a whole [in_channels x T] input as one
recorded autodiff op returning [1 x T], whose backward is derived by hand
on the plan. The block path runs the same code on chunks of a stream, with
the stream's recent inputs as left context, so eval and validation memory
does not grow with the input. A streaming step folds the plan further: it
gathers all history taps in one indexed read, then runs each block as one
product and its activation, and adds one product for skips, context and
head. Streaming, in steps or blocks, reproduces the batch output within
rounding.
"""

from __future__ import annotations

import dataclasses
import io
import itertools
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CheckpointError, ConfigError, ShapeError, StreamStateError
from .tensor import (
    ConvKernel,
    Tensor,
    accumulate,
    accumulate_kernel,
    as_tensor,
    grad_enabled,
    he_uniform_init,
    record,
    stack_taps,
)

@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters of the network; dilation of block i is 2**i."""

    kernel_size: int = 3
    num_blocks: int = 6
    residual_channels: int = 32
    skip_channels: int = 32
    context_window: int = 16
    in_channels: int = 6
    out_channels: int = 1
    activation: str = "gated"

    def __post_init__(self):
        if self.kernel_size < 2:
            raise ConfigError(f"kernel_size must be >= 2, got {self.kernel_size}")
        if self.num_blocks < 1:
            raise ConfigError(f"num_blocks must be >= 1, got {self.num_blocks}")
        if self.context_window < 1:
            raise ConfigError(f"context_window must be >= 1, got {self.context_window}")
        if min(self.residual_channels, self.skip_channels, self.in_channels) < 1:
            raise ConfigError("channel counts must be >= 1")
        if self.out_channels != 1:  # the network predicts one EMG envelope
            raise ConfigError(f"out_channels must be 1, got {self.out_channels}")
        if self.activation != "gated":  # WaveNet's tanh(a) * sigmoid(b) block unit
            raise ConfigError(f"activation must be 'gated', got {self.activation!r}")


class ReceptiveField(NamedTuple):
    blocks: int
    total: int


def receptive_field(config: ModelConfig) -> ReceptiveField:
    """Past samples influencing one output.

    `blocks` counts the dilated stack alone: 1 + (k-1)(2^N - 1).
    `total` adds the causal context window: blocks + (w - 1).
    """
    blocks = 1 + (config.kernel_size - 1) * (2**config.num_blocks - 1)
    return ReceptiveField(blocks=blocks, total=blocks + config.context_window - 1)


def check_crop_length(crop_length: int, config: ModelConfig) -> None:
    """Raise ConfigError if `crop_length` is below the receptive field."""
    rf = receptive_field(config).total
    if crop_length < rf:
        raise ConfigError(f"crop_length {crop_length} is below the model receptive field {rf}")


@dataclass
class BlockWeights:
    """One dilated block. The last block's residual output is never read, so
    its kernel takes no part in the forward pass; it keeps its place in the
    checkpoint layout."""

    dilated: ConvKernel
    residual: ConvKernel
    skip: ConvKernel


@dataclass
class ModelWeights:
    """All learnable arrays plus the fixed input normalizer.

    The normalizer (offset/scale per input channel) is set from training
    data and stored in the checkpoint so inference sees the same scaling.
    """

    config: ModelConfig
    input_offset: np.ndarray
    input_scale: np.ndarray
    input_proj: ConvKernel
    blocks: list[BlockWeights]
    context: ConvKernel
    output_proj: ConvKernel

    def named_kernels(self):
        yield "input_proj", self.input_proj
        for i, blk in enumerate(self.blocks):
            yield f"block{i}.dilated", blk.dilated
            yield f"block{i}.residual", blk.residual
            yield f"block{i}.skip", blk.skip
        yield "context", self.context
        yield "output_proj", self.output_proj

    def _named_arrays(self, arrays) -> dict:
        """{checkpoint array name: array} over every kernel's arrays(kernel)."""
        out = {}
        for name, kern in self.named_kernels():
            out.update(zip(_array_names(name), arrays(kern)))
        return out

    def parameter_arrays(self) -> dict:
        return self._named_arrays(lambda kern: (kern.weights, kern.bias))

    def gradient_arrays(self) -> dict:
        """The same keys as parameter_arrays(); zeros where no gradient ran."""
        return self._named_arrays(
            lambda kern: (
                kern.grad_weights if kern.grad_weights is not None else np.zeros_like(kern.weights),
                kern.grad_bias if kern.grad_bias is not None else np.zeros_like(kern.bias),
            )
        )

    def zero_grads(self) -> None:
        for _, kern in self.named_kernels():
            kern.zero_grad()

    def _rebuild(self, kernel, array) -> "ModelWeights":
        return ModelWeights(
            config=self.config,
            input_offset=array(self.input_offset),
            input_scale=array(self.input_scale),
            input_proj=kernel(self.input_proj),
            blocks=[
                BlockWeights(kernel(b.dilated), kernel(b.residual), kernel(b.skip))
                for b in self.blocks
            ],
            context=kernel(self.context),
            output_proj=kernel(self.output_proj),
        )

    def copy(self) -> "ModelWeights":
        return self._rebuild(ConvKernel.copy, np.copy)

    def gradient_view(self) -> "ModelWeights":
        """The same parameter arrays with gradient fields of its own.

        Several views can run forward and backward at once, one per thread;
        each accumulates only into its own gradients.
        """
        return self._rebuild(ConvKernel.shared, lambda arr: arr)


def _kernel_layout(config: ModelConfig):
    """(name, [C_out, C_in, k], dilation) of every kernel, in checkpoint order."""
    c, c_skip = config.residual_channels, config.skip_channels
    yield "input_proj", (c, config.in_channels, 1), 1
    for i in range(config.num_blocks):  # lazily: a corrupt header may hold any count
        yield f"block{i}.dilated", (2 * c, c, config.kernel_size), 2**i
        yield f"block{i}.residual", (c, c, 1), 1
        yield f"block{i}.skip", (c_skip, c, 1), 1
    yield "context", (c_skip, c_skip, config.context_window), 1
    yield "output_proj", (config.out_channels, c_skip, 1), 1


def _array_names(kernel_name: str) -> tuple[str, str]:
    """The checkpoint names of a kernel's weight and bias arrays."""
    return f"{kernel_name}.weights", f"{kernel_name}.bias"


def _manifest_layout(config: ModelConfig):
    """(name, shape) of every checkpoint array, in file order."""
    yield from (("input_offset", (config.in_channels,)), ("input_scale", (config.in_channels,)))
    for name, shape, _ in _kernel_layout(config):
        yield from zip(_array_names(name), (shape, shape[:1]))


def _assemble(config: ModelConfig, offset, scale, k: dict) -> ModelWeights:
    parts = ("dilated", "residual", "skip")
    blocks = [BlockWeights(*(k[f"block{i}.{p}"] for p in parts)) for i in range(config.num_blocks)]
    return ModelWeights(config, offset, scale, k["input_proj"], blocks, k["context"], k["output_proj"])


def init_weights(config: ModelConfig, seed: int = 0) -> ModelWeights:
    """Fan-in scaled uniform init, biases zero, identity input normalizer."""
    rng = np.random.default_rng(seed)
    layout = list(_kernel_layout(config))
    kernels = {}
    # Drawn blocks first, then input_proj, context and output_proj.
    for name, shape, dilation in layout[1:-2] + layout[:1] + layout[-2:]:
        kernels[name] = ConvKernel(he_uniform_init(rng, *shape), np.zeros(shape[0]), dilation)
    return _assemble(config, np.zeros(config.in_channels), np.ones(config.in_channels), kernels)


_BLOCK = 1024  # most columns the block path runs at once; sizes its buffers


def _rows(buf: np.ndarray, rows: int, n: int) -> np.ndarray:
    """A contiguous [rows x n] view of the front of the flat buffer `buf`."""
    return buf[: rows * n].reshape(rows, n)


class _Plan:
    """The weights folded into the matrices the block kernel runs on.

    Each dilated, residual and tail matrix carries its bias as a last
    column, read against a constant 1. A dilated matrix's gate rows are
    halved, so one tanh gives tanh(b/2) and g = tanh(a) * (1 + tanh(b/2)) / 2;
    the residual and tail weights take the 1/2. The skip 1x1s, the context
    conv and the head are linear: row m of the lag fold [w x S] maps the skip
    sum to the output m steps later, and row m of the [w x N*(C+1)] tail is
    what a column's gates add to it.

    The arrays are filled in place by _build_plan.
    """

    def __init__(self, config: ModelConfig):
        self.config = config
        k, c, w = config.kernel_size, config.residual_channels, config.context_window
        n_blocks, n_in = config.num_blocks, config.in_channels
        self.offset, self.scale = np.empty(n_in), np.empty(n_in)
        self.input_w, self.input_b = np.empty((c, n_in)), np.empty(c)
        self.dilated = np.empty((n_blocks, 2 * c, c * k + 1))
        self.residual = np.empty((n_blocks - 1, c, c + 1))  # the last block's is never read
        self.skips = np.empty((config.skip_channels, n_blocks, c + 1))
        self.fold = np.empty((w, config.skip_channels))
        self.tail = np.empty((w, n_blocks * (c + 1)))

    def _build_plan(self, weights: ModelWeights) -> None:
        if self.config != (cfg := weights.config):
            raise StreamStateError(f"stream state built for {self.config}, model expects {cfg}")
        kernels = ((n, k.weights.shape, k.dilation) for n, k in weights.named_kernels())
        for have, want in itertools.zip_longest(kernels, _kernel_layout(cfg)):
            if have != want:  # (name, shape, dilation) of a kernel, or None for a missing one
                raise ShapeError(f"kernel {have} does not fit the model's layout: {want} expected")
        c = self.config.residual_channels
        self.offset[:], self.scale[:] = weights.input_offset, weights.input_scale
        self.input_w[:] = weights.input_proj.weights[:, :, 0]
        self.input_b[:] = weights.input_proj.bias
        for i, blk in enumerate(weights.blocks):
            dilated = self.dilated[i]
            dilated[:, :-1] = blk.dilated.weights.reshape(2 * c, -1)
            dilated[:, -1] = blk.dilated.bias
            dilated[c:] *= 0.5
            if i < len(self.residual):
                np.multiply(blk.residual.weights[:, :, 0], 0.5, out=self.residual[i, :, :c])
                self.residual[i, :, c] = blk.residual.bias
            np.multiply(blk.skip.weights[:, :, 0], 0.5, out=self.skips[:, i, :c])
            self.skips[:, i, c] = blk.skip.bias
        # fold[m] = head . (context tap w-1-m), the skip sum at t - m to the output at t.
        head = weights.output_proj.weights[0, :, 0]
        np.einsum("s,sit->ti", head, weights.context.weights[:, :, ::-1], out=self.fold)
        np.matmul(self.fold, self.skips.reshape(len(self.skips), -1), out=self.tail)
        self.const = float(head @ weights.context.bias + weights.output_proj.bias[0])
        self.source = weights
        self.folded = False


def _project_input(plan: _Plan, x: np.ndarray, z: np.ndarray) -> None:
    """z = the input projection of the normalized x, written in place."""
    np.matmul(plan.input_w, (x - plan.offset[:, None]) * plan.scale[:, None], out=z)
    z += plan.input_b[:, None]


def _block_gates(plan: _Plan, i: int, z, stacked, pre, g1, context=None) -> None:
    """Block i on its input z ([C x n]): its taps stacked into `stacked`
    (zeros before z, or `context`), whose last row holds ones, one product
    with its dilated matrix into `pre`, and the gated unit into g1's first C
    rows. It leaves [tanh a; 1 + tanh(b/2)] in `pre`."""
    c, k = plan.config.residual_channels, plan.config.kernel_size
    stack_taps(z, k, 2**i, stacked[:-1], context)
    np.matmul(plan.dilated[i], stacked, out=pre)
    np.tanh(pre, out=pre)
    pre[c:] += 1.0
    np.multiply(pre[:c], pre[c:], out=g1[:c])


def _shifted_sum(contributions: np.ndarray, sums: np.ndarray) -> None:
    """sums[..., t] += contributions[..., m, t - m] over the lags m, oldest
    first, as the step adds them."""
    n = contributions.shape[-1]
    for m in range(contributions.shape[-2] - 1, -1, -1):
        sums[..., m : m + n] += contributions[..., m, :]


def forward(weights: ModelWeights, x) -> Tensor:
    """Full-sequence forward pass: [in_channels x T] -> [1 x T].

    One recorded op: the block path's code over all of x with zero left
    context, on a plan built from the weights at each call. When recorded
    it keeps each block's input z and activation for its backward
    (_forward_backward); under no_grad it keeps neither.
    """
    cfg = weights.config
    x = as_tensor(x)
    if x.data.shape[0] != cfg.in_channels:
        raise ShapeError(f"model expects {cfg.in_channels} input channels, got {x.data.shape[0]}")
    plan = _Plan(cfg)
    plan._build_plan(weights)
    c, n_blocks, t_len = cfg.residual_channels, cfg.num_blocks, x.data.shape[1]
    z = np.empty((c, t_len))
    _project_input(plan, x.data, z)
    stacked = np.empty((c * cfg.kernel_size + 1, t_len))
    stacked[-1] = 1.0
    gates = np.empty((n_blocks * (c + 1), t_len))
    gates[c :: c + 1] = 1.0
    keep = grad_enabled()  # only a recorded op keeps what its backward reads
    zs, pres = [], []
    for i in range(n_blocks):
        pre = np.empty((2 * c, t_len))
        g1 = gates[i * (c + 1) : (i + 1) * (c + 1)]
        _block_gates(plan, i, z, stacked, pre, g1)
        if keep:
            zs.append(z)
            pres.append(pre)
        if i < n_blocks - 1:
            z = z + plan.residual[i] @ g1
    sums = np.zeros(t_len + cfg.context_window)
    _shifted_sum(plan.tail @ gates, sums)
    y = sums[:t_len] + plan.const
    return record(
        y, (x,), lambda out: _forward_backward(plan, x, zs, pres, gates, out.grad), requires=True
    )


def _forward_backward(plan: _Plan, x: Tensor, zs, pres, gates, gy: np.ndarray) -> None:
    """forward's backward for the output gradient gy, derived by hand on the
    plan's layout: the tail's, then each block's newest first, then the
    input projection's. A halved plan row's gradient maps back to its
    weights by the same exact factor of 1/2."""
    weights, cfg = plan.source, plan.config
    c, k, w = cfg.residual_channels, cfg.kernel_size, cfg.context_window
    gy, t_len = gy[0], gy.shape[1]

    # Contribution m of column t reaches output t + m: lags[m, t] = gy[t + m].
    lags = np.zeros((w, t_len))
    for m in range(min(w, t_len)):
        lags[m, : t_len - m] = gy[m:]
    d_tails = lags @ gates.T
    # tail[m] = fold[m] @ skips.
    d_skips = (plan.fold.T @ d_tails).reshape(plan.skips.shape)
    d_taps = (d_tails @ plan.skips.reshape(len(plan.skips), -1).T)[::-1]
    head, context = weights.output_proj.weights[0, :, 0], weights.context
    gy_sum = gy.sum(keepdims=True)
    accumulate_kernel(context, np.einsum("s,ti->sit", head, d_taps), head * gy_sum)
    d_head = np.einsum("ti,sit->s", d_taps, context.weights) + gy_sum * context.bias
    accumulate_kernel(weights.output_proj, d_head[None, :, None], gy_sum)

    dz = np.zeros((c, t_len))  # block i's input gradient, built on block i+1's
    d_pre, grad_taps = np.empty((2 * c, t_len)), np.empty((k * c, t_len))
    for i in range(cfg.num_blocks - 1, -1, -1):
        blk, z, pre = weights.blocks[i], zs.pop(), pres.pop()  # freed after this block
        rows = slice(i * (c + 1), (i + 1) * (c + 1))
        g1 = gates[rows]
        accumulate_kernel(blk.skip, (d_skips[:, i, :c] * 0.5)[:, :, None], d_skips[:, i, c])
        dg = plan.tail[:, rows][:, :c].T @ lags
        if i < len(plan.residual):  # z_{i+1} = z_i + residual_i @ g1
            d_res = dz @ g1.T
            accumulate_kernel(blk.residual, (d_res[:, :c] * 0.5)[:, :, None], d_res[:, c])
            dg += plan.residual[i, :, :c].T @ dz
        # pre holds [tanh a; q], q = 1 + tanh(b/2), and g' = tanh a * q.
        th, q, top, bottom = pre[:c], pre[c:], d_pre[:c], d_pre[c:]
        np.square(th, out=top)  # dg' * q * (1 - tanh(a)^2)
        np.subtract(1.0, top, out=top)
        top *= q
        top *= dg
        np.subtract(2.0, q, out=bottom)  # dg' * tanh a * (1 - tanh(b/2)^2), = q (2 - q)
        bottom *= q
        bottom *= th
        bottom *= dg
        # The dilated conv: its weights' gradient tap by tap from z, and z's
        # from one tap-major product whose delayed taps are added back shifted.
        lag_of = [(j, (k - 1 - j) * 2**i) for j in range(k) if (k - 1 - j) * 2**i < t_len]
        grad_w = np.zeros((2 * c, c, k))
        for j, lag in lag_of:
            grad_w[:, :, j] = d_pre[:, lag:] @ z[:, : t_len - lag].T
        grad_b = d_pre.sum(axis=1)
        grad_w[c:] *= 0.5
        grad_b[c:] *= 0.5
        accumulate_kernel(blk.dilated, grad_w, grad_b)
        taps = plan.dilated[i, :, :-1].reshape(-1, c, k).transpose(2, 1, 0).reshape(k * c, -1)
        np.matmul(taps, d_pre, out=grad_taps)
        for j, lag in lag_of:
            dz[:, : t_len - lag] += grad_taps[j * c : (j + 1) * c, lag:]

    u = (x.data - plan.offset[:, None]) * plan.scale[:, None]
    accumulate_kernel(weights.input_proj, (dz @ u.T)[:, :, None], dz.sum(axis=1))
    if x.requires_grad:
        accumulate(x, (plan.input_w.T @ dz) * plan.scale[:, None], owned=True)


class StreamState(_Plan):
    """Causal inference in steps or blocks: one history store and a plan.

    The history store is a tape of [2L x N x C] rows, L = (k-1)2^(N-1) the
    widest dilated conv's reach. Rows [cursor - L, cursor) hold every
    block's input z at the last L times, oldest first; before the stream
    began they read zero, the batch pass's left padding. New rows go in at
    the cursor, and when the tape is full its last L rows are copied to the
    front, so its size is set by the receptive field, not the stream. The
    plan (_Plan) adds each sample's gates into a buffer of future predictions.

    A step runs on one flat vector: the input segment [v; 1; taps_0], then
    per block i the segment [z_i; a_i; 1; taps_{i+1}], where taps_i are
    block i's k-1 history taps. One indexed read first gathers every block's
    taps from the tape. Block i's input z_i and pre-activation are linear in
    the segment before, so the plan folds the residual 1x1 (or the input
    normalizer and projection), the dilated conv's current tap, its history
    taps and the biases into one transition matrix per block: a block is one
    product and its gated unit, in place. Block i stores a_i =
    [tanh a; tanh a * tanh(b/2)], whose residual and tail columns repeat, so
    it needs no "+1". One product of the step tail with the segments then
    adds the step's gates to the future predictions.

    A block of up to _BLOCK samples runs the plan on [channels x n] arrays
    with forward()'s per-block code: each layer's taps are read from its
    context on the tape followed by the block, and its last columns are
    written back. It leaves the tape and the future predictions as the same
    samples fed one by one would, so steps, blocks and reset() interleave
    freely.

    The plan is built from the weights on the first call after construction
    or reset(), and again when a call is given another ModelWeights object,
    so in-place edits to the weights take effect after reset(). The step's
    transitions and tail are folded from it on the first step after a build.
    """

    def __init__(self, config: ModelConfig):
        k, c, w = config.kernel_size, config.residual_channels, config.context_window
        n_blocks, n_in = config.num_blocks, config.in_channels
        p = 2 * c  # a block's pre-activation rows
        h = (k - 1) * c  # history taps of a block, tap j of channel i at i*(k-1) + j
        self.span = (k - 1) * 2 ** (n_blocks - 1)
        self.tape = np.zeros((2 * self.span, n_blocks, c))
        self.tape_flat = self.tape.reshape(-1)

        # The step's flat vector and its views; the 1 entries are never written.
        lead, width = n_in + 1 + h, c + p + 1 + h
        self.vec = vec = np.zeros(lead + n_blocks * width)
        vec[n_in] = 1.0
        vec[lead + c + p :: width] = 1.0
        self.taps = vec[n_in + 1 : n_in + 1 + n_blocks * width].reshape(n_blocks, width)[:, :h]
        self.z_view = vec[lead:].reshape(n_blocks, width)[:, :c]
        self.gates_view = vec[lead + c : lead + (n_blocks - 1) * width + c + p + 1]
        # Each tap's place in the tape's last L rows, flattened: tap j of
        # block i is that block's input (k-1-j)*2^i steps back.
        lag = np.outer(2 ** np.arange(n_blocks), np.arange(k - 1, 0, -1))  # [N x k-1]
        index = (self.span - lag)[:, None, :] * (n_blocks * c) + np.arange(c)[:, None]
        self.tap_index = (index + c * np.arange(n_blocks)[:, None, None]).reshape(n_blocks, h)

        # Allocated after the tape and step vector, or eval's fresh states fault more pages.
        super().__init__(config)
        # The step's transitions and tail, filled in place by _fold_steps.
        self.transitions = [np.zeros((c + p, lead)), *np.zeros((n_blocks - 1, c + p, width))]
        for trans in self.transitions[1:]:
            trans[:c, :c] = np.eye(c)  # z_i = z_{i-1} + residual, and no taps
        self.step_tail = np.zeros((w, len(self.gates_view)))
        self.steps = []
        for i, trans in enumerate(self.transitions):
            lo = lead + i * width
            act = vec[lo + c : lo + c + p]
            src = vec[lo - trans.shape[1] : lo]
            self.steps.append((trans, src, vec[lo : lo + c + p], act, act[:c], act[c:]))

        # Block-path buffers, flat so that any width up to _BLOCK views them
        # contiguously.
        self.block_z = np.empty(c * _BLOCK)
        self.block_taps = np.empty((c * k + 1) * _BLOCK)
        self.block_pre = np.empty(p * _BLOCK)
        self.block_gates = np.empty(n_blocks * (c + 1) * _BLOCK)
        self.block_sums = np.empty(w + _BLOCK)
        self.future = np.zeros(2 * w)  # [pos, pos + w) holds predictions t .. t+w-1
        self.reset()

    def reset(self) -> None:
        self.tape[:] = 0.0
        self.cursor = self.span
        self.future[:] = 0.0
        self.pos = 0
        self.source = None  # the ModelWeights the plan was built from
        self.folded = False  # whether the step's transitions are folded from it

    def _make_room(self, rows: int) -> None:
        """Copy the tape's last L rows to its front if `rows` more do not fit."""
        if self.cursor + rows > len(self.tape):
            self.tape[: self.span] = self.tape[self.cursor - self.span : self.cursor]
            self.cursor = self.span

    def _fold_steps(self) -> None:
        """Fold the plan into the step's transitions and tail, on the first
        step after a build; the block path does not read them."""
        c, k = self.config.residual_channels, self.config.kernel_size
        # The step's transitions. Their top rows give z_i from the segment
        # before, less its taps: the input normalizer and projection for
        # block 0, else z_{i-1} plus block i-1's residual 1x1. The other rows
        # give pre_i = dilated_i @ [taps_i; z_i; 1], z_i expanded by the top rows.
        first = self.transitions[0]
        np.multiply(self.input_w, self.scale, out=first[:c, : len(self.scale)])
        first[:c, len(self.scale)] = self.input_b - self.input_w @ (self.offset * self.scale)
        for i, trans in enumerate(self.transitions):
            src = trans.shape[1] - (k - 1) * c
            if i:  # tanh a and tanh a * tanh(b/2) take the same weights
                trans[:c, c : 3 * c] = np.tile(self.residual[i - 1, :, :c], 2)
                trans[:c, 3 * c] = self.residual[i - 1, :, c]
            kernel = self.dilated[i, :, :-1].reshape(2 * c, c, k)
            np.matmul(kernel[:, :, -1], trans[:c, :src], out=trans[c:, :src])
            trans[c:, src - 1] += self.dilated[i, :, -1]
            for j in range(k - 1):
                trans[c:, src + j :: k - 1] = kernel[:, :, j]
        width = self.transitions[-1].shape[1]
        for i in range(self.config.num_blocks):
            g1 = self.tail[:, i * (c + 1) : (i + 1) * (c + 1)]
            self.step_tail[:, i * width : i * width + 2 * c] = np.tile(g1[:, :c], 2)
            self.step_tail[:, i * width + 2 * c] = g1[:, c]
        self.folded = True


def _forward_block(state: StreamState, x: np.ndarray, out: np.ndarray) -> None:
    """Write the predictions for the n <= _BLOCK columns of `x` into `out`.

    Every block's [g'; 1] rows stack into one [N*(C+1) x n] array, so one
    tail product gives each column's contributions to its next w
    predictions, which w shifted adds fold into the outputs.
    """
    n = x.shape[1]
    c, k = state.config.residual_channels, state.config.kernel_size
    span, w = state.span, state.config.context_window
    z = _rows(state.block_z, c, n)
    _project_input(state, x, z)

    written = min(n, span)  # the tape keeps the last `span` inputs
    state._make_room(written)
    tape, cursor = state.tape, state.cursor
    stacked = _rows(state.block_taps, c * k + 1, n)  # the taps (stack_taps), then ones
    stacked[-1] = 1.0
    pre = _rows(state.block_pre, state.dilated.shape[1], n)
    gates = _rows(state.block_gates, state.tail.shape[1], n)
    gates[c :: c + 1] = 1.0
    for i in range(state.config.num_blocks):
        context = tape[cursor - (k - 1) * 2**i : cursor, i].T
        tape[cursor : cursor + written, i] = z[:, n - written :].T
        g1 = gates[i * (c + 1) : (i + 1) * (c + 1)]
        _block_gates(state, i, z, stacked, pre, g1, context)
        if i < len(state.residual):
            z += state.residual[i] @ g1
    state.cursor = cursor + written

    # sums[t] gathers prediction t of the block; [n, n + w) becomes the future.
    sums = state.block_sums[: n + w]
    sums[:w] = state.future[state.pos : state.pos + w]
    sums[w:] = 0.0
    _shifted_sum(state.tail @ gates, sums)
    np.add(sums[:n], state.const, out=out)
    state.future[:w] = sums[n:]
    state.future[w:] = 0.0
    state.pos = 0


def forward_streaming(weights: ModelWeights, state: StreamState, sample):
    """Causal inference on the state, which is updated in place.

    A sample vector takes one step and returns its prediction as a float.
    An [in_channels x n] block returns its n predictions, computed
    _BLOCK columns at a time. Either way, feeding a sequence in any split
    reproduces forward() on the full history within rounding.
    """
    if state.source is not weights:
        state._build_plan(weights)
    v = np.asarray(sample, dtype=np.float64)
    if v.ndim == 2:
        if v.shape[0] != state.offset.size:
            raise ShapeError(f"expected a {state.offset.size}-row block, got shape {v.shape}")
        out = np.empty(v.shape[1])
        for lo in range(0, v.shape[1], _BLOCK):
            _forward_block(state, v[:, lo : lo + _BLOCK], out[lo : lo + _BLOCK])
        return out
    v = v.ravel()
    if v.shape != state.offset.shape:
        raise ShapeError(f"expected a {state.offset.size}-vector sample, got shape {v.shape}")
    if not state.folded:
        state._fold_steps()
    return _forward_step(state, v)


def _forward_step(state: StreamState, v: np.ndarray) -> float:
    """One sample's prediction: gather the taps, one product and gated unit
    per block, one tail product into the future predictions."""
    state._make_room(1)
    cursor, row = state.cursor, state.z_view.size
    state.vec[: v.size] = v
    state.taps[...] = state.tape_flat[(cursor - state.span) * row : cursor * row][state.tap_index]
    for trans, src, out, act, tanh_a, tanh_b in state.steps:
        np.dot(trans, src, out=out)
        np.tanh(act, out=act)
        np.multiply(tanh_a, tanh_b, out=tanh_b)
    state.tape[cursor] = state.z_view
    state.cursor = cursor + 1

    future, pos, w = state.future, state.pos, state.config.context_window
    window = future[pos : pos + w]
    window += np.dot(state.step_tail, state.gates_view)
    y = float(window[0]) + state.const
    state.pos = pos = pos + 1
    if pos == w:  # slide the second half down
        future[:w] = future[w:]
        future[w:] = 0.0
        state.pos = 0
    return y


# ---------------------------------------------------------------------------
# Checkpoint format: magic + version, a UTF-8 header describing the config
# and a shape manifest, then the parameter blobs as little-endian float64
# in manifest order.
# ---------------------------------------------------------------------------

_MAGIC = b"EFWNET01"
_FORMAT_VERSION = 1

# Header field order and the type each value is parsed back to.
_CONFIG_FIELDS = {f.name: type(f.default) for f in dataclasses.fields(ModelConfig)}


def _manifest_entries(weights: ModelWeights):
    yield "input_offset", weights.input_offset
    yield "input_scale", weights.input_scale
    yield from weights.parameter_arrays().items()


def save_weights(weights: ModelWeights, path) -> None:
    lines = [f"format_version={_FORMAT_VERSION}"]
    for fname in _CONFIG_FIELDS:
        lines.append(f"config.{fname}={getattr(weights.config, fname)}")
    entries = list(_manifest_entries(weights))
    for name, arr in entries:
        dims = " ".join(str(d) for d in arr.shape)
        lines.append(f"param {name} {dims}")
    header = ("\n".join(lines) + "\n").encode("utf-8")

    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for _, arr in entries:
            fh.write(arr.astype("<f8").tobytes())


def _parse_header(header: bytes) -> tuple[ModelConfig, list[tuple[str, tuple[int, ...]]]]:
    try:
        lines = header.decode("utf-8").strip().splitlines()
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"checkpoint header is not valid UTF-8: {exc}") from exc
    fields: dict = {}
    manifest: list[tuple[str, tuple[int, ...]]] = []
    version, seen = None, set()
    for line in lines:
        try:
            if line.startswith("format_version="):
                key, version = "format_version", int(line.split("=", 1)[1])
            elif line.startswith("config."):
                key, value = line[len("config.") :].split("=", 1)
                if key not in _CONFIG_FIELDS:
                    raise CheckpointError(f"unrecognized header line: {line!r}")
                fields[key] = _CONFIG_FIELDS[key](value)
            elif line.startswith("param "):
                _, key, *dims = line.split()
                manifest.append((key, tuple(int(d) for d in dims)))
            else:
                raise CheckpointError(f"unrecognized header line: {line!r}")
        except ValueError as exc:
            raise CheckpointError(f"bad value in header line: {line!r}") from exc
        if key in seen:
            raise CheckpointError(f"duplicated header entry {key!r}")
        seen.add(key)
    if version != _FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint format version {version}")
    missing = [f for f in _CONFIG_FIELDS if f not in fields]
    if missing:
        raise CheckpointError(f"checkpoint header missing config fields: {missing}")
    try:
        return ModelConfig(**fields), manifest
    except ConfigError as exc:
        raise CheckpointError(f"checkpoint header holds an invalid config: {exc}") from exc


def load_weights(path, expected_config: ModelConfig | None = None) -> ModelWeights:
    """Load a checkpoint.

    Raises CheckpointError on truncation, trailing bytes, a non-finite
    value, a malformed or repeated header entry, or a config or layout
    mismatch.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    view = io.BytesIO(blob)
    magic = view.read(len(_MAGIC))
    if magic != _MAGIC:
        raise CheckpointError(f"not a model checkpoint (bad magic {magic!r})")
    raw_len = view.read(4)
    if len(raw_len) < 4:
        raise CheckpointError("truncated checkpoint: missing header length")
    (header_len,) = struct.unpack("<I", raw_len)
    header = view.read(header_len)
    if len(header) < header_len:
        raise CheckpointError("truncated checkpoint: incomplete header")
    config, manifest = _parse_header(header)

    if expected_config is not None and config != expected_config:
        for fname in _CONFIG_FIELDS:
            have, want = getattr(config, fname), getattr(expected_config, fname)
            if have != want:
                raise CheckpointError(
                    f"checkpoint config mismatch on {fname!r}: file has {have}, expected {want}"
                )

    # Checked entry by entry before any array is read, so no header can make
    # the load allocate more than the file holds.
    if any(a != b for a, b in itertools.zip_longest(manifest, _manifest_layout(config))):
        raise CheckpointError("checkpoint manifest does not match the model layout")

    arrays = {}
    for name, shape in manifest:
        count = int(np.prod(shape))
        raw = view.read(count * 8)
        if len(raw) < count * 8:
            raise CheckpointError(f"truncated checkpoint: blob for {name!r} incomplete")
        arrays[name] = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
        if not np.all(np.isfinite(arrays[name])):
            raise CheckpointError(f"checkpoint blob for {name!r} holds non-finite values")
    trailing = len(blob) - view.tell()
    if trailing:
        raise CheckpointError(f"checkpoint has {trailing} trailing bytes after the last blob")

    layout = _kernel_layout(config)
    kernels = {n: ConvKernel(*(arrays[a] for a in _array_names(n)), d) for n, _, d in layout}
    return _assemble(config, arrays["input_offset"], arrays["input_scale"], kernels)
