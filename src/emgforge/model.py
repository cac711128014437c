"""Dilated causal convolution regressor mapping 6-axis IMU to one EMG channel.

Architecture: 1x1 input projection, a stack of dilated causal blocks with
gated activations and residual + skip paths, a skip sum feeding a causal
sliding-window convolution for context aggregation, and a linear 1x1 output
head (no final nonlinearity, so amplitude is unbounded). Dilation doubles
per block. The skips, context conv and head are linear, so the batch pass
runs them as one folded op (tensor.readout) on the same lag fold of head
and context that the stream plan's tail is built from. A streaming
forward pass reproduces the batch output within rounding from each
dilated conv's input history and a plan folded from the weights: one tanh
per gate, one product for skips, context and head. It takes one sample
per step or a block of samples, run _BLOCK columns at a time, so its
memory does not grow with the length of the input.
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
    as_tensor,
    add,
    conv1d_causal,
    gated_activation,
    he_uniform_init,
    lag_fold,
    readout,
    relu,
    scale_channels,
)

ACTIVATIONS = ("gated", "relu")


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
        if min(self.residual_channels, self.skip_channels, self.in_channels, self.out_channels) < 1:
            raise ConfigError("channel counts must be >= 1")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")

    def dilations(self) -> list[int]:
        return [2**i for i in range(self.num_blocks)]


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

    def parameter_arrays(self) -> dict:
        out = {}
        for name, kern in self.named_kernels():
            out[f"{name}.weights"] = kern.weights
            out[f"{name}.bias"] = kern.bias
        return out

    def gradient_arrays(self) -> dict:
        out = {}
        for name, kern in self.named_kernels():
            gw = kern.grad_weights if kern.grad_weights is not None else np.zeros_like(kern.weights)
            gb = kern.grad_bias if kern.grad_bias is not None else np.zeros_like(kern.bias)
            out[f"{name}.weights"] = gw
            out[f"{name}.bias"] = gb
        return out

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
    gate_mult = 2 if config.activation == "gated" else 1
    yield "input_proj", (c, config.in_channels, 1), 1
    for i in range(config.num_blocks):  # lazily: a corrupt header may hold any count
        yield f"block{i}.dilated", (gate_mult * c, c, config.kernel_size), 2**i
        yield f"block{i}.residual", (c, c, 1), 1
        yield f"block{i}.skip", (c_skip, c, 1), 1
    yield "context", (c_skip, c_skip, config.context_window), 1
    yield "output_proj", (config.out_channels, c_skip, 1), 1


def _manifest_layout(config: ModelConfig):
    """(name, shape) of every checkpoint array, in file order."""
    yield from (("input_offset", (config.in_channels,)), ("input_scale", (config.in_channels,)))
    for name, shape, _ in _kernel_layout(config):
        yield f"{name}.weights", shape
        yield f"{name}.bias", shape[:1]


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


def _activate(pre: Tensor, activation: str) -> Tensor:
    return gated_activation(pre) if activation == "gated" else relu(pre)


def forward(weights: ModelWeights, x) -> Tensor:
    """Full-sequence forward pass: [in_channels x T] -> [out_channels x T]."""
    cfg = weights.config
    x = as_tensor(x)
    if x.data.shape[0] != cfg.in_channels:
        raise ShapeError(
            f"model expects {cfg.in_channels} input channels, got {x.data.shape[0]}"
        )
    z = conv1d_causal(
        scale_channels(x, weights.input_offset, weights.input_scale), weights.input_proj
    )
    gates = []
    last = weights.blocks[-1]
    for blk in weights.blocks:
        g = _activate(conv1d_causal(z, blk.dilated), cfg.activation)
        gates.append(g)
        if blk is not last:  # the last block's residual output is never read
            z = add(z, conv1d_causal(g, blk.residual))
    skips = [blk.skip for blk in weights.blocks]
    return readout(gates, skips, weights.context, weights.output_proj)


_BLOCK = 1024  # most columns the block path runs at once; sizes its buffers


class _History:
    """The last `span` input vectors of one conv layer, oldest first.

    A [channels x 2*span] line buffer: each vector is written twice, `span`
    columns apart, so the newest `span` vectors are always one contiguous
    view. Unwritten history reads as zero, matching the batch pass's left
    padding.
    """

    __slots__ = ("buf", "pos", "span")

    def __init__(self, channels: int, span: int):
        self.buf = np.zeros((channels, 2 * span))
        self.pos = 0
        self.span = span

    def push(self, v: np.ndarray) -> np.ndarray:
        """Append `v` and return the last `span` inputs, `v` in the last column."""
        pos, span = self.pos, self.span
        self.buf[:, pos] = v
        self.buf[:, pos + span] = v
        self.pos = pos = (pos + 1) % span
        return self.buf[:, pos : pos + span]

    def context(self) -> np.ndarray:
        """The last `span - 1` inputs: the left context of the next one."""
        return self.buf[:, self.pos + 1 : self.pos + self.span]

    def load(self, last: np.ndarray) -> None:
        """Make `last`, [channels x span] oldest first, the whole history.

        The second half needs no copy: pushes rewrite it before it is read.
        """
        self.buf[:, : self.span] = last
        self.pos = 0

    def reset(self) -> None:
        self.buf[:] = 0.0
        self.pos = 0


def _rows(buf: np.ndarray, rows: int, n: int) -> np.ndarray:
    """A contiguous [rows x n] view of the front of the flat buffer `buf`."""
    return buf[: rows * n].reshape(rows, n)


class StreamState:
    """Causal inference in steps or blocks: per-block input histories and a plan.

    The plan folds the weights into preallocated matrices. Each dilated,
    residual and tail matrix carries its bias as a last column, read against
    a constant 1. A gated kernel's gate half is halved, so one tanh gives
    g' = tanh(a) * (1 + tanh(b/2)) = 2g; the residual and tail weights take
    the other 1/2. The skip 1x1s, the context conv and the head are linear:
    row m of the [w x N*(C+1)] tail is what a step's gates add to the
    prediction m steps ahead, summed into a buffer of future predictions.

    A step reads its taps from the histories. A block of up to _BLOCK
    samples runs the same plan on [channels x n] arrays, with each layer's
    taps read from its history followed by the block, and leaves the
    histories and future predictions as the same samples fed one by one
    would. So steps, blocks and reset() interleave freely.

    The plan is built from the weights on the first call after construction
    or reset(), and again when a call is given another ModelWeights object,
    so in-place edits to the weights take effect after reset().
    """

    def __init__(self, config: ModelConfig):
        self.config = config
        k, c, w = config.kernel_size, config.residual_channels, config.context_window
        n_blocks, n_in = config.num_blocks, config.in_channels
        self.block_histories = [_History(c, (k - 1) * d + 1) for d in config.dilations()]
        self.gated = config.activation == "gated"
        self.pre = np.empty(2 * c if self.gated else c)
        self.taps = np.ones(c * k + 1)  # a dilated conv's taps, then the constant 1
        self.views = (self.taps[:-1].reshape(c, k), self.pre[:c], self.pre[c:])
        self.gates = np.ones(n_blocks * (c + 1))  # block i: [g'_i, 1]
        self.future = np.zeros(2 * w)  # [pos, pos + w) holds predictions t .. t+w-1

        # The plan, filled in place by _build_plan.
        self.offset, self.scale = np.empty(n_in), np.empty(n_in)
        self.input_w, self.input_b = np.empty((c, n_in)), np.empty(c)
        self.dilated = np.empty((n_blocks, len(self.pre), c * k + 1))
        self.residual = np.empty((n_blocks - 1, c, c + 1))  # the last block's is never read
        self.skips = np.empty((config.skip_channels, n_blocks, c + 1))
        self.tail = np.empty((w, n_blocks * (c + 1)))
        self.blocks = []
        for i, hist in enumerate(self.block_histories):
            g1 = self.gates[i * (c + 1) : (i + 1) * (c + 1)]
            residual = self.residual[i] if i < n_blocks - 1 else None
            self.blocks.append((hist, 2**i, self.dilated[i], g1[:c], g1, residual))

        # Block-path buffers, flat so that any width up to _BLOCK views them
        # contiguously. `lead` columns ahead of the block hold the widest
        # layer's left context.
        self.lead = self.block_histories[-1].span - 1
        self.block_z = np.empty(c * (self.lead + _BLOCK))
        self.block_taps = np.empty((c * k + 1) * _BLOCK)
        self.block_pre = np.empty(len(self.pre) * _BLOCK)
        self.block_gates = np.empty(len(self.gates) * _BLOCK)
        self.block_sums = np.empty(w + _BLOCK)
        self.reset()

    def reset(self) -> None:
        for hist in self.block_histories:
            hist.reset()
        self.future[:] = 0.0
        self.pos = 0
        self.source = None  # the ModelWeights the plan was built from

    def _build_plan(self, weights: ModelWeights) -> None:
        if self.config != (cfg := weights.config):
            raise StreamStateError(f"stream state built for {self.config}, model expects {cfg}")
        c = self.config.residual_channels
        half = 0.5 if self.gated else 1.0  # g = half * g'
        self.offset[:], self.scale[:] = weights.input_offset, weights.input_scale
        self.input_w[:] = weights.input_proj.weights[:, :, 0]
        self.input_b[:] = weights.input_proj.bias
        for i, blk in enumerate(weights.blocks):
            dilated = self.dilated[i]
            dilated[:, :-1] = blk.dilated.weights.reshape(len(self.pre), -1)
            dilated[:, -1] = blk.dilated.bias
            dilated[c:] *= half
            if i < len(self.residual):
                np.multiply(blk.residual.weights[:, :, 0], half, out=self.residual[i, :, :c])
                self.residual[i, :, c] = blk.residual.bias
            np.multiply(blk.skip.weights[:, :, 0], half, out=self.skips[:, i, :c])
            self.skips[:, i, c] = blk.skip.bias
        fold = lag_fold(weights.context, weights.output_proj)[:, 0]  # output channel 0
        np.matmul(fold, self.skips.reshape(len(self.skips), -1), out=self.tail)
        head = weights.output_proj.weights[0, :, 0]
        self.const = float(head @ weights.context.bias + weights.output_proj.bias[0])
        self.source = weights


def _forward_block(state: StreamState, x: np.ndarray, out: np.ndarray) -> None:
    """Write the predictions for the n <= _BLOCK columns of `x` into `out`.

    Every block's [g'; 1] rows stack into one [N*(C+1) x n] array, so one
    tail product gives each column's contributions to its next w
    predictions, which w shifted adds fold into the outputs.
    """
    n = x.shape[1]
    c, k = state.config.residual_channels, state.config.kernel_size
    lead, w = state.lead, state.config.context_window
    padded = _rows(state.block_z, c, lead + n)
    z = padded[:, lead:]
    np.matmul(state.input_w, (x - state.offset[:, None]) * state.scale[:, None], out=z)
    z += state.input_b[:, None]

    stacked = _rows(state.block_taps, c * k + 1, n)  # tap j of channel i in row i*k + j
    stacked[-1] = 1.0
    taps = stacked[:-1].reshape(c, k, n)
    pre = _rows(state.block_pre, len(state.pre), n)
    gates = _rows(state.block_gates, len(state.gates), n)
    gates[c :: c + 1] = 1.0
    for i, (hist, dilation, dilated, _, _, residual) in enumerate(state.blocks):
        seen = padded[:, lead - hist.span + 1 :]  # the layer's context, then the block
        seen[:, : hist.span - 1] = hist.context()
        for j in range(k):
            taps[:, j] = seen[:, j * dilation : j * dilation + n]
        np.matmul(dilated, stacked, out=pre)
        g1 = gates[i * (c + 1) : (i + 1) * (c + 1)]
        if state.gated:
            np.tanh(pre, out=pre)
            pre[c:] += 1.0
            np.multiply(pre[:c], pre[c:], out=g1[:c])
        else:
            np.maximum(pre, 0.0, out=g1[:c])
        hist.load(seen[:, -hist.span :])
        if residual is not None:
            z += residual @ g1

    # sums[t] gathers prediction t of the block; [n, n + w) becomes the future.
    sums = state.block_sums[: n + w]
    sums[:w] = state.future[state.pos : state.pos + w]
    sums[w:] = 0.0
    contributions = state.tail @ gates
    for m in range(w - 1, -1, -1):  # oldest contribution first, as the step adds them
        sums[m : m + n] += contributions[m]
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

    z = state.input_w @ ((v - state.offset) * state.scale) + state.input_b
    pre, taps = state.pre, state.taps
    tap_view, pre_a, pre_b = state.views
    for hist, dilation, dilated, g, g1, residual in state.blocks:
        tap_view[:] = hist.push(z)[:, ::dilation]
        np.matmul(dilated, taps, out=pre)
        if state.gated:
            np.tanh(pre, out=pre)
            pre_b += 1.0
            np.multiply(pre_a, pre_b, out=g)
        else:
            np.maximum(pre, 0.0, out=g)
        if residual is not None:
            z += residual @ g1

    future, pos, w = state.future, state.pos, state.config.context_window
    window = future[pos : pos + w]
    window += state.tail @ state.gates
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
    for name, kern in weights.named_kernels():
        yield f"{name}.weights", kern.weights
        yield f"{name}.bias", kern.bias


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
    kernels = {n: ConvKernel(arrays[f"{n}.weights"], arrays[f"{n}.bias"], d) for n, _, d in layout}
    return _assemble(config, arrays["input_offset"], arrays["input_scale"], kernels)
