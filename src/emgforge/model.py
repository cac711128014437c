"""Dilated causal convolution regressor mapping 6-axis IMU to one EMG channel.

Architecture: 1x1 input projection, a stack of dilated causal blocks with
gated activations and residual + skip paths, a skip sum feeding a causal
sliding-window convolution for context aggregation, and a linear 1x1 output
head (no final nonlinearity, so amplitude is unbounded). Dilation doubles
per block. A streaming forward pass with per-layer input histories reproduces
the batch output sample by sample.
"""

from __future__ import annotations

import dataclasses
import io
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CheckpointError, ConfigError, ShapeError, StreamStateError
from .tensor import (
    ConvKernel,
    Tensor,
    _sigmoid,
    as_tensor,
    add,
    conv1d_causal,
    gated_activation,
    he_uniform_init,
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
        if self.residual_channels < 1 or self.skip_channels < 1:
            raise ConfigError("channel widths must be >= 1")
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


def init_weights(config: ModelConfig, seed: int = 0) -> ModelWeights:
    """Fan-in scaled uniform init, biases zero, identity input normalizer."""
    rng = np.random.default_rng(seed)
    c_res = config.residual_channels
    c_skip = config.skip_channels

    def kernel(c_out, c_in, k, dilation=1):
        return ConvKernel(he_uniform_init(rng, c_out, c_in, k), np.zeros(c_out), dilation)

    gate_mult = 2 if config.activation == "gated" else 1
    blocks = []
    for d in config.dilations():
        blocks.append(
            BlockWeights(
                dilated=kernel(gate_mult * c_res, c_res, config.kernel_size, d),
                residual=kernel(c_res, c_res, 1),
                skip=kernel(c_skip, c_res, 1),
            )
        )
    return ModelWeights(
        config=config,
        input_offset=np.zeros(config.in_channels),
        input_scale=np.ones(config.in_channels),
        input_proj=kernel(c_res, config.in_channels, 1),
        blocks=blocks,
        context=kernel(c_skip, c_skip, config.context_window),
        output_proj=kernel(config.out_channels, c_skip, 1),
    )


def _activate(pre: Tensor, activation: str) -> Tensor:
    return gated_activation(pre) if activation == "gated" else relu(pre)


def forward_parts(weights: ModelWeights, x) -> tuple[Tensor, Tensor, Tensor]:
    """Forward pass returning (skip_sum, context, output) tensors."""
    cfg = weights.config
    x = as_tensor(x)
    if x.data.shape[0] != cfg.in_channels:
        raise ShapeError(
            f"model expects {cfg.in_channels} input channels, got {x.data.shape[0]}"
        )
    z = conv1d_causal(
        scale_channels(x, weights.input_offset, weights.input_scale), weights.input_proj
    )
    skip_sum = None
    last = weights.blocks[-1]
    for blk in weights.blocks:
        g = _activate(conv1d_causal(z, blk.dilated), cfg.activation)
        s = conv1d_causal(g, blk.skip)
        skip_sum = s if skip_sum is None else add(skip_sum, s)
        if blk is not last:  # the last block's residual output is never read
            z = add(z, conv1d_causal(g, blk.residual))
    context = conv1d_causal(skip_sum, weights.context)
    return skip_sum, context, conv1d_causal(context, weights.output_proj)


def forward(weights: ModelWeights, x) -> Tensor:
    """Full-sequence forward pass: [in_channels x T] -> [out_channels x T]."""
    return forward_parts(weights, x)[2]


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

    def reset(self) -> None:
        self.buf[:] = 0.0
        self.pos = 0


class StreamState:
    """Per-layer input histories for sample-by-sample inference."""

    def __init__(self, config: ModelConfig):
        self.config = config
        k = config.kernel_size
        self.block_histories = [
            _History(config.residual_channels, (k - 1) * d + 1) for d in config.dilations()
        ]
        self.context_history = _History(config.skip_channels, config.context_window)

    def reset(self) -> None:
        for hist in self.block_histories:
            hist.reset()
        self.context_history.reset()


def _conv_step(kernel: ConvKernel, history: _History | None, v: np.ndarray) -> np.ndarray:
    """One output column of conv1d_causal: the layer's taps, then one matvec.

    `history` holds the layer's past inputs; None for a 1x1 conv. Tap j of
    input channel i lands at i*k + j, the order of the flattened weights.
    """
    taps = v if history is None else history.push(v)[:, :: kernel.dilation].ravel()
    w = kernel.weights
    return w.reshape(w.shape[0], -1) @ taps + kernel.bias


def forward_streaming(weights: ModelWeights, state: StreamState, sample) -> float:
    """One causal step; returns the prediction for the current sample.

    Feeding a sequence one sample at a time reproduces forward() on the
    full history; the state is updated in place.
    """
    cfg = weights.config
    if state.config != cfg:
        raise StreamStateError(
            f"stream state built for {state.config}, model expects {cfg}"
        )
    v = np.asarray(sample, dtype=np.float64).ravel()
    if v.shape != (cfg.in_channels,):
        raise ShapeError(f"expected a {cfg.in_channels}-vector sample, got shape {v.shape}")

    z = _conv_step(weights.input_proj, None, (v - weights.input_offset) * weights.input_scale)
    skip_sum = None
    last = weights.blocks[-1]
    for blk, hist in zip(weights.blocks, state.block_histories):
        pre = _conv_step(blk.dilated, hist, z)
        if cfg.activation == "gated":
            half = pre.shape[0] // 2
            g = np.tanh(pre[:half]) * _sigmoid(pre[half:])
        else:
            g = np.maximum(pre, 0.0)
        s = _conv_step(blk.skip, None, g)
        skip_sum = s if skip_sum is None else skip_sum + s
        if blk is not last:
            z = z + _conv_step(blk.residual, None, g)

    context = _conv_step(weights.context, state.context_history, skip_sum)
    return float(_conv_step(weights.output_proj, None, context)[0])


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


def _parse_header(header: str) -> tuple[ModelConfig, list[tuple[str, tuple[int, ...]]]]:
    fields: dict = {}
    manifest: list[tuple[str, tuple[int, ...]]] = []
    version = None
    for line in header.strip().splitlines():
        if line.startswith("format_version="):
            version = int(line.split("=", 1)[1])
        elif line.startswith("config."):
            key, value = line[len("config.") :].split("=", 1)
            if key not in _CONFIG_FIELDS:
                raise CheckpointError(f"unrecognized header line: {line!r}")
            try:
                fields[key] = _CONFIG_FIELDS[key](value)
            except ValueError as exc:
                raise CheckpointError(f"bad value in header line: {line!r}") from exc
        elif line.startswith("param "):
            parts = line.split()
            manifest.append((parts[1], tuple(int(d) for d in parts[2:])))
        else:
            raise CheckpointError(f"unrecognized header line: {line!r}")
    if version != _FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint format version {version}")
    missing = [f for f in _CONFIG_FIELDS if f not in fields]
    if missing:
        raise CheckpointError(f"checkpoint header missing config fields: {missing}")
    return ModelConfig(**fields), manifest


def load_weights(path, expected_config: ModelConfig | None = None) -> ModelWeights:
    """Load a checkpoint.

    Raises CheckpointError on truncation, trailing bytes, a non-finite
    value, or a config or layout mismatch.
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
    config, manifest = _parse_header(header.decode("utf-8"))

    if expected_config is not None and config != expected_config:
        for fname in _CONFIG_FIELDS:
            have = getattr(config, fname)
            want = getattr(expected_config, fname)
            if have != want:
                raise CheckpointError(
                    f"checkpoint config mismatch on {fname!r}: file has {have}, expected {want}"
                )

    arrays = {}
    for name, shape in manifest:
        count = int(np.prod(shape)) if shape else 1
        raw = view.read(count * 8)
        if len(raw) < count * 8:
            raise CheckpointError(f"truncated checkpoint: blob for {name!r} incomplete")
        arrays[name] = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
        if not np.all(np.isfinite(arrays[name])):
            raise CheckpointError(f"checkpoint blob for {name!r} holds non-finite values")
    trailing = len(blob) - view.tell()
    if trailing:
        raise CheckpointError(f"checkpoint has {trailing} trailing bytes after the last blob")

    fresh = init_weights(config, seed=0)
    expected_names = [name for name, _ in _manifest_entries(fresh)]
    if expected_names != [name for name, _ in manifest]:
        raise CheckpointError("checkpoint manifest does not match the model layout")

    fresh.input_offset = arrays["input_offset"]
    fresh.input_scale = arrays["input_scale"]
    for name, kern in fresh.named_kernels():
        w = arrays[f"{name}.weights"]
        b = arrays[f"{name}.bias"]
        if w.shape != kern.weights.shape or b.shape != kern.bias.shape:
            raise CheckpointError(f"checkpoint shape mismatch for {name!r}")
        kern.weights = w
        kern.bias = b
    return fresh
