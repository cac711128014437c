"""The network as a chain of separate autodiff ops: the reference that
model.forward's one recorded op must equal within rounding. It is built from
the engine's conv1d_causal and gated_activation and the ops below, which
only the tests use."""

import numpy as np

from emgforge.errors import ShapeError
from emgforge.tensor import Tensor, accumulate, conv1d_causal, gated_activation, record


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b; both inputs are handed the output's gradient array unowned."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add: shape mismatch {a.data.shape} vs {b.data.shape}")

    def backward(out):
        if a.requires_grad:
            accumulate(a, out.grad)
        if b.requires_grad:
            accumulate(b, out.grad)

    return record(a.data + b.data, (a, b), backward)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0.0

    def backward(out):
        if x.requires_grad:
            accumulate(x, out.grad * mask, owned=True)

    return record(np.where(mask, x.data, 0.0), (x,), backward)


def normalize(x: Tensor, offset: np.ndarray, scale: np.ndarray) -> Tensor:
    """Per-channel affine (x - offset) * scale with constant parameters."""
    offset, scale = offset.reshape(-1, 1), scale.reshape(-1, 1)

    def backward(out):
        if x.requires_grad:
            accumulate(x, out.grad * scale, owned=True)

    return record((x.data - offset) * scale, (x,), backward)


def unfused_readout(gates, skips, context, head):
    """The skip 1x1s, their sum, the context conv and the head as separate ops."""
    total = None
    for g, kern in zip(gates, skips):
        s = conv1d_causal(g, kern)
        total = s if total is None else add(total, s)
    return conv1d_causal(conv1d_causal(total, context), head)


def unfused_forward(weights, x: Tensor) -> Tensor:
    """model.forward(weights, x) as one op per layer: the normalizer, the
    input projection, per block the dilated conv, its gated unit and the
    residual conv and add, then the readout."""
    z = conv1d_causal(normalize(x, weights.input_offset, weights.input_scale), weights.input_proj)
    gates = []
    for blk in weights.blocks:
        gates.append(gated_activation(conv1d_causal(z, blk.dilated)))
        if blk is not weights.blocks[-1]:  # the last block's residual output is never read
            z = add(z, conv1d_causal(gates[-1], blk.residual))
    skips = [blk.skip for blk in weights.blocks]
    return unfused_readout(gates, skips, weights.context, weights.output_proj)
