import itertools
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emgforge import model as M
from emgforge.errors import CheckpointError, ConfigError, ShapeError, StreamStateError
from emgforge.tensor import Tensor, backward, conv1d_causal, gated_activation, mul, no_grad, sum_all
from reference_chain import add, normalize

TINY = M.ModelConfig(
    kernel_size=2, num_blocks=2, residual_channels=3, skip_channels=3, context_window=2
)
# ModelConfig's one block nonlinearity, a parameter so that the ids keep their suffix.
ACTIVATIONS = ["gated"]


def rand_input(t_len, seed=0, channels=6):
    return np.random.default_rng(seed).standard_normal((channels, t_len))


class TestReceptiveField:
    def test_single_block_k2(self):
        cfg = M.ModelConfig(kernel_size=2, num_blocks=1, context_window=1)
        rf = M.receptive_field(cfg)
        assert rf.blocks == 2 and rf.total == 2

    def test_deep_stack_blocks_only(self):
        cfg = M.ModelConfig(kernel_size=3, num_blocks=6, context_window=1)
        assert M.receptive_field(cfg).blocks == 127

    def test_context_window_extends_total(self):
        cfg = M.ModelConfig(kernel_size=3, num_blocks=6, context_window=16)
        rf = M.receptive_field(cfg)
        assert rf.blocks == 127 and rf.total == 142

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            M.ModelConfig(kernel_size=1)
        with pytest.raises(ConfigError):
            M.ModelConfig(num_blocks=0)
        with pytest.raises(ConfigError):
            M.ModelConfig(activation="swish")
        with pytest.raises(ConfigError, match="activation must be 'gated'"):
            M.ModelConfig(activation="relu")
        with pytest.raises(ConfigError, match="out_channels must be 1"):
            M.ModelConfig(out_channels=2)


class TestForward:
    def test_zero_input_zero_output(self):
        w = M.init_weights(TINY, seed=1)  # biases init to zero
        y = M.forward(w, np.zeros((6, 40)))
        assert np.all(y.data == 0.0)
        assert y.data.shape == (1, 40)

    def test_wrong_channel_count(self):
        w = M.init_weights(TINY, seed=1)
        with pytest.raises(ShapeError):
            M.forward(w, np.zeros((5, 40)))

    def test_causality_exact(self):
        w = M.init_weights(TINY, seed=2)
        x = rand_input(64, seed=3)
        y_ref = M.forward(w, x).data
        x_mod = x.copy()
        x_mod[:, 40:] += 123.0
        y_mod = M.forward(w, x_mod).data
        assert np.array_equal(y_ref[:, :40], y_mod[:, :40])

    def test_perturbation_at_receptive_field_edge(self):
        """With small positive constant weights, a perturbation at distance
        R_total-1 before t reaches y[t]; at distance R_total it cannot."""
        cfg = M.ModelConfig(
            kernel_size=3, num_blocks=3, residual_channels=4, skip_channels=4, context_window=8
        )
        w = M.init_weights(cfg, seed=0)
        for _, kern in w.named_kernels():
            kern.weights[:] = 0.05
            kern.bias[:] = 0.0
        rf = M.receptive_field(cfg).total
        t_len = rf + 20
        x = np.ones((6, t_len)) * 0.1
        base = M.forward(w, x).data[0, -1]

        probe = x.copy()
        probe[:, t_len - rf] += 1.0  # distance R_total - 1 from the last output
        assert M.forward(w, probe).data[0, -1] != base

        probe = x.copy()
        probe[:, t_len - rf - 1] += 1.0  # distance R_total: out of reach
        assert M.forward(w, probe).data[0, -1] == base

    def test_input_gradient_support_matches_receptive_field(self):
        cfg = M.ModelConfig(
            kernel_size=2, num_blocks=4, residual_channels=4, skip_channels=4, context_window=4
        )
        w = M.init_weights(cfg, seed=4)
        rf = M.receptive_field(cfg).total
        t_len = rf + 7
        x = Tensor(rand_input(t_len, seed=5), requires_grad=True)
        out = M.forward(w, x)
        mask = np.zeros((1, t_len))
        mask[0, -1] = 1.0
        backward(sum_all(mul(out, Tensor(mask))))
        support = np.abs(x.grad).sum(axis=0)
        assert np.all(support[: t_len - rf] == 0.0)
        assert support[t_len - rf] != 0.0

    def test_skip_sum_reduces_to_single_block(self):
        """Zeroing every skip projection except block j leaves the output
        equal to the context conv and head applied to block j's skip output."""
        cfg = M.ModelConfig(
            kernel_size=2, num_blocks=3, residual_channels=3, skip_channels=3, context_window=4
        )
        x = rand_input(32, seed=6)
        for j in range(cfg.num_blocks):
            w = M.init_weights(cfg, seed=7)
            for i, blk in enumerate(w.blocks):
                if i != j:
                    blk.skip.weights[:] = 0.0
                    blk.skip.bias[:] = 0.0
            y = M.forward(w, Tensor(x)).data

            # replicate the residual trunk up to block j independently
            z = conv1d_causal(normalize(Tensor(x), w.input_offset, w.input_scale), w.input_proj)
            skip = None
            for i, blk in enumerate(w.blocks):
                g = gated_activation(conv1d_causal(z, blk.dilated))
                if i == j:
                    skip = conv1d_causal(g, blk.skip)
                z = add(z, conv1d_causal(g, blk.residual))
            expected = conv1d_causal(conv1d_causal(skip, w.context), w.output_proj).data
            assert np.max(np.abs(y - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_output_head_affine_in_output_weights(self):
        w = M.init_weights(TINY, seed=8)
        x = rand_input(40, seed=9)
        w_save = w.output_proj.weights.copy()
        b_save = w.output_proj.bias.copy()

        def run():
            return M.forward(w, x).data.copy()

        w.output_proj.weights[:] = 0.0
        w.output_proj.bias[:] = 0.0
        y0 = run()
        w.output_proj.weights[:] = w_save
        w.output_proj.bias[:] = b_save
        y1 = run()
        w.output_proj.weights[:] = 2.0 * w_save
        w.output_proj.bias[:] = b_save
        y2 = run()
        # doubling the kernel doubles the kernel-dependent part only
        assert np.allclose(y2 - y0, 2.0 * (y1 - y0), atol=1e-12)
        assert np.allclose(y2 - y1, y1 - y0, atol=1e-12)

    def test_forward_deterministic(self):
        w = M.init_weights(TINY, seed=12)
        x = rand_input(50, seed=13)
        recorded = M.forward(w, x).data
        assert np.array_equal(M.forward(w, x).data, recorded)
        with no_grad():  # keeps no arrays for a backward, computes the same bits
            assert np.array_equal(M.forward(w, x).data, recorded)

    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_last_residual_kernel_unused(self, activation):
        cfg = M.ModelConfig(
            kernel_size=2,
            num_blocks=3,
            residual_channels=4,
            skip_channels=4,
            context_window=3,
            activation=activation,
        )
        w = M.init_weights(cfg, seed=22)
        x = rand_input(40, seed=23)

        def outputs():
            state = M.StreamState(cfg)
            streamed = [M.forward_streaming(w, state, x[:, i]) for i in range(x.shape[1])]
            return M.forward(w, x).data.tobytes(), np.array(streamed).tobytes()

        before = outputs()
        last = w.blocks[-1].residual
        last.weights[:] = np.random.default_rng(24).standard_normal(last.weights.shape) * 1e3
        last.bias[:] = -7.0
        assert outputs() == before
        # An earlier block's residual path does feed the output.
        w.blocks[0].residual.bias[:] = 1.0
        assert outputs()[0] != before[0]


class TestStreaming:
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_matches_batch_forward(self, activation):
        cfg = M.ModelConfig(
            kernel_size=3,
            num_blocks=4,
            residual_channels=8,
            skip_channels=8,
            context_window=8,
            activation=activation,
        )
        w = M.init_weights(cfg, seed=14)
        x = rand_input(2000, seed=15)
        with no_grad():
            batch = M.forward(w, x).data[0]
        state = M.StreamState(cfg)
        streamed = np.array([M.forward_streaming(w, state, x[:, i]) for i in range(2000)])
        assert np.max(np.abs(streamed - batch)) <= 1e-9

    def test_reset_then_zero_sample_predicts_zero(self):
        w = M.init_weights(TINY, seed=16)
        state = M.StreamState(TINY)
        M.forward_streaming(w, state, np.ones(6))
        state.reset()
        assert M.forward_streaming(w, state, np.zeros(6)) == 0.0

    def test_interleaved_streams_are_independent(self):
        w = M.init_weights(TINY, seed=17)
        xa = rand_input(300, seed=18)
        xb = rand_input(300, seed=19)
        with no_grad():
            ya = M.forward(w, xa).data[0]
            yb = M.forward(w, xb).data[0]
        sa, sb = M.StreamState(TINY), M.StreamState(TINY)
        got_a, got_b = [], []
        for i in range(300):
            got_a.append(M.forward_streaming(w, sa, xa[:, i]))
            got_b.append(M.forward_streaming(w, sb, xb[:, i]))
        assert np.max(np.abs(np.array(got_a) - ya)) <= 1e-9
        assert np.max(np.abs(np.array(got_b) - yb)) <= 1e-9

    def test_state_config_mismatch_rejected(self):
        w = M.init_weights(TINY, seed=20)
        other = M.ModelConfig(
            kernel_size=3, num_blocks=2, residual_channels=3, skip_channels=3, context_window=2
        )
        with pytest.raises(StreamStateError):
            M.forward_streaming(w, M.StreamState(other), np.zeros(6))

    def test_bad_sample_shape_rejected(self):
        w = M.init_weights(TINY, seed=21)
        with pytest.raises(ShapeError):
            M.forward_streaming(w, M.StreamState(TINY), np.zeros(5))

    @pytest.mark.parametrize("shape", [(5, 3), (3, 6)])
    def test_bad_block_shape_rejected(self, shape):
        w = M.init_weights(TINY, seed=21)
        with pytest.raises(ShapeError):
            M.forward_streaming(w, M.StreamState(TINY), np.zeros(shape))

    def test_in_place_edit_takes_effect_after_reset(self):
        cfg = M.ModelConfig(
            kernel_size=2, num_blocks=3, residual_channels=4, skip_channels=3, context_window=4
        )
        w = M.init_weights(cfg, seed=40)
        x = rand_input(250, seed=41)
        state = M.StreamState(cfg)
        for i in range(50):
            M.forward_streaming(w, state, x[:, i])
        w.input_offset[:] = 0.3
        w.blocks[1].dilated.weights *= 1.7
        w.blocks[0].residual.bias[:] = -0.2
        w.blocks[2].skip.weights *= -1.0
        w.context.bias[:] = 0.4
        w.output_proj.bias[:] = 0.1
        state.reset()
        got = [M.forward_streaming(w, state, x[:, i]) for i in range(50, 250)]
        fresh = M.StreamState(cfg)
        want = [M.forward_streaming(w, fresh, x[:, i]) for i in range(50, 250)]
        assert np.array_equal(np.array(got), np.array(want))

    def test_other_weights_after_reset_match_a_fresh_state(self):
        w1 = M.init_weights(TINY, seed=42)
        w2 = M.init_weights(TINY, seed=43)
        x = rand_input(300, seed=44)
        state = M.StreamState(TINY)
        for i in range(100):
            M.forward_streaming(w1, state, x[:, i])
        state.reset()
        got = [M.forward_streaming(w2, state, x[:, i]) for i in range(300)]
        fresh = M.StreamState(TINY)
        want = [M.forward_streaming(w2, fresh, x[:, i]) for i in range(300)]
        assert np.array_equal(np.array(got), np.array(want))

    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_saturated_gates_match_batch(self, activation):
        cfg = M.ModelConfig(
            kernel_size=3,
            num_blocks=3,
            residual_channels=6,
            skip_channels=5,
            context_window=5,
            activation=activation,
        )
        w = M.init_weights(cfg, seed=45)
        rng = np.random.default_rng(46)
        for _, kern in w.named_kernels():
            kern.weights *= 3.0
            kern.bias[:] = rng.standard_normal(kern.bias.shape)
        x = 3.0 * rand_input(600, seed=47)
        with no_grad():
            pre = conv1d_causal(conv1d_causal(Tensor(x), w.input_proj), w.blocks[0].dilated).data
            batch = M.forward(w, x).data[0]
        assert np.mean(np.abs(pre) > 4.0) > 0.25  # tanh and sigmoid both saturate here
        state = M.StreamState(cfg)
        streamed = np.array([M.forward_streaming(w, state, x[:, i]) for i in range(600)])
        assert np.max(np.abs(streamed - batch)) <= 1e-9


@settings(max_examples=25, deadline=None)
@given(
    k=st.integers(2, 4),
    n_blocks=st.integers(1, 4),
    window=st.integers(1, 8),
    before_reset=st.integers(1, 40),
    seed=st.integers(0, 1000),
)
def test_streaming_matches_batch_random_configs(k, n_blocks, window, before_reset, seed):
    cfg = M.ModelConfig(
        kernel_size=k,
        num_blocks=n_blocks,
        residual_channels=4,
        skip_channels=3,
        context_window=window,
    )
    w = M.init_weights(cfg, seed=seed)
    rng = np.random.default_rng(seed + 1)
    w.input_offset[:] = rng.standard_normal(6)
    w.input_scale[:] = rng.uniform(0.5, 2.0, 6)
    for _, kern in w.named_kernels():
        kern.bias[:] = rng.standard_normal(kern.bias.shape) * 0.1
    first = rng.standard_normal((6, before_reset))
    second = rng.standard_normal((6, M.receptive_field(cfg).total + 20))
    state = M.StreamState(cfg)
    for x in (first, second):
        with no_grad():
            batch = M.forward(w, x).data[0]
        streamed = [M.forward_streaming(w, state, x[:, 0].tolist())]
        streamed += [M.forward_streaming(w, state, x[:, i]) for i in range(1, x.shape[1])]
        assert np.max(np.abs(np.array(streamed) - batch)) <= 1e-9
        state.reset()


# A stream split into runs of 1-D steps and blocks of random widths.
_PIECES = st.one_of(
    st.tuples(st.just("steps"), st.integers(1, 20)),
    st.tuples(st.just("block"), st.one_of(st.integers(1, 9), st.integers(1, 2 * M._BLOCK + 3))),
)


@settings(max_examples=30, deadline=None)
@given(
    k=st.integers(2, 4),
    n_blocks=st.integers(1, 4),
    window=st.integers(1, 8),
    pieces=st.lists(_PIECES, min_size=1, max_size=6),
    reset_at=st.integers(0, 6),
    seed=st.integers(0, 1000),
)
def test_block_streaming_matches_batch_over_random_partitions(
    k, n_blocks, window, pieces, reset_at, seed
):
    cfg = M.ModelConfig(
        kernel_size=k,
        num_blocks=n_blocks,
        residual_channels=4,
        skip_channels=3,
        context_window=window,
    )
    w = M.init_weights(cfg, seed=seed)
    rng = np.random.default_rng(seed + 1)
    w.input_offset[:] = rng.standard_normal(6)
    w.input_scale[:] = rng.uniform(0.5, 2.0, 6)
    for _, kern in w.named_kernels():
        kern.bias[:] = rng.standard_normal(kern.bias.shape) * 0.1
    state = M.StreamState(cfg)
    for part in (pieces[:reset_at], pieces[reset_at:]):
        x = rng.standard_normal((6, sum(size for _, size in part)))
        streamed = []
        for kind, size in part:
            lo = len(streamed)
            if kind == "block":
                y = M.forward_streaming(w, state, x[:, lo : lo + size])
                assert y.shape == (size,)
                streamed.extend(y)
            else:
                for i in range(lo, lo + size):
                    streamed.append(M.forward_streaming(w, state, x[:, i]))
                    assert isinstance(streamed[-1], float)
        if part:
            with no_grad():
                batch = M.forward(w, x).data[0]
            assert np.max(np.abs(np.array(streamed) - batch)) <= 1e-9
        state.reset()


def _random_weights(cfg, seed):
    """Weights with a random normalizer and biases, so no term vanishes."""
    w = M.init_weights(cfg, seed=seed)
    rng = np.random.default_rng(seed + 1)
    w.input_offset[:] = rng.standard_normal(6)
    w.input_scale[:] = rng.uniform(0.5, 2.0, 6)
    for _, kern in w.named_kernels():
        kern.bias[:] = rng.standard_normal(kern.bias.shape) * 0.1
    return w


@pytest.mark.parametrize(
    "k, n_blocks, activation",
    [
        (2, 1, "gated"),
        (3, 2, "gated"),
        (4, 3, "gated"),
        (2, 4, "gated"),
        (3, 4, "gated"),
        (4, 2, "gated"),
    ],
)
def test_history_store_wraps_through_steps_blocks_and_reset(k, n_blocks, activation):
    """Several history-store lengths of steps and blocks whose writes fall
    on either side of the store's copy-down, with a reset() in the middle."""
    cfg = M.ModelConfig(
        kernel_size=k,
        num_blocks=n_blocks,
        residual_channels=3,
        skip_channels=2,
        context_window=3,
        activation=activation,
    )
    w = _random_weights(cfg, seed=10 * k + n_blocks)
    state = M.StreamState(cfg)
    rows = len(state.tape)
    span = rows // 2  # the rows a step reads; the rest is room to write
    pattern = [
        ("steps", max(span - 1, 1)),
        ("block", 2),
        ("steps", 3),
        ("block", span + 1),
        ("block", 1),
        ("steps", span),
        ("block", max(span - 1, 1)),
        ("block", rows + 1),
        ("steps", 1),
    ]
    rng = np.random.default_rng(k + n_blocks)
    copy_downs = {"steps": 0, "block": 0}
    for length in (5 * rows + 7, 3 * rows + 2):
        x = rng.standard_normal((6, length))
        streamed = []
        for kind, size in itertools.cycle(pattern):
            lo = len(streamed)
            if lo == length:
                break
            size = min(size, length - lo)
            if kind == "block":
                pieces = [x[:, lo : lo + size]]
            else:
                pieces = [x[:, i] for i in range(lo, lo + size)]
            for piece in pieces:
                cursor = state.cursor  # writing r rows moves it by r, unless it copied down
                streamed.extend(np.atleast_1d(M.forward_streaming(w, state, piece)))
                written = piece.shape[1] if piece.ndim == 2 else 1
                copy_downs[kind] += state.cursor != cursor + min(written, span)
        with no_grad():
            batch = M.forward(w, x).data[0]
        assert np.max(np.abs(np.array(streamed) - batch)) <= 1e-9
        state.reset()
    assert copy_downs["steps"] and copy_downs["block"]


@pytest.mark.parametrize("block", [None, 37])
def test_stream_memory_does_not_grow_with_stream_length(block):
    """The history store is sized by the receptive field, not the stream."""
    cfg = M.ModelConfig(kernel_size=3, num_blocks=4, residual_channels=8, skip_channels=8)
    w = M.init_weights(cfg, seed=30)
    x = rand_input(20_000, seed=31)
    out = np.empty(x.shape[1])

    def traced_peak(steps):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            state = M.StreamState(cfg)
            for i in range(steps):
                if block and i % 500 == 0:  # a block now and then among the steps
                    M.forward_streaming(w, state, x[:, i : i + block])
                out[i] = M.forward_streaming(w, state, x[:, i])
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    assert traced_peak(20_000) <= 2 * traced_peak(2_000)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        w = M.init_weights(TINY, seed=22)
        w.input_offset[:] = np.arange(6) * 0.5
        w.input_scale[:] = 1.0 / (np.arange(6) + 1.0)
        path = tmp_path / "model.ckpt"
        M.save_weights(w, path)
        loaded = M.load_weights(path)
        x = rand_input(37, seed=23)
        assert np.array_equal(M.forward(w, x).data, M.forward(loaded, x).data)
        assert loaded.config == TINY

    def test_truncated_file_rejected(self, tmp_path):
        w = M.init_weights(TINY, seed=24)
        path = tmp_path / "model.ckpt"
        M.save_weights(w, path)
        blob = path.read_bytes()
        for cut in (4, 10, len(blob) // 2, len(blob) - 8):
            path.write_bytes(blob[:cut])
            with pytest.raises(CheckpointError):
                M.load_weights(path)

    def test_config_mismatch_names_field(self, tmp_path):
        w = M.init_weights(TINY, seed=25)
        path = tmp_path / "model.ckpt"
        M.save_weights(w, path)
        want = M.ModelConfig(
            kernel_size=3, num_blocks=2, residual_channels=3, skip_channels=3, context_window=2
        )
        with pytest.raises(CheckpointError, match="kernel_size"):
            M.load_weights(path, expected_config=want)

    def test_not_a_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"this is not a checkpoint at all")
        with pytest.raises(CheckpointError):
            M.load_weights(path)

    def test_unknown_format_version_rejected(self, tmp_path):
        w = M.init_weights(TINY, seed=26)
        path = tmp_path / "model.ckpt"
        M.save_weights(w, path)
        blob = path.read_bytes().replace(b"format_version=1", b"format_version=9", 1)
        path.write_bytes(blob)
        with pytest.raises(CheckpointError, match="version"):
            M.load_weights(path)


    def test_header_bytes_pinned(self, tmp_path):
        config = M.ModelConfig(
            kernel_size=2,
            num_blocks=2,
            residual_channels=5,
            skip_channels=4,
            context_window=3,
        )
        path = tmp_path / "model.ckpt"
        M.save_weights(M.init_weights(config, seed=0), path)
        header = (
            "format_version=1\n"
            "config.kernel_size=2\n"
            "config.num_blocks=2\n"
            "config.residual_channels=5\n"
            "config.skip_channels=4\n"
            "config.context_window=3\n"
            "config.in_channels=6\n"
            "config.out_channels=1\n"
            "config.activation=gated\n"
            "param input_offset 6\n"
            "param input_scale 6\n"
            "param input_proj.weights 5 6 1\n"
            "param input_proj.bias 5\n"
            "param block0.dilated.weights 10 5 2\n"
            "param block0.dilated.bias 10\n"
            "param block0.residual.weights 5 5 1\n"
            "param block0.residual.bias 5\n"
            "param block0.skip.weights 4 5 1\n"
            "param block0.skip.bias 4\n"
            "param block1.dilated.weights 10 5 2\n"
            "param block1.dilated.bias 10\n"
            "param block1.residual.weights 5 5 1\n"
            "param block1.residual.bias 5\n"
            "param block1.skip.weights 4 5 1\n"
            "param block1.skip.bias 4\n"
            "param context.weights 4 4 3\n"
            "param context.bias 4\n"
            "param output_proj.weights 1 4 1\n"
            "param output_proj.bias 1\n"
        ).encode()
        expected = b"EFWNET01" + struct.pack("<I", 775) + header
        assert path.read_bytes()[: len(expected)] == expected
        assert M.load_weights(path).config == config

    @pytest.mark.parametrize(
        "old, new, match",
        [
            (b"config.kernel_size=2", b"config.kernel_sise=2", "unrecognized header line"),
            (b"config.num_blocks=2", b"config.num_blocks=x", "bad value"),
        ],
    )
    def test_bad_config_header_line_rejected(self, tmp_path, old, new, match):
        path = tmp_path / "model.ckpt"
        M.save_weights(M.init_weights(TINY, seed=29), path)
        path.write_bytes(path.read_bytes().replace(old, new, 1))
        with pytest.raises(CheckpointError, match=match):
            M.load_weights(path)

    @pytest.mark.parametrize(
        "old, new, match",
        [
            (b"format_version=1", b"format_version=x", "bad value"),
            (b"param input_offset 6", b"param input_offset six", "bad value"),
            (b"config.activation=gated", b"config.activation=g\xffted", "not valid UTF-8"),
            (b"config.num_blocks=2\n", b"config.num_blocks=2\nconfig.num_blocks=3\n", "duplicated"),
            (b"param input_scale 6\n", b"param input_scale 6\nparam input_scale 6\n", "duplicated"),
            (b"format_version=1\n", b"format_version=1\nformat_version=1\n", "duplicated"),
            (b"config.kernel_size=2", b"config.kernel_size=1", "invalid config"),
            (b"config.in_channels=6", b"config.in_channels=0", "invalid config"),
            (b"config.out_channels=1", b"config.out_channels=2", "invalid config: out_channels"),
            (b"config.activation=gated", b"config.activation=relu", "invalid config: activation"),
            # A huge model is refused by the manifest check, before any allocation.
            (b"config.residual_channels=3", b"config.residual_channels=100000000", "layout"),
            (b"config.num_blocks=2", b"config.num_blocks=100000000", "layout"),
            (b"param input_offset 6", b"param input_offset -6", "layout"),
        ],
    )
    def test_malformed_header_rejected(self, tmp_path, old, new, match):
        path = tmp_path / "model.ckpt"
        M.save_weights(M.init_weights(TINY, seed=30), path)
        path.write_bytes(_edit_header(path.read_bytes(), lambda h: h.replace(old, new, 1)))
        with pytest.raises(CheckpointError, match=match):
            M.load_weights(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        w = M.init_weights(TINY, seed=27)
        path = tmp_path / "model.ckpt"
        M.save_weights(w, path)
        path.write_bytes(path.read_bytes() + b"\0" * 8)
        with pytest.raises(CheckpointError, match="8 trailing bytes"):
            M.load_weights(path)

    @pytest.mark.parametrize("name", ["input_offset", "input_scale", "output_proj.bias"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_value_rejected(self, tmp_path, name, bad):
        w = M.init_weights(TINY, seed=28)
        path = tmp_path / "model.ckpt"
        M.save_weights(w, path)
        blob = bytearray(path.read_bytes())
        (header_len,) = struct.unpack("<I", blob[8:12])
        offset = 12 + header_len
        for entry, arr in M._manifest_entries(w):
            if entry == name:
                break
            offset += arr.size * 8
        blob[offset : offset + 8] = struct.pack("<d", bad)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match=f"{name}.*non-finite"):
            M.load_weights(path)


@settings(max_examples=15, deadline=None)
@given(
    k=st.integers(2, 4),
    n_blocks=st.integers(1, 4),
    c_res=st.integers(1, 6),
    c_skip=st.integers(1, 6),
    window=st.integers(1, 8),
    seed=st.integers(0, 1000),
)
def test_causality_property_random_configs(k, n_blocks, c_res, c_skip, window, seed):
    cfg = M.ModelConfig(
        kernel_size=k,
        num_blocks=n_blocks,
        residual_channels=c_res,
        skip_channels=c_skip,
        context_window=window,
    )
    w = M.init_weights(cfg, seed=seed)
    rng = np.random.default_rng(seed + 1)
    t_len = 48
    cut = int(rng.integers(1, t_len))
    x = rng.standard_normal((6, t_len))
    x_mod = x.copy()
    x_mod[:, cut:] = rng.standard_normal((6, t_len - cut)) * 50.0
    with no_grad():
        y = M.forward(w, x).data
        y_mod = M.forward(w, x_mod).data
    assert np.array_equal(y[:, :cut], y_mod[:, :cut])


@settings(max_examples=15, deadline=None)
@given(
    k=st.integers(2, 4),
    n_blocks=st.integers(1, 4),
    seed=st.integers(0, 1000),
)
def test_recorded_forward_causality(k, n_blocks, seed):
    """With gradients recorded, an edit of the future leaves past outputs
    bit-exact, and past outputs send no gradient to the future."""
    cfg = M.ModelConfig(
        kernel_size=k,
        num_blocks=n_blocks,
        residual_channels=3,
        skip_channels=2,
        context_window=4,
    )
    w = _random_weights(cfg, seed)
    rng = np.random.default_rng(seed + 2)
    t_len = 48
    cut = int(rng.integers(1, t_len))
    x = rng.standard_normal((6, t_len))
    x_mod = x.copy()
    x_mod[:, cut:] = rng.standard_normal((6, t_len - cut)) * 50.0
    xt = Tensor(x, requires_grad=True)
    y = M.forward(w, xt)
    assert y.requires_grad
    assert np.array_equal(y.data[:, :cut], M.forward(w, Tensor(x_mod)).data[:, :cut])
    past = np.zeros((1, t_len))
    past[:, :cut] = rng.standard_normal((1, cut))
    backward(sum_all(mul(y, Tensor(past))))
    assert np.all(xt.grad[:, cut:] == 0.0)


def _edit_header(blob: bytes, edit) -> bytes:
    """Checkpoint `blob` with its header replaced by edit(header) and the length fixed up."""
    (n,) = struct.unpack("<I", blob[8:12])
    header = edit(blob[12 : 12 + n])
    return blob[:8] + struct.pack("<I", len(header)) + header + blob[12 + n :]


_HEADER_LINE = st.tuples(
    st.sampled_from(
        [
            "",
            "format_version=",
            "config.",
            "config.num_blocks=",
            "config.residual_channels=",
            "config.activation=",
            "param ",
            "param input_offset ",
            "param block0.dilated.weights ",
        ]
    ),
    st.text(alphabet="0123456789-+. =_xeé\n", max_size=12),
).map("".join)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("header_fuzz")
    M.save_weights(M.init_weights(TINY, seed=31), root / "valid.ckpt")
    return root


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_header_fuzz_loads_or_raises_checkpoint_error(fuzz_dir, data):
    """Mutated header lines and bytes either load or raise CheckpointError."""
    blob = (fuzz_dir / "valid.ckpt").read_bytes()
    for _ in range(data.draw(st.integers(1, 3))):
        (n,) = struct.unpack("<I", blob[8:12])
        lines = blob[12 : 12 + n].split(b"\n")
        i = data.draw(st.integers(0, len(lines) - 1))
        kind = data.draw(st.sampled_from(["line", "dup", "drop", "byte", "insert", "length"]))
        if kind == "line":
            lines[i] = data.draw(_HEADER_LINE).encode()
        elif kind == "dup":
            lines.insert(i, lines[i])
        elif kind == "drop":
            del lines[i]
        header = b"\n".join(lines)
        if kind in ("byte", "insert"):
            j = data.draw(st.integers(0, max(len(header) - 1, 0)))
            byte = bytes([data.draw(st.integers(0, 255))])
            header = header[:j] + byte + header[j + (kind == "byte") :]
        blob = _edit_header(blob, lambda _: header)
        if kind == "length":  # a stale length field: header and blobs overlap or part
            stale = max(n + data.draw(st.integers(-8, 8)), 0)
            blob = blob[:8] + struct.pack("<I", stale) + blob[12:]
    path = fuzz_dir / "mutated.ckpt"
    path.write_bytes(blob)
    try:
        loaded = M.load_weights(path)
    except CheckpointError:
        return
    assert isinstance(loaded, M.ModelWeights)
