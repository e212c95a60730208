import errno
import json
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    assert_bitwise_equal,
    assert_within_eps,
    edit_matrix_header,
    erf_gelu,
    gradcheck,
    num_parameters,
    per_row_forward,
    textbook_dropout_backward,
    textbook_dropout_forward,
    textbook_dropout_mask,
    textbook_masked_softmax,
    textbook_softmax_backward,
    tiny_training_batch,
    training_loss_fn,
    untiled_mha_backward,
    untiled_mha_forward,
)

from nlqground.anchors import AnchorConfig
from nlqground.nn import (
    EncoderConfig,
    GroundingModel,
    InvalidStateError,
    init_model,
    load_checkpoint,
    parameter_shapes,
    save_checkpoint,
    sinusoidal_positions,
)
import nlqground
from nlqground import data
from nlqground.data import MatrixFileError, write_features
from nlqground.nn import layers
from nlqground.nn import model as model_module
from nlqground.nn.layers import (
    _shifted_exp,
    dropout_backward,
    dropout_forward,
    gelu_backward,
    gelu_forward,
    masked_softmax,
    mha_backward,
    mha_forward,
    softmax_backward,
)
from nlqground.trainer import TrainConfig

TINY = EncoderConfig(hidden_dim=8, num_heads=2, intra_layers=1, cross_layers=2,
                     video_input_dim=5, text_input_dim=3, dropout_rate=0.0,
                     anchors=AnchorConfig(scales=(0.25, 0.75), num_frames=8))


class CountingPool(ThreadPoolExecutor):
    """A thread pool that counts the runs given to it."""

    submitted = 0

    def submit(self, *args, **kwargs):
        self.submitted += 1
        return super().submit(*args, **kwargs)


@pytest.fixture
def worker_pool(monkeypatch):
    """set_workers(n, part_floor) gives the layers a pool of n workers (with
    n = 1, every part and unit runs in the calling thread) and returns it;
    a `part_floor` below _PART_FLOOR pools the row-independent blocks at
    test sizes."""
    pools = []

    def set_workers(n, part_floor=layers._PART_FLOOR):
        pools.append(CountingPool(n))
        monkeypatch.setattr(layers, "WORKERS", n)
        monkeypatch.setattr(layers, "_POOL", pools[-1])
        monkeypatch.setattr(layers, "_PART_FLOOR", part_floor)
        return pools[-1]

    yield set_workers
    for pool in pools:
        pool.shutdown()


def tiny_inputs(B=2, T=8, L=4, seed=0, dv=5, dt=3):
    """B items, each with a video of its own: (videos, video_rows, text, tmask)."""
    rng = np.random.default_rng(seed)
    video = rng.normal(size=(B, T, dv))
    text = rng.normal(size=(B, L, dt))
    tmask = np.ones((B, L), bool)
    return video, np.arange(B), text, tmask


class TestSinusoidalPositions:
    def test_position_zero_alternates(self):
        table = sinusoidal_positions(4, 6)
        np.testing.assert_allclose(table[0], [0, 1, 0, 1, 0, 1])

    def test_first_angle(self):
        table = sinusoidal_positions(3, 8)
        assert table[1, 0] == pytest.approx(np.sin(1.0), abs=1e-12)
        assert table[1, 0] == pytest.approx(0.841471, abs=1e-6)

    def test_range(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            length = int(rng.integers(1, 50))
            dim = int(rng.integers(1, 32)) * 2
            table = sinusoidal_positions(length, dim)
            assert (table >= -1.0).all() and (table <= 1.0).all()

    def test_odd_dim_rejected(self):
        with pytest.raises(ValueError):
            sinusoidal_positions(4, 7)


class TestInitModel:
    def test_deterministic_in_seed(self):
        a = init_model(TINY, seed=5)
        b = init_model(TINY, seed=5)
        assert a.params.keys() == b.params.keys()
        for k in a.params:
            np.testing.assert_array_equal(a.params[k], b.params[k])

    def test_different_seeds_differ(self):
        a = init_model(TINY, seed=5)
        b = init_model(TINY, seed=6)
        assert any(not np.array_equal(a.params[k], b.params[k]) for k in a.params)

    def test_attention_shapes_at_reference_width(self):
        cfg = EncoderConfig(hidden_dim=512, num_heads=4, video_input_dim=16, text_input_dim=16)
        shapes = dict(((n, (r, c)) for n, r, c in parameter_shapes(cfg)))
        for w in ("wq", "wk", "wv", "wo"):
            assert shapes[f"cross.0.attn.{w}"] == (512, 512)

    def test_param_count_deterministic_function_of_config(self):
        n1 = num_parameters(init_model(TINY, seed=1))
        n2 = num_parameters(init_model(TINY, seed=99))
        assert n1 == n2

    def test_heads_must_divide_hidden(self):
        with pytest.raises(ValueError):
            EncoderConfig(hidden_dim=10, num_heads=4)

    def test_odd_hidden_dim_rejected(self):
        # the sinusoidal positions pair sin and cos columns
        with pytest.raises(ValueError, match="hidden_dim must be even"):
            EncoderConfig(hidden_dim=9, num_heads=3)


class TestForward:
    def test_output_shapes(self):
        cfg = EncoderConfig(hidden_dim=32, num_heads=4, intra_layers=1, cross_layers=2,
                            video_input_dim=6, text_input_dim=4, dropout_rate=0.0)
        model = init_model(cfg, seed=0)
        rng = np.random.default_rng(0)
        conf, offs, _ = model.forward_batch(rng.normal(size=(1, 8, 6)), [0],
                                            rng.normal(size=(1, 4, 4)), np.ones((1, 4), bool))
        assert conf[0].shape == (8, 2)
        assert offs[0].shape == (8, 4)

    def test_eval_mode_deterministic(self):
        model = init_model(TINY, seed=3)
        video, rows, text, tmask = tiny_inputs()
        a = model.forward_batch(video, rows, text, tmask, train=False)
        b = model.forward_batch(video, rows, text, tmask, train=False)
        for x, y in zip(a[:2], b[:2]):
            np.testing.assert_array_equal(x, y)

    def test_confidence_strictly_inside_unit_interval(self):
        model = init_model(TINY, seed=3)
        video, rows, text, tmask = tiny_inputs()
        conf, _, _ = model.forward_batch(video, rows, text, tmask)
        assert (conf > 0.0).all() and (conf < 1.0).all()

    def test_padded_text_rows_do_not_affect_outputs(self):
        model = init_model(TINY, seed=3)
        video, rows, text, tmask = tiny_inputs()
        tmask[:, 2:] = False
        a = model.forward_batch(video, rows, text, tmask, train=False)
        # swap the two padded rows and also scribble on them
        text2 = text.copy()
        text2[:, [2, 3]] = text2[:, [3, 2]]
        text2[:, 2:] += 123.456
        b = model.forward_batch(video, rows, text2, tmask, train=False)
        for x, y in zip(a[:2], b[:2]):
            np.testing.assert_array_equal(x, y)

    def test_attention_rows_sum_to_one_over_valid_keys(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=(2, 2, 6, 6))
        mask = np.ones((2, 6), bool)
        mask[0, 4:] = False
        e, _, rowsum = masked_softmax(scores, mask)
        probs = e / rowsum
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-6)
        assert (probs[0, :, :, 4:] == 0.0).all()
        # each row's largest valid weight is exp(0)
        assert (e.max(axis=-1) == 1.0).all()

    def test_all_masked_modality_rejected(self):
        model = init_model(TINY, seed=3)
        video, rows, text, tmask = tiny_inputs()
        tmask[0, :] = False
        with pytest.raises(ValueError):
            model.forward_batch(video, rows, text, tmask)

    def test_dimension_mismatch_rejected(self):
        model = init_model(TINY, seed=3)
        video, rows, text, tmask = tiny_inputs(dv=7)
        with pytest.raises(ValueError):
            model.forward_batch(video, rows, text, tmask)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_train_flag_alone_selects_the_mode(self, dtype):
        """An eval forward returns no cache; at dropout rate 0 a train
        forward draws nothing from the dropout generator and gives the bits
        of the direct joint attention, and the eval forward, whose first
        cross layer merges a separate video block, gives them within 16
        eps."""
        model = init_model(TINY, seed=3, dtype=dtype)
        video, rows, text, tmask = tiny_inputs()
        tmask[1, 3:] = False
        conf, offs, cache = model.forward_batch(video, rows, text, tmask, train=False)
        assert cache is None
        state = model._dropout_rng.bit_generator.state
        conf_t, offs_t, cache_t = model.forward_batch(video, rows, text, tmask, train=True)
        assert cache_t is not None
        assert model._dropout_rng.bit_generator.state == state
        ref_conf, ref_offs, _ = per_row_forward(model, video[rows], text, tmask)
        assert_bitwise_equal(conf_t, ref_conf)
        assert_bitwise_equal(offs_t, ref_offs)
        assert_within_eps(conf, conf_t)
        assert_within_eps(offs, offs_t)

    @staticmethod
    def _shared_video_inputs():
        """Two videos asked about by five items, in no particular order."""
        videos, _, _, _ = tiny_inputs(B=2)
        _, _, text, tmask = tiny_inputs(B=5, seed=1)
        tmask[2, 2:] = False
        return videos, np.array([1, 0, 1, 1, 0]), text, tmask

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("train", [False, True])
    def test_shared_videos_match_the_per_row_oracle_bitwise(self, dtype, train):
        """A train forward on (videos, video_rows) gives the outputs of the
        per-row forward on videos[video_rows], the gradients, d_video and
        d_text, and the dropout generator's next draw.  An eval forward
        gives the bits of one on (videos[video_rows], arange(B)), and the
        per-row forward's direct joint attention within 16 eps."""
        model = init_model(replace(TINY, dropout_rate=0.3), seed=3, dtype=dtype)
        videos, rows, text, tmask = self._shared_video_inputs()
        model._dropout_rng = np.random.default_rng(7)
        conf, offs, cache = model.forward_batch(videos, rows, text, tmask, train=train)
        after = model._dropout_rng
        model._dropout_rng = np.random.default_rng(7)
        ref_conf, ref_offs, ref_cache = per_row_forward(model, videos[rows], text, tmask, train)
        assert after.random() == model._dropout_rng.random()
        if not train:
            assert cache is None
            alone = model.forward_batch(videos[rows], np.arange(len(rows)), text, tmask)
            assert_bitwise_equal(conf, alone[0])
            assert_bitwise_equal(offs, alone[1])
            assert_within_eps(conf, ref_conf)
            assert_within_eps(offs, ref_offs)
            return
        assert_bitwise_equal(conf, ref_conf)
        assert_bitwise_equal(offs, ref_offs)
        upstream = np.random.default_rng(8)
        d_conf = upstream.normal(size=conf.shape).astype(dtype)
        d_offs = upstream.normal(size=offs.shape).astype(dtype)
        grads, d_video, d_text = model.backward(cache, d_conf, d_offs)
        ref_grads, ref_d_video, ref_d_text = model.backward(ref_cache, d_conf, d_offs)
        assert d_video.shape == (5, 8, 5)
        assert_bitwise_equal(d_video, ref_d_video)
        assert_bitwise_equal(d_text, ref_d_text)
        assert grads.keys() == ref_grads.keys()
        for k in grads:
            assert_bitwise_equal(grads[k], ref_grads[k])

    @staticmethod
    def _grouped_inputs():
        """Three videos asked about once, twice and three times, in mixed
        order, two of the six items with padded text."""
        videos, _, _, _ = tiny_inputs(B=3, seed=2)
        _, _, text, tmask = tiny_inputs(B=6, seed=4)
        tmask[1, 2:] = False
        tmask[3, 1:] = False
        return videos, np.array([2, 0, 1, 2, 1, 2]), text, tmask

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_eval_shares_each_video_block_bitwise(self, dtype):
        """An eval forward on (videos, video_rows) gives the bits of one on
        (videos[video_rows], arange(B)), where no two items share a video."""
        model = init_model(TINY, seed=3, dtype=dtype)
        videos, rows, text, tmask = self._grouped_inputs()
        conf, offs, _ = model.forward_batch(videos, rows, text, tmask)
        ref_conf, ref_offs, _ = model.forward_batch(videos[rows], np.arange(len(rows)), text, tmask)
        assert_bitwise_equal(conf, ref_conf)
        assert_bitwise_equal(offs, ref_offs)

    def test_eval_matches_the_direct_joint_attention_in_float64(self):
        """Against the per-row forward, whose first cross layer attends over
        each item's whole joint sequence at once, within 16 eps (about 1.5
        measured)."""
        model = init_model(TINY, seed=3, dtype=np.float64)
        videos, rows, text, tmask = self._grouped_inputs()
        conf, offs, _ = model.forward_batch(videos, rows, text, tmask)
        ref_conf, ref_offs, _ = per_row_forward(model, videos[rows], text, tmask)
        assert_within_eps(conf, ref_conf)
        assert_within_eps(offs, ref_offs)

    def test_first_cross_layer_builds_each_video_block_once_in_eval(self, monkeypatch):
        """Of an eval forward's softmax calls, the first cross layer's are
        one (heads, T, T) block per distinct video, then the (B, heads, T,
        L) strip of video rows over text keys and the text rows' (B, heads,
        L, S); the second cross layer makes one S = T + L block per item."""
        model = init_model(TINY, seed=3)
        videos, rows, text, tmask = self._grouped_inputs()
        shapes, masked_softmax_ = [], layers.masked_softmax

        def spy(scores, key_mask):
            shapes.append(scores.shape)
            return masked_softmax_(scores, key_mask)

        monkeypatch.setattr(layers, "masked_softmax", spy)
        model.forward_batch(videos, rows, text, tmask)
        video, text_, joint = (1, 2, 8, 8), (1, 2, 4, 4), (1, 2, 12, 12)
        strip, text_rows = (6, 2, 8, 4), (6, 2, 4, 12)
        assert shapes == [video] * 3 + [text_] * 6 + [video] * 3 + [strip, text_rows] + [joint] * 6

    @pytest.mark.parametrize("train", [False, True])
    def test_intra_video_stack_encodes_each_video_once_in_eval(self, monkeypatch, train):
        """The intra-video layers see the U distinct videos in an eval
        forward and every item's row in a train forward."""
        model = init_model(TINY, seed=3)
        stack_of = {id(v): k.split(".")[0] for k, v in model.params.items() if k.endswith("ln1.g")}
        seen = []

        def spy(x, key_mask, p, *args):
            seen.append((stack_of[id(p["ln1.g"])], len(x)))
            return layers.encoder_layer_forward(x, key_mask, p, *args)

        monkeypatch.setattr(model_module, "encoder_layer_forward", spy)
        model.forward_batch(*self._shared_video_inputs(), train=train)
        assert seen == [("intra_video", 5 if train else 2), ("intra_text", 5),
                        ("cross", 5), ("cross", 5)]

    def test_video_rows_must_match_the_text_items(self):
        model = init_model(TINY, seed=3)
        videos, rows, text, tmask = self._shared_video_inputs()
        with pytest.raises(ValueError, match="video_rows"):
            model.forward_batch(videos, rows[:4], text, tmask)

    def test_train_mode_dropout_changes_outputs(self):
        cfg = EncoderConfig(hidden_dim=8, num_heads=2, intra_layers=1, cross_layers=2,
                            video_input_dim=5, text_input_dim=3, dropout_rate=0.4)
        model = init_model(cfg, seed=3)
        video, rows, text, tmask = tiny_inputs()
        a = model.forward_batch(video, rows, text, tmask, train=True)
        b = model.forward_batch(video, rows, text, tmask, train=True)
        assert not np.array_equal(a[0], b[0])


class TestKernelOracles:
    """The in-place kernels against textbook copies, bit for bit."""

    @staticmethod
    def _scores(dtype, padded):
        rng = np.random.default_rng(11)
        scores = (3.0 * rng.normal(size=(2, 3, 7, 7))).astype(dtype)
        mask = np.ones((2, 7), bool)
        if padded:
            mask[0, 5:] = False
            mask[1, 1:3] = False
        return scores, mask

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("padded", [False, True])
    def test_masked_softmax_bitwise_in_place(self, dtype, padded):
        scores, mask = self._scores(dtype, padded)
        ref_e, ref_rowsum = textbook_masked_softmax(scores.copy(), mask)
        scores_before = scores.copy()
        e, rowmax, rowsum = masked_softmax(scores, mask)
        assert e is scores
        assert_bitwise_equal(e, ref_e)
        assert_bitwise_equal(rowsum, ref_rowsum)
        # the cached row max alone rebuilds E, as the attention backward does
        rebuilt, _ = _shifted_exp(scores_before, mask, rowmax)
        assert_bitwise_equal(rebuilt, ref_e)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("padded", [False, True])
    def test_softmax_backward_bitwise_in_place_on_dp(self, dtype, padded):
        """Given the row term d = rowsum(dp * p), `softmax_backward` writes
        the textbook gradient over `dp` and leaves `p` untouched."""
        scores, mask = self._scores(dtype, padded)
        e, _, rowsum = masked_softmax(scores, mask)
        p = e / rowsum
        dp = np.random.default_rng(12).normal(size=p.shape).astype(dtype)
        ref = textbook_softmax_backward(dp, p)
        d = np.sum(dp * p, axis=-1, keepdims=True)
        p_before = p.copy()
        out = softmax_backward(dp, p, d)
        assert out is dp
        assert_bitwise_equal(out, ref)
        assert_bitwise_equal(p, p_before)

    # a whole number of 64-bit words of uint16 draws, and an odd count
    @pytest.mark.parametrize("shape", [(4, 3, 9, 9), (3, 1, 17, 17)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rate", [0.0, 0.1])
    def test_dropout_bitwise_and_same_stream(self, shape, dtype, rate):
        data = np.random.default_rng(13)
        x = data.normal(size=shape).astype(dtype)
        dy = data.normal(size=x.shape).astype(dtype)
        rng, ref_rng = np.random.default_rng(14), np.random.default_rng(14)
        out, cache = dropout_forward(x, rate, rng, train=True)
        ref_out, ref_mask = textbook_dropout_forward(x, rate, ref_rng, train=True)
        assert_bitwise_equal(out, ref_out)
        assert_bitwise_equal(dropout_backward(dy, cache), textbook_dropout_backward(dy, ref_mask))
        assert rng.random() == ref_rng.random()
        if rate:
            keep, scale = cache
            assert keep.dtype == bool and keep.shape == x.shape
            assert scale.dtype == dtype

    def test_dropout_rate_next_to_one_stays_finite(self):
        x = np.ones(1 << 12, np.float32)
        out, (keep, scale) = dropout_forward(x, 1.0 - 2.0 ** -18, np.random.default_rng(0), True)
        assert scale == 65536.0 and np.isfinite(out).all()

    # uint16 counts drawn in turn: whole 64-bit words; an odd count; an odd
    # count (5 items, 1 head, S = 17), then whole words; three values (one
    # word, its last value unused), then whole words
    @pytest.mark.parametrize("counts", [(972,), (867,), (5 * 17 * 17, 288), (3, 8)])
    def test_dropout_draws_the_next_raw_words(self, counts):
        """Each draw of n uint16 values is the first n of the generator's
        next ceil(n / 4) raw 64-bit words, the rest of the last one unused."""
        rng, ref_rng = np.random.default_rng(17), np.random.default_rng(17)
        cut, _ = layers._dropout_cut(0.1, np.float32)
        for n in counts:
            ref_keep = textbook_dropout_mask((n,), 0.1, ref_rng, np.float32) != 0
            np.testing.assert_array_equal(layers._keep(rng, (n,), cut), ref_keep)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_whole_word_draws_are_the_generator_bytes(self):
        """From a fresh generator, a whole number of words draws the values
        `Generator.bytes` gives."""
        cut, _ = layers._dropout_cut(0.1, np.float32)
        keep = layers._keep(np.random.default_rng(17), (972,), cut)
        draws = np.frombuffer(np.random.default_rng(17).bytes(2 * 972), dtype="<u2")
        np.testing.assert_array_equal(keep, draws >= cut)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_scaling_q_equals_scaling_the_scores_at_d_head_16(self, dtype):
        """At d_head = 16 the scale 1/sqrt(d_head) is 1/4, a power of two, so
        scaling the (S, d_head) side gives the bits of scaling the (S, S)
        side: the scores forward, dq and dk backward."""
        rng = np.random.default_rng(19)
        q, k = (rng.normal(size=(2, 4, 9, 16)).astype(dtype) for _ in range(2))
        dscores = rng.normal(size=(2, 4, 9, 9)).astype(dtype)
        scale = np.asarray(1.0 / np.sqrt(16), dtype=dtype)
        assert scale == 0.25
        assert_bitwise_equal((q * scale) @ k.swapaxes(-1, -2), (q @ k.swapaxes(-1, -2)) * scale)
        assert_bitwise_equal((dscores @ k) * scale, (dscores * scale) @ k)
        assert_bitwise_equal(dscores.swapaxes(-1, -2) @ (q * scale),
                             (dscores * scale).swapaxes(-1, -2) @ q)

    # the largest error allowed, in units of the dtype's epsilon times the
    # largest |V| (each output is a convex combination of V rows); measured
    # at most 2.2 over five seeds, at d_head 3, 16 and 128, in either dtype
    @pytest.mark.parametrize("dtype, eps_units", [(np.float64, 4), (np.float32, 4)])
    @pytest.mark.parametrize("d_head", [3, 16])
    @pytest.mark.parametrize("padded", [False, True])
    def test_attention_tracks_textbook_softmax_attention(self, dtype, eps_units, d_head, padded):
        """The eval `mha_forward` against softmax(Q K^T / sqrt(d_head)) V,
        computed in float64 from the same projections, with the output
        projection set to the identity so the output is the attention."""
        B, nh, S = 3, 2, 23
        H = nh * d_head
        rng = np.random.default_rng(18)
        # weights at 1/sqrt(fan-in), so the scores stay O(1) as in training
        p = {k: (rng.normal(size=shape) / np.sqrt(shape[0])).astype(dtype) for k, shape in
             {"attn.wq": (H, H), "attn.bq": (1, H), "attn.wk": (H, H),
              "attn.wv": (H, H), "attn.bv": (1, H)}.items()}
        p.update({"attn.wo": np.eye(H, dtype=dtype), "attn.bo": np.zeros((1, H), dtype)})
        x = rng.normal(size=(B, S, H)).astype(dtype)
        mask = np.ones((B, S), bool)
        if padded:
            mask[0, S - 5:] = False
            mask[-1, 2:6] = False
        out, _ = mha_forward(x, mask, p, nh, 0.0, None, train=False)

        def heads(a):
            return a.astype(np.float64).reshape(B, S, nh, d_head).transpose(0, 2, 1, 3)

        qh, kh, vh = heads(x @ p["attn.wq"] + p["attn.bq"]), heads(x @ p["attn.wk"]), \
            heads(x @ p["attn.wv"] + p["attn.bv"])
        scores = qh @ kh.swapaxes(-1, -2) / np.sqrt(d_head)
        scores = np.where(mask[:, None, None, :], scores, -np.inf)
        weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
        weights /= weights.sum(axis=-1, keepdims=True)
        ref = (weights @ vh).transpose(0, 2, 1, 3).reshape(B, S, H)
        err = np.abs(out - ref).max() / (np.finfo(dtype).eps * np.abs(vh).max())
        assert out.dtype == dtype
        assert err <= eps_units

    @staticmethod
    def _attention_inputs(B, nh, S, dtype, padded):
        rng = np.random.default_rng(15)
        H = 3 * nh
        shapes = {"attn.wq": (H, H), "attn.bq": (1, H), "attn.wk": (H, H), "attn.wv": (H, H),
                  "attn.bv": (1, H), "attn.wo": (H, H), "attn.bo": (1, H)}
        # weights at 1/sqrt(fan-in), so the scores stay O(1) as in training
        p = {k: (rng.normal(size=shape) / np.sqrt(shape[0])).astype(dtype) for k, shape in shapes.items()}
        x = rng.normal(size=(B, S, H)).astype(dtype)
        dy = rng.normal(size=(B, S, H)).astype(dtype)
        mask = np.ones((B, S), bool)
        if padded:
            mask[0, S - 3:] = False
            mask[-1, 1:4] = False
        return x, mask, p, dy

    # (B, heads, S): five items; an odd heads * S * S, whose per-item uint16
    # draw ends inside one of the generator's 64-bit words; four items of two
    # heads, whose draws end halfway through a word
    @pytest.mark.parametrize("B, nh, S", [(5, 2, 6), (3, 1, 17), (4, 2, 9)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("padded", [False, True])
    @pytest.mark.parametrize("train", [False, True])
    def test_tiled_attention_matches_untiled_bitwise(self, B, nh, S, dtype, padded, train):
        x, mask, p, dy = self._attention_inputs(B, nh, S, dtype, padded)
        rngs = [np.random.default_rng(16) for _ in range(2)]
        ref_out, ref_cache = untiled_mha_forward(x, mask, p, nh, 0.3, rngs[0], train)
        out, cache = mha_forward(x, mask, p, nh, 0.3, rngs[1], train)
        assert_bitwise_equal(out, ref_out)
        assert rngs[0].random() == rngs[1].random()
        if not train:
            assert cache is None
            # the backward without dropout, from a train forward at rate 0
            ref_out, ref_cache = untiled_mha_forward(x, mask, p, nh, 0.0, rngs[0], True)
            out, cache = mha_forward(x, mask, p, nh, 0.0, rngs[1], True)
            assert_bitwise_equal(out, ref_out)
        ref_dx, ref_grads = untiled_mha_backward(dy, ref_cache)
        dx, grads = mha_backward(dy, cache)
        assert_bitwise_equal(dx, ref_dx)
        assert grads.keys() == ref_grads.keys()
        for k in grads:
            assert_bitwise_equal(grads[k], ref_grads[k])

    # measured at most 3.2 units over these shapes and (4, 2, 9)
    @pytest.mark.parametrize("B, nh, S", [(5, 2, 6), (3, 1, 17)])
    @pytest.mark.parametrize("padded", [False, True])
    def test_attention_backward_tracks_the_textbook_row_term(self, B, nh, S, padded):
        """FlashAttention's D: `mha_backward` takes the softmax's row term as
        rowsum(dO * O), which equals the textbook rowsum(dP * P) through
        dropout in real arithmetic.  In float64, dx and every gradient are
        within 16 units of epsilon times the largest entry of the textbook
        backward's array."""
        x, mask, p, dy = self._attention_inputs(B, nh, S, np.float64, padded)
        _, ref_cache = untiled_mha_forward(x, mask, p, nh, 0.3, np.random.default_rng(16), True)
        _, cache = mha_forward(x, mask, p, nh, 0.3, np.random.default_rng(16), True)
        assert not cache[10][0].all()  # dropout dropped some weights
        ref_dx, ref_grads = untiled_mha_backward(dy, ref_cache, textbook_row_term=True)
        dx, grads = mha_backward(dy, cache)
        assert grads.keys() == ref_grads.keys()
        for got, ref in [(dx, ref_dx)] + [(grads[k], ref_grads[k]) for k in grads]:
            assert np.abs(got - ref).max() <= 16 * np.finfo(np.float64).eps * np.abs(ref).max()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_tanh_gelu_tracks_erf_gelu(self, dtype):
        # measured on this grid: forward 4.733e-4 at x = -2.70, derivative
        # 8.685e-4 at x = -2.02, in either dtype; both are the tanh form's
        # own error, not rounding
        x = np.linspace(-10.0, 10.0, 200_001).astype(dtype)
        y, cache = gelu_forward(x)
        dydx = gelu_backward(np.ones_like(x), cache)
        assert y.dtype == dydx.dtype == dtype
        ref_y, phi = erf_gelu(x)
        ref_dydx = phi + x * np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
        assert np.abs(y - ref_y).max() < 4.8e-4
        assert np.abs(dydx - ref_dydx).max() < 8.7e-4


def _leaves(tree):
    """Every non-container leaf of nested tuples, lists and dicts."""
    if isinstance(tree, dict):
        tree = list(tree.values())
    if isinstance(tree, (tuple, list)):
        for item in tree:
            yield from _leaves(item)
    else:
        yield tree


class TestDtypeDiscipline:
    def test_float32_cache_and_grads_stay_float32(self):
        model = init_model(replace(TINY, dropout_rate=0.2), seed=3, dtype=np.float32)
        video, rows, text, tmask = tiny_inputs()
        tmask[1, 3:] = False
        conf, offs, cache = model.forward_batch(video, rows, text, tmask, train=True)
        leaves = list(_leaves(cache))
        floats = [a for a in leaves if isinstance(a, (np.ndarray, np.generic, float))
                  and np.asarray(a).dtype.kind == "f"]
        assert floats and all(np.asarray(a).dtype == np.float32 for a in floats)
        layer_caches = cache["intra_video"] + cache["intra_text"] + cache["cross"]
        assert len(layer_caches) == 4
        for ln1, mha, ln2, l1, gelu, ffn_drop, l2 in layer_caches:
            attn_drop = mha[-3]  # (..., rowsum, drop_mask, scale, num_heads)
            for keep, scale in (attn_drop, ffn_drop):
                assert keep.dtype == bool
                assert scale.dtype == np.float32
        grads, d_video, d_text = model.backward(cache, np.ones_like(conf), np.ones_like(offs))
        for g in [*grads.values(), d_video, d_text]:
            assert g.dtype == np.float32


class TestAttentionMemory:
    """Byte bounds on the attention tensors, from tracemalloc (numpy reports
    its buffers to it) and from the cache itself."""

    CFG = EncoderConfig(hidden_dim=8, num_heads=4, intra_layers=1, cross_layers=2,
                        video_input_dim=5, text_input_dim=3, dropout_rate=0.2)

    # (3, 176, 16) pools the video and joint calls: whole items at T = 176,
    # units of 2 heads at S = 192; with a part floor of 2^10, the
    # projections, layer norms and FFNs too
    @pytest.mark.parametrize("B, T, L, part_floor", [
        pytest.param(8, 72, 8, layers._PART_FLOOR, id="8-72-8"),
        pytest.param(3, 176, 16, layers._PART_FLOOR, id="3-176-16"),
        pytest.param(3, 176, 16, 1 << 10, id="3-176-16-parts")])
    def test_eval_forward_never_holds_a_whole_attention_tensor(self, monkeypatch, worker_pool,
                                                               B, T, L, part_floor):
        pool = worker_pool(2, part_floor)
        nh = self.CFG.num_heads
        peaks = {}  # sequence length -> each attention call's peak bytes past its entry

        def spy(x, *args):
            tracemalloc.reset_peak()
            entry = tracemalloc.get_traced_memory()[0]
            out = mha_forward(x, *args)
            peaks.setdefault(x.shape[1], []).append(tracemalloc.get_traced_memory()[1] - entry)
            return out

        monkeypatch.setattr(layers, "mha_forward", spy)
        model = init_model(self.CFG, seed=3, dtype=np.float32)
        video, rows, text, tmask = tiny_inputs(B=B, T=T, L=L)
        tmask[1, 5:] = False
        tracemalloc.start()
        try:
            _, _, cache = model.forward_batch(video, rows, text, tmask, train=False)
        finally:
            tracemalloc.stop()
        assert cache is None
        # the video and joint stacks, whose whole batch of weights is B
        # items' worth; each call holds one unit's float32 weights per worker
        # (at most one item's each) beside its (B, S, hidden) projections
        # (1.4 items' worth at S = 80); the first joint call holds those of
        # the video blocks, then its (B, heads, L, T) and (B, heads, L, S)
        # strips one at a time
        assert [len(peaks[S]) for S in (T, T + L)] == [1, 2]
        for S in (T, T + L):
            assert all(0 < peak < 3 * nh * S * S * 4 for peak in peaks[S]), (S, peaks[S])
        assert (pool.submitted > 0) == (T > 72)

    def test_train_cache_keeps_no_float_attention_tensor(self):
        B, T, L = 3, 10, 4
        nh = self.CFG.num_heads
        video, rows, text, tmask = tiny_inputs(B=B, T=T, L=L)
        tmask[1, 3:] = False
        for rate, kept in ((0.2, ["|b1"]), (0.0, [])):
            model = init_model(replace(self.CFG, dropout_rate=rate), seed=3, dtype=np.float32)
            _, _, cache = model.forward_batch(video, rows, text, tmask, train=True)
            per_layer = [(c, T) for c in cache["intra_video"]] + [(c, L) for c in cache["intra_text"]] \
                + [(c, T + L) for c in cache["cross"]]
            assert len(per_layer) == 4
            for layer, S in per_layer:
                attention = [a for a in _leaves(layer) if np.shape(a) == (B, nh, S, S)]
                # the dropout's keep mask alone: backward recomputes the probabilities
                assert [a.dtype.str for a in attention] == kept

    @pytest.mark.parametrize("rate", [0.0, 0.2])
    def test_train_forward_keeps_under_half_a_float_attention_tensor(self, rate):
        """Bytes a train `mha_forward` leaves allocated (its output and
        cache), past the bool keep mask: its (B, S, H) activations and the
        (B, nh, S, 1) row max and sum, not a (B, nh, S, S) float tensor."""
        B, nh, S = 4, 4, 96
        x, mask, p, _ = TestKernelOracles._attention_inputs(B, nh, S, np.float32, padded=True)
        rng = np.random.default_rng(17)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out, cache = mha_forward(x, mask, p, nh, rate, rng, train=True)
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        keep_mask_bytes = B * nh * S * S if rate else 0
        assert 0 < kept - keep_mask_bytes < B * nh * S * S * 4 // 2

    # S = 192 pools units of 2 heads over 2 workers; with a part floor of
    # 2^10, the projections too
    @pytest.mark.parametrize("B, nh, S, part_floor", [
        pytest.param(B, nh, S, layers._PART_FLOOR, id=f"{B}-{nh}-{S}")
        for B, nh, S in [(4, 4, 96), (8, 4, 64), (2, 4, 192), (3, 4, 192)]
    ] + [pytest.param(3, 4, 192, 1 << 10, id="3-4-192-parts")])
    def test_train_forward_peaks_near_what_it_keeps(self, worker_pool, B, nh, S, part_floor):
        """A train `mha_forward` draws its dropout one item at a time, into
        the keep mask, and gives each worker one unit's scratch: its
        tracemalloc peak exceeds the bytes it leaves allocated by at most 8
        bytes per element of one item's (heads, S, S) weights, whatever the
        batch size."""
        worker_pool(2, part_floor)
        x, mask, p, _ = TestKernelOracles._attention_inputs(B, nh, S, np.float32, padded=True)
        rng = np.random.default_rng(17)
        tracemalloc.start()
        try:
            out, cache = mha_forward(x, mask, p, nh, 0.2, rng, train=True)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - kept <= 8 * nh * S * S, (peak - kept) / (nh * S * S)


def _assert_leaves_bitwise_equal(got, ref):
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        if isinstance(a, np.ndarray) and a.dtype == bool:
            assert np.array_equal(a, b)
        else:
            assert_bitwise_equal(a, b)


def _with_short_switch_interval(fn):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        return fn()
    finally:
        sys.setswitchinterval(interval)


class TestAttentionPool:
    """Attention above the pool's floor: units of 2 heads at S = 192, whole
    items at T = 176.  The pool changes no bit, and the caller's errstate
    and the dropout stream hold in it."""

    NH, S, T = 4, 192, 176

    def _train_and_eval(self, B, dtype):
        x, mask, p, dy = TestKernelOracles._attention_inputs(B, self.NH, self.S, dtype, padded=True)
        rng = np.random.default_rng(18)
        out, cache = mha_forward(x, mask, p, self.NH, 0.2, rng, train=True)
        dx, grads = mha_backward(dy, cache)
        eval_out, _ = mha_forward(x, mask, p, self.NH, 0.2, None, train=False)
        return [out, *_leaves(cache), dx, *_leaves(grads), eval_out], rng.bit_generator.state

    @pytest.mark.parametrize("B", [2, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_pool_matches_one_worker_bitwise(self, worker_pool, B, dtype, workers):
        """Train outputs, caches and gradients, eval outputs and the dropout
        generator's end state, with 2 workers and with more workers than
        this host has cores, under a short thread switch interval."""
        worker_pool(1)
        ref, ref_state = self._train_and_eval(B, dtype)
        pool = worker_pool(workers)
        got, state = _with_short_switch_interval(lambda: self._train_and_eval(B, dtype))
        assert pool.submitted > 0
        assert state == ref_state
        _assert_leaves_bitwise_equal(got, ref)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_shared_prefix_ctx_pools_bitwise(self, worker_pool, dtype):
        """`_shared_prefix_ctx` over three videos asked about 1, 2 and 3
        times, with padded text: the pool gives one worker's contexts."""
        rng = np.random.default_rng(19)
        qh, kh, vh = (rng.normal(size=(6, self.NH, self.S, 3)).astype(dtype) for _ in range(3))
        rows = np.array([2, 0, 1, 2, 1, 2])
        for a in (qh, kh, vh):
            a[:, :, :self.T] = a[rows, :, :self.T]
        mask = np.ones((6, self.S), bool)
        mask[1, -4:] = False
        mask[3, -1:] = False
        contexts = []
        for workers in (1, 2):
            pool = worker_pool(workers)
            contexts.append(layers._shared_prefix_ctx(qh, kh, vh, mask, self.T, rows))
        assert pool.submitted > 0
        assert_bitwise_equal(contexts[1], contexts[0])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_caller_errstate_reaches_the_workers(self, worker_pool, workers):
        """Scores that overflow float32 raise FloatingPointError under the
        caller's np.errstate(over="raise"), in the pool as in the calling
        thread."""
        pool = worker_pool(workers)
        x, mask, p, _ = TestKernelOracles._attention_inputs(2, self.NH, self.S, np.float32, padded=False)
        p = {**p, "attn.wq": p["attn.wq"] * 1e20, "attn.wk": p["attn.wk"] * 1e20}
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            mha_forward(x, mask, p, self.NH, 0.0, None, train=False)
        assert (pool.submitted > 0) == (workers > 1)

    def test_outputs_do_not_depend_on_the_blas_thread_count(self):
        """A fixed-seed eval forward at S = 616, width 64, gives the same
        bits under OPENBLAS_NUM_THREADS=1 and =2: attention pins BLAS to one
        thread at import (unpinned, the two differ at this shape)."""
        probe = (
            "import hashlib, numpy as np\n"
            "from nlqground.nn.layers import mha_forward\n"
            "rng = np.random.default_rng(20)\n"
            "p = {k: (rng.normal(size=s) / 8).astype(np.float32) for k, s in [\n"
            "    ('attn.wq', (64, 64)), ('attn.bq', (1, 64)), ('attn.wk', (64, 64)),\n"
            "    ('attn.wv', (64, 64)), ('attn.bv', (1, 64)), ('attn.wo', (64, 64)), ('attn.bo', (1, 64))]}\n"
            "x = rng.normal(size=(2, 616, 64)).astype(np.float32)\n"
            "out, _ = mha_forward(x, np.ones((2, 616), bool), p, 4, 0.1, None, False)\n"
            "print(hashlib.sha256(out.tobytes()).hexdigest())\n")
        src = str(Path(nlqground.__file__).resolve().parents[1])
        digests = [subprocess.run([sys.executable, "-c", probe], check=True, capture_output=True,
                                  text=True, env={**os.environ, "PYTHONPATH": src,
                                                  "OPENBLAS_NUM_THREADS": threads}).stdout
                   for threads in ("1", "2")]
        assert len(digests[0]) == 65
        assert digests[0] == digests[1]


class TestLayerPool:
    """The encoder layer's row-independent blocks on the pool, under a part
    floor of 2^10: at S = 24 attention's items stay under its own floor, so
    every run the pool gets is a projection, layer norm, GELU or dropout
    part; at S = 192 attention pools too.  The pool changes no bit, and the
    dropout stream and the caller's errstate hold in it."""

    CFG = EncoderConfig(hidden_dim=8, num_heads=4, intra_layers=1, cross_layers=2,
                        video_input_dim=5, text_input_dim=3, dropout_rate=0.2)
    PART_FLOOR = 1 << 10

    def _layer(self, B, S, dtype):
        model = init_model(self.CFG, seed=21, dtype=dtype)
        p = {k[len("cross.0."):]: v for k, v in model.params.items() if k.startswith("cross.0.")}
        rng = np.random.default_rng(22)
        x, dy = (rng.normal(size=(B, S, self.CFG.hidden_dim)).astype(dtype) for _ in range(2))
        mask = np.ones((B, S), bool)
        mask[0, S - 3:] = False
        mask[-1, S - 5:] = False
        drop_rng = np.random.default_rng(23)
        out, cache = layers.encoder_layer_forward(x, mask, p, self.CFG.num_heads, 0.2, drop_rng, True)
        dx, grads = layers.encoder_layer_backward(dy, cache)
        eval_out, _ = layers.encoder_layer_forward(x, mask, p, self.CFG.num_heads, 0.2, None, False)
        return [out, *_leaves(cache), dx, *_leaves(grads), eval_out], drop_rng.bit_generator.state

    def _model(self, B, S, dtype):
        model = init_model(self.CFG, seed=24, dtype=dtype)
        L = 8
        video, rows, text, tmask = tiny_inputs(B=B, T=S - L, L=L)
        tmask[-1, 5:] = False
        conf, offs, cache = model.forward_batch(video, rows, text, tmask, train=True)
        rng = np.random.default_rng(25)
        grads, d_video, d_text = model.backward(cache, rng.normal(size=conf.shape), rng.normal(size=offs.shape))
        eval_conf, eval_offs, _ = model.forward_batch(video, rows, text, tmask, train=False)
        del cache["param_ids"]  # the model object's identity
        return ([conf, offs, *_leaves(cache), *_leaves(grads), d_video, d_text, eval_conf, eval_offs],
                model._dropout_rng.bit_generator.state)

    @pytest.mark.parametrize("S", [24, 192])
    @pytest.mark.parametrize("run", ["_layer", "_model"])
    @pytest.mark.parametrize("B", [2, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_pool_matches_one_worker_bitwise(self, worker_pool, run, S, B, dtype, workers):
        """`encoder_layer_forward`/`encoder_layer_backward` and
        `GroundingModel.forward_batch`/`backward`, train and eval: outputs,
        every cache leaf, dx and gradients, and the dropout generator's end
        state, with 2 workers and with more than this host has cores, under
        a short thread switch interval."""
        worker_pool(1, self.PART_FLOOR)
        ref, ref_state = getattr(self, run)(B, S, dtype)
        pool = worker_pool(workers, self.PART_FLOOR)
        got, state = _with_short_switch_interval(lambda: getattr(self, run)(B, S, dtype))
        assert pool.submitted > 0
        assert state == ref_state
        _assert_leaves_bitwise_equal(got, ref)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_caller_errstate_reaches_the_workers(self, worker_pool, workers):
        """A GELU whose cube overflows float32, at _PART_FLOOR elements,
        raises FloatingPointError under the caller's
        np.errstate(over="raise"), in the pool as in the calling thread."""
        pool = worker_pool(workers)
        x = np.full((2, layers._PART_FLOOR // 2), 1e20, np.float32)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            gelu_forward(x)
        assert (pool.submitted > 0) == (workers > 1)


class TestBackward:
    def _run(self, scale):
        model = init_model(TINY, seed=4, dtype=np.float64)
        video, rows, text, tmask = tiny_inputs()
        conf, offs, cache = model.forward_batch(video, rows, text, tmask, train=True)
        d_conf = np.full_like(conf, 0.1 * scale)
        d_offs = np.full_like(offs, -0.2 * scale)
        grads, d_video, d_text = model.backward(cache, d_conf, d_offs)
        return grads, d_video, d_text

    def test_zero_upstream_gives_zero_grads(self):
        grads, d_video, d_text = self._run(0.0)
        for g in grads.values():
            assert (g == 0.0).all()
        assert (d_video == 0.0).all() and (d_text == 0.0).all()

    def test_linearity_in_upstream(self):
        g1, _, _ = self._run(1.0)
        g2, _, _ = self._run(2.0)
        for k in g1:
            np.testing.assert_allclose(g2[k], 2.0 * g1[k], rtol=1e-9, atol=1e-12)

    def test_stale_cache_rejected(self):
        model = init_model(TINY, seed=4)
        other = init_model(TINY, seed=5)
        video, rows, text, tmask = tiny_inputs()
        conf, offs, cache = model.forward_batch(video, rows, text, tmask, train=True)
        with pytest.raises(InvalidStateError):
            other.backward(cache, np.zeros_like(conf), np.zeros_like(offs))


class TestGradcheck:
    def test_quadratic_loss_is_near_exact(self):
        model = init_model(TINY, seed=1, dtype=np.float64)

        def quad(m):
            loss = 0.5 * sum(float(np.sum(p * p)) for p in m.params.values())
            return loss, {k: p.copy() for k, p in m.params.items()}

        # central differences are exact for quadratics at any step, so a
        # large step leaves only summation rounding
        report = gradcheck(quad, model, step=1e-2, num_samples=100, seed=0)
        assert report.max_rel_error < 1e-9

    def test_full_training_loss_through_tiny_model(self):
        model = init_model(TINY, seed=42, dtype=np.float64)
        fn = training_loss_fn(tiny_training_batch(), TrainConfig(seed=0))
        report = gradcheck(fn, model, step=1e-5, tolerance=1e-4, num_samples=200, seed=0)
        assert report.num_checked >= 200
        assert report.max_rel_error < 1e-4, report.worst_parameter

    def test_full_training_loss_through_dropout(self):
        model = init_model(replace(TINY, dropout_rate=0.3), seed=42, dtype=np.float64)
        fn = training_loss_fn(tiny_training_batch(), TrainConfig(seed=0), seed=5)
        report = gradcheck(fn, model, step=1e-5, tolerance=1e-4, num_samples=200, seed=0)
        assert report.num_checked >= 200
        assert report.max_rel_error < 1e-4, report.worst_parameter

    def test_zero_step_rejected(self):
        model = init_model(TINY, seed=1)
        with pytest.raises(ValueError):
            gradcheck(lambda m: (0.0, m.zero_grads()), model, step=0.0)

    def test_nondeterministic_loss_detected(self):
        model = init_model(TINY, seed=1)
        state = {"n": 0}

        def noisy(m):
            state["n"] += 1
            return float(state["n"]), m.zero_grads()

        with pytest.raises(InvalidStateError):
            gradcheck(noisy, model, step=1e-5)


class TestCheckpoint:
    def test_round_trip_is_bitwise(self, tmp_path):
        model = init_model(TINY, seed=8)
        path = tmp_path / "m.nlqc"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        for k in model.params:
            np.testing.assert_array_equal(loaded.params[k], model.params[k])

    def test_round_trip_preserves_eval_outputs(self, tmp_path):
        model = init_model(TINY, seed=8)
        path = tmp_path / "m.nlqc"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        video, rows, text, tmask = tiny_inputs()
        a = model.forward_batch(video, rows, text, tmask)
        b = loaded.forward_batch(video, rows, text, tmask)
        for x, y in zip(a[:2], b[:2]):
            np.testing.assert_array_equal(x, y)

    def test_header_holds_config_seed_and_manifest_in_order(self, tmp_path):
        path = tmp_path / "m.nlqc"
        save_checkpoint(init_model(TINY, seed=8), path)
        blob = path.read_bytes()
        header = json.loads(blob[16:16 + int.from_bytes(blob[8:16], "little")])
        assert list(header) == ["config", "seed", "manifest"]
        assert header["config"]["anchors"] == {"scales": [0.25, 0.75], "num_frames": 8}
        assert header["seed"] == 8
        assert [e["name"] for e in header["manifest"]] == [n for n, _, _ in parameter_shapes(TINY)]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.nlqc"
        path.write_bytes(b"XLQC" + b"\x00" * 64)
        with pytest.raises(MatrixFileError):
            load_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        model = init_model(TINY, seed=8)
        path = tmp_path / "m.nlqc"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-40])
        with pytest.raises(MatrixFileError):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, named", [
        (lambda h: h.pop("manifest"), "manifest"),
        (lambda h: h["manifest"].pop(0), "'video_proj.w' missing"),
        (lambda h: h["config"].update(bogus=1), "config: unknown key 'bogus'"),
        (lambda h: h["config"].update(hidden_dim=16), "'video_proj.w' is 5x8, the config implies 5x16"),
        (lambda h: h.update(seed="8"), "seed '8' is not an integer"),
        (lambda h: h.pop("seed"), "seed None is not an integer >= 0"),
        (lambda h: h.update(seed=-1), "seed -1 is not an integer >= 0"),
        (lambda h: h["config"].pop("anchors"), "config: key 'anchors' missing"),
        (lambda h: h["config"].update(anchors=[0.25, 0.75]), "config.anchors must be a JSON object"),
        (lambda h: h["config"]["anchors"].update(stride=2), "config.anchors: unknown key 'stride'"),
        (lambda h: h["config"]["anchors"].pop("num_frames"), "config.anchors: key 'num_frames' missing"),
        (lambda h: h["config"]["anchors"].update(scales=[0.75, 0.25]), "strictly increasing"),
        (lambda h: h["config"]["anchors"].update(scales="0.25"), "'scales' must be a list"),
        (lambda h: h["config"]["anchors"].update(num_frames=0),
         "'num_frames' must be an integer >= 2, got 0"),
        (lambda h: h["config"].update(hidden_dim=16.0), "'hidden_dim' must be an integer >= 1, got 16.0"),
        (lambda h: h["config"]["anchors"].update(num_frames=24.0),
         "'num_frames' must be an integer >= 2, got 24.0"),
        (lambda h: h["config"].update(cross_layers=True), "'cross_layers' must be an integer >= 1, got True"),
        (lambda h: h["config"].update(dropout_rate="0.1"),
         "config: 'dropout_rate' must be a number in [0, 1), got '0.1'"),
        (lambda h: h["config"].update(dropout_rate=False),
         "config: 'dropout_rate' must be a number in [0, 1), got False"),
        (lambda h: h["config"].update(feedforward_dim=32), "config: unknown key 'feedforward_dim'"),
    ], ids=["no_manifest", "missing_parameter", "unknown_config_key", "shape_mismatch", "bad_seed",
            "no_seed", "negative_seed", "no_anchors", "non_object_anchors", "unknown_anchors_key",
            "no_num_frames", "decreasing_scales", "string_scales", "zero_frames",
            "float_hidden_dim", "float_num_frames", "bool_cross_layers", "string_dropout_rate",
            "bool_dropout_rate", "feedforward_dim"])
    def test_bad_header_names_path_and_offender(self, tmp_path, edit, named):
        path = tmp_path / "m.nlqc"
        save_checkpoint(init_model(TINY, seed=8), path)
        edit_matrix_header(path, edit)
        with pytest.raises(MatrixFileError) as info:
            load_checkpoint(path)
        assert str(path) in str(info.value) and named in str(info.value)

    @pytest.mark.parametrize("write", [
        lambda path, seed: save_checkpoint(init_model(TINY, seed=seed), path),
        lambda path, seed: write_features(path, init_model(TINY, seed=seed).params),
    ], ids=["save_checkpoint", "write_features"])
    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch, write):
        path = tmp_path / "m.nlqc"
        write(path, 8)
        before = path.read_bytes()

        class DiskFull:
            """A file that takes half the previous checkpoint's bytes, then
            fails like a full disk."""
            def __init__(self, f):
                self.f, self.room = f, len(before) // 2

            def write(self, data):
                if len(data) > self.room:
                    self.f.write(data[:self.room])
                    raise OSError(errno.ENOSPC, "No space left on device")
                self.room -= len(data)
                return self.f.write(data)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

        monkeypatch.setattr(data, "open", lambda p, mode: DiskFull(open(p, mode)),
                            raising=False)
        with pytest.raises(OSError):
            write(path, 9)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]
