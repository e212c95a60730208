from dataclasses import replace

import numpy as np
import pytest
from helpers import (
    assert_bitwise_equal,
    dropout_training_loss_fn,
    textbook_dropout_backward,
    textbook_dropout_forward,
    textbook_masked_softmax,
    textbook_softmax_backward,
    tiny_training_batch,
    training_loss_fn,
)

from nlqground.anchors import AnchorConfig, build_lattice
from nlqground.nn import (
    EncoderConfig,
    GroundingModel,
    InvalidStateError,
    gradcheck,
    init_model,
    load_checkpoint,
    parameter_shapes,
    save_checkpoint,
    sinusoidal_positions,
)
from nlqground.nn.checkpoint import CheckpointError
from nlqground.nn.layers import (
    dropout_backward,
    dropout_forward,
    masked_softmax,
    softmax_backward,
)
from nlqground.trainer import TrainConfig

TINY = EncoderConfig(hidden_dim=8, num_heads=2, intra_layers=1, cross_layers=2,
                     video_input_dim=5, text_input_dim=3, num_scales=2, dropout_rate=0.0)


def tiny_inputs(B=2, T=8, L=4, seed=0, dv=5, dt=3):
    rng = np.random.default_rng(seed)
    video = rng.normal(size=(B, T, dv))
    text = rng.normal(size=(B, L, dt))
    tmask = np.ones((B, L), bool)
    return video, text, tmask


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
        n1 = init_model(TINY, seed=1).num_parameters()
        n2 = init_model(TINY, seed=99).num_parameters()
        assert n1 == n2

    def test_heads_must_divide_hidden(self):
        with pytest.raises(ValueError):
            EncoderConfig(hidden_dim=10, num_heads=4)


class TestForward:
    def test_output_shapes(self):
        cfg = EncoderConfig(hidden_dim=32, num_heads=4, intra_layers=1, cross_layers=2,
                            video_input_dim=6, text_input_dim=4, num_scales=2, dropout_rate=0.0)
        model = init_model(cfg, seed=0)
        rng = np.random.default_rng(0)
        conf, offs, _ = model.forward_batch(rng.normal(size=(1, 8, 6)),
                                            rng.normal(size=(1, 4, 4)), np.ones((1, 4), bool))
        assert conf[0].shape == (8, 2)
        assert offs[0].shape == (8, 4)

    def test_eval_mode_deterministic(self):
        model = init_model(TINY, seed=3)
        video, text, tmask = tiny_inputs()
        a = model.forward_batch(video, text, tmask, train=False)
        b = model.forward_batch(video, text, tmask, train=False)
        for x, y in zip(a[:2], b[:2]):
            np.testing.assert_array_equal(x, y)

    def test_confidence_strictly_inside_unit_interval(self):
        model = init_model(TINY, seed=3)
        video, text, tmask = tiny_inputs()
        conf, _, _ = model.forward_batch(video, text, tmask)
        assert (conf > 0.0).all() and (conf < 1.0).all()

    def test_padded_text_rows_do_not_affect_outputs(self):
        model = init_model(TINY, seed=3)
        video, text, tmask = tiny_inputs()
        tmask[:, 2:] = False
        a = model.forward_batch(video, text, tmask, train=False)
        # swap the two padded rows and also scribble on them
        text2 = text.copy()
        text2[:, [2, 3]] = text2[:, [3, 2]]
        text2[:, 2:] += 123.456
        b = model.forward_batch(video, text2, tmask, train=False)
        for x, y in zip(a[:2], b[:2]):
            np.testing.assert_array_equal(x, y)

    def test_attention_rows_sum_to_one_over_valid_keys(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=(2, 2, 6, 6))
        mask = np.ones((2, 6), bool)
        mask[0, 4:] = False
        probs = masked_softmax(scores, mask)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-6)
        assert (probs[0, :, :, 4:] == 0.0).all()

    def test_all_masked_modality_rejected(self):
        model = init_model(TINY, seed=3)
        video, text, tmask = tiny_inputs()
        tmask[0, :] = False
        with pytest.raises(ValueError):
            model.forward_batch(video, text, tmask)

    def test_dimension_mismatch_rejected(self):
        model = init_model(TINY, seed=3)
        video, text, tmask = tiny_inputs(dv=7)
        with pytest.raises(ValueError):
            model.forward_batch(video, text, tmask)

    def test_eval_forward_without_cache_matches_cached(self):
        model = init_model(TINY, seed=3, dtype=np.float32)
        video, text, tmask = tiny_inputs()
        tmask[1, 3:] = False
        conf, offs, cache = model.forward_batch(video, text, tmask, train=False)
        assert cache is None
        conf_c, offs_c, cache_c = model.forward_batch(video, text, tmask, train=False,
                                                      want_cache=True)
        assert cache_c is not None
        assert_bitwise_equal(conf, conf_c)
        assert_bitwise_equal(offs, offs_c)

    def test_train_mode_dropout_changes_outputs(self):
        cfg = EncoderConfig(hidden_dim=8, num_heads=2, intra_layers=1, cross_layers=2,
                            video_input_dim=5, text_input_dim=3, num_scales=2, dropout_rate=0.4)
        model = init_model(cfg, seed=3)
        video, text, tmask = tiny_inputs()
        a = model.forward_batch(video, text, tmask, train=True)
        b = model.forward_batch(video, text, tmask, train=True)
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
    def test_masked_softmax_bitwise_and_input_untouched(self, dtype, padded):
        scores, mask = self._scores(dtype, padded)
        before = scores.copy()
        probs = masked_softmax(scores, mask)
        assert_bitwise_equal(probs, textbook_masked_softmax(before, mask))
        assert_bitwise_equal(scores, before)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("padded", [False, True])
    def test_softmax_backward_bitwise_and_inputs_untouched(self, dtype, padded):
        scores, mask = self._scores(dtype, padded)
        p = masked_softmax(scores, mask)
        dp = np.random.default_rng(12).normal(size=p.shape).astype(dtype)
        dp_before, p_before = dp.copy(), p.copy()
        assert_bitwise_equal(softmax_backward(dp, p), textbook_softmax_backward(dp_before, p_before))
        assert_bitwise_equal(dp, dp_before)
        assert_bitwise_equal(p, p_before)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rate", [0.0, 0.1])
    def test_dropout_bitwise_and_same_stream(self, dtype, rate):
        data = np.random.default_rng(13)
        x = data.normal(size=(4, 3, 9, 9)).astype(dtype)
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
        video, text, tmask = tiny_inputs()
        tmask[1, 3:] = False
        conf, offs, cache = model.forward_batch(video, text, tmask, train=True, want_cache=True)
        leaves = list(_leaves(cache))
        floats = [a for a in leaves if isinstance(a, (np.ndarray, np.generic, float))
                  and np.asarray(a).dtype.kind == "f"]
        assert floats and all(np.asarray(a).dtype == np.float32 for a in floats)
        layers = cache["intra_v"] + cache["intra_t"] + cache["cross"]
        assert len(layers) == 4
        for ln1, mha, ln2, l1, gelu, ffn_drop, l2 in layers:
            attn_drop = mha[-3]  # (..., probs_kept, drop_mask, scale, num_heads)
            for keep, scale in (attn_drop, ffn_drop):
                assert keep.dtype == bool
                assert scale.dtype == np.float32
        grads, d_video, d_text = model.backward(cache, np.ones_like(conf), np.ones_like(offs))
        for g in [*grads.values(), d_video, d_text]:
            assert g.dtype == np.float32


class TestBackward:
    def _run(self, scale):
        model = init_model(TINY, seed=4, dtype=np.float64)
        video, text, tmask = tiny_inputs()
        conf, offs, cache = model.forward_batch(
            video, text, tmask, train=False, want_cache=True)
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
        video, text, tmask = tiny_inputs()
        conf, offs, cache = model.forward_batch(video, text, tmask, want_cache=True)
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
        anchor_set = build_lattice(AnchorConfig(scales=(0.25, 0.75), num_frames=8))
        fn = training_loss_fn(tiny_training_batch(), anchor_set, TrainConfig(seed=0))
        report = gradcheck(fn, model, step=1e-5, tolerance=1e-4, num_samples=200, seed=0)
        assert report.num_checked >= 200
        assert report.max_rel_error < 1e-4, report.worst_parameter

    def test_full_training_loss_through_dropout(self):
        model = init_model(replace(TINY, dropout_rate=0.3), seed=42, dtype=np.float64)
        anchor_set = build_lattice(AnchorConfig(scales=(0.25, 0.75), num_frames=8))
        fn = dropout_training_loss_fn(tiny_training_batch(), anchor_set, TrainConfig(seed=0), seed=5)
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
        video, text, tmask = tiny_inputs()
        a = model.forward_batch(video, text, tmask)
        b = loaded.forward_batch(video, text, tmask)
        for x, y in zip(a[:2], b[:2]):
            np.testing.assert_array_equal(x, y)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.nlqc"
        path.write_bytes(b"XLQC" + b"\x00" * 64)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        model = init_model(TINY, seed=8)
        path = tmp_path / "m.nlqc"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-40])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
