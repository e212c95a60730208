import json
import math

import numpy as np
import pytest

from nlqground.anchors import AnchorConfig, build_lattice
from nlqground.data import SyntheticSpec, generate_synthetic, make_batches
from nlqground.nn import EncoderConfig, init_model, load_checkpoint
from nlqground.trainer import (
    DivergenceError,
    OptimizerState,
    TrainConfig,
    adam_step,
    batch_loss_and_grads,
    lr_at,
    train,
)

ENC = EncoderConfig(hidden_dim=16, num_heads=2, intra_layers=1, cross_layers=2,
                    video_input_dim=8, text_input_dim=4, num_scales=2, dropout_rate=0.1)
ANCHORS = AnchorConfig(scales=(0.1, 0.3), num_frames=24)


def tiny_dataset(seed=1, videos=4):
    return generate_synthetic(SyntheticSpec(
        num_videos=videos, frames_per_video=48, feature_dim=8, text_dim=4,
        tokens_per_query=3, queries_per_video=1,
        span_fraction_range=(0.1, 0.25), noise_sigma=0.3, seed=seed))


class TestLrSchedule:
    cfg = TrainConfig(base_lr=2e-4, warmup_steps=1000, seed=0)

    def test_linear_warmup(self):
        assert lr_at(500, self.cfg) == pytest.approx(1e-4)

    def test_boundary_equals_base(self):
        assert lr_at(1000, self.cfg) == pytest.approx(2e-4)

    def test_inverse_sqrt_decay(self):
        assert lr_at(4000, self.cfg) == pytest.approx(1e-4)

    def test_continuous_at_warmup(self):
        assert lr_at(1000, self.cfg) == pytest.approx(lr_at(1001, self.cfg), rel=1e-3)

    def test_strictly_decreasing_after_warmup(self):
        values = [lr_at(s, self.cfg) for s in range(1000, 3000, 7)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_step_zero_rejected(self):
        with pytest.raises(ValueError):
            lr_at(0, self.cfg)


class TestAdam:
    def test_zero_gradient_is_fixed_point(self):
        model = init_model(ENC, seed=0)
        state = OptimizerState.for_model(model)
        before = {k: v.copy() for k, v in model.params.items()}
        adam_step(model.params, model.zero_grads(), state, lr=1e-3, config=TrainConfig(seed=0))
        for k in before:
            np.testing.assert_array_equal(model.params[k], before[k])

    def test_first_step_closed_form(self):
        # single scalar, g=1: bias-corrected update is -lr / (1 + eps)
        params = {"w": np.zeros((1, 1), dtype=np.float64)}
        grads = {"w": np.ones((1, 1), dtype=np.float64)}
        state = OptimizerState(m={"w": np.zeros((1, 1))}, v={"w": np.zeros((1, 1))})
        cfg = TrainConfig(grad_clip_norm=0.0, seed=0)
        adam_step(params, grads, state, lr=1e-3, config=cfg)
        assert params["w"][0, 0] == pytest.approx(-1e-3, rel=1e-6)
        assert state.step_count == 1

    def test_clipping_makes_update_scale_invariant(self):
        cfg = TrainConfig(grad_clip_norm=1.0, seed=0)
        outs = []
        for scale in (3.0, 30.0):
            params = {"w": np.zeros((1, 2), dtype=np.float64)}
            grads = {"w": np.full((1, 2), scale, dtype=np.float64)}
            state = OptimizerState(m={"w": np.zeros((1, 2))}, v={"w": np.zeros((1, 2))})
            adam_step(params, grads, state, lr=1e-3, config=cfg)
            outs.append(params["w"].copy())
        np.testing.assert_allclose(outs[0], outs[1], rtol=1e-12)

    def test_non_finite_gradient_raises(self):
        params = {"w": np.zeros((1, 1))}
        grads = {"w": np.array([[np.nan]])}
        state = OptimizerState(m={"w": np.zeros((1, 1))}, v={"w": np.zeros((1, 1))})
        with pytest.raises(DivergenceError):
            adam_step(params, grads, state, lr=1e-3, config=TrainConfig(seed=0))


class TestTrainLoop:
    def test_smoke_contract(self, tmp_path):
        ds = tiny_dataset(videos=2)
        cfg = TrainConfig(epochs=1, batch_size=2, base_lr=1e-3, warmup_steps=10, seed=0)
        result = train(ds, ds, ENC, cfg, ANCHORS, tmp_path)
        assert result.best_checkpoint.exists()
        assert result.last_checkpoint.exists()
        records = [json.loads(l) for l in result.metrics_log.read_text().splitlines()]
        assert len(records) == 1
        assert set(records[0]) == {"epoch", "loss_align", "loss_box",
                                   "R1@0.3", "R1@0.5", "R5@0.3", "R5@0.5"}

    def test_metric_log_epochs_contiguous(self, tmp_path):
        ds = tiny_dataset(videos=2)
        cfg = TrainConfig(epochs=3, batch_size=2, base_lr=1e-3, warmup_steps=10, seed=0)
        result = train(ds, ds, ENC, cfg, ANCHORS, tmp_path)
        epochs = [json.loads(l)["epoch"] for l in result.metrics_log.read_text().splitlines()]
        assert epochs == [1, 2, 3]

    def test_determinism_of_steps_and_checkpoint(self, tmp_path):
        ds = tiny_dataset(videos=4)
        cfg = TrainConfig(epochs=2, batch_size=2, base_lr=1e-3, warmup_steps=10, seed=9)
        r1 = train(ds, None, ENC, cfg, ANCHORS, tmp_path / "a")
        r2 = train(ds, None, ENC, cfg, ANCHORS, tmp_path / "b")
        s1 = r1.steps_log.read_text().splitlines()[:10]
        s2 = r2.steps_log.read_text().splitlines()[:10]
        assert s1 == s2
        assert r1.last_checkpoint.read_bytes() == r2.last_checkpoint.read_bytes()

    def test_loss_decreases_on_fixed_batch(self):
        ds = tiny_dataset(videos=4)
        aset = build_lattice(ANCHORS)
        batch = next(make_batches(ds, 4, 24, shuffle_seed=0, shuffle=False))
        decreased = False
        for lr in (2e-4, 1e-3):
            cfg = TrainConfig(epochs=1, batch_size=4, base_lr=lr, warmup_steps=1, seed=0)
            model = init_model(ENC, seed=0)
            state = OptimizerState.for_model(model)
            first = last = None
            for step in range(50):
                breakdown, grads = batch_loss_and_grads(model, batch, aset, cfg, train=True)
                adam_step(model.params, grads, state, lr, cfg)
                if first is None:
                    first = breakdown.total
                last = breakdown.total
            if last < first:
                decreased = True
        assert decreased

    def test_checkpoint_round_trip_preserves_eval(self, tmp_path):
        ds = tiny_dataset(videos=2)
        cfg = TrainConfig(epochs=1, batch_size=2, base_lr=1e-3, warmup_steps=10, seed=0)
        result = train(ds, ds, ENC, cfg, ANCHORS, tmp_path)
        model = load_checkpoint(result.last_checkpoint)
        batch = next(make_batches(ds, 2, 24, shuffle_seed=0, shuffle=False))
        a = model.forward_batch(batch.video, batch.text, batch.text_mask)
        model2 = load_checkpoint(result.last_checkpoint)
        b = model2.forward_batch(batch.video, batch.text, batch.text_mask)
        for x, y in zip(a[:2], b[:2]):
            np.testing.assert_array_equal(x, y)

    def test_scale_count_mismatch_rejected(self, tmp_path):
        ds = tiny_dataset(videos=2)
        bad = AnchorConfig(scales=(0.1,), num_frames=24)
        with pytest.raises(ValueError):
            train(ds, None, ENC, TrainConfig(seed=0), bad, tmp_path)
