import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nlqground.trainer
from nlqground.anchors import AnchorConfig
from nlqground.cli import run as cli_run
from nlqground.data import Batch, SyntheticSpec, generate_synthetic, make_batches, save_dataset
from nlqground.inference import InferenceOptions, predict_dataset, write_predictions
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
from helpers import assert_bitwise_equal, per_item_objective

ENC = EncoderConfig(hidden_dim=16, num_heads=2, intra_layers=1, cross_layers=2,
                    video_input_dim=8, text_input_dim=4, dropout_rate=0.1,
                    anchors=AnchorConfig(scales=(0.1, 0.3), num_frames=24))


def tiny_dataset(seed=1, videos=4):
    return generate_synthetic(SyntheticSpec(
        num_videos=videos, frames_per_video=48, feature_dim=8, text_dim=4,
        tokens_per_query=3, queries_per_video=1,
        span_fraction_range=(0.1, 0.25), noise_sigma=0.3, seed=seed))


class TestTrainConfig:
    @pytest.mark.parametrize("field, bad", [
        ("mu", -0.1), ("positive_threshold", 1.0), ("positive_threshold", -0.1),
        ("smooth_l1_beta", 0.0), ("adam_beta1", 1.0), ("adam_beta1", -0.1),
        ("adam_beta2", 1.0), ("adam_eps", 0.0), ("grad_clip_norm", -1.0),
        ("grad_clip_norm", math.inf), ("base_lr", 0.0),
        *[(f, math.nan) for f in ("mu", "positive_threshold", "smooth_l1_beta", "adam_beta1",
                                  "adam_beta2", "adam_eps", "grad_clip_norm", "base_lr")],
        ("mu", False), ("base_lr", True), ("adam_eps", "1e-8"), ("grad_clip_norm", [1.0]),
        ("mu", math.inf), ("base_lr", math.inf),
    ])
    def test_rejects_out_of_range_field(self, field, bad):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: bad})

    def test_edges_accepted(self):
        TrainConfig(mu=0.0, positive_threshold=0.0, adam_beta1=0.0, adam_beta2=0.0,
                    grad_clip_norm=0.0)


def check_against_per_item_oracle(B, T, K, gt_index, threshold, offset_gain, seed):
    """batch_loss_and_grads against `per_item_objective` on a float32 model
    whose regression head is scaled by offset_gain: the upstream gradients,
    the parameter gradients and the forced count bit for bit, the logged
    losses to summation order.  Returns the oracle's output."""
    rng = np.random.default_rng(seed)
    scales = (0.25,) if K == 1 else (0.125, 0.5)
    enc = EncoderConfig(hidden_dim=8, num_heads=2, intra_layers=1, cross_layers=1,
                        video_input_dim=5, text_input_dim=4, dropout_rate=0.1,
                        anchors=AnchorConfig(scales=scales, num_frames=T))
    model = init_model(enc, seed=seed)
    for name in ("reg_head.w2", "reg_head.b2"):
        model.params[name] *= np.float32(offset_gain)
    config = TrainConfig(mu=2.5, positive_threshold=threshold, smooth_l1_beta=0.02, seed=0)
    batch = Batch(videos=rng.normal(size=(B, T, 5)), video_rows=np.arange(B),
                  text=rng.normal(size=(B, 3, 4)),
                  text_mask=np.ones((B, 3), dtype=bool), gt_index=gt_index,
                  durations=np.full(B, float(T)), query_ids=list("abcd"[:B]),
                  video_ids=list("abcd"[:B]))

    upstream = {}
    backward = model.backward
    def spy(cache, d_conf, d_offs):
        upstream.update(d_conf=d_conf, d_offs=d_offs)
        return backward(cache, d_conf, d_offs)
    model.backward = spy
    # each forward draws the same dropout masks from a reseeded generator
    model._dropout_rng = np.random.default_rng(seed)
    record, grads = batch_loss_and_grads(model, batch, config)

    model._dropout_rng = np.random.default_rng(seed)
    conf, offs, cache = model.forward_batch(batch.videos, batch.video_rows, batch.text,
                                            batch.text_mask, train=True)
    oracle = per_item_objective(conf, offs, batch.gt_index, enc.anchors, config)
    assert_bitwise_equal(upstream["d_conf"], oracle["d_conf"])
    assert_bitwise_equal(upstream["d_offs"], oracle["d_offs"])
    expect, _, _ = backward(cache, oracle["d_conf"], oracle["d_offs"])
    assert grads.keys() == expect.keys()
    for name in grads:
        assert_bitwise_equal(grads[name], expect[name])
    assert record["forced_positives"] == oracle["forced"]
    # another summation order moves a float64 sum of <= 64 terms by < 1e-14 relative
    assert record["align"] == pytest.approx(np.mean(oracle["align"]), rel=1e-14)
    assert record["box"] == pytest.approx(np.mean(oracle["box"]), rel=1e-14)
    assert record["loss"] == record["align"] + config.mu * record["box"]
    return oracle


_ROW = st.tuples(st.floats(0, 1), st.sampled_from([0.0, 0.002, 0.05]) | st.floats(0, 0.6))


class TestBatchObjective:
    def test_fixed_batch_exercises_every_branch(self):
        # slivers force rows; a large offset gain swaps and clamps endpoints
        gt = np.array([[0.0, 0.02], [3.0, 7.5], [15.9, 16.0], [6.0, 6.0]])
        oracle = check_against_per_item_oracle(4, 16, 2, gt, 0.6, 40.0, seed=1)
        assert oracle["forced"] >= 2 and oracle["swaps"] > 0 and oracle["clamps"] > 0

    @given(rows=st.lists(_ROW, min_size=1, max_size=4), T=st.sampled_from([8, 13]),
           K=st.sampled_from([1, 2]), threshold=st.sampled_from([0.0, 0.5, 0.9]) | st.floats(0, 0.99),
           offset_gain=st.sampled_from([0.0, 1.0, 30.0, 300.0]), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_matches_per_item_oracle(self, rows, T, K, threshold, offset_gain, seed):
        gt = np.array([(min(s, 1 - w) * T, (min(s, 1 - w) + w) * T) for s, w in rows])
        check_against_per_item_oracle(len(rows), T, K, np.clip(gt, 0, T), threshold,
                                      offset_gain, seed)


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
        result = train(ds, ds, ENC, cfg, tmp_path)
        assert result.best_checkpoint.exists()
        assert result.last_checkpoint.exists()
        records = [json.loads(l) for l in result.metrics_log.read_text().splitlines()]
        assert len(records) == 1
        assert set(records[0]) == {"epoch", "loss_align", "loss_box",
                                   "R1@0.3", "R1@0.5", "R5@0.3", "R5@0.5"}

    def test_metric_log_epochs_contiguous(self, tmp_path):
        ds = tiny_dataset(videos=2)
        cfg = TrainConfig(epochs=3, batch_size=2, base_lr=1e-3, warmup_steps=10, seed=0)
        result = train(ds, ds, ENC, cfg, tmp_path)
        epochs = [json.loads(l)["epoch"] for l in result.metrics_log.read_text().splitlines()]
        assert epochs == [1, 2, 3]

    def test_determinism_of_steps_and_checkpoint(self, tmp_path):
        ds = tiny_dataset(videos=4)
        cfg = TrainConfig(epochs=2, batch_size=2, base_lr=1e-3, warmup_steps=10, seed=9)
        r1 = train(ds, None, ENC, cfg, tmp_path / "a")
        r2 = train(ds, None, ENC, cfg, tmp_path / "b")
        s1 = r1.steps_log.read_text().splitlines()[:10]
        s2 = r2.steps_log.read_text().splitlines()[:10]
        assert s1 == s2
        assert r1.last_checkpoint.read_bytes() == r2.last_checkpoint.read_bytes()

    def test_heap_trim_before_every_step_changes_no_bit(self, tmp_path, monkeypatch):
        ds = tiny_dataset(videos=4)
        cfg = TrainConfig(epochs=2, batch_size=2, base_lr=1e-3, warmup_steps=10, seed=9)
        r1 = train(ds, None, ENC, cfg, tmp_path / "a")
        monkeypatch.setattr(nlqground.trainer, "_HEAP_SLACK", -1)  # trim before every step
        r2 = train(ds, None, ENC, cfg, tmp_path / "b")
        assert r1.steps_log.read_text() == r2.steps_log.read_text()
        assert r1.last_checkpoint.read_bytes() == r2.last_checkpoint.read_bytes()

    @pytest.mark.parametrize("nms_iou", [0.0, 0.5])
    def test_validation_report_equals_eval_of_written_predictions(self, tmp_path, capsys, nms_iou):
        """The last epoch's logged R@n equal `eval` run on the file that
        `predict_dataset` plus `write_predictions` give for the same model."""
        ds = tiny_dataset(videos=6)
        cfg = TrainConfig(epochs=2, batch_size=2, base_lr=1e-3, warmup_steps=10, seed=0)
        options = InferenceOptions(top_k=5, nms_iou=nms_iou)
        result = train(ds, ds, ENC, cfg, tmp_path / "run", options)
        logged = json.loads(result.metrics_log.read_text().splitlines()[-1])
        records = predict_dataset(load_checkpoint(result.last_checkpoint), ds, options,
                                  batch_size=cfg.batch_size)
        write_predictions(tmp_path / "p.jsonl", records)
        save_dataset(ds, tmp_path / "data")
        assert cli_run(["eval", "--preds", str(tmp_path / "p.jsonl"),
                        "--annotations", str(tmp_path / "data" / "annotations.json")]) == 0
        cells = json.loads(capsys.readouterr().out)["cells"]
        assert {key: logged[key] for key in ("R1@0.3", "R1@0.5", "R5@0.3", "R5@0.5")} == {
            "R1@0.3": cells["R@1,IoU=0.3"], "R1@0.5": cells["R@1,IoU=0.5"],
            "R5@0.3": cells["R@5,IoU=0.3"], "R5@0.5": cells["R@5,IoU=0.5"]}

    def test_loss_decreases_on_fixed_batch(self):
        ds = tiny_dataset(videos=4)
        batch = next(make_batches(ds, 4, 24, shuffle_seed=0, shuffle=False))
        decreased = False
        for lr in (2e-4, 1e-3):
            cfg = TrainConfig(epochs=1, batch_size=4, base_lr=lr, warmup_steps=1, seed=0)
            model = init_model(ENC, seed=0)
            state = OptimizerState.for_model(model)
            first = last = None
            for step in range(50):
                record, grads = batch_loss_and_grads(model, batch, cfg)
                adam_step(model.params, grads, state, lr, cfg)
                if first is None:
                    first = record["loss"]
                last = record["loss"]
            if last < first:
                decreased = True
        assert decreased

    def test_checkpoint_round_trip_preserves_eval(self, tmp_path):
        ds = tiny_dataset(videos=2)
        cfg = TrainConfig(epochs=1, batch_size=2, base_lr=1e-3, warmup_steps=10, seed=0)
        result = train(ds, ds, ENC, cfg, tmp_path)
        model = load_checkpoint(result.last_checkpoint)
        batch = next(make_batches(ds, 2, 24, shuffle_seed=0, shuffle=False))
        a = model.forward_batch(batch.videos, batch.video_rows, batch.text, batch.text_mask)
        model2 = load_checkpoint(result.last_checkpoint)
        b = model2.forward_batch(batch.videos, batch.video_rows, batch.text, batch.text_mask)
        for x, y in zip(a[:2], b[:2]):
            np.testing.assert_array_equal(x, y)
