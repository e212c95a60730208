"""Optimization loop: Adam with linear-warmup inverse-square-root scheduling,
per-step loss assembly, per-epoch validation, and checkpoint retention.

Per step: forward in train mode, label every anchor against its item's
ground truth, decode offsets to index spans, combine the alignment and
boundary terms, backprop by hand, and apply a clipped Adam update at the
scheduled rate.  Per epoch: evaluate R@{1,5} / IoU@{0.3,0.5} on the
validation split in eval mode, append one JSON line to the metric log, and
keep the best checkpoint by val R@1 at IoU 0.5.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import losses
from .anchors import AnchorConfig, AnchorSet, build_lattice, label_anchors
from .data import Batch, Dataset, make_batches
from .evaluation import MetricReport, evaluate
from .inference import decode_index_spans, json_record, predict_dataset
from .nn import EncoderConfig, GroundingModel, init_model, save_checkpoint


class DivergenceError(RuntimeError):
    """Non-finite loss or gradient; carries the global step index."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 32
    base_lr: float = 2e-4
    warmup_steps: int = 1000
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    mu: float = 1.0
    positive_threshold: float = 0.5
    grad_clip_norm: float = 1.0
    smooth_l1_beta: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.warmup_steps < 1:
            raise ValueError("epochs, batch_size and warmup_steps must be >= 1")
        if not (self.base_lr > 0):
            raise ValueError(f"base_lr must be positive, got {self.base_lr}")


def lr_at(step: int, config: TrainConfig) -> float:
    """Linear warmup to base_lr, then inverse-square-root decay; continuous
    at the warmup boundary."""
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    if step <= config.warmup_steps:
        return config.base_lr * step / config.warmup_steps
    return config.base_lr * math.sqrt(config.warmup_steps / step)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


@dataclass
class OptimizerState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step_count: int = 0

    @classmethod
    def for_model(cls, model: GroundingModel) -> "OptimizerState":
        return cls(m=model.zero_grads(), v=model.zero_grads(), step_count=0)


def global_grad_norm(grads: dict[str, np.ndarray]) -> float:
    return math.sqrt(sum(float(np.sum(np.square(g, dtype=np.float64))) for g in grads.values()))


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: OptimizerState,
    lr: float,
    config: TrainConfig,
) -> None:
    """In-place bias-corrected Adam update with global-norm clipping."""
    gnorm = global_grad_norm(grads)
    if not math.isfinite(gnorm):
        raise DivergenceError(f"non-finite gradient at optimizer step {state.step_count + 1}")
    scale = 1.0
    if config.grad_clip_norm > 0 and gnorm > config.grad_clip_norm:
        scale = config.grad_clip_norm / gnorm
    state.step_count += 1
    t = state.step_count
    b1, b2 = config.adam_beta1, config.adam_beta2
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    for name, p in params.items():
        g = np.asarray(grads[name], dtype=p.dtype) * p.dtype.type(scale)
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * np.square(g)
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + config.adam_eps)


# ---------------------------------------------------------------------------
# loss assembly
# ---------------------------------------------------------------------------


def batch_loss_and_grads(
    model: GroundingModel,
    batch: Batch,
    anchor_set: AnchorSet,
    config: TrainConfig,
    train: bool = True,
):
    """Forward, combined objective, and upstream gradients for one batch.

    Returns (breakdown, param_grads).  Per-item losses are averaged over the
    batch; the box term only sees each item's positive anchors, with
    residuals normalized by T.
    """
    T = anchor_set.config.num_frames
    K = anchor_set.config.num_scales
    conf, offs, cache = model.forward_batch(
        batch.video, batch.text, batch.text_mask, train=train, want_cache=True)
    B = conf.shape[0]
    norm = float(T)

    align_sum = 0.0
    box_sum = 0.0
    forced_total = 0
    d_conf = np.zeros_like(conf)
    d_offs = np.zeros_like(offs)
    for j in range(B):
        gt_start, gt_end = batch.gt_index[j].tolist()
        labels = label_anchors(anchor_set, gt_start, gt_end, config.positive_threshold)
        conf_flat = conf[j].reshape(T * K)
        spans, decode_back = decode_index_spans(offs[j], anchor_set)

        align_sum += losses.alignment_loss(labels.iou_targets, conf_flat)
        box_sum += losses.boundary_loss(
            spans, gt_start, gt_end, labels.positive_mask,
            beta=config.smooth_l1_beta, norm=norm)
        forced_total += labels.forced_positive

        d_conf[j] = (losses.alignment_loss_grad(labels.iou_targets, conf_flat) / B).reshape(T, K)
        d_span = losses.boundary_loss_grad(
            spans, gt_start, gt_end, labels.positive_mask,
            beta=config.smooth_l1_beta, norm=norm) * (config.mu / B)
        d_offs[j] = decode_back(d_span)

    breakdown = losses.total_loss(align_sum / B, box_sum / B, config.mu, num_forced=forced_total)
    grads, _, _ = model.backward(cache, d_conf, d_offs)
    return breakdown, grads


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    best_checkpoint: Path
    last_checkpoint: Path
    metrics_log: Path
    steps_log: Path
    best_r1_iou50: float
    epochs_run: int


def _evaluate_split(model, dataset, anchor_config, topk, nms_iou, batch_size) -> MetricReport:
    records = predict_dataset(
        model, dataset, anchor_config, topk=topk, nms_iou=nms_iou, batch_size=batch_size)
    return evaluate([json_record(*r) for r in records], dataset.annotations)


def train(
    train_data: Dataset,
    val_data: Dataset | None,
    encoder_config: EncoderConfig,
    train_config: TrainConfig,
    anchor_config: AnchorConfig,
    out_dir,
    topk: int = 5,
    nms_iou: float = 0.5,
) -> TrainResult:
    if len(anchor_config.scales) != encoder_config.num_scales:
        raise ValueError(
            f"anchor config has {len(anchor_config.scales)} scales but the "
            f"encoder predicts {encoder_config.num_scales}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics_path = out_dir / "metrics.jsonl"
    steps_path = out_dir / "steps.jsonl"
    best_path = out_dir / "checkpoint_best.nlqc"
    last_path = out_dir / "checkpoint_last.nlqc"

    model = init_model(encoder_config, seed=train_config.seed)
    anchor_set = build_lattice(anchor_config)
    state = OptimizerState.for_model(model)
    target_t = anchor_config.num_frames

    best_r1 = -1.0
    step = 0
    with open(metrics_path, "w", encoding="utf-8") as mlog, \
         open(steps_path, "w", encoding="utf-8") as slog:
        for epoch in range(1, train_config.epochs + 1):
            epoch_align = 0.0
            epoch_box = 0.0
            nbatches = 0
            for batch in make_batches(train_data, train_config.batch_size, target_t,
                                      shuffle_seed=train_config.seed, epoch=epoch):
                step += 1
                breakdown, grads = batch_loss_and_grads(model, batch, anchor_set, train_config)
                if not math.isfinite(breakdown.total):
                    raise DivergenceError(f"non-finite loss at step {step}")
                lr = lr_at(step, train_config)
                adam_step(model.params, grads, state, lr, train_config)
                epoch_align += breakdown.align
                epoch_box += breakdown.box
                nbatches += 1
                slog.write(json.dumps({
                    "step": step, "epoch": epoch, "lr": lr,
                    "loss": breakdown.total, "align": breakdown.align, "box": breakdown.box,
                    "forced_positives": breakdown.num_forced,
                }) + "\n")

            record = {
                "epoch": epoch,
                "loss_align": epoch_align / nbatches,
                "loss_box": epoch_box / nbatches,
            }
            if val_data is not None:
                report = _evaluate_split(model, val_data, anchor_config,
                                         topk, nms_iou, train_config.batch_size)
                record.update({
                    "R1@0.3": report.recalls[(1, 0.3)], "R1@0.5": report.recalls[(1, 0.5)],
                    "R5@0.3": report.recalls[(5, 0.3)], "R5@0.5": report.recalls[(5, 0.5)],
                })
                r1 = report.recalls[(1, 0.5)]
            else:
                r1 = -math.inf
            mlog.write(json.dumps(record) + "\n")
            mlog.flush()

            save_checkpoint(model, last_path)
            if r1 > best_r1 or (val_data is None and epoch == train_config.epochs):
                best_r1 = r1
                save_checkpoint(model, best_path)

    return TrainResult(
        best_checkpoint=best_path, last_checkpoint=last_path,
        metrics_log=metrics_path, steps_log=steps_path,
        best_r1_iou50=best_r1, epochs_run=train_config.epochs,
    )
