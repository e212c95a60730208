"""Optimization loop: Adam with linear-warmup inverse-square-root scheduling,
per-step loss assembly, per-epoch validation, and checkpoint retention.

Per step: on glibc, hand free heap memory past 64 MiB back to the OS;
forward in train mode; then, for the whole batch in array operations, label
every anchor against its item's ground truth, decode offsets to index spans
and take the alignment and boundary terms with their gradients; backprop by
hand, and apply a clipped Adam update at the scheduled rate.  TrainConfig checks every field's range when it is built.  Per epoch: evaluate R@{1,5} / IoU@{0.3,0.5} on the
validation split in eval mode, append one JSON line to the metric log, and
keep the best checkpoint by val R@1 at IoU 0.5.
"""

from __future__ import annotations

import ctypes
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import losses
from .anchors import label_anchors
from .core import require_int, require_number
from .data import Batch, Dataset, make_batches
from .evaluation import evaluate
from .inference import InferenceOptions, decode_index_spans, predict_dataset
from .nn import EncoderConfig, GroundingModel, init_model, save_checkpoint


class _MallInfo2(ctypes.Structure):  # glibc's struct mallinfo2
    _fields_ = [(name, ctypes.c_size_t) for name in ("arena", "ordblks", "smblks", "hblks",
                "hblkhd", "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")]


# glibc keeps freed heap blocks resident for reuse and moves its mmap
# threshold up to the largest block freed (32 MiB at most).  A T=600 step
# frees 12-46 MiB attention caches, so where each step put them hung on what
# earlier steps and calls had left in the heap, and one pipeline's peak RSS
# read about 370 or 415 MB from run to run.  With fixed thresholds, blocks
# of 8 MiB or more get their own mappings, and free heap memory past
# `_HEAP_SLACK` is handed back to the OS before each step.
_HEAP_SLACK = 64 << 20
try:
    _libc = ctypes.CDLL(None)
    _libc.mallopt(-3, 8 << 20)  # M_MMAP_THRESHOLD
    _libc.mallopt(-1, _HEAP_SLACK)  # M_TRIM_THRESHOLD
    _libc.mallinfo2.restype = _MallInfo2
except (AttributeError, OSError, TypeError):  # not glibc
    _libc = None


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
        for name in ("epochs", "batch_size", "warmup_steps", "seed"):
            require_int(self, name, 0 if name == "seed" else 1)
        for name, interval in (
            ("base_lr", "(0, inf)"), ("mu", "[0, inf)"), ("positive_threshold", "[0, 1)"),
            ("smooth_l1_beta", "(0, inf)"), ("adam_beta1", "[0, 1)"), ("adam_beta2", "[0, 1)"),
            ("adam_eps", "(0, inf)"), ("grad_clip_norm", "[0, inf)"),
        ):
            require_number(self, name, interval)


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
    config: TrainConfig,
):
    """Train-mode forward, combined objective, and parameter gradients for one batch.

    Returns (record, param_grads), where record holds the step-log fields:
    the batch means 'align' and 'box', 'loss' = align + mu * box, and
    'forced_positives', the number of items whose best anchor was promoted.
    The box term only sees each item's positive anchors, with residuals
    normalized by T.
    """
    conf, offs, cache = model.forward_batch(batch.videos, batch.video_rows, batch.text,
                                            batch.text_mask, train=True)
    B, T, K = conf.shape
    lattice = model.config.anchors
    targets, positive, forced = label_anchors(lattice, batch.gt_index, config.positive_threshold)
    spans, decode_back = decode_index_spans(offs, lattice)
    align, d_conf = losses.alignment_loss(targets, conf.reshape(B, T * K))
    box, d_spans = losses.boundary_loss(spans, batch.gt_index, positive,
                                        config.smooth_l1_beta, norm=float(T))
    grads, _, _ = model.backward(cache, (d_conf / B).reshape(B, T, K),
                                 decode_back(d_spans * (config.mu / B)))
    align, box = float(align.mean()), float(box.mean())
    return {"loss": align + config.mu * box, "align": align, "box": box,
            "forced_positives": int(forced.sum())}, grads


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


def train(
    train_data: Dataset,
    val_data: Dataset | None,
    encoder_config: EncoderConfig,
    train_config: TrainConfig,
    out_dir,
    inference: InferenceOptions = InferenceOptions(),
) -> TrainResult:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics_path = out_dir / "metrics.jsonl"
    steps_path = out_dir / "steps.jsonl"
    best_path = out_dir / "checkpoint_best.nlqc"
    last_path = out_dir / "checkpoint_last.nlqc"

    model = init_model(encoder_config, seed=train_config.seed)
    state = OptimizerState.for_model(model)

    best_r1 = -1.0
    step = 0
    with open(metrics_path, "w", encoding="utf-8") as mlog, \
         open(steps_path, "w", encoding="utf-8") as slog:
        for epoch in range(1, train_config.epochs + 1):
            epoch_align = 0.0
            epoch_box = 0.0
            nbatches = 0
            for batch in make_batches(train_data, train_config.batch_size,
                                      encoder_config.anchors.num_frames,
                                      shuffle_seed=train_config.seed, epoch=epoch):
                step += 1
                if _libc is not None and _libc.mallinfo2().fordblks > _HEAP_SLACK:
                    _libc.malloc_trim(0)
                step_record, grads = batch_loss_and_grads(model, batch, train_config)
                if not math.isfinite(step_record["loss"]):
                    raise DivergenceError(f"non-finite loss at step {step}")
                lr = lr_at(step, train_config)
                adam_step(model.params, grads, state, lr, train_config)
                epoch_align += step_record["align"]
                epoch_box += step_record["box"]
                nbatches += 1
                slog.write(json.dumps({"step": step, "epoch": epoch, "lr": lr, **step_record}) + "\n")

            record = {
                "epoch": epoch,
                "loss_align": epoch_align / nbatches,
                "loss_box": epoch_box / nbatches,
            }
            if val_data is not None:
                predictions = predict_dataset(model, val_data, inference, train_config.batch_size)
                report = evaluate(predictions, val_data.annotations)
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
