"""Training objective: confidence/IoU alignment, boundary regression, and
their weighted combination.

Alignment is a soft-target cross-entropy over all K*T anchors (targets are
raw IoU values, not binarized).  The boundary term is a smooth-L1 penalty on
start/end coordinates of positive anchors, normalized by the frame count so
its scale is independent of T.  Gradient helpers are provided alongside the
values because the encoder stack is differentiated by hand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CONFIDENCE_EPS = 1e-7
DEFAULT_SMOOTH_L1_BETA = 1.0


class NoPositivesError(ValueError):
    """Boundary loss invoked with an empty positive set (N_pos = 0)."""


@dataclass(frozen=True)
class LossBreakdown:
    align: float
    box: float
    total: float
    mu: float
    num_forced: int = 0  # ground truths whose best anchor was force-promoted


def alignment_loss(iou_targets: np.ndarray, confidences: np.ndarray) -> float:
    """Mean cross-entropy between predicted confidences and soft IoU targets.

    -(1/KT) sum_i [o_i log s_i + (1 - o_i) log(1 - s_i)], with confidences
    clamped to [eps, 1 - eps] defensively.
    """
    o = np.asarray(iou_targets, dtype=np.float64)
    s = np.asarray(confidences, dtype=np.float64)
    if o.size == 0:
        raise ValueError("alignment_loss requires at least one anchor")
    if o.shape != s.shape:
        raise ValueError(f"shape mismatch: targets {o.shape} vs confidences {s.shape}")
    s = np.clip(s, CONFIDENCE_EPS, 1.0 - CONFIDENCE_EPS)
    return float(-np.mean(o * np.log(s) + (1.0 - o) * np.log1p(-s)))


def alignment_loss_grad(iou_targets: np.ndarray, confidences: np.ndarray) -> np.ndarray:
    """d(alignment_loss)/d(confidence): (s - o) / (KT * s * (1 - s)).

    Zero where the clamp is active, matching the exact subgradient of the
    clamped loss.
    """
    o = np.asarray(iou_targets, dtype=np.float64)
    s = np.asarray(confidences, dtype=np.float64)
    clamped = (s < CONFIDENCE_EPS) | (s > 1.0 - CONFIDENCE_EPS)
    sc = np.clip(s, CONFIDENCE_EPS, 1.0 - CONFIDENCE_EPS)
    g = (sc - o) / (o.size * sc * (1.0 - sc))
    g[clamped] = 0.0
    return g


def smooth_l1(x: float | np.ndarray, beta: float = DEFAULT_SMOOTH_L1_BETA):
    """Huber-style penalty: quadratic inside |x| < beta, linear outside."""
    if not (beta > 0):
        raise ValueError(f"beta must be positive, got {beta}")
    ax = np.abs(x)
    out = np.where(ax < beta, 0.5 * np.square(x) / beta, ax - 0.5 * beta)
    return float(out) if np.isscalar(x) else out


def smooth_l1_grad(x: np.ndarray, beta: float = DEFAULT_SMOOTH_L1_BETA) -> np.ndarray:
    if not (beta > 0):
        raise ValueError(f"beta must be positive, got {beta}")
    return np.where(np.abs(x) < beta, np.asarray(x) / beta, np.sign(x))


def boundary_loss(
    pred_spans: np.ndarray,
    gt_start: float,
    gt_end: float,
    positive_mask: np.ndarray,
    beta: float = DEFAULT_SMOOTH_L1_BETA,
    norm: float = 1.0,
) -> float:
    """Smooth-L1 penalty on start/end coordinates, averaged over positives.

    pred_spans is (N, 2) in index units; residuals are divided by `norm`
    (typically T) before the penalty so the loss is scale-free.
    """
    mask = np.asarray(positive_mask, dtype=bool)
    n_pos = int(mask.sum())
    if n_pos == 0:
        raise NoPositivesError("boundary loss undefined with zero positive anchors")
    spans = np.asarray(pred_spans, dtype=np.float64)[mask]
    ds = (spans[:, 0] - gt_start) / norm
    de = (spans[:, 1] - gt_end) / norm
    return float((smooth_l1(ds, beta).sum() + smooth_l1(de, beta).sum()) / n_pos)


def boundary_loss_grad(
    pred_spans: np.ndarray,
    gt_start: float,
    gt_end: float,
    positive_mask: np.ndarray,
    beta: float = DEFAULT_SMOOTH_L1_BETA,
    norm: float = 1.0,
) -> np.ndarray:
    """d(boundary_loss)/d(pred_spans), shape (N, 2); zero at non-positives."""
    mask = np.asarray(positive_mask, dtype=bool)
    n_pos = int(mask.sum())
    if n_pos == 0:
        raise NoPositivesError("boundary loss undefined with zero positive anchors")
    spans = np.asarray(pred_spans, dtype=np.float64)
    grad = np.zeros_like(spans)
    ds = (spans[mask, 0] - gt_start) / norm
    de = (spans[mask, 1] - gt_end) / norm
    grad[mask, 0] = smooth_l1_grad(ds, beta) / (norm * n_pos)
    grad[mask, 1] = smooth_l1_grad(de, beta) / (norm * n_pos)
    return grad


def total_loss(align: float, box: float, mu: float, num_forced: int = 0) -> LossBreakdown:
    """Combine the two terms: total = align + mu * box."""
    if align < 0 or box < 0:
        raise ValueError(f"loss terms must be nonnegative, got align={align}, box={box}")
    if mu < 0:
        raise ValueError(f"mu must be nonnegative, got {mu}")
    return LossBreakdown(
        align=float(align),
        box=float(box),
        total=float(align + mu * box),
        mu=float(mu),
        num_forced=num_forced,
    )
