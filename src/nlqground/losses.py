"""Training objective terms over a batch: confidence/IoU alignment and
boundary regression.

Alignment is a soft-target cross-entropy over all K*T anchors (targets are
raw IoU values, not binarized).  The boundary term is a smooth-L1 penalty on
start/end coordinates of positive anchors, normalized by the frame count so
its scale is independent of T.  Each term returns its per-item values and
its gradient from one pass, because the encoder stack is differentiated by
hand; the trainer averages them over the batch and weights the boundary
term by mu.
"""

from __future__ import annotations

import numpy as np


def alignment_loss(iou_targets, confidences) -> tuple[np.ndarray, np.ndarray]:
    """Per-item cross-entropy between predicted confidences and soft IoU
    targets, both (B, N), and its gradient.

    value_b = -(1/N) sum_i [o_i log s_i + (1 - o_i) log(1 - s_i)], and
    d value_b / d s_i = (s_i - o_i) / (N s_i (1 - s_i)).  Confidences must
    lie strictly inside (0, 1), as `forward_batch` clamps them.
    Returns (values (B,), grad (B, N)).
    """
    o = np.asarray(iou_targets, dtype=np.float64)
    s = np.asarray(confidences, dtype=np.float64)
    if o.shape != s.shape or o.shape[-1] == 0:
        raise ValueError(f"targets {o.shape} and confidences {s.shape} must match, "
                         "with at least one anchor")
    n = o.shape[-1]
    values = -np.mean(o * np.log(s) + (1.0 - o) * np.log1p(-s), axis=-1)
    return values, (s - o) / (n * s * (1.0 - s))


def smooth_l1(x, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Huber-style penalty, quadratic inside |x| < beta and linear outside,
    and its derivative: (value, grad), elementwise."""
    x = np.asarray(x, dtype=np.float64)
    inside = np.abs(x) < beta
    value = np.where(inside, 0.5 * np.square(x) / beta, np.abs(x) - 0.5 * beta)
    return value, np.where(inside, x / beta, np.sign(x))


def boundary_loss(pred_spans, gt_index, positive, beta: float, norm: float):
    """Per-item smooth-L1 penalty on start/end coordinates, averaged over
    each item's positive anchors, and its gradient.

    pred_spans (B, N, 2) and gt_index (B, 2) are in index units; residuals
    are divided by `norm` (typically T) before the penalty so the loss is
    scale-free.  Every row of positive (B, N) needs a positive anchor, as
    `label_anchors` guarantees.  Returns (values (B,), grad (B, N, 2)),
    the gradient zero at non-positives.
    """
    residual = (np.asarray(pred_spans, dtype=np.float64)
                - np.asarray(gt_index, dtype=np.float64)[:, None, :]) / norm
    penalty, d_penalty = smooth_l1(residual, beta)
    n_pos = positive.sum(axis=-1)
    pos = positive[..., None]
    values = np.where(pos, penalty, 0.0).sum(axis=(1, 2)) / n_pos
    return values, np.where(pos, d_penalty, 0.0) / (norm * n_pos)[:, None, None]
