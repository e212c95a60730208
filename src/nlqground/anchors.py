"""Multi-scale anchor lattice over the sampled frame axis, plus IoU labeling.

Every temporal index t in {0, ..., T-1} carries K candidate windows centered
at the frame midpoint t + 0.5, one per scale.  Scales are proportions of the
sequence length, so anchor widths track T.  Labeling assigns each anchor its
IoU against ground truth (the soft confidence target) and a positive flag
used by the boundary loss, for a whole batch at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import OutOfRangeError, iou_batch, require_int


@dataclass(frozen=True)
class AnchorConfig:
    """Anchor scales (proportions of T, strictly increasing) and frame count."""

    scales: tuple[float, ...] = (0.01, 0.03)
    num_frames: int = 600

    def __post_init__(self):
        if not isinstance(self.scales, (list, tuple)) or any(
                isinstance(s, bool) or not isinstance(s, (int, float)) for s in self.scales):
            raise ValueError(f"'scales' must be a list of numbers, got {self.scales!r}")
        object.__setattr__(self, "scales", tuple(float(s) for s in self.scales))
        if len(self.scales) == 0:
            raise ValueError("at least one anchor scale is required")
        if any(not (0.0 < s <= 1.0) for s in self.scales):
            raise ValueError(f"scales must lie in (0, 1], got {self.scales}")
        if any(b <= a for a, b in zip(self.scales, self.scales[1:])):
            raise ValueError(f"scales must be strictly increasing, got {self.scales}")
        require_int(self, "num_frames", 1)


def build_lattice(config: AnchorConfig) -> np.ndarray:
    """The clipped (K*T, 2) float64 index-unit anchor spans of one video,
    t-major / k-minor: row t * K + k is [c - w_k/2, c + w_k/2] with
    c = t + 0.5 and w_k = scales[k] * T, truncated to [0, T]."""
    T = config.num_frames
    K = len(config.scales)
    widths = np.array([s * T for s in config.scales], dtype=np.float64)
    centers = np.arange(T, dtype=np.float64) + 0.5
    starts = centers[:, None] - widths[None, :] / 2.0
    ends = centers[:, None] + widths[None, :] / 2.0
    spans = np.stack([starts, ends], axis=-1).reshape(K * T, 2)
    return np.clip(spans, 0.0, float(T), out=spans)


def label_anchors(lattice: AnchorConfig, gt_index, threshold: float):
    """IoU targets and positivity of every anchor of `lattice` against each
    row of a batch of index-unit ground truths gt_index (B, 2).

    Returns (iou_targets (B, K*T) float64, positive (B, K*T) bool,
    forced (B,) bool).  An anchor is positive iff its IoU exceeds
    `threshold` strictly.  In a row where no anchor clears the bar, the
    single best anchor is promoted so the boundary-loss normalizer N_pos
    stays nonzero; `forced` marks those rows.
    """
    gt = np.asarray(gt_index, dtype=np.float64)
    T = lattice.num_frames
    ok = (0.0 <= gt[:, 0]) & (gt[:, 0] <= gt[:, 1]) & (gt[:, 1] <= T)
    if not ok.all():
        raise OutOfRangeError(
            f"ground truths {gt[~ok].tolist()} lie outside lattice extent [0, {T}]")
    targets = iou_batch(build_lattice(lattice), gt[:, None, :])
    positive = targets > threshold
    forced = ~positive.any(axis=1)
    positive[forced, np.argmax(targets[forced], axis=1)] = True
    return targets, positive, forced
