"""Multi-scale anchor lattice over the sampled frame axis, plus IoU labeling.

Every temporal index t in {0, ..., T-1} carries K candidate windows centered
at the frame midpoint t + 0.5, one per scale.  Scales are proportions of the
sequence length, so anchor widths track T.  Labeling assigns each anchor its
IoU against ground truth (the soft confidence target) and a positive flag
used by the boundary loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import OutOfRangeError, TimeSpan, Units, iou_batch

DEFAULT_POSITIVE_THRESHOLD = 0.5


@dataclass(frozen=True)
class AnchorConfig:
    """Anchor scales (proportions of T, strictly increasing) and frame count."""

    scales: tuple[float, ...] = (0.01, 0.03)
    num_frames: int = 600

    def __post_init__(self):
        object.__setattr__(self, "scales", tuple(float(s) for s in self.scales))
        if len(self.scales) == 0:
            raise ValueError("at least one anchor scale is required")
        if any(not (0.0 < s <= 1.0) for s in self.scales):
            raise ValueError(f"scales must lie in (0, 1], got {self.scales}")
        if any(b <= a for a, b in zip(self.scales, self.scales[1:])):
            raise ValueError(f"scales must be strictly increasing, got {self.scales}")
        if self.num_frames < 1:
            raise ValueError(f"num_frames must be positive, got {self.num_frames}")

    @property
    def num_scales(self) -> int:
        return len(self.scales)


@dataclass(frozen=True)
class AnchorSet:
    """The clipped K*T candidate lattice, laid out t-major / k-minor.

    spans[t * K + k] is the anchor for temporal index t at scale k, already
    clipped to [0, T].  window_sizes[k] is the unclipped width r_k * T.
    """

    spans: np.ndarray  # (K*T, 2) float64, index units
    window_sizes: tuple[float, ...]
    config: AnchorConfig

    def __len__(self) -> int:
        return self.spans.shape[0]


@dataclass(frozen=True)
class AnchorLabels:
    """Per-anchor IoU targets plus the positive mask driving the boundary loss."""

    iou_targets: np.ndarray  # (K*T,) float64 in [0, 1]
    positive_mask: np.ndarray  # (K*T,) bool
    num_positives: int
    forced_positive: bool = field(default=False)


def build_lattice(config: AnchorConfig) -> AnchorSet:
    """Construct the clipped anchor lattice for one video.

    Anchor (t, k) is [c - w_k/2, c + w_k/2] with c = t + 0.5 and
    w_k = scales[k] * T, truncated to [0, T].
    """
    T = config.num_frames
    K = config.num_scales
    widths = np.array([s * T for s in config.scales], dtype=np.float64)
    centers = np.arange(T, dtype=np.float64) + 0.5
    starts = centers[:, None] - widths[None, :] / 2.0
    ends = centers[:, None] + widths[None, :] / 2.0
    spans = np.stack([starts, ends], axis=-1).reshape(K * T, 2)
    np.clip(spans, 0.0, float(T), out=spans)
    spans.setflags(write=False)
    return AnchorSet(spans=spans, window_sizes=tuple(widths.tolist()), config=config)


def label_anchors(
    anchors: AnchorSet,
    gt: TimeSpan,
    threshold: float = DEFAULT_POSITIVE_THRESHOLD,
    force_positive: bool = True,
) -> AnchorLabels:
    """IoU targets and positivity of every anchor against one ground truth.

    An anchor is positive iff its IoU exceeds `threshold` strictly.  When no
    anchor clears the bar and `force_positive` is set, the single best anchor
    is promoted so the boundary-loss normalizer N_pos stays nonzero; the
    promotion is reported via `forced_positive`.
    """
    if gt.units != Units.INDEX:
        raise ValueError(f"ground truth must be in index units, got {gt.units.value}")
    T = anchors.config.num_frames
    if gt.end > T:
        raise OutOfRangeError(f"ground truth [{gt.start}, {gt.end}] exceeds lattice extent {T}")
    if not (0.0 <= threshold < 1.0):
        raise ValueError(f"positive threshold must lie in [0, 1), got {threshold}")

    targets = iou_batch(anchors.spans, gt.start, gt.end)
    positive = targets > threshold
    forced = False
    if force_positive and not positive.any():
        positive = positive.copy()
        positive[int(np.argmax(targets))] = True
        forced = True
    positive.setflags(write=False)
    targets.setflags(write=False)
    return AnchorLabels(
        iou_targets=targets,
        positive_mask=positive,
        num_positives=int(positive.sum()),
        forced_positive=forced,
    )
