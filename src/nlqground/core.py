"""Interval primitives: the frame grid, the seconds <-> frame-index maps,
and IoU, over closed intervals [start, end] held as rows of (N, 2) float64
arrays.  Ground truth enters index units once, in `data.make_batches`, and
decoded proposals return to seconds once, in `inference.decode_proposals`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class OutOfRangeError(ValueError):
    """A span lies outside the coordinate range it is being mapped from."""


@dataclass(frozen=True)
class FrameGrid:
    """The sampled timeline: T key frames spread uniformly over duration_sec."""

    num_frames: int
    duration_sec: float

    def __post_init__(self):
        if self.num_frames < 2:
            raise ValueError(f"num_frames must be >= 2, got {self.num_frames}")
        if not (self.duration_sec > 0):
            raise ValueError(f"duration_sec must be > 0, got {self.duration_sec}")


def iou_batch(spans: np.ndarray, ref_start, ref_end) -> np.ndarray:
    """Intersection over union of each row of an (N, 2) span array against a
    reference interval: one [ref_start, ref_end] for all rows, or (N,)
    arrays of them, one per row.

    A pair whose union has zero length scores 0 rather than NaN, so a
    zero-length span (a fully clipped anchor) has IoU 0 against everything,
    itself included.
    """
    spans = np.asarray(spans, dtype=np.float64)
    inter = np.minimum(spans[:, 1], ref_end) - np.maximum(spans[:, 0], ref_start)
    inter = np.maximum(inter, 0.0)
    union = (spans[:, 1] - spans[:, 0]) + (ref_end - ref_start) - inter
    out = np.zeros(len(spans), dtype=np.float64)
    np.divide(inter, union, out=out, where=union > 0)
    return out


def sec_to_index(spans, num_frames: int, durations) -> np.ndarray:
    """Map (N, 2) seconds spans onto the continuous [0, T] frame-index axis,
    row i on a video of durations[i] seconds.

    Linear map t_idx = t_sec * (T / duration), clamped to [0, T].  Index
    coordinates stay continuous so fractional ground-truth boundaries
    survive the conversion.  Rows outside 0 <= start <= end <= duration
    (NaN included) are an OutOfRangeError naming them.
    """
    spans = np.asarray(spans, dtype=np.float64)
    durations = np.asarray(durations, dtype=np.float64)
    ok = (0.0 <= spans[:, 0]) & (spans[:, 0] <= spans[:, 1]) & (spans[:, 1] <= durations)
    if not ok.all():
        raise OutOfRangeError(f"spans {spans[~ok].tolist()} lie outside [0, video duration]")
    return np.clip(spans * (num_frames / durations)[:, None], 0.0, float(num_frames))


def index_to_sec(spans: np.ndarray, grid: FrameGrid) -> np.ndarray:
    """Map (N, 2) frame-index spans back to seconds on `grid`, clamped to
    [0, duration]: the inverse of sec_to_index up to rounding.  An endpoint
    outside [0, T] (NaN and infinities included) is an OutOfRangeError."""
    if not ((0.0 <= spans) & (spans <= grid.num_frames)).all():
        raise OutOfRangeError(
            f"span endpoints must be finite and lie within [0, {grid.num_frames}]")
    return np.clip(spans * (grid.duration_sec / grid.num_frames), 0.0, grid.duration_sec)
