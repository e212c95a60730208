"""Interval primitives: the seconds <-> frame-index maps and IoU, over
closed intervals [start, end] held in the last axis of float64 arrays
(..., 2).  A video's timeline is its T sampled frames spread uniformly over
its duration in seconds; the maps take T and the durations as arrays, one
duration per span row.  Ground truth enters index units once, in
`data.make_batches`, and decoded proposals return to seconds once, in
`inference.decode_proposals`.
"""

from __future__ import annotations

import numpy as np


class OutOfRangeError(ValueError):
    """A span lies outside the coordinate range it is being mapped from."""


def iou_batch(spans, refs) -> np.ndarray:
    """Intersection over union of span arrays (..., 2) against reference
    spans (..., 2), broadcast over the leading axes: one reference for all
    rows, one per row, or every pair of two broadcast axes.

    A pair whose union has zero length scores 0 rather than NaN, so a
    zero-length span (a fully clipped anchor) has IoU 0 against everything,
    itself included.
    """
    spans = np.asarray(spans, dtype=np.float64)
    refs = np.asarray(refs, dtype=np.float64)
    inter = np.minimum(spans[..., 1], refs[..., 1]) - np.maximum(spans[..., 0], refs[..., 0])
    inter = np.maximum(inter, 0.0)
    union = (spans[..., 1] - spans[..., 0]) + (refs[..., 1] - refs[..., 0]) - inter
    out = np.zeros(union.shape, dtype=np.float64)
    np.divide(inter, union, out=out, where=union > 0)
    return out


def sec_to_index(spans, num_frames: int, durations) -> np.ndarray:
    """Map seconds spans (..., 2) onto the continuous [0, T] frame-index
    axis; `durations` broadcasts against the leading axes, so row i of an
    (N, 2) array lies on a video of durations[i] seconds.

    Linear map t_idx = t_sec * (T / duration), clamped to [0, T].  Index
    coordinates stay continuous so fractional ground-truth boundaries
    survive the conversion.  Rows outside 0 <= start <= end <= duration
    (NaN included) are an OutOfRangeError naming them.
    """
    spans = np.asarray(spans, dtype=np.float64)
    durations = np.asarray(durations, dtype=np.float64)
    ok = (0.0 <= spans[..., 0]) & (spans[..., 0] <= spans[..., 1]) & (spans[..., 1] <= durations)
    if not ok.all():
        raise OutOfRangeError(f"spans {spans[~ok].tolist()} lie outside [0, video duration]")
    return np.clip(spans * (num_frames / durations)[..., None], 0.0, float(num_frames))


def index_to_sec(spans, num_frames: int, durations) -> np.ndarray:
    """Map frame-index spans (..., 2) back to seconds, `durations`
    broadcast as in sec_to_index, clamped to [0, duration]: the inverse of
    sec_to_index up to rounding.  An endpoint outside [0, T] (NaN and
    infinities included) is an OutOfRangeError."""
    spans = np.asarray(spans, dtype=np.float64)
    durations = np.asarray(durations, dtype=np.float64)[..., None]
    if not ((0.0 <= spans) & (spans <= num_frames)).all():
        raise OutOfRangeError(f"span endpoints must be finite and lie within [0, {num_frames}]")
    return np.clip(spans * (durations / num_frames), 0.0, durations)
