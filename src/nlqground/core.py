"""Interval primitives: time spans, the seconds <-> frame-index maps, and IoU.

Everything downstream (anchors, decoding, NMS, metrics) is built on the
closed interval [start, end].  Spans carry a unit tag so that seconds and
frame-index coordinates can never be mixed silently.  All arithmetic is
64-bit and pure.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class Units(str, enum.Enum):
    SECONDS = "seconds"
    INDEX = "index"


class UnitMismatchError(ValueError):
    """Two spans with different unit tags were combined."""


class OutOfRangeError(ValueError):
    """A span lies outside the coordinate range it is being mapped from."""


@dataclass(frozen=True)
class TimeSpan:
    """A closed interval [start, end] in seconds or frame-index units.

    Invariants: 0 <= start <= end.  Zero-length spans are legal (they arise
    from fully clipped anchors) but always have IoU 0 against everything,
    including themselves.
    """

    start: float
    end: float
    units: Units = Units.SECONDS

    def __post_init__(self):
        if not (np.isfinite(self.start) and np.isfinite(self.end)):
            raise ValueError(f"span endpoints must be finite, got [{self.start}, {self.end}]")
        if self.start < 0:
            raise ValueError(f"span start must be >= 0, got {self.start}")
        if self.start > self.end:
            raise ValueError(f"span start {self.start} exceeds end {self.end}")

    @property
    def length(self) -> float:
        return self.end - self.start


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


def iou(a: TimeSpan, b: TimeSpan) -> float:
    """Intersection over union of two spans sharing a unit tag.

    Returns 0 when the union has zero length, so two identical zero-length
    spans score 0 rather than NaN.
    """
    if a.units != b.units:
        raise UnitMismatchError(f"cannot compute IoU across units: {a.units.value} vs {b.units.value}")
    inter = min(a.end, b.end) - max(a.start, b.start)
    if inter <= 0.0:
        return 0.0
    union = (a.end - a.start) + (b.end - b.start) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def iou_batch(spans: np.ndarray, ref_start: float, ref_end: float) -> np.ndarray:
    """Vectorized IoU of an (N, 2) span array against one reference interval.

    Unit bookkeeping is the caller's responsibility; this is the hot path
    behind anchor labeling and NMS.
    """
    spans = np.asarray(spans, dtype=np.float64)
    inter = np.minimum(spans[:, 1], ref_end) - np.maximum(spans[:, 0], ref_start)
    inter = np.maximum(inter, 0.0)
    union = (spans[:, 1] - spans[:, 0]) + (ref_end - ref_start) - inter
    out = np.zeros(len(spans), dtype=np.float64)
    np.divide(inter, union, out=out, where=union > 0)
    return out


def sec_to_index(span: TimeSpan, grid: FrameGrid) -> TimeSpan:
    """Map a seconds span onto the continuous [0, T] frame-index axis.

    Linear map t_idx = t_sec / duration * T, clamped to [0, T].  Index
    coordinates stay continuous so fractional ground-truth boundaries
    survive the conversion.
    """
    if span.units != Units.SECONDS:
        raise UnitMismatchError(f"sec_to_index expects a seconds span, got {span.units.value}")
    if span.end > grid.duration_sec:
        raise OutOfRangeError(
            f"span [{span.start}, {span.end}] exceeds video duration {grid.duration_sec}"
        )
    scale = grid.num_frames / grid.duration_sec
    lo = min(max(span.start * scale, 0.0), float(grid.num_frames))
    hi = min(max(span.end * scale, 0.0), float(grid.num_frames))
    return TimeSpan(lo, hi, Units.INDEX)


def index_to_sec(span: TimeSpan, grid: FrameGrid) -> TimeSpan:
    """Inverse of sec_to_index (exact up to floating rounding)."""
    if span.units != Units.INDEX:
        raise UnitMismatchError(f"index_to_sec expects an index span, got {span.units.value}")
    if span.end > grid.num_frames:
        raise OutOfRangeError(
            f"span [{span.start}, {span.end}] exceeds frame count {grid.num_frames}"
        )
    scale = grid.duration_sec / grid.num_frames
    lo = min(max(span.start * scale, 0.0), grid.duration_sec)
    hi = min(max(span.end * scale, 0.0), grid.duration_sec)
    return TimeSpan(lo, hi, Units.SECONDS)
