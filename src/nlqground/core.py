"""Interval primitives: the seconds <-> frame-index maps and IoU, over
closed intervals [start, end] held in the last axis of float64 arrays
(..., 2).  A video's timeline is its T sampled frames spread uniformly over
its duration in seconds; the maps take T and the durations as arrays, one
duration per span row.  Ground truth enters index units once, in
`data.make_batches`, and decoded proposals return to seconds once, in
`inference.decode_proposals`.

The module also holds the config rules: the integer and number rules the
config dataclasses apply to their fields, and the one builder that makes a
config dataclass from JSON, for the run config and the checkpoint header.
"""

from __future__ import annotations

import dataclasses

import numpy as np


class OutOfRangeError(ValueError):
    """A span lies outside the coordinate range it is being mapped from."""


def require_int(config, name: str, minimum: int) -> None:
    """The config integer rule: `config.<name>` is an int >= minimum (not 2.0, not a bool)."""
    value = getattr(config, name)
    if type(value) is not int or value < minimum:
        raise ValueError(f"{name!r} must be an integer >= {minimum}, got {value!r}")


def require_number(config, name: str, interval: str) -> None:
    """The config number rule: `config.<name>` is an int or a float (not a
    bool, not a string) inside `interval`, written like "[0, 1)" or
    "(0, inf)"; NaN lies inside none."""
    value = getattr(config, name)
    lo, hi = (float(bound) for bound in interval[1:-1].split(","))
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not (lo < value or (interval[0] == "[" and value == lo))
            or not (value < hi or (interval[-1] == "]" and value == hi))):
        raise ValueError(f"{name!r} must be a number in {interval}, got {value!r}")


def config_from_json(cls, obj, where: str, exact: bool = False, **fixed):
    """The config dataclass `cls` from the JSON object `obj` plus the
    `fixed` fields, which `obj` may not set.  A field whose default is a
    dataclass is built from its own object the same way.  Fields `obj`
    leaves out keep their defaults, unless `exact` requires every one.
    Every refusal is a ValueError naming `where` and the key."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object, got {obj!r}")
    defaults = {f.name: f.default for f in dataclasses.fields(cls) if f.name not in fixed}
    for key in obj:
        if key not in defaults:
            raise ValueError(f"{where}: unknown key {key!r}")
    missing = [key for key in defaults if exact and key not in obj]
    if missing:
        raise ValueError(f"{where}: key {missing[0]!r} missing")
    values = {key: config_from_json(type(defaults[key]), value, f"{where}.{key}", exact)
              if dataclasses.is_dataclass(defaults[key]) else value
              for key, value in obj.items()}
    try:
        return cls(**values, **fixed)
    except (TypeError, ValueError) as e:
        raise ValueError(f"{where}: {e}") from e


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
