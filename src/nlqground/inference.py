"""Turning head outputs into ranked second-unit proposals.

Offsets are anchor-relative and scaled by the anchor's own window, so the
regression head stays O(1) across scales:

    start = clamp(anchor_start + d_s * w_k, 0, T)
    end   = clamp(anchor_end   + d_e * w_k, 0, T)

Inverted spans are repaired by endpoint swap.  Decode takes a whole batch;
each query's proposals are then (N, 2) float64 spans in seconds plus a
score vector, ranked by (-score, start, index).
Selection is one greedy NMS walk in that rank order, stopped at k kept, so
the top-5 are not near-duplicates of the best proposal (the original rule
just takes the top 5).  `InferenceOptions` holds k and the IoU threshold;
a threshold of 0 means no suppression and runs the walk at threshold 1,
which keeps every proposal because no IoU exceeds 1, so it is plain top-k.
Re-ranking adds weighted score channels onto the scores.  A prediction is
one `Record` from decode to file and back, and only this module knows the
file's keys.  The JSON-lines readers read every
JSON number as a float and check each file as one float64 array, with NaN
for a value that is not a number; they name `path:line` for a malformed
line, a non-string or repeated query id, a channel score that is not a
finite number, or a bad proposal (with its query, rank and key).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

import numpy as np

from .anchors import AnchorConfig, build_lattice
from .core import index_to_sec, iou_batch, require_int, require_number
from .data import make_batches
from .nn.model import GroundingModel


# (query_id, video_id, spans (k, 2) float64 seconds, scores (k,) float64), rank order
Record = tuple[str, str, np.ndarray, np.ndarray]

# The JSON-lines readers' decoder: every JSON number reads as a float (an
# integer too large for one reads as inf), and a bool stays a bool.  Built
# once, as `json.loads(line, parse_int=float)` would build one per line.
_DECODER = json.JSONDecoder(parse_int=float)
_PROPOSAL_KEYS = ("start_sec", "end_sec", "score")
_NOT_A_PROPOSAL = (None, None, None)


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------


def decode_index_spans(offsets: np.ndarray, lattice: AnchorConfig):
    """Shared decode core in index units, for a batch.

    offsets: (B, T, 2K) raw head outputs.  Returns (spans (B, K*T, 2) in
    t-major / k-minor order, backward) where backward maps d(span)/d(offset)
    (B, K*T, 2) back to the (B, T, 2K) layout, honoring clamping (zero
    gradient) and endpoint swaps (permuted gradient).
    """
    T, K = lattice.num_frames, len(lattice.scales)
    if offsets.shape[1:] != (T, 2 * K):
        raise ValueError(f"offsets shape {offsets.shape} != expected (B, {T}, {2 * K})")
    B = offsets.shape[0]
    widths = np.tile(np.asarray(lattice.scales) * T, T)[:, None]  # unclipped w_k per anchor
    raw = build_lattice(lattice) + np.asarray(offsets, dtype=np.float64).reshape(B, T * K, 2) * widths
    spans = np.clip(raw, 0.0, float(T))
    swap = spans[..., 0] > spans[..., 1]
    spans[swap] = spans[swap][:, ::-1]
    active = (raw > 0.0) & (raw < float(T))

    def backward(d_spans: np.ndarray) -> np.ndarray:
        g = np.array(d_spans, dtype=np.float64)
        g[swap] = g[swap][:, ::-1]  # route gradients back through the swap
        g *= active
        g *= widths
        return g.reshape(B, T, 2 * K)

    return spans, backward


def decode_proposals(confidence: np.ndarray, offsets: np.ndarray, lattice: AnchorConfig,
                     durations) -> tuple[np.ndarray, np.ndarray]:
    """A batch of head outputs (confidence (B, T, K), offsets (B, T, 2K))
    decoded to seconds on videos of `durations` (B,) seconds: ((B, K*T, 2)
    spans, (B, K*T) scores), each row in t-major / k-minor order."""
    T, K = lattice.num_frames, len(lattice.scales)
    B = len(offsets)
    if confidence.shape != (B, T, K):
        raise ValueError(f"confidence shape {confidence.shape} != expected ({B}, {T}, {K})")
    spans, _ = decode_index_spans(offsets, lattice)
    conf = np.asarray(confidence, dtype=np.float64).reshape(B, T * K)
    return index_to_sec(spans, T, np.asarray(durations)[:, None]), conf


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------


def nms(spans: np.ndarray, scores: np.ndarray, iou_threshold: float, k: int) -> np.ndarray:
    """Greedy suppression, stopped once k proposals are kept: walk proposals
    in rank order (-score, start, index) and keep one iff its IoU with every
    kept proposal is <= threshold.  Greedy never revisits a choice, so the
    first k kept are exactly full NMS followed by top-k.  Returns kept
    indices in rank order.
    """
    if not (0.0 < iou_threshold <= 1.0):
        raise ValueError(f"NMS threshold must lie in (0, 1], got {iou_threshold}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    kept: list[int] = []
    for i in np.lexsort((np.arange(len(scores)), spans[:, 0], -scores)).tolist():
        if not kept or iou_batch(spans[kept], spans[i]).max() <= iou_threshold:
            kept.append(i)
            if len(kept) == k:
                break
    return np.asarray(kept, dtype=np.intp)


def rerank(scores: np.ndarray, channels: list[tuple[np.ndarray, float]]):
    """Additive score fusion: fused = score + sum_c weight_c * score_c, the
    channels (scores (k,) aligned with `scores`, weight) added in order.

    Returns the new rank order (positions into `scores`) and the fused
    scores in that order.  The sort is stable, so all-tie channels leave the
    order unchanged.
    """
    fused = np.array(scores, dtype=np.float64)
    for channel, weight in channels:
        fused += weight * channel
    order = np.argsort(-fused, kind="stable")
    return order, fused[order]


# ---------------------------------------------------------------------------
# dataset-level prediction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InferenceOptions:
    """How `predict_dataset` selects each query's proposals: the `top_k`
    first kept by greedy NMS at IoU threshold `nms_iou`, where 0 means no
    suppression (NMS at threshold 1)."""

    top_k: int = 5
    nms_iou: float = 0.5

    def __post_init__(self):
        require_int(self, "top_k", 1)
        require_number(self, "nms_iou", "[0, 1]")


def predict_dataset(model: GroundingModel, dataset, options: InferenceOptions = InferenceOptions(),
                    batch_size: int = 32) -> list[Record]:
    """Ranked proposals, selected by `options`, for every query in a
    dataset (eval mode), on the anchor lattice the model was trained for.

    Each batch encodes each of its distinct videos once, whatever the number
    of queries about it.  Returns one record per query, in annotation order.
    """
    records = []
    for batch in make_batches(dataset, batch_size, model.config.anchors.num_frames,
                              shuffle_seed=None):
        conf, offs, _ = model.forward_batch(batch.videos, batch.video_rows, batch.text,
                                            batch.text_mask, train=False)
        spans, scores = decode_proposals(conf, offs, model.config.anchors, batch.durations)
        for qid, vid, item_spans, item_scores in zip(batch.query_ids, batch.video_ids, spans, scores):
            keep = nms(item_spans, item_scores, options.nms_iou or 1.0, options.top_k)
            records.append((qid, vid, item_spans[keep], item_scores[keep]))
    return records


# ---------------------------------------------------------------------------
# wire formats
# ---------------------------------------------------------------------------


def write_predictions(path, records: list[Record]) -> None:
    """JSON-lines, one object per record; `.tolist()` keeps each float's exact repr."""
    with open(path, "w", encoding="utf-8") as f:
        for qid, vid, spans, scores in records:
            f.write(json.dumps({"query_id": qid, "video_id": vid, "proposals": [
                {"start_sec": s, "end_sec": e, "score": c}
                for (s, e), c in zip(spans.tolist(), scores.tolist())]}) + "\n")


def _read_jsonl(path, keys: tuple[str, ...], list_key: str) -> list[tuple[int, dict]]:
    """The (line number, object) pairs of a JSON-lines file, blank lines
    skipped, every JSON number read as a float.  A file that is not UTF-8
    text is a ValueError naming path; invalid JSON, a line that
    is not an object, a missing key, a non-list `list_key`, a `query_id` or
    `video_id` that is not a string, or a `query_id` seen on an earlier line
    is a ValueError naming path:line."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: not UTF-8 text: {e}") from e
    records, first_line = [], {}
    for ln, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            rec = _DECODER.decode(line)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}:{ln}: invalid JSON: {e}") from e
        if not isinstance(rec, dict):
            raise ValueError(f"{path}:{ln}: expected a JSON object")
        for key in keys:
            if key not in rec:
                raise ValueError(f"{path}:{ln}: missing key {key!r}")
        if not isinstance(rec[list_key], list):
            raise ValueError(f"{path}:{ln}: {list_key!r} must be a list")
        for key in ("query_id", "video_id"):
            if key in rec and not isinstance(rec[key], str):
                raise ValueError(f"{path}:{ln}: {key!r} must be a string")
        qid = rec["query_id"]
        if qid in first_line:
            raise ValueError(f"{path}:{ln}: query_id {qid!r} repeats line {first_line[qid]}")
        first_line[qid] = ln
        records.append((ln, rec))
    return records


def _item_at(lines, list_key: str, row: int) -> tuple[int, dict, int]:
    """(line number, object, 0-based position) of the flat `row`-th item of
    the `list_key` lists of `lines`."""
    for ln, rec in lines:
        if row < len(rec[list_key]):
            return ln, rec, row
        row -= len(rec[list_key])


def _per_line(table: np.ndarray, lines, list_key: str) -> list[np.ndarray]:
    """`table`, whose rows are the `list_key` items of `lines` in order, cut into one slice per line."""
    bounds = list(accumulate((len(rec[list_key]) for _, rec in lines), initial=0))
    return [table[a:b] for a, b in zip(bounds, bounds[1:])]


def read_predictions(path) -> list[Record]:
    """The records of a predictions file, in file order (a missing
    `video_id` reads as ""), all proposals checked at once: finite
    numbers with 0 <= start_sec <= end_sec, or a ValueError naming path:line,
    the query, the rank and the key of the first offender."""
    lines = _read_jsonl(path, ("query_id", "proposals"), "proposals")
    table = np.array([v if type(v) is float else math.nan  # a bool, string, None, ... is NaN
                      for _, rec in lines for p in rec["proposals"]
                      for v in ((p.get("start_sec"), p.get("end_sec"), p.get("score"))
                                if type(p) is dict else _NOT_A_PROPOSAL)],
                     dtype=np.float64).reshape(-1, 3)
    finite = np.isfinite(table)
    ok = finite.all(axis=1) & (0 <= table[:, 0]) & (table[:, 0] <= table[:, 1])
    if not ok.all():
        row = int(ok.argmin())
        ln, rec, i = _item_at(lines, "proposals", row)
        where = f"{path}:{ln}: query {rec['query_id']!r} rank {i + 1}"
        if not finite[row].all():
            key = _PROPOSAL_KEYS[int(finite[row].argmin())]
            raise ValueError(f"{where}: {key!r} is missing or not a finite number")
        raise ValueError(f"{where}: span {table[row, :2].tolist()} "
                         "breaks 0 <= 'start_sec' <= 'end_sec'")
    return [(rec["query_id"], rec.get("video_id", ""), rows[:, :2], rows[:, 2])
            for (_, rec), rows in zip(lines, _per_line(table, lines, "proposals"))]


def read_channel_file(path) -> dict[str, np.ndarray]:
    """JSON-lines {"query_id", "channel", "scores"}; returns query -> float64
    scores.  A score that is not a finite number is a ValueError naming
    path:line and its index."""
    lines = _read_jsonl(path, ("query_id", "channel", "scores"), "scores")
    table = np.array([v if type(v) is float else math.nan for _, rec in lines for v in rec["scores"]],
                     dtype=np.float64)
    finite = np.isfinite(table)
    if not finite.all():
        ln, rec, i = _item_at(lines, "scores", int(finite.argmin()))
        raise ValueError(f"{path}:{ln}: scores[{i}] is {rec['scores'][i]!r}, not a finite number")
    return {rec["query_id"]: scores for (_, rec), scores in zip(lines, _per_line(table, lines, "scores"))}
