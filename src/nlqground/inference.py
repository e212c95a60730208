"""Turning head outputs into ranked second-unit proposals.

Offsets are anchor-relative and scaled by the anchor's own window, so the
regression head stays O(1) across scales:

    start = clamp(anchor_start + d_s * w_k, 0, T)
    end   = clamp(anchor_end   + d_e * w_k, 0, T)

Inverted spans are repaired by endpoint swap.  Proposals are (N, 2) float64
spans in seconds plus a score vector, ranked by (-score, start, index).
Greedy NMS (not part of the original selection rule, which just takes top-5)
runs before top-k, stopping at k kept, so the top-5 are not near-duplicates
of the best proposal.  Re-ranking adds external score channels onto the
confidence.  The JSON-lines readers name `path:line` for a malformed line
or a channel score that is not a finite number, and `_checked_proposal`
names the query, rank and key of a bad proposal.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .anchors import AnchorConfig, AnchorSet, build_lattice
from .core import FrameGrid, index_to_sec, iou_batch
from .nn.model import GroundingModel


class ChannelAlignmentError(ValueError):
    """A re-rank channel's score list does not align with the proposals."""


@dataclass(frozen=True)
class RerankChannel:
    name: str
    scores: list[float]
    weight: float = 1.0


def _rank(spans: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Indices by (-score, start, index): the order every selection step uses."""
    return np.lexsort((np.arange(len(scores)), spans[:, 0], -scores))


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------


def decode_index_spans(offsets: np.ndarray, anchors: AnchorSet):
    """Shared decode core in index units.

    offsets: (T, 2K) raw head outputs.  Returns (spans (K*T, 2) in t-major /
    k-minor order, backward) where backward maps d(span)/d(offset) back to
    the (T, 2K) layout, honoring clamping (zero gradient) and endpoint swaps
    (permuted gradient).
    """
    cfg = anchors.config
    T, K = cfg.num_frames, cfg.num_scales
    if offsets.shape != (T, 2 * K):
        raise ValueError(f"offsets shape {offsets.shape} != expected ({T}, {2 * K})")
    widths = np.tile(np.asarray(anchors.window_sizes, dtype=np.float64), T)[:, None]
    d = np.asarray(offsets, dtype=np.float64).reshape(T * K, 2)
    raw = anchors.spans + d * widths
    clamped = np.clip(raw, 0.0, float(T))
    swap = clamped[:, 0] > clamped[:, 1]
    spans = clamped.copy()
    spans[swap] = spans[swap][:, ::-1]
    low_clip = raw <= 0.0
    high_clip = raw >= float(T)
    active = ~(low_clip | high_clip)

    def backward(d_spans: np.ndarray) -> np.ndarray:
        g = np.asarray(d_spans, dtype=np.float64).copy()
        g[swap] = g[swap][:, ::-1]  # route gradients back through the swap
        g *= active
        g *= widths
        return g.reshape(T, 2 * K)

    return spans, backward


def decode_proposals(confidence: np.ndarray, offsets: np.ndarray, anchors: AnchorSet,
                     grid: FrameGrid) -> tuple[np.ndarray, np.ndarray]:
    """All K*T anchors of one item's head outputs (confidence (T, K), offsets
    (T, 2K)) decoded to seconds: ((K*T, 2) spans, (K*T,) scores), in t-major /
    k-minor order."""
    cfg = anchors.config
    T, K = cfg.num_frames, cfg.num_scales
    if confidence.shape != (T, K):
        raise ValueError(f"confidence shape {confidence.shape} != expected ({T}, {K})")
    if grid.num_frames != T:
        raise ValueError(f"grid has {grid.num_frames} frames but anchors expect {T}")
    spans, _ = decode_index_spans(offsets, anchors)
    conf = np.asarray(confidence, dtype=np.float64).reshape(T * K)
    return index_to_sec(spans, grid), conf


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------


def nms(spans: np.ndarray, scores: np.ndarray, iou_threshold: float, k: int) -> np.ndarray:
    """Greedy suppression, stopped once k proposals are kept: walk proposals
    in rank order and keep one iff its IoU with every kept proposal is
    <= threshold.  Greedy never revisits a choice, so the first k kept are
    exactly full NMS followed by top-k.  Returns kept indices in rank order.
    """
    if not (0.0 < iou_threshold <= 1.0):
        raise ValueError(f"NMS threshold must lie in (0, 1], got {iou_threshold}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    kept: list[int] = []
    for i in _rank(spans, scores).tolist():
        if not kept or iou_batch(spans[kept], spans[i, 0], spans[i, 1]).max() <= iou_threshold:
            kept.append(i)
            if len(kept) == k:
                break
    return np.asarray(kept, dtype=np.intp)


def top_k(spans: np.ndarray, scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k best proposals, in rank order."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return _rank(spans, scores)[:k]


def select_proposals(spans: np.ndarray, scores: np.ndarray, k: int, nms_iou: float) -> np.ndarray:
    """Indices of the ranked top-k after NMS; nms_iou = 0 means no suppression."""
    keep = nms(spans, scores, nms_iou, k) if nms_iou > 0 else np.arange(len(scores))
    return keep[top_k(spans[keep], scores[keep], k)]


def rerank(scores: list[float], channels: list[RerankChannel]) -> tuple[list[int], list[float]]:
    """Additive score fusion: final = score + sum_c weight_c * score_c.

    Returns the new rank order (positions into `scores`) and the fused
    scores in that order.  The sort is stable, so all-tie channels leave the
    order unchanged.
    """
    for ch in channels:
        if len(ch.scores) != len(scores):
            raise ChannelAlignmentError(
                f"channel {ch.name!r} has {len(ch.scores)} scores for {len(scores)} proposals")
    fused = []
    for i, score in enumerate(scores):
        final = float(score)
        for ch in channels:
            final += ch.weight * float(ch.scores[i])
        fused.append(final)
    order = sorted(range(len(fused)), key=lambda i: -fused[i])
    return order, [fused[i] for i in order]


# ---------------------------------------------------------------------------
# dataset-level prediction
# ---------------------------------------------------------------------------


def predict_dataset(
    model: GroundingModel,
    dataset,
    anchor_config: AnchorConfig,
    topk: int = 5,
    nms_iou: float = 0.5,
    batch_size: int = 32,
) -> list[tuple[str, str, np.ndarray, np.ndarray]]:
    """Ranked top-k proposals for every query in a dataset (eval mode).

    nms_iou = 0 is the sentinel for "no suppression".  Returns
    (query_id, video_id, spans (k, 2) in seconds, scores (k,)) in
    annotation order.
    """
    from .data import make_batches  # local import; data is I/O-layer, no cycle

    anchor_set = build_lattice(anchor_config)
    results = {}
    for batch in make_batches(dataset, batch_size, anchor_config.num_frames,
                              shuffle_seed=0, shuffle=False):
        conf, offs, _ = model.forward_batch(batch.video, batch.text, batch.text_mask, train=False)
        for j, qid in enumerate(batch.query_ids):
            spans, scores = decode_proposals(conf[j], offs[j], anchor_set, batch.grids[j])
            keep = select_proposals(spans, scores, topk, nms_iou)
            results[qid] = (batch.video_ids[j], spans[keep], scores[keep])
    return [(qid, *results[qid]) for qid in (a.query_id for a in dataset.annotations)]


# ---------------------------------------------------------------------------
# wire formats
# ---------------------------------------------------------------------------


def json_record(query_id: str, video_id: str, spans: np.ndarray, scores: np.ndarray) -> dict:
    """One predictions-file object; `.tolist()` keeps each float's exact repr."""
    return {"query_id": query_id, "video_id": video_id,
            "proposals": [{"start_sec": s, "end_sec": e, "score": c}
                          for (s, e), c in zip(spans.tolist(), scores.tolist())]}


def write_predictions(path, records: list[dict]) -> None:
    """JSON-lines, one `json_record`-shaped object per query."""
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(rec) + "\n")


def _read_jsonl(path, keys: tuple[str, ...], list_key: str) -> list[tuple[int, dict]]:
    """The (line number, object) pairs of a JSON-lines file, blank lines
    skipped.  Invalid JSON, a line that is not an object, a missing key or a
    non-list `list_key` is a ValueError naming path:line."""
    records = []
    for ln, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}:{ln}: invalid JSON: {e}") from e
        if not isinstance(rec, dict):
            raise ValueError(f"{path}:{ln}: expected a JSON object")
        for key in keys:
            if key not in rec:
                raise ValueError(f"{path}:{ln}: missing key {key!r}")
        if not isinstance(rec[list_key], list):
            raise ValueError(f"{path}:{ln}: {list_key!r} must be a list")
        records.append((ln, rec))
    return records


def read_predictions(path) -> list[dict]:
    """JSON-lines {"query_id", "proposals": [...]} objects, in file order."""
    return [rec for _, rec in _read_jsonl(path, ("query_id", "proposals"), "proposals")]


def _is_finite_number(v) -> bool:
    """True for a JSON number that is finite as a float; bools are not numbers."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an integer too large for a float
        return False


def _checked_proposal(query_id, rank: int, proposal) -> list:
    """[start_sec, end_sec, score] of a predictions-file proposal: finite
    numbers with 0 <= start_sec <= end_sec, or a ValueError naming the query,
    the rank and the key."""
    keys = ("start_sec", "end_sec", "score")
    values = [proposal.get(key) if isinstance(proposal, dict) else None for key in keys]
    for key, v in zip(keys, values):
        if not _is_finite_number(v):
            raise ValueError(f"query {query_id!r} rank {rank}: {key!r} is missing or not a finite number")
    if not 0 <= values[0] <= values[1]:
        raise ValueError(f"query {query_id!r} rank {rank}: span {values[:2]} "
                         "breaks 0 <= 'start_sec' <= 'end_sec'")
    return values


def read_channel_file(path) -> dict[str, list[float]]:
    """JSON-lines {"query_id", "channel", "scores"}; returns query -> scores.
    A score that is not a finite number is a ValueError naming path:line and
    its index."""
    scores_by_query = {}
    for ln, rec in _read_jsonl(path, ("query_id", "channel", "scores"), "scores"):
        scores = rec["scores"]
        try:  # one pass over well-formed scores; `type` rules out bools
            values = [float(v) for v in scores if type(v) in (int, float)]
        except OverflowError:  # an integer too large for a float
            values = []
        if len(values) != len(scores) or not all(map(math.isfinite, values)):
            i, bad = next((i, v) for i, v in enumerate(scores) if not _is_finite_number(v))
            raise ValueError(f"{path}:{ln}: scores[{i}] is {bad!r}, not a finite number")
        scores_by_query[rec["query_id"]] = values
    return scores_by_query

