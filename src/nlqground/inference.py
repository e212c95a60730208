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
confidence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .anchors import AnchorConfig, AnchorSet, build_lattice
from .core import FrameGrid, iou_batch
from .nn.model import GroundingModel, ModelOutput


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


def _index_to_sec(spans: np.ndarray, grid: FrameGrid) -> np.ndarray:
    """`core.index_to_sec` over an (N, 2) array: the same arithmetic, so the
    same bits, and the same refusal of non-finite endpoints."""
    if not np.isfinite(spans).all():
        raise ValueError("decoded span endpoints must be finite")
    return np.clip(spans * (grid.duration_sec / grid.num_frames), 0.0, grid.duration_sec)


def decode_proposals(output: ModelOutput, anchors: AnchorSet,
                     grid: FrameGrid) -> tuple[np.ndarray, np.ndarray]:
    """All K*T anchors decoded to seconds: ((K*T, 2) spans, (K*T,) scores),
    in t-major / k-minor order."""
    cfg = anchors.config
    T, K = cfg.num_frames, cfg.num_scales
    if output.confidence.shape != (T, K):
        raise ValueError(f"confidence shape {output.confidence.shape} != expected ({T}, {K})")
    if grid.num_frames != T:
        raise ValueError(f"grid has {grid.num_frames} frames but anchors expect {T}")
    spans, _ = decode_index_spans(output.offsets, anchors)
    conf = np.asarray(output.confidence, dtype=np.float64).reshape(T * K)
    return _index_to_sec(spans, grid), conf


def softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def decode_anchor_free(output: ModelOutput, grid: FrameGrid) -> tuple[np.ndarray, np.ndarray]:
    """No-manual-anchor variant: one proposal per frame, as ((T, 2) spans in
    seconds, (T,) scores).

    The two raw regression values per frame become nonnegative left/right
    extents via softplus (as fractions of T); the span grows from the frame
    center t + 0.5.
    """
    T = grid.num_frames
    if output.offsets.shape != (T, 2):
        raise ValueError(
            f"anchor-free decode expects (T, 2) offsets, got {output.offsets.shape}")
    if output.confidence.shape[1] != 1:
        raise ValueError(
            f"anchor-free decode expects a single confidence per frame, got {output.confidence.shape}")
    extents = softplus(np.asarray(output.offsets, dtype=np.float64)) * T
    centers = np.arange(T, dtype=np.float64) + 0.5
    spans = np.clip(np.stack([centers - extents[:, 0], centers + extents[:, 1]], axis=1),
                    0.0, float(T))
    conf = np.asarray(output.confidence, dtype=np.float64).reshape(T)
    return _index_to_sec(spans, grid), conf


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
    mode: str = "anchor",
    batch_size: int = 32,
) -> list[tuple[str, str, np.ndarray, np.ndarray]]:
    """Ranked top-k proposals for every query in a dataset (eval mode).

    nms_iou = 0 is the sentinel for "no suppression".  Returns
    (query_id, video_id, spans (k, 2) in seconds, scores (k,)) in
    annotation order.
    """
    from .data import make_batches  # local import; data is I/O-layer, no cycle

    if mode not in ("anchor", "anchor_free"):
        raise ValueError(f"unknown prediction mode {mode!r}")
    if mode == "anchor_free" and model.config.num_scales != 1:
        raise ValueError(
            "anchor-free decoding needs a single-scale head "
            f"(num_scales=1), got {model.config.num_scales}")
    anchor_set = build_lattice(anchor_config)
    results = {}
    for batch in make_batches(dataset, batch_size, anchor_config.num_frames,
                              shuffle_seed=0, shuffle=False):
        conf, offs, fused, _ = model.forward_batch(
            batch.video, batch.video_mask, batch.text, batch.text_mask, train=False)
        for j, qid in enumerate(batch.query_ids):
            out = ModelOutput(confidence=conf[j], offsets=offs[j], fused=fused[j])
            if mode == "anchor":
                spans, scores = decode_proposals(out, anchor_set, batch.grids[j])
            else:
                spans, scores = decode_anchor_free(out, batch.grids[j])
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


def read_predictions(path) -> list[dict]:
    records = []
    for ln, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}:{ln}: invalid JSON: {e}") from e
        for key in ("query_id", "proposals"):
            if key not in rec:
                raise ValueError(f"{path}:{ln}: missing key {key!r}")
        records.append(rec)
    return records


def read_channel_file(path) -> dict[str, list[float]]:
    """JSON-lines {"query_id", "channel", "scores"}; returns query -> scores."""
    out: dict[str, list[float]] = {}
    for ln, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        rec = json.loads(line)
        for key in ("query_id", "channel", "scores"):
            if key not in rec:
                raise ValueError(f"{path}:{ln}: missing key {key!r}")
        out[rec["query_id"]] = [float(s) for s in rec["scores"]]
    return out


def write_channel_file(path, channel: str, scores_by_query: dict[str, list[float]]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for query_id in scores_by_query:
            f.write(json.dumps({
                "query_id": query_id, "channel": channel,
                "scores": scores_by_query[query_id],
            }) + "\n")
