"""Shared fixtures for the encoder gradient checks, and scalar oracles for
the array-native proposal path."""

import numpy as np

from nlqground.core import FrameGrid, TimeSpan, Units, index_to_sec, iou
from nlqground.data import Batch
from nlqground.trainer import batch_loss_and_grads


def training_loss_fn(batch, anchor_set, train_config):
    """Wrap the full training objective as a gradcheck-compatible callable."""
    def fn(model):
        breakdown, grads = batch_loss_and_grads(model, batch, anchor_set, train_config, train=False)
        return breakdown.total, grads
    return fn


def tiny_training_batch(T=8, L=4, seed=9):
    """Two items whose ground truths make both anchor scales positive, so
    every head column receives gradient."""
    rng = np.random.default_rng(seed)
    return Batch(
        video=rng.normal(size=(2, T, 5)),
        video_mask=np.ones((2, T), bool),
        text=rng.normal(size=(2, L, 3)),
        text_mask=np.array([[True] * L, [True] * (L - 1) + [False]]),
        gt_index=np.array([[3.0, 5.0], [1.0, 7.0]]),
        grids=[FrameGrid(T, float(T))] * 2,
        query_ids=["a", "b"],
        video_ids=["va", "vb"],
    )


def brute_force_decode(index_spans, grid):
    """Index-unit spans mapped to seconds one validated TimeSpan at a time,
    as (start, end) pairs."""
    secs = [index_to_sec(TimeSpan(s, e, Units.INDEX), grid) for s, e in index_spans]
    return [(t.start, t.end) for t in secs]


def brute_force_selection(spans, scores, k, nms_iou):
    """The object path's selection rule from scalars: sort every proposal by
    (-score, start, index), run greedy NMS with scalar `core.iou` over the
    full list (none when nms_iou is 0), then take the first k.  Returns the
    selected indices."""
    props = [(TimeSpan(float(s), float(e)), float(c), i)
             for i, ((s, e), c) in enumerate(zip(spans, scores))]
    ranked = sorted(props, key=lambda p: (-p[1], p[0].start, p[2]))
    if nms_iou > 0:
        kept = []
        for p in ranked:
            if all(iou(p[0], q[0]) <= nms_iou for q in kept):
                kept.append(p)
        ranked = kept
    return [p[2] for p in ranked[:k]]
