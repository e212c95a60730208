"""Shared fixtures for the encoder gradient checks, anchor-lattice lookups,
textbook attention kernels, and scalar oracles for the array-native
proposal path."""

import numpy as np

from nlqground.core import FrameGrid, TimeSpan, Units, index_to_sec, iou
from nlqground.data import Batch
from nlqground.nn.layers import MASK_NEG
from nlqground.trainer import batch_loss_and_grads


def training_loss_fn(batch, anchor_set, train_config):
    """Wrap the full training objective as a gradcheck-compatible callable."""
    def fn(model):
        breakdown, grads = batch_loss_and_grads(model, batch, anchor_set, train_config, train=False)
        return breakdown.total, grads
    return fn


def dropout_training_loss_fn(batch, anchor_set, train_config, seed=0):
    """The training objective in train mode, with the dropout generator
    reseeded before every forward so each call draws the same masks."""
    def fn(model):
        model._dropout_rng = np.random.default_rng(seed)
        breakdown, grads = batch_loss_and_grads(model, batch, anchor_set, train_config, train=True)
        return breakdown.total, grads
    return fn


def assert_bitwise_equal(a, b):
    """Same dtype, shape and bits (so -0.0 != 0.0 and NaN payloads count)."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    bits = {4: np.uint32, 8: np.uint64}[a.dtype.itemsize]
    np.testing.assert_array_equal(a.view(bits), b.view(bits))


# Textbook attention kernels: each allocates a fresh array per step and
# keeps a float dropout mask.  The in-place kernels must match them bit for bit.

def textbook_masked_softmax(scores, key_mask):
    bias = np.where(key_mask[:, None, None, :], 0.0, MASK_NEG).astype(scores.dtype)
    z = scores + bias
    z -= z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def textbook_softmax_backward(dp, p):
    return p * (dp - np.sum(dp * p, axis=-1, keepdims=True))


def textbook_dropout_forward(x, rate, rng, train):
    if not train or rate == 0.0:
        return x, None
    keep = (rng.random(x.shape) >= rate).astype(x.dtype) / np.asarray(1.0 - rate, dtype=x.dtype)
    return x * keep, keep


def textbook_dropout_backward(dy, mask):
    return dy if mask is None else dy * mask


def tiny_training_batch(T=8, L=4, seed=9):
    """Two items whose ground truths make both anchor scales positive, so
    every head column receives gradient."""
    rng = np.random.default_rng(seed)
    return Batch(
        video=rng.normal(size=(2, T, 5)),
        text=rng.normal(size=(2, L, 3)),
        text_mask=np.array([[True] * L, [True] * (L - 1) + [False]]),
        gt_index=np.array([[3.0, 5.0], [1.0, 7.0]]),
        grids=[FrameGrid(T, float(T))] * 2,
        query_ids=["a", "b"],
        video_ids=["va", "vb"],
    )


def flat_index(anchors, t, k):
    """Row of anchor (t, k) in the t-major / k-minor lattice."""
    return t * anchors.config.num_scales + k


def anchor_span(anchors, i):
    """Lattice row i as a validated index-unit TimeSpan."""
    return TimeSpan(float(anchors.spans[i, 0]), float(anchors.spans[i, 1]), Units.INDEX)


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
