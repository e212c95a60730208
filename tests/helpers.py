"""Shared fixtures for the encoder gradient checks, anchor-lattice lookups,
textbook kernels, and oracles for the array-native span path: IoU, the
seconds <-> frame-index maps, decode and selection one (start, end) pair at
a time, and the training objective one batch item at a time."""

import json
import math
import struct

import numpy as np

from nlqground.core import OutOfRangeError
from nlqground.data import Batch
from nlqground.nn.layers import MASK_NEG
from nlqground.trainer import batch_loss_and_grads


def training_loss_fn(batch, anchor_set, train_config):
    """Wrap the full training objective as a gradcheck-compatible callable."""
    def fn(model):
        record, grads = batch_loss_and_grads(model, batch, anchor_set, train_config, train=False)
        return record["loss"], grads
    return fn


def dropout_training_loss_fn(batch, anchor_set, train_config, seed=0):
    """The training objective in train mode, with the dropout generator
    reseeded before every forward so each call draws the same masks."""
    def fn(model):
        model._dropout_rng = np.random.default_rng(seed)
        record, grads = batch_loss_and_grads(model, batch, anchor_set, train_config, train=True)
        return record["loss"], grads
    return fn


def assert_bitwise_equal(a, b):
    """Same dtype, shape and bits (so -0.0 != 0.0 and NaN payloads count)."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    bits = {4: np.uint32, 8: np.uint64}[a.dtype.itemsize]
    np.testing.assert_array_equal(a.view(bits), b.view(bits))


# Textbook kernels: each allocates a fresh array per step and keeps a float
# dropout mask.  The in-place kernels must match them bit for bit.

def textbook_masked_softmax(scores, key_mask):
    bias = np.where(key_mask[:, None, None, :], 0.0, MASK_NEG).astype(scores.dtype)
    z = scores + bias
    z -= z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def textbook_softmax_backward(dp, p):
    return p * (dp - np.sum(dp * p, axis=-1, keepdims=True))


def textbook_dropout_forward(x, rate, rng, train):
    """Keep where a little-endian uint16 draw is at least round(rate * 65536);
    scale kept values by 65536 / (65536 - cut) in x's dtype."""
    if not train or rate == 0.0:
        return x, None
    cut = round(rate * 65536)
    draws = np.frombuffer(rng.bytes(2 * x.size), dtype="<u2").reshape(x.shape)
    mask = (draws >= cut).astype(x.dtype) * np.asarray(65536 / (65536 - cut), dtype=x.dtype)
    return x * mask, mask


def textbook_dropout_backward(dy, mask):
    return dy if mask is None else dy * mask


def erf_gelu(x):
    """The exact GELU, x * Phi(x), in float64."""
    phi = 0.5 * (1.0 + np.vectorize(math.erf)(np.asarray(x, np.float64) / math.sqrt(2.0)))
    return x * phi, phi


def edit_checkpoint_header(path, edit):
    """Rewrite a saved checkpoint's JSON header through `edit`, keeping the
    payload."""
    blob = path.read_bytes()
    (n,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16:16 + n])
    edit(header)
    raw = json.dumps(header).encode("utf-8")
    path.write_bytes(blob[:8] + struct.pack("<Q", len(raw)) + raw + blob[16 + n:])


def tiny_training_batch(T=8, L=4, seed=9):
    """Two items whose ground truths make both anchor scales positive, so
    every head column receives gradient."""
    rng = np.random.default_rng(seed)
    return Batch(
        video=rng.normal(size=(2, T, 5)),
        text=rng.normal(size=(2, L, 3)),
        text_mask=np.array([[True] * L, [True] * (L - 1) + [False]]),
        gt_index=np.array([[3.0, 5.0], [1.0, 7.0]]),
        durations=np.full(2, float(T)),
        query_ids=["a", "b"],
        video_ids=["va", "vb"],
    )


def flat_index(anchors, t, k):
    """Row of anchor (t, k) in the t-major / k-minor lattice."""
    return t * anchors.config.num_scales + k


def scalar_iou(a, b):
    """IoU of two (start, end) pairs; 0 when the intersection or the union
    has no length."""
    inter = min(a[1], b[1]) - max(a[0], b[0])
    if inter <= 0.0:
        return 0.0
    union = (a[1] - a[0]) + (b[1] - b[0]) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def scalar_sec_to_index(start, end, num_frames, duration):
    """A seconds span on the continuous [0, T] index axis of a video of
    `duration` seconds: t * (T / duration), clamped to [0, T]."""
    if not 0.0 <= start <= end <= duration:
        raise OutOfRangeError(f"span [{start}, {end}] outside [0, {duration}]")
    scale = num_frames / duration
    t = float(num_frames)
    return min(max(start * scale, 0.0), t), min(max(end * scale, 0.0), t)


def scalar_index_to_sec(start, end, num_frames, duration):
    """An index span in seconds: t * (duration / T), clamped to
    [0, duration]."""
    if not 0.0 <= start <= end <= num_frames:
        raise OutOfRangeError(f"span [{start}, {end}] outside [0, {num_frames}]")
    scale = duration / num_frames
    return min(max(start * scale, 0.0), duration), min(max(end * scale, 0.0), duration)


def brute_force_decode(index_spans, num_frames, duration):
    """Index-unit spans mapped to seconds one pair at a time."""
    return [scalar_index_to_sec(s, e, num_frames, duration) for s, e in index_spans]


def per_item_decode(offsets, anchors):
    """One item's (T, 2K) offsets decoded to (K*T, 2) index spans, plus the
    swap and clamp masks that route the gradient back."""
    T, K = anchors.config.num_frames, anchors.config.num_scales
    widths = np.tile(np.asarray(anchors.window_sizes, dtype=np.float64), T)[:, None]
    raw = anchors.spans + np.asarray(offsets, dtype=np.float64).reshape(T * K, 2) * widths
    clamped = np.clip(raw, 0.0, float(T))
    swap = clamped[:, 0] > clamped[:, 1]
    spans = clamped.copy()
    spans[swap] = spans[swap][:, ::-1]
    clamp = (raw <= 0.0) | (raw >= float(T))
    return spans, swap, clamp, widths


def per_item_objective(conf, offs, gt_index, anchors, config):
    """The training objective one batch item at a time: labels from
    `scalar_iou`, the per-item decode, and both loss terms with their
    gradients written out per item.

    Returns a dict: 'd_conf' (B, T, K) and 'd_offs' (B, T, 2K), the float64
    upstream gradients of the batch-mean loss; per-item 'align' and 'box'
    values; and the counts 'forced' (promoted rows), 'swaps' and 'clamps'
    (decoded endpoints)."""
    B, T, K = conf.shape
    beta, mu = config.smooth_l1_beta, config.mu
    out = {"d_conf": np.zeros(conf.shape), "d_offs": np.zeros(offs.shape),
           "align": [], "box": [], "forced": 0, "swaps": 0, "clamps": 0}
    for j in range(B):
        gt = gt_index[j].tolist()
        o = np.array([scalar_iou(a, gt) for a in anchors.spans.tolist()])
        positive = o > config.positive_threshold
        if not positive.any():
            positive[int(np.argmax(o))] = True
            out["forced"] += 1
        s = conf[j].reshape(T * K).astype(np.float64)
        out["align"].append(float(-np.mean(o * np.log(s) + (1.0 - o) * np.log1p(-s))))
        out["d_conf"][j] = ((s - o) / (o.size * s * (1.0 - s)) / B).reshape(T, K)

        spans, swap, clamp, widths = per_item_decode(offs[j], anchors)
        out["swaps"] += int(swap.sum())
        out["clamps"] += int(clamp.sum())
        n_pos = int(positive.sum())
        d_spans = np.zeros((T * K, 2))
        box = 0.0
        for c in (0, 1):
            x = (spans[positive, c] - gt[c]) / T
            ax = np.abs(x)
            box += np.where(ax < beta, 0.5 * np.square(x) / beta, ax - 0.5 * beta).sum()
            d_spans[positive, c] = np.where(ax < beta, x / beta, np.sign(x)) / (T * n_pos)
        out["box"].append(float(box / n_pos))
        g = d_spans * (mu / B)
        g[swap] = g[swap][:, ::-1]
        g *= ~clamp
        g *= widths
        out["d_offs"][j] = g.reshape(T, 2 * K)
    return out


def brute_force_selection(spans, scores, k, nms_iou):
    """The selection rule from scalars: sort every proposal by
    (-score, start, index), run greedy NMS with `scalar_iou` over the full
    list (none when nms_iou is 0), then take the first k.  Returns the
    selected indices."""
    props = [((float(s), float(e)), float(c), i)
             for i, ((s, e), c) in enumerate(zip(spans, scores))]
    ranked = sorted(props, key=lambda p: (-p[1], p[0][0], p[2]))
    if nms_iou > 0:
        kept = []
        for p in ranked:
            if all(scalar_iou(p[0], q[0]) <= nms_iou for q in kept):
                kept.append(p)
        ranked = kept
    return [p[2] for p in ranked[:k]]
