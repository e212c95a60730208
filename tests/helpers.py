"""Shared fixtures for the encoder gradient checks, the finite-difference
gradient checker, anchor-lattice lookups, textbook kernels, the untiled
attention, the per-row forward, and oracles for the array-native span path:
IoU, the seconds <-> frame-index maps, decode and selection one
(start, end) pair at a time, the training objective one batch item at a
time, and the predictions and channel readers one value at a time."""

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from nlqground.anchors import build_lattice
from nlqground.core import OutOfRangeError
from nlqground.data import Batch
from nlqground.nn import CONF_EPS, GroundingModel, InvalidStateError, sinusoidal_positions
from nlqground.nn.layers import (
    MASK_NEG,
    gelu_forward,
    layer_norm_forward,
    linear_backward,
    linear_forward,
    sigmoid,
)
from nlqground.trainer import POSITIVE_THRESHOLD, SMOOTH_L1_BETA, batch_loss_and_grads


def training_loss_fn(batch, train_config, seed=0):
    """The full training objective as a gradcheck-compatible callable, with
    the dropout generator reseeded before every forward so each call draws
    the same masks (none at dropout rate 0)."""
    def fn(model):
        model._dropout_rng = np.random.default_rng(seed)
        record, grads = batch_loss_and_grads(model, batch, train_config)
        return record["loss"], grads
    return fn


# Central finite differences against the hand-written backward.  Meaningful
# only in float64; float32 rounding drowns the signal at usable step sizes.

REL_ERR_FLOOR = 1e-8


@dataclass(frozen=True)
class GradCheckReport:
    max_rel_error: float
    worst_parameter: str
    num_checked: int
    tolerance: float


def num_parameters(model):
    return sum(p.size for p in model.params.values())


def to_dtype(model, dtype):
    """Copy of the model with its parameters cast to `dtype`."""
    dt = np.dtype(dtype)
    return GroundingModel(config=model.config, rng_seed=model.rng_seed,
                          params={k: v.astype(dt) for k, v in model.params.items()})


def _sample_coordinates(model, num_samples, seed):
    """At least `num_samples` flat coordinates, stratified so every block
    contributes at least two (or all, for single-element blocks)."""
    rng = np.random.default_rng(seed)
    total = num_parameters(model)
    picks = []
    for name, p in model.params.items():
        share = max(2, int(round(num_samples * p.size / total)))
        share = min(share, p.size)
        idx = rng.choice(p.size, size=share, replace=False)
        picks.extend((name, int(i)) for i in idx)
    return picks


def gradcheck(loss_fn, model, step=1e-5, tolerance=1e-4, num_samples=200, seed=0):
    """Compare analytic gradients against (f(x+h) - f(x-h)) / 2h on a
    float64 copy of `model`, at a deterministic sample of coordinates that
    covers every parameter block.

    `loss_fn` maps a model to (scalar loss, per-parameter gradient dict) and
    must be deterministic; two evaluations at the same point are compared to
    detect dropout or other hidden state.
    """
    if not (step > 0):
        raise ValueError(f"finite-difference step must be positive, got {step}")
    model = to_dtype(model, np.float64)

    loss0, analytic = loss_fn(model)
    loss1, _ = loss_fn(model)
    if loss0 != loss1:
        raise InvalidStateError(
            f"loss_fn is not deterministic ({loss0!r} != {loss1!r}); disable dropout"
        )

    worst = ("", 0.0)
    picks = _sample_coordinates(model, num_samples, seed)
    for name, flat_idx in picks:
        p = model.params[name]
        orig = p.flat[flat_idx]
        p.flat[flat_idx] = orig + step
        f_plus, _ = loss_fn(model)
        p.flat[flat_idx] = orig - step
        f_minus, _ = loss_fn(model)
        p.flat[flat_idx] = orig
        numeric = (f_plus - f_minus) / (2.0 * step)
        exact = float(analytic[name].flat[flat_idx])
        rel = abs(exact - numeric) / max(abs(exact), abs(numeric), REL_ERR_FLOOR)
        if rel > worst[1]:
            worst = (f"{name}[{flat_idx}]", rel)
    return GradCheckReport(
        max_rel_error=worst[1],
        worst_parameter=worst[0],
        num_checked=len(picks),
        tolerance=tolerance,
    )


def assert_bitwise_equal(a, b):
    """Same dtype, shape and bits (so -0.0 != 0.0 and NaN payloads count)."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    bits = {4: np.uint32, 8: np.uint64}[a.dtype.itemsize]
    np.testing.assert_array_equal(a.view(bits), b.view(bits))


# Textbook kernels: each allocates a fresh array per step and keeps a float
# dropout mask.  The in-place kernels must match them bit for bit.

def textbook_masked_softmax(scores, key_mask):
    """(E, rowsum): the unnormalised masked softmax and its row sums, so the
    softmax is E / rowsum."""
    bias = np.where(key_mask[:, None, None, :], 0.0, MASK_NEG).astype(scores.dtype)
    z = scores + bias
    z -= z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e, e.sum(axis=-1, keepdims=True)


def textbook_softmax_backward(dp, p):
    return p * (dp - np.sum(dp * p, axis=-1, keepdims=True))


def textbook_dropout_mask(shape, rate, rng, dtype):
    """Keep where a uint16 draw is at least cut = round(rate * 65536), kept
    values scaled by 65536 / (65536 - cut) in `dtype`.  The n draws over
    `shape` are the first n little-endian uint16 of the generator's next
    ceil(n / 4) raw 64-bit words."""
    n = math.prod(shape)
    words = rng.bit_generator.random_raw(math.ceil(n / 4))
    draws = np.frombuffer(words.astype("<u8").tobytes(), dtype="<u2")[:n].reshape(shape)
    cut = round(rate * 65536)
    return (draws >= cut).astype(dtype) * np.asarray(65536 / (65536 - cut), dtype=dtype)


def textbook_dropout_forward(x, rate, rng, train):
    """Inverted dropout by `textbook_dropout_mask`; the mask is returned."""
    if not train or rate == 0.0:
        return x, None
    mask = textbook_dropout_mask(x.shape, rate, rng, x.dtype)
    return x * mask, mask


def textbook_dropout_backward(dy, mask):
    return dy if mask is None else dy * mask


def _split_heads(a, nh):
    b, s, h = a.shape
    return a.reshape(b, s, nh, h // nh).transpose(0, 2, 1, 3)


def _merge_heads(a):
    b, nh, s, dh = a.shape
    return a.transpose(0, 2, 1, 3).reshape(b, s, nh * dh)


def untiled_mha_forward(x, key_mask, p, num_heads, drop_rate, rng, train):
    """Attention over the whole (B, heads, S, S) tensor at once, by the
    textbook kernels, with the attention dropout by `textbook_dropout_mask`
    on the unnormalised weights, one draw per item in item order: the
    reference the per-item `mha_forward` must match bit for bit, draw for
    draw.  The queries are scaled before the scores, and the output is
    normalised by the row sums after the product with V."""
    q, q_cache = linear_forward(x, p["attn.wq"], p["attn.bq"])
    k = x @ p["attn.wk"]
    v, v_cache = linear_forward(x, p["attn.wv"], p["attn.bv"])
    qh, kh, vh = (_split_heads(a, num_heads) for a in (q, k, v))
    scale = np.asarray(1.0 / np.sqrt(qh.shape[-1]), dtype=x.dtype)
    qh = qh * scale
    e, rowsum = textbook_masked_softmax(qh @ kh.swapaxes(-1, -2), key_mask)
    probs = e / rowsum
    drop_mask = None
    if train and drop_rate > 0.0:
        drop_mask = np.stack([textbook_dropout_mask(a.shape, drop_rate, rng, x.dtype) for a in e])
    e_kept, probs_kept = (textbook_dropout_backward(a, drop_mask) for a in (e, probs))
    ctx = _merge_heads((e_kept @ vh) / rowsum)
    out, o_cache = linear_forward(ctx, p["attn.wo"], p["attn.bo"])
    return out, (q_cache, (x, p["attn.wk"]), v_cache, o_cache, qh, kh, vh, probs, probs_kept,
                 drop_mask, scale, num_heads)


def untiled_mha_backward(dy, cache, textbook_row_term=False):
    """The backward of `untiled_mha_forward`, on whole tensors: the scale
    goes on dq, and dk comes from the scaled queries.  The softmax's row
    term rowsum(dP * P) is D = rowsum(dO * O) from the merged context, in
    the order `mha_backward` computes it, or with `textbook_row_term` the
    (S, S) row sum of `textbook_softmax_backward`."""
    q_cache, k_cache, v_cache, o_cache, qh, kh, vh, probs, probs_kept, drop_mask, scale, nh = cache
    dctx, dwo, dbo = linear_backward(dy, o_cache)
    dctx_h = _split_heads(dctx, nh)
    dvh = probs_kept.swapaxes(-1, -2) @ dctx_h
    dprobs = textbook_dropout_backward(dctx_h @ vh.swapaxes(-1, -2), drop_mask)
    if textbook_row_term:
        dscores = textbook_softmax_backward(dprobs, probs)
    else:
        d = (dctx_h * _split_heads(o_cache[0], nh)).sum(axis=-1, keepdims=True)
        dscores = probs * (dprobs - d)
    dqh = (dscores @ kh) * scale
    dkh = dscores.swapaxes(-1, -2) @ qh
    dq, dwq, dbq = linear_backward(_merge_heads(dqh), q_cache)
    dk, dwk, _ = linear_backward(_merge_heads(dkh), k_cache)
    dv, dwv, dbv = linear_backward(_merge_heads(dvh), v_cache)
    grads = {"attn.wq": dwq, "attn.bq": dbq, "attn.wk": dwk, "attn.wv": dwv, "attn.bv": dbv,
             "attn.wo": dwo, "attn.bo": dbo}
    return dq + dk + dv, grads


def per_row_forward(model, video, text, text_mask, train=False):
    """`GroundingModel.forward_batch` on one video row per item, (B, T, Dv),
    every row encoded in full whether or not another item shares its video:
    the reference a forward on (videos, video_rows) must match bit for bit,
    draw for draw.  Returns (confidence, offsets, cache) in the model's
    cache layout, so `model.backward` runs on its train cache."""
    video = np.ascontiguousarray(video, dtype=model.dtype)
    text = np.ascontiguousarray(text, dtype=model.dtype)
    p = model.params
    B, T, _ = video.shape
    L = text.shape[1]
    frame_mask = np.ones((B, T), dtype=bool)
    H = model.config.hidden_dim
    pos_v = sinusoidal_positions(T, H, model.dtype)
    pos_t = sinusoidal_positions(L, H, model.dtype)
    v, vproj_cache = linear_forward(video, p["video_proj.w"], p["video_proj.b"])
    t, tproj_cache = linear_forward(text, p["text_proj.w"], p["text_proj.b"])
    cache = {}
    v = model._encode(v + pos_v, frame_mask, "intra_video", train, cache)
    t = model._encode(t + pos_t, text_mask, "intra_text", train, cache)
    x = np.concatenate([v + p["type_emb"][0] + pos_v, t + p["type_emb"][1] + pos_t], axis=1)
    x = model._encode(x, np.concatenate([frame_mask, text_mask], axis=1), "cross", train, cache)
    x, final_ln_cache = layer_norm_forward(x, p["final_ln.g"], p["final_ln.b"])
    fused = x[:, :T, :]
    c1, conf_l1 = linear_forward(fused, p["conf_head.w1"], p["conf_head.b1"])
    ca, conf_gelu = gelu_forward(c1)
    conf_logits, conf_l2 = linear_forward(ca, p["conf_head.w2"], p["conf_head.b2"])
    s = sigmoid(conf_logits)
    lo = np.asarray(CONF_EPS, dtype=model.dtype)
    hi = np.asarray(1.0, dtype=model.dtype) - lo
    r1, reg_l1 = linear_forward(fused, p["reg_head.w1"], p["reg_head.b1"])
    ra, reg_gelu = gelu_forward(r1)
    offsets, reg_l2 = linear_forward(ra, p["reg_head.w2"], p["reg_head.b2"])
    if not train:
        return np.clip(s, lo, hi), offsets, None
    cache.update(B=B, T=T, L=L, vproj=vproj_cache, tproj=tproj_cache, final_ln=final_ln_cache,
                 conf=((conf_l1, conf_gelu, conf_l2), s, (s < lo) | (s > hi)),
                 reg=(reg_l1, reg_gelu, reg_l2), param_ids=id(p))
    return np.clip(s, lo, hi), offsets, cache


def erf_gelu(x):
    """The exact GELU, x * Phi(x), in float64."""
    phi = 0.5 * (1.0 + np.vectorize(math.erf)(np.asarray(x, np.float64) / math.sqrt(2.0)))
    return x * phi, phi


def matrix_file_bytes(raw_header: bytes, payload: bytes = b"") -> bytes:
    """A matrix file (magic, version 1, header length) around these header
    bytes and this payload, however malformed either is."""
    return b"NLQC" + struct.pack("<IQ", 1, len(raw_header)) + raw_header + payload


def edit_matrix_header(path, edit):
    """Rewrite a matrix file's JSON header through `edit`, keeping the
    payload."""
    blob = path.read_bytes()
    (n,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16:16 + n])
    edit(header)
    path.write_bytes(matrix_file_bytes(json.dumps(header).encode("utf-8"), blob[16 + n:]))


def tiny_training_batch(T=8, L=4, seed=9):
    """Two items whose ground truths make both anchor scales positive, so
    every head column receives gradient."""
    rng = np.random.default_rng(seed)
    return Batch(
        videos=rng.normal(size=(2, T, 5)),
        video_rows=np.arange(2),
        text=rng.normal(size=(2, L, 3)),
        text_mask=np.array([[True] * L, [True] * (L - 1) + [False]]),
        gt_index=np.array([[3.0, 5.0], [1.0, 7.0]]),
        durations=np.full(2, float(T)),
        query_ids=["a", "b"],
        video_ids=["va", "vb"],
    )


def flat_index(lattice, t, k):
    """Row of anchor (t, k) in the t-major / k-minor lattice of an AnchorConfig."""
    return t * len(lattice.scales) + k


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


def per_item_decode(offsets, lattice):
    """One item's (T, 2K) offsets decoded on the anchors of an AnchorConfig
    to (K*T, 2) index spans, plus the swap and clamp masks that route the
    gradient back."""
    T, K = lattice.num_frames, len(lattice.scales)
    widths = np.tile([s * T for s in lattice.scales], T)[:, None]
    raw = build_lattice(lattice) + np.asarray(offsets, dtype=np.float64).reshape(T * K, 2) * widths
    clamped = np.clip(raw, 0.0, float(T))
    swap = clamped[:, 0] > clamped[:, 1]
    spans = clamped.copy()
    spans[swap] = spans[swap][:, ::-1]
    clamp = (raw <= 0.0) | (raw >= float(T))
    return spans, swap, clamp, widths


def per_item_objective(conf, offs, gt_index, lattice, config):
    """The training objective one batch item at a time: labels from
    `scalar_iou`, the per-item decode, and both loss terms with their
    gradients written out per item.

    Returns a dict: 'd_conf' (B, T, K) and 'd_offs' (B, T, 2K), the float64
    upstream gradients of the batch-mean loss; per-item 'align' and 'box'
    values; and the counts 'forced' (promoted rows), 'swaps' and 'clamps'
    (decoded endpoints)."""
    B, T, K = conf.shape
    beta, mu = SMOOTH_L1_BETA, config.mu
    out = {"d_conf": np.zeros(conf.shape), "d_offs": np.zeros(offs.shape),
           "align": [], "box": [], "forced": 0, "swaps": 0, "clamps": 0}
    for j in range(B):
        gt = gt_index[j].tolist()
        o = np.array([scalar_iou(a, gt) for a in build_lattice(lattice).tolist()])
        positive = o > POSITIVE_THRESHOLD
        if not positive.any():
            positive[int(np.argmax(o))] = True
            out["forced"] += 1
        s = conf[j].reshape(T * K).astype(np.float64)
        out["align"].append(float(-np.mean(o * np.log(s) + (1.0 - o) * np.log1p(-s))))
        out["d_conf"][j] = ((s - o) / (o.size * s * (1.0 - s)) / B).reshape(T, K)

        spans, swap, clamp, widths = per_item_decode(offs[j], lattice)
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


def is_finite_number(v) -> bool:
    """True for a JSON number that is finite as a float; bools are not numbers."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an integer too large for a float
        return False


def checked_proposal(where: str, rank: int, proposal) -> list:
    """[start_sec, end_sec, score] of a predictions-file proposal: finite
    numbers with 0 <= start_sec <= end_sec, or a ValueError naming `where`,
    the rank and the key."""
    keys = ("start_sec", "end_sec", "score")
    values = [proposal.get(key) if isinstance(proposal, dict) else None for key in keys]
    for key, v in zip(keys, values):
        if not is_finite_number(v):
            raise ValueError(f"{where} rank {rank}: {key!r} is missing or not a finite number")
    if not 0 <= values[0] <= values[1]:
        raise ValueError(f"{where} rank {rank}: span {values[:2]} "
                         "breaks 0 <= 'start_sec' <= 'end_sec'")
    return values


def _reference_lines(path, keys):
    """The (line number, object) pairs of a JSON-lines file whose lines are
    objects with list values and string ids, numbers read as the readers read
    them (every JSON number a float), a missing key or a repeated query id
    named as the readers name it."""
    lines, first_line = [], {}
    for ln, text in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not text.strip():
            continue
        rec = json.loads(text, parse_int=float)
        for key in keys:
            if key not in rec:
                raise ValueError(f"{path}:{ln}: missing key {key!r}")
        if rec["query_id"] in first_line:
            raise ValueError(f"{path}:{ln}: query_id {rec['query_id']!r} "
                             f"repeats line {first_line[rec['query_id']]}")
        first_line[rec["query_id"]] = ln
        lines.append((ln, rec))
    return lines


def reference_read_predictions(path):
    """`inference.read_predictions` one proposal at a time, by `checked_proposal`."""
    records = []
    for ln, rec in _reference_lines(path, ("query_id", "proposals")):
        rows = np.array([checked_proposal(f"{path}:{ln}: query {rec['query_id']!r}", rank, p)
                         for rank, p in enumerate(rec["proposals"], 1)], dtype=np.float64).reshape(-1, 3)
        records.append((rec["query_id"], rec.get("video_id", ""), rows[:, :2], rows[:, 2]))
    return records


def reference_read_channel_file(path):
    """`inference.read_channel_file` one score at a time, by `is_finite_number`."""
    scores_by_query = {}
    for ln, rec in _reference_lines(path, ("query_id", "channel", "scores")):
        for i, v in enumerate(rec["scores"]):
            if not is_finite_number(v):
                raise ValueError(f"{path}:{ln}: scores[{i}] is {v!r}, not a finite number")
        scores_by_query[rec["query_id"]] = np.array(rec["scores"], dtype=np.float64)
    return scores_by_query
