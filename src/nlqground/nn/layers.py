"""Hand-differentiated building blocks for the encoder stack.

Every primitive comes as a forward/backward pair: forward returns the output
plus an opaque cache, backward consumes the cache and the upstream gradient.
All functions are shape-polymorphic over leading axes (batch, sequence) and
dtype-polymorphic (float32 for runs, float64 for gradient checks): each
computes in its input's dtype.

Attention is memory-bound: its (B, heads, S, S) weights cost more than its
FLOPs, and every pass over them (scores, softmax, dropout, P.V) streams the
whole tensor through DRAM when it is computed at once.  So attention,
forward and backward, runs one tile of whole batch items at a time, each
tile holding at most 2 MiB of weights (a per-core L2), or one item where an
item holds more (the idea of FlashAttention, Dao et al. 2022, over the
batch axis only).  Each row's arithmetic is the same in every tiling, so
outputs and gradients are bitwise those of the untiled form.  A tile also
takes few passes: the scale 1/sqrt(d_head) goes on the (S, d_head)
queries, the softmax runs in place on the fresh Q K^T product, and its
normalisation is deferred to the (S, d_head) output, ctx = ((keep * scale
* E) @ V) / rowsum(E) (FlashAttention's rescaling).  Softmax backward works
on one fresh buffer (never on the caller's array).  The attention cache
keeps the probabilities E / rowsum(E) and the bool keep mask of its
dropout; backward rebuilds each tile's kept probabilities from them, bit
for bit.  Dropout draws 16-bit integers, not float64 uniforms, once per
call (one draw rule for attention and the FFN), as the generator's raw
64-bit words wherever those are the bytes `Generator.bytes` would give,
with its scale rounded in the input's dtype.  GELU is the
tanh form (Hendrycks & Gimpel 2016, as in BERT and GPT-2), not the erf form.
`train` selects the mode: a train forward applies dropout and returns the
cache for backward; an eval forward returns None as its cache, allocates no
(B, heads, S, S) array and keeps no layer's activations past the layer.
"""

from __future__ import annotations

import math

import numpy as np

LN_EPS = 1e-5
# Additive mask value: large enough that exp underflows to exactly 0, finite
# so float32 arithmetic stays NaN-free.
MASK_NEG = -1e30

# tanh-form GELU: 0.5 x (1 + tanh(c (x + a x^3)))
_GELU_C = float(np.sqrt(2.0 / np.pi))
_GELU_A = 0.044715
# dropout draws uint16 values: the rate is quantised to a multiple of 1/2^16
_DRAW_LEVELS = 1 << 16
# attention works on tiles of whole batch items whose (heads, S, S) weights
# fill at most this many bytes (a 2 MiB per-core L2), one item at least
_TILE_BYTES = 1 << 21


# ---------------------------------------------------------------------------
# elementwise
# ---------------------------------------------------------------------------


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def gelu_forward(x: np.ndarray):
    """tanh-form GELU in x's dtype; the tanh is cached for backward."""
    t = x * x
    t *= _GELU_A
    t += 1.0
    t *= x
    t *= _GELU_C
    np.tanh(t, out=t)
    out = t + 1.0
    out *= x
    out *= 0.5
    return out, (x, t)


def gelu_backward(dy: np.ndarray, cache) -> np.ndarray:
    """Exact derivative of the tanh form:
    0.5 (1 + t) + 0.5 x (1 - t^2) c (1 + 3 a x^2)."""
    x, t = cache
    dt = x * x
    dt *= 3.0 * _GELU_A
    dt += 1.0
    dt *= _GELU_C
    dt *= x
    sech2 = t * t
    np.subtract(1.0, sech2, out=sech2)
    dt *= sech2
    dt += t
    dt += 1.0
    dt *= 0.5
    dt *= dy
    return dt


def _dropout_draw(shape, rate: float, rng: np.random.Generator, dtype):
    """One dropout draw over `shape`: uniform uint16 values, the cut
    round(rate * 2^16) below which a value is dropped, and the kept values'
    scale 2^16 / (2^16 - cut) rounded in `dtype`."""
    # a rate within 2^-17 of 1 would round to dropping every level
    cut = min(round(rate * _DRAW_LEVELS), _DRAW_LEVELS - 1)
    n = math.prod(shape)
    if n % 4 == 0 and rng.bit_generator.state.get("has_uint32") == 0:
        # the 64-bit words `rng.bytes` would split into 32-bit halves, low
        # half first, taken whole: the same bits without the copies
        draws = rng.bit_generator.random_raw(n // 4).view("<u2")
    else:
        draws = np.frombuffer(rng.bytes(2 * n), dtype="<u2")
    return draws.reshape(shape), cut, np.asarray(_DRAW_LEVELS / (_DRAW_LEVELS - cut), dtype=dtype)


def dropout_forward(x: np.ndarray, rate: float, rng: np.random.Generator, train: bool):
    """Inverted dropout by `_dropout_draw`, so the layer is unbiased at the
    quantised rate.  The bool keep mask and the scale are cached for
    backward."""
    if not train or rate == 0.0:
        return x, None
    draws, cut, scale = _dropout_draw(x.shape, rate, rng, x.dtype)
    keep = draws >= cut
    return _scale_kept(x, keep, scale), (keep, scale)


def dropout_backward(dy: np.ndarray, mask) -> np.ndarray:
    return dy if mask is None else _scale_kept(dy, *mask)


def _scale_kept(x: np.ndarray, keep: np.ndarray, scale) -> np.ndarray:
    out = x * scale
    out *= keep
    return out


# ---------------------------------------------------------------------------
# linear / layer norm
# ---------------------------------------------------------------------------


def linear_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    return x @ w + b, (x, w)


def linear_backward(dy: np.ndarray, cache):
    x, w = cache
    dx = dy @ w.T
    x2 = x.reshape(-1, x.shape[-1])
    dy2 = dy.reshape(-1, dy.shape[-1])
    dw = x2.T @ dy2
    db = dy2.sum(axis=0, keepdims=True)
    return dx, dw, db


def layer_norm_forward(x: np.ndarray, g: np.ndarray, b: np.ndarray):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.asarray(LN_EPS, dtype=x.dtype))
    xhat = xc * inv
    return g * xhat + b, (xhat, inv, g)


def layer_norm_backward(dy: np.ndarray, cache):
    xhat, inv, g = cache
    dg = (dy * xhat).reshape(-1, dy.shape[-1]).sum(axis=0, keepdims=True)
    db = dy.reshape(-1, dy.shape[-1]).sum(axis=0, keepdims=True)
    dxhat = dy * g
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = inv * (dxhat - m1 - xhat * m2)
    return dx, dg, db


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------


def masked_softmax(scores: np.ndarray, key_mask: np.ndarray):
    """Unnormalised softmax over the last axis, in place on `scores`, with
    invalid keys forced to weight 0.

    scores: (B, nh, S, S); key_mask: (B, S) bool.  Returns (E, rowsum):
    E = exp(scores + mask bias - row max), written over `scores`, and its
    (B, nh, S, 1) row sums, so the softmax is E / rowsum.  Every row must
    have at least one valid key (guaranteed upstream by the non-empty-
    modality check), so every row sum is at least 1.
    """
    if not key_mask.all():
        # with every key valid the bias is all zeros, which changes no bit
        scores += np.where(key_mask[:, None, None, :], 0.0, MASK_NEG).astype(scores.dtype)
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    return scores, scores.sum(axis=-1, keepdims=True)


def softmax_backward(dp: np.ndarray, p: np.ndarray) -> np.ndarray:
    out = dp * p
    np.subtract(dp, out.sum(axis=-1, keepdims=True), out=out)
    out *= p
    return out


def _split_heads(x: np.ndarray, nh: int) -> np.ndarray:
    b, s, h = x.shape
    return x.reshape(b, s, nh, h // nh).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, nh, s, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, s, nh * dh)


def _tiles(batch: int, heads: int, seq: int, itemsize: int) -> list[slice]:
    """Runs of whole batch items whose (heads, seq, seq) weights fill at most
    `_TILE_BYTES`, one item at least."""
    step = max(1, _TILE_BYTES // (heads * seq * seq * itemsize))
    return [slice(i, i + step) for i in range(0, batch, step)]


def mha_forward(
    x: np.ndarray,
    key_mask: np.ndarray,
    p: dict,
    num_heads: int,
    drop_rate: float,
    rng: np.random.Generator,
    train: bool,
):
    """Multi-head self-attention with key-padding mask and attention-weight
    dropout, one tile of batch items at a time.

    The key projection carries no bias: softmax is invariant to constant
    shifts along the key axis, so a key bias would be a permanently
    gradient-free parameter.  The scale 1/sqrt(d_head) multiplies the
    (S, d_head) queries, not the (S, S) scores, and the softmax is
    normalised on the (S, d_head) output: ctx = ((keep * scale * E) @ V) /
    rowsum(E), exact in real arithmetic because dropout is elementwise and
    the normalisation is per row.  The dropout draw covers the whole
    (B, heads, S, S) tensor in one call, so the stream is the same however
    the batch is tiled.  The cache (None in eval mode) keeps the scaled
    queries, the normalised probabilities E / rowsum and the dropout's
    (keep mask, scale).
    """
    q, q_cache = linear_forward(x, p["attn.wq"], p["attn.bq"])
    k = x @ p["attn.wk"]
    k_cache = (x, p["attn.wk"])
    v, v_cache = linear_forward(x, p["attn.wv"], p["attn.bv"])
    qh, kh, vh = (_split_heads(a, num_heads) for a in (q, k, v))
    B, _, S, d_head = qh.shape
    scale = np.asarray(1.0 / np.sqrt(d_head), dtype=x.dtype)
    qh *= scale
    drop = None
    if train and drop_rate > 0.0:
        draws, cut, drop_scale = _dropout_draw((B, num_heads, S, S), drop_rate, rng, x.dtype)
        drop = (np.empty(draws.shape, dtype=bool), drop_scale)
    probs = np.empty((B, num_heads, S, S), dtype=x.dtype) if train else None
    ctx = np.empty(qh.shape, dtype=x.dtype)
    for t in _tiles(B, num_heads, S, x.dtype.itemsize):
        e, rowsum = masked_softmax(qh[t] @ kh[t].swapaxes(-1, -2), key_mask[t])
        if probs is not None:
            np.divide(e, rowsum, out=probs[t])
        if drop is not None:
            e *= drop_scale
            e *= np.greater_equal(draws[t], cut, out=drop[0][t])
        np.matmul(e, vh[t], out=ctx[t])
        ctx[t] /= rowsum
        del e  # one tile-sized buffer is alive at a time
    out, o_cache = linear_forward(_merge_heads(ctx), p["attn.wo"], p["attn.bo"])
    if not train:
        return out, None
    return out, (q_cache, k_cache, v_cache, o_cache, qh, kh, vh, probs, drop, scale, num_heads)


def mha_backward(dy: np.ndarray, cache):
    q_cache, k_cache, v_cache, o_cache, qh, kh, vh, probs, drop, scale, nh = cache
    dctx, dwo, dbo = linear_backward(dy, o_cache)
    dctx_h = _split_heads(dctx, nh)
    dqh, dkh, dvh = (np.empty(qh.shape, dtype=qh.dtype) for _ in range(3))
    for t in _tiles(len(qh), nh, qh.shape[2], qh.dtype.itemsize):
        pt = probs[t]
        dprobs = dctx_h[t] @ vh[t].swapaxes(-1, -2)
        kept = pt
        if drop is not None:
            kept = _scale_kept(pt, drop[0][t], drop[1])
            dprobs = _scale_kept(dprobs, drop[0][t], drop[1])
        np.matmul(kept.swapaxes(-1, -2), dctx_h[t], out=dvh[t])
        dscores = softmax_backward(dprobs, pt)
        np.matmul(dscores, kh[t], out=dqh[t])
        # qh holds the scaled queries, so dk needs no further scaling
        np.matmul(dscores.swapaxes(-1, -2), qh[t], out=dkh[t])
    dqh *= scale
    dq, dwq, dbq = linear_backward(_merge_heads(dqh), q_cache)
    dk, dwk, _ = linear_backward(_merge_heads(dkh), k_cache)
    dv, dwv, dbv = linear_backward(_merge_heads(dvh), v_cache)
    dx = dq + dk + dv
    grads = {
        "attn.wq": dwq, "attn.bq": dbq,
        "attn.wk": dwk,
        "attn.wv": dwv, "attn.bv": dbv,
        "attn.wo": dwo, "attn.bo": dbo,
    }
    return dx, grads


# ---------------------------------------------------------------------------
# transformer encoder layer (pre-LN)
# ---------------------------------------------------------------------------


def encoder_layer_forward(
    x: np.ndarray,
    key_mask: np.ndarray,
    p: dict,
    num_heads: int,
    drop_rate: float,
    rng: np.random.Generator,
    train: bool,
):
    """Pre-LN residual block: LN -> MHA -> add, then LN -> FFN(GELU) -> add.

    Dropout sits on the attention weights and on the FFN activation.  An eval
    forward returns None as its cache.
    """
    h1, ln1_cache = layer_norm_forward(x, p["ln1.g"], p["ln1.b"])
    attn, mha_cache = mha_forward(h1, key_mask, p, num_heads, drop_rate, rng, train)
    x2 = x + attn
    h2, ln2_cache = layer_norm_forward(x2, p["ln2.g"], p["ln2.b"])
    f1, l1_cache = linear_forward(h2, p["ffn.w1"], p["ffn.b1"])
    a1, gelu_cache = gelu_forward(f1)
    a1d, ffn_drop = dropout_forward(a1, drop_rate, rng, train)
    f2, l2_cache = linear_forward(a1d, p["ffn.w2"], p["ffn.b2"])
    out = x2 + f2
    if not train:
        return out, None
    return out, (ln1_cache, mha_cache, ln2_cache, l1_cache, gelu_cache, ffn_drop, l2_cache)


def encoder_layer_backward(dy: np.ndarray, cache):
    ln1_cache, mha_cache, ln2_cache, l1_cache, gelu_cache, ffn_drop, l2_cache = cache
    da1d, dw2, db2 = linear_backward(dy, l2_cache)
    da1 = dropout_backward(da1d, ffn_drop)
    df1 = gelu_backward(da1, gelu_cache)
    dh2, dw1, db1 = linear_backward(df1, l1_cache)
    dx2_ln, dg2, dbg2 = layer_norm_backward(dh2, ln2_cache)
    dx2 = dy + dx2_ln
    dh1, attn_grads = mha_backward(dx2, mha_cache)
    dx_ln, dg1, dbg1 = layer_norm_backward(dh1, ln1_cache)
    dx = dx2 + dx_ln
    grads = {
        "ln1.g": dg1, "ln1.b": dbg1,
        "ln2.g": dg2, "ln2.b": dbg2,
        "ffn.w1": dw1, "ffn.b1": db1,
        "ffn.w2": dw2, "ffn.b2": db2,
        **attn_grads,
    }
    return dx, grads
