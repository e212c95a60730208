"""Hand-differentiated building blocks for the encoder stack.

Every primitive comes as a forward/backward pair: forward returns the output
plus an opaque cache, backward consumes the cache and the upstream gradient.
All functions are shape-polymorphic over leading axes (batch, sequence) and
dtype-polymorphic (float32 for runs, float64 for gradient checks): each
computes in its input's dtype.

Attention is memory-bound: every pass over its (B, heads, S, S) weights
(scores, softmax, dropout, P.V) streams the whole tensor through DRAM when
it is computed at once.  So attention, forward and backward, runs one batch
item at a time (FlashAttention's idea, Dao et al. 2022, over the batch axis
only), each row's arithmetic unchanged, so outputs and gradients are
bitwise those of the untiled form.  An item takes few passes: the scale
1/sqrt(d_head) goes on the (S, d_head) queries, the softmax runs in place
on the fresh Q K^T product, and its normalisation is deferred to the
(S, d_head) output, ctx = ((keep * scale * E) @ V) / rowsum(E)
(FlashAttention's rescaling).  Softmax backward runs in place on dP, with
the row term rowsum(dP * P) taken as D = rowsum(dO * O) over d_head
(FlashAttention's D).  The cache keeps no (B, heads, S, S) float array,
only each softmax row's max and sum and the bool keep mask of its dropout:
backward recomputes an item's probabilities bit for bit (FlashAttention's
recompute).  Dropout draws 16-bit integers, not float64 uniforms, by one
rule for the FFN and each attention item: n values are the first n of the
generator's next ceil(n / 4) raw 64-bit words (an odd count drops its last
word's tail), the scale rounded in the input's dtype.  GELU is the tanh form
(Hendrycks & Gimpel 2016, as in BERT and GPT-2), not the erf form.
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


def _dropout_cut(rate: float, dtype):
    """The cut round(rate * 2^16) below which a uint16 draw is dropped, and
    the kept values' scale 2^16 / (2^16 - cut) rounded in `dtype`."""
    # a rate within 2^-17 of 1 would round to dropping every level
    cut = min(round(rate * _DRAW_LEVELS), _DRAW_LEVELS - 1)
    return cut, np.asarray(_DRAW_LEVELS / (_DRAW_LEVELS - cut), dtype=dtype)


def _keep(rng: np.random.Generator, shape, cut: int, out=None) -> np.ndarray:
    """The bool keep mask over `shape`: its n uint16 draws are the first n
    of the generator's next ceil(n / 4) raw 64-bit words, kept at >= cut."""
    n = math.prod(shape)
    draws = rng.bit_generator.random_raw(-(-n // 4)).view("<u2")[:n]
    return np.greater_equal(draws.reshape(shape), cut, out=out)


def dropout_forward(x: np.ndarray, rate: float, rng: np.random.Generator, train: bool):
    """Inverted dropout by `_keep`, so the layer is unbiased at the quantised
    rate.  The bool keep mask and the scale are cached for backward."""
    if not train or rate == 0.0:
        return x, None
    cut, scale = _dropout_cut(rate, x.dtype)
    keep = _keep(rng, x.shape, cut)
    return _scale_kept(x, keep, scale), (keep, scale)


def dropout_backward(dy: np.ndarray, mask) -> np.ndarray:
    return dy if mask is None else _scale_kept(dy, *mask)


def _scale_kept(x: np.ndarray, keep: np.ndarray, scale, out=None) -> np.ndarray:
    out = np.multiply(x, scale, out=out)
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

    scores: (B, nh, S, S); key_mask: (B, S) bool.  Returns (E, rowmax,
    rowsum): E = exp(scores + mask bias - rowmax), written over `scores`,
    with rowmax the biased rows' (B, nh, S, 1) maxima, and E's row sums, so
    the softmax is E / rowsum.  Every row must have at least one valid key
    (guaranteed upstream by the non-empty-modality check), so every row sum
    is at least 1.
    """
    e, rowmax = _shifted_exp(scores, key_mask)
    return e, rowmax, e.sum(axis=-1, keepdims=True)


def _shifted_exp(scores: np.ndarray, key_mask: np.ndarray, rowmax: np.ndarray | None = None):
    """exp(scores + mask bias - rowmax) in place on `scores`, rowmax being
    the biased rows' maxima unless given; returns (E, rowmax)."""
    if not key_mask.all():
        # with every key valid the bias is all zeros, which changes no bit
        scores += np.where(key_mask[:, None, None, :], 0.0, MASK_NEG).astype(scores.dtype)
    if rowmax is None:
        rowmax = scores.max(axis=-1, keepdims=True)
    scores -= rowmax
    np.exp(scores, out=scores)
    return scores, rowmax


def softmax_backward(dp: np.ndarray, p: np.ndarray, d: np.ndarray) -> np.ndarray:
    """(dp - d) * p in place on `dp`, d being the row term rowsum(dp * p)."""
    dp -= d
    dp *= p
    return dp


def _split_heads(x: np.ndarray, nh: int) -> np.ndarray:
    b, s, h = x.shape
    return x.reshape(b, s, nh, h // nh).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, nh, s, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, s, nh * dh)


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
    dropout, one batch item at a time.

    The key projection carries no bias: softmax is invariant to constant
    shifts along the key axis, so a key bias would be a permanently
    gradient-free parameter.  The scale 1/sqrt(d_head) multiplies the
    (S, d_head) queries, not the (S, S) scores, and the softmax is
    normalised on the (S, d_head) output: ctx = ((keep * scale * E) @ V) /
    rowsum(E), exact in real arithmetic because dropout is elementwise and
    the normalisation is per row.  Each item draws its dropout in turn,
    straight into the (B, heads, S, S) bool keep mask.  The cache (None in
    eval mode) keeps the scaled queries, the keys, the key mask, each
    softmax row's (B, heads, S, 1) max and sum, and the dropout's (keep
    mask, scale): backward recomputes the probabilities from them.
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
        cut, drop_scale = _dropout_cut(drop_rate, x.dtype)
        drop = (np.empty((B, num_heads, S, S), dtype=bool), drop_scale)
    rowmax, rowsum = (np.empty((B, num_heads, S, 1), dtype=x.dtype) for _ in range(2))
    ctx = np.empty(qh.shape, dtype=x.dtype)
    for b in range(B):
        t = slice(b, b + 1)
        e, rowmax[t], rowsum[t] = masked_softmax(qh[t] @ kh[t].swapaxes(-1, -2), key_mask[t])
        if drop is not None:
            _scale_kept(e, _keep(rng, e.shape, cut, out=drop[0][t]), drop_scale, out=e)
        np.matmul(e, vh[t], out=ctx[t])
        ctx[t] /= rowsum[t]
        del e  # one item's (heads, S, S) buffer is alive at a time
    out, o_cache = linear_forward(_merge_heads(ctx), p["attn.wo"], p["attn.bo"])
    if not train:
        return out, None
    return out, (q_cache, k_cache, v_cache, o_cache, qh, kh, vh, key_mask, rowmax, rowsum,
                 drop, scale, num_heads)


def mha_backward(dy: np.ndarray, cache):
    q_cache, k_cache, v_cache, o_cache, qh, kh, vh, key_mask, rowmax, rowsum, drop, scale, nh = cache
    dctx, dwo, dbo = linear_backward(dy, o_cache)
    dctx_h = _split_heads(dctx, nh)
    # softmax's row term rowsum(dP * P) is rowsum(dO * O) (FlashAttention's D)
    d = (dctx_h * _split_heads(o_cache[0], nh)).sum(axis=-1, keepdims=True)
    dqh, dkh, dvh = (np.empty(qh.shape, dtype=qh.dtype) for _ in range(3))
    for b in range(len(qh)):
        t = slice(b, b + 1)
        # the forward's probabilities, recomputed bit for bit
        pt, _ = _shifted_exp(qh[t] @ kh[t].swapaxes(-1, -2), key_mask[t], rowmax[t])
        pt /= rowsum[t]
        dprobs = dctx_h[t] @ vh[t].swapaxes(-1, -2)
        if drop is not None:
            _scale_kept(dprobs, drop[0][t], drop[1], out=dprobs)
        dscores = softmax_backward(dprobs, pt, d[t])
        if drop is not None:
            _scale_kept(pt, drop[0][t], drop[1], out=pt)  # the kept weights
        np.matmul(pt.swapaxes(-1, -2), dctx_h[t], out=dvh[t])
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
