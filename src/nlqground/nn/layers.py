"""Hand-differentiated building blocks for the encoder stack.

Every primitive comes as a forward/backward pair: forward returns the output
plus an opaque cache, backward consumes the cache and the upstream gradient.
All functions are shape-polymorphic over leading axes (batch, sequence) and
dtype-polymorphic (float32 for runs, float64 for gradient checks).

Attention is memory-bound: its (B, heads, S, S) tensors cost more than its
FLOPs.  So softmax and its backward work in place on one fresh buffer (never
on the caller's array), dropout caches a bool keep mask plus the scale
1/(1-rate) rounded in the input's dtype, and attention caches the kept
probabilities so backward need not rebuild them.  Every result is
bit-identical to the textbook form that allocates a new array per step.
Caches are for backward only: an eval forward (`forward_batch` without
`want_cache`) drops each layer's cache as soon as the layer returns.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

LN_EPS = 1e-5
# Additive mask value: large enough that exp underflows to exactly 0, finite
# so float32 arithmetic stays NaN-free.
MASK_NEG = -1e30

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


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
    phi = 0.5 * (1.0 + erf(x * _INV_SQRT2)).astype(x.dtype)
    return x * phi, (x, phi)


def gelu_backward(dy: np.ndarray, cache) -> np.ndarray:
    x, phi = cache
    pdf = np.exp(-0.5 * x * x) * np.asarray(_INV_SQRT_2PI, dtype=x.dtype)
    return dy * (phi + x * pdf)


def dropout_forward(x: np.ndarray, rate: float, rng: np.random.Generator, train: bool):
    """Inverted dropout; the boolean keep mask and the scale 1/(1-rate),
    rounded in x's dtype, are cached for backward."""
    if not train or rate == 0.0:
        return x, None
    keep = rng.random(x.shape) >= rate
    scale = np.asarray(1.0, dtype=x.dtype) / np.asarray(1.0 - rate, dtype=x.dtype)
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
    """Softmax over the last axis with invalid keys forced to weight 0.

    scores: (B, nh, S, S); key_mask: (B, S) bool.  Every row must have at
    least one valid key (guaranteed upstream by the non-empty-modality check).
    """
    if key_mask.all():
        # a zero bias changes no bit past the exp, so skip it
        z = scores - scores.max(axis=-1, keepdims=True)
    else:
        bias = np.where(key_mask[:, None, None, :], 0.0, MASK_NEG).astype(scores.dtype)
        z = scores + bias
        z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


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
    dropout.

    The key projection carries no bias: softmax is invariant to constant
    shifts along the key axis, so a key bias would be a permanently
    gradient-free parameter.
    """
    q, q_cache = linear_forward(x, p["attn.wq"], p["attn.bq"])
    k = x @ p["attn.wk"]
    k_cache = (x, p["attn.wk"])
    v, v_cache = linear_forward(x, p["attn.wv"], p["attn.bv"])
    qh, kh, vh = (_split_heads(a, num_heads) for a in (q, k, v))
    scale = np.asarray(1.0 / np.sqrt(qh.shape[-1]), dtype=x.dtype)
    scores = qh @ kh.swapaxes(-1, -2)
    scores *= scale
    probs = masked_softmax(scores, key_mask)
    del scores  # not alive during the dropout draw
    probs_kept, drop_mask = dropout_forward(probs, drop_rate, rng, train)
    ctx = _merge_heads(probs_kept @ vh)
    out, o_cache = linear_forward(ctx, p["attn.wo"], p["attn.bo"])
    cache = (q_cache, k_cache, v_cache, o_cache, qh, kh, vh, probs, probs_kept, drop_mask,
             scale, num_heads)
    return out, cache


def mha_backward(dy: np.ndarray, cache):
    q_cache, k_cache, v_cache, o_cache, qh, kh, vh, probs, probs_kept, drop_mask, scale, nh = cache
    dctx, dwo, dbo = linear_backward(dy, o_cache)
    dctx_h = _split_heads(dctx, nh)
    dvh = probs_kept.swapaxes(-1, -2) @ dctx_h
    dprobs = dropout_backward(dctx_h @ vh.swapaxes(-1, -2), drop_mask)
    dscores = softmax_backward(dprobs, probs)
    dscores *= scale
    dqh = dscores @ kh
    dkh = dscores.swapaxes(-1, -2) @ qh
    dq, dwq, dbq = linear_backward(_merge_heads(dqh), q_cache)
    dk, dwk, _ = linear_backward(_merge_heads(dkh), (k_cache[0], k_cache[1]))
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

    Dropout sits on the attention weights and on the FFN activation.
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
    cache = (ln1_cache, mha_cache, ln2_cache, l1_cache, gelu_cache, ffn_drop, l2_cache)
    return out, cache


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
