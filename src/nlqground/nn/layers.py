"""Hand-differentiated building blocks for the encoder stack.

Every primitive comes as a forward/backward pair: forward returns the output
plus an opaque cache, backward consumes the cache and the upstream gradient.
All functions are shape-polymorphic over leading axes (batch, sequence) and
dtype-polymorphic (float32 for runs, float64 for gradient checks): each
computes in its input's dtype.

The encoder layer runs on every core.  On import numpy's bundled OpenBLAS is
pinned to one thread: over a 2-thread BLAS, two workers ran slower than
one, and the pin also makes outputs independent of the host's BLAS thread
count.  A module-level thread pool of one worker per core then runs the
layer's row-independent blocks (the projections, layer norm, GELU and the
FFN dropout's scaling) as one contiguous range of batch items per worker,
and attention as (item, head group) units, FlashAttention's split over
(batch, head) blocks (Dao et al. 2022).  Each worker's run executes in a
copy of the caller's context and writes only into arrays the calling
thread allocated.  A matmul splits only along numpy's own per-matrix BLAS
calls, so a linear's dx splits by item while its dw and db, sums over
every row, go whole to a worker of their own; the layer norm's dg and db
stay in the calling thread, and so do the dropout draws, in item order.
Every output, gradient and the dropout stream are thus bitwise those of
one worker.  A call whose largest array falls under _PART_FLOOR elements,
or whose attention items fall under _POOL_FLOOR weights, runs in the
calling thread, by the same part or unit function.

Attention is memory-bound: every pass over its (B, heads, S, S) weights
(scores, softmax, dropout, P.V) streams the whole tensor through DRAM when
it is computed at once.  So attention, forward and backward, runs in
units, each row's arithmetic unchanged, so outputs and gradients are
bitwise those of the untiled form; a unit spans the fewest heads of an
item whose weights reach _POOL_FLOOR.  The train forward draws every
item's dropout mask, in item order, before any unit runs.  A unit takes few
passes: the scale 1/sqrt(d_head) goes on the (S, d_head) queries, the
softmax runs in place on the fresh Q K^T product, and its normalisation
is deferred to the (S, d_head) output, ctx = ((keep * scale * E) @ V) / rowsum(E)
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

import contextvars
import ctypes
import glob
import math
import os
from concurrent.futures import ThreadPoolExecutor, wait

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
# attention weights per unit: a unit spans the fewest heads of one item that
# reach it, and a call whose whole items fall short runs in the calling
# thread, as tiny numpy calls hold the GIL (two workers broke even on whole
# items of 16,384 to 36,864 weights, and gained at 65,536 in every sweep)
_POOL_FLOOR = 1 << 16
# elements in a call's largest array from which its row-independent blocks
# split by item range over the workers; below it they run in the calling
# thread (in three rounds, two workers lost on layer norms of 73,728
# elements, and from 294,912 up gained in all but one flat round)
_PART_FLOOR = 1 << 18


def _pin_blas() -> int | None:
    """Pins numpy's bundled OpenBLAS to one thread, so that the layers'
    workers, not BLAS threads, share the cores; returns its thread count
    after, or None where the library or its setter is not found."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        setter = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        getter = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if setter is not None and getter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            setter(1)
            return int(getter())
    return None


BLAS_THREADS = _pin_blas()
# one worker per core once BLAS is pinned; without the pin, one
WORKERS = len(os.sched_getaffinity(0)) if BLAS_THREADS == 1 else 1
_POOL = ThreadPoolExecutor(WORKERS, thread_name_prefix="worker")


def _on_pool(calls) -> None:
    """Runs each (fn, *args) of `calls`: a single one in the calling thread,
    several on the pool, each in a copy of the caller's context (numpy keeps
    errstate in a context variable), and raises the first one's error."""
    if len(calls) == 1:
        fn, *args = calls[0]
        fn(*args)
        return
    futures = [_POOL.submit(contextvars.copy_context().run, *call) for call in calls]
    wait(futures)
    for future in futures:
        future.result()


def _each_part(part, items: int, elements: int, *whole) -> None:
    """Calls part(r) over contiguous ranges r of `items` batch items and
    each function of `whole` once, for a call whose largest array holds
    `elements`.  From _PART_FLOOR up, the ranges and `whole` go to the pool,
    one range per worker that `whole` leaves free; below it, or with one
    worker, they run here, the part once over every item.  The caller
    allocates every array a part writes: arrays a worker allocated would
    go to its own malloc arena, which keeps their pages."""
    if elements < _PART_FLOOR or WORKERS == 1:
        part(slice(None))
        for fn in whole:
            fn()
        return
    shares = min(WORKERS - len(whole), items)
    ranges = [slice(k * items // shares, (k + 1) * items // shares) for k in range(shares)] \
        if shares > 1 else [slice(None)]
    _on_pool([(part, r) for r in ranges] + [(fn,) for fn in whole])


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
    t, out = np.empty_like(x), np.empty_like(x)

    def part(r):
        xr, tr, o = x[r], t[r], out[r]
        np.multiply(xr, xr, out=tr)
        tr *= _GELU_A
        tr += 1.0
        tr *= xr
        tr *= _GELU_C
        np.tanh(tr, out=tr)
        np.add(tr, 1.0, out=o)
        o *= xr
        o *= 0.5

    _each_part(part, len(x), x.size)
    return out, (x, t)


def gelu_backward(dy: np.ndarray, cache) -> np.ndarray:
    """Exact derivative of the tanh form:
    0.5 (1 + t) + 0.5 x (1 - t^2) c (1 + 3 a x^2)."""
    x, t = cache
    dt, sech2 = np.empty_like(x), np.empty_like(t)

    def part(r):
        xr, tr, d, s = x[r], t[r], dt[r], sech2[r]
        np.multiply(xr, xr, out=d)
        d *= 3.0 * _GELU_A
        d += 1.0
        d *= _GELU_C
        d *= xr
        np.multiply(tr, tr, out=s)
        np.subtract(1.0, s, out=s)
        d *= s
        d += tr
        d += 1.0
        d *= 0.5
        d *= dy[r]

    _each_part(part, len(x), x.size)
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
    return _scale_kept_parts(x, keep, scale), (keep, scale)


def dropout_backward(dy: np.ndarray, mask) -> np.ndarray:
    return dy if mask is None else _scale_kept_parts(dy, *mask)


def _scale_kept(x: np.ndarray, keep: np.ndarray, scale, out=None) -> np.ndarray:
    out = np.multiply(x, scale, out=out)
    out *= keep
    return out


def _scale_kept_parts(x: np.ndarray, keep: np.ndarray, scale) -> np.ndarray:
    """`_scale_kept` into a new array, by item range."""
    out = np.empty(x.shape, np.result_type(x, scale))
    _each_part(lambda r: _scale_kept(x[r], keep[r], scale, out=out[r]), len(x), x.size)
    return out


# ---------------------------------------------------------------------------
# linear / layer norm
# ---------------------------------------------------------------------------


def linear_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    return _project(x, w, b), (x, w)


def _project(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """x @ w (+ b), by item range."""
    out = np.empty((*x.shape[:-1], w.shape[1]), np.result_type(x, w))

    def part(r):
        np.matmul(x[r], w, out=out[r])
        if b is not None:
            out[r] += b

    _each_part(part, _items(x), max(x.size, out.size))
    return out


def _items(x: np.ndarray) -> int:
    """The items a matmul over x splits into: a stack of matrices splits by
    matrix, each one numpy's own BLAS call; a matrix stays whole, since BLAS
    may round a block of its rows otherwise."""
    return len(x) if x.ndim > 2 else 1


def linear_backward(dy: np.ndarray, cache):
    """dx by item range; dw and db, sums over every row, on a worker of
    their own (BLAS may round a block of dw's columns otherwise)."""
    x, w = cache
    x2 = x.reshape(-1, x.shape[-1])
    dy2 = dy.reshape(-1, dy.shape[-1])
    dx = np.empty((*dy.shape[:-1], w.shape[0]), np.result_type(dy, w))
    dw = np.empty((x2.shape[1], dy2.shape[1]), np.result_type(x, dy))
    db = np.empty((1, dy2.shape[1]), dy.dtype)

    def weights():
        np.matmul(x2.T, dy2, out=dw)
        np.sum(dy2, axis=0, keepdims=True, out=db)

    _each_part(lambda r: np.matmul(dy[r], w.T, out=dx[r]), _items(dy), max(dx.size, dy.size), weights)
    return dx, dw, db


def layer_norm_forward(x: np.ndarray, g: np.ndarray, b: np.ndarray):
    """Normalises each row in x's dtype, by item range."""
    y, xhat = np.empty_like(x), np.empty_like(x)
    mu, inv = np.empty((*x.shape[:-1], 1), x.dtype), np.empty((*x.shape[:-1], 1), x.dtype)
    eps = np.asarray(LN_EPS, dtype=x.dtype)

    def part(r):
        xc, yr, ir = xhat[r], y[r], inv[r]
        np.mean(x[r], axis=-1, keepdims=True, out=mu[r])
        np.subtract(x[r], mu[r], out=xc)
        np.multiply(xc, xc, out=yr)
        np.mean(yr, axis=-1, keepdims=True, out=ir)  # the variance
        ir += eps
        np.sqrt(ir, out=ir)
        np.divide(1.0, ir, out=ir)
        xc *= ir  # xhat
        np.multiply(g, xc, out=yr)
        yr += b

    _each_part(part, len(x), x.size)
    return y, (xhat, inv, g)


def layer_norm_backward(dy: np.ndarray, cache):
    """dx and the products dy * xhat by item range; dg and db, sums over
    every row, here."""
    xhat, inv, g = cache
    dx, scratch, dy_xhat = np.empty_like(xhat), np.empty_like(xhat), np.empty_like(xhat)
    m1, m2 = np.empty_like(inv), np.empty_like(inv)

    def part(r):
        d, s, xr = dx[r], scratch[r], xhat[r]
        np.multiply(dy[r], xr, out=dy_xhat[r])
        np.multiply(dy[r], g, out=d)  # dxhat
        np.mean(d, axis=-1, keepdims=True, out=m1[r])
        np.multiply(d, xr, out=s)
        np.mean(s, axis=-1, keepdims=True, out=m2[r])
        d -= m1[r]
        np.multiply(xr, m2[r], out=s)
        d -= s
        d *= inv[r]

    _each_part(part, len(dy), dy.size)
    dg = dy_xhat.reshape(-1, dy.shape[-1]).sum(axis=0, keepdims=True)
    db = dy.reshape(-1, dy.shape[-1]).sum(axis=0, keepdims=True)
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


def _each_unit(unit, items: int, heads: int, rows: int, cols: int, dtype, buffers: int) -> None:
    """Calls unit(i, hs, *scratch) on every (item i, head slice hs) unit of
    `items` items of `heads` (rows, cols) weight blocks.  A unit spans the
    fewest heads whose weights reach _POOL_FLOOR, and the units go to the
    pool as one contiguous run per worker, each run in a copy of the
    caller's context (numpy keeps errstate in a context variable).  Under
    the floor, or with one worker, the units are whole items, run here.
    Each run's `buffers` unit-sized scratch blocks are allocated here, in
    the calling thread: blocks a worker allocated would go to its own
    malloc arena, which keeps their pages."""
    group = next((g for g in range(1, heads + 1) if heads % g == 0 and g * rows * cols >= _POOL_FLOOR),
                 None)
    workers = min(WORKERS, items * heads // group) if group else 1
    if workers == 1:
        group = heads
    units = [(i, slice(h, h + group)) for i in range(items) for h in range(0, heads, group)]
    runs = [(units[k * len(units) // workers:(k + 1) * len(units) // workers],
             [np.empty((1, group, rows, cols), dtype) for _ in range(buffers)]) for k in range(workers)]
    _on_pool([(_run_units, unit, *run) for run in runs])


def _run_units(unit, units, scratch) -> None:
    for i, hs in units:
        unit(i, hs, *scratch)


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
    video_prefix: tuple[int, np.ndarray] | None = None,
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
    k = _project(x, p["attn.wk"])
    k_cache = (x, p["attn.wk"])
    v, v_cache = linear_forward(x, p["attn.wv"], p["attn.bv"])
    qh, kh, vh = (_split_heads(a, num_heads) for a in (q, k, v))
    B, _, S, d_head = qh.shape
    scale = np.asarray(1.0 / np.sqrt(d_head), dtype=x.dtype)
    qh *= scale
    if video_prefix is not None:
        ctx = _merge_heads(_shared_prefix_ctx(qh, kh, vh, key_mask, *video_prefix))
        return linear_forward(ctx, p["attn.wo"], p["attn.bo"])[0], None
    drop = None
    if train and drop_rate > 0.0:
        cut, drop_scale = _dropout_cut(drop_rate, x.dtype)
        drop = (np.empty((B, num_heads, S, S), dtype=bool), drop_scale)
        for keep in drop[0]:  # item by item, in order, before any unit runs
            _keep(rng, keep.shape, cut, out=keep)
    rowmax, rowsum = (np.empty((B, num_heads, S, 1), dtype=x.dtype) for _ in range(2))
    ctx = np.empty(qh.shape, dtype=x.dtype)

    def attend(b, hs, e):
        t = (slice(b, b + 1), hs)
        np.matmul(qh[t], kh[t].swapaxes(-1, -2), out=e)
        _, rowmax[t], rowsum[t] = masked_softmax(e, key_mask[t[0]])
        if drop is not None:
            _scale_kept(e, drop[0][t], drop[1], out=e)
        np.matmul(e, vh[t], out=ctx[t])
        ctx[t] /= rowsum[t]

    _each_unit(attend, B, num_heads, S, S, x.dtype, 1)
    out, o_cache = linear_forward(_merge_heads(ctx), p["attn.wo"], p["attn.bo"])
    if not train:
        return out, None
    return out, (q_cache, k_cache, v_cache, o_cache, qh, kh, vh, key_mask, rowmax, rowsum,
                 drop, scale, num_heads)


def _shared_prefix_ctx(qh, kh, vh, key_mask, T, video_rows):
    """The eval attention context (B, heads, S, d_head) when items with equal
    `video_rows` share their first T rows, all valid keys (Hydragen's shared
    prefix, Juravsky et al. 2024): each video's (heads, T, T) block once, its
    rows' max m_vv, sum r_vv and E_vv V_v merged with each item's strip over
    its text keys, held keys-major (numpy reduces faster across rows), by
    FlashAttention's rescaling of row statistics (Dao et al. 2022)."""
    _, first, inv = np.unique(video_rows, return_index=True, return_inverse=True)
    m_vv, r_vv, ev_vv = (np.empty((len(first), qh.shape[1], T, n), qh.dtype) for n in (1, 1, qh.shape[-1]))

    def video_block(u, hs, e):
        b = first[u]
        np.matmul(qh[b, None, hs, :T], kh[b, None, hs, :T].swapaxes(-1, -2), out=e)
        _, m_vv[u, hs], r_vv[u, hs] = masked_softmax(e, key_mask[b, None, :T])
        np.matmul(e[0], vh[b, hs, :T], out=ev_vv[u, hs])

    # the video blocks' scratch, then one (B, heads, ., .) strip, is alive at a time
    _each_unit(video_block, len(first), qh.shape[1], T, T, qh.dtype, 1)
    m_vv, r_vv, ev_vv = m_vv[inv], r_vv[inv], ev_vv[inv]
    e, m_vt, r_vt = masked_softmax(
        (kh[:, :, T:] @ qh[:, :, :T].swapaxes(-1, -2)).swapaxes(-1, -2), key_mask[:, T:])
    a_vv, a_vt = (np.exp(np.minimum(d, 0.0)) for d in (m_vv - m_vt, m_vt - m_vv))
    ev_vv *= a_vv
    ev_vv += a_vt * (e @ vh[:, :, T:])
    ev_vv /= a_vv * r_vv + a_vt * r_vt
    del e
    e, _, r_t = masked_softmax(qh[:, :, T:] @ kh.swapaxes(-1, -2), key_mask)
    return np.concatenate([ev_vv, (e @ vh) / r_t], axis=2)


def mha_backward(dy: np.ndarray, cache):
    q_cache, k_cache, v_cache, o_cache, qh, kh, vh, key_mask, rowmax, rowsum, drop, scale, nh = cache
    dctx, dwo, dbo = linear_backward(dy, o_cache)
    dctx_h = _split_heads(dctx, nh)
    # softmax's row term rowsum(dP * P) is rowsum(dO * O) (FlashAttention's D)
    d = (dctx_h * _split_heads(o_cache[0], nh)).sum(axis=-1, keepdims=True)
    dqh, dkh, dvh = (np.empty(qh.shape, dtype=qh.dtype) for _ in range(3))

    def attend_back(b, hs, pt, dprobs):
        t = (slice(b, b + 1), hs)
        # the forward's probabilities, recomputed bit for bit
        np.matmul(qh[t], kh[t].swapaxes(-1, -2), out=pt)
        _shifted_exp(pt, key_mask[t[0]], rowmax[t])
        pt /= rowsum[t]
        np.matmul(dctx_h[t], vh[t].swapaxes(-1, -2), out=dprobs)
        if drop is not None:
            _scale_kept(dprobs, drop[0][t], drop[1], out=dprobs)
        dscores = softmax_backward(dprobs, pt, d[t])
        if drop is not None:
            _scale_kept(pt, drop[0][t], drop[1], out=pt)  # the kept weights
        np.matmul(pt.swapaxes(-1, -2), dctx_h[t], out=dvh[t])
        np.matmul(dscores, kh[t], out=dqh[t])
        # qh holds the scaled queries, so dk needs no further scaling
        np.matmul(dscores.swapaxes(-1, -2), qh[t], out=dkh[t])

    B, _, S, _ = qh.shape
    _each_unit(attend_back, B, nh, S, S, qh.dtype, 2)
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
    video_prefix: tuple[int, np.ndarray] | None = None,
):
    """Pre-LN residual block: LN -> MHA -> add, then LN -> FFN(GELU) -> add.

    Dropout sits on the attention weights and on the FFN activation.  An eval
    forward returns None as its cache; `video_prefix` goes to `mha_forward`.
    """
    h1, ln1_cache = layer_norm_forward(x, p["ln1.g"], p["ln1.b"])
    attn, mha_cache = mha_forward(h1, key_mask, p, num_heads, drop_rate, rng, train, video_prefix)
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
