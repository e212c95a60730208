"""Per-block timings of attention and the dropout draw at the benchmark
workloads' shapes: hidden width 64, 4 heads, the joint sequence S = T + 16
text tokens (T = 128 and T = 600) and, for attention, the text stack's
S = 16 alone, 8 items per training batch and 24 per eval batch, float32,
dropout 0.1.

    PYTHONPATH=src python -m pytest bench -q -p no:cacheprovider \\
        --benchmark-columns=median,iqr,rounds --benchmark-json=bench.json

The suite sits outside the tier-1 test paths and asserts no time: it
prints each block's median and interquartile range, so a kernel change can
quote its block's numbers before and after on the same machine.  The inputs
are fixed-seed, and half the items pad their last 5 text tokens, as short
queries do."""

import numpy as np
import pytest

from nlqground.nn.layers import _dropout_cut, _keep, mha_backward, mha_forward

HIDDEN, HEADS, TOKENS, DROP_RATE = 64, 4, 16, 0.1
TRAIN_BATCH, EVAL_BATCH = 8, 24
SEQ = {"t128": 128 + TOKENS, "t600": 600 + TOKENS}
ATTN_SEQ = {**SEQ, "text": TOKENS}


def _inputs(batch, seq):
    rng = np.random.default_rng(0)
    shapes = {"attn.wq": (HIDDEN, HIDDEN), "attn.bq": (1, HIDDEN), "attn.wk": (HIDDEN, HIDDEN),
              "attn.wv": (HIDDEN, HIDDEN), "attn.bv": (1, HIDDEN), "attn.wo": (HIDDEN, HIDDEN),
              "attn.bo": (1, HIDDEN)}
    p = {k: (rng.normal(size=s) / np.sqrt(s[0])).astype(np.float32) for k, s in shapes.items()}
    x = rng.normal(size=(batch, seq, HIDDEN)).astype(np.float32)
    mask = np.ones((batch, seq), bool)
    mask[::2, seq - 5:] = False
    return x, mask, p


@pytest.mark.parametrize("shape", ATTN_SEQ)
def test_mha_forward_eval(benchmark, shape):
    x, mask, p = _inputs(EVAL_BATCH, ATTN_SEQ[shape])
    benchmark(mha_forward, x, mask, p, HEADS, DROP_RATE, None, False)


@pytest.mark.parametrize("shape", ATTN_SEQ)
def test_mha_forward_backward_train(benchmark, shape):
    x, mask, p = _inputs(TRAIN_BATCH, ATTN_SEQ[shape])
    dy = np.random.default_rng(1).normal(size=x.shape).astype(np.float32)
    rng = np.random.default_rng(2)

    def step():
        _, cache = mha_forward(x, mask, p, HEADS, DROP_RATE, rng, True)
        return mha_backward(dy, cache)

    benchmark(step)


@pytest.mark.parametrize("shape", ATTN_SEQ)
def test_mha_backward_train(benchmark, shape):
    x, mask, p = _inputs(TRAIN_BATCH, ATTN_SEQ[shape])
    dy = np.random.default_rng(1).normal(size=x.shape).astype(np.float32)
    # backward reads its cache and writes none of it, so one cache serves every round
    _, cache = mha_forward(x, mask, p, HEADS, DROP_RATE, np.random.default_rng(2), True)
    benchmark(mha_backward, dy, cache)


# one layer's dropout draws: one attention item's weights, into a keep mask
# as `mha_forward` draws them, and a training batch's FFN activation
@pytest.mark.parametrize("site", ["attention", "ffn"])
@pytest.mark.parametrize("shape", SEQ)
def test_dropout_draw(benchmark, shape, site):
    seq = SEQ[shape]
    dims = (HEADS, seq, seq) if site == "attention" else (TRAIN_BATCH, seq, 4 * HIDDEN)
    out = np.empty(dims, bool) if site == "attention" else None
    cut, _ = _dropout_cut(DROP_RATE, np.float32)
    benchmark(_keep, np.random.default_rng(3), dims, cut, out)
