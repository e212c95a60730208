"""Per-block timings of attention and the dropout draw at the benchmark
workloads' shapes: hidden width 64, 4 heads, the joint sequence S = T + 16
text tokens (T = 128 and T = 600) and, for attention, the text stack's
S = 16 alone, 8 items per training batch and 24 per eval batch, float32,
dropout 0.1.  The eval first cross layer's attention is timed as `predict`
batches it: 24 items over 8 videos at T = 600 and 32 over 11 at T = 128,
each with and without its shared video block, and with no video shared.
Attention on its worker pool is timed against one worker (every unit and
projection in the calling thread) at S = 144, 256 and 616, about the
pool's floor.

    PYTHONPATH=src python -m pytest bench -q -p no:cacheprovider \\
        --benchmark-columns=median,iqr,rounds --benchmark-json=bench.json

The suite sits outside the tier-1 test paths and asserts no time: it
prints each block's median and interquartile range, so a kernel change can
quote its block's numbers before and after on the same machine.  The inputs
are fixed-seed, and half the items pad their last 5 text tokens, as short
queries do."""

import numpy as np
import pytest

from nlqground.nn import layers
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


# the eval first cross layer's attention: B items over U distinct videos,
# each item's first T rows its video's, as `predict` batches them
CROSS = {"t600": (24, 8, 600), "t128": (32, 11, 128)}


@pytest.mark.parametrize("videos", ["shared", "unshared", "direct"])
@pytest.mark.parametrize("shape", CROSS)
def test_first_cross_attention_eval(benchmark, shape, videos):
    """`shared` has U videos, `unshared` B (U = B: what the split costs when
    no video repeats), and `direct` the shared inputs without `video_prefix`."""
    batch, distinct, frames = CROSS[shape]
    x, mask, p = _inputs(batch, frames + TOKENS)
    rows = np.arange(batch)
    if videos != "unshared":
        rows = np.random.default_rng(4).permutation(rows % distinct)
        x[:, :frames] = x[:distinct, :frames][rows]
    prefix = None if videos == "direct" else (frames, rows)
    benchmark(mha_forward, x, mask, p, HEADS, DROP_RATE, None, False, prefix)


# the pool against one worker: at S = 144 units are whole items of 4 heads,
# at 256 and 616 single heads
POOL_SEQ = (144, 256, 616)


@pytest.mark.parametrize("workers", ["pool", "one"])
@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("seq", POOL_SEQ)
def test_attention_pool(benchmark, monkeypatch, seq, mode, workers):
    """`train` is a forward and backward of a training batch, `eval` an eval
    forward of an eval batch."""
    if workers == "one":
        monkeypatch.setattr(layers, "WORKERS", 1)
    x, mask, p = _inputs(TRAIN_BATCH if mode == "train" else EVAL_BATCH, seq)
    if mode == "eval":
        benchmark(mha_forward, x, mask, p, HEADS, DROP_RATE, None, False)
        return
    dy = np.random.default_rng(1).normal(size=x.shape).astype(np.float32)
    rng = np.random.default_rng(2)

    def step():
        _, cache = mha_forward(x, mask, p, HEADS, DROP_RATE, rng, True)
        return mha_backward(dy, cache)

    benchmark(step)


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
