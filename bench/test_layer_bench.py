"""Per-block timings of the encoder layer's other blocks and the optimiser:
layer norm and the feed-forward block (linear -> GELU -> dropout -> linear,
width 4 * 64), hidden width 64, float32, dropout 0.1, at the benchmark
workloads' shapes (S = 144 and 616, the joint sequence at T = 128 and 600):
forward and backward over a training batch of 8 items, and the forward
alone over an eval batch, 32 items at S = 144 and 24 at S = 616, as
`predict` batches them; and one Adam step over the parameters of the
acceptance encoder (criterion 6's config).  Each layer block runs split by
item range on the worker pool whatever its size (`pool`, the part floor
set to 0) and in the calling thread alone (`one`): the sizes where `pool`
starts to win set `layers._PART_FLOOR`.

    PYTHONPATH=src python -m pytest bench -q -p no:cacheprovider \\
        --benchmark-columns=median,iqr,rounds --benchmark-json=bench.json

Like the attention blocks, these assert no time, and their inputs are
fixed-seed."""

import numpy as np
import pytest
from test_attention_bench import DROP_RATE, HIDDEN, SEQ

from nlqground.anchors import AnchorConfig
from nlqground.nn import EncoderConfig, init_model, layers
from nlqground.nn.layers import (
    dropout_backward,
    dropout_forward,
    gelu_backward,
    gelu_forward,
    layer_norm_backward,
    layer_norm_forward,
    linear_backward,
    linear_forward,
)
from nlqground.nn.model import FFN_WIDTH_FACTOR
from nlqground.trainer import OptimizerState, adam_step

ACCEPTANCE_ENCODER = EncoderConfig(
    hidden_dim=64, num_heads=4, intra_layers=1, cross_layers=2,
    video_input_dim=32, text_input_dim=16, dropout_rate=0.1,
    anchors=AnchorConfig(scales=(0.02, 0.06), num_frames=128),
)
# items per batch: a training batch, and an eval batch as `predict` runs it
BATCH = {("train", "t128"): 8, ("train", "t600"): 8, ("eval", "t128"): 32, ("eval", "t600"): 24}


def _normal(seed, *shape, scale=1.0):
    return (scale * np.random.default_rng(seed).normal(size=shape)).astype(np.float32)


def _workers(monkeypatch, workers):
    if workers == "one":
        monkeypatch.setattr(layers, "WORKERS", 1)
    else:
        monkeypatch.setattr(layers, "_PART_FLOOR", 0)


@pytest.mark.parametrize("workers", ["pool", "one"])
@pytest.mark.parametrize("mode, shape", BATCH)
def test_layer_norm(benchmark, monkeypatch, mode, shape, workers):
    """`train` is a forward and backward, `eval` a forward."""
    _workers(monkeypatch, workers)
    x, dy = (_normal(seed, BATCH[mode, shape], SEQ[shape], HIDDEN) for seed in (0, 1))
    g, b = 1.0 + _normal(2, 1, HIDDEN, scale=0.1), _normal(3, 1, HIDDEN, scale=0.1)
    if mode == "eval":
        benchmark(layer_norm_forward, x, g, b)
        return

    def step():
        _, cache = layer_norm_forward(x, g, b)
        return layer_norm_backward(dy, cache)

    benchmark(step)


@pytest.mark.parametrize("workers", ["pool", "one"])
@pytest.mark.parametrize("mode, shape", BATCH)
def test_ffn(benchmark, monkeypatch, mode, shape, workers):
    """`train` is a forward with dropout and a backward, `eval` a forward."""
    _workers(monkeypatch, workers)
    width = FFN_WIDTH_FACTOR * HIDDEN
    x, dy = (_normal(seed, BATCH[mode, shape], SEQ[shape], HIDDEN) for seed in (0, 1))
    w1 = _normal(2, HIDDEN, width, scale=HIDDEN ** -0.5)
    w2 = _normal(3, width, HIDDEN, scale=width ** -0.5)
    b1, b2 = np.zeros((1, width), np.float32), np.zeros((1, HIDDEN), np.float32)
    rng = np.random.default_rng(4)
    train = mode == "train"

    def step():
        f1, l1_cache = linear_forward(x, w1, b1)
        a1, gelu_cache = gelu_forward(f1)
        a1d, drop = dropout_forward(a1, DROP_RATE, rng, train)
        out, l2_cache = linear_forward(a1d, w2, b2)
        if not train:
            return out
        da1d, dw2, db2 = linear_backward(dy, l2_cache)
        df1 = gelu_backward(dropout_backward(da1d, drop), gelu_cache)
        return linear_backward(df1, l1_cache), dw2, db2

    benchmark(step)


def test_adam_step(benchmark):
    model = init_model(ACCEPTANCE_ENCODER, seed=0)
    grads = {k: _normal(i, *p.shape, scale=1e-3) for i, (k, p) in enumerate(model.params.items())}
    state = OptimizerState.for_model(model)
    benchmark(adam_step, model.params, grads, state, 1e-3)
