"""Per-block timings of the encoder layer's other blocks and the optimiser
at the benchmark workloads' training shapes: layer norm and the
feed-forward block (linear -> GELU -> dropout -> linear, width 4 * 64) over
8 items of the joint sequence S = 144 and S = 616, hidden width 64,
float32, dropout 0.1, forward and backward; and one Adam step over the
parameters of the acceptance encoder (criterion 6's config).

    PYTHONPATH=src python -m pytest bench -q -p no:cacheprovider \\
        --benchmark-columns=median,iqr,rounds --benchmark-json=bench.json

Like the attention blocks, these assert no time, and their inputs are
fixed-seed."""

import numpy as np
import pytest
from test_attention_bench import DROP_RATE, HIDDEN, SEQ, TRAIN_BATCH

from nlqground.anchors import AnchorConfig
from nlqground.nn import EncoderConfig, init_model
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


def _normal(seed, *shape, scale=1.0):
    return (scale * np.random.default_rng(seed).normal(size=shape)).astype(np.float32)


@pytest.mark.parametrize("shape", SEQ)
def test_layer_norm_forward_backward(benchmark, shape):
    x, dy = (_normal(seed, TRAIN_BATCH, SEQ[shape], HIDDEN) for seed in (0, 1))
    g, b = 1.0 + _normal(2, 1, HIDDEN, scale=0.1), _normal(3, 1, HIDDEN, scale=0.1)

    def step():
        _, cache = layer_norm_forward(x, g, b)
        return layer_norm_backward(dy, cache)

    benchmark(step)


@pytest.mark.parametrize("shape", SEQ)
def test_ffn_forward_backward_train(benchmark, shape):
    width = FFN_WIDTH_FACTOR * HIDDEN
    x, dy = (_normal(seed, TRAIN_BATCH, SEQ[shape], HIDDEN) for seed in (0, 1))
    w1 = _normal(2, HIDDEN, width, scale=HIDDEN ** -0.5)
    w2 = _normal(3, width, HIDDEN, scale=width ** -0.5)
    b1, b2 = np.zeros((1, width), np.float32), np.zeros((1, HIDDEN), np.float32)
    rng = np.random.default_rng(4)

    def step():
        f1, l1_cache = linear_forward(x, w1, b1)
        a1, gelu_cache = gelu_forward(f1)
        a1d, drop = dropout_forward(a1, DROP_RATE, rng, True)
        _, l2_cache = linear_forward(a1d, w2, b2)
        da1d, dw2, db2 = linear_backward(dy, l2_cache)
        df1 = gelu_backward(dropout_backward(da1d, drop), gelu_cache)
        return linear_backward(df1, l1_cache), dw2, db2

    benchmark(step)


def test_adam_step(benchmark):
    model = init_model(ACCEPTANCE_ENCODER, seed=0)
    grads = {k: _normal(i, *p.shape, scale=1e-3) for i, (k, p) in enumerate(model.params.items())}
    state = OptimizerState.for_model(model)
    benchmark(adam_step, model.params, grads, state, 1e-3)
