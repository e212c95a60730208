"""The grounding network: per-modality encoders, a joint cross-modal encoder
over the concatenated [video; text] sequence, and twin prediction heads.

The forward pipeline is

    project -> +positions -> intra-modal encoder (per modality)
            -> gather each query's video rows
            -> +modality-type embedding -> +positions
            -> concat -> cross encoder (joint self-attention, padding-masked)
            -> final LN -> fused video states
            -> confidence head (sigmoid, T x K) and offset head (T x 2K)

Only text is padded: every sampled frame is valid, so the model builds the
all-valid video half of the attention mask itself and takes a text mask
alone.  `train` alone selects the mode: a train forward gathers each
query's video row before the projection, applies dropout and keeps the
cache that the hand-written `backward` walks in reverse to return gradients
for every parameter plus the input features; an eval forward does neither,
encodes each distinct video once, and in the first cross layer computes each
video's attention block once, merged with each query's text keys by
FlashAttention's rescaling (Dao et al. 2022; Hydragen, Juravsky et al. 2024).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..anchors import AnchorConfig
from ..core import require_int, require_number
from .layers import (
    encoder_layer_backward,
    encoder_layer_forward,
    gelu_backward,
    gelu_forward,
    layer_norm_backward,
    layer_norm_forward,
    linear_backward,
    linear_forward,
    sigmoid,
)

CONF_EPS = 1e-7
FFN_WIDTH_FACTOR = 4  # each encoder layer's feed-forward width, in units of hidden_dim


class InvalidStateError(RuntimeError):
    """Backward invoked against a cache that does not match the model."""


@dataclass(frozen=True)
class EncoderConfig:
    hidden_dim: int = 512
    num_heads: int = 4
    intra_layers: int = 1
    cross_layers: int = 5
    video_input_dim: int = 1024
    text_input_dim: int = 512
    anchors: AnchorConfig = AnchorConfig()  # the lattice the heads predict over
    dropout_rate: float = 0.1

    def __post_init__(self):
        for name in ("hidden_dim", "num_heads", "intra_layers", "cross_layers",
                     "video_input_dim", "text_input_dim"):
            require_int(self, name, 1)
        if self.hidden_dim % self.num_heads != 0:
            raise ValueError(
                f"hidden_dim {self.hidden_dim} not divisible by num_heads {self.num_heads}"
            )
        if self.hidden_dim % 2 != 0:
            raise ValueError(f"hidden_dim must be even for sin/cos positions, got {self.hidden_dim}")
        require_number(self, "dropout_rate", "[0, 1)")


def _stacks(config: EncoderConfig) -> dict[str, int]:
    """Layer count of each encoder stack, by parameter prefix, in forward
    order."""
    return {"intra_video": config.intra_layers, "intra_text": config.intra_layers,
            "cross": config.cross_layers}


def sinusoidal_positions(length: int, dim: int, dtype=np.float64) -> np.ndarray:
    """Fixed sinusoidal position table: (p, 2i) -> sin, (p, 2i+1) -> cos of
    p / 10000^(2i/dim)."""
    if dim % 2 != 0:
        raise ValueError(f"position dim must be even, got {dim}")
    if length < 1 or dim < 1:
        raise ValueError(f"length and dim must be positive, got {length}, {dim}")
    pos = np.arange(length, dtype=np.float64)[:, None]
    freq = np.power(10000.0, -np.arange(0, dim, 2, dtype=np.float64) / dim)
    angles = pos * freq[None, :]
    table = np.empty((length, dim), dtype=np.float64)
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)
    return table.astype(dtype)


def _head_forward(x, params, prefix):
    """A prediction head, linear -> GELU -> linear, from the parameters
    `<prefix>.w1` .. `<prefix>.b2`; returns (output, cache)."""
    h, l1 = linear_forward(x, params[f"{prefix}.w1"], params[f"{prefix}.b1"])
    a, act = gelu_forward(h)
    out, l2 = linear_forward(a, params[f"{prefix}.w2"], params[f"{prefix}.b2"])
    return out, (l1, act, l2)


def _head_backward(d_out, cache, prefix, grads):
    """Reverse of `_head_forward`: writes the head's parameter gradients into
    `grads` and returns the gradient on its input."""
    l1, act, l2 = cache
    da, grads[f"{prefix}.w2"], grads[f"{prefix}.b2"] = linear_backward(d_out, l2)
    dx, grads[f"{prefix}.w1"], grads[f"{prefix}.b1"] = linear_backward(gelu_backward(da, act), l1)
    return dx


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def _layer_param_shapes(hidden: int, ff: int) -> list[tuple[str, int, int]]:
    return [
        ("ln1.g", 1, hidden), ("ln1.b", 1, hidden),
        ("attn.wq", hidden, hidden), ("attn.bq", 1, hidden),
        ("attn.wk", hidden, hidden),
        ("attn.wv", hidden, hidden), ("attn.bv", 1, hidden),
        ("attn.wo", hidden, hidden), ("attn.bo", 1, hidden),
        ("ln2.g", 1, hidden), ("ln2.b", 1, hidden),
        ("ffn.w1", hidden, ff), ("ffn.b1", 1, ff),
        ("ffn.w2", ff, hidden), ("ffn.b2", 1, hidden),
    ]


@dataclass
class GroundingModel:
    config: EncoderConfig
    rng_seed: int
    params: dict[str, np.ndarray]
    _dropout_rng: np.random.Generator = field(default=None, repr=False)

    def __post_init__(self):
        if self._dropout_rng is None:
            self._dropout_rng = np.random.default_rng([int(self.rng_seed), 0xD120])

    # -- structure ---------------------------------------------------------

    @property
    def dtype(self) -> np.dtype:
        """The parameters' dtype, in which the model computes."""
        return self.params["type_emb"].dtype

    def zero_grads(self) -> dict[str, np.ndarray]:
        return {k: np.zeros_like(v) for k, v in self.params.items()}

    # -- forward -----------------------------------------------------------

    def _encode(self, x, key_mask, prefix, train, cache, video_prefix=None):
        """Run the stack `prefix`, appending its layer caches (None in eval
        mode) to cache[prefix]; its first layer alone takes `video_prefix`."""
        cfg = self.config
        for i in range(_stacks(cfg)[prefix]):
            pre = f"{prefix}.{i}."
            p = {k[len(pre):]: v for k, v in self.params.items() if k.startswith(pre)}
            x, c = encoder_layer_forward(x, key_mask, p, cfg.num_heads, cfg.dropout_rate,
                                         self._dropout_rng, train, None if i else video_prefix)
            cache.setdefault(prefix, []).append(c)
        return x

    def forward_batch(self, videos, video_rows, text, text_mask, train: bool = False):
        """Batched forward.

        videos: (U, T, Dv) distinct videos, video_rows: (B,) each item's
        row of `videos`, text: (B, L, Dt), text_mask boolean (B, L).
        Returns (confidence (B,T,K) strictly inside (0, 1), raw offsets
        (B,T,2K), cache).  A train forward gathers the rows before the video
        projection, so each item draws its own dropout masks, and returns
        the cache for `backward`; an eval forward gathers them after the
        intra-video stack and returns None, and no layer's cache outlives
        its layer.
        """
        cfg = self.config
        videos = np.ascontiguousarray(videos, dtype=self.dtype)
        video_rows = np.asarray(video_rows)
        text = np.ascontiguousarray(text, dtype=self.dtype)
        text_mask = np.asarray(text_mask, dtype=bool)
        if videos.ndim != 3 or text.ndim != 3:
            raise ValueError("forward_batch expects 3-D feature arrays (B, S, D)")
        if (videos.shape[-1], text.shape[-1]) != (cfg.video_input_dim, cfg.text_input_dim):
            raise ValueError(f"(video, text) feature dims {videos.shape[-1], text.shape[-1]} "
                             f"!= config {cfg.video_input_dim, cfg.text_input_dim}")
        if video_rows.shape != text.shape[:1]:
            raise ValueError("video_rows must hold one row of videos per text item")
        if text_mask.shape != text.shape[:2]:
            raise ValueError("text mask shape must match the (B, L) feature prefix")
        if not text_mask.any(axis=1).all():
            raise ValueError("each item needs at least one valid text position")

        if train:
            videos = videos[video_rows]
        T = videos.shape[1]
        B, L, _ = text.shape
        H = cfg.hidden_dim
        pos_v = sinusoidal_positions(T, H, self.dtype)
        pos_t = sinusoidal_positions(L, H, self.dtype)

        v, vproj_cache = linear_forward(videos, self.params["video_proj.w"], self.params["video_proj.b"])
        t, tproj_cache = linear_forward(text, self.params["text_proj.w"], self.params["text_proj.b"])
        v = v + pos_v
        t = t + pos_t

        cache = {}
        v = self._encode(v, np.ones(v.shape[:2], dtype=bool), "intra_video", train, cache)
        t = self._encode(t, text_mask, "intra_text", train, cache)
        if not train:
            v = v[video_rows]

        type_emb = self.params["type_emb"]
        v = v + type_emb[0] + pos_v
        t = t + type_emb[1] + pos_t

        x = np.concatenate([v, t], axis=1)
        joint_mask = np.concatenate([np.ones((B, T), dtype=bool), text_mask], axis=1)
        x = self._encode(x, joint_mask, "cross", train, cache, None if train else (T, video_rows))
        x, final_ln_cache = layer_norm_forward(x, self.params["final_ln.g"], self.params["final_ln.b"])
        fused = x[:, :T, :]

        conf_logits, conf_head = _head_forward(fused, self.params, "conf_head")
        s = sigmoid(conf_logits)
        lo = np.asarray(CONF_EPS, dtype=self.dtype)
        hi = np.asarray(1.0, dtype=self.dtype) - lo
        confidence = np.clip(s, lo, hi)
        conf_clamped = (s < lo) | (s > hi)

        offsets, reg_head = _head_forward(fused, self.params, "reg_head")

        if not train:
            return confidence, offsets, None
        cache.update(B=B, T=T, L=L, vproj=vproj_cache, tproj=tproj_cache, final_ln=final_ln_cache,
                     conf=(conf_head, s, conf_clamped), reg=reg_head, param_ids=id(self.params))
        return confidence, offsets, cache

    # -- backward ----------------------------------------------------------

    def _encode_backward(self, dx, prefix, cache, grads):
        """Reverse of `_encode`: back through the stack `prefix`, last layer
        first, writing each layer's parameter gradients into `grads`."""
        for i in reversed(range(len(cache[prefix]))):
            dx, layer_grads = encoder_layer_backward(dx, cache[prefix][i])
            for k, v in layer_grads.items():
                grads[f"{prefix}.{i}.{k}"] = v
        return dx

    def backward(self, cache, d_confidence, d_offsets):
        """Reverse pass through the cached forward.

        Returns (param_grads, d_video, d_text) from the upstream gradients on
        the confidence and offset outputs; d_video (B, T, Dv) is per item,
        the gradient with respect to `videos[video_rows]`.
        """
        if cache is None or cache.get("param_ids") != id(self.params):
            raise InvalidStateError("backward requires the cache from this model's forward_batch")
        cfg = self.config
        B, T, L = cache["B"], cache["T"], cache["L"]
        d_confidence = np.asarray(d_confidence, dtype=self.dtype)
        d_offsets = np.asarray(d_offsets, dtype=self.dtype)
        grads = {}

        conf_head, s, conf_clamped = cache["conf"]
        d_logits = np.where(conf_clamped, 0.0, d_confidence * s * (1.0 - s)).astype(self.dtype)
        dfused_c = _head_backward(d_logits, conf_head, "conf_head", grads)
        dfused_r = _head_backward(d_offsets, cache["reg"], "reg_head", grads)

        dx = np.zeros((B, T + L, cfg.hidden_dim), dtype=self.dtype)
        dx[:, :T, :] = dfused_c + dfused_r
        dx, dg, db = layer_norm_backward(dx, cache["final_ln"])
        grads["final_ln.g"], grads["final_ln.b"] = dg, db

        dx = self._encode_backward(dx, "cross", cache, grads)
        dv, dt = dx[:, :T, :], dx[:, T:, :]
        grads["type_emb"] = np.stack([dv.reshape(-1, cfg.hidden_dim).sum(axis=0),
                                      dt.reshape(-1, cfg.hidden_dim).sum(axis=0)])

        dv = self._encode_backward(dv, "intra_video", cache, grads)
        dt = self._encode_backward(dt, "intra_text", cache, grads)

        d_video, dw, db = linear_backward(dv, cache["vproj"])
        grads["video_proj.w"], grads["video_proj.b"] = dw, db
        d_text, dw, db = linear_backward(dt, cache["tproj"])
        grads["text_proj.w"], grads["text_proj.b"] = dw, db

        ordered = {k: grads[k] for k in self.params}
        return ordered, d_video, d_text


def parameter_shapes(config: EncoderConfig) -> list[tuple[str, int, int]]:
    """Deterministic (name, rows, cols) manifest; also fixes the init order."""
    H, F, K = config.hidden_dim, FFN_WIDTH_FACTOR * config.hidden_dim, len(config.anchors.scales)
    shapes: list[tuple[str, int, int]] = [
        ("video_proj.w", config.video_input_dim, H), ("video_proj.b", 1, H),
        ("text_proj.w", config.text_input_dim, H), ("text_proj.b", 1, H),
        ("type_emb", 2, H),
    ]
    for prefix, depth in _stacks(config).items():
        for i in range(depth):
            shapes += [(f"{prefix}.{i}.{n}", r, c) for n, r, c in _layer_param_shapes(H, F)]
    shapes += [
        ("final_ln.g", 1, H), ("final_ln.b", 1, H),
        ("conf_head.w1", H, H), ("conf_head.b1", 1, H),
        ("conf_head.w2", H, K), ("conf_head.b2", 1, K),
        ("reg_head.w1", H, H), ("reg_head.b1", 1, H),
        ("reg_head.w2", H, 2 * K), ("reg_head.b2", 1, 2 * K),
    ]
    return shapes


def init_model(config: EncoderConfig, seed: int, dtype=np.float32) -> GroundingModel:
    """Glorot-uniform weights, zero biases, unit layer-norm gains, zero
    modality embeddings; fully determined by (config, seed)."""
    rng = np.random.default_rng(seed)
    dt = np.dtype(dtype)
    params: dict[str, np.ndarray] = {}
    for name, rows, cols in parameter_shapes(config):
        leaf = name.rsplit(".", 1)[-1]
        if leaf in ("w", "wq", "wk", "wv", "wo", "w1", "w2"):
            params[name] = _glorot(rng, rows, cols).astype(dt)
        elif leaf == "g":
            params[name] = np.ones((rows, cols), dtype=dt)
        else:  # biases, shifts, modality embeddings
            params[name] = np.zeros((rows, cols), dtype=dt)
    return GroundingModel(config=config, rng_seed=int(seed), params=params)
