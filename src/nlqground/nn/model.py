"""The grounding network: per-modality encoders, a joint cross-modal encoder
over the concatenated [video; text] sequence, and twin prediction heads.

The forward pipeline is

    project -> +positions -> intra-modal encoder (per modality)
            -> +modality-type embedding -> +positions
            -> concat -> cross encoder (joint self-attention, padding-masked)
            -> final LN -> fused video states
            -> confidence head (sigmoid, T x K) and offset head (T x 2K)

Only text is padded: every sampled frame is valid, so the model builds the
all-valid video half of the attention mask itself and takes a text mask
alone.  Both forward and reverse passes are written by hand; `backward`
consumes the activation cache produced by `forward_batch` and returns
gradients for every parameter plus the input features.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
    num_scales: int = 2
    dropout_rate: float = 0.1
    feedforward_dim: int = 0  # 0 -> 4 * hidden_dim

    def __post_init__(self):
        if self.feedforward_dim == 0:
            object.__setattr__(self, "feedforward_dim", 4 * self.hidden_dim)
        if self.hidden_dim % self.num_heads != 0:
            raise ValueError(
                f"hidden_dim {self.hidden_dim} not divisible by num_heads {self.num_heads}"
            )
        for name in ("hidden_dim", "num_heads", "intra_layers", "cross_layers",
                     "video_input_dim", "text_input_dim", "num_scales", "feedforward_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ValueError(f"dropout_rate must lie in [0, 1), got {self.dropout_rate}")


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
    dtype: np.dtype = np.dtype(np.float32)
    _dropout_rng: np.random.Generator = field(default=None, repr=False)

    def __post_init__(self):
        if self._dropout_rng is None:
            self._dropout_rng = np.random.default_rng([int(self.rng_seed), 0xD120])

    # -- structure ---------------------------------------------------------

    def num_parameters(self) -> int:
        return sum(p.size for p in self.params.values())

    def to_dtype(self, dtype) -> "GroundingModel":
        """Copy of the model with parameters cast to `dtype` (float64 copies
        are used for gradient checking)."""
        dt = np.dtype(dtype)
        return GroundingModel(
            config=self.config,
            rng_seed=self.rng_seed,
            params={k: v.astype(dt) for k, v in self.params.items()},
            dtype=dt,
        )

    def zero_grads(self) -> dict[str, np.ndarray]:
        return {k: np.zeros_like(v) for k, v in self.params.items()}

    def _sub(self, prefix: str) -> dict[str, np.ndarray]:
        plen = len(prefix)
        return {k[plen:]: v for k, v in self.params.items() if k.startswith(prefix)}

    # -- forward -----------------------------------------------------------

    def _encode(self, x, key_mask, prefix, count, train, caches):
        """Run `count` encoder layers, appending each layer's cache to
        `caches` unless it is None."""
        cfg = self.config
        for i in range(count):
            x, c = encoder_layer_forward(x, key_mask, self._sub(f"{prefix}.{i}."), cfg.num_heads,
                                         cfg.dropout_rate, self._dropout_rng, train)
            if caches is not None:
                caches.append(c)
            del c  # not alive during the next layer
        return x

    def forward_batch(self, video, text, text_mask, train: bool = False, want_cache: bool = False):
        """Batched forward.

        video: (B, T, Dv), text: (B, L, Dt), text_mask boolean (B, L).
        Returns (confidence (B,T,K) strictly inside (0, 1), raw offsets
        (B,T,2K), cache).  The cache for `backward` is kept only with
        `want_cache`; otherwise it is None and no layer's cache outlives
        its layer.
        """
        cfg = self.config
        video = np.ascontiguousarray(video, dtype=self.dtype)
        text = np.ascontiguousarray(text, dtype=self.dtype)
        text_mask = np.asarray(text_mask, dtype=bool)
        if video.ndim != 3 or text.ndim != 3:
            raise ValueError("forward_batch expects 3-D feature arrays (B, S, D)")
        if video.shape[-1] != cfg.video_input_dim:
            raise ValueError(
                f"video feature dim {video.shape[-1]} != config {cfg.video_input_dim}")
        if text.shape[-1] != cfg.text_input_dim:
            raise ValueError(
                f"text feature dim {text.shape[-1]} != config {cfg.text_input_dim}")
        if text_mask.shape != text.shape[:2]:
            raise ValueError("text mask shape must match the (B, L) feature prefix")
        if not text_mask.any(axis=1).all():
            raise ValueError("each item needs at least one valid text position")

        B, T, _ = video.shape
        L = text.shape[1]
        frame_mask = np.ones((B, T), dtype=bool)
        H = cfg.hidden_dim
        pos_v = sinusoidal_positions(T, H, self.dtype)
        pos_t = sinusoidal_positions(L, H, self.dtype)

        v, vproj_cache = linear_forward(video, self.params["video_proj.w"], self.params["video_proj.b"])
        t, tproj_cache = linear_forward(text, self.params["text_proj.w"], self.params["text_proj.b"])
        v = v + pos_v
        t = t + pos_t

        intra_v_caches, intra_t_caches, cross_caches = ([], [], []) if want_cache else (None,) * 3
        v = self._encode(v, frame_mask, "intra_video", cfg.intra_layers, train, intra_v_caches)
        t = self._encode(t, text_mask, "intra_text", cfg.intra_layers, train, intra_t_caches)

        type_emb = self.params["type_emb"]
        v = v + type_emb[0] + pos_v
        t = t + type_emb[1] + pos_t

        x = np.concatenate([v, t], axis=1)
        joint_mask = np.concatenate([frame_mask, text_mask], axis=1)
        x = self._encode(x, joint_mask, "cross", cfg.cross_layers, train, cross_caches)
        x, final_ln_cache = layer_norm_forward(x, self.params["final_ln.g"], self.params["final_ln.b"])
        fused = x[:, :T, :]

        c1, conf_l1 = linear_forward(fused, self.params["conf_head.w1"], self.params["conf_head.b1"])
        ca, conf_gelu = gelu_forward(c1)
        conf_logits, conf_l2 = linear_forward(ca, self.params["conf_head.w2"], self.params["conf_head.b2"])
        s = sigmoid(conf_logits)
        lo = np.asarray(CONF_EPS, dtype=self.dtype)
        hi = np.asarray(1.0, dtype=self.dtype) - lo
        confidence = np.clip(s, lo, hi)
        conf_clamped = (s < lo) | (s > hi)

        r1, reg_l1 = linear_forward(fused, self.params["reg_head.w1"], self.params["reg_head.b1"])
        ra, reg_gelu = gelu_forward(r1)
        offsets, reg_l2 = linear_forward(ra, self.params["reg_head.w2"], self.params["reg_head.b2"])

        cache = None
        if want_cache:
            cache = {
                "B": B, "T": T, "L": L,
                "vproj": vproj_cache, "tproj": tproj_cache,
                "intra_v": intra_v_caches, "intra_t": intra_t_caches,
                "cross": cross_caches, "final_ln": final_ln_cache,
                "conf": (conf_l1, conf_gelu, conf_l2, s, conf_clamped),
                "reg": (reg_l1, reg_gelu, reg_l2),
                "param_ids": id(self.params),
            }
        return confidence, offsets, cache

    # -- backward ----------------------------------------------------------

    def backward(self, cache, d_confidence, d_offsets):
        """Reverse pass through the cached forward.

        Returns (param_grads, d_video, d_text) from the upstream gradients on
        the confidence and offset outputs.
        """
        if cache is None or cache.get("param_ids") != id(self.params):
            raise InvalidStateError("backward requires the cache from this model's forward_batch")
        cfg = self.config
        B, T, L = cache["B"], cache["T"], cache["L"]
        d_confidence = np.asarray(d_confidence, dtype=self.dtype)
        d_offsets = np.asarray(d_offsets, dtype=self.dtype)
        grads = {}

        conf_l1, conf_gelu, conf_l2, s, conf_clamped = cache["conf"]
        d_logits = np.where(conf_clamped, 0.0, d_confidence * s * (1.0 - s)).astype(self.dtype)
        dca, dw, db = linear_backward(d_logits, conf_l2)
        grads["conf_head.w2"], grads["conf_head.b2"] = dw, db
        dc1 = gelu_backward(dca, conf_gelu)
        dfused_c, dw, db = linear_backward(dc1, conf_l1)
        grads["conf_head.w1"], grads["conf_head.b1"] = dw, db

        reg_l1, reg_gelu, reg_l2 = cache["reg"]
        dra, dw, db = linear_backward(d_offsets, reg_l2)
        grads["reg_head.w2"], grads["reg_head.b2"] = dw, db
        dr1 = gelu_backward(dra, reg_gelu)
        dfused_r, dw, db = linear_backward(dr1, reg_l1)
        grads["reg_head.w1"], grads["reg_head.b1"] = dw, db

        dx = np.zeros((B, T + L, cfg.hidden_dim), dtype=self.dtype)
        dx[:, :T, :] = dfused_c + dfused_r
        dx, dg, db = layer_norm_backward(dx, cache["final_ln"])
        grads["final_ln.g"], grads["final_ln.b"] = dg, db

        for i in reversed(range(cfg.cross_layers)):
            dx, layer_grads = encoder_layer_backward(dx, cache["cross"][i])
            for k, v in layer_grads.items():
                grads[f"cross.{i}.{k}"] = v

        dv = dx[:, :T, :]
        dt = dx[:, T:, :]
        dtype_emb = np.stack([
            dv.reshape(-1, cfg.hidden_dim).sum(axis=0),
            dt.reshape(-1, cfg.hidden_dim).sum(axis=0),
        ])
        grads["type_emb"] = dtype_emb

        for i in reversed(range(cfg.intra_layers)):
            dv, layer_grads = encoder_layer_backward(dv, cache["intra_v"][i])
            for k, v in layer_grads.items():
                grads[f"intra_video.{i}.{k}"] = v
        for i in reversed(range(cfg.intra_layers)):
            dt, layer_grads = encoder_layer_backward(dt, cache["intra_t"][i])
            for k, v in layer_grads.items():
                grads[f"intra_text.{i}.{k}"] = v

        d_video, dw, db = linear_backward(dv, cache["vproj"])
        grads["video_proj.w"], grads["video_proj.b"] = dw, db
        d_text, dw, db = linear_backward(dt, cache["tproj"])
        grads["text_proj.w"], grads["text_proj.b"] = dw, db

        ordered = {k: grads[k] for k in self.params}
        return ordered, d_video, d_text


def parameter_shapes(config: EncoderConfig) -> list[tuple[str, int, int]]:
    """Deterministic (name, rows, cols) manifest; also fixes the init order."""
    H, F, K = config.hidden_dim, config.feedforward_dim, config.num_scales
    shapes: list[tuple[str, int, int]] = [
        ("video_proj.w", config.video_input_dim, H), ("video_proj.b", 1, H),
        ("text_proj.w", config.text_input_dim, H), ("text_proj.b", 1, H),
        ("type_emb", 2, H),
    ]
    for i in range(config.intra_layers):
        shapes += [(f"intra_video.{i}.{n}", r, c) for n, r, c in _layer_param_shapes(H, F)]
    for i in range(config.intra_layers):
        shapes += [(f"intra_text.{i}.{n}", r, c) for n, r, c in _layer_param_shapes(H, F)]
    for i in range(config.cross_layers):
        shapes += [(f"cross.{i}.{n}", r, c) for n, r, c in _layer_param_shapes(H, F)]
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
    return GroundingModel(config=config, rng_seed=int(seed), params=params, dtype=dt)
