"""The grid-token polygon head: conv stem, weight-map encoder variants, query decoder.

The encoder turns a (d, G, G) instance feature into G*G tokens of width d.
Its default mode multiplies the feature by learned vertex- and edge-
probability maps in two stacked residual blocks; the ablation variants
(self-attention, channel concatenation, multiply-only) share the same
output contract.  The decoder transforms M learned queries through N
blocks of self-attention, cross-attention over the encoder tokens, and an
FFN, each followed by a residual connection and layer normalization.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .layers import (
    conv_bn_relu,
    ffn,
    init_attention,
    init_batch_norm,
    init_conv1x1,
    init_conv3x3,
    init_ffn,
    init_layer_norm,
    init_linear,
    linear,
    multi_head_attention,
    sinusoidal_encoding,
)
from .params import ParamStore
from .tensor import (
    Tensor,
    add,
    cast,
    concat,
    conv2d_1x1,
    layer_norm,
    mul,
    reshape,
    sigmoid,
    softmax,
    transpose,
)

ENCODER_VARIANTS = (
    "none",
    "original",
    "vertex_enhanced",
    "edge_enhanced",
    "vertex_edge_enhanced",
    "vertex_wise",
    "edge_wise",
    "vertex_edge_wise",
    "hierarchical",
)

# Self-attention depth of the `original` ablation encoder; mirrors the two
# stacked blocks of the default variant.
ORIGINAL_ENCODER_LAYERS = 2

WEIGHT_STEM_CONVS = 4


@dataclass(frozen=True)
class PolygonHeadConfig:
    """Architecture hyper-parameters of the polygon head."""

    grid_size: int = 20
    channels: int = 256
    heads: int = 4
    decoder_blocks: int = 8
    queries: int = 30
    encoder_variant: str = "hierarchical"
    ffn_hidden: int = 0  # 0 means 2 * channels
    stem_channels: tuple[int, ...] = field(default=())  # () derives from channels

    def __post_init__(self):
        if self.channels % self.heads != 0:
            raise ValueError(f"channels {self.channels} not divisible by heads {self.heads}")
        if self.grid_size < 4:
            raise ValueError(f"grid_size must be >= 4, got {self.grid_size}")
        if self.queries < 3:
            raise ValueError(f"queries must be >= 3, got {self.queries}")
        if self.encoder_variant not in ENCODER_VARIANTS:
            raise ValueError(
                f"unknown encoder variant {self.encoder_variant!r}; "
                f"expected one of {ENCODER_VARIANTS}"
            )

    @classmethod
    def desk(cls, **overrides) -> "PolygonHeadConfig":
        """Small configuration for tests and toy training."""
        base = dict(channels=32, queries=12, decoder_blocks=3)
        base.update(overrides)
        return cls(**base)

    @property
    def hidden(self) -> int:
        return self.ffn_hidden if self.ffn_hidden else 2 * self.channels

    @property
    def stem(self) -> tuple[int, ...]:
        if self.stem_channels:
            return self.stem_channels
        d = self.channels
        return (max(4, d // 4), max(8, d // 2), d)

    @property
    def vocab(self) -> int:
        return self.grid_size * self.grid_size + 1

    def needs_vertex_map(self) -> bool:
        return self.encoder_variant in (
            "vertex_enhanced", "vertex_edge_enhanced",
            "vertex_wise", "vertex_edge_wise", "hierarchical",
        )

    def needs_edge_map(self) -> bool:
        return self.encoder_variant in (
            "edge_enhanced", "vertex_edge_enhanced",
            "edge_wise", "vertex_edge_wise", "hierarchical",
        )


def init_model(cfg: PolygonHeadConfig, seed: int = 0, detection: bool = False) -> ParamStore:
    """Create all parameters: conv stem, encoder, decoder, output projection.

    This is the one definition of which parameters and buffers a model has:
    `load_checkpoint` fills the store this builds and rejects a file whose
    manifest differs from it.  Attention/linear weights are Glorot-uniform,
    biases zero, queries small Gaussian; attention keys carry no bias.
    With `detection`, small classification and box regression heads over a
    7x7 ROI are added.
    """
    rng = np.random.RandomState(seed)
    store = ParamStore()
    d = cfg.channels

    c_prev = 1
    for i, c_out in enumerate(cfg.stem):
        init_conv3x3(store, rng, f"stem.{i}.conv", c_prev, c_out)
        init_batch_norm(store, f"stem.{i}.bn", c_out)
        c_prev = c_out
    if c_prev != d:
        raise ValueError(f"stem must end at {d} channels, got {cfg.stem}")

    variant = cfg.encoder_variant
    if cfg.needs_vertex_map() or cfg.needs_edge_map():
        for i in range(WEIGHT_STEM_CONVS):
            init_conv3x3(store, rng, f"enc.wstem.{i}.conv", d, d)
            init_batch_norm(store, f"enc.wstem.{i}.bn", d)
        if cfg.needs_vertex_map():
            init_conv1x1(store, rng, "enc.vertex_head", d, 1)
        if cfg.needs_edge_map():
            init_conv1x1(store, rng, "enc.edge_head", d, 1)

    if variant == "original":
        for i in range(ORIGINAL_ENCODER_LAYERS):
            init_attention(store, rng, f"enc.layer{i}.attn", d)
            init_layer_norm(store, f"enc.layer{i}.ln1", d)
            init_ffn(store, rng, f"enc.layer{i}.ffn", d, cfg.hidden)
            init_layer_norm(store, f"enc.layer{i}.ln2", d)
    elif variant in ("vertex_enhanced", "edge_enhanced"):
        init_conv1x1(store, rng, "enc.project", 2 * d, d)
    elif variant == "vertex_edge_enhanced":
        init_conv1x1(store, rng, "enc.project", 3 * d, d)
    elif variant in ("vertex_wise", "edge_wise", "vertex_edge_wise"):
        init_layer_norm(store, "enc.ln", d)
    elif variant == "hierarchical":
        for name in ("vertex", "edge"):
            init_layer_norm(store, f"enc.{name}.ln1", d)
            init_ffn(store, rng, f"enc.{name}.ffn", d, cfg.hidden)
            init_layer_norm(store, f"enc.{name}.ln2", d)

    store.add_param("dec.query", rng.normal(0.0, 0.02, size=(cfg.queries, d)))
    for i in range(cfg.decoder_blocks):
        init_attention(store, rng, f"dec.block{i}.self", d)
        init_layer_norm(store, f"dec.block{i}.ln1", d)
        init_attention(store, rng, f"dec.block{i}.cross", d)
        init_layer_norm(store, f"dec.block{i}.ln2", d)
        init_ffn(store, rng, f"dec.block{i}.ffn", d, cfg.hidden)
        init_layer_norm(store, f"dec.block{i}.ln3", d)

    init_linear(store, rng, "out", d, cfg.vocab)

    if detection:
        init_linear(store, rng, "det.fc1", d * 49, 64)
        init_linear(store, rng, "det.fc2", 64, 64)
        init_linear(store, rng, "det.cls", 64, 1)
        init_linear(store, rng, "det.bbox", 64, 4)
    return store


def stem_forward(images: Tensor, cfg: PolygonHeadConfig, store: ParamStore,
                 training: bool) -> Tensor:
    """(N, 1, S, S) image crops to (N, d, S, S) features."""
    x = images
    for i in range(len(cfg.stem)):
        x = conv_bn_relu(x, store, f"stem.{i}", training)
    return x


def _flatten_tokens(x: Tensor) -> Tensor:
    """(N, C, G, G) to (N, G*G, C)."""
    n, c, g, _ = x.shape
    return transpose(reshape(x, (n, c, g * g)), (0, 2, 1))


def _weight_maps(b: Tensor, cfg: PolygonHeadConfig, store: ParamStore, training: bool):
    x = b
    for i in range(WEIGHT_STEM_CONVS):
        x = conv_bn_relu(x, store, f"enc.wstem.{i}", training)
    vmap = emap = None
    if cfg.needs_vertex_map():
        vmap = sigmoid(conv2d_1x1(x, store["enc.vertex_head.w"], store["enc.vertex_head.b"]))
    if cfg.needs_edge_map():
        emap = sigmoid(conv2d_1x1(x, store["enc.edge_head.w"], store["enc.edge_head.b"]))
    return vmap, emap


def _residual_ln(x: Tensor, delta: Tensor, store: ParamStore, prefix: str) -> Tensor:
    return layer_norm(add(x, delta), store[f"{prefix}.gamma"], store[f"{prefix}.beta"])


def encoder_forward(
    b: Tensor, cfg: PolygonHeadConfig, store: ParamStore, training: bool = False
) -> tuple[Tensor, Tensor | None, Tensor | None]:
    """Encode instance features to (N, G*G, d) tokens plus optional weight maps.

    Accepts (d, G, G) or (N, d, G, G); a single instance comes back as
    (G*G, d).  The returned maps are (N, 1, G, G) probability tensors, None
    for variants that do not form them.
    """
    squeeze = b.data.ndim == 3
    if squeeze:
        b = reshape(b, (1,) + b.shape)
    if b.data.ndim != 4 or b.shape[1] != cfg.channels or b.shape[2] != cfg.grid_size:
        raise ValueError(
            f"encoder: expected (N, {cfg.channels}, {cfg.grid_size}, {cfg.grid_size}), "
            f"got {b.data.shape}"
        )
    variant = cfg.encoder_variant
    vmap = emap = None
    tokens = _flatten_tokens(b)

    if variant == "none":
        out = tokens
    elif variant == "original":
        x = tokens
        for i in range(ORIGINAL_ENCODER_LAYERS):
            p = f"enc.layer{i}"
            x = _residual_ln(x, multi_head_attention(x, x, x, store, f"{p}.attn", cfg.heads),
                             store, f"{p}.ln1")
            x = _residual_ln(x, ffn(x, store, f"{p}.ffn"), store, f"{p}.ln2")
        out = x
    else:
        vmap, emap = _weight_maps(b, cfg, store, training)
        if variant in ("vertex_enhanced", "edge_enhanced", "vertex_edge_enhanced"):
            parts = [b]
            if vmap is not None:
                parts.append(mul(b, vmap))
            if emap is not None:
                parts.append(mul(b, emap))
            projected = conv2d_1x1(concat(parts, axis=1),
                                   store["enc.project.w"], store["enc.project.b"])
            out = _flatten_tokens(projected)
        elif variant in ("vertex_wise", "edge_wise", "vertex_edge_wise"):
            x = tokens
            if vmap is not None:
                x = add(x, _flatten_tokens(mul(b, vmap)))
            if emap is not None:
                x = add(x, _flatten_tokens(mul(b, emap)))
            out = layer_norm(x, store["enc.ln.gamma"], store["enc.ln.beta"])
        else:  # hierarchical: vertex block feeds the edge block
            n, _, g, _ = b.shape
            wv = transpose(reshape(vmap, (n, 1, g * g)), (0, 2, 1))  # (N, G*G, 1)
            we = transpose(reshape(emap, (n, 1, g * g)), (0, 2, 1))
            x = tokens
            x = _residual_ln(x, mul(x, wv), store, "enc.vertex.ln1")
            x = _residual_ln(x, ffn(x, store, "enc.vertex.ffn"), store, "enc.vertex.ln2")
            x = _residual_ln(x, mul(x, we), store, "enc.edge.ln1")
            x = _residual_ln(x, ffn(x, store, "enc.edge.ffn"), store, "enc.edge.ln2")
            out = x

    if squeeze:
        out = reshape(out, out.shape[1:])
        vmap = reshape(vmap, vmap.shape[1:]) if vmap is not None else None
        emap = reshape(emap, emap.shape[1:]) if emap is not None else None
    return out, vmap, emap


def decoder_forward(b_emd: Tensor, cfg: PolygonHeadConfig, store: ParamStore) -> Tensor:
    """Transform the M learned queries against encoder tokens; returns (N, M, d).

    The queries receive a sinusoidal positional encoding over their index
    before the first block.  A 2-D token input produces a 2-D (M, d) output.
    """
    squeeze = b_emd.data.ndim == 2
    if squeeze:
        b_emd = reshape(b_emd, (1,) + b_emd.shape)
    d = cfg.channels
    q = reshape(store["dec.query"], (1, cfg.queries, d))
    pe = sinusoidal_encoding(cfg.queries, d).astype(q.data.dtype, copy=False)
    pe = Tensor(pe[None, :, :], op="constant")
    x = add(q, pe)
    for i in range(cfg.decoder_blocks):
        p = f"dec.block{i}"
        x = _residual_ln(x, multi_head_attention(x, x, x, store, f"{p}.self", cfg.heads),
                         store, f"{p}.ln1")
        x = _residual_ln(
            x,
            multi_head_attention(x, b_emd, b_emd, store, f"{p}.cross", cfg.heads),
            store, f"{p}.ln2",
        )
        x = _residual_ln(x, ffn(x, store, f"{p}.ffn"), store, f"{p}.ln3")
    if squeeze and x.data.shape[0] == 1:
        x = reshape(x, x.shape[1:])
    return x


def vertex_dist_tensor(v_emd: Tensor, store: ParamStore) -> Tensor:
    """Per-query categorical distributions as a graph tensor (softmax rows).

    The logits are cast to float64 first, so the rows are float64
    distributions whatever the head's compute dtype.
    """
    return softmax(cast(linear(v_emd, store, "out"), np.float64))

