"""Hierarchical token network over connectivity matrices.

Pipeline: correlation rows are embedded into node tokens; each block runs
node self-attention then sparse cross-attention that pools nodes into K
learnable subgraph tokens; a single graph token finally aggregates the
subgraph tokens by softmax attention. Every attention stage is followed by
its own feed-forward sublayer, post-norm throughout. The classifier reads
the concatenation of the graph token with mean-pooled subgraph and node
tokens; an auxiliary head reads mean-pooled node tokens alone.

A forward computes in the dtype of the parameters it is given. A training
step passes a ``FORWARD_DTYPE`` working copy of the float64 master tensors
that takes gradients, and eval-mode inference a constant ``FORWARD_DTYPE``
copy (both ``ModelParams.astype``), or the ``FORWARD_DTYPE`` parameters
``hierconn interpret`` loads, which it passes on without a copy; gradient
checks pass the float64 master tensors themselves.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .autodiff import (
    _CDF_SLICE_BYTES, Tensor, as_tensor, attention_sublayer, concat, ffn, linear,
)
from .errors import NonFiniteActivation, ShapeMismatch, check_fields

LN_EPS = 1e-5
INIT_STD = 0.02
# every forward, train or eval, runs at most this many subjects, so memory does
# not grow with the batch or the set: eval passes (scoring, interpretation)
# keep only what they read off each chunk, and a training step sums the
# gradients of its chunks, each chunk's loss scaled by its share of the batch,
# into one optimizer step; full eval chunks have the bits of a whole-batch
# forward, and a shorter last chunk (not padded) matches it to float32
# rounding, since BLAS may block GEMMs of fewer rows differently
FORWARD_CHUNK = 16
# training and eval-mode forwards compute in single precision: a training
# step's gradients are cast to float64 where the optimizer reads them, eval
# results where they leave the forward
FORWARD_DTYPE = np.float32


@dataclass(frozen=True)
class ModelConfig:
    n: int = field(metadata={"check": "> 0"})  # no default: taken from the dataset, so no flag
    d: int = field(default=384, metadata={"help": "token width", "check": "> 0"})
    heads: int = field(default=8, metadata={"help": "attention heads per stage", "check": "> 0"})
    layers: int = field(
        default=2, metadata={"help": "stacked node-attention/pooling blocks", "check": "> 0"}
    )
    k: int = field(default=8, metadata={"help": "subgraph token count", "check": ">= 2"})
    dropout: float = field(default=0.1, metadata={"help": "dropout rate", "check": "in [0, 1)"})
    class_count: int = field(default=2, metadata={"help": "number of classes", "check": ">= 2"})
    ffn_mult: int = field(
        default=4, metadata={"help": "feed-forward width as a multiple of d", "check": "> 0"}
    )

    def __post_init__(self):
        check_fields(self)
        if self.d % self.heads != 0:
            raise ValueError(f"d={self.d} not divisible by heads={self.heads}")

    def to_dict(self) -> dict:
        return asdict(self)


class ModelParams:
    """All learnable tensors, keyed by dotted name, of the given shapes: views into
    ``flat``, one contiguous array that holds them in name order. Write tensors in
    place; a tensor whose ``data`` is rebound no longer belongs to ``flat``."""

    def __init__(self, shapes: dict[str, tuple[int, ...]], flat: np.ndarray, requires_grad=True):
        self.flat = flat
        names = sorted(shapes)
        views = np.split(flat, np.cumsum([math.prod(shapes[name]) for name in names])[:-1])
        self.tensors = {
            name: Tensor(view.reshape(shapes[name]), requires_grad)
            for name, view in zip(names, views)
        }

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def names(self) -> list[str]:
        return sorted(self.tensors)

    def check_views(self) -> None:
        """Refuse a tensor whose ``data`` was rebound (``ShapeMismatch`` naming it):
        training, saving and casting read ``flat``, so they would miss its values."""
        # views of views share the owner of the memory, whatever array ``flat`` is
        owner = self.flat if self.flat.base is None else self.flat.base
        for name, t in self.tensors.items():
            if t.data.base is not owner:
                raise ShapeMismatch(f"{name}: data rebound, no longer a view into params.flat")

    def zero_grad(self) -> None:
        for t in self.tensors.values():
            t.grad = None

    def astype(self, dtype, requires_grad=False) -> "ModelParams":
        """Copies of every tensor in ``dtype``: constant ones for eval forwards
        (``self`` when its tensors already are constant and of ``dtype``), or with
        ``requires_grad`` a training step's working copy, which takes gradients."""
        self.check_views()
        if not requires_grad and self.flat.dtype == dtype and not any(
            t.requires_grad for t in self.tensors.values()
        ):
            return self
        shapes = {name: t.shape for name, t in self.tensors.items()}
        return ModelParams(shapes, self.flat.astype(dtype), requires_grad)


def param_specs(config: ModelConfig) -> dict[str, tuple[tuple[int, ...], str]]:
    """Every learnable tensor's shape and initialiser ("normal", "zeros" or
    "ones"), in the order ``init_params`` draws them."""
    d, n, k = config.d, config.n, config.k
    hidden = config.ffn_mult * d
    specs: dict[str, tuple[tuple[int, ...], str]] = {}

    def linear_pair(prefix, w, b, shape):
        specs[f"{prefix}.{w}"] = (shape, "normal")
        if b:  # attention's keys have none: a key bias would shift a whole score row
            specs[f"{prefix}.{b}"] = (shape[-1:], "zeros")

    def layer_norm_pair(prefix):
        specs[f"{prefix}.ln_g"] = ((d,), "ones")
        specs[f"{prefix}.ln_b"] = ((d,), "zeros")

    def attention_block(prefix):
        for w, b in (("wq", "bq"), ("wk", None), ("wv", "bv"), ("wo", "bo")):
            linear_pair(prefix, w, b, (d, d))
        layer_norm_pair(prefix)

    def ffn_block(prefix):
        linear_pair(prefix, "w1", "b1", (d, hidden))
        linear_pair(prefix, "w2", "b2", (hidden, d))
        layer_norm_pair(prefix)

    linear_pair("embed", "w", "b", (n, d))
    specs["subgraph_tokens"] = ((1, k, d), "normal")
    specs["graph_token"] = ((1, 1, d), "normal")
    for layer in range(config.layers):
        attention_block(f"layers.{layer}.node_attn")
        ffn_block(f"layers.{layer}.node_ffn")
        attention_block(f"layers.{layer}.pool_attn")
        ffn_block(f"layers.{layer}.pool_ffn")
    attention_block("graph_attn")
    ffn_block("graph_ffn")
    linear_pair("head", "w1", "b1", (3 * d, d))
    linear_pair("head", "w2", "b2", (d, config.class_count))
    linear_pair("aux", "w", "b", (d, config.class_count))
    return specs


def init_params(config: ModelConfig, seed: int) -> ModelParams:
    """Zero-mean normal (0.02 std) weights and tokens, identity layer norms."""
    rng = np.random.default_rng([seed, 1000])
    specs = param_specs(config)
    shapes = {name: shape for name, (shape, _) in specs.items()}
    params = ModelParams(shapes, np.zeros(sum(math.prod(shape) for shape in shapes.values())))
    for name, (_, kind) in specs.items():
        if kind == "normal":  # rng.normal(0.0, INIT_STD)'s values, drawn straight into ``flat``
            rng.standard_normal(out=params[name].data)
            params[name].data *= INIT_STD
        elif kind == "ones":
            params[name].data[...] = 1.0
    return params


@dataclass
class AttentionTrace:
    """Head-mean attention maps recorded during one forward pass over B subjects.

    ``node_to_subgraph``: one (B, K, n) row-stochastic array per block.
    ``subgraph_to_graph``: a (B, K+1) array of stochastic rows; index 0 is the
    graph token's self-weight, indices 1..K the subgraph tokens.
    ``node_to_subgraph_heads``: with ``trace_heads``, one (B, heads, K, n) array per block.
    """

    node_to_subgraph: list[np.ndarray] = field(default_factory=list)
    subgraph_to_graph: np.ndarray | None = None
    node_to_subgraph_heads: list[np.ndarray] | None = None


@dataclass
class ForwardOutput:
    z_g: Tensor
    z_n: Tensor
    node_tokens: Tensor
    subgraph_tokens: Tensor
    graph_token: Tensor
    trace: AttentionTrace


def _check_finite(name: str, t: Tensor) -> Tensor:
    if not np.all(np.isfinite(t.data)):
        raise NonFiniteActivation(f"non-finite values after {name}")
    return t


def _dropout_mask(shape, p: float, train: bool, rng) -> tuple[np.ndarray, float] | None:
    """A ``(keep, scale)`` inverted-dropout mask of ``shape`` when training with
    ``p > 0``, else None: bool keep draws and ``1 / (1 - p)``. The uniforms are
    drawn into one buffer of ``_CDF_SLICE_BYTES``, a slice at a time, the stream
    and values of ``rng.random(shape) >= p`` without its float64 array."""
    if not train or p <= 0.0:
        return None
    if rng is None:
        raise ValueError("train-mode dropout needs an rng for determinism")
    keep = np.empty(shape, np.bool_)
    keeps = keep.reshape(-1)
    step = _CDF_SLICE_BYTES // 8  # float64 uniforms
    draws = np.empty(min(keeps.size, step))
    for lo in range(0, keeps.size, step):
        part = draws[: keeps.size - lo]
        rng.random(out=part)
        np.greater_equal(part, p, out=keeps[lo : lo + part.size])
    return keep, 1.0 / (1.0 - p)


def _attention(
    query_src: Tensor,
    kv_src: Tensor,
    params: ModelParams,
    config: ModelConfig,
    prefix: str,
    *,
    activation: str,
    train: bool,
    rng,
) -> tuple[Tensor, np.ndarray]:
    """One attention sublayer (``attention_sublayer``); ``query_src`` is also the
    residual. Returns (normed output, per-head attention)."""
    projections = tuple(params[f"{prefix}.{w}"] for w in "wq bq wk wv bv wo bo".split())
    norm = params[f"{prefix}.ln_g"], params[f"{prefix}.ln_b"], LN_EPS
    # probabilities broadcast over the batch axes of the queries and keys
    shape = np.broadcast_shapes(query_src.shape[:-2], kv_src.shape[:-2]) + (
        config.heads, query_src.shape[-2], kv_src.shape[-2]
    )
    mask = _dropout_mask(shape, config.dropout, train, rng)
    return attention_sublayer(query_src, kv_src, projections, norm, config.heads, activation, mask)


def _ffn(x: Tensor, params: ModelParams, config: ModelConfig, prefix: str, *, train: bool, rng) -> Tensor:
    w1, b1, w2, b2 = (params[f"{prefix}.{name}"] for name in ("w1", "b1", "w2", "b2"))
    mask = _dropout_mask(x.shape[:-1] + w1.shape[-1:], config.dropout, train, rng)
    norm = params[f"{prefix}.ln_g"], params[f"{prefix}.ln_b"], LN_EPS
    return _check_finite(prefix, ffn(x, w1, b1, w2, b2, mask, norm))


def embed_nodes(matrices, params: ModelParams, config: ModelConfig) -> Tensor:
    """Each correlation row becomes one node token: X[i] = W^T row_i + b."""
    x = as_tensor(matrices)
    if x.shape[-1] != config.n or x.shape[-2] != config.n:
        raise ShapeMismatch(f"matrix shape {x.shape} != (.., {config.n}, {config.n})")
    return linear(x, params["embed.w"], params["embed.b"])


def node_to_node(x, params: ModelParams, config: ModelConfig, layer: int, *, train=False, rng=None) -> Tensor:
    """Standard multi-head self-attention over node tokens, post-norm."""
    x = as_tensor(x)
    out, _ = _attention(
        x, x, params, config, f"layers.{layer}.node_attn",
        activation="softmax", train=train, rng=rng,
    )
    return _check_finite(f"layers.{layer}.node_attn", out)


def node_to_subgraph(
    x_sg, x_n, params: ModelParams, config: ModelConfig, layer: int, *, train=False, rng=None,
) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Subgraph tokens query the nodes; rows are simplex projections."""
    x_sg, x_n = as_tensor(x_sg), as_tensor(x_n)
    out, per_head = _attention(
        x_sg, x_n, params, config, f"layers.{layer}.pool_attn",
        activation="sparsemax", train=train, rng=rng,
    )
    return _check_finite(f"layers.{layer}.pool_attn", out), per_head.mean(axis=-3), per_head


def subgraph_to_graph(
    x_g, x_sg, params: ModelParams, config: ModelConfig, *, train=False, rng=None,
) -> tuple[Tensor, np.ndarray]:
    """Graph token attends over [itself ++ subgraph tokens] with softmax."""
    x_g, x_sg = as_tensor(x_g), as_tensor(x_sg)
    batch = x_sg.shape[0]
    x_g_b = x_g.broadcast_to((batch,) + tuple(x_g.shape[1:]))
    kv = concat([x_g_b, x_sg], axis=1)
    out, per_head = _attention(
        x_g_b, kv, params, config, "graph_attn",
        activation="softmax", train=train, rng=rng,
    )
    # single query row: (B, 1, K+1) -> (B, K+1)
    return _check_finite("graph_attn", out), per_head.mean(axis=-3)[..., 0, :]


def forward_batch(
    matrices: np.ndarray,
    params: ModelParams,
    config: ModelConfig,
    mode: str = "eval",
    rng=None,
    trace_heads: bool = False,
) -> ForwardOutput:
    """Full pipeline over a (B, n, n) stack of matrices, computed in the
    parameters' dtype."""
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    train = mode == "train"
    matrices = np.asarray(matrices, dtype=params["embed.w"].data.dtype)
    if matrices.ndim != 3:
        raise ShapeMismatch(f"expected (B, n, n) matrices, got {matrices.shape}")
    trace = AttentionTrace(node_to_subgraph_heads=[] if trace_heads else None)
    x_n = _check_finite("embed", embed_nodes(Tensor(matrices), params, config))
    x_sg = params["subgraph_tokens"]
    for layer in range(config.layers):
        x_n = node_to_node(x_n, params, config, layer, train=train, rng=rng)
        x_n = _ffn(x_n, params, config, f"layers.{layer}.node_ffn", train=train, rng=rng)
        x_sg, head_mean, per_head = node_to_subgraph(
            x_sg, x_n, params, config, layer, train=train, rng=rng
        )
        x_sg = _ffn(x_sg, params, config, f"layers.{layer}.pool_ffn", train=train, rng=rng)
        trace.node_to_subgraph.append(head_mean)
        if trace_heads:
            trace.node_to_subgraph_heads.append(per_head)
    x_g, graph_mean = subgraph_to_graph(
        params["graph_token"], x_sg, params, config, train=train, rng=rng
    )
    x_g = _ffn(x_g, params, config, "graph_ffn", train=train, rng=rng)
    trace.subgraph_to_graph = graph_mean

    batch = matrices.shape[0]
    graph_feat = x_g.reshape(batch, config.d)
    pooled_sg = x_sg.mean(axis=1)
    pooled_n = x_n.mean(axis=1)
    head_in = concat([graph_feat, pooled_sg, pooled_n], axis=-1)
    w1, b1, w2, b2 = (params[f"head.{name}"] for name in ("w1", "b1", "w2", "b2"))
    mask = _dropout_mask((batch, w1.shape[-1]), config.dropout, train, rng)
    z_g = _check_finite("head", ffn(head_in, w1, b1, w2, b2, mask))
    z_n = _check_finite("aux", pooled_n @ params["aux.w"] + params["aux.b"])
    return ForwardOutput(
        z_g=z_g, z_n=z_n,
        node_tokens=x_n, subgraph_tokens=x_sg, graph_token=x_g,
        trace=trace,
    )

