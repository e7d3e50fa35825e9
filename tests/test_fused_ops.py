"""Property tests: each fused op against the primitive-op composite it replaced.

The composites below are the graph-node chains the model used before the
fused ops existed; they are kept here only as oracles. Values and gradients
must agree to 1e-12 for random shapes, both attention activations, with and
without a dropout mask, and with a query broadcast over the batch axis.
Dropout is checked bit for bit against the float-multiplier mask it replaced,
and the feed-forward op bit for bit against its chain, alone and inside a
training step of the whole model.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import softmax

import hierconn.model
from hierconn.autodiff import Tensor, attention, dropout, ffn, layer_norm, linear, no_grad
from hierconn.losses import LossWeights, total_loss_graph
from hierconn.model import LN_EPS, ModelConfig, forward_batch, init_params

TOL = dict(rtol=1e-12, atol=1e-12)
seeds = st.integers(0, 2**32 - 1)
dims = st.integers(1, 5)


def composite_linear(x, w, b):
    return x @ w + b


def composite_layer_norm(x, gain, bias, eps):
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered / (var + eps).sqrt() * gain + bias


def composite_softmax(x):
    shift = Tensor(x.data.max(axis=-1, keepdims=True))
    e = (x - shift).exp()
    return e / e.sum(axis=-1, keepdims=True)


def composite_attention(q, k, v, activation, mask=None):
    scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(q.shape[-1]))
    p = scores.sparsemax() if activation == "sparsemax" else composite_softmax(scores)
    weights = p if mask is None else p * Tensor(mask)
    return weights @ v, p.data


def composite_ffn(x, w1, b1, w2, b2, mask=None):
    hidden = linear(x, w1, b1).gelu()
    if mask is not None:
        hidden = dropout(hidden, mask)
    return linear(hidden, w2, b2)


def run(op, arrays, upstream_seed):
    """Output and input gradients of sum(op(*arrays) * G) for a fixed random G."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = op(*tensors)
    extra = None
    if isinstance(out, tuple):
        out, extra = out
    upstream = np.random.default_rng(upstream_seed).normal(size=out.shape)
    (out * Tensor(upstream)).sum().backward()
    return out.data, extra, [t.grad for t in tensors]


def assert_same(fused, composite):
    out_f, extra_f, grads_f = fused
    out_c, extra_c, grads_c = composite
    np.testing.assert_allclose(out_f, out_c, **TOL)
    if extra_c is not None:
        np.testing.assert_allclose(extra_f, extra_c, **TOL)
    for g_f, g_c in zip(grads_f, grads_c):
        assert g_f.shape == g_c.shape
        np.testing.assert_allclose(g_f, g_c, **TOL)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=seeds, batch=dims, rows=dims, d_in=dims, d_out=dims)
def test_linear_matches_composite(seed, batch, rows, d_in, d_out):
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=(batch, rows, d_in)), rng.normal(size=(d_in, d_out)),
              rng.normal(size=(d_out,))]
    assert_same(run(linear, arrays, seed), run(composite_linear, arrays, seed))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=seeds, batch=dims, rows=dims, d=st.integers(2, 8))
def test_layer_norm_matches_composite(seed, batch, rows, d):
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=(batch, rows, d)), rng.normal(size=d), rng.normal(size=d)]
    assert_same(
        run(lambda x, g, b: layer_norm(x, g, b, LN_EPS), arrays, seed),
        run(lambda x, g, b: composite_layer_norm(x, g, b, LN_EPS), arrays, seed),
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=seeds, batch=dims, heads=st.integers(1, 3), tq=dims, tk=dims, d_h=dims,
    activation=st.sampled_from(["softmax", "sparsemax"]),
    broadcast_query=st.booleans(), dropout=st.sampled_from([0.0, 0.3]),
)
def test_attention_matches_composite(
    seed, batch, heads, tq, tk, d_h, activation, broadcast_query, dropout
):
    rng = np.random.default_rng(seed)
    q_batch = 1 if broadcast_query else batch
    arrays = [rng.normal(size=(q_batch, heads, tq, d_h)) * 2.0,
              rng.normal(size=(batch, heads, tk, d_h)),
              rng.normal(size=(batch, heads, tk, d_h))]
    mask = multipliers = None
    if dropout:
        keep = rng.random((batch, heads, tq, tk)) >= dropout
        mask, multipliers = (keep, 1.0 / (1.0 - dropout)), keep / (1.0 - dropout)
    assert_same(
        run(lambda q, k, v: attention(q, k, v, activation, mask), arrays, seed),
        run(lambda q, k, v: composite_attention(q, k, v, activation, multipliers), arrays, seed),
    )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=seeds, batch=dims, rows=dims, d=dims, rate=st.sampled_from([0.1, 0.3, 0.5]))
def test_dropout_matches_float_mask_bit_for_bit(seed, batch, rows, d, rate):
    # the (keep, scale) mask gives the bits of the float multipliers it replaced,
    # the signs of dropped zeros included
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=(batch, rows, d))]
    keep = rng.random((batch, rows, d)) >= rate
    fused = run(lambda x: dropout(x, (keep, 1.0 / (1.0 - rate))), arrays, seed)
    composite = run(lambda x: x * Tensor(keep / (1.0 - rate)), arrays, seed)
    for got, expect in ((fused[0], composite[0]), (fused[2][0], composite[2][0])):
        np.testing.assert_array_equal(got, expect)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(expect))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_attention_softmax_is_scipy_softmax_bit_for_bit(dtype):
    rng = np.random.default_rng(5)
    q, k, v = (Tensor(rng.normal(size=(3, 2, 7, 4)).astype(dtype) * 4.0) for _ in range(3))
    _, p = attention(q, k, v, "softmax")
    scores = q.data @ k.data.swapaxes(-1, -2)
    scores *= 0.5  # 1 / sqrt(4), as attention scales
    expected = softmax(scores, axis=-1)
    assert p.dtype == expected.dtype == dtype
    np.testing.assert_array_equal(p.view(np.uint8), expected.view(np.uint8))


def assert_same_bits(got, expect):
    assert got.shape == expect.shape and got.dtype == expect.dtype
    got, expect = np.atleast_1d(got), np.atleast_1d(expect)
    np.testing.assert_array_equal(got.view(np.uint8), expect.view(np.uint8))


@pytest.mark.parametrize("rate", [0.0, 0.1])
@pytest.mark.parametrize("tokens", [116, 8, 1])  # node, subgraph and graph tokens
def test_ffn_is_its_chain_bit_for_bit(tokens, rate):
    # 3 x 116 x 128 hidden values span two GELU slices, the boundary mid-row
    batch, d, hidden = 3, 8, 128
    rng = np.random.default_rng(tokens)
    arrays = [rng.normal(size=(batch, tokens, d)), rng.normal(size=(d, hidden)),
              rng.normal(size=hidden) * 0.5, rng.normal(size=(hidden, d)), rng.normal(size=d)]
    mask = None
    if rate:
        mask = rng.random((batch, tokens, hidden)) >= rate, 1.0 / (1.0 - rate)
    fused = run(lambda *t: ffn(*t, mask), arrays, tokens)
    chain = run(lambda *t: composite_ffn(*t, mask), arrays, tokens)
    assert_same_bits(fused[0], chain[0])
    for got, expect in zip(fused[2], chain[2]):
        assert_same_bits(got, expect)


def test_ffn_without_a_graph_keeps_no_slope():
    # one (rows, hidden) array is 2 MiB; GELU's slice scratch is 1 MiB
    rows, d, hidden = 128, 8, 2048
    rng = np.random.default_rng(2)
    tensors = [Tensor(rng.normal(size=s), requires_grad=True)
               for s in ((rows, d), (d, hidden), (hidden,), (hidden, d), (d,))]
    hidden_bytes = rows * hidden * 8

    def traced(build_graph):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            if build_graph:
                out = ffn(*tensors)
            else:
                with no_grad():
                    out = ffn(*tensors)
            held, peak = (m - base for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        return out, held, peak

    out, held, peak = traced(build_graph=False)
    assert not out.requires_grad
    assert peak < 2 * hidden_bytes and held < hidden_bytes // 8, (peak, held)
    out, held, _ = traced(build_graph=True)
    assert out.requires_grad
    assert 2 * hidden_bytes <= held < 3 * hidden_bytes, held  # the hidden layer and the slope


def graph_nodes(*roots):
    seen, stack = set(), list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in seen and node._backward is not None:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


def training_step(config, monkeypatch, chain):
    """Graph nodes, loss and parameter gradients of one seeded training step,
    with every feed-forward sublayer the fused op or its chain."""
    with monkeypatch.context() as m:
        if chain:
            m.setattr(hierconn.model, "ffn", composite_ffn)
        params = init_params(config, 3)
        rng = np.random.default_rng(0)
        matrices = rng.uniform(-1.0, 1.0, size=(6, config.n, config.n))
        labels = np.eye(2)[[0, 1, 0, 1, 1, 0]]
        out = forward_batch(matrices, params, config, mode="train", rng=np.random.default_rng(1))
        total, _ = total_loss_graph(out, labels, 0, 10, LossWeights())
        nodes = graph_nodes(total)
        total.backward()
    return nodes, total.data, {name: params[name].grad for name in params.names()}


@pytest.mark.parametrize("rate, fewer_per_sublayer", [(0.1, 3), (0.0, 2)])
def test_training_step_builds_fewer_nodes_and_the_same_bits(rate, fewer_per_sublayer, monkeypatch):
    config = ModelConfig(n=10, d=16, heads=2, layers=2, k=3, dropout=rate)
    nodes, total, grads = training_step(config, monkeypatch, chain=False)
    chain_nodes, chain_total, chain_grads = training_step(config, monkeypatch, chain=True)
    sublayers = 2 * config.layers + 1  # node and pool FFN per layer, graph FFN
    assert chain_nodes - nodes == fewer_per_sublayer * sublayers
    assert_same_bits(total, chain_total)
    for name, grad in grads.items():
        assert_same_bits(grad, chain_grads[name])
