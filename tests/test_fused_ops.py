"""Property tests: each fused op against the primitive-op composite it replaced.

The composites below are the graph-node chains the model used before the
fused ops existed; they are kept here only as oracles. Values and gradients
must agree to 1e-12 for random shapes, both attention activations, with and
without a dropout mask, and with a query broadcast over the batch axis.
Dropout is checked bit for bit against the float-multiplier mask it replaced,
and the feed-forward op and the self-attention sublayer bit for bit against
their chains, alone and inside a training step of the whole model;
cross-attention, which folds the key and value projections into its queries,
agrees with its chain to 1e-12 relative, alone and inside that step, and over
block 0's (1, K, d) queries has the bits of those queries broadcast first,
save the query side's gradients.
"""

import contextlib
import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import softmax

import hierconn.model
from hierconn.autodiff import (
    Tensor, attention, attention_sublayer, dropout, ffn, layer_norm, linear, no_grad,
)
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


def composite_ffn(x, w1, b1, w2, b2, mask=None, norm=None):
    hidden = linear(x, w1, b1).gelu()
    if mask is not None:
        hidden = dropout(hidden, mask)
    return post_norm(x, linear(hidden, w2, b2), norm)


def post_norm(x, out, norm):
    return out if norm is None else layer_norm(x + out, *norm)


def sublayer_ffn(x, w1, b1, w2, b2, mask=None, norm=None):
    """The fused feed-forward op, then the residual add and post-norm as two more nodes."""
    return post_norm(x, ffn(x, w1, b1, w2, b2, mask), norm)


def composite_attention_sublayer(x, kv, projections, norm, heads, activation, mask=None,
                                 key_bias=True):
    """The 15-node chain: q/k/v ``linear`` and split-head views, ``attention``, the
    merge, the output ``linear``, the residual add and ``layer_norm``. Its keys add a
    nonzero constant key bias, which the fused op lacks: it shifts whole score
    rows, so it may change no value or gradient. Without ``key_bias`` they add zeros,
    which keeps the chain's bits."""
    wq, bq, wk, wv, bv, wo, bo = projections
    d = x.shape[-1]
    bk = Tensor(np.linspace(-0.6, 0.9, d) if key_bias else np.zeros(d))

    def split(t):
        b, n, d = t.shape
        return t.reshape(b, n, heads, d // heads).swapaxes(1, 2)

    q, k, v = split(linear(x, wq, bq)), split(linear(kv, wk, bk)), split(linear(kv, wv, bv))
    pooled, p = attention(q, k, v, activation, mask)
    b, h, t, d_h = pooled.shape
    merged = pooled.swapaxes(1, 2).reshape(b, t, h * d_h)
    return layer_norm(x + linear(merged, wo, bo), *norm), p


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
    gain_bias = [1.0 + rng.normal(size=d) * 0.1, rng.normal(size=d) * 0.1]

    def op(chain):
        def call(x, w1, b1, w2, b2, *norm):
            return chain(x, w1, b1, w2, b2, mask, (*norm, LN_EPS) if norm else None)

        return call

    # the classifier head, then a post-norm sublayer
    for inputs, chains in ((arrays, [composite_ffn]),
                           (arrays + gain_bias, [composite_ffn, sublayer_ffn])):
        fused = run(op(ffn), inputs, tokens)
        for chain in chains:
            expect = run(op(chain), inputs, tokens)
            assert_same_bits(fused[0], expect[0])
            for got, grad in zip(fused[2], expect[2], strict=True):
                assert_same_bits(got, grad)


PROJECTIONS = ("wq", "bq", "wk", "wv", "bv", "wo", "bo")  # attention_sublayer's order


def sublayer_shapes(d):
    """The shapes of the projections, then of the norm's gain and bias."""
    return [(d, d) if name[0] == "w" else (d,) for name in PROJECTIONS] + [(d,)] * 2


def sublayer_inputs(tq, tk, shared, query_batch, rate, heads):
    """Query, key/value, projection and norm arrays of one attention sublayer and
    its ``(keep, scale)`` dropout mask at ``rate``."""
    batch, d = 3, 8
    rng = np.random.default_rng([tq, tk, query_batch])
    kv = rng.normal(size=(batch, tk, d))
    x = kv if shared else rng.normal(size=(batch if query_batch else 1, tq, d))
    weights = [rng.normal(size=(d, d)) * 0.5 if name[0] == "w" else rng.normal(size=d) * 0.3
               for name in PROJECTIONS]
    weights += [1.0 + rng.normal(size=d) * 0.1, rng.normal(size=d) * 0.1]
    mask = None
    if rate:
        mask = rng.random((batch, heads, tq, tk)) >= rate, 1.0 / (1.0 - rate)
    return ([] if shared else [x]) + [kv] + weights, mask


def sublayer_call(sublayer, shared, heads, activation, mask):
    def call(*tensors):
        x, kv = (tensors[0],) * 2 if shared else tensors[:2]
        w = tensors[1:] if shared else tensors[2:]
        return sublayer(x, kv, w[:7], (*w[7:], LN_EPS), heads, activation, mask)

    return call


def assert_relative(got, expect, rtol):
    """``got`` within ``rtol`` of ``expect``, relative to ``expect``'s largest magnitude."""
    assert got.shape == expect.shape and got.dtype == expect.dtype
    scale = np.max(np.abs(expect))
    assert np.max(np.abs(got - expect)) <= rtol * scale, (np.max(np.abs(got - expect)), scale)


def broadcast_chain(x, kv, projections, norm, heads, activation, mask=None):
    """Block 0's (1, K, d) subgraph tokens broadcast over the batch by a node of
    their own, then the sublayer on (B, K, d) queries."""
    x = x.broadcast_to(kv.shape[:1] + x.shape[1:])
    return attention_sublayer(x, kv, projections, norm, heads, activation, mask)


@pytest.mark.parametrize("rate", [0.0, 0.3])
@pytest.mark.parametrize("role", ["node", "pool-block-0"])
def test_attention_sublayer_is_its_chain_bit_for_bit(role, rate):
    heads = 2
    if role == "node":
        # self-attention (queries, keys and values from one tensor) projects keys
        # and values: it has the bits of the 15-node chain with zero key bias
        arrays, mask = sublayer_inputs(7, 7, True, True, rate, heads)
        call = sublayer_call(attention_sublayer, True, heads, "softmax", mask)
        chain_op = functools.partial(composite_attention_sublayer, key_bias=False)
        chain = run(sublayer_call(chain_op, True, heads, "softmax", mask), arrays, 7)
        query_side = []
    else:
        # cross-attention folds, so it matches the 15-node chain only to rounding
        # (the folded test below); block 0's (1, K, d) queries have the bits of
        # the chain that broadcasts them first, save the query side's gradients
        # (x, wq, bq, wk), which that chain sums over the batch in another order
        arrays, mask = sublayer_inputs(3, 6, False, False, rate, heads)
        call = sublayer_call(attention_sublayer, False, heads, "sparsemax", mask)
        chain = run(sublayer_call(broadcast_chain, False, heads, "sparsemax", mask), arrays, 7)
        query_side = [0, 2, 3, 4]
    fused = run(call, arrays, 7)
    if role != "node":  # the probabilities are sparse and not one-hot
        assert 0 < np.count_nonzero(fused[1] == 0.0) < fused[1].size - fused[1][..., 0].size
    for i in query_side:
        assert_relative(fused[2][i], chain[2][i], 1e-12)
    for i in reversed(query_side):
        del fused[2][i], chain[2][i]
    for got, expect in zip((fused[0], fused[1], *fused[2]), (chain[0], chain[1], *chain[2]),
                           strict=True):
        assert_same_bits(got, expect)


@pytest.mark.parametrize("rate", [0.0, 0.3])
@pytest.mark.parametrize("activation", ["softmax", "sparsemax"])
@pytest.mark.parametrize("tq, tk, query_batch", [
    pytest.param(3, 7, False, id="pool-block-0"),  # the (1, K, d) subgraph tokens
    pytest.param(3, 7, True, id="pool"),
    pytest.param(3, 16, True, id="pool-wide"),
    pytest.param(1, 4, True, id="graph"),
    # as many head-query rows as keys (heads * Tq = Tk), then more
    pytest.param(3, 6, False, id="pool-block-0-balanced"),
    pytest.param(3, 6, True, id="pool-balanced"),
    pytest.param(1, 2, True, id="graph-balanced"),
    pytest.param(3, 4, False, id="pool-block-0-few-keys"),
    pytest.param(3, 4, True, id="pool-few-keys"),
])
def test_folded_attention_sublayer_matches_its_chain(tq, tk, query_batch, activation, rate):
    # cross-attention never projects keys and values of kv, whatever the shapes,
    # so the value and every gradient agree with the chain to rounding, and the
    # chain's nonzero key bias changes nothing
    heads = 2
    arrays, mask = sublayer_inputs(tq, tk, False, query_batch, rate, heads)
    fused = run(sublayer_call(attention_sublayer, False, heads, activation, mask), arrays, 7)
    chain = run(sublayer_call(composite_attention_sublayer, False, heads, activation, mask),
                arrays, 7)
    if activation == "sparsemax":
        assert 0 < np.count_nonzero(fused[1] == 0.0) < fused[1].size - fused[1][..., 0].size
    for got, expect in zip((fused[0], fused[1], *fused[2]), (chain[0], chain[1], *chain[2]),
                           strict=True):
        assert_relative(got, expect, 1e-12)


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


def test_attention_sublayer_keeps_only_what_its_backward_reads():
    # a (B, T, d) array is 512 KiB, the probabilities 1 MiB
    batch, tokens, d, heads = 8, 64, 128, 4
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(batch, tokens, d)), requires_grad=True)
    weights = [Tensor(rng.normal(size=s) * 0.1, requires_grad=True)
               for s in sublayer_shapes(d)]
    mask = rng.random((batch, heads, tokens, tokens)) >= 0.1, 1.0 / 0.9
    act, probs = batch * tokens * d * 8, batch * heads * tokens * tokens * 8

    def traced(build_graph, keep_probs=True):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with contextlib.nullcontext() if build_graph else no_grad():
                out, p = attention_sublayer(
                    x, x, weights[:7], (*weights[7:], LN_EPS), heads, "softmax", mask
                )
            if not keep_probs:
                del p
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        return out, held

    out, held = traced(build_graph=False)
    assert not out.requires_grad
    assert act + probs <= held < act + probs + act // 8, held  # the output and probabilities
    out, held = traced(build_graph=True)
    assert out.requires_grad
    # also q, k, v and x-hat; not the merged heads or the probabilities, which
    # backward rebuilds, nor the output projection or the residual sum
    assert 5 * act + probs <= held < 5 * act + probs + act // 2, held
    # a caller that drops the probabilities leaves the node holding none
    out, held = traced(build_graph=True, keep_probs=False)
    assert out.requires_grad
    assert 5 * act <= held < 5 * act + act // 2, held

    # cross-attention projects no keys or values, whatever the shapes: the node
    # holds q, x-hat and std beside the output, no (B, Tk, d) array. With few
    # query rows (pool attention) its backward allocates one (B, Tk, d) array,
    # kv's gradient (a (B, Tk, d) array is 16 MiB, a (B, Tq, d) one 32 KiB).
    # Projecting, the node held k and v, and its backward peaked two (B, Tk, d)
    # arrays above that.
    def cross_attention(tq, tk, d):
        """Bytes the node holds, its backward's peak, and a (B, Tq, d) and a (B, Tk,
        d) array's bytes."""
        x = Tensor(rng.normal(size=(batch, tq, d)), requires_grad=True)
        kv = Tensor(rng.normal(size=(batch, tk, d)), requires_grad=True)
        weights = [Tensor(rng.normal(size=s) * 0.1, requires_grad=True)
                   for s in sublayer_shapes(d)]
        mask = rng.random((batch, heads, tq, tk)) >= 0.1, 1.0 / 0.9
        g = np.ones((batch, tq, d))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out, p = attention_sublayer(
                x, kv, weights[:7], (*weights[7:], LN_EPS), heads, "sparsemax", mask
            )
            del p
            held = tracemalloc.get_traced_memory()[0] - base
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out._backward(g)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert kv.grad.shape == kv.shape
        return held, peak, batch * tq * d * 8, batch * tk * d * 8

    held, peak, query, keys = cross_attention(2, 1024, 256)
    assert 3 * query <= held < 3 * query + query // 2, held
    assert keys <= peak < keys + keys // 2, (peak, keys)
    # more head-query rows than keys (heads * Tq = 2 Tk): still no key or value
    # array, where a projecting node also held k and v
    held, _, query, _ = cross_attention(64, 128, 128)
    assert 3 * query <= held < 3 * query + query // 2, held


def graph_nodes(*roots):
    seen, stack = set(), list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in seen and node._backward is not None:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


def training_step(config, monkeypatch, chains):
    """Graph nodes, loss and parameter gradients of one seeded training step, with
    the model's ops named in ``chains`` replaced by the chains given there."""
    with monkeypatch.context() as m:
        for name, chain in chains.items():
            m.setattr(hierconn.model, name, chain)
        params = init_params(config, 3)
        rng = np.random.default_rng(0)
        matrices = rng.uniform(-1.0, 1.0, size=(6, config.n, config.n))
        labels = np.eye(2)[[0, 1, 0, 1, 1, 0]]
        out = forward_batch(matrices, params, config, mode="train", rng=np.random.default_rng(1))
        total, _ = total_loss_graph(out, labels, 0, 10, LossWeights())
        nodes = graph_nodes(total)
        total.backward()
    return nodes, total.data, {name: params[name].grad for name in params.names()}


def projecting_chain(x, kv, projections, norm, heads, activation, mask=None):
    """The chain with zero key bias where the sublayer projects keys and values
    (self-attention, node attention), the fused op where it folds them into the
    queries (pool and graph attention)."""
    if kv is not x:
        return attention_sublayer(x, kv, projections, norm, heads, activation, mask)
    return composite_attention_sublayer(x, kv, projections, norm, heads, activation, mask,
                                        key_bias=False)


@pytest.mark.parametrize("rate, fewer_per_ffn", [(0.1, 3), (0.0, 2)])
def test_training_step_builds_fewer_nodes_and_the_same_bits(rate, fewer_per_ffn, monkeypatch):
    config = ModelConfig(n=10, d=16, heads=2, layers=2, k=3, dropout=rate)
    nodes, total, grads = training_step(config, monkeypatch, {})
    sublayers = 2 * config.layers + 1  # of each kind: node and pool per layer, graph
    # an attention sublayer was 15 nodes and a feed-forward one 3 (ffn, add,
    # norm); the primitive chain of each FFN and the head adds linear, gelu,
    # (dropout,) linear
    fewer = 14 * sublayers + 2 * sublayers
    for ffn_chain, chain_fewer in ((sublayer_ffn, fewer),
                                   (composite_ffn, fewer + fewer_per_ffn * (sublayers + 1))):
        # node attention and the FFNs have their chains' bits
        chains = {"attention_sublayer": projecting_chain, "ffn": ffn_chain}
        _, chain_total, chain_grads = training_step(config, monkeypatch, chains)
        assert_same_bits(total, chain_total)
        for name, grad in grads.items():
            assert_same_bits(grad, chain_grads[name])
        # pool and graph attention fold keys and values into the queries: every
        # value within rounding of the whole chain, which adds a nonzero key bias
        chains["attention_sublayer"] = composite_attention_sublayer
        chain_nodes, chain_total, chain_grads = training_step(config, monkeypatch, chains)
        assert (nodes, chain_nodes - nodes) == (80, chain_fewer)
        assert_relative(total, chain_total, 1e-12)
        for name, grad in grads.items():
            assert_relative(grad, chain_grads[name], 1e-12)

