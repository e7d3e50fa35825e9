"""Property tests: each fused op against the primitive-op composite it replaced.

The composites below are the graph-node chains the model used before the
fused ops existed; they are kept here only as oracles. Values and gradients
must agree to 1e-12 for random shapes, both attention activations, with and
without a dropout mask, and with a query broadcast over the batch axis.
Dropout is checked bit for bit against the float-multiplier mask it replaced.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import softmax

from hierconn.autodiff import Tensor, attention, dropout, layer_norm, linear
from hierconn.model import LN_EPS

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
