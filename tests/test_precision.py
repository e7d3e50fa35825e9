"""Eval forwards compute in single precision; training stays in float64.

A forward computes in the dtype of the parameters it is given. Eval callers
(``predict_scores``, ``cohort_traces``) pass an ``EVAL_DTYPE`` copy, so every
fused op of their forwards must produce ``EVAL_DTYPE``: one float64 constant
anywhere would silently promote the rest of the forward. A training step on
the float64 master parameters must stay float64 throughout, gradients
included. The eval results are returned in float64 and agree with a float64
forward to 1e-5.
"""

import numpy as np
import pytest
from scipy.special import softmax

import hierconn.model
from hierconn.autodiff import Tensor, no_grad
from hierconn.data import SyntheticSpec, generate_synthetic, stack_records
from hierconn.interpret import cohort_traces
from hierconn.losses import LossWeights, total_loss_graph
from hierconn.model import EVAL_DTYPE, ModelConfig, forward_batch, init_params
from hierconn.train import predict_scores

CONFIG = ModelConfig(n=16, d=16, heads=4, layers=2, k=4, dropout=0.1)
OPS = ("linear", "attention", "layer_norm", "ffn")


def cohort(subjects=20):
    spec = SyntheticSpec(
        n=CONFIG.n, subject_count=subjects, planted_subgraphs=[tuple(range(3, 8))],
        signal_strength=0.5, noise_level=0.1, seed=4,
    )
    return list(generate_synthetic(spec).subjects)


def spread_params(seed=6):
    """Weights ten times the init scale, so attention is far from uniform and
    rounding has something to act on."""
    params = init_params(CONFIG, seed)
    for name in params.names():
        if name.endswith(("w", "wq", "wk", "wv", "wo", "w1", "w2", "tokens", "token")):
            params[name].data *= 10.0
    return params


@pytest.fixture()
def recorded(monkeypatch):
    """Output dtype of every linear, attention, layer_norm and ffn call, by op."""
    dtypes = {op: [] for op in OPS}

    def recording(op, original):
        def wrapper(*args, **kwargs):
            out = original(*args, **kwargs)
            for value in out if isinstance(out, tuple) else (out,):
                dtypes[op].append((value.data if isinstance(value, Tensor) else value).dtype)
            return out

        return wrapper

    for op in OPS:
        monkeypatch.setattr(hierconn.model, op, recording(op, getattr(hierconn.model, op)))
    return dtypes


def test_eval_forward_stays_in_eval_dtype(recorded):
    assert EVAL_DTYPE == np.float32
    matrices, _ = stack_records(cohort(5))
    with no_grad():
        out = forward_batch(matrices, spread_params().astype(EVAL_DTYPE), CONFIG, mode="eval")
    for op, dtypes in recorded.items():
        assert dtypes and set(dtypes) == {np.dtype(EVAL_DTYPE)}, op
    arrays = [out.z_g.data, out.z_n.data, out.node_tokens.data, out.subgraph_tokens.data,
              out.graph_token.data, *out.trace.node_to_subgraph, out.trace.subgraph_to_graph]
    assert {a.dtype for a in arrays} == {np.dtype(EVAL_DTYPE)}


def test_training_step_stays_float64(recorded):
    records = cohort(8)
    matrices, labels = stack_records(records)
    params = spread_params()
    out = forward_batch(matrices, params, CONFIG, mode="train", rng=np.random.default_rng(0))
    total, _ = total_loss_graph(out, np.eye(2)[labels], 0, 10, LossWeights())
    total.backward()
    for op, dtypes in recorded.items():
        assert dtypes and set(dtypes) == {np.dtype(np.float64)}, op
    assert total.data.dtype == np.float64
    for name in params.names():
        assert params[name].data.dtype == np.float64, name
        assert params[name].grad.dtype == np.float64, name


def test_eval_copy_is_constant_and_leaves_the_master_untouched():
    params = spread_params()
    before = {name: params[name].data.copy() for name in params.names()}
    copy = params.astype(EVAL_DTYPE)
    for name in params.names():
        assert copy[name].data.dtype == EVAL_DTYPE and not copy[name].requires_grad
        assert np.array_equal(copy[name].data, before[name].astype(EVAL_DTYPE))
        assert params[name].data.dtype == np.float64
        assert np.array_equal(params[name].data, before[name])


def float64_forward(records, params):
    matrices, _ = stack_records(records)
    with no_grad():
        return forward_batch(matrices, params, CONFIG, mode="eval")


def test_predict_scores_agree_with_float64_forward():
    records, params = cohort(), spread_params()
    matrices, _ = stack_records(records)
    scores = predict_scores(matrices, params, CONFIG)
    expected = softmax(float64_forward(records, params).z_g.data, axis=-1)[:, 1]
    assert scores.dtype == np.float64
    assert np.ptp(expected) > 0.05  # the scores spread, so agreement means something
    np.testing.assert_allclose(scores, expected, rtol=0, atol=1e-5)


def test_cohort_traces_agree_with_float64_forward():
    records, params = cohort(), spread_params()
    traces = cohort_traces(params, CONFIG, records)
    out = float64_forward(records, params)
    pairs = [
        (traces.pool_attention, out.trace.node_to_subgraph[-1]),
        (traces.graph_attention, out.trace.subgraph_to_graph),
        (traces.subgraph_tokens, out.subgraph_tokens.data),
    ]
    for got, expected in pairs:
        assert got.dtype == np.float64
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-5)
