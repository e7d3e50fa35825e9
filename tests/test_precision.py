"""Forwards compute in single precision on copies of the float64 weights.

A forward computes in the dtype of the parameters it is given. Training
steps pass a ``FORWARD_DTYPE`` working copy that takes gradients, and eval
callers (``predict_scores``, ``cohort_traces``) a constant one, so every fused
op of their forwards must produce ``FORWARD_DTYPE``: one float64 constant
anywhere would silently promote the rest of the forward. A training graph
built on float32 parameters backpropagates in float32, and one built on the
float64 master parameters (as gradient checks build it) stays float64
throughout, gradients included. The eval results are returned in float64 and
agree with a float64 forward to 1e-5.
"""

import numpy as np
import pytest
from scipy.special import softmax

import hierconn.interpret
import hierconn.model
from hierconn.autodiff import Tensor, no_grad
from hierconn.checkpoint import load_checkpoint, save_checkpoint
from hierconn.data import SyntheticSpec, generate_synthetic, stack_records
from hierconn.interpret import cohort_traces
from hierconn.losses import LossWeights, total_loss_graph
from hierconn.model import (
    FORWARD_DTYPE, ModelConfig, ModelParams, forward_batch, init_params, param_specs,
)
from hierconn.sparsemax import sparsemax_rows, sparsemax_rows_backward
from hierconn.train import predict_scores

CONFIG = ModelConfig(n=16, d=16, heads=4, layers=2, k=4, dropout=0.1)
OPS = ("linear", "attention_sublayer", "ffn")


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
    """Output dtype of every linear, attention_sublayer and ffn call, by op."""
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
    assert FORWARD_DTYPE == np.float32
    matrices, _ = stack_records(cohort(5))
    with no_grad():
        out = forward_batch(matrices, spread_params().astype(FORWARD_DTYPE), CONFIG, mode="eval")
    for op, dtypes in recorded.items():
        assert dtypes and set(dtypes) == {np.dtype(FORWARD_DTYPE)}, op
    arrays = [out.z_g.data, out.z_n.data, out.node_tokens.data, out.subgraph_tokens.data,
              out.graph_token.data, *out.trace.node_to_subgraph, out.trace.subgraph_to_graph]
    assert {a.dtype for a in arrays} == {np.dtype(FORWARD_DTYPE)}


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


@pytest.mark.parametrize("op", [
    lambda t: t + 1.5, lambda t: 1.5 + t, lambda t: t - 1.5, lambda t: 1.5 - t,
    lambda t: t * 0.5, lambda t: 0.5 * t, lambda t: t / 3.0,
    lambda t: t * np.full(3, 0.5), lambda t: t @ np.ones((3, 2)),
], ids=["add", "radd", "sub", "rsub", "mul", "rmul", "div", "mul-array", "matmul-array"])
def test_constants_take_the_dtype_of_float32_tensor_data(op):
    t = Tensor(np.linspace(-1.0, 1.0, 6, dtype=np.float32).reshape(2, 3), requires_grad=True)
    out = op(t).sum()
    assert out.data.dtype == np.float32
    out.backward()
    assert t.grad.dtype == np.float32


def test_sparsemax_backward_keeps_the_gradient_dtype():
    p = sparsemax_rows(np.array([[0.9, 0.2, 0.1], [0.3, 0.3, -2.0]], np.float32))
    assert sparsemax_rows_backward(p, np.ones_like(p)).dtype == np.float32


def test_float32_training_step_backpropagates_in_float32():
    """A train-mode forward and backward on float32 parameters, with float64
    one-hot targets, gives every parameter a float32 gradient: no constant, seed,
    support count, target or teacher promotes the graph to float64."""
    config = ModelConfig(n=10, d=16, heads=2, layers=2, k=3, dropout=0.1)
    master = init_params(config, 3)
    shapes = {name: master[name].shape for name in master.names()}
    params = ModelParams(shapes, master.flat.astype(np.float32))
    rng = np.random.default_rng(0)
    matrices = rng.uniform(-1.0, 1.0, size=(6, config.n, config.n))
    out = forward_batch(matrices, params, config, mode="train", rng=np.random.default_rng(1))
    total, _ = total_loss_graph(out, np.eye(2)[[0, 1, 0, 1, 1, 0]], 0, 10, LossWeights())
    assert total.data.dtype == np.float32
    total.backward()
    promoted = [name for name in params.names() if params[name].grad.dtype != np.float32]
    assert len(params.names()) == len(param_specs(config)) and promoted == []


def test_eval_copy_is_constant_and_leaves_the_master_untouched():
    params = spread_params()
    before = {name: params[name].data.copy() for name in params.names()}
    copy = params.astype(FORWARD_DTYPE)
    for name in params.names():
        assert copy[name].data.dtype == FORWARD_DTYPE and not copy[name].requires_grad
        assert np.array_equal(copy[name].data, before[name].astype(FORWARD_DTYPE))
        assert params[name].data.dtype == np.float64
        assert np.array_equal(params[name].data, before[name])


def test_eval_dtype_checkpoint_load_is_passed_on_uncopied(monkeypatch, tmp_path):
    """``interpret`` loads its weights in ``FORWARD_DTYPE``: ``eval_pass`` hands that
    ``ModelParams`` to every forward as it is, and the traces equal those of a
    float64 load, which ``eval_pass`` casts."""
    path = save_checkpoint(tmp_path / "c.bin", CONFIG, spread_params())
    _, master, _ = load_checkpoint(path)
    _, loaded, _ = load_checkpoint(path, FORWARD_DTYPE)
    assert loaded.astype(FORWARD_DTYPE) is loaded
    seen = []

    def recording(matrices, params, *args, **kwargs):
        seen.append(params)
        return forward_batch(matrices, params, *args, **kwargs)

    monkeypatch.setattr(hierconn.interpret, "forward_batch", recording)
    records = cohort()
    traces = cohort_traces(loaded, CONFIG, records)
    assert seen and all(params is loaded for params in seen)
    reference = cohort_traces(master, CONFIG, records)
    for field in ("pool_attention", "graph_attention", "subgraph_tokens"):
        assert np.array_equal(getattr(traces, field), getattr(reference, field)), field


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
