"""A training step runs its forward and backward in chunks of at most
``FORWARD_CHUNK`` subjects, on a ``FORWARD_DTYPE`` working copy of the
parameters, and takes one optimizer step on the summed, share-scaled chunk
gradients.

``_backward_in_chunks`` computes in the dtype of the parameters it is given:
on float64 parameters at dropout 0 its gradients are a whole-batch backward's
to rounding, and a batch of at most ``FORWARD_CHUNK`` subjects (one chunk of
share 1.0) has its bits. ``_train_step`` hands the optimizer that helper's
float32 gradients and keeps the master weights and moments float64. An error
in a later chunk skips the whole step, and the step's memory does not grow
with the batch.
"""

import tracemalloc

import numpy as np
import pytest

import hierconn.train as train_mod
from hierconn.data import SyntheticSpec, generate_synthetic, mixup, stack_records
from hierconn.errors import NonFiniteActivation
from hierconn.losses import LossWeights, total_loss_graph
from hierconn.model import FORWARD_CHUNK, ModelConfig, forward_batch, init_params
from hierconn.train import OptimizerState, TrainConfig, _backward_in_chunks, _train_step

CONFIG = ModelConfig(n=12, d=8, heads=2, layers=2, k=3, dropout=0.0)
CFG = TrainConfig(epochs=1, batch_size=64, lr=1e-3, lr_min=1e-4)
WEIGHTS = LossWeights()


def batch(subjects, n=12, seed=3):
    """Mixed-up matrices and soft targets of ``subjects`` subjects."""
    spec = SyntheticSpec(
        n=n, subject_count=max(subjects, 2), planted_subgraphs=[tuple(range(2, 6))],
        signal_strength=0.5, noise_level=0.1, seed=seed,
    )
    x, y = stack_records(list(generate_synthetic(spec).subjects)[:subjects])
    one_hot = np.eye(2)[y]
    pair = np.random.default_rng(seed).permutation(subjects)
    return mixup(x, x[pair], one_hot, one_hot[pair], 0.7)


def step(xb, yb, params, state=None, rng=None):
    """``_train_step`` at step 5 of 20; returns the breakdown."""
    state = state or OptimizerState(params)
    return _train_step(xb, yb, params, CONFIG, state, CFG, WEIGHTS, 1e-3, 5, 20, rng)


def chunked_gradients(xb, yb, params):
    """The gradients ``_backward_in_chunks`` leaves on ``params`` (cleared
    again), and its breakdown, at step 5 of 20."""
    assert all(params[name].grad is None for name in params.names())
    breakdown = _backward_in_chunks(xb, yb, params, CONFIG, WEIGHTS, 5, 20, None)
    grads = {name: params[name].grad.copy() for name in params.names()}
    params.zero_grad()
    return grads, breakdown


def whole_batch_gradients(xb, yb, params):
    out = forward_batch(xb, params, CONFIG, mode="train", rng=np.random.default_rng(0))
    total, breakdown = total_loss_graph(out, yb, 5, 20, WEIGHTS)
    params.zero_grad()
    total.backward()
    grads = {name: params[name].grad.copy() for name in params.names()}
    params.zero_grad()
    return grads, breakdown


def test_chunked_step_gradients_match_one_whole_batch_backward():
    xb, yb = batch(20)  # chunks of 16 and 4
    params = init_params(CONFIG, 1)
    chunked, breakdown = chunked_gradients(xb, yb, params)
    whole, expect = whole_batch_gradients(xb, yb, params)
    assert chunked.keys() == whole.keys()
    for name, grad in whole.items():
        assert np.linalg.norm(chunked[name] - grad) <= 1e-12 * np.linalg.norm(grad), name
    assert any(np.linalg.norm(grad) > 0 for grad in whole.values())
    for field in ("cls", "aux", "oc", "hc", "total"):
        assert getattr(breakdown, field) == pytest.approx(getattr(expect, field), rel=1e-12)
    assert breakdown.beta_t == expect.beta_t


@pytest.mark.parametrize("subjects", [1, 5, FORWARD_CHUNK])
def test_step_of_one_chunk_has_the_whole_batch_bits(subjects):
    xb, yb = batch(subjects)
    params = init_params(CONFIG, 1)
    chunked, breakdown = chunked_gradients(xb, yb, params)
    whole, expect = whole_batch_gradients(xb, yb, params)
    for name, grad in whole.items():
        np.testing.assert_array_equal(chunked[name].view(np.uint64), grad.view(np.uint64))
    assert breakdown == expect


@pytest.mark.parametrize("subjects", [5, 20])
def test_train_step_hands_the_optimizer_the_float32_gradients_of_a_working_copy(
    monkeypatch, subjects
):
    """The optimizer gets, as they are, the float32 gradients the chunk helper
    leaves on ``params.flat.astype(float32)``, with the helper's breakdown and
    dropout draws, and the master weights and moments stay float64."""
    config = ModelConfig(n=12, d=8, heads=2, layers=2, k=3, dropout=0.1)
    xb, yb = batch(subjects)
    params = init_params(config, 1)
    state = OptimizerState(params)
    handed, original = [], train_mod.optimizer_step

    def capture(p, grads, *args):
        handed.append({name: value.copy() for name, value in grads.items()})
        original(p, grads, *args)

    monkeypatch.setattr(train_mod, "optimizer_step", capture)
    work = params.astype(np.float32, requires_grad=True)
    expect = _backward_in_chunks(xb, yb, work, config, WEIGHTS, 5, 20, np.random.default_rng(4))
    before = params.flat.copy()
    got = _train_step(xb, yb, params, config, state, CFG, WEIGHTS, 1e-3, 5, 20,
                      np.random.default_rng(4))
    assert got == expect
    (grads,) = handed
    assert grads.keys() == set(params.names())
    for name in params.names():
        assert grads[name].dtype == np.float32, name
        np.testing.assert_array_equal(grads[name].view(np.uint32), work[name].grad.view(np.uint32))
        assert params[name].grad is None, name
    assert any(np.any(g != 0) for g in grads.values())
    assert params.flat.dtype == state.m.dtype == state.v.dtype == np.float64
    assert state.step == 1 and not np.array_equal(params.flat, before)
    assert all(params[name].data.base is params.flat for name in params.names())


def test_error_in_a_later_chunk_skips_the_whole_step(monkeypatch):
    xb, yb = batch(20)
    params = init_params(CONFIG, 1)
    state = OptimizerState(params)
    step(xb, yb, params, state)  # nonzero moments
    before = (params.flat.copy(), state.m.copy(), state.v.copy(), state.step)
    calls = []

    def second_chunk_fails(matrices, p, *args, **kwargs):
        calls.append(len(matrices))
        if len(calls) == 2:
            # the first chunk's backward has reached the parameters
            assert all(p[name].grad is not None for name in p.names())
            raise NonFiniteActivation("injected")
        return forward_batch(matrices, p, *args, **kwargs)

    monkeypatch.setattr(train_mod, "forward_batch", second_chunk_fails)
    with pytest.raises(NonFiniteActivation):
        step(xb, yb, params, state)
    assert calls == [FORWARD_CHUNK, 4]
    for got, expect in zip((params.flat, state.m, state.v), before):
        np.testing.assert_array_equal(got.view(np.uint64), expect.view(np.uint64))
    assert state.step == before[3]
    assert all(params[name].grad is None for name in params.names())


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_step_memory_stays_bounded_per_chunk():
    """Four times the subjects cost at most 1.5 times the peak traced memory of
    one step (a whole-batch step costs about 3.3 times)."""
    config = ModelConfig(n=20, d=16, heads=2, layers=2, k=4, dropout=0.1)
    params = init_params(config, 3)
    state = OptimizerState(params)
    xb, yb = batch(4 * FORWARD_CHUNK, n=20)
    peaks = {}
    for size in (FORWARD_CHUNK, 4 * FORWARD_CHUNK):

        def run(size=size):
            _train_step(xb[:size], yb[:size], params, config, state, CFG, WEIGHTS,
                        1e-3, 5, 20, np.random.default_rng(size))

        run()  # warm caches and lazy imports outside the measurement
        peaks[size] = traced_peak(run)
    assert peaks[4 * FORWARD_CHUNK] <= 1.5 * peaks[FORWARD_CHUNK], peaks
