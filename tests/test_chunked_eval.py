"""Eval-mode inference runs in fixed chunks of ``EVAL_CHUNK`` subjects.

``predict_scores`` and ``cohort_traces`` must return exactly what one
whole-batch eval forward in ``EVAL_DTYPE`` returns, and their memory must not
grow with the number of subjects.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import softmax

import hierconn.interpret
from hierconn.autodiff import no_grad
from hierconn.data import SyntheticSpec, generate_synthetic, stack_records
from hierconn.interpret import cohort_traces
from hierconn.model import EVAL_CHUNK, EVAL_DTYPE, ModelConfig, forward_batch, init_params
from hierconn.train import predict_scores

SIZES = (1, 15, 16, 17, 53)


def cohort(n, subjects, seed=5):
    spec = SyntheticSpec(
        n=n, subject_count=subjects, planted_subgraphs=[tuple(range(2, 6))],
        signal_strength=0.5, noise_level=0.1, seed=seed,
    )
    return list(generate_synthetic(spec).subjects)


@pytest.fixture(scope="module")
def setup():
    config = ModelConfig(n=12, d=8, heads=2, layers=2, k=3, dropout=0.1)
    return config, init_params(config, 9), cohort(12, max(SIZES))


def whole_batch(records, params, config):
    matrices, _ = stack_records(records)
    with no_grad():
        return forward_batch(matrices, params.astype(EVAL_DTYPE), config, mode="eval")


def test_chunk_size_is_sixteen():
    assert EVAL_CHUNK == 16


@pytest.mark.parametrize("size", SIZES)
def test_predict_scores_equals_whole_batch_forward(setup, size):
    config, params, records = setup
    matrices, _ = stack_records(records[:size])
    logits = whole_batch(records[:size], params, config).z_g.data.astype(np.float64)
    expected = softmax(logits, axis=-1)[:, 1]
    assert np.array_equal(predict_scores(matrices, params, config), expected)


@pytest.mark.parametrize("size", SIZES)
def test_cohort_traces_equal_whole_batch_forward(setup, size):
    config, params, records = setup
    out = whole_batch(records[:size], params, config)
    traces = cohort_traces(params, config, records[:size])
    assert np.array_equal(traces.pool_attention, out.trace.node_to_subgraph[-1])
    assert np.array_equal(traces.graph_attention, out.trace.subgraph_to_graph)
    assert np.array_equal(traces.subgraph_tokens, out.subgraph_tokens.data)


@pytest.mark.parametrize("call", [
    lambda params, config, records: predict_scores(stack_records(records)[0], params, config),
    cohort_traces,
], ids=["predict_scores", "cohort_traces"])
def test_forward_runs_once_per_chunk(setup, monkeypatch, call):
    """Both functions run their forwards through ``interpret.eval_pass``, which
    calls ``forward_batch`` by the ``hierconn.interpret`` name, at most
    ``EVAL_CHUNK`` subjects at a time."""
    config, params, records = setup
    batch_sizes = []

    def counting(matrices, *args, **kwargs):
        batch_sizes.append(len(matrices))
        return forward_batch(matrices, *args, **kwargs)

    monkeypatch.setattr(hierconn.interpret, "forward_batch", counting)
    call(params, config, records[:17])
    assert batch_sizes == [EVAL_CHUNK, 1]
    batch_sizes.clear()
    call(params, config, records)
    assert len(batch_sizes) == math.ceil(len(records) / EVAL_CHUNK)
    assert sum(batch_sizes) == len(records)


def test_predict_scores_on_no_subjects_is_empty(setup):
    config, params, _ = setup
    scores = predict_scores(np.empty((0, config.n, config.n)), params, config)
    assert scores.shape == (0,)


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("run", [
    lambda params, config, records, matrices: predict_scores(matrices, params, config),
    lambda params, config, records, matrices: cohort_traces(params, config, records),
], ids=["predict_scores", "cohort_traces"])
def test_memory_stays_bounded_per_chunk(run):
    """Eight times the subjects cost at most 1.5 times the peak traced memory
    (a whole-batch forward costs about 7.5 times)."""
    config = ModelConfig(n=20, d=16, heads=2, layers=2, k=4, dropout=0.1)
    params = init_params(config, 3)
    records = cohort(20, 8 * EVAL_CHUNK)
    matrices, _ = stack_records(records)
    peaks = {}
    for size in (EVAL_CHUNK, 8 * EVAL_CHUNK):
        args = (params, config, records[:size], matrices[:size])
        run(*args)  # warm caches and lazy imports outside the measurement
        peaks[size] = traced_peak(lambda: run(*args))
    assert peaks[8 * EVAL_CHUNK] <= 1.5 * peaks[EVAL_CHUNK], peaks
