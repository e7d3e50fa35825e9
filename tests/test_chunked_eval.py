"""Eval-mode inference runs in fixed chunks of ``EVAL_CHUNK`` subjects.

``predict_scores`` and ``cohort_traces`` return what one whole-batch eval
forward in ``EVAL_DTYPE`` returns: bit for bit for the subjects of full chunks,
and to float32 rounding for those of a shorter final chunk, whose GEMMs have
fewer rows and may be blocked differently (at the small widths below they also
match bit for bit). Their memory must not grow with the number of subjects. A
checkpoint loads in fixed slices, so its memory is the parameters plus one
slice.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import softmax

import hierconn.interpret
from hierconn.autodiff import no_grad
from hierconn.checkpoint import READ_SLICE, load_checkpoint, save_checkpoint
from hierconn.data import SyntheticSpec, generate_synthetic, stack_records
from hierconn.interpret import cohort_traces, eval_pass
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


@pytest.fixture(scope="module")
def reference_model():
    config = ModelConfig(n=116, d=384, heads=8, layers=2, k=8)
    return config, init_params(config, 9)


@pytest.mark.parametrize("tail", [1, 2, 3, 5])
def test_chunks_at_reference_widths_match_a_whole_batch_forward(reference_model, tail):
    # full chunks have a whole-batch forward's bits; a short final chunk (not
    # padded) matches it to float32 rounding
    config, params = reference_model
    rng = np.random.default_rng(tail)
    matrices = rng.uniform(-1.0, 1.0, size=(2 * EVAL_CHUNK + tail, config.n, config.n))

    def read(out):
        return (out.z_g.data, out.z_n.data, out.node_tokens.data, out.subgraph_tokens.data,
                out.graph_token.data, out.trace.node_to_subgraph[-1], out.trace.subgraph_to_graph)

    chunks = [np.concatenate(parts) for parts in zip(*eval_pass(matrices, params, config, read))]
    with no_grad():
        whole = read(forward_batch(matrices, params.astype(EVAL_DTYPE), config, mode="eval"))
    full = 2 * EVAL_CHUNK
    for got, expect in zip(chunks, whole, strict=True):
        assert got.dtype == expect.dtype == EVAL_DTYPE
        assert np.array_equal(got[:full], expect[:full])
        np.testing.assert_allclose(got[full:], expect[full:], rtol=1e-5,
                                   atol=1e-5 * np.max(np.abs(expect)))


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


def test_eval_pass_over_trainable_weights_builds_no_graph(setup):
    # the EVAL_DTYPE copies of the weights are constants, as is the input, so no
    # op of the forward becomes a graph node
    config, params, records = setup
    assert params.flat.dtype == np.float64
    assert all(params[name].requires_grad for name in params.names())
    outs = eval_pass(stack_records(records[:17])[0], params, config, lambda out: out)
    assert len(outs) == 2
    for out in outs:
        for t in (out.z_g, out.z_n, out.node_tokens, out.subgraph_tokens, out.graph_token):
            assert not t.requires_grad and t._backward is None
    assert all(params[name].grad is None for name in params.names())


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


@pytest.mark.parametrize("dtype", [np.float64, EVAL_DTYPE], ids=["float64", "eval-dtype"])
def test_checkpoint_load_holds_the_parameters_plus_one_slice(dtype, tmp_path):
    """A load of ~1M weights peaks at the parameters in ``dtype`` (the float64
    payload, or half of it) plus one float64 read slice, and 256 KiB for the
    header, tensors and views (~90 KiB measured). Reading the whole file and
    casting it held the payload twice, and a later eval cast once more."""
    config = ModelConfig(n=20, d=128, heads=2, layers=2, k=4)
    path = save_checkpoint(tmp_path / "c.bin", config, init_params(config, 3))
    load_checkpoint(path, dtype)  # warm caches and lazy imports outside the measurement
    params = []
    peak = traced_peak(lambda: params.append(load_checkpoint(path, dtype)[1]))
    flat = params[0].flat
    assert flat.size >= 1_000_000 and flat.dtype == dtype
    assert peak <= flat.nbytes + 8 * READ_SLICE + (256 << 10), (peak, flat.nbytes)
