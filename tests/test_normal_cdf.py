"""The Gaussian CDF kernel behind GELU: accuracy against scipy's erf in float64,
special values, slice boundaries, dtypes and concurrent calls."""

import math
import sys
import threading
import warnings

import numpy as np
import pytest
from scipy.special import erf

import hierconn.autodiff
from hierconn.autodiff import Tensor, _normal_cdf

C = hierconn.autodiff._CDF_CHUNK
ULP = {np.float32: 2.0**-24, np.float64: 2.0**-53}  # a unit in the last place of 0.5


def oracle(x):
    return 0.5 * (1.0 + erf(np.asarray(x, dtype=np.float64) / math.sqrt(2.0)))


def elementwise(x):
    return np.array([_normal_cdf(x[i : i + 1])[0] for i in range(x.size)], dtype=x.dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_within_three_ulp_of_the_float64_oracle(dtype):
    grid = np.concatenate([np.linspace(-12.0, 12.0, 240_001), np.linspace(-0.01, 0.01, 20_001)])
    x = grid.astype(dtype)
    error = np.abs(_normal_cdf(x).astype(np.float64) - oracle(x))
    assert error.max() <= 3 * ULP[dtype]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_special_values(dtype):
    x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan], dtype=dtype)
    cdf = _normal_cdf(x)
    np.testing.assert_array_equal(cdf[:4], [0.5, 0.5, 1.0, 0.0])
    assert np.isnan(cdf[4])
    gelu = Tensor(x[:2]).gelu().data
    np.testing.assert_array_equal(np.signbit(gelu), [False, True])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_huge_finite_inputs_raise_no_warning(dtype):
    big = np.finfo(dtype).max
    x = np.array([big, -big, big / 3, -1e30], dtype=dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cdf = _normal_cdf(x)
        out = Tensor(x).gelu().data
    np.testing.assert_array_equal(cdf, [1.0, 0.0, 1.0, 0.0])
    assert np.all(np.isfinite(out))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_zero_dimensional_input(dtype):
    cdf = _normal_cdf(np.array(1.5, dtype=dtype))
    assert cdf.shape == () and cdf.dtype == dtype
    assert abs(float(cdf) - oracle(1.5)) <= 3 * ULP[dtype]
    assert Tensor(np.array(-0.5, dtype=dtype)).gelu().data.shape == ()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("size", [0, 1, C - 1, C, C + 1, 3 * C + 5])
def test_slices_do_not_change_values(dtype, size):
    x = (np.random.default_rng(size).normal(size=size) * 4.0).astype(dtype)
    cdf = _normal_cdf(x)
    assert cdf.shape == x.shape and cdf.dtype == dtype
    # each element lands at another offset within its slice when the order is reversed
    np.testing.assert_array_equal(cdf, _normal_cdf(x[::-1].copy())[::-1])
    edges = sorted({i for i in (0, C - 1, C, C + 1, 2 * C, size - 1) if 0 <= i < size})
    np.testing.assert_array_equal(cdf[edges], elementwise(x[edges]))


@pytest.mark.parametrize("size", [0, 1, 7, 8, 9, 29])
def test_every_element_matches_across_small_slices(monkeypatch, size):
    monkeypatch.setattr(hierconn.autodiff, "_CDF_CHUNK", 8)
    x = np.random.default_rng(size).normal(size=size) * 4.0
    np.testing.assert_array_equal(_normal_cdf(x), elementwise(x))


def test_slices_leave_the_callers_error_state_alone():
    # the kernel silences overflow only around its own s * s; code that runs
    # between slices (the GELU pass) keeps the caller's error state
    x = np.full(3 * C, 1e200)
    before = np.geterr()
    with np.errstate(over="raise"):
        for _ in hierconn.autodiff._cdf_slices(x):
            assert np.geterr()["over"] == "raise"
    assert np.geterr() == before


def test_shape_and_dtype_are_kept():
    x = np.random.default_rng(0).normal(size=(3, 4, 5))
    for dtype in (np.float32, np.float64):
        assert _normal_cdf(x.astype(dtype)).shape == (3, 4, 5)
        assert _normal_cdf(x.astype(dtype)).dtype == dtype
        assert Tensor(x.astype(dtype)).gelu().data.dtype == dtype
    # a strided view is read in its logical order
    np.testing.assert_array_equal(_normal_cdf(x.swapaxes(0, 2)), _normal_cdf(x).swapaxes(0, 2))


def test_concurrent_calls_equal_sequential_ones():
    # more threads than cores, switching often, so calls interleave mid-slice
    rng = np.random.default_rng(1)
    inputs = [rng.normal(size=3 * C + 5) * 3.0 for _ in range(4)]
    expected = [_normal_cdf(x) for x in inputs]
    results = [[] for _ in inputs]
    start = threading.Barrier(len(inputs), timeout=60)

    def work(i):
        start.wait()
        for _ in range(10):
            results[i].append(_normal_cdf(inputs[i]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(inputs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for cdfs, want in zip(results, expected):
        assert len(cdfs) == 10
        for cdf in cdfs:
            np.testing.assert_array_equal(cdf, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_is_x_times_phi_with_the_closed_form_slope(dtype):
    # across a slice boundary: forward x * Phi(x), backward g * (Phi + x * pdf)
    # in the operation order GELU's backward has always used
    x = (np.random.default_rng(4).normal(size=C + 3) * 3.0).astype(dtype)
    g = np.random.default_rng(5).normal(size=C + 3).astype(dtype)
    t = Tensor(x, requires_grad=True)
    out = t.gelu()
    (out * Tensor(g)).sum().backward()
    cdf = _normal_cdf(x)
    slope = x * -0.5
    slope *= x
    np.exp(slope, out=slope)
    slope *= hierconn.autodiff._INV_SQRT2PI
    slope *= x
    slope += cdf
    np.testing.assert_array_equal(out.data.view(np.uint8), (x * cdf).view(np.uint8))
    np.testing.assert_array_equal(t.grad.view(np.uint8), (slope * g).view(np.uint8))
