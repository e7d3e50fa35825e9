"""Exact Euclidean projection onto the probability simplex (sparsemax).

Forward is the classic sort-and-threshold construction; backward applies the
analytic Jacobian of the projection, which on the support S is
``J_ij = delta_ij - 1/|S|`` and zero elsewhere. Both are implemented once,
over the last axis (the form the attention stages use); the single-vector
forms of the public contract wrap them.

Rows are projected in the precision they arrive in: float32 scores stay
float32 (eval forwards), anything else is computed in float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyVector, NonFiniteInput, ShapeMismatch


@dataclass(frozen=True)
class SimplexProjection:
    """Result of projecting a score vector onto the simplex.

    ``threshold`` is the cut value tau of the projection (not a softmax
    temperature): ``p_i = max(z_i - threshold, 0)``.
    """

    probabilities: np.ndarray
    support: tuple[int, ...]
    threshold: float


def float_array(values) -> np.ndarray:
    """``values`` as an array: float32 arrays are kept as they are, anything
    else becomes float64."""
    values = np.asarray(values)
    return values if values.dtype == np.float32 else values.astype(np.float64, copy=False)


def _threshold_lastaxis(z: np.ndarray) -> np.ndarray:
    """Per-row projection threshold tau over the last axis of ``z``."""
    m = z.shape[-1]
    # descending sort; ties resolved by value only, which leaves tau and the
    # projection itself deterministic
    zs = np.flip(np.sort(z, axis=-1), axis=-1)
    cumulative = np.cumsum(zs, axis=-1) - 1.0
    ks = np.arange(1, m + 1, dtype=z.dtype)
    # support size = largest k with k*z_(k) > cumsum_k - strict inequality,
    # true on a prefix, false after
    support_size = np.sum(zs * ks > cumulative, axis=-1, keepdims=True)
    gathered = np.take_along_axis(cumulative, support_size - 1, axis=-1)
    # divide in z's precision: an int64 divisor would promote float32 to float64
    return gathered / support_size.astype(z.dtype)


def sparsemax_forward(z: np.ndarray) -> SimplexProjection:
    """Project a single score vector; argmin over the simplex of ||p - z||^2."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1:
        raise ShapeMismatch(f"expected a 1-d vector, got shape {z.shape}")
    p = sparsemax_rows(z)
    support = tuple(int(i) for i in np.flatnonzero(p))
    return SimplexProjection(p, support, float(_threshold_lastaxis(z)[0]))


def sparsemax_backward(proj: SimplexProjection, upstream: np.ndarray) -> np.ndarray:
    """J^T @ upstream for the projection's Jacobian.

    On the support: g_i = u_i - mean of u over the support; zero outside.
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != proj.probabilities.shape:
        raise ShapeMismatch(
            f"upstream shape {upstream.shape} != projection shape "
            f"{proj.probabilities.shape}"
        )
    return sparsemax_rows_backward(proj.probabilities, upstream)


def sparsemax_rows(scores: np.ndarray) -> np.ndarray:
    """Sparsemax applied independently over the last axis of ``scores``."""
    scores = float_array(scores)
    if scores.shape[-1] == 0:
        raise EmptyVector("cannot project rows of length 0")
    if not np.all(np.isfinite(scores)):
        raise NonFiniteInput("sparsemax input contains NaN or infinity")
    return np.maximum(scores - _threshold_lastaxis(scores), 0.0)


def sparsemax_rows_backward(probabilities: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Row-wise analytic backward: upstream centered over each row's support."""
    if probabilities.shape != upstream.shape:
        raise ShapeMismatch(
            f"upstream shape {upstream.shape} != probabilities shape "
            f"{probabilities.shape}"
        )
    mask = probabilities > 0.0
    # the support size in the gradient's precision: an int64 divisor would
    # promote float32 to float64
    count = mask.sum(axis=-1, keepdims=True).astype(upstream.dtype)
    masked_sum = np.sum(upstream * mask, axis=-1, keepdims=True)
    # every row of a sparsemax output has nonempty support
    return mask * (upstream - masked_sum / count)
