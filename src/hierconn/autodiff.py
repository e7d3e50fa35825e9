"""Small reverse-mode automatic differentiation engine on numpy.

Only what the token pipeline needs: broadcast arithmetic, batched matmul,
reductions, reshapes, exp/log/sqrt, an exact GELU, log-softmax-style
composites, and a sparsemax op whose backward is the analytic simplex-
projection Jacobian. Graphs are built eagerly; ``Tensor.backward`` runs an
iterative topological sweep accumulating ``.grad`` arrays on the leaves.

Backward uses up the graph: once an interior node has passed its gradient
on, the sweep drops its ``.grad``, its backward closure (and with it the
activations the closure saved) and its parents, so the saved arrays and
interior gradients are freed as the sweep passes instead of when the graph
goes away. Only leaf gradients survive. A second ``backward`` through a
used-up node raises ``RuntimeError``; nothing backpropagates twice through
one graph, so there is no option to keep it.

The model's hot paths are four fused ops, each one graph node whose
backward is written in closed form instead of being chained through
primitives:

- ``linear(x, w, b)``: ``x @ w + b`` with the leading axes of ``x`` folded
  into one GEMM; backward is ``g2 @ w^T``, ``x2^T @ g2`` and the row sum of
  ``g2`` over the flattened ``(rows, features)`` views.
- ``layer_norm(x, gain, bias, eps)``: with ``xhat = (x - mean) / std``,
  ``dx = (gx - mean(gx) - xhat * mean(gx * xhat)) / std`` where
  ``gx = g * gain`` (Ba et al. 2016).
- ``attention(q, k, v, activation, mask)``: ``P = act(q k^T / sqrt(d))``,
  optional dropout ``mask``, then ``(P * mask) v``. Only ``P`` is kept;
  backward is ``P * (u - sum(u * P))`` for softmax and the support-centred
  sparsemax Jacobian (Martins & Astudillo 2016) for sparsemax, where
  ``u = (g v^T) * mask``.
- ``ffn(x, w1, b1, w2, b2, mask)``: ``dropout(gelu(x @ w1 + b1)) @ w2 + b2``.
  The hidden layer is one array: the first GEMM writes it, and one pass over
  its slices turns it into ``gelu``'s output and then the dropout output in
  place, writing the GELU slope ``Phi + h * pdf`` into a second array when a
  graph is built. The node keeps those two; backward is ``dW2 = a^T g2``,
  ``ga = ((g2 @ w2^T) * mask) * slope`` (written into the slope's array),
  ``dW1 = x2^T ga`` and ``dx = ga @ w1^T``. Each step is the numpy operation
  the ``linear -> gelu -> dropout -> linear`` chain ran, in its order, so
  values and gradients have the chain's bits. The model calls neither
  ``Tensor.gelu`` nor ``dropout``: they stay as that chain's steps, the tests'
  oracle for ``ffn``, and as op names the benchmark tracer wraps.

A dropout ``mask`` (for ``attention``, ``ffn`` and ``dropout``) is a ``(keep, scale)``
pair: a bool keep-mask and the inverted-dropout scale ``1 / (1 - p)``. It is
applied as ``(x * scale) * keep``, which gives the same bits, signed zeros
included, as multiplying by the float mask ``keep / (1 - p)``, at an eighth
of its memory.

Precision: a tensor keeps float32 data as float32 and stores anything else
as float64, and every op computes in the dtype of its operands. Constants
that meet tensor data are Python floats or arrays of the data's dtype, never
float64 numpy scalars, which would promote float32 data to float64.

GELU's Gaussian CDF comes from ``_cdf_slices``, the one kernel behind
``Tensor.gelu``, ``ffn`` and ``_normal_cdf``: a rational approximation of
``erfc`` (after Cody 1969) evaluated with numpy ufuncs over fixed slices, in
the dtype of its input; the GELU consumers finish each slice while it is in
cache, so no CDF array of the input's size exists. Its error is within 2
units in the last place of 0.5 in float32 and float64, the error of
``0.5 * (1 + erf(x / sqrt(2)))`` in float64, and it is about 3x faster than
``scipy.special.erf``'s scalar loop in float32, 1.4x in float64
(``_CDF_TABLES`` records the fit and the measurements).

Determinism: every op is a plain numpy expression, so two identical runs
produce bit-identical values and gradients.
"""

from __future__ import annotations

import contextlib
import math
import threading

import numpy as np

from .sparsemax import float_array, sparsemax_rows, sparsemax_rows_backward

# graph construction is toggled per thread so parallel folds cannot
# disable each other's training graphs
_thread_state = threading.local()

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _cdf_table(clamp: float, p: tuple[float, ...], q: tuple[float, ...]):
    """``(clamp, num, den)`` for ``_normal_cdf`` from a fit ``erfcx(s) ~ P(s)/Q(s)``
    on ``[0, clamp]`` with ascending coefficients and ``P(0) = Q(0) = 1``: ``num``
    holds ``-P / (2 q_top)`` and ``den`` the monic ``Q / q_top`` without its
    leading 1, both highest power first."""
    top = q[-1]
    return clamp, [-0.5 * c / top for c in reversed(p)], [c / top for c in reversed(q[:-1])]


# Fits of erfcx(s) = exp(s^2) erfc(s) by P/Q, made offline with mpmath at 40
# digits: Sanathanan-Koerner linearised least squares with Lawson reweighting
# over 240 Chebyshev points of [0, clamp], minimising the absolute error of
# erfc(s) = exp(-s^2) P/Q. Past the clamp, half of erfc is below half a unit in
# the last place of 0.5, so P/Q is read at the clamp. Fit error of erfc, and
# the kernel's measured maximum error of Phi against mpmath over 26k points of
# [-12, 12] and (-0.01, 0.01), in units in the last place of 0.5:
# float32, degree 4/4 on [0, 4]: 8.8e-11, 1.85 (float32 scipy.special.erf: 0.95);
# float64, degree 7/7 on [0, 6]: 7.3e-18, 2.0 (float64 scipy.special.erf: 2.0).
# GELU forward through scipy.special.erf -> through this kernel, medians of 11
# interleaved calls on a 2-vCPU Intel Xeon (numpy 2.4.6, scipy 1.17.1): float32
# (16, 116, 1536) 73 -> 25 ms; float64 (32, 116, 1536) 201-214 -> 143-149 ms.
_CDF_TABLES = {
    np.dtype(np.float32): _cdf_table(
        4.0,
        (1.0, 0.76678250917713497, 0.30452662006955492, 0.045128157408188016,
         4.8614672149689129e-5),
        (1.0, 1.8951616666359264, 1.4429878845019041, 0.53045310318447461,
         0.081273862250517774),
    ),
    np.dtype(np.float64): _cdf_table(
        6.0,
        (1.0, 1.3657530759502684, 0.95197487073228357, 0.39517937542907424,
         0.10179474027849571, 0.015266090068210214, 0.001044013418704275,
         -4.7524559696779185e-9),
        (1.0, 2.4941322430457826, 2.7663017337662235, 1.7747371567320741,
         0.71428734988901945, 0.18130905245964103, 0.027062606055937202,
         0.0018501983658892585),
    ),
}
# elements per slice: the slice and its four scratch arrays stay in cache
_CDF_CHUNK = 32768


def _cdf_slices(xs: np.ndarray):
    """Yield ``(slice, Phi)`` for each ``_CDF_CHUNK`` slice of the flat float32 or
    float64 array ``xs``: ``Phi`` is the standard normal CDF ``erfc(-x / sqrt(2))
    / 2`` of ``xs[slice]``, in its dtype, in a scratch buffer the next slice
    overwrites. With ``s = |x| / sqrt(2)``, ``erfc(s) = exp(-s^2) P(t) / Q(t)``
    at ``t = min(s, clamp)``, and ``Phi = 1/2 + copysign(1/2 - erfc(s) / 2, x)``;
    ``exp`` reaches exactly 0 in the far tails and NaN propagates. Scratch
    arrays are allocated per call, so concurrent calls do not share them."""
    clamp, num, den = _CDF_TABLES[xs.dtype]
    s, t, r, u = (np.empty(min(xs.size, _CDF_CHUNK), xs.dtype) for _ in range(4))
    for lo in range(0, xs.size, _CDF_CHUNK):
        xc = xs[lo : lo + _CDF_CHUNK]
        n = xc.size
        sc, tc, rc, uc = s[:n], t[:n], r[:n], u[:n]
        np.abs(xc, out=sc)
        sc *= _INV_SQRT2
        np.minimum(sc, clamp, out=tc)
        np.multiply(tc, num[0], out=rc)  # r = -P(t) / (2 q_top), by Horner
        rc += num[1]
        for c in num[2:]:
            rc *= tc
            rc += c
        np.add(tc, den[0], out=uc)  # u = Q(t) / q_top
        for c in den[1:]:
            uc *= tc
            uc += c
        rc /= uc
        # s * s overflows to inf for huge |x|, which exp takes to the right 0; the
        # state is set per slice, so it does not reach the caller across a yield
        with np.errstate(over="ignore"):
            np.multiply(sc, sc, out=sc)
        np.negative(sc, out=sc)
        np.exp(sc, out=sc)
        rc *= sc  # -erfc(s) / 2
        rc += 0.5
        np.copysign(rc, xc, out=rc)
        rc += 0.5
        yield slice(lo, lo + n), rc


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    """``Phi(x)`` of a float32 or float64 array, in its dtype (``_cdf_slices``)."""
    out = np.empty(x.shape, x.dtype)
    outs = out.reshape(-1)
    for part, cdf in _cdf_slices(x.reshape(-1)):
        outs[part] = cdf
    return out


def _gelu_inplace(
    h: np.ndarray, slope: np.ndarray | None = None, mask: tuple[np.ndarray, float] | None = None,
) -> None:
    """Overwrite the contiguous array ``h`` with ``gelu(h) = h * Phi(h)``, then with
    its inverted dropout by a ``(keep, scale)`` ``mask`` of its shape, one
    ``_cdf_slices`` slice at a time. ``slope``, if given, receives the GELU
    derivative ``Phi(h) + h * pdf(h)`` at the input, pdf = exp(-h^2 / 2) / sqrt(2 pi)."""
    hs = h.reshape(-1)
    slopes = None if slope is None else slope.reshape(-1)
    keeps = None if mask is None else mask[0].reshape(-1)
    for part, cdf in _cdf_slices(hs):
        hc = hs[part]
        if slopes is not None:
            t = slopes[part]
            np.multiply(hc, -0.5, out=t)
            t *= hc
            np.exp(t, out=t)
            t *= _INV_SQRT2PI
            t *= hc
            t += cdf
        hc *= cdf
        if mask is not None:
            _apply_mask(hc, (keeps[part], mask[1]), out=hc)


def _grad_enabled() -> bool:
    return getattr(_thread_state, "grad_enabled", True)


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (eval / finite differences)."""
    previous = _grad_enabled()
    _thread_state.grad_enabled = False
    try:
        yield
    finally:
        _thread_state.grad_enabled = previous


def _builds_graph(parents) -> bool:
    """Whether an op on ``parents`` becomes a graph node (and must keep what its
    backward reads)."""
    return _grad_enabled() and any(p.requires_grad for p in parents)


def _used_up(g):
    """The backward of a node that an earlier sweep used up; the sweep refuses
    such a node before running any closure."""
    raise RuntimeError(
        "backward() through a graph that an earlier backward() already used up; "
        "run the forward again"
    )


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (reverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = float_array(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    # -- graph construction ---------------------------------------------

    @staticmethod
    def _make(data, parents, backward) -> "Tensor":
        out = Tensor(data)
        if _builds_graph(parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        # accumulation always rebinds (never mutates), so aliased views are safe
        if self.grad is None:
            self.grad = grad
        else:
            self.grad = self.grad + grad

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)
        out_data = self.data + other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.data.shape))

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self):
        def backward(g):
            if self.requires_grad:
                self._accumulate(-g)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __rsub__(self, other):
        return as_tensor(other) + (-self)

    def __mul__(self, other):
        other = as_tensor(other)
        out_data = self.data * other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.data.shape))

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_tensor(other)
        out_data = self.data / other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g / other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-g * self.data / (other.data * other.data), other.data.shape)
                )

        return Tensor._make(out_data, (self, other), backward)

    def __matmul__(self, other):
        other = as_tensor(other)
        out_data = self.data @ other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(
                    _unbroadcast(g @ other.data.swapaxes(-1, -2), self.data.shape)
                )
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(self.data.swapaxes(-1, -2) @ g, other.data.shape)
                )

        return Tensor._make(out_data, (self, other), backward)

    # -- shape ops ---------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape

        def backward(g):
            if self.requires_grad:
                self._accumulate(g.reshape(original))

        return Tensor._make(self.data.reshape(shape), (self,), backward)

    def swapaxes(self, a, b):
        def backward(g):
            if self.requires_grad:
                self._accumulate(g.swapaxes(a, b))

        return Tensor._make(self.data.swapaxes(a, b), (self,), backward)

    def broadcast_to(self, shape):
        original = self.data.shape

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, original))

        return Tensor._make(np.broadcast_to(self.data, shape).copy(), (self,), backward)

    # -- reductions ----------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        original = self.data.shape

        def backward(g):
            if not self.requires_grad:
                return
            if axis is None:
                self._accumulate(np.broadcast_to(g, original).copy())
                return
            if not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, original).copy())

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims=False):
        if axis is None:
            count = self.data.size
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * Tensor(
            np.asarray(1.0 / count, dtype=self.data.dtype)
        )

    # -- elementwise nonlinear -------------------------------------------------

    def exp(self):
        out_data = np.exp(self.data)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self):
        def backward(g):
            if self.requires_grad:
                self._accumulate(g / self.data)

        return Tensor._make(np.log(self.data), (self,), backward)

    def sqrt(self):
        out_data = np.sqrt(self.data)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * (0.5 / out_data))

        return Tensor._make(out_data, (self,), backward)

    def gelu(self):
        """Exact GELU: ``x * Phi(x)``, with the Gaussian CDF from ``_cdf_slices``
        (absolute error within 2 units in the last place of 0.5)."""
        out = self.data.copy()
        slope = np.empty_like(out) if _builds_graph((self,)) else None
        _gelu_inplace(out, slope)

        def backward(g):
            if self.requires_grad:
                # a graph is swept once, so the slope's buffer takes the gradient
                self._accumulate(np.multiply(slope, g, out=slope))

        return Tensor._make(out, (self,), backward)

    def sparsemax(self):
        """Simplex projection over the last axis, analytic Jacobian backward."""
        p = sparsemax_rows(self.data)

        def backward(g):
            if self.requires_grad:
                self._accumulate(sparsemax_rows_backward(p, g))

        return Tensor._make(p, (self,), backward)

    # -- backward pass --------------------------------------------------------

    def backward(self) -> None:
        """Reverse sweep from this scalar node, accumulating into leaf ``.grad``
        and using up the graph as it goes (see the module docstring)."""
        if self.data.size != 1:
            raise ValueError("backward() needs a scalar output")
        if not self.requires_grad:
            raise RuntimeError("backward() from a tensor that is not part of a graph")
        # iterative topological order (graphs can be deep at training scale)
        order: list[Tensor] = []
        state: dict[int, int] = {}
        stack: list[Tensor] = [self]
        while stack:
            node = stack[-1]
            mark = state.get(id(node), 0)
            if mark == 0:
                if node._backward is _used_up:
                    _used_up(None)
                state[id(node)] = 1
                for parent in node._parents:
                    if state.get(id(parent), 0) == 0:
                        stack.append(parent)
            else:
                stack.pop()
                if mark == 1:
                    state[id(node)] = 2
                    order.append(node)
        self.grad = np.ones_like(self.data, dtype=np.float64)
        while order:
            node = order.pop()
            backward, grad = node._backward, node.grad
            if backward is None:
                continue  # a leaf keeps its accumulated gradient
            node.grad, node._backward, node._parents = None, _used_up, ()
            if grad is not None:
                backward(grad)


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * g.ndim
                index[axis] = slice(lo, hi)
                t._accumulate(g[tuple(index)])

    return Tensor._make(out_data, tuple(tensors), backward)


def log_softmax(x: Tensor) -> Tensor:
    shift = Tensor(x.data.max(axis=-1, keepdims=True))
    centered = x - shift
    return centered - centered.exp().sum(axis=-1, keepdims=True).log()


def logsumexp(x: Tensor) -> Tensor:
    """Log-sum-exp over the last axis, keepdims, max-stabilized."""
    shift = Tensor(x.data.max(axis=-1, keepdims=True))
    return (x - shift).exp().sum(axis=-1, keepdims=True).log() + shift


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` over the last axis of ``x``, one flattened GEMM each way."""
    x2 = x.data.reshape(-1, x.shape[-1])
    out = x2 @ w.data
    out += b.data

    def backward(g):
        g2 = g.reshape(out.shape)
        if x.requires_grad:
            x._accumulate((g2 @ w.data.T).reshape(x.shape))
        if w.requires_grad:
            w._accumulate(x2.T @ g2)
        if b.requires_grad:
            b._accumulate(g2.sum(axis=0))

    return Tensor._make(out.reshape(x.shape[:-1] + w.shape[-1:]), (x, w, b), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float) -> Tensor:
    """Normalise the last axis to zero mean and unit variance, then scale and shift."""
    scale = 1.0 / x.shape[-1]
    centered = x.data - x.data.sum(axis=-1, keepdims=True) * scale
    std = np.sqrt((centered * centered).sum(axis=-1, keepdims=True) * scale + eps)
    centered /= std
    xhat = centered

    def backward(g):
        if x.requires_grad:
            gx = g * gain.data
            mean_gx = gx.sum(axis=-1, keepdims=True) * scale
            mean_gx_xhat = (gx * xhat).sum(axis=-1, keepdims=True) * scale
            x._accumulate((gx - mean_gx - xhat * mean_gx_xhat) / std)
        if gain.requires_grad:
            gain._accumulate(_unbroadcast(g * xhat, gain.shape))
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(g, bias.shape))

    out = xhat * gain.data
    out += bias.data
    return Tensor._make(out, (x, gain, bias), backward)


def _apply_mask(x: np.ndarray, mask: tuple[np.ndarray, float], out=None) -> np.ndarray:
    """``(x * scale) * keep``, written to ``out`` if given."""
    keep, scale = mask
    if keep.dtype != np.bool_:
        # a float multiplier array would unpack as a (keep, scale) pair unnoticed
        raise TypeError(f"dropout keep-mask must be bool, got {keep.dtype}")
    out = np.multiply(x, scale, out=out)
    out *= keep
    return out


def dropout(x: Tensor, mask: tuple[np.ndarray, float]) -> Tensor:
    """Inverted dropout of ``x`` by a ``(keep, scale)`` mask of its shape."""

    def backward(g):
        if x.requires_grad:
            x._accumulate(_apply_mask(g, mask))

    return Tensor._make(_apply_mask(x.data, mask), (x,), backward)


def ffn(
    x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
    mask: tuple[np.ndarray, float] | None = None,
) -> Tensor:
    """``dropout(gelu(x @ w1 + b1)) @ w2 + b2`` over the last axis of ``x``, the
    ``(keep, scale)`` dropout ``mask`` shaped like the hidden layer, ``x.shape[:-1]
    + w1.shape[-1:]``. Each step runs the numpy operations of ``linear``,
    ``Tensor.gelu``, ``dropout`` and ``linear`` in turn, in their order, so values
    and gradients keep the composite's bits; the hidden layer lives in one array
    overwritten in place, and a graph keeps it and the GELU slope only."""
    x2 = x.data.reshape(-1, x.shape[-1])
    a = x2 @ w1.data
    a += b1.data
    parents = (x, w1, b1, w2, b2)
    slope = np.empty_like(a) if _builds_graph(parents) else None
    _gelu_inplace(a, slope, mask)
    out = a @ w2.data
    out += b2.data

    def backward(g):
        g2 = g.reshape(out.shape)
        if w2.requires_grad:
            w2._accumulate(a.T @ g2)
        if b2.requires_grad:
            b2._accumulate(g2.sum(axis=0))
        if not (x.requires_grad or w1.requires_grad or b1.requires_grad):
            return
        ga = g2 @ w2.data.T
        if mask is not None:
            _apply_mask(ga, (mask[0].reshape(ga.shape), mask[1]), out=ga)
        ga = np.multiply(slope, ga, out=slope)  # as in Tensor.gelu's backward
        if x.requires_grad:
            x._accumulate((ga @ w1.data.T).reshape(x.shape))
        if w1.requires_grad:
            w1._accumulate(x2.T @ ga)
        if b1.requires_grad:
            b1._accumulate(ga.sum(axis=0))

    return Tensor._make(out.reshape(x.shape[:-1] + w2.shape[-1:]), parents, backward)


def attention(
    q: Tensor, k: Tensor, v: Tensor, activation: str,
    mask: tuple[np.ndarray, float] | None = None,
) -> tuple[Tensor, np.ndarray]:
    """Scaled dot-product attention over the last two axes, leading axes broadcast.

    ``activation`` is ``"softmax"`` or ``"sparsemax"``; the ``(keep, scale)``
    dropout ``mask`` multiplies the probabilities and its keep-mask must have
    their broadcast shape. Returns the output and the probabilities before
    the mask.
    """
    scale = 1.0 / math.sqrt(q.shape[-1])
    scores = q.data @ k.data.swapaxes(-1, -2)
    scores *= scale
    if activation == "softmax":
        # scipy.special.softmax's operations in its order, in the scores' buffer
        scores -= scores.max(axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        scores /= scores.sum(axis=-1, keepdims=True)
        p = scores
    elif activation == "sparsemax":
        p = sparsemax_rows(scores)
    else:
        raise ValueError(f"unknown attention activation {activation!r}")
    weights = p if mask is None else _apply_mask(p, mask)

    def backward(g):
        if v.requires_grad:
            weights = p if mask is None else _apply_mask(p, mask)
            v._accumulate(_unbroadcast(weights.swapaxes(-1, -2) @ g, v.shape))
        if not (q.requires_grad or k.requires_grad):
            return
        upstream = g @ v.data.swapaxes(-1, -2)
        if mask is not None:
            _apply_mask(upstream, mask, out=upstream)
        if activation == "softmax":
            upstream -= (upstream * p).sum(axis=-1, keepdims=True)
            ds = upstream * p
        else:
            ds = sparsemax_rows_backward(p, upstream)
        ds *= scale
        if q.requires_grad:
            q._accumulate(_unbroadcast(ds @ k.data, q.shape))
        if k.requires_grad:
            k._accumulate(_unbroadcast(ds.swapaxes(-1, -2) @ q.data, k.shape))

    return Tensor._make(weights @ v.data, (q, k, v), backward), p
