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
goes away. Only leaf gradients survive, and they add up across sweeps (a
training step sums its chunks' gradients so): a tensor keeps its first
contribution as given (it may alias another array, so it is never written),
allocates the sum at the second and adds later ones into that array in
place. A second ``backward`` through a used-up node raises
``RuntimeError``; nothing backpropagates twice through one graph, so there
is no option to keep it.

Each sublayer of the model is one graph node whose backward is written in
closed form instead of being chained through primitives:

- ``linear(x, w, b)``: ``x @ w + b`` with the leading axes of ``x`` folded
  into one GEMM; backward is ``g2 @ w^T``, ``x2^T @ g2`` and the row sum of
  ``g2`` over the flattened ``(rows, features)`` views. It embeds the nodes.
- ``attention_sublayer``: ``layer_norm(x + attend(x, kv) @ wo + bo)``. The
  query projection splits into heads as a view; ``P = act(q k^T / sqrt(d_h))``
  (softmax or sparsemax), times an optional dropout ``mask``, multiplies the
  values straight into merged-head layout (``np.matmul`` with ``out=`` a
  head-major view, the bits of multiplying and then merging). No score adds
  the key bias ``bk``: ``q . bk`` is constant along a score row, which
  neither activation sees, so ``bk`` stays a parameter (and in checkpoints)
  with an exact zero gradient. The role picks the keys and values.
  Self-attention (``kv is x``, node attention) projects ``k`` and ``v`` from
  ``x``. Cross-attention (pool and graph attention) folds them away: the
  scores are ``(q_h Wk_h^T) kv^T`` and head h reads ``(W_h kv) Wv_h +
  rowsum(W_h) bv_h``, ``W = P * mask``, GEMMs of (B, heads * Tq, .) rows,
  and ``kv`` takes one gradient, ``[dS | W]^T @ [q~ ; dC]`` (the absorbed
  projection of latent-query pooling: Lee et al. 2019, DeepSeek-AI 2024).
  Backward is the layer-norm gradient ``(gx - mean(gx) - xhat * mean(gx *
  xhat)) / std`` with ``gx = g * gain`` (Ba et al. 2016), ``P * (u - sum(u *
  P))`` for softmax or the support-centred sparsemax Jacobian (Martins &
  Astudillo 2016) with ``u`` the gradient at ``P`` times the mask, and the
  GEMMs of each projection. The node keeps the query projection (and, in
  self-attention, ``k`` and ``v``), ``xhat``, ``std`` and the keep-mask;
  backward rebuilds ``P`` and the merged heads by the forward's own calls, so
  they have the forward's bits, instead of keeping them (selective
  recomputation, Korthikanti et al. 2022).
- ``ffn(x, w1, b1, w2, b2, mask, norm)``: ``dropout(gelu(x @ w1 + b1)) @ w2 +
  b2``, the classifier head, and with ``norm`` the post-norm sublayer
  ``layer_norm(x + ffn(x))``. The first GEMM writes the hidden array, and one
  pass over its slices turns it into ``gelu``'s output and then the dropout
  output in place, writing the GELU slope ``Phi + h * pdf`` into a second
  array when a graph is built. The node keeps those two (and ``xhat`` and
  ``std``); backward is ``dW2 = a^T g2``, ``ga = ((g2 @ w2^T) * mask) *
  slope`` (in the slope's array), ``dW1 = x2^T ga`` and ``dx = ga @ w1^T``.

A sublayer op runs the numpy operations of the chain of nodes it replaced,
in their order, and hands each input its gradient contributions in the
order that chain's sweep did, so values and gradients keep the chain's
bits, except the folded cross-attention, which computes other GEMMs and
matches its chain to rounding; its backward lets go of each saved array
after the array's last read. The chain's ``layer_norm`` and ``attention``
(which share their kernels with the sublayer ops), ``Tensor.gelu`` and
``dropout`` stay as the tests' oracles; the model calls none of them.

A dropout ``mask`` (for the attention ops, ``ffn`` and ``dropout``) is a
``(keep, scale)`` pair: a bool keep-mask and the inverted-dropout scale
``1 / (1 - p)``. It is applied as ``(x * scale) * keep``, which gives the same
bits, signed zeros included, as multiplying by the float mask ``keep / (1 -
p)``, at an eighth of its memory.

Precision: a tensor keeps float32 data as float32 and stores anything else
as float64, and every op computes in the dtype of its operands. A non-tensor
operand of tensor arithmetic (a Python number or an array) takes the
tensor's dtype, and ``backward`` seeds the sweep in the output's dtype, so a
float32 graph computes and backpropagates in float32. Training steps build
float32 graphs on a float32 working copy of the parameters, and their leaf
gradients add up in float32 across a step's chunks; gradient checks build
float64 graphs on the float64 parameters through the same ops.

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
# bytes per slice array (16384 float64 or 32768 float32 values), so a slice, its
# four scratch arrays and a consumer's slices take the same cache in either dtype
_CDF_SLICE_BYTES = 128 * 1024


def _cdf_slices(xs: np.ndarray):
    """Yield ``(slice, Phi)`` for each ``_CDF_SLICE_BYTES`` slice of the flat float32
    or float64 array ``xs``: ``Phi`` is the standard normal CDF ``erfc(-x / sqrt(2))
    / 2`` of ``xs[slice]``, in its dtype, in a scratch buffer the next slice
    overwrites. With ``s = |x| / sqrt(2)``, ``erfc(s) = exp(-s^2) P(t) / Q(t)``
    at ``t = min(s, clamp)``, and ``Phi = 1/2 + copysign(1/2 - erfc(s) / 2, x)``;
    ``exp`` reaches exactly 0 in the far tails and NaN propagates. Scratch
    arrays are allocated per call, so concurrent calls do not share them."""
    clamp, num, den = _CDF_TABLES[xs.dtype]
    step = _CDF_SLICE_BYTES // xs.itemsize
    s, t, r, u = (np.empty(min(xs.size, step), xs.dtype) for _ in range(4))
    for lo in range(0, xs.size, step):
        xc = xs[lo : lo + step]
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
    __slots__ = (
        "data", "grad", "requires_grad", "_parents", "_backward", "_owns_grad", "__weakref__"
    )

    def __init__(self, data, requires_grad: bool = False):
        self.data = float_array(data)
        self.grad = None
        self._owns_grad = False
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
        # the first contribution is kept as given and may alias another array,
        # so it is never written; the second allocates the sum, which this
        # tensor owns, and later ones add into that array in place
        if self.grad is None:
            self.grad, self._owns_grad = grad, False
        elif self._owns_grad:
            self.grad += grad
        else:
            self.grad, self._owns_grad = self.grad + grad, True

    # -- arithmetic -------------------------------------------------------

    def _operand(self, other) -> "Tensor":
        """``other`` as a tensor: a Python number or an array takes this tensor's
        dtype, so a constant never promotes float32 data."""
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=self.data.dtype))

    def __add__(self, other):
        other = self._operand(other)
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
        return self + (-self._operand(other))

    def __rsub__(self, other):
        return self._operand(other) + (-self)

    def __mul__(self, other):
        other = self._operand(other)
        out_data = self.data * other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.data.shape))

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._operand(other)
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
        other = self._operand(other)
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
            if self.requires_grad:
                if axis is not None and not keepdims:
                    g = np.expand_dims(g, axis)
                g = np.broadcast_to(g, original)
                # only a first contribution is kept as it is, so only it needs
                # an array of its own
                self._accumulate(g.copy() if self.grad is None else g)

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims=False):
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

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
        self.grad = np.ones_like(self.data)
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


def _linear_backward(
    x: Tensor, x2: np.ndarray, w: Tensor, b: Tensor | None, g2: np.ndarray,
) -> None:
    """Accumulate the gradients of ``x2 @ w + b`` (of ``x2 @ w`` if ``b`` is None),
    ``x2`` the (rows, features) view of ``x``, from ``g2`` at its (rows, out) output."""
    if x.requires_grad:
        x._accumulate((g2 @ w.data.T).reshape(x.shape))
    if w.requires_grad:
        w._accumulate(x2.T @ g2)
    if b is not None and b.requires_grad:
        b._accumulate(g2.sum(axis=0))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` over the last axis of ``x``, one flattened GEMM each way."""
    x2 = x.data.reshape(-1, x.shape[-1])
    out = x2 @ w.data
    out += b.data

    def backward(g):
        _linear_backward(x, x2, w, b, g.reshape(out.shape))

    return Tensor._make(out.reshape(x.shape[:-1] + w.shape[-1:]), (x, w, b), backward)


def _normalize(s: np.ndarray, gain: Tensor, bias: Tensor, eps: float, keep: bool):
    """Layer norm over the last axis of ``s``: overwrite ``s`` with ``xhat = (s -
    mean) / std`` and return ``(xhat * gain + bias, std)``, the output in a new
    array if ``keep`` (a backward reads ``xhat``), else in ``s``'s buffer."""
    scale = 1.0 / s.shape[-1]
    s -= s.sum(axis=-1, keepdims=True) * scale
    std = np.sqrt((s * s).sum(axis=-1, keepdims=True) * scale + eps)
    s /= std
    out = np.multiply(s, gain.data, out=None if keep else s)
    out += bias.data
    return out, std


def _normalize_backward(g, xhat, std, gain: Tensor, bias: Tensor) -> np.ndarray:
    """The gradient at the input of ``_normalize`` from ``g`` at its output;
    accumulates the gain's and bias's gradients."""
    if gain.requires_grad:
        gain._accumulate(_unbroadcast(g * xhat, gain.shape))
    if bias.requires_grad:
        bias._accumulate(_unbroadcast(g, bias.shape))
    scale = 1.0 / g.shape[-1]
    gx = g * gain.data
    mean_gx = gx.sum(axis=-1, keepdims=True) * scale
    mean_gx_xhat = (gx * xhat).sum(axis=-1, keepdims=True) * scale
    gx -= mean_gx
    gx -= xhat * mean_gx_xhat
    gx /= std
    return gx


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float) -> Tensor:
    """Normalise the last axis to zero mean and unit variance, then scale and shift."""
    xhat = x.data.copy()
    out, std = _normalize(xhat, gain, bias, eps, keep=True)

    def backward(g):
        gx = _normalize_backward(g, xhat, std, gain, bias)
        if x.requires_grad:
            x._accumulate(gx)

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
    norm: tuple[Tensor, Tensor, float] | None = None,
) -> Tensor:
    """``dropout(gelu(x @ w1 + b1)) @ w2 + b2`` over the last axis of ``x``, the
    ``(keep, scale)`` dropout ``mask`` shaped like the hidden layer, ``x.shape[:-1]
    + w1.shape[-1:]``; with ``norm = (gain, bias, eps)``, the post-norm sublayer
    ``layer_norm(x + ffn(x), gain, bias, eps)``. Each step runs the numpy
    operations of ``linear``, ``Tensor.gelu``, ``dropout``, ``linear``, ``+`` and
    ``layer_norm`` in turn, in their order, and backward hands ``x`` the residual's
    gradient before the hidden layer's, so values and gradients keep the chain's
    bits. The hidden layer lives in one array overwritten in place; a graph keeps
    it and the GELU slope, and with ``norm`` x̂ and std."""
    x2 = x.data.reshape(-1, x.shape[-1])
    a = x2 @ w1.data
    a += b1.data
    parents = (x, w1, b1, w2, b2) + (() if norm is None else norm[:2])
    graph = _builds_graph(parents)
    slope = np.empty_like(a) if graph else None
    _gelu_inplace(a, slope, mask)
    out = a @ w2.data
    out += b2.data
    out = out.reshape(x.shape[:-1] + w2.shape[-1:])
    xhat = std = None
    if norm is not None:
        gain, bias, eps = norm
        xhat = out
        xhat += x.data  # the residual, with the bits of x + out
        out, std = _normalize(xhat, gain, bias, eps, keep=graph)
    saved = [a, slope, xhat, std]

    def backward(g):
        a, slope, xhat, std = saved
        saved.clear()  # each array goes after its last read
        if norm is not None:
            g = _normalize_backward(g, xhat, std, gain, bias)
            if x.requires_grad:
                x._accumulate(g)
        del xhat
        g2 = g.reshape(len(x2), -1)
        if w2.requires_grad:
            w2._accumulate(a.T @ g2)
        del a
        if b2.requires_grad:
            b2._accumulate(g2.sum(axis=0))
        if not (x.requires_grad or w1.requires_grad or b1.requires_grad):
            return
        ga = g2 @ w2.data.T
        if mask is not None:
            _apply_mask(ga, (mask[0].reshape(ga.shape), mask[1]), out=ga)
        ga = np.multiply(slope, ga, out=slope)  # as in Tensor.gelu's backward
        _linear_backward(x, x2, w1, b1, ga)

    return Tensor._make(out, parents, backward)


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, in ``x``'s own buffer, returned.

    Runs scipy.special.softmax's operations in its order (``x - max``, ``exp``,
    ``/ sum``), so it gives scipy's bits without importing scipy."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def _attend(q: np.ndarray, k: np.ndarray, activation: str, d_h: int) -> np.ndarray:
    """The probabilities ``act(q k^T / sqrt(d_h))`` over the last axis of head stacks."""
    scores = q @ k.swapaxes(-1, -2)
    scores *= 1.0 / math.sqrt(d_h)
    if activation == "softmax":
        return softmax_rows(scores)
    if activation == "sparsemax":
        return sparsemax_rows(scores)
    raise ValueError(f"unknown attention activation {activation!r}")


def _attend_backward(u, p, activation: str, mask, d_h: int) -> np.ndarray:
    """The gradient at the scores ``q k^T`` of ``_attend``, from ``u = g v^T`` at
    the weights ``P * mask``, in ``u``'s buffer for softmax."""
    if mask is not None:
        _apply_mask(u, mask, out=u)
    if activation == "softmax":
        u -= (u * p).sum(axis=-1, keepdims=True)
        u *= p
    else:
        u = sparsemax_rows_backward(p, u)
    u *= 1.0 / math.sqrt(d_h)
    return u


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
    p = _attend(q.data, k.data, activation, q.shape[-1])
    weights = p if mask is None else _apply_mask(p, mask)

    def backward(g):
        if v.requires_grad:
            weights = p if mask is None else _apply_mask(p, mask)
            v._accumulate(_unbroadcast(weights.swapaxes(-1, -2) @ g, v.shape))
        if not (q.requires_grad or k.requires_grad):
            return
        ds = _attend_backward(g @ v.data.swapaxes(-1, -2), p, activation, mask, q.shape[-1])
        if q.requires_grad:
            q._accumulate(_unbroadcast(ds @ k.data, q.shape))
        if k.requires_grad:
            k._accumulate(_unbroadcast(ds.swapaxes(-1, -2) @ q.data, k.shape))

    return Tensor._make(weights @ v.data, (q, k, v), backward), p


def _merged_matmul(a: np.ndarray, b: np.ndarray, heads_shape) -> np.ndarray:
    """``a @ b`` of the (B, H, T, dh) ``heads_shape`` in merged-head (B, T, H * dh)
    layout: the GEMMs write straight into it through a head-major view, with the
    bits of multiplying and then copying."""
    batch, heads, t, d_h = heads_shape
    out = np.empty((batch, t, heads, d_h), np.result_type(a, b))
    np.matmul(a, b, out=out.swapaxes(1, 2))
    return out.reshape(batch, t, heads * d_h)


def _head_weight_grad(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (m, H * n) gradient of a weight whose head h maps ``b``'s rows to ``a``'s
    (or back): the sum over batch and tokens of ``a_h^T b_h``, for head stacks ``a``
    (B, H, T, m) and ``b`` (B, H, T, n); head h fills columns h n to (h + 1) n."""
    heads, m, n = a.shape[1], a.shape[-1], b.shape[-1]
    a2 = a.transpose(1, 3, 0, 2).reshape(heads, m, -1)
    b2 = b.swapaxes(0, 1).reshape(heads, -1, n)
    return (a2 @ b2).swapaxes(0, 1).reshape(m, heads * n)


def attention_sublayer(
    x: Tensor, kv: Tensor, projections: tuple[Tensor, ...], norm: tuple[Tensor, Tensor, float],
    heads: int, activation: str, mask: tuple[np.ndarray, float] | None = None,
) -> tuple[Tensor, np.ndarray]:
    """The post-norm sublayer ``layer_norm(x + attend(x, kv) @ wo + bo)`` as one node.

    ``x`` (B or 1, Tq, d) holds the queries and the residual, ``kv`` (B, Tk, d)
    the keys and values; ``projections`` is ``(wq, bq, wk, bk, wv, bv, wo, bo)``,
    ``norm`` is ``(gain, bias, eps)``, and ``activation`` and the (B, heads, Tq,
    Tk) ``mask`` are ``attention``'s. The role picks the path (module docstring,
    which also says why no score adds ``bk``): self-attention, ``kv is x``,
    projects keys and values, and its values and gradients have the bits of
    the chain ``linear``, split heads, ``attention``, merge, ``linear``, ``+``,
    ``layer_norm`` with a zero key bias, whose sweep handed ``x`` its gradients
    from the residual, the queries, the keys and the values in that order;
    cross-attention folds keys and values into the queries and matches that
    chain to rounding. Returns the output and the per-head probabilities
    before the mask."""
    wq, bq, wk, bk, wv, bv, wo, bo = projections
    gain, bias, eps = norm
    parents = (x, kv, *projections, gain, bias)
    d, t_q, t_k = x.shape[-1], x.shape[-2], kv.shape[-2]
    x2 = x.data.reshape(-1, d)

    def split(rows):  # x's (rows, d) -> (B, heads, Tq, d_h) view
        return rows.reshape(x.shape[:-1] + (heads, -1)).swapaxes(1, 2)

    q = x2 @ wq.data
    q += bq.data
    q = split(q)
    d_h = q.shape[-1]
    batch = kv.shape[:-2]
    heads_shape = batch + (heads, t_q, d_h)
    fold = kv is not x
    if fold:
        rows = heads * t_q
        wk_t = wk.data.reshape(d, heads, d_h).transpose(1, 2, 0)  # Wk_h^T, (heads, d_h, d)
        wv_h = wv.data.reshape(d, heads, d_h).swapaxes(0, 1)  # Wv_h, (heads, d, d_h)
        bv_h = bv.data.reshape(heads, 1, d_h)

        def attend():
            # P, W, the merged heads, W kv and q~; backward rebuilds them by these
            # same calls, with the forward's bits, instead of keeping them
            qt = q @ wk_t
            p = _attend(qt.reshape(-1, rows, d), kv.data, activation, d_h)
            p = p.reshape(batch + (heads, t_q, t_k))
            weights = p if mask is None else _apply_mask(p, mask)
            pooled = (weights.reshape(batch + (rows, t_k)) @ kv.data).reshape(batch + (heads, t_q, d))
            merged = _merged_matmul(pooled, wv_h, heads_shape)
            by_head = merged.reshape(batch + (t_q, heads, d_h))
            by_head += (weights.sum(axis=-1)[..., None] * bv_h).swapaxes(-2, -3)
            return p, merged, (weights, pooled, qt)
    else:
        k = split(x2 @ wk.data)
        v = x2 @ wv.data
        v += bv.data
        v = split(v)

        def attend():
            # the probabilities and the merged heads, rebuilt by backward
            p = _attend(q, k, activation, d_h)
            weights = p if mask is None else _apply_mask(p, mask)
            return p, _merged_matmul(weights, v, heads_shape), None

    p, merged = attend()[:2]
    xhat = merged.reshape(-1, merged.shape[-1]) @ wo.data
    xhat += bo.data
    xhat = xhat.reshape(merged.shape)
    del merged
    xhat += x.data  # the residual, with the bits of x + out
    out, std = _normalize(xhat, gain, bias, eps, keep=_builds_graph(parents))
    saved = [xhat, std]

    def backward(g):
        # each saved or rebuilt array goes after its last read, as the chain's
        # sweep let go of its nodes one by one
        nonlocal q, k, v
        xhat, std = saved
        saved.clear()
        gs = _normalize_backward(g, xhat, std, gain, bias)
        del xhat
        if x.requires_grad:
            x._accumulate(_unbroadcast(gs, x.shape))
        gs = gs.reshape(-1, gs.shape[-1])
        p, merged, rebuilt = attend()
        if wo.requires_grad:
            wo._accumulate(merged.reshape(gs.shape).T @ gs)
        del merged
        if bo.requires_grad:
            bo._accumulate(gs.sum(axis=0))
        gm = (gs @ wo.data.T).reshape(g.shape[:-1] + (heads, -1)).swapaxes(1, 2)
        del gs
        if bk.requires_grad:
            bk._accumulate(np.zeros_like(bk.data))
        if not fold:
            ds = gm @ v.swapaxes(-1, -2)
            v = None
            ds = _attend_backward(ds, p, activation, mask, d_h)
            _linear_backward(x, x2, wq, bq, _merged_matmul(ds, k, heads_shape).reshape(x2.shape))
            dk = _merged_matmul(ds.swapaxes(-1, -2), q, heads_shape)
            del ds
            q = k = None
            _linear_backward(x, x2, wk, None, dk.reshape(x2.shape))
            del dk
            weights = p if mask is None else _apply_mask(p, mask)
            del p
            dv = _merged_matmul(weights.swapaxes(-1, -2), gm, heads_shape)
            del weights, gm
            _linear_backward(x, x2, wv, bv, dv.reshape(x2.shape))
            return
        weights, pooled, qt = rebuilt
        del rebuilt
        if wv.requires_grad:
            wv._accumulate(_head_weight_grad(pooled, gm))
        del pooled
        if bv.requires_grad:
            bv._accumulate((weights.sum(axis=-1)[..., None] * gm).sum(axis=(0, 2)).reshape(-1))
        # the rows [q~ ; dC] of kv's gradient GEMM, dC written in place
        stacked = np.empty(batch + (2, heads, t_q, d), q.dtype)
        stacked[:, 0] = qt
        np.matmul(gm, wv_h.swapaxes(-1, -2), out=stacked[:, 1])
        du = (stacked[:, 1].reshape(batch + (rows, d)) @ kv.data.swapaxes(-1, -2)).reshape(p.shape)
        du += (gm * bv_h).sum(axis=-1)[..., None]  # through rowsum(W)
        del gm
        ds = _attend_backward(du, p, activation, mask, d_h).reshape(batch + (rows, t_k))
        del du, p
        dqt = _unbroadcast(ds @ kv.data, qt.shape[:-3] + (rows, d)).reshape(qt.shape)
        del qt
        if kv.requires_grad:
            ds = np.concatenate([ds, weights.reshape(ds.shape)], axis=-2)  # [dS | W]
            del weights
            kv._accumulate(ds.swapaxes(-1, -2) @ stacked.reshape(batch + (2 * rows, d)))
        del ds, stacked
        if wk.requires_grad:
            wk._accumulate(_head_weight_grad(dqt, q))
        dq = _merged_matmul(dqt, wk_t.swapaxes(-1, -2), q.shape)
        del dqt
        _linear_backward(x, x2, wq, bq, dq.reshape(x2.shape))

    return Tensor._make(out, parents, backward), p
