"""Engine-level gradient checks: every op against central finite differences,
and the backward sweep using up the graph as it goes."""

import tracemalloc
import weakref

import numpy as np
import pytest

from hierconn.autodiff import (
    Tensor,
    attention,
    concat,
    dropout,
    ffn,
    layer_norm,
    linear,
    log_softmax,
    logsumexp,
    no_grad,
)


def finite_diff(fn, arrays, h=1e-6):
    """Central-difference gradients of scalar fn(*arrays) w.r.t. each array."""
    grads = []
    for k, a in enumerate(arrays):
        g = np.zeros_like(a)
        it = np.nditer(a, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = a[idx]
            a[idx] = orig + h
            fp = fn(*arrays)
            a[idx] = orig - h
            fm = fn(*arrays)
            a[idx] = orig
            g[idx] = (fp - fm) / (2 * h)
        grads.append(g)
    return grads


def check_op(build, shapes, seed=0, atol=1e-7):
    """build(*tensors) -> scalar Tensor; compare grads with finite differences."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=s) for s in shapes]
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = build(*tensors)
    out.backward()

    def value(*arrs):
        with no_grad():
            return build(*[Tensor(a) for a in arrs]).item()

    fds = finite_diff(value, [t.data for t in tensors])
    for t, fd in zip(tensors, fds):
        np.testing.assert_allclose(t.grad, fd, atol=atol)


class TestPrimitives:
    def test_add_broadcast(self):
        check_op(lambda a, b: ((a + b) * (a + b)).sum(), [(3, 4), (4,)])

    def test_sub_and_neg(self):
        check_op(lambda a, b: ((a - b) * (-a)).sum(), [(2, 3), (2, 3)])

    def test_mul_broadcast(self):
        check_op(lambda a, b: (a * b).sum(), [(2, 1, 4), (3, 4)])

    def test_div(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(3, 3))
        b = rng.uniform(1.0, 2.0, size=(3, 3))
        ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        (ta / tb).sum().backward()
        fd_a, fd_b = finite_diff(lambda x, y: (x / y).sum(), [a.copy(), b.copy()])
        np.testing.assert_allclose(ta.grad, fd_a, atol=1e-7)
        np.testing.assert_allclose(tb.grad, fd_b, atol=1e-7)

    def test_matmul_2d(self):
        check_op(lambda a, b: (a @ b).sum(), [(3, 4), (4, 5)])

    def test_matmul_batched_broadcast(self):
        # (K,d) @ (B,d,n): the unbatched side must sum its grad over the batch
        check_op(lambda a, b: ((a @ b) * (a @ b)).sum(), [(3, 4), (5, 4, 6)])

    def test_reshape_swapaxes(self):
        check_op(
            lambda a: (a.reshape(2, 3, 4).swapaxes(0, 2) * 2.0).sum(), [(6, 4)]
        )

    def test_sum_axis_keepdims(self):
        check_op(lambda a: (a * a.sum(axis=-1, keepdims=True)).sum(), [(4, 5)])

    def test_mean(self):
        check_op(lambda a: (a.mean(axis=0) * a.mean(axis=0)).sum(), [(4, 5)])

    def test_exp_log_sqrt(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(0.5, 2.0, size=(3, 4))
        ta = Tensor(a, requires_grad=True)
        (ta.exp().log().sqrt()).sum().backward()
        (fd,) = finite_diff(
            lambda x: np.sqrt(np.log(np.exp(x))).sum(), [a.copy()]
        )
        np.testing.assert_allclose(ta.grad, fd, atol=1e-7)

    def test_gelu(self):
        check_op(lambda a: a.gelu().sum(), [(4, 7)])

    def test_concat(self):
        def build(a, b):
            c = concat([a, b], axis=1)
            return (c * c).sum()

        check_op(build, [(2, 3), (2, 5)])


class TestComposites:
    def test_log_softmax_gradient(self):
        check_op(lambda a: (log_softmax(a) * log_softmax(a)).sum(), [(2, 5)])

    def test_logsumexp_matches_numpy(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(4, 6)) * 100
        got = logsumexp(Tensor(x)).data
        expect = np.log(np.exp(x - x.max(-1, keepdims=True)).sum(-1, keepdims=True)) + x.max(
            -1, keepdims=True
        )
        np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_logsumexp_stable_at_extremes(self):
        x = Tensor(np.array([[1000.0, -1000.0]]))
        assert np.isfinite(logsumexp(x).data).all()

    def test_sparsemax_gradient_away_from_boundary(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 6))
        t = Tensor(x.copy(), requires_grad=True)
        w = rng.normal(size=(4, 6))
        (t.sparsemax() * Tensor(w)).sum().backward()

        def value(a):
            with no_grad():
                return (Tensor(a).sparsemax() * Tensor(w)).sum().item()

        (fd,) = finite_diff(value, [x.copy()])
        np.testing.assert_allclose(t.grad, fd, atol=1e-5)


class TestFusedOps:
    def test_linear(self):
        check_op(lambda x, w, b: (linear(x, w, b) * linear(x, w, b)).sum(), [(2, 3, 4), (4, 5), (5,)])

    @pytest.mark.parametrize("masked", [False, True])
    def test_ffn(self, masked):
        mask = (np.random.default_rng(9).random((2, 3, 6)) >= 0.3, 1.0 / 0.7) if masked else None

        def build(x, w1, b1, w2, b2):
            out = ffn(x, w1, b1, w2, b2, mask)
            return (out * out).sum()

        check_op(build, [(2, 3, 4), (4, 6), (6,), (6, 4), (4,)], seed=10)

    def test_layer_norm(self):
        weights = np.random.default_rng(6).normal(size=(3, 5))
        check_op(
            lambda x, g, b: (layer_norm(x, g, b, 1e-5) * Tensor(weights)).sum(),
            [(2, 3, 5), (5,), (5,)],
        )

    def test_attention_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        q, k, v = (Tensor(rng.normal(size=(2, 5, 4))) for _ in range(3))
        _, p = attention(q, k, v, "softmax")
        assert p.shape == (2, 5, 5)
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12)

    def test_attention_softmax_gradient(self):
        def build(q, k, v):
            out, _ = attention(q, k, v, "softmax")
            return (out * out).sum()

        check_op(build, [(2, 3, 4), (2, 6, 4), (2, 6, 4)])

    def test_attention_sparsemax_gradient_with_mask(self):
        # broadcast (1, heads, Tq, d) query against (B, heads, Tk, d) keys
        mask = np.random.default_rng(7).random((2, 2, 3, 6)) >= 0.3, 1.0 / 0.7

        def build(q, k, v):
            out, _ = attention(q * 3.0, k, v, "sparsemax", mask)
            return (out * out).sum()

        check_op(build, [(1, 2, 3, 4), (2, 2, 6, 4), (2, 2, 6, 4)], seed=8, atol=1e-6)

    def test_float_mask_is_refused(self):
        # the float multipliers the (keep, scale) pair replaced
        t = Tensor(np.ones((2, 3, 3)))
        with pytest.raises(TypeError, match="keep-mask must be bool"):
            attention(t, t, t, "softmax", np.full((2, 3, 3), 1.25))
        with pytest.raises(TypeError, match="keep-mask must be bool"):
            dropout(t, (np.ones((2, 3, 3)), 1.25))
        w1, w2 = Tensor(np.ones((3, 4))), Tensor(np.ones((4, 3)))
        with pytest.raises(TypeError, match="keep-mask must be bool"):
            ffn(t, w1, Tensor(np.ones(4)), w2, Tensor(np.ones(3)), (np.ones((2, 3, 4)), 1.25))

    def test_attention_rejects_unknown_activation(self):
        t = Tensor(np.ones((2, 3)))
        with pytest.raises(ValueError):
            attention(t, t, t, "relu")


class TestGraphMechanics:
    def test_reused_node_accumulates(self):
        x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        y = x * x + x  # x appears three times
        y.sum().backward()
        np.testing.assert_allclose(x.grad, 2 * x.data + 1)

    def test_diamond_graph(self):
        x = Tensor(np.array(1.5), requires_grad=True)
        a = x * 2.0
        b = x * 3.0
        (a * b).backward()
        np.testing.assert_allclose(x.grad, 12 * x.data)

    def test_no_grad_builds_no_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = (x * 2.0).sum()
        assert y._backward is None
        with pytest.raises(RuntimeError, match="not part of a graph"):
            y.backward()
        assert x.grad is None

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2.0).backward()

    def test_detach_blocks_gradient(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        (x.detach() * x).sum().backward()
        np.testing.assert_allclose(x.grad, x.data)  # only the live branch


class TestBackwardUsesUpGraph:
    @staticmethod
    def build(x, w, b, gain, bias, keep):
        """A scalar over a graph with fused, elementwise and shape ops."""
        h = dropout(linear(x, w, b).gelu(), (keep, 2.0))
        normed = layer_norm(h, gain, bias, 1e-5)
        out, _ = attention(normed, normed, normed, "softmax", (keep, 2.0))
        return (out * out).sum()

    def setup_method(self):
        rng = np.random.default_rng(0)
        self.arrays = [rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 3)),
                       rng.normal(size=3), rng.normal(size=3), rng.normal(size=3)]
        self.keep = rng.random((2, 3, 3)) >= 0.3

    def interior_nodes(self, root):
        seen, stack, nodes = {id(root)}, [root], []
        while stack:
            node = stack.pop()
            if node._backward is not None:
                nodes.append(node)
            for parent in node._parents:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append(parent)
        return nodes

    def test_interior_nodes_are_emptied_and_leaf_grads_exact(self):
        leaves = [Tensor(a.copy(), requires_grad=True) for a in self.arrays]
        loss = self.build(*leaves, self.keep)
        interior = self.interior_nodes(loss)
        assert len(interior) > 5
        loss.backward()
        for node in interior:
            assert node.grad is None
            assert node._parents == ()
            assert getattr(node._backward, "__closure__", None) is None  # captures nothing
        fd = finite_diff(lambda *a: self.build(*map(Tensor, a), self.keep).item(),
                         [a.copy() for a in self.arrays])
        for leaf, expect in zip(leaves, fd):
            np.testing.assert_allclose(leaf.grad, expect, atol=1e-6)

    def test_used_up_graph_is_freed(self):
        leaves = [Tensor(a.copy(), requires_grad=True) for a in self.arrays]
        loss = self.build(*leaves, self.keep)
        refs = [weakref.ref(node) for node in self.interior_nodes(loss) if node is not loss]
        loss.backward()
        assert all(ref() is None for ref in refs)

    def test_second_backward_raises(self):
        leaves = [Tensor(a.copy(), requires_grad=True) for a in self.arrays]
        loss = self.build(*leaves, self.keep)
        loss.backward()
        grads = [leaf.grad.copy() for leaf in leaves]
        with pytest.raises(RuntimeError, match="already used up"):
            loss.backward()
        for leaf, grad in zip(leaves, grads):
            np.testing.assert_array_equal(leaf.grad, grad)

    def test_backward_through_used_up_node_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = x * 2.0
        y.sum().backward()
        with pytest.raises(RuntimeError, match="already used up"):
            (y * 3.0).sum().backward()

    def test_backward_memory_stays_at_a_few_arrays(self):
        # a chain of L elementwise ops over one array: keeping the interior
        # gradients until the graph goes away would cost L arrays
        size, length = 50_000, 60
        x = Tensor(np.random.default_rng(0).normal(size=size), requires_grad=True)
        y = x
        for _ in range(length):
            y = y * 1.0001
        loss = y.sum()
        del y
        array_bytes = x.data.nbytes
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss.backward()
            extra = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert extra < 4 * array_bytes, extra / array_bytes
        np.testing.assert_allclose(x.grad, np.full(size, 1.0001**length))
