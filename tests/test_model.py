"""Stage-by-stage network checks against direct dense-attention oracles,
plus whole-forward contracts."""

import numpy as np
import pytest

from hierconn.autodiff import _CDF_CHUNK, Tensor, no_grad
from hierconn.errors import NonFiniteActivation, ShapeMismatch
from hierconn.model import (
    LN_EPS,
    ModelConfig,
    _dropout_mask,
    embed_nodes,
    forward_batch,
    init_params,
    node_to_node,
    node_to_subgraph,
    subgraph_to_graph,
)
from hierconn.sparsemax import sparsemax_forward

TINY = ModelConfig(n=6, d=8, heads=2, layers=1, k=3, dropout=0.0)


def tiny_params(seed=0):
    return init_params(TINY, seed)


def dropout_masks(seed, shape, rate):
    """The attention dropout multipliers a train-mode stage draws from ``seed``."""
    return (np.random.default_rng(seed).random(shape) >= rate) / (1.0 - rate)


C = _CDF_CHUNK


@pytest.mark.parametrize("p", [0.1, 0.999])
@pytest.mark.parametrize("size", [0, 1, C - 1, C, C + 1, 3 * C + 5])
def test_dropout_mask_is_the_one_call_draw(size, p):
    # drawn a slice at a time, the mask has the values of one rng.random call
    # and leaves the generator where that call would
    rng, one_call = np.random.default_rng(size), np.random.default_rng(size)
    keep, scale = _dropout_mask((size,), p, rng)
    assert keep.dtype == np.bool_ and scale == 1.0 / (1.0 - p)
    np.testing.assert_array_equal(keep, one_call.random(size) >= p)
    assert rng.random() == one_call.random()


def test_dropout_mask_keeps_its_shape():
    shape = (2, 3, C // 4 + 1)
    keep, _ = _dropout_mask(shape, 0.3, np.random.default_rng(1))
    np.testing.assert_array_equal(keep, np.random.default_rng(1).random(shape) >= 0.3)


def layer_norm_oracle(x, gain, bias):
    mu = x.mean(-1, keepdims=True)
    var = ((x - mu) ** 2).mean(-1, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPS) * gain + bias


def attention_oracle(query, kv, residual, p, prefix, heads, activation="softmax", mask=None):
    """Dense single-batch attention computed with plain loops.

    ``mask``: optional (heads, queries, keys) inverted-dropout multipliers.
    """
    d = query.shape[-1]
    d_h = d // heads
    q = query @ p[f"{prefix}.wq"].data + p[f"{prefix}.bq"].data
    k = kv @ p[f"{prefix}.wk"].data + p[f"{prefix}.bk"].data
    v = kv @ p[f"{prefix}.wv"].data + p[f"{prefix}.bv"].data
    outs = []
    for h in range(heads):
        sl = slice(h * d_h, (h + 1) * d_h)
        scores = q[:, sl] @ k[:, sl].T / np.sqrt(d_h)
        if activation == "softmax":
            e = np.exp(scores - scores.max(-1, keepdims=True))
            a = e / e.sum(-1, keepdims=True)
        else:
            a = np.stack([sparsemax_forward(row).probabilities for row in scores])
        if mask is not None:
            a = a * mask[h]
        outs.append(a @ v[:, sl])
    merged = np.concatenate(outs, axis=-1)
    out = merged @ p[f"{prefix}.wo"].data + p[f"{prefix}.bo"].data
    return layer_norm_oracle(residual + out, p[f"{prefix}.ln_g"].data, p[f"{prefix}.ln_b"].data)


class TestEmbed:
    def test_zero_matrix_yields_bias(self):
        params = tiny_params()
        params.tensors["embed.w"].data[:] = 0.0
        params.tensors["embed.b"].data[:] = np.arange(8.0)
        out = embed_nodes(np.zeros((1, 6, 6)), params, TINY)
        np.testing.assert_array_equal(out.data[0], np.tile(np.arange(8.0), (6, 1)))

    def test_identity_projection_returns_rows(self):
        cfg = ModelConfig(n=8, d=8, heads=2, layers=1, k=2, dropout=0.0)
        params = init_params(cfg, 0)
        params.tensors["embed.w"].data = np.eye(8)
        params.tensors["embed.b"].data[:] = 0.0
        rng = np.random.default_rng(0)
        m = rng.normal(size=(1, 8, 8))
        out = embed_nodes(m, params, cfg)
        np.testing.assert_array_equal(out.data, m)

    def test_matches_matmul_oracle(self):
        cfg = ModelConfig(n=8, d=8, heads=2, layers=1, k=2, dropout=0.0)
        params = init_params(cfg, 1)
        rng = np.random.default_rng(1)
        m = rng.normal(size=(2, 8, 8))
        out = embed_nodes(m, params, cfg).data
        expect = m @ params["embed.w"].data + params["embed.b"].data
        np.testing.assert_allclose(out, expect, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            embed_nodes(np.zeros((1, 4, 4)), tiny_params(), TINY)


class TestNodeToNode:
    def test_single_token_attention(self):
        cfg = ModelConfig(n=1, d=8, heads=2, layers=1, k=2, dropout=0.0)
        params = init_params(cfg, 2)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 1, 8))
        got = node_to_node(Tensor(x), params, cfg, 0).data[0]
        # softmax over one key is 1: out = LN(x + Wo(Wv x + bv) + bo)
        v = x[0] @ params["layers.0.node_attn.wv"].data + params["layers.0.node_attn.bv"].data
        o = v @ params["layers.0.node_attn.wo"].data + params["layers.0.node_attn.bo"].data
        expect = layer_norm_oracle(
            x[0] + o,
            params["layers.0.node_attn.ln_g"].data,
            params["layers.0.node_attn.ln_b"].data,
        )
        np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_permutation_equivariance(self):
        params = tiny_params(3)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 6, 8))
        perm = rng.permutation(6)
        base = node_to_node(Tensor(x), params, TINY, 0).data[0]
        permuted = node_to_node(Tensor(x[:, perm]), params, TINY, 0).data[0]
        np.testing.assert_allclose(permuted, base[perm], atol=1e-12)

    def test_matches_dense_attention_oracle(self):
        cfg = ModelConfig(n=4, d=8, heads=2, layers=1, k=2, dropout=0.0)
        params = init_params(cfg, 4)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(4, 8))
        got = node_to_node(Tensor(x[None]), params, cfg, 0).data[0]
        expect = attention_oracle(x, x, x, params, "layers.0.node_attn", heads=2)
        np.testing.assert_allclose(got, expect, atol=1e-10)

    def test_train_mode_dropout_matches_oracle_draws(self):
        cfg = ModelConfig(n=4, d=8, heads=2, layers=1, k=2, dropout=0.3)
        params = init_params(cfg, 4)
        x = np.random.default_rng(4).normal(size=(2, 4, 8))
        got = node_to_node(
            Tensor(x), params, cfg, 0, train=True, rng=np.random.default_rng(40)
        ).data
        masks = dropout_masks(40, (2, 2, 4, 4), 0.3)
        assert (masks == 0.0).any()
        for b in range(2):
            expect = attention_oracle(
                x[b], x[b], x[b], params, "layers.0.node_attn", heads=2, mask=masks[b]
            )
            np.testing.assert_allclose(got[b], expect, atol=1e-10)


class TestNodeToSubgraph:
    def test_identical_nodes_give_uniform_rows(self):
        params = tiny_params(5)
        x_n = np.tile(np.random.default_rng(5).normal(size=8), (1, 6, 1))
        x_sg = params["subgraph_tokens"]
        _, head_mean, _ = node_to_subgraph(x_sg, Tensor(x_n), params, TINY, 0)
        np.testing.assert_allclose(head_mean[0], np.full((3, 6), 1 / 6), atol=1e-12)

    def test_dominant_key_gets_one_hot_row(self):
        cfg = ModelConfig(n=4, d=4, heads=1, layers=1, k=2, dropout=0.0)
        params = init_params(cfg, 6)
        params.tensors["layers.0.pool_attn.wq"].data = np.eye(4)
        params.tensors["layers.0.pool_attn.bq"].data[:] = 0
        params.tensors["layers.0.pool_attn.wk"].data = np.eye(4)
        params.tensors["layers.0.pool_attn.bk"].data[:] = 0
        params.tensors["subgraph_tokens"].data = np.zeros((1, 2, 4))
        params.tensors["subgraph_tokens"].data[0, 0, 0] = 4.0  # query along e1
        x_n = np.zeros((1, 4, 4))
        x_n[0, 2, 0] = 2.0  # node 2 scores 4*2/sqrt(4)=4, others 0: margin > 1
        _, head_mean, _ = node_to_subgraph(
            params["subgraph_tokens"], Tensor(x_n), params, cfg, 0
        )
        expected_row = sparsemax_forward(np.array([0.0, 0.0, 4.0, 0.0])).probabilities
        np.testing.assert_array_equal(head_mean[0, 0], expected_row)
        assert head_mean[0, 0, 2] == 1.0

    def test_rows_sum_to_one(self):
        params = tiny_params(7)
        rng = np.random.default_rng(7)
        x_n = Tensor(rng.normal(size=(3, 6, 8)))
        _, head_mean, per_head = node_to_subgraph(
            params["subgraph_tokens"], x_n, params, TINY, 0
        )
        np.testing.assert_allclose(per_head.sum(axis=-1), 1.0, atol=1e-6)
        np.testing.assert_allclose(head_mean.sum(axis=-1), 1.0, atol=1e-6)

    def test_sparsemax_path_matches_dense_sparse_oracle(self):
        cfg = ModelConfig(n=5, d=8, heads=2, layers=1, k=3, dropout=0.0)
        params = init_params(cfg, 9)
        rng = np.random.default_rng(9)
        x_n = rng.normal(size=(5, 8))
        x_sg = params["subgraph_tokens"].data[0]
        out, _, _ = node_to_subgraph(
            params["subgraph_tokens"], Tensor(x_n[None]), params, cfg, 0
        )
        expect = attention_oracle(
            x_sg, x_n, x_sg, params, "layers.0.pool_attn", heads=2, activation="sparsemax"
        )
        np.testing.assert_allclose(out.data[0], expect, atol=1e-10)

    def test_train_mode_dropout_broadcast_query_matches_oracle_draws(self):
        # the first block's query is the (1, K, d) parameter, so one mask is
        # drawn over the broadcast (B, heads, K, n) probabilities
        cfg = ModelConfig(n=5, d=8, heads=2, layers=1, k=3, dropout=0.3)
        params = init_params(cfg, 9)
        x_n = np.random.default_rng(9).normal(size=(2, 5, 8))
        x_sg = params["subgraph_tokens"].data[0]
        out, _, _ = node_to_subgraph(
            params["subgraph_tokens"], Tensor(x_n), params, cfg, 0,
            train=True, rng=np.random.default_rng(90),
        )
        masks = dropout_masks(90, (2, 2, 3, 5), 0.3)
        for b in range(2):
            expect = attention_oracle(
                x_sg, x_n[b], x_sg, params, "layers.0.pool_attn", heads=2,
                activation="sparsemax", mask=masks[b],
            )
            np.testing.assert_allclose(out.data[b], expect, atol=1e-10)


class TestSubgraphToGraph:
    def test_identical_keys_uniform(self):
        params = tiny_params(10)
        token = np.random.default_rng(10).normal(size=8)
        params.tensors["graph_token"].data = token[None, None].copy()
        x_sg = np.tile(token, (1, 3, 1))  # all K+1 keys identical
        _, head_mean = subgraph_to_graph(
            params["graph_token"], Tensor(x_sg), params, TINY
        )
        np.testing.assert_allclose(head_mean[0], np.full(4, 0.25), atol=1e-12)

    def test_k8_trace_shape_and_sum(self):
        cfg = ModelConfig(n=6, d=16, heads=2, layers=1, k=8, dropout=0.0)
        params = init_params(cfg, 11)
        rng = np.random.default_rng(11)
        x_sg = Tensor(rng.normal(size=(2, 8, 16)))
        _, head_mean = subgraph_to_graph(params["graph_token"], x_sg, params, cfg)
        assert head_mean.shape == (2, 9)
        np.testing.assert_allclose(head_mean.sum(axis=-1), 1.0, atol=1e-6)

    def test_matches_dense_oracle(self):
        params = tiny_params(12)
        rng = np.random.default_rng(12)
        x_sg = rng.normal(size=(3, 8))
        x_g = params["graph_token"].data[0]
        out, _ = subgraph_to_graph(
            params["graph_token"], Tensor(x_sg[None]), params, TINY
        )
        kv = np.concatenate([x_g, x_sg], axis=0)
        expect = attention_oracle(x_g, kv, x_g, params, "graph_attn", heads=2)
        np.testing.assert_allclose(out.data[0], expect, atol=1e-10)


class TestForward:
    def test_eval_deterministic(self):
        params = tiny_params(13)
        rng = np.random.default_rng(13)
        m = rng.normal(size=(6, 6))
        m = (m + m.T) / 2
        a = forward_batch(m[None], params, TINY).z_g.data
        b = forward_batch(m[None], params, TINY).z_g.data
        np.testing.assert_array_equal(a, b)

    def test_logit_lengths(self):
        params = tiny_params(14)
        out = forward_batch(np.eye(6)[None], params, TINY)
        assert out.z_g.shape == (1, 2)
        assert out.z_n.shape == (1, 2)

    def test_trace_shapes_and_stochasticity(self):
        cfg = ModelConfig(n=6, d=8, heads=2, layers=2, k=3, dropout=0.0)
        params = init_params(cfg, 15)
        rng = np.random.default_rng(15)
        m = rng.normal(size=(6, 6))
        out = forward_batch(((m + m.T) / 2)[None], params, cfg)
        assert len(out.trace.node_to_subgraph) == 2
        for a in out.trace.node_to_subgraph:
            assert a.shape == (1, 3, 6)
            assert np.all(a >= 0)
            np.testing.assert_allclose(a.sum(axis=-1), 1.0, atol=1e-6)
        sg = out.trace.subgraph_to_graph
        assert sg.shape == (1, 4)
        np.testing.assert_allclose(sg.sum(axis=-1), 1.0, atol=1e-6)

    def test_train_mode_needs_rng_for_dropout(self):
        cfg = ModelConfig(n=6, d=8, heads=2, layers=1, k=3, dropout=0.5)
        params = init_params(cfg, 16)
        with pytest.raises(ValueError):
            forward_batch(np.eye(6)[None], params, cfg, mode="train")

    def test_train_mode_pure_function_of_rng_seed(self):
        cfg = ModelConfig(n=6, d=8, heads=2, layers=1, k=3, dropout=0.3)
        params = init_params(cfg, 17)
        m = np.eye(6)[None]
        a = forward_batch(m, params, cfg, mode="train", rng=np.random.default_rng(5)).z_g.data
        b = forward_batch(m, params, cfg, mode="train", rng=np.random.default_rng(5)).z_g.data
        c = forward_batch(m, params, cfg, mode="train", rng=np.random.default_rng(6)).z_g.data
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_activation_raised(self):
        params = tiny_params(18)
        params.tensors["embed.w"].data[0, 0] = np.inf
        with pytest.raises(NonFiniteActivation):
            forward_batch(np.eye(6)[None], params, TINY)

    def test_batch_matches_singles(self):
        params = tiny_params(19)
        rng = np.random.default_rng(19)
        ms = rng.normal(size=(3, 6, 6))
        with no_grad():
            batch = forward_batch(ms, params, TINY)
            for i in range(3):
                single = forward_batch(ms[i : i + 1], params, TINY)
                np.testing.assert_allclose(batch.z_g.data[i], single.z_g.data[0], atol=1e-10)
                np.testing.assert_allclose(batch.z_n.data[i], single.z_n.data[0], atol=1e-10)

    def test_checkpointable_param_listing_stable(self):
        params = tiny_params(20)
        assert params.names() == sorted(params.tensors)


class TestForwardGradients:
    def test_finite_difference_spot_check(self):
        """Full-model FD agreement for a few representative tensors; the
        exhaustive sweep (including the stop-gradient consistency term)
        lives in the gradient-check harness. Weights are scaled up so the
        attention paths carry gradients FD can actually resolve."""
        from hierconn.losses import (
            LossWeights,
            classification_loss,
            orthogonality_loss,
        )

        params = tiny_params(21)
        for name in params.names():
            if not name.endswith(("ln_g", "ln_b")):
                params.tensors[name].data = params[name].data * 15.0
        rng = np.random.default_rng(21)
        m = rng.normal(size=(6, 6))
        m = np.clip((m + m.T) / 2, -0.99, 0.99)
        np.fill_diagonal(m, 1.0)
        w = LossWeights()

        def build():
            out = forward_batch(m[None], params, TINY)
            return (
                classification_loss(out.z_g, 1)
                + classification_loss(out.z_n, 1)
                + w.alpha * orthogonality_loss(out.subgraph_tokens)
            )

        params.zero_grad()
        build().backward()

        h = 1e-5
        for name in ["embed.w", "subgraph_tokens", "layers.0.pool_attn.wq",
                     "layers.0.node_attn.wq", "head.w2", "aux.w"]:
            tensor = params[name]
            flat = tensor.data.reshape(-1)
            grad = tensor.grad.reshape(-1)
            indices = rng.choice(flat.size, size=min(5, flat.size), replace=False)
            for idx in indices:
                orig = flat[idx]
                flat[idx] = orig + h
                with no_grad():
                    fp = build().item()
                flat[idx] = orig - h
                with no_grad():
                    fm = build().item()
                flat[idx] = orig
                fd = (fp - fm) / (2 * h)
                assert grad[idx] == pytest.approx(fd, rel=1e-4, abs=1e-7), name
