"""Objective terms against closed forms and direct-formula oracles."""

import math

import numpy as np
import pytest

from hierconn.autodiff import Tensor
from hierconn.errors import InvalidTarget, ShapeMismatch, ZeroNormToken
from hierconn.losses import (
    LossBreakdown,
    LossWeights,
    beta_schedule,
    classification_loss,
    hierarchical_consistency_loss,
    orthogonality_loss,
    total_loss_graph,
)
from hierconn.model import ModelConfig, forward_batch, init_params


def softmax_np(z):
    e = np.exp(z - np.max(z, axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def ce_oracle(logits, soft):
    """Direct -sum y log softmax."""
    return float(-(np.asarray(soft) * np.log(softmax_np(np.asarray(logits)))).sum())


def kl_oracle(z_n, z_g, tau):
    """Direct two-term KL(student || teacher) with temperature and tau^2 factor."""
    p = softmax_np(np.asarray(z_n) / tau)
    q = softmax_np(np.asarray(z_g) / tau)
    return float(tau * tau * (p * (np.log(p) - np.log(q))).sum())


class TestClassificationLoss:
    def test_uniform_logits_hard_target(self):
        got = classification_loss(Tensor(np.zeros(2)), 0).item()
        assert got == pytest.approx(math.log(2), abs=1e-12)

    def test_extreme_logits_stable(self):
        got = classification_loss(Tensor(np.array([1000.0, -1000.0])), 0).item()
        assert got == pytest.approx(0.0, abs=1e-12)
        got = classification_loss(Tensor(np.array([1000.0, -1000.0])), 1).item()
        assert math.isfinite(got) and got > 100

    def test_soft_target_matches_direct_oracle(self):
        logits = np.array([0.2, -0.1])
        soft = np.array([0.3, 0.7])
        got = classification_loss(Tensor(logits), soft).item()
        assert got == pytest.approx(ce_oracle(logits, soft), abs=1e-12)

    def test_batch_reduces_to_mean(self):
        logits = np.array([[0.2, -0.1], [1.0, 2.0]])
        soft = np.array([[0.3, 0.7], [1.0, 0.0]])
        got = classification_loss(Tensor(logits), soft).item()
        expect = (ce_oracle(logits[0], soft[0]) + ce_oracle(logits[1], soft[1])) / 2
        assert got == pytest.approx(expect, abs=1e-12)

    def test_invalid_targets(self):
        with pytest.raises(InvalidTarget):
            classification_loss(Tensor(np.zeros(2)), 5)
        with pytest.raises(InvalidTarget):
            classification_loss(Tensor(np.zeros(2)), np.array([0.5, 0.6]))

    def test_gradient_is_softmax_minus_target(self):
        logits = Tensor(np.array([0.3, -0.8]), requires_grad=True)
        classification_loss(logits, 0).backward()
        expect = softmax_np(logits.data) - np.array([1.0, 0.0])
        np.testing.assert_allclose(logits.grad, expect, atol=1e-12)


class TestOrthogonalityLoss:
    def test_identical_tokens_give_ln_k(self):
        for k in (2, 4, 8):
            x = np.tile(np.array([1.0, 2.0, 3.0]), (k, 1))
            got = orthogonality_loss(Tensor(x)).item()
            assert got == pytest.approx(math.log(k), abs=1e-9)

    def test_orthonormal_tokens_closed_form(self):
        for k in (2, 8):
            got = orthogonality_loss(Tensor(np.eye(k))).item()
            assert got == pytest.approx(math.log(1 + (k - 1) / math.e), abs=1e-9)
        assert orthogonality_loss(Tensor(np.eye(8))).item() == pytest.approx(
            1.2740088362278477, abs=1e-9
        )

    def test_matches_direct_softmax_ce_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 16))
        unit = x / np.linalg.norm(x, axis=1, keepdims=True)
        s = unit @ unit.T
        expect = float(np.mean([ce_oracle(s[i], np.eye(4)[i]) for i in range(4)]))
        got = orthogonality_loss(Tensor(x)).item()
        assert got == pytest.approx(expect, abs=1e-12)

    def test_scale_invariance_per_row(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 8))
        scales = rng.uniform(0.1, 10.0, size=(5, 1))
        base = orthogonality_loss(Tensor(x)).item()
        scaled = orthogonality_loss(Tensor(x * scales)).item()
        assert scaled == pytest.approx(base, abs=1e-9)

    def test_lower_bound_for_unit_rows(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            k = int(rng.integers(2, 9))
            x = rng.normal(size=(k, 6))
            bound = math.log(1 + (k - 1) * math.exp(-2.0))
            assert orthogonality_loss(Tensor(x)).item() >= bound - 1e-12

    def test_zero_norm_token_rejected(self):
        x = np.ones((3, 4))
        x[1] = 0.0
        with pytest.raises(ZeroNormToken) as exc:
            orthogonality_loss(Tensor(x))
        assert exc.value.index == 1


class TestHierarchicalConsistency:
    def test_equal_logits_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            z = rng.normal(size=2) * 5
            got = hierarchical_consistency_loss(Tensor(z), np.array(z), 2.0).item()
            assert got == pytest.approx(0.0, abs=1e-12)

    def test_double_kl_example(self):
        z_n, z_g = np.array([0.0, 0.0]), np.array([2.0, 0.0])
        got = hierarchical_consistency_loss(Tensor(z_n), z_g, 2.0).item()
        assert got == pytest.approx(kl_oracle(z_n, z_g, 2.0), abs=1e-12)
        # frozen from the direct oracle
        assert got == pytest.approx(0.4804580278331101, abs=1e-12)

    def test_tau_scaling_matches_oracle(self):
        z_n, z_g = np.array([0.5, -0.3]), np.array([1.5, 0.2])
        v1 = hierarchical_consistency_loss(Tensor(z_n), z_g, 1.0).item()
        v2 = hierarchical_consistency_loss(Tensor(z_n), z_g, 2.0).item()
        assert v1 == pytest.approx(kl_oracle(z_n, z_g, 1.0), abs=1e-12)
        assert v2 == pytest.approx(kl_oracle(z_n, z_g, 2.0), abs=1e-12)
        assert v1 != pytest.approx(v2)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(4)
        z_n = rng.normal(size=(10_000, 2)) * 3
        z_g = rng.normal(size=(10_000, 2)) * 3
        per_pair = [
            hierarchical_consistency_loss(Tensor(z_n[i]), z_g[i], 2.0).item()
            for i in range(0, 10_000, 100)
        ]
        batched = hierarchical_consistency_loss(Tensor(z_n), z_g, 2.0).item()
        assert all(v >= -1e-15 for v in per_pair)
        assert batched >= 0

    def test_teacher_gets_no_gradient(self):
        z_n = Tensor(np.array([0.5, -0.3]), requires_grad=True)
        z_g = Tensor(np.array([1.5, 0.2]), requires_grad=True)
        hierarchical_consistency_loss(z_n, z_g, 2.0).backward()
        assert z_n.grad is not None
        assert z_g.grad is None  # exactly zero contribution: branch detached

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            hierarchical_consistency_loss(Tensor(np.zeros(2)), np.zeros(3), 1.0)


class TestBetaSchedule:
    def test_center_is_half_max(self):
        w = LossWeights()
        assert beta_schedule(1000, 4000, w) == pytest.approx(0.1, abs=1e-15)

    def test_saturates_at_max(self):
        w = LossWeights()
        assert beta_schedule(10**9, 4000, w) == pytest.approx(0.2, abs=1e-12)

    def test_start_value_frozen_from_logistic(self):
        w = LossWeights()
        assert beta_schedule(0, 4000, w) == pytest.approx(0.05378828427399903, abs=1e-12)

    def test_monotone_and_bounded(self):
        w = LossWeights()
        values = [beta_schedule(t, 4000, w) for t in range(0, 4001, 40)]
        assert all(b <= a for a, b in zip(values[1:], values[1:]))
        assert all(0.0 <= v <= w.beta_max for v in values)
        assert np.all(np.diff(values) >= 0)


class TestTotalLoss:
    def setup_method(self):
        self.cfg = ModelConfig(n=6, d=8, heads=2, layers=1, k=3, dropout=0.0)
        self.params = init_params(self.cfg, 30)
        rng = np.random.default_rng(30)
        m = rng.normal(size=(6, 6))
        m = np.clip((m + m.T) / 2, -0.99, 0.99)
        np.fill_diagonal(m, 1.0)
        self.out = forward_batch(m[None], self.params, self.cfg)

    def test_weight_degeneracy(self):
        w = LossWeights(alpha=0.0, beta_max=0.0)
        b = total_loss_graph(self.out, 1, 0, 100, w)[1]
        assert b.total == pytest.approx(b.cls + b.aux, abs=1e-12)

    def test_linearity_of_combination(self):
        w = LossWeights()
        b = total_loss_graph(self.out, 1, 25, 100, w)[1]
        assert b.total == pytest.approx(
            b.cls + b.aux + w.alpha * b.oc + b.beta_t * b.hc, abs=1e-9
        )
        assert isinstance(b, LossBreakdown)

    def test_components_match_standalone_calls(self):
        w = LossWeights()
        b = total_loss_graph(self.out, 0, 25, 100, w)[1]
        assert b.cls == pytest.approx(classification_loss(self.out.z_g, 0).item(), abs=1e-12)
        assert b.oc == pytest.approx(orthogonality_loss(self.out.subgraph_tokens).item(), abs=1e-12)
        assert b.hc == pytest.approx(
            hierarchical_consistency_loss(self.out.z_n, self.out.z_g, w.tau).item(), abs=1e-12
        )
        assert b.beta_t == pytest.approx(beta_schedule(25, 100, w), abs=1e-15)

    def test_graph_backward_reaches_all_parameters(self):
        w = LossWeights()
        self.params.zero_grad()
        total, _ = total_loss_graph(self.out, 1, 10, 100, w)
        total.backward()
        for name in self.params.names():
            grad = self.params[name].grad
            assert grad is not None, name
            assert np.all(np.isfinite(grad)), name
