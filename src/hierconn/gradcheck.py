"""Finite-difference verification of every parameter gradient.

Builds a small fixed model, computes analytic gradients of the full training
objective, then sweeps every element of every tensor with central
differences. The per-tensor relative error is the max absolute difference
scaled by the larger of the two gradients' magnitudes.

The consistency term distills a stop-gradient teacher, so the difference
oracle evaluates that term with the teacher logits frozen at the base
point; re-deriving the teacher from perturbed parameters would measure a
path the objective deliberately excludes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import no_grad
from .losses import LossWeights, total_loss_graph
from .model import ModelConfig, ModelParams, forward_batch, init_params

TINY_CONFIG = ModelConfig(n=6, d=8, heads=2, layers=1, k=3, dropout=0.0)
DEFAULT_STEP = 1e-5
DEFAULT_THRESHOLD = 1e-3  # hard gate; a healthy build sits near 1e-4 or below


@dataclass
class GradcheckReport:
    max_rel_error: dict[str, float]
    threshold: float
    passed: bool
    worst_tensor: str
    worst_error: float

    def lines(self) -> list[str]:
        out = []
        for name in sorted(self.max_rel_error):
            err = self.max_rel_error[name]
            flag = "ok " if err <= self.threshold else "FAIL"
            out.append(f"{flag}  {err:12.3e}  {name}")
        status = "PASS" if self.passed else "FAIL"
        out.append(
            f"{status}: worst {self.worst_error:.3e} in {self.worst_tensor} "
            f"(threshold {self.threshold:.0e})"
        )
        return out


WEIGHT_SCALE = 15.0  # production init (0.02 std) leaves query/key gradients
# below the ~1e-11 resolution of central differences on an O(1) loss; the
# fixture scales the weights so every tensor carries a resolvable gradient
GRAD_FLOOR = 1e-6


def _fixture(seed: int):
    params = init_params(TINY_CONFIG, seed)
    rng = np.random.default_rng([seed, 55])
    for name in params.names():
        tensor = params[name]
        if name.endswith(("ln_g", "ln_b")):
            continue
        if tensor.data.any():  # normals only; zero biases stay zero
            tensor.data *= WEIGHT_SCALE
        else:
            tensor.data[...] = rng.normal(0.0, 0.1, size=tensor.data.shape)
    m = rng.normal(0.0, 0.3, size=(6, 6))
    m = np.clip((m + m.T) / 2.0, -0.99, 0.99)
    np.fill_diagonal(m, 1.0)
    target = 1
    weights = LossWeights()
    return params, m[None], target, weights


GRADCHECK_STEP_INDEX = 100
GRADCHECK_TOTAL_STEPS = 1000


def _loss_value(params: ModelParams, matrices, target, weights, frozen_teacher) -> float:
    """Objective value with the consistency teacher pinned at the base point."""
    with no_grad():
        out = forward_batch(matrices, params, TINY_CONFIG)
        total, _ = total_loss_graph(
            out, target, GRADCHECK_STEP_INDEX, GRADCHECK_TOTAL_STEPS, weights,
            teacher=frozen_teacher,
        )
        return total.item()


def run_gradcheck(seed: int = 0, threshold: float = DEFAULT_THRESHOLD) -> GradcheckReport:
    params, matrices, target, weights = _fixture(seed)
    params.zero_grad()
    out = forward_batch(matrices, params, TINY_CONFIG)
    total, _ = total_loss_graph(
        out, target, GRADCHECK_STEP_INDEX, GRADCHECK_TOTAL_STEPS, weights
    )
    total.backward()
    analytic = {name: params[name].grad.copy() for name in params.names()}
    frozen_teacher = out.z_g.data.copy()

    errors: dict[str, float] = {}
    for name in params.names():
        tensor = params[name]
        flat = tensor.data.reshape(-1)
        fd = np.zeros_like(flat)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + DEFAULT_STEP
            f_plus = _loss_value(params, matrices, target, weights, frozen_teacher)
            flat[i] = original - DEFAULT_STEP
            f_minus = _loss_value(params, matrices, target, weights, frozen_teacher)
            flat[i] = original
            fd[i] = (f_plus - f_minus) / (2.0 * DEFAULT_STEP)
        a = analytic[name].reshape(-1)
        scale = max(np.max(np.abs(a)), np.max(np.abs(fd)), GRAD_FLOOR)
        errors[name] = float(np.max(np.abs(a - fd)) / scale)

    worst = max(errors, key=errors.get)
    return GradcheckReport(
        max_rel_error=errors,
        threshold=threshold,
        passed=errors[worst] <= threshold,
        worst_tensor=worst,
        worst_error=errors[worst],
    )
