"""Objective terms: classification, auxiliary, token orthogonality, and
temperature-scaled consistency distillation, plus the sigmoid ramp that
schedules the consistency weight. Targets, constants and the distillation
teacher take the logits' dtype, so a float32 graph stays float32."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .autodiff import Tensor, as_tensor, log_softmax, logsumexp
from .errors import InvalidTarget, ShapeMismatch, ZeroNormToken, check_fields
from .model import ForwardOutput


@dataclass(frozen=True)
class LossWeights:
    alpha: float = field(default=1.3, metadata={"help": "orthogonality weight", "check": ">= 0"})
    beta_max: float = field(
        default=0.2, metadata={"help": "peak consistency weight", "check": ">= 0"}
    )
    beta_center_fraction: float = field(
        default=0.25, metadata={"help": "share of the steps at the consistency ramp's midpoint"}
    )
    beta_slope: float = field(default=0.001, metadata={"help": "slope of the consistency ramp"})
    tau: float = field(default=2.0, metadata={"help": "distillation temperature", "check": "> 0"})

    def __post_init__(self):
        check_fields(self)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class LossBreakdown:
    cls: float
    aux: float
    oc: float
    hc: float
    beta_t: float
    total: float


def _target_matrix(target, class_count: int, lead_shape: tuple[int, ...], dtype) -> np.ndarray:
    """Normalize a class index or soft-label array to shape lead_shape + (C,), in
    ``dtype``."""
    if isinstance(target, (int, np.integer)):
        if not 0 <= int(target) < class_count:
            raise InvalidTarget(f"class index {target} outside [0, {class_count})")
        row = np.zeros(class_count, dtype)
        row[int(target)] = 1.0
        return np.broadcast_to(row, lead_shape + (class_count,))
    target = np.asarray(target, dtype=np.float64)
    if target.shape[-1] != class_count:
        raise InvalidTarget(
            f"soft target has {target.shape[-1]} classes, logits have {class_count}"
        )
    if np.any(target < 0) or np.any(np.abs(target.sum(axis=-1) - 1.0) > 1e-6):
        raise InvalidTarget("soft target rows must be nonnegative and sum to 1")
    return np.broadcast_to(target.astype(dtype, copy=False), lead_shape + (class_count,))


def classification_loss(logits, target) -> Tensor:
    """Cross-entropy with log-sum-exp stabilization; hard or soft targets.

    Reduces to the mean over any leading (batch) axes.
    """
    logits = as_tensor(logits)
    y = Tensor(
        _target_matrix(target, logits.shape[-1], tuple(logits.shape[:-1]), logits.data.dtype)
    )
    # -sum y log softmax = lse(z) - sum y*z  (soft rows sum to 1)
    per_row = logsumexp(logits) - (logits * y).sum(axis=-1, keepdims=True)
    return per_row.mean()


def orthogonality_loss(subgraph_tokens) -> Tensor:
    """Push distinct subgraph tokens apart.

    Rows are L2-normalized, their Gram matrix S is formed, and each row pays
    cross-entropy for identifying its own diagonal:
    -(1/K) sum_i log(exp(S_ii) / sum_j exp(S_ij)). Equals ln K when all
    tokens coincide and ln(1 + (K-1)/e) when they are orthonormal.
    """
    x = as_tensor(subgraph_tokens)
    k = x.shape[-2]
    if k < 2:
        raise ShapeMismatch(f"need at least 2 tokens, got {k}")
    norms_sq = (x * x).sum(axis=-1, keepdims=True)
    zero = np.nonzero(norms_sq.data == 0.0)
    if zero[0].size:
        raise ZeroNormToken(int(zero[-2][0]))
    unit = x / norms_sq.sqrt()
    gram = unit @ unit.swapaxes(-1, -2)
    eye = Tensor(np.eye(k, dtype=x.data.dtype))
    diag = (gram * eye).sum(axis=-1, keepdims=True)
    per_row = logsumexp(gram) - diag
    return per_row.mean()


def hierarchical_consistency_loss(z_n, z_g, tau: float) -> Tensor:
    """tau^2 * KL(student distribution || teacher distribution).

    Student logits are the node-head output z_n; the teacher branch z_g is
    detached, so no gradient reaches it through this term.
    """
    if tau <= 0:
        raise ValueError("tau must be > 0")
    z_n = as_tensor(z_n)
    teacher = np.asarray(z_g.data if isinstance(z_g, Tensor) else z_g, dtype=z_n.data.dtype)
    if teacher.shape != tuple(z_n.shape):
        raise ShapeMismatch(f"student shape {z_n.shape} != teacher shape {teacher.shape}")
    # same ops as the student path so equal logits cancel exactly
    log_q = log_softmax(Tensor(teacher * (1.0 / tau)))
    log_p = log_softmax(z_n * (1.0 / tau))
    p = log_p.exp()
    kl_rows = (p * (log_p - log_q)).sum(axis=-1, keepdims=True)
    return kl_rows.mean() * (tau * tau)


def beta_schedule(step: int, total_steps: int, w: LossWeights) -> float:
    """Logistic ramp for the consistency weight over global optimizer steps."""
    if total_steps <= 0:
        raise ValueError("total_steps must be positive")
    center = w.beta_center_fraction * total_steps
    return float(w.beta_max / (1.0 + np.exp(-w.beta_slope * (step - center))))


def total_loss_graph(
    out: ForwardOutput, target, step: int, total_steps: int, w: LossWeights, teacher=None
) -> tuple[Tensor, LossBreakdown]:
    """Differentiable total objective plus its float breakdown; the consistency
    term distills toward the ``teacher`` logits, by default ``out.z_g``."""
    cls = classification_loss(out.z_g, target)
    aux = classification_loss(out.z_n, target)
    oc = orthogonality_loss(out.subgraph_tokens)
    hc = hierarchical_consistency_loss(out.z_n, out.z_g if teacher is None else teacher, w.tau)
    beta_t = beta_schedule(step, total_steps, w)
    total = cls + aux + w.alpha * oc + beta_t * hc
    breakdown = LossBreakdown(
        cls=cls.item(), aux=aux.item(), oc=oc.item(), hc=hc.item(),
        beta_t=beta_t, total=total.item(),
    )
    return total, breakdown
