"""Optimization loop: decoupled-weight-decay adaptive optimizer, cosine
learning-rate annealing, mixup batches, early stopping on a validation
metric, and bit-reproducible checkpoints."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import softmax

from .atomic import atomic_open
from .checkpoint import save_checkpoint
from .data import SubjectRecord, mixup, stack_records
from .errors import EmptyDataset, NonFiniteGradient, NumericalError, ShapeMismatch, check_fields
from .interpret import eval_pass
from .losses import LossWeights, total_loss_graph
from .metrics import compute_metrics
from .model import ModelConfig, ModelParams, forward_batch


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = field(default=200, metadata={"help": "training epochs", "check": "> 0"})
    batch_size: int = field(
        default=64, metadata={"help": "subjects per optimizer step", "check": "> 0"}
    )
    lr: float = field(default=1e-4, metadata={"help": "initial learning rate"})
    weight_decay: float = field(
        default=1e-4, metadata={"help": "decoupled weight decay", "check": ">= 0"}
    )
    lr_min: float = field(
        default=1e-5, metadata={"help": "final cosine-annealed learning rate", "check": "> 0"}
    )
    adam_beta1: float = field(
        default=0.9, metadata={"help": "first-moment decay", "check": "in [0, 1)"}
    )
    adam_beta2: float = field(
        default=0.999, metadata={"help": "second-moment decay", "check": "in [0, 1)"}
    )
    adam_eps: float = field(default=1e-8, metadata={"help": "optimizer epsilon", "check": "> 0"})
    early_stop_patience: int = field(
        default=30, metadata={"help": "early-stop patience; 0 disables", "flag": "--patience"}
    )
    early_stop_metric: str = field(
        default="auc",
        metadata={"help": "validation metric for early stopping", "choices": ("auc", "acc")},
    )
    grad_clip_norm: float | None = field(
        default=None, metadata={"help": "gradient-norm cap", "check": "> 0"}
    )
    mixup_enabled: bool = field(
        default=True, metadata={"help": "train without mixup", "flag": "--no-mixup"}
    )
    mixup_alpha: float = field(
        default=1.0, metadata={"help": "mixup Beta(a, a); 1.0 is uniform", "check": "> 0"}
    )
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if not self.lr > self.lr_min:
            raise ValueError(f"need lr > lr_min, got lr={self.lr}, lr_min={self.lr_min}")

    def to_dict(self) -> dict:
        return asdict(self)


class OptimizerState:
    """First/second moment accumulators, laid out like ``params.flat``, and step counter."""

    def __init__(self, params: ModelParams):
        self.m = np.zeros_like(params.flat)
        self.v = np.zeros_like(params.flat)
        self.step = 0


@dataclass
class TrainReport:
    best_epoch: int
    best_val_metric: float
    epochs_run: int
    total_steps: int
    skipped_batches: int
    history: list[dict] = field(default_factory=list)
    checkpoint_path: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def cosine_lr(step: int, total_steps: int, lr: float, lr_min: float) -> float:
    """Cosine annealing from lr at step 0 down to lr_min at total_steps."""
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    return lr_min + 0.5 * (lr - lr_min) * (1.0 + math.cos(math.pi * step / total_steps))


def optimizer_step(
    params: ModelParams,
    grads: dict[str, np.ndarray],
    state: OptimizerState,
    lr_t: float,
    cfg: TrainConfig,
) -> None:
    """One decoupled-weight-decay adaptive step over ``params.flat``.

    Weight decay multiplies parameters directly (never enters the moment
    estimates); moments are bias-corrected. Raises NonFiniteGradient before
    touching any state so a failed batch can be skipped cleanly.
    """
    params.check_views()
    names = params.names()
    for name in names:
        if name not in grads:
            raise ShapeMismatch(f"missing gradient for {name}")
        if grads[name].shape != params[name].data.shape:
            raise ShapeMismatch(
                f"{name}: grad shape {grads[name].shape} != param shape "
                f"{params[name].data.shape}"
            )
        if not np.all(np.isfinite(grads[name])):
            raise NonFiniteGradient(f"non-finite gradient in {name}")
    g = np.concatenate([grads[name].ravel() for name in names])
    if cfg.grad_clip_norm is not None:
        norm = math.sqrt(sum(float(np.sum(grads[name] * grads[name])) for name in names))
        if norm > cfg.grad_clip_norm:
            g *= cfg.grad_clip_norm / norm
    state.step += 1
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    bias1 = 1.0 - b1**state.step
    bias2 = 1.0 - b2**state.step
    # in-place passes in the operation order of p -= lr (m / bias1) / (sqrt(v / bias2) + eps)
    if cfg.weight_decay:
        params.flat *= 1.0 - lr_t * cfg.weight_decay
    scratch = (1.0 - b1) * g
    state.m *= b1
    state.m += scratch
    state.v *= b2
    g *= g
    g *= 1.0 - b2
    state.v += g
    step = np.divide(state.m, bias1, out=g)
    step *= lr_t
    denom = np.sqrt(np.divide(state.v, bias2, out=scratch), out=scratch)
    denom += cfg.adam_eps
    step /= denom
    params.flat -= step


def collect_gradients(params: ModelParams) -> dict[str, np.ndarray]:
    """Gradients after backward; a missing gradient is a wiring bug."""
    grads = {}
    for name in params.names():
        grad = params[name].grad
        if grad is None:
            raise NonFiniteGradient(f"no gradient reached {name}")
        grads[name] = grad
    return grads


def predict_scores(
    matrices: np.ndarray, params: ModelParams, config: ModelConfig
) -> np.ndarray:
    """Positive-class probability from the graph head, over one eval pass
    (``interpret.eval_pass``); the softmax runs in float64."""
    logits = eval_pass(matrices, params, config, lambda out: out.z_g.data)
    empty = np.empty((0, config.class_count))  # zero subjects give zero scores
    return softmax(np.concatenate([empty, *logits], dtype=np.float64), axis=-1)[:, 1]


def _val_metric(kind: str, scores: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """(primary, secondary) validation ranking key.

    The secondary metric only breaks ties: once the primary saturates
    (common on strong synthetic signal), checkpoint selection keeps
    following calibration instead of freezing at the first plateau epoch.
    """
    metrics = compute_metrics(scores, labels)
    if kind == "auc":
        return metrics.auc, metrics.acc
    return metrics.acc, metrics.auc


def _train_step(xb, yb, params, config, state, cfg, weights, lr_t, step, total_steps, rng):
    """Forward, loss, backward and optimizer step on one batch; returns the
    loss breakdown. The step's graph and gradients live only in this frame,
    so they are gone before the next batch's forward."""
    out = forward_batch(xb, params, config, mode="train", rng=rng)
    total, breakdown = total_loss_graph(out, yb, step, total_steps, weights)
    params.zero_grad()
    try:
        total.backward()
        optimizer_step(params, collect_gradients(params), state, lr_t, cfg)
    finally:
        params.zero_grad()
    return breakdown


def fit(
    train_records: list[SubjectRecord],
    val_records: list[SubjectRecord],
    params: ModelParams,
    config: ModelConfig,
    cfg: TrainConfig,
    weights: LossWeights,
    out_dir: str | Path | None = None,
) -> TrainReport:
    """Train to convergence or patience; restores the best-metric weights.

    Deterministic given ``cfg.seed`` on one thread: batch order, mixup draws,
    and dropout masks all come from seed-derived generators.
    """
    if not train_records or not val_records:
        raise EmptyDataset("fit needs nonempty train and validation sets")
    x_train, y_train = stack_records(train_records)
    x_val, y_val = stack_records(val_records)
    if x_train.shape[1] != config.n or x_val.shape[1] != config.n:
        raise ShapeMismatch("dataset node count differs from model config")

    n_train = len(train_records)
    batches_per_epoch = math.ceil(n_train / cfg.batch_size)
    total_steps = cfg.epochs * batches_per_epoch
    state = OptimizerState(params)
    one_hot = np.eye(config.class_count)[y_train]

    log_rows: list[tuple] = []
    history: list[dict] = []
    best_key = (-math.inf, -math.inf)
    best_epoch = 0
    best_state: np.ndarray | None = None
    skipped = 0
    epochs_run = 0
    stale = 0
    global_step = 0

    for epoch in range(1, cfg.epochs + 1):
        epochs_run = epoch
        order = np.random.default_rng([cfg.seed, 11, epoch]).permutation(n_train)
        epoch_losses = []
        for batch_index in range(batches_per_epoch):
            idx = order[batch_index * cfg.batch_size : (batch_index + 1) * cfg.batch_size]
            xb, yb = x_train[idx], one_hot[idx]
            if cfg.mixup_enabled and len(idx) > 1:
                mix_rng = np.random.default_rng([cfg.seed, 13, epoch, batch_index])
                lam = float(mix_rng.beta(cfg.mixup_alpha, cfg.mixup_alpha))
                pair = mix_rng.permutation(len(idx))
                xb, yb = mixup(xb, xb[pair], yb, yb[pair], lam)
            lr_t = cosine_lr(global_step, total_steps, cfg.lr, cfg.lr_min)
            drop_rng = np.random.default_rng([cfg.seed, 17, epoch, batch_index])
            try:
                breakdown = _train_step(
                    xb, yb, params, config, state, cfg, weights,
                    lr_t, global_step, total_steps, drop_rng,
                )
            except NumericalError:
                # any numerical blowup in the step (non-finite scores,
                # activations or gradients, a zero-norm token) skips the
                # batch without killing the run
                skipped += 1
                global_step += 1
                continue
            log_rows.append(
                (global_step, breakdown.cls, breakdown.aux, breakdown.oc,
                 breakdown.hc, breakdown.beta_t, breakdown.total, lr_t)
            )
            epoch_losses.append(breakdown.total)
            global_step += 1

        val_scores = predict_scores(x_val, params, config)
        key = _val_metric(cfg.early_stop_metric, val_scores, y_val)
        history.append(
            {
                "epoch": epoch,
                "train_loss": float(np.mean(epoch_losses)) if epoch_losses else None,
                "val_metric": key[0],
            }
        )
        improved = key > best_key
        if key >= best_key:
            # ties keep the latest weights: at equal validation quality the
            # longer-trained model carries the matured attention structure
            # and the ramped-in consistency refinement
            best_key = key
            best_epoch = epoch
            best_state = params.flat.copy()
        if improved:
            stale = 0
        else:
            stale += 1
            if cfg.early_stop_patience > 0 and stale >= cfg.early_stop_patience:
                break

    if best_state is not None:
        params.flat[...] = best_state

    report = TrainReport(
        best_epoch=best_epoch,
        best_val_metric=best_key[0],
        epochs_run=epochs_run,
        total_steps=total_steps,
        skipped_batches=skipped,
        history=history,
    )
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        ckpt = save_checkpoint(
            out_dir / "checkpoint.bin",
            config,
            params,
            meta={"seed": cfg.seed, "best_epoch": best_epoch, "best_val_metric": best_key[0]},
        )
        report.checkpoint_path = str(ckpt)
        write_training_log(out_dir / "training_log.csv", log_rows)
    return report


def write_training_log(path: str | Path, rows: list[tuple]) -> None:
    """Per-step loss breakdown; full-precision floats keep runs comparable."""
    with atomic_open(path) as f:
        f.write("step,cls,aux,oc,hc,beta,total,lr\n")
        for row in rows:
            step, *floats = row
            f.write(",".join([str(step)] + [repr(v) for v in floats]) + "\n")
