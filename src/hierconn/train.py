"""Optimization loop: decoupled-weight-decay adaptive optimizer, cosine
learning-rate annealing, mixup batches, early stopping on a validation
metric, and bit-reproducible checkpoints."""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .atomic import atomic_open
from .autodiff import softmax_rows
from .checkpoint import save_checkpoint
from .data import SubjectRecord, mixup, stack_records
from .errors import EmptyDataset, NonFiniteGradient, NumericalError, ShapeMismatch, check_fields
from .interpret import eval_pass
from .losses import LossBreakdown, LossWeights, total_loss_graph
from .metrics import compute_metrics
from .model import FORWARD_CHUNK, ModelConfig, ModelParams, forward_batch


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


# parameters per optimizer slice: the slice of the parameters, both moments
# and two scratch arrays stay in cache while the update's passes run over them
# (at 9.36M weights on a 2-vCPU Xeon a step took 85-89 ms at 16384, 94-115 ms
# at 4096, 8192 or 65536, and 175-193 ms as whole-array passes)
STEP_SLICE = 16384


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
    touching any state so a failed batch can be skipped cleanly. The update's
    elementwise passes run over one slice of at most ``STEP_SLICE`` parameters
    of a tensor at a time, reading its gradient where it is, so no params-sized
    temporary exists; each element sees the operations of whole-array passes in
    their order, so the result has their bits.
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
    clip = None
    if cfg.grad_clip_norm is not None:
        norm = math.sqrt(sum(float(np.sum(grads[name] * grads[name])) for name in names))
        if norm > cfg.grad_clip_norm:
            clip = cfg.grad_clip_norm / norm
    state.step += 1
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    bias1 = 1.0 - b1**state.step
    bias2 = 1.0 - b2**state.step
    decay = 1.0 - lr_t * cfg.weight_decay
    buffer, scratch = (np.empty(min(params.flat.size, STEP_SLICE), params.flat.dtype)
                       for _ in range(2))
    at = 0  # where the current tensor starts in ``flat``
    for name in names:
        grad = grads[name].reshape(-1)
        for lo in range(0, grad.size, STEP_SLICE):
            g = buffer[: min(STEP_SLICE, grad.size - lo)]
            np.copyto(g, grad[lo : lo + g.size])
            part = slice(at + lo, at + lo + g.size)
            p, m, v, s = params.flat[part], state.m[part], state.v[part], scratch[: g.size]
            # in-place passes in the operation order of
            # p -= lr (m / bias1) / (sqrt(v / bias2) + eps)
            if clip is not None:
                g *= clip
            if cfg.weight_decay:
                p *= decay
            np.multiply(g, 1.0 - b1, out=s)
            m *= b1
            m += s
            v *= b2
            g *= g
            g *= 1.0 - b2
            v += g
            step = np.divide(m, bias1, out=g)
            step *= lr_t
            denom = np.sqrt(np.divide(v, bias2, out=s), out=s)
            denom += cfg.adam_eps
            step /= denom
            p -= step
        at += grad.size


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
    return softmax_rows(np.concatenate([empty, *logits], dtype=np.float64))[:, 1]


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
    """One optimizer step on a batch; returns its loss breakdown.

    The forward, loss and backward run over consecutive chunks of at most
    ``FORWARD_CHUNK`` subjects, dropout drawn from ``rng`` chunk by chunk in
    order. Each chunk's loss is scaled by its share of the batch before its
    backward; every loss term is a mean of per-subject rows, so the leaf
    gradients summed over the chunks are the batch-mean gradient, and the
    breakdown is the share-weighted sum of the chunks' (``beta_t`` is the
    step's). A batch of at most ``FORWARD_CHUNK`` subjects is one chunk of
    share 1.0, a whole-batch step bit for bit. Only one chunk's graph is alive
    at a time, and the gradients live only in this frame, so memory does not
    grow with the batch and nothing of the step outlives it."""
    terms = np.zeros(5)  # cls, aux, oc, hc, total
    params.zero_grad()
    try:
        for start in range(0, len(xb), FORWARD_CHUNK):
            xc, yc = xb[start : start + FORWARD_CHUNK], yb[start : start + FORWARD_CHUNK]
            share = len(xc) / len(xb)
            out = forward_batch(xc, params, config, mode="train", rng=rng)
            total, part = total_loss_graph(out, yc, step, total_steps, weights)
            (total * share).backward()
            del out, total  # the chunk's graph goes before the next chunk's forward
            terms += share * np.array([part.cls, part.aux, part.oc, part.hc, part.total])
        optimizer_step(params, collect_gradients(params), state, lr_t, cfg)
    finally:
        params.zero_grad()
    cls, aux, oc, hc, total = terms.tolist()
    return LossBreakdown(cls=cls, aux=aux, oc=oc, hc=hc, beta_t=part.beta_t, total=total)


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
    and dropout masks all come from seed-derived generators. Mixup pairs
    subjects within the whole batch; the forward and backward then run at most
    ``FORWARD_CHUNK`` subjects at a time and sum the chunks' share-scaled
    gradients into one optimizer step (``_train_step``). An epoch whose
    validation raises ``NumericalError`` records no metric, cannot become best
    and counts toward patience; only when no epoch validates is the first such
    error raised. A run whose every optimizer step was skipped still finishes,
    with a ``RuntimeWarning`` naming the count and the first error's class.
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
    first_skip: str | None = None  # a class name: the exception would keep the step's graph
    stale = 0
    global_step = 0
    val_error: NumericalError | None = None

    for epoch in range(1, cfg.epochs + 1):
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
            except NumericalError as exc:
                # any numerical blowup in the step (non-finite scores,
                # activations or gradients, a zero-norm token) skips the
                # batch without killing the run
                first_skip = first_skip or type(exc).__name__
                skipped += 1
                global_step += 1
                continue
            log_rows.append(
                (global_step, breakdown.cls, breakdown.aux, breakdown.oc,
                 breakdown.hc, breakdown.beta_t, breakdown.total, lr_t)
            )
            epoch_losses.append(breakdown.total)
            global_step += 1

        try:
            key = _val_metric(cfg.early_stop_metric, predict_scores(x_val, params, config), y_val)
        except NumericalError as exc:
            # the float32 eval copy can overflow where float64 training did not
            key = None
            val_error = val_error or exc
        history.append(
            {
                "epoch": epoch,
                "train_loss": float(np.mean(epoch_losses)) if epoch_losses else None,
                "val_metric": None if key is None else key[0],
            }
        )
        improved = key is not None and key > best_key
        if key is not None and key >= best_key:
            # ties keep the latest weights: at equal validation quality the
            # longer-trained model carries the matured attention structure
            # and the ramped-in consistency refinement
            best_key = key
            best_epoch = epoch
            if best_state is None:  # one snapshot buffer, refilled at each best epoch
                best_state = np.empty_like(params.flat)
            np.copyto(best_state, params.flat)
        if improved:
            stale = 0
        else:
            stale += 1
            if cfg.early_stop_patience > 0 and stale >= cfg.early_stop_patience:
                break

    if skipped == global_step:
        warnings.warn(
            f"all {skipped} optimizer steps were skipped; the first raised {first_skip}",
            RuntimeWarning, stacklevel=2,
        )
    if all(entry["val_metric"] is None for entry in history):
        raise val_error
    if best_state is not None:
        params.flat[...] = best_state

    report = TrainReport(
        best_epoch=best_epoch,
        best_val_metric=best_key[0],
        epochs_run=len(history),
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
