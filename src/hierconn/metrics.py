"""Pure metric math, free of training dependencies.

ACC/SEN/SPE threshold the positive-class probability at 0.5; AUC is the
Mann-Whitney statistic with ties counted 0.5, computed via average ranks
(arithmetically identical to exhaustive pair counting).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import EmptyDataset, ShapeMismatch, SingleClassPresent, check_fields


@dataclass(frozen=True)
class MetricSet:
    acc: float = field(metadata={"check": "in [0, 1]"})
    auc: float = field(metadata={"check": "in [0, 1]"})
    sen: float = field(metadata={"check": "in [0, 1]"})
    spe: float = field(metadata={"check": "in [0, 1]"})

    def __post_init__(self):
        check_fields(self)

    def to_dict(self) -> dict:
        return asdict(self)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks starting at 1; tied values share the average of their ranks."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    # a tie group ending at 1-based rank c spans c - (count - 1) .. c
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def compute_metrics(scores, labels) -> MetricSet:
    """Threshold metrics at 0.5 plus rank-based AUC for one score set."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ShapeMismatch(f"scores {scores.shape} vs labels {labels.shape}")
    if scores.size == 0:
        raise EmptyDataset("no scores to evaluate")
    positives = int((labels == 1).sum())
    negatives = int((labels == 0).sum())
    if positives == 0 or negatives == 0:
        raise SingleClassPresent(
            f"need both classes, got {positives} positives / {negatives} negatives"
        )
    predicted = scores >= 0.5
    tp = int(np.sum(predicted & (labels == 1)))
    tn = int(np.sum(~predicted & (labels == 0)))
    acc = (tp + tn) / scores.size
    sen = tp / positives
    spe = tn / negatives
    ranks = _average_ranks(scores)
    auc = (ranks[labels == 1].sum() - positives * (positives + 1) / 2.0) / (
        positives * negatives
    )
    return MetricSet(acc=acc, auc=auc, sen=sen, spe=spe)


def aggregate_metrics(folds: list[MetricSet]) -> tuple[dict, dict]:
    """Mean and population standard deviation per metric across folds."""
    mean, std = {}, {}
    for name in ("acc", "auc", "sen", "spe"):
        values = np.array([getattr(m, name) for m in folds])
        mean[name] = float(values.mean())
        std[name] = float(values.std())  # population (ddof=0)
    return mean, std
