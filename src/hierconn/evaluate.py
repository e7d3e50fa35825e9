"""Cross-validation orchestration and report formatting.

Trains one fresh model per fold, scores each held-out test set, and
aggregates per-fold metrics as mean and population standard deviation.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from .data import DatasetManifest, FoldSplit, stack_records
from .errors import EmptyDataset
from .losses import LossWeights
from .metrics import MetricSet, aggregate_metrics, compute_metrics
from .model import ModelConfig, init_params
from .train import TrainConfig, TrainReport, fit, predict_scores

@dataclass
class CvReport:
    folds: list[MetricSet]
    mean: dict[str, float]
    std: dict[str, float]  # population std across folds
    seed: int
    config: dict
    predictions: list[dict] = field(default_factory=list)
    fold_reports: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {**asdict(self), "std_kind": "population"}


def format_metric_table(report: CvReport) -> str:
    """Percent-scale mean±std rows, one line per metric set plus the summary."""
    lines = ["fold  ACC(%)       AUC(%)       SEN(%)       SPE(%)"]
    for i, m in enumerate(report.folds):
        lines.append(
            f"{i:>4}  "
            + "  ".join(f"{100 * getattr(m, k):11.2f}" for k in ("acc", "auc", "sen", "spe"))
        )
    summary = "  ".join(
        f"{100 * report.mean[k]:.2f}±{100 * report.std[k]:.2f}"
        for k in ("acc", "auc", "sen", "spe")
    )
    lines.append(f"mean  {summary}")
    return "\n".join(lines) + "\n"


def run_cv(
    ds: DatasetManifest,
    folds: list[FoldSplit],
    config: ModelConfig,
    train_cfg: TrainConfig,
    weights: LossWeights,
    out_dir: str | Path | None = None,
    threads: int = 1,
) -> CvReport:
    """Train one fresh model of ``config`` per fold; evaluate each on its held-out test set.

    Per-fold work is independent (fresh model, seed ``train_cfg.seed`` plus the
    fold index), so fold training may run in parallel without affecting any result.
    """
    if not folds:
        raise EmptyDataset("no folds to run")
    out_dir = Path(out_dir) if out_dir is not None else None

    def run_fold(split: FoldSplit) -> tuple[MetricSet, list[dict], TrainReport]:
        fold_cfg = replace(train_cfg, seed=train_cfg.seed + split.fold_index)
        params = init_params(config, fold_cfg.seed)
        fold_dir = out_dir / f"fold_{split.fold_index}" if out_dir else None
        report = fit(
            ds.subset(split.train_ids),
            ds.subset(split.val_ids),
            params,
            config,
            fold_cfg,
            weights,
            out_dir=fold_dir,
        )
        if report.checkpoint_path is not None and out_dir is not None:
            # keep the serialized report portable and byte-reproducible
            report.checkpoint_path = str(Path(report.checkpoint_path).relative_to(out_dir))
        test_records = ds.subset(split.test_ids)
        matrices, labels = stack_records(test_records)
        scores = predict_scores(matrices, params, config)
        metrics = compute_metrics(scores, labels)
        predictions = [
            {
                "subject_id": rec.id,
                "fold": split.fold_index,
                "score": float(score),
                "label": int(rec.label),
            }
            for rec, score in zip(test_records, scores)
        ]
        return metrics, predictions, report

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_fold, folds))
    else:
        results = [run_fold(split) for split in folds]

    fold_metrics = [r[0] for r in results]
    predictions = [p for r in results for p in r[1]]
    fold_reports = [r[2].to_dict() for r in results]
    mean, std = aggregate_metrics(fold_metrics)
    return CvReport(
        folds=fold_metrics,
        mean=mean,
        std=std,
        seed=train_cfg.seed,
        config=train_cfg.to_dict(),
        predictions=predictions,
        fold_reports=fold_reports,
    )
