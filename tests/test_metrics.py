"""Metrics against exhaustive confusion-matrix / pair-counting oracles,
and cross-validation orchestration checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierconn.data import SyntheticSpec, generate_synthetic, stratified_kfold
from hierconn.errors import SingleClassPresent
from hierconn.evaluate import (
    CvReport,
    aggregate_metrics,
    compute_metrics,
    format_metric_table,
    run_cv,
)
from hierconn.losses import LossWeights
from hierconn.metrics import MetricSet
from hierconn.model import ModelConfig
from hierconn.train import TrainConfig


def confusion_oracle(scores, labels):
    """Exhaustive threshold-at-0.5 counts."""
    tp = sum(1 for s, y in zip(scores, labels) if s >= 0.5 and y == 1)
    tn = sum(1 for s, y in zip(scores, labels) if s < 0.5 and y == 0)
    fp = sum(1 for s, y in zip(scores, labels) if s >= 0.5 and y == 0)
    fn = sum(1 for s, y in zip(scores, labels) if s < 0.5 and y == 1)
    return tp, tn, fp, fn


def auc_pair_oracle(scores, labels):
    """Mann-Whitney by explicit pair counting, ties worth 0.5."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


class TestComputeMetrics:
    def test_perfect_separation(self):
        m = compute_metrics([0.9, 0.8, 0.3, 0.2], [1, 1, 0, 0])
        assert (m.acc, m.auc, m.sen, m.spe) == (1.0, 1.0, 1.0, 1.0)

    def test_partial_ordering_example(self):
        m = compute_metrics([0.9, 0.2, 0.8, 0.3], [1, 0, 0, 1])
        assert m.auc == pytest.approx(0.75, abs=0)  # 3 of 4 pairs ordered
        assert m.acc == pytest.approx(0.5)
        assert m.sen == pytest.approx(0.5)
        assert m.spe == pytest.approx(0.5)

    def test_all_tied_scores(self):
        m = compute_metrics([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0])
        assert m.auc == pytest.approx(0.5, abs=0)

    def test_matches_oracles_on_random_sets(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            size = int(rng.integers(2, 51))
            labels = rng.integers(0, 2, size=size)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            # quantized scores force plenty of ties
            scores = np.round(rng.random(size), 2)
            m = compute_metrics(scores, labels)
            tp, tn, fp, fn = confusion_oracle(scores, labels)
            assert m.acc == (tp + tn) / size
            assert m.sen == tp / (tp + fn)
            assert m.spe == tn / (tn + fp)
            assert m.auc == pytest.approx(auc_pair_oracle(scores, labels), abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassPresent):
            compute_metrics([0.4, 0.6], [1, 1])

    @given(
        st.integers(0, 2**16),
        st.sampled_from(["exp", "cube", "affine", "logit-ish"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_auc_invariant_under_monotone_transforms(self, seed, kind):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(4, 40))
        labels = rng.integers(0, 2, size=size)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = rng.random(size)
        transforms = {
            "exp": np.exp,
            "cube": lambda s: s**3,
            "affine": lambda s: 3.0 * s + 1.0,
            "logit-ish": lambda s: s / (1.0 + np.abs(s)),
        }
        base = compute_metrics(scores, labels).auc
        mapped = transforms[kind](scores)
        mapped = (mapped - mapped.min()) / (mapped.max() - mapped.min() + 1e-12)
        assert compute_metrics(mapped, labels).auc == pytest.approx(base, abs=1e-12)

    def test_acc_decomposes_into_sen_spe(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            size = int(rng.integers(4, 60))
            labels = rng.integers(0, 2, size=size)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = rng.random(size)
            m = compute_metrics(scores, labels)
            p, n = int(labels.sum()), int((1 - labels).sum())
            assert m.acc == pytest.approx((m.sen * p + m.spe * n) / (p + n), abs=1e-12)


class TestAggregation:
    def test_identical_folds_zero_std(self):
        folds = [MetricSet(0.7, 0.8, 0.6, 0.75)] * 5
        mean, std = aggregate_metrics(folds)
        assert mean["acc"] == pytest.approx(0.7)
        assert std["acc"] == 0.0

    def test_two_fold_population_std(self):
        folds = [MetricSet(0.6, 0.6, 0.6, 0.6), MetricSet(0.7, 0.7, 0.7, 0.7)]
        mean, std = aggregate_metrics(folds)
        assert mean["auc"] == pytest.approx(0.65)
        assert std["auc"] == pytest.approx(0.05)  # population, not sample

    def test_table_format(self):
        folds = [MetricSet(0.6, 0.6, 0.6, 0.6), MetricSet(0.7, 0.7, 0.7, 0.7)]
        mean, std = aggregate_metrics(folds)
        report = CvReport(folds=folds, mean=mean, std=std, seed=0, config={})
        table = format_metric_table(report)
        assert "65.00±5.00" in table
        assert table.count("\n") == 4


def quick_cv_setup(seed=3):
    spec = SyntheticSpec(
        n=12, subject_count=30, planted_subgraphs=[(3, 4, 5, 6)],
        signal_strength=0.6, noise_level=0.12, seed=seed,
    )
    ds = generate_synthetic(spec)
    folds = stratified_kfold(ds, k=5, seed=seed)
    cfg = TrainConfig(
        epochs=2, batch_size=8, lr=1e-3, lr_min=1e-4, seed=seed, early_stop_patience=0
    )

    config = ModelConfig(n=12, d=8, heads=2, layers=1, k=3, dropout=0.1)
    return ds, folds, config, cfg


class TestRunCv:
    def test_every_subject_tested_once(self, tmp_path):
        ds, folds, config, cfg = quick_cv_setup()
        report = run_cv(ds, folds, config, cfg, LossWeights(), out_dir=tmp_path)
        tested = [p["subject_id"] for p in report.predictions]
        assert sorted(tested) == sorted(r.id for r in ds.subjects)
        assert len(report.folds) == 5
        for name in ("acc", "auc", "sen", "spe"):
            per_fold = [getattr(m, name) for m in report.folds]
            assert min(per_fold) <= report.mean[name] <= max(per_fold)

    def test_fold_outputs_written(self, tmp_path):
        ds, folds, config, cfg = quick_cv_setup()
        run_cv(ds, folds, config, cfg, LossWeights(), out_dir=tmp_path)
        for i in range(5):
            assert (tmp_path / f"fold_{i}" / "checkpoint.bin").exists()
            assert (tmp_path / f"fold_{i}" / "training_log.csv").exists()

    def test_threaded_matches_sequential(self, tmp_path):
        ds, folds, config, cfg = quick_cv_setup()
        seq = run_cv(ds, folds, config, cfg, LossWeights())
        ds2, folds2, config2, cfg2 = quick_cv_setup()
        par = run_cv(ds2, folds2, config2, cfg2, LossWeights(), threads=4)
        assert seq.to_dict() == par.to_dict()
