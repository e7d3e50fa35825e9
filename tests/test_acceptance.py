"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `criterion N: PASS/FAIL` line (visible with
``pytest -s tests/test_acceptance.py``) and then asserts. Criteria 5-7 and
10 share one 5-fold cross-validation run on the planted-subgraph dataset;
it trains on first use and takes a few minutes of CPU.
"""

import itertools
import json
import time
from dataclasses import dataclass

import numpy as np
import pytest

from hierconn.autodiff import Tensor
from hierconn.checkpoint import load_checkpoint
from hierconn.cli import main
from hierconn.data import SyntheticSpec, generate_synthetic, stratified_kfold
from hierconn.evaluate import compute_metrics, run_cv
from hierconn.gradcheck import run_gradcheck
from hierconn.interpret import (
    aggregate_assignments,
    atlas_overlap,
    cohort_traces,
    jaccard,
    mean_token_cosine,
    rank_subgraphs,
    select_cohort,
)
from hierconn.losses import (
    LossWeights,
    beta_schedule,
    hierarchical_consistency_loss,
    orthogonality_loss,
)
from hierconn.model import ModelConfig, init_params
from hierconn.sparsemax import sparsemax_forward
from hierconn.train import TrainConfig, cosine_lr, fit, predict_scores


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# shared synthetic cross-validation run (criteria 5, 6, 7, 10)
# ---------------------------------------------------------------------------

SEED = 123
PLANTED = tuple(range(25, 35))  # 10 nodes spanning synthetic atlas blocks 1 and 2
NOISE = 0.15
SIGNAL = 0.75  # 5x noise


@dataclass
class SyntheticRun:
    ds: object
    folds: list
    config: ModelConfig
    train_cfg: TrainConfig
    report: object
    fold0_params: object
    cv_seconds: float
    out_dir: object


@pytest.fixture(scope="module")
def synthetic_run(tmp_path_factory) -> SyntheticRun:
    out_dir = tmp_path_factory.mktemp("acceptance_cv")
    spec = SyntheticSpec(
        n=60, subject_count=200, planted_subgraphs=[PLANTED],
        signal_strength=SIGNAL, noise_level=NOISE, seed=SEED,
    )
    ds = generate_synthetic(spec)
    folds = stratified_kfold(ds, k=5, val_fraction=0.25, seed=SEED)
    config = ModelConfig(n=60, d=96, heads=2, layers=2, k=8, dropout=0.0)
    train_cfg = TrainConfig(
        epochs=32, batch_size=32, lr=3e-3, lr_min=1e-4, weight_decay=1e-4,
        early_stop_patience=0, seed=SEED,
    )

    start = time.time()
    report = run_cv(ds, folds, config, train_cfg, LossWeights(), out_dir=out_dir)
    elapsed = time.time() - start
    _, fold0_params, _ = load_checkpoint(out_dir / "fold_0" / "checkpoint.bin")
    return SyntheticRun(
        ds=ds, folds=folds, config=config, train_cfg=train_cfg, report=report,
        fold0_params=fold0_params, cv_seconds=elapsed, out_dir=out_dir,
    )


# ---------------------------------------------------------------------------
# criterion 1: sparsemax against the brute-force QP oracle + properties
# ---------------------------------------------------------------------------


def qp_oracle(z: list) -> list:
    """Active-set enumeration over every support subset, plain floats."""
    m = len(z)
    indices = range(m)
    best, best_dist = None, float("inf")
    for r in range(1, m + 1):
        for support in itertools.combinations(indices, r):
            tau = (sum(z[i] for i in support) - 1.0) / r
            if any(z[i] - tau < -1e-12 for i in support):
                continue
            chosen = set(support)
            if any(z[j] - tau > 1e-12 for j in indices if j not in chosen):
                continue
            # ||p - z||^2 with p_i = z_i - tau on the support, 0 elsewhere
            dist = r * tau * tau + sum(z[j] ** 2 for j in indices if j not in chosen)
            if dist < best_dist:
                best_dist = dist
                best = [max(z[i] - tau, 0.0) if i in chosen else 0.0 for i in indices]
    return best


def test_criterion_1_sparsemax_correctness():
    start = time.time()
    rng = np.random.default_rng(SEED)
    worst_oracle = 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 11))
        z = rng.normal(scale=rng.uniform(0.1, 5.0), size=m)
        p = sparsemax_forward(z).probabilities
        q = qp_oracle(list(z))
        worst_oracle = max(worst_oracle, float(np.max(np.abs(p - np.array(q)))))

    simplex_ok = shift_ok = order_ok = True
    for _ in range(10_000):
        m = int(rng.integers(1, 257))
        z = rng.normal(scale=3.0, size=m)
        proj = sparsemax_forward(z)
        p = proj.probabilities
        simplex_ok &= bool(p.min() >= 0.0 and abs(p.sum() - 1.0) < 1e-9)
        shifted = sparsemax_forward(z + 2.0).probabilities
        shift_ok &= bool(np.max(np.abs(p - shifted)) < 1e-9)
        order = np.argsort(z, kind="stable")
        order_ok &= bool(np.all(np.diff(p[order]) >= 0))
    elapsed = time.time() - start
    ok = worst_oracle <= 1e-9 and simplex_ok and shift_ok and order_ok and elapsed < 10
    _report(
        1, ok,
        f"QP-oracle max diff {worst_oracle:.2e} (<=1e-9); simplex/shift/order "
        f"on 10k vectors: {simplex_ok}/{shift_ok}/{order_ok}; {elapsed:.1f}s (<10s)",
    )


# ---------------------------------------------------------------------------
# criterion 2: gradient fidelity
# ---------------------------------------------------------------------------


def test_criterion_2_gradient_fidelity():
    start = time.time()
    report = run_gradcheck(seed=0, threshold=1e-3)
    elapsed = time.time() - start
    ok = report.passed and elapsed < 120
    _report(
        2, ok,
        f"max rel err {report.worst_error:.2e} in {report.worst_tensor} "
        f"(gate 1e-3, target 1e-4); {len(report.max_rel_error)} tensors; "
        f"{elapsed:.1f}s (<120s)",
    )


# ---------------------------------------------------------------------------
# criterion 3: loss oracles
# ---------------------------------------------------------------------------


def test_criterion_3_loss_oracles():
    k = 8
    identical = orthogonality_loss(Tensor(np.tile(np.arange(1.0, 5.0), (k, 1)))).item()
    orthonormal = orthogonality_loss(Tensor(np.eye(k))).item()
    ln_k = np.log(k)
    closed = np.log(1 + (k - 1) / np.e)
    oc_ok = abs(identical - ln_k) <= 1e-9 and abs(orthonormal - closed) <= 1e-9

    rng = np.random.default_rng(SEED)
    z = rng.normal(size=2) * 4
    hc_zero = hierarchical_consistency_loss(Tensor(z), z.copy(), 2.0).item()
    z_n = rng.normal(size=(10_000, 2)) * 3
    z_g = rng.normal(size=(10_000, 2)) * 3
    per_pair = np.array([
        hierarchical_consistency_loss(Tensor(z_n[i]), z_g[i], 2.0).item()
        for i in range(0, 10_000, 100)
    ])
    batch_min = min(
        hierarchical_consistency_loss(Tensor(z_n[i : i + 1]), z_g[i : i + 1], 2.0).item()
        for i in range(0, 10_000, 500)
    )
    hc_ok = hc_zero == 0.0 and per_pair.min() >= 0.0 and batch_min >= 0.0

    w = LossWeights()
    beta_center = beta_schedule(1000, 4000, w)
    beta_ok = beta_center == w.beta_max / 2

    ok = oc_ok and hc_ok and beta_ok
    _report(
        3, ok,
        f"oc(identical)={identical:.9f} (ln 8={ln_k:.9f}), "
        f"oc(orthonormal)={orthonormal:.9f} (closed {closed:.9f}); "
        f"hc(z,z)={hc_zero}; hc>=0 sampled min {per_pair.min():.3e}; "
        f"beta(center)={beta_center} (= beta_max/2 exactly)",
    )


# ---------------------------------------------------------------------------
# criterion 4: schedule endpoints
# ---------------------------------------------------------------------------


def test_criterion_4_schedule_endpoints():
    total = 1234
    start_exact = cosine_lr(0, total, 1e-4, 1e-5) == 1e-4
    end_exact = cosine_lr(total, total, 1e-4, 1e-5) == 1e-5
    values = [cosine_lr(t, total, 1e-4, 1e-5) for t in range(total + 1)]
    monotone = all(b <= a for a, b in zip(values, values[1:]))
    ok = start_exact and end_exact and monotone
    _report(
        4, ok,
        f"lr(0)=1e-4 exactly: {start_exact}; lr(T)=1e-5 exactly: {end_exact}; "
        f"monotone nonincreasing: {monotone}",
    )


# ---------------------------------------------------------------------------
# criterion 5: planted-subgraph learnability via full 5-fold CV
# ---------------------------------------------------------------------------


def test_criterion_5_synthetic_learnability(synthetic_run):
    mean_auc = synthetic_run.report.mean["auc"]
    mean_acc = synthetic_run.report.mean["acc"]
    ok = mean_auc >= 0.90 and mean_acc >= 0.80 and synthetic_run.cv_seconds < 900
    _report(
        5, ok,
        f"5-fold mean AUC {mean_auc:.4f} (>=0.90), mean ACC {mean_acc:.4f} "
        f"(>=0.80); {synthetic_run.cv_seconds:.0f}s (<900s)",
    )


# ---------------------------------------------------------------------------
# criterion 6: sub-network recovery from the criterion-5 run
# ---------------------------------------------------------------------------


def test_criterion_6_subnetwork_recovery(synthetic_run):
    ds = synthetic_run.ds
    cohort = select_cohort(ds, ids=synthetic_run.folds[0].test_ids)
    params = synthetic_run.fold0_params
    config = synthetic_run.config
    traces = cohort_traces(params, config, cohort)
    assign = aggregate_assignments(traces)
    importance = rank_subgraphs(traces)
    overlap = atlas_overlap(assign, ds.atlas_labels)

    jaccards = {
        k: jaccard(assign.support_masks[k], PLANTED) for k in importance.ranking[:2]
    }
    best_k = max(jaccards, key=jaccards.get)
    best_jac = jaccards[best_k]
    row = overlap.proportions[best_k]
    blocks_covered = int(np.sum(row >= 0.2))
    ok = best_jac >= 0.5 and blocks_covered >= 2
    _report(
        6, ok,
        f"top-2 subgraph jaccards {{{', '.join(f'{k}: {v:.3f}' for k, v in jaccards.items())}}} "
        f"(best >=0.5); atlas row of subgraph {best_k} has {blocks_covered} blocks "
        f"with >=0.2 mass ({np.round(row[row >= 0.2], 3).tolist()})",
    )


# ---------------------------------------------------------------------------
# criterion 7: orthogonality ablation (directional)
# ---------------------------------------------------------------------------


def test_criterion_7_orthogonality_effect(synthetic_run):
    ds = synthetic_run.ds
    fold0 = synthetic_run.folds[0]
    cohort = select_cohort(ds, ids=fold0.test_ids, include_controls=True)
    cos_with = mean_token_cosine(
        cohort_traces(synthetic_run.fold0_params, synthetic_run.config, cohort)
    )

    params_no_oc = init_params(synthetic_run.config, SEED)
    fit(
        ds.subset(fold0.train_ids), ds.subset(fold0.val_ids),
        params_no_oc, synthetic_run.config, synthetic_run.train_cfg,
        LossWeights(alpha=0.0),
    )
    cos_without = mean_token_cosine(cohort_traces(params_no_oc, synthetic_run.config, cohort))
    ok = cos_with < 0.5 and cos_without > cos_with
    _report(
        7, ok,
        f"mean pairwise token cosine: alpha=1.3 -> {cos_with:.4f} (<0.5), "
        f"alpha=0 -> {cos_without:.4f} (strictly higher)",
    )


# ---------------------------------------------------------------------------
# criterion 8: metric oracles
# ---------------------------------------------------------------------------


def _confusion_oracle(scores, labels):
    tp = sum(1 for s, y in zip(scores, labels) if s >= 0.5 and y == 1)
    tn = sum(1 for s, y in zip(scores, labels) if s < 0.5 and y == 0)
    fp = sum(1 for s, y in zip(scores, labels) if s >= 0.5 and y == 0)
    fn = sum(1 for s, y in zip(scores, labels) if s < 0.5 and y == 1)
    return tp, tn, fp, fn


def _auc_pair_oracle(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = sum(
        1.0 if p > n else (0.5 if p == n else 0.0) for p in pos for n in neg
    )
    return total / (len(pos) * len(neg))


def test_criterion_8_metric_oracles():
    rng = np.random.default_rng(SEED)
    exact_counts = True
    worst_auc = 0.0
    for _ in range(1000):
        size = int(rng.integers(2, 51))
        labels = rng.integers(0, 2, size=size)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = np.round(rng.random(size), 2)  # quantized: plenty of ties
        m = compute_metrics(scores, labels)
        tp, tn, fp, fn = _confusion_oracle(scores, labels)
        exact_counts &= (
            m.acc == (tp + tn) / size
            and m.sen == tp / (tp + fn)
            and m.spe == tn / (tn + fp)
        )
        worst_auc = max(worst_auc, abs(m.auc - _auc_pair_oracle(scores, labels)))
    ok = exact_counts and worst_auc <= 1e-12
    _report(
        8, ok,
        f"ACC/SEN/SPE exact on 1000 random sets: {exact_counts}; "
        f"AUC worst |diff| vs pair-counting {worst_auc:.2e} (<=1e-12)",
    )


# ---------------------------------------------------------------------------
# criterion 9: determinism and checkpoint round-trip
# ---------------------------------------------------------------------------


def test_criterion_9_determinism(tmp_path):
    spec_doc = {
        "n": 12, "subject_count": 16, "planted_subgraphs": [[2, 3, 4, 5]],
        "signal_strength": 0.6, "noise_level": 0.12, "seed": 5,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_doc))
    flags = [
        "--epochs", "3", "--batch-size", "8", "--lr", "1e-3", "--lr-min", "1e-4",
        "--d", "8", "--heads", "2", "--layers", "1", "--k", "3",
        "--patience", "0", "--seed", "11",
    ]
    artifacts = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        code = main(["train", "--synth", str(spec_path), "--out", str(out)] + flags)
        assert code == 0
        artifacts.append(
            (
                (out / "checkpoint.bin").read_bytes(),
                (out / "training_log.csv").read_bytes(),
            )
        )
    bits_ok = artifacts[0] == artifacts[1]

    config, params, _ = load_checkpoint(tmp_path / "run_a" / "checkpoint.bin")
    ds = generate_synthetic(SyntheticSpec(
        n=12, subject_count=16, planted_subgraphs=[(2, 3, 4, 5)],
        signal_strength=0.6, noise_level=0.12, seed=5,
    ))
    matrices = np.stack([r.matrix.values for r in ds.subjects])
    first = predict_scores(matrices, params, config)
    config2, params2, _ = load_checkpoint(tmp_path / "run_a" / "checkpoint.bin")
    second = predict_scores(matrices, params2, config2)
    roundtrip_ok = np.array_equal(first, second)
    ok = bits_ok and roundtrip_ok
    _report(
        9, ok,
        f"two seeded runs bit-identical (checkpoint+log): {bits_ok}; "
        f"checkpoint round-trip logits bit-exact: {roundtrip_ok}",
    )


# ---------------------------------------------------------------------------
# criterion 10: cross-validation integrity
# ---------------------------------------------------------------------------


def test_criterion_10_cv_integrity(synthetic_run):
    ds = synthetic_run.ds
    folds = synthetic_run.folds
    all_test = [sid for f in folds for sid in f.test_ids]
    partition_ok = sorted(all_test) == sorted(r.id for r in ds.subjects)

    labels = {r.id: r.label for r in ds.subjects}
    n_total = len(ds.subjects)
    global_pos = sum(labels.values()) / n_total
    proportions_ok = True
    val_ok = True
    for f in folds:
        test_pos = sum(labels[s] for s in f.test_ids)
        expected = len(f.test_ids) * global_pos
        proportions_ok &= abs(test_pos - expected) <= 1.0
        pool = len(f.train_ids) + len(f.val_ids)
        val_ok &= len(f.val_ids) == round(0.25 * pool)
    ok = partition_ok and proportions_ok and val_ok
    _report(
        10, ok,
        f"test folds partition all {n_total} subjects: {partition_ok}; "
        f"per-fold class counts within 1 of global: {proportions_ok}; "
        f"val = 25% of train+val pools: {val_ok}",
    )
