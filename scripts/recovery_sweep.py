"""Sub-network recovery across seeds: acceptance criteria 6 and 7 on fold 0.

For each seed S, builds criterion 5's planted dataset (n=60, 200 subjects,
planted nodes 25-34, signal 0.75, noise 0.15) with data seed, split seed and
training seed all S, trains fold 0 with criterion 5's recipe, and prints fold
0's test AUC, the Jaccard of the two top-ranked subgraphs' supports with the
planted nodes, and the atlas blocks holding >= 0.2 of the best one's mass.
Criterion 6 passes at a seed when the best Jaccard is >= 0.5 over >= 2 blocks.
It also prints criterion 7's statistic, the mean pairwise cosine of the final
subgraph tokens over fold 0's whole test cohort (``mean_token_cosine``);
criterion 7 needs it below 0.5 and below that of a run without the
orthogonality penalty, which the sweep does not train.

Measurement only: the acceptance test fixes its seed at 123, and nothing here
is run by the test suite. Each seed trains one fold (about half a minute on one
core). Run from the repository root:

    PYTHONPATH=src python3 scripts/recovery_sweep.py 1 2 3 4 5 123

``--json PATH`` also writes the per-seed rows, with the numpy version and the
seconds each seed took, to PATH (the committed ``BENCH_recovery.json``).
"""

from __future__ import annotations

import argparse
import json
import platform
import tempfile
import time
from pathlib import Path

import numpy as np

from hierconn.checkpoint import load_checkpoint
from hierconn.data import SyntheticSpec, generate_synthetic, stratified_kfold
from hierconn.evaluate import run_cv
from hierconn.interpret import (
    aggregate_assignments, atlas_overlap, cohort_traces, jaccard, mean_token_cosine,
    rank_subgraphs, select_cohort,
)
from hierconn.losses import LossWeights
from hierconn.model import ModelConfig
from hierconn.train import TrainConfig

PLANTED = tuple(range(25, 35))
CONFIG = ModelConfig(n=60, d=96, heads=2, layers=2, k=8, dropout=0.0)


def recovery(seed: int) -> dict:
    ds = generate_synthetic(SyntheticSpec(
        n=60, subject_count=200, planted_subgraphs=[PLANTED],
        signal_strength=0.75, noise_level=0.15, seed=seed,
    ))
    fold = stratified_kfold(ds, k=5, val_fraction=0.25, seed=seed)[0]
    train_cfg = TrainConfig(epochs=32, batch_size=32, lr=3e-3, lr_min=1e-4, weight_decay=1e-4,
                            early_stop_patience=0, seed=seed)
    with tempfile.TemporaryDirectory() as out:
        report = run_cv(ds, [fold], CONFIG, train_cfg, LossWeights(), out_dir=out)
        _, params, _ = load_checkpoint(Path(out) / "fold_0" / "checkpoint.bin")
    traces = cohort_traces(params, CONFIG, select_cohort(ds, ids=fold.test_ids))
    assign = aggregate_assignments(traces)
    top2 = rank_subgraphs(traces).ranking[:2]
    # plain Python values, so a row is also a JSON object (keys in ranking order)
    jaccards = {int(k): float(jaccard(assign.support_masks[k], PLANTED)) for k in top2}
    best = max(jaccards, key=jaccards.get)
    blocks = int(np.sum(atlas_overlap(assign, ds.atlas_labels).proportions[best] >= 0.2))
    cohort = select_cohort(ds, ids=fold.test_ids, include_controls=True)
    cosine = mean_token_cosine(cohort_traces(params, CONFIG, cohort))
    return {"seed": seed, "auc": float(report.folds[0].auc), "jaccards": jaccards,
            "blocks": blocks, "passes": bool(jaccards[best] >= 0.5 and blocks >= 2),
            "cosine": float(cosine)}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seeds", type=int, nargs="+")
    parser.add_argument("--json", type=Path, metavar="PATH", help="also write the rows here")
    args = parser.parse_args(argv)
    print("seed  fold-0 AUC  top-2 Jaccards            blocks  criterion 6  token cosine")
    rows = []
    for seed in args.seeds:
        start = time.perf_counter()
        r = recovery(seed)
        rows.append({**r, "seconds": round(time.perf_counter() - start, 1)})
        jac = ", ".join(f"{k}: {v:.3f}" for k, v in r["jaccards"].items())
        print(f"{seed:>4}  {r['auc']:10.4f}  {{{jac}}}".ljust(42)
              + f"{r['blocks']:>6}  {'pass' if r['passes'] else 'fail':<11}  {r['cosine']:12.4f}",
              flush=True)
    if args.json is not None:
        args.json.write_text(json.dumps({
            "numpy": np.__version__, "python": platform.python_version(),
            "machine": platform.machine(), "seeds": rows,
        }, indent=2) + "\n")


if __name__ == "__main__":
    main()
