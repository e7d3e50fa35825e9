"""The benchmark's workload processes: set-up, and one timed run.

``run.py`` starts this script in fresh processes, one at a time, with BLAS
pinned to one thread:

    workloads.py setup --workload W --seed N --size full|smoke --dir D --run-id R [--trace]
    workloads.py run   --workload W --seed N --size full|smoke --dir D --run-id R \
                       --seconds S --result FILE [--trace]

hierconn is driven only through its public functions and its CLI entry point
``hierconn.cli.main``; it sees nothing but the spec-generated dataset files,
manifests and checkpoints written here. ``run`` repeats the workload's
operation until ``--seconds`` have passed (at least ``min_repeats`` times),
then checks the outputs and writes one JSON result file.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

from tracer import Tracer, missing_reasons, repeat_metrics

# Each workload at two sizes: "full" is what the benchmark measures, "smoke" is
# a seconds-long run that only proves every metric is emitted.
# ``flags`` are hierconn CLI flags; the cv-acceptance flags are the README
# quick-start recipe (2 epochs instead of 32, to fit two repeats in one run),
# the train-reference flags the reference recipe at batch 32 (at batch 64 one
# step peaks near 5.6 GB RSS, too close to the total of an 8 GB machine).
SPECS = {
    "cv-acceptance": {
        "min_repeats": 2,  # fold-0 checkpoint bytes are compared across repeats
        "full": {
            "data": {"n": 60, "subjects": 200, "planted": list(range(25, 35))},
            "flags": {"d": 96, "heads": 2, "dropout": 0, "epochs": 2, "batch_size": 32,
                      "lr": 3e-3, "lr_min": 1e-4, "patience": 0, "folds": 5},
            "check_subjects": 8,
        },
        "smoke": {
            "data": {"n": 12, "subjects": 40, "planted": [1, 2, 3, 4]},
            "flags": {"d": 8, "heads": 2, "dropout": 0, "epochs": 1, "batch_size": 8,
                      "lr": 3e-3, "lr_min": 1e-4, "patience": 0, "folds": 5},
            "check_subjects": 4,
        },
    },
    "train-reference": {
        "min_repeats": 1,
        "full": {
            "data": {"n": 116, "subjects": 128, "planted": list(range(20, 40))},
            "flags": {"d": 384, "heads": 8, "layers": 2, "k": 8, "dropout": 0.1,
                      "epochs": 1, "batch_size": 32, "lr": 1e-4, "lr_min": 1e-5},
            "check_subjects": 8,
        },
        "smoke": {
            "data": {"n": 12, "subjects": 32, "planted": [1, 2, 3, 4]},
            "flags": {"d": 16, "heads": 2, "layers": 2, "k": 4, "dropout": 0.1,
                      "epochs": 1, "batch_size": 8, "lr": 1e-4, "lr_min": 1e-5},
            "check_subjects": 4,
        },
    },
    "interpret-reference": {
        "min_repeats": 1,
        "full": {
            "data": {"n": 116, "subjects": 256, "planted": list(range(20, 40))},
            "model": {"d": 384, "heads": 8, "layers": 2, "k": 8, "dropout": 0.1},
            "check_subjects": 8,
        },
        "smoke": {
            "data": {"n": 12, "subjects": 32, "planted": [1, 2, 3, 4]},
            "model": {"d": 16, "heads": 2, "layers": 2, "k": 4, "dropout": 0.1},
            "check_subjects": 4,
        },
    },
}
SIGNAL, NOISE = 0.75, 0.15  # the README quick-start planted dataset
VAL_FRACTION = 0.25
CV_AUC_GATE = 0.90
INTERPRET_CSVS = ("soft_assignment.csv", "hard_assignment.csv", "atlas_overlap.csv",
                  "importance.csv", "subgraph_nodes.csv")
SIMPLEX_TOL = 1e-9


def cli_flags(flags: dict) -> list[str]:
    out = []
    for name, value in flags.items():
        out += ["--" + name.replace("_", "-"), str(value)]
    return out


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _blas_threads() -> int | None:
    """OpenBLAS's own thread count, asked of the library numpy loaded."""
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _proc_field(path: str, key: str) -> str | None:
    try:
        with open(path) as f:
            for line in f:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    mem = _proc_field("/proc/meminfo", "MemTotal")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name") or platform.processor(),
        "mem_total_mb": round(int(mem.split()[0]) / 1024) if mem else None,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def setup(workload: str, seed: int, shape: dict, out: Path, tracer: Tracer) -> dict:
    """Generate and write the inputs; build the fixture checkpoint."""
    from hierconn.checkpoint import save_checkpoint
    from hierconn.data import (
        SyntheticSpec,
        generate_synthetic,
        save_dataset,
        stratified_holdout,
        stratified_kfold,
    )
    from hierconn.model import ModelConfig, init_params

    data = shape["data"]
    spec = SyntheticSpec(
        n=data["n"], subject_count=data["subjects"], planted_subgraphs=[data["planted"]],
        signal_strength=SIGNAL, noise_level=NOISE, seed=seed,
    )
    with tracer.span("data.generate") as span:
        ds = generate_synthetic(spec)
    generate_s = span["end"] - span["start"]
    inputs = out / "inputs"
    with tracer.span("data.save_dataset"):
        save_dataset(ds, inputs / "data")
    info = {"generate_s": generate_s}
    if workload == "cv-acceptance":
        # the same split the CLI makes, to count the subjects each step consumes
        folds = stratified_kfold(ds, k=shape["flags"]["folds"], val_fraction=VAL_FRACTION,
                                 seed=seed)
        info["n_train"] = [len(f.train_ids) for f in folds]
    elif workload == "train-reference":
        train_ids, _ = stratified_holdout(ds, VAL_FRACTION, seed)
        info["n_train"] = [len(train_ids)]
    else:
        config = ModelConfig(n=data["n"], **shape["model"])
        with tracer.span("checkpoint.build"):
            save_checkpoint(inputs / "fixture.bin", config, init_params(config, seed),
                            meta={"seed": seed})
    return info


# ---------------------------------------------------------------------------
# one repeat of each workload
# ---------------------------------------------------------------------------


def _trained_subjects(log_path: Path, n_train: int, batch: int) -> tuple[int, list[str]]:
    """Subjects consumed by the optimizer steps logged in training_log.csv, and
    the names of any non-finite loss columns."""
    per_epoch = math.ceil(n_train / batch)
    last = n_train - (per_epoch - 1) * batch
    subjects, bad = 0, []
    with open(log_path) as f:
        for row in csv.DictReader(f):
            subjects += batch if int(row["step"]) % per_epoch < per_epoch - 1 else last
            bad += [k for k, v in row.items() if k != "step" and not math.isfinite(float(v))]
    return subjects, bad


def _timed_main(argv: list[str], tracer: Tracer) -> tuple[int, float]:
    from hierconn.cli import main

    with tracer.span("cli." + argv[0]):
        start = time.perf_counter()
        rc = main(argv)
        elapsed = time.perf_counter() - start
    return rc, elapsed


def repeat_cv(state: dict, index: int, tracer: Tracer) -> dict:
    shape, info = state["shape"], state["info"]
    flags = shape["flags"]
    out = state["work"] / f"cv_{index}"
    rc, elapsed = _timed_main(
        ["evaluate", "--data", str(state["manifest"]), "--out", str(out),
         *cli_flags(flags), "--seed", str(state["seed"]), "--threads", "1"], tracer)
    rec = {"rc": rc, "command_s": elapsed, "out": str(out), "commands": 1}
    if rc != 0:
        return rec
    report = json.loads((out / "cv_report.json").read_text())
    subjects, bad_losses, batches, skipped = 0, [], 0, 0
    for fold, (fold_report, n_train) in enumerate(zip(report["fold_reports"], info["n_train"])):
        used, bad = _trained_subjects(out / f"fold_{fold}" / "training_log.csv", n_train,
                                      flags["batch_size"])
        subjects += used
        bad_losses += bad
        batches += fold_report["epochs_run"] * math.ceil(n_train / flags["batch_size"])
        skipped += fold_report["skipped_batches"]
    scores = [float(p["score"]) for p in report["predictions"]]
    rec.update(
        subjects=subjects, subjects_per_s=subjects / elapsed, batches=batches, skipped=skipped,
        scored=len(scores), nonfinite_scores=sum(not math.isfinite(s) for s in scores),
        bad_losses=bad_losses, cv_auc=report["mean"]["auc"],
        checkpoint=str(out / "fold_0" / "checkpoint.bin"),
        checkpoint_sha=sha256(out / "fold_0" / "checkpoint.bin"),
    )
    return rec


def repeat_train(state: dict, index: int, tracer: Tracer) -> dict:
    flags = state["shape"]["flags"]
    out = state["work"] / f"train_{index}"
    rc, elapsed = _timed_main(
        ["train", "--data", str(state["manifest"]), "--out", str(out),
         *cli_flags(flags), "--seed", str(state["seed"]), "--threads", "1"], tracer)
    rec = {"rc": rc, "command_s": elapsed, "out": str(out), "commands": 1}
    if rc != 0:
        return rec
    report = json.loads((out / "train_report.json").read_text())
    n_train = state["info"]["n_train"][0]
    subjects, bad_losses = _trained_subjects(out / "training_log.csv", n_train,
                                             flags["batch_size"])
    rec.update(
        subjects=subjects, subjects_per_s=subjects / elapsed,
        batches=report["epochs_run"] * math.ceil(n_train / flags["batch_size"]),
        skipped=report["skipped_batches"], bad_losses=bad_losses,
        checkpoint=str(out / "checkpoint.bin"), checkpoint_sha=sha256(out / "checkpoint.bin"),
    )
    return rec


def repeat_interpret(state: dict, index: int, tracer: Tracer) -> dict:
    import numpy as np

    predict_scores = state["predict_scores"]
    out = state["work"] / f"interpret_{index}"
    with tracer.span("bench.predict_scores"):
        start = time.perf_counter()
        scores = predict_scores(state["matrices"], state["params"], state["config"])
        predict_s = time.perf_counter() - start
    rc, elapsed = _timed_main(
        ["interpret", "--checkpoint", str(state["fixture"]), "--data", str(state["manifest"]),
         "--out", str(out)], tracer)
    return {
        "rc": rc, "command_s": elapsed, "out": str(out), "commands": 1,
        "scored": int(scores.size), "subjects_per_s": scores.size / predict_s,
        "nonfinite_scores": int(np.count_nonzero(~np.isfinite(scores))),
    }


def prepare_interpret(state: dict) -> None:
    """Inputs of the predict_scores call, loaded before anything is timed."""
    import numpy as np

    from hierconn.checkpoint import load_checkpoint
    from hierconn.data import load_dataset
    from hierconn.train import predict_scores

    config, params, _ = load_checkpoint(state["fixture"])
    ds = load_dataset(state["manifest"])
    state.update(
        config=config, params=params, predict_scores=predict_scores,
        matrices=np.stack([rec.matrix.values for rec in ds.subjects]),
    )


REPEATS = {
    "cv-acceptance": repeat_cv,
    "train-reference": repeat_train,
    "interpret-reference": repeat_interpret,
}


# ---------------------------------------------------------------------------
# correctness checks
# ---------------------------------------------------------------------------


def check_pool_attention(checkpoint: Path, manifest: Path, count: int) -> list[tuple]:
    """Every pool-attention row of every block and head is on the simplex; every
    row of the final block (the one interpret reads) has exact zeros; logits
    are finite."""
    import numpy as np

    from hierconn.autodiff import no_grad
    from hierconn.checkpoint import load_checkpoint
    from hierconn.data import load_dataset
    from hierconn.model import forward_batch

    config, params, _ = load_checkpoint(checkpoint)
    subjects = load_dataset(manifest).subjects[:count]
    with no_grad():
        out = forward_batch(np.stack([r.matrix.values for r in subjects]), params, config,
                            mode="eval", trace_heads=True)
    blocks = out.trace.node_to_subgraph_heads
    worst = max(float(np.max(np.abs(a.sum(axis=-1) - 1.0))) for a in blocks)
    negative = sum(int(np.count_nonzero(a < 0.0)) for a in blocks)
    final_rows = blocks[-1].reshape(-1, blocks[-1].shape[-1])
    dense_rows = int(np.count_nonzero(~(final_rows == 0.0).any(axis=-1)))
    zero_frac = [round(float(np.mean(a == 0.0)), 4) for a in blocks]
    finite = bool(np.all(np.isfinite(out.z_g.data)) and np.all(np.isfinite(out.z_n.data)))
    return [
        ("pool attention rows on the simplex", worst <= SIMPLEX_TOL and negative == 0,
         f"max |row sum - 1| {worst:.2e}, {negative} negative weights"),
        ("final-block pool attention rows have exact zeros", dense_rows == 0,
         f"{dense_rows} of {len(final_rows)} rows without zeros; zero share per block "
         f"{zero_frac}"),
        ("check-forward logits finite", finite, f"{len(subjects)} subjects"),
    ]


def _common_checks(repeats: list[dict]) -> list[tuple]:
    rcs = [r["rc"] for r in repeats]
    checks = [("commands exit 0", all(rc == 0 for rc in rcs), f"exit codes {rcs}")]
    if any("bad_losses" in r for r in repeats):
        bad = sorted({c for r in repeats for c in r.get("bad_losses", [])})
        checks.append(("losses finite", not bad, f"non-finite columns {bad}"))
    if any("nonfinite_scores" in r for r in repeats):
        bad = sum(r.get("nonfinite_scores", 0) for r in repeats)
        checks.append(("scores finite", bad == 0, f"{bad} non-finite scores"))
    return checks


def checks_for(workload: str, state: dict, repeats: list[dict]) -> list[tuple]:
    checks = _common_checks(repeats)
    if any(r["rc"] != 0 for r in repeats):
        return checks
    count = state["shape"]["check_subjects"]
    last = repeats[-1]
    if workload == "cv-acceptance":
        auc = last["cv_auc"]
        checks.append(("cv_auc meets the acceptance gate", auc >= CV_AUC_GATE,
                       f"mean test AUC {auc:.4f} (gate {CV_AUC_GATE})"))
        shas = {r["checkpoint_sha"] for r in repeats}
        checks.append(("fold-0 checkpoint.bin byte-identical across repeats", len(shas) == 1,
                       f"{len(repeats)} repeats, {len(shas)} distinct sha256"))
        checks += check_pool_attention(Path(last["checkpoint"]), state["manifest"], count)
    elif workload == "train-reference":
        if len(repeats) > 1:
            shas = {r["checkpoint_sha"] for r in repeats}
            checks.append(("checkpoint.bin byte-identical across repeats", len(shas) == 1,
                           f"{len(repeats)} repeats, {len(shas)} distinct sha256"))
        checks += check_pool_attention(Path(last["checkpoint"]), state["manifest"], count)
    else:
        out = Path(last["out"])
        absent = [name for name in INTERPRET_CSVS if not (out / name).is_file()]
        checks.append(("interpret emits all five CSVs", not absent, f"missing {absent}"))
        checks += check_pool_attention(state["fixture"], state["manifest"], count)
    return checks


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def cmd_setup(args, shape: dict, tracer: Tracer) -> None:
    out = Path(args.dir)
    info = setup(args.workload, args.seed, shape, out, tracer)
    (out / "setup.json").write_text(json.dumps(info))
    if args.trace:
        tracer.dump(out / "setup_spans.jsonl", {"process": "setup"})


def cmd_run(args, shape: dict, tracer: Tracer) -> None:
    setup_dir = Path(args.dir)
    inputs = setup_dir / "inputs"
    work = setup_dir / ("run_traced" if args.trace else "run")
    work.mkdir(parents=True, exist_ok=True)
    state = {
        "seed": args.seed, "shape": shape, "work": work,
        "info": json.loads((setup_dir / "setup.json").read_text()),
        "manifest": inputs / "data" / "manifest.json", "fixture": inputs / "fixture.bin",
    }
    if args.workload == "interpret-reference":
        prepare_interpret(state)
    repeat = REPEATS[args.workload]
    min_repeats = SPECS[args.workload]["min_repeats"]
    repeats: list[dict] = []
    per_layer: list[dict] = []
    if args.trace:
        tracer.install()
    start = time.perf_counter()
    try:
        while True:
            tracer.repeat = len(repeats)
            with tracer.span("workload.repeat"):
                rec = repeat(state, len(repeats), tracer)
            repeats.append(rec)
            if args.trace:
                per_layer.append(repeat_metrics(
                    [s for s in tracer.spans if s["repeat"] == len(repeats) - 1]))
            if len(repeats) > 1:  # keep the newest outputs only
                shutil.rmtree(repeats[-2]["out"], ignore_errors=True)
            if rec["rc"] != 0:
                break
            if time.perf_counter() - start >= args.seconds and len(repeats) >= min_repeats:
                break
    finally:
        tracer.restore()
    tracer.repeat = None
    checks = checks_for(args.workload, state, repeats)
    result = {
        "env": environment(args.seed),
        "repeats": repeats,
        "checks": [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in checks],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.trace:
        result["per_layer"] = per_layer
        result["missing"] = missing_reasons(tracer, args.workload)
        tracer.dump(setup_dir / "run_spans.jsonl", {"process": "run", "env": result["env"]})
    Path(args.result).write_text(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--dir", required=True)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--result")
    args = parser.parse_args(argv)
    shape = SPECS[args.workload][args.size]
    tracer = Tracer(args.run_id)
    if args.command == "setup":
        cmd_setup(args, shape, tracer)
    else:
        cmd_run(args, shape, tracer)
    return 0


if __name__ == "__main__":
    sys.exit(main())
