"""Single entry point: train / evaluate / interpret / synth / gradcheck.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
Every run writes its artifacts under one run directory (given with --out, or
created under $HIERCONN_OUT_ROOT, default ./runs) together with the
effective configuration that produced them.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import sys
import time
from dataclasses import fields
from pathlib import Path

from .atomic import atomic_open, read_json, write_json
from .checkpoint import load_checkpoint
from .config import CONFIG_KEYS, OUT_ROOT_ENV, RunConfig, parse_config
from .data import (
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    save_dataset,
    stratified_holdout,
    stratified_kfold,
)
from .errors import DataError, HierconnError, InvalidSpec, NumericalError, ParseError
from .evaluate import format_metric_table, run_cv
from .gradcheck import run_gradcheck
from .interpret import (
    aggregate_assignments,
    atlas_overlap,
    cohort_traces,
    export_report,
    rank_subgraphs,
    select_cohort,
)
from .model import FORWARD_DTYPE, init_params
from .train import fit


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; the contract wants 1
        raise _UsageError(message)


def _add_run_flags(p):
    p.add_argument("--config", help="run config file (JSON)")
    for key in CONFIG_KEYS.values():
        if key.flag is None:
            continue
        help_text = key.spec.metadata.get("help")
        if key.type is bool:  # a bare switch that flips the default
            p.add_argument(key.flag, dest=key.path, action="store_true", help=help_text)
            continue
        choices = key.spec.metadata.get("choices")
        p.add_argument(
            key.flag, dest=key.path, help=help_text, choices=choices,
            type=None if key.type is str else key.type,
            metavar=None if choices else key.flag[2:].replace("-", "_").upper(),
        )


def build_parser() -> _Parser:
    parser = _Parser(prog="hierconn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train one model with a validation holdout")
    _add_run_flags(p)

    p = sub.add_parser("evaluate", help="full stratified cross-validation")
    _add_run_flags(p)

    p = sub.add_parser("interpret", help="sub-network assignments from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out")
    p.add_argument("--include-controls", action="store_true")

    p = sub.add_parser("synth", help="write a synthetic planted-subgraph dataset")
    p.add_argument("--spec", required=True, help="SyntheticSpec JSON file")
    p.add_argument("--out")
    p.add_argument("--seed", type=int, help="override the spec's seed")
    p.add_argument("--format", choices=("bin", "csv"), default="bin")

    p = sub.add_parser("gradcheck", help="finite-difference check of every gradient")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threshold", type=float, default=1e-3)
    return parser


def _overrides_from_args(args) -> dict:
    overrides = {}
    for key in CONFIG_KEYS.values():
        value = getattr(args, key.path, None)
        if key.type is bool:
            value = (not key.default) if value else None
        if value is not None:
            overrides[key.path] = value
    return overrides


def _resolve_run_dir(explicit: str | None, command: str) -> Path:
    if explicit:
        run_dir = Path(explicit)
    else:
        root = Path(os.environ.get(OUT_ROOT_ENV, "runs"))
        stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
        run_dir = root / f"{command}-{stamp}"
    run_dir.mkdir(parents=True, exist_ok=True)
    return run_dir


def _load_synth_spec(path: str, seed_override: int | None = None) -> SyntheticSpec:
    doc = read_json(path)
    if seed_override is not None:
        doc["seed"] = seed_override
    try:
        # absent optional fields keep the dataclass defaults; unknown keys are ignored
        return SyntheticSpec(
            **{f.name: doc[f.name] for f in fields(SyntheticSpec) if f.name in doc}
        )
    except (TypeError, InvalidSpec) as exc:  # a missing field, or a value its rules refuse
        raise ParseError(f"{path}: {exc}") from exc


def _load_configured_dataset(cfg: RunConfig):
    if cfg.data and cfg.synth:
        raise _UsageError("--data and --synth are mutually exclusive")
    if cfg.data:
        return load_dataset(cfg.data)
    if cfg.synth:
        return generate_synthetic(_load_synth_spec(cfg.synth))
    raise _UsageError("one of --data or --synth is required")


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters (malloc.h)


def _keep_training_heap() -> None:
    """Keep the memory a training step frees mapped for the next step.

    By default glibc serves large arrays with fresh mmaps and hands the top of
    the heap back to the system after each step, so every forward faults its
    activations in again. Serving arrays below 32 MiB (glibc's largest mmap
    threshold) from the heap and never trimming it lets the next step reuse
    those pages. Only ``train`` and ``evaluate`` set this: a forward-only
    command would only hold more memory. A libc without ``mallopt`` is left as
    it is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no such symbol, or no dlopen(NULL)
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 2**31 - 1)  # the largest int: in effect, never trim


def _prepare_run(args, command: str):
    """Config, dataset and the built model, train and loss sections, then the
    run directory holding the effective config (a bad value leaves no
    directory) and the training heap policy."""
    cfg = parse_config(args.config, _overrides_from_args(args))
    ds = _load_configured_dataset(cfg)
    sections = cfg.model_config(ds.n), cfg.train_config(), cfg.loss_weights()
    run_dir = _resolve_run_dir(cfg.out, command)
    write_json(run_dir / "effective_config.json", cfg.to_dict())
    _keep_training_heap()
    return cfg, ds, *sections, run_dir


def _cmd_train(args) -> int:
    cfg, ds, model_config, train_cfg, loss_weights, run_dir = _prepare_run(args, "train")
    train_ids, val_ids = stratified_holdout(ds, cfg.val_fraction, cfg.seed)
    params = init_params(model_config, cfg.seed)
    report = fit(
        ds.subset(train_ids),
        ds.subset(val_ids),
        params,
        model_config,
        train_cfg,
        loss_weights,
        out_dir=run_dir,
    )
    write_json(run_dir / "train_report.json", report.to_dict())
    print(f"best epoch {report.best_epoch}: val {cfg.train['early_stop_metric']} "
          f"{report.best_val_metric:.4f} ({report.epochs_run} epochs run)")
    print(f"artifacts in {run_dir}")
    return 0


def _cmd_evaluate(args) -> int:
    cfg, ds, model_config, train_cfg, loss_weights, run_dir = _prepare_run(args, "evaluate")
    folds = stratified_kfold(ds, k=cfg.folds, val_fraction=cfg.val_fraction, seed=cfg.seed)

    report = run_cv(
        ds, folds, model_config, train_cfg, loss_weights, out_dir=run_dir, threads=cfg.threads
    )
    write_json(run_dir / "cv_report.json", report.to_dict())
    table = format_metric_table(report)
    with atomic_open(run_dir / "metrics_table.txt") as f:
        f.write(table)
    with atomic_open(run_dir / "predictions.csv") as f:
        f.write("subject_id,fold,label,score\n")
        for p in report.predictions:
            f.write(f"{p['subject_id']},{p['fold']},{p['label']},{p['score']!r}\n")
    print(table, end="")
    print(f"artifacts in {run_dir}")
    return 0


def _cmd_interpret(args) -> int:
    model_config, params, _meta = load_checkpoint(args.checkpoint, FORWARD_DTYPE)
    ds = load_dataset(args.data)
    run_dir = _resolve_run_dir(args.out, "interpret")
    cohort = select_cohort(ds, include_controls=args.include_controls)
    traces = cohort_traces(params, model_config, cohort)
    assign = aggregate_assignments(traces)
    importance = rank_subgraphs(traces)
    overlap = atlas_overlap(assign, ds.atlas_labels) if ds.atlas_labels else None
    export_report(assign, overlap, importance, run_dir, atlas_labels=ds.atlas_labels)
    summary = {
        "cohort_size": len(cohort),
        "include_controls": bool(args.include_controls),
        "ranking": list(importance.ranking),
        "importance": [float(v) for v in importance.weights],
        "support_masks": [list(mask) for mask in assign.support_masks],
    }
    write_json(run_dir / "interpret_summary.json", summary)
    top = importance.ranking[0]
    print(f"top subgraph {top} (weight {importance.weights[top]:.4f}); "
          f"support {len(assign.support_masks[top])} nodes")
    print(f"artifacts in {run_dir}")
    return 0


def _cmd_synth(args) -> int:
    spec = _load_synth_spec(args.spec, args.seed)
    ds = generate_synthetic(spec)
    run_dir = _resolve_run_dir(args.out, "synth")
    manifest = save_dataset(ds, run_dir, file_format=args.format)
    print(f"wrote {len(ds.subjects)} subjects to {manifest}")
    return 0


def _cmd_gradcheck(args) -> int:
    if args.seed < 0:
        raise DataError(f"--seed must be >= 0, got {args.seed}")
    report = run_gradcheck(seed=args.seed, threshold=args.threshold)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 3


_COMMANDS = {
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "interpret": _cmd_interpret,
    "synth": _cmd_synth,
    "gradcheck": _cmd_gradcheck,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except HierconnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
