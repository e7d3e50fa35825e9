"""Frozen command-line contract: every subcommand's options, the default
configuration document and each key's value rule, and the package's public
names (``hierconn.__all__``).

Each option is recorded as (option strings, type, default, choices, action,
required); ``dest`` names are internal and left out. A change here changes
what users can type or what ``effective_config.json`` holds.
"""

import argparse
import json

import pytest

import hierconn
from hierconn.cli import build_parser
from hierconn.config import CONFIG_KEYS, parse_config

HELP = (("-h", "--help"), None, "==SUPPRESS==", None, "_HelpAction", False)

PUBLIC_API = [
    "AttentionTrace", "ConnectivityMatrix", "CvReport", "DatasetManifest", "FoldSplit",
    "ForwardOutput", "LossBreakdown", "LossWeights", "MetricSet", "ModelConfig", "ModelParams",
    "SimplexProjection", "SubjectRecord", "SyntheticSpec", "TimeSeries", "TrainConfig",
    "TrainReport", "beta_schedule", "classification_loss", "compute_metrics", "compute_pcc",
    "cosine_lr", "fit", "forward_batch", "generate_synthetic", "hierarchical_consistency_loss",
    "init_params", "load_dataset", "mixup", "optimizer_step", "orthogonality_loss", "run_cv",
    "save_dataset", "sparsemax_backward", "sparsemax_forward", "stratified_kfold",
]


def _store(flag, type_name=None, default=None, choices=None, required=False):
    return ((flag,), type_name, default, choices, "_StoreAction", required)


RUN_OPTIONS = [
    _store("--adam-beta1", "float"),
    _store("--adam-beta2", "float"),
    _store("--adam-eps", "float"),
    _store("--alpha", "float"),
    _store("--batch-size", "int"),
    _store("--beta-center-fraction", "float"),
    _store("--beta-max", "float"),
    _store("--beta-slope", "float"),
    _store("--class-count", "int"),
    _store("--config"),
    _store("--d", "int"),
    _store("--data"),
    _store("--dropout", "float"),
    _store("--early-stop-metric", choices=("auc", "acc")),
    _store("--epochs", "int"),
    _store("--ffn-mult", "int"),
    _store("--folds", "int"),
    _store("--grad-clip-norm", "float"),
    _store("--heads", "int"),
    _store("--k", "int"),
    _store("--layers", "int"),
    _store("--lr", "float"),
    _store("--lr-min", "float"),
    _store("--mixup-alpha", "float"),
    (("--no-mixup",), None, False, None, "_StoreTrueAction", False),
    _store("--out"),
    _store("--patience", "int"),
    _store("--seed", "int"),
    _store("--synth"),
    _store("--tau", "float"),
    _store("--threads", "int"),
    _store("--val-fraction", "float"),
    _store("--weight-decay", "float"),
    HELP,
]

CONTRACT = {
    "train": RUN_OPTIONS,
    "evaluate": RUN_OPTIONS,
    "interpret": [
        _store("--checkpoint", required=True),
        _store("--data", required=True),
        (("--include-controls",), None, False, None, "_StoreTrueAction", False),
        _store("--out"),
        HELP,
    ],
    "synth": [
        _store("--format", default="bin", choices=("bin", "csv")),
        _store("--out"),
        _store("--seed", "int"),
        _store("--spec", required=True),
        HELP,
    ],
    "gradcheck": [
        _store("--seed", "int", default=0),
        _store("--threshold", "float", default=0.001),
        HELP,
    ],
}

DEFAULT_DOCUMENT = {
    "model": {
        "n": None, "d": 384, "heads": 8, "layers": 2, "k": 8, "dropout": 0.1,
        "class_count": 2, "ffn_mult": 4,
    },
    "train": {
        "epochs": 200, "batch_size": 64, "lr": 0.0001, "weight_decay": 0.0001,
        "lr_min": 1e-05, "adam_beta1": 0.9, "adam_beta2": 0.999, "adam_eps": 1e-08,
        "early_stop_patience": 30, "early_stop_metric": "auc", "grad_clip_norm": None,
        "mixup_enabled": True, "mixup_alpha": 1.0,
    },
    "loss": {
        "alpha": 1.3, "beta_max": 0.2, "beta_center_fraction": 0.25, "beta_slope": 0.001,
        "tau": 2.0,
    },
    "seed": 0, "data": None, "synth": None, "out": None, "threads": 1, "folds": 5,
    "val_fraction": 0.25,
}

# each key's "check" rule text or "choices", from its field metadata
VALUE_RULES = {
    "seed": ">= 0", "threads": "> 0", "folds": ">= 2", "val_fraction": "in (0, 1)",
    "model.n": "> 0", "model.d": "> 0", "model.heads": "> 0", "model.layers": "> 0",
    "model.k": ">= 2", "model.dropout": "in [0, 1)", "model.class_count": ">= 2",
    "model.ffn_mult": "> 0",
    "train.epochs": "> 0", "train.batch_size": "> 0", "train.weight_decay": ">= 0",
    "train.lr_min": "> 0", "train.adam_beta1": "in [0, 1)", "train.adam_beta2": "in [0, 1)",
    "train.adam_eps": "> 0", "train.early_stop_metric": ("auc", "acc"),
    "train.grad_clip_norm": "> 0", "train.mixup_alpha": "> 0",
    "loss.alpha": ">= 0", "loss.beta_max": ">= 0", "loss.tau": "> 0",
}


def _options(parser: argparse.ArgumentParser) -> list[tuple]:
    return sorted(
        (
            tuple(a.option_strings),
            getattr(a.type, "__name__", a.type),
            a.default,
            None if a.choices is None else tuple(a.choices),
            type(a).__name__,
            a.required,
        )
        for a in parser._actions
        if not isinstance(a, argparse._SubParsersAction)
    )


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_public_api():
    assert sorted(hierconn.__all__) == PUBLIC_API
    assert all(hasattr(hierconn, name) for name in PUBLIC_API)


def test_subcommands():
    parser = build_parser()
    assert sorted(_subparsers(parser)) == sorted(CONTRACT)
    assert _options(parser) == [HELP]


@pytest.mark.parametrize("command", sorted(CONTRACT))
def test_subcommand_options(command):
    assert _options(_subparsers(build_parser())[command]) == CONTRACT[command]


def test_default_config_document():
    # compared as JSON text too, so an int default turning into a float shows
    doc = parse_config(None).to_dict()
    assert doc == DEFAULT_DOCUMENT
    assert json.dumps(doc, sort_keys=True) == json.dumps(DEFAULT_DOCUMENT, sort_keys=True)


def test_value_rules():
    rules = {}
    for path, key in CONFIG_KEYS.items():
        if "check" in key.spec.metadata:
            rules[path] = key.spec.metadata["check"]
        if "choices" in key.spec.metadata:
            rules[path] = key.spec.metadata["choices"]
    assert rules == VALUE_RULES
