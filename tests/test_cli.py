"""Config parsing and the command-line surface, including exit codes."""

import ctypes
import json
import struct
import warnings
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

import hierconn.cli
import hierconn.train
from hierconn.checkpoint import load_checkpoint, save_checkpoint
from hierconn.cli import main
from hierconn.config import CONFIG_KEYS, parse_config
from hierconn.data import (
    DatasetManifest,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
from hierconn.model import FORWARD_DTYPE, ModelConfig, ModelParams, init_params
from hierconn.errors import InvalidSpec, InvalidValue, ParseError, ShapeMismatch, UnknownKey


SPEC = {
    "n": 12,
    "subject_count": 16,
    "planted_subgraphs": [[2, 3, 4, 5]],
    "signal_strength": 0.6,
    "noise_level": 0.12,
    "seed": 7,
}


class TestParseConfig:
    def test_empty_file_gives_reference_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("")
        cfg = parse_config(path)
        assert cfg.train["lr"] == 1e-4
        assert cfg.train["weight_decay"] == 1e-4
        assert cfg.train["lr_min"] == 1e-5
        assert cfg.train["epochs"] == 200
        assert cfg.train["batch_size"] == 64
        assert cfg.model["k"] == 8
        assert cfg.model["d"] == 384
        assert cfg.model["heads"] == 8
        assert cfg.model["layers"] == 2
        assert cfg.loss["tau"] == 2.0
        assert cfg.loss["alpha"] == 1.3
        assert cfg.loss["beta_max"] == 0.2
        assert cfg.loss["beta_center_fraction"] == 0.25
        assert cfg.loss["beta_slope"] == 0.001

    def test_no_file_same_defaults(self, tmp_path):
        empty = tmp_path / "cfg.json"
        empty.write_text("")
        assert parse_config(None).to_dict() == parse_config(empty).to_dict()
        cfg = parse_config(None)
        assert cfg.seed == 0 and cfg.threads == 1

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"train": {"lr": 1e-4}}))
        cfg = parse_config(path, {"train.lr": 1e-3})
        assert cfg.train["lr"] == 1e-3

    def test_unknown_top_level_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"karma": 5}))
        with pytest.raises(UnknownKey) as exc:
            parse_config(path)
        assert "karma" in str(exc.value)

    def test_unknown_nested_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"train": {"lr_typo": 1}}))
        with pytest.raises(UnknownKey) as exc:
            parse_config(path)
        assert "train.lr_typo" in str(exc.value)

    def test_bad_value_type(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"train": {"lr": "fast"}}))
        with pytest.raises(InvalidValue) as exc:
            parse_config(path)
        assert "train.lr" in str(exc.value)

    def test_invalid_combination_reported_with_path(self, tmp_path):
        cfg = parse_config(None, {"train.lr": 1e-6, "train.lr_min": 1e-5})
        with pytest.raises(InvalidValue):
            cfg.train_config()

    def test_unparseable_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{nope")
        with pytest.raises(ParseError):
            parse_config(path)

    # config parsing and direct construction of the section both refuse it
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("path", sorted(p for p, k in CONFIG_KEYS.items() if k.type is float))
    def test_non_finite_float_is_rejected(self, path, value, tmp_path):
        section, _, name = path.rpartition(".")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({section: {name: value}} if section else {name: value}))
        with pytest.raises(InvalidValue, match=f"'{path}': {name} must be finite"):
            parse_config(cfg)
        defaults = parse_config(None)
        built = {
            "model": defaults.model_config(6), "train": defaults.train_config(),
            "loss": defaults.loss_weights(), "": defaults,
        }[section]
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            replace(built, **{name: value})

    # building a config section or a synthetic spec in Python applies the type
    # rule that parsing applies: a bool is no number, a string only a string
    @pytest.mark.parametrize("path, value", [
        *((p, v) for p, k in CONFIG_KEYS.items() for v in (True, "x") if type(v) is not k.type),
        *((f"spec.{f.name}", v) for f in fields(SyntheticSpec) for v in (True, "x")
          if f.name != "planted_subgraphs"),
    ])
    def test_wrongly_typed_field_is_rejected(self, path, value):
        section, _, name = path.rpartition(".")
        defaults = parse_config(None)
        built = {
            "model": defaults.model_config(6), "train": defaults.train_config(),
            "loss": defaults.loss_weights(), "": defaults, "spec": SyntheticSpec(**SPEC),
        }[section]
        with pytest.raises((ValueError, InvalidSpec), match=f"^{name} must be an? [a-z]+, got"):
            replace(built, **{name: value})


@pytest.fixture()
def synth_spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC))
    return path


def fast_flags(tmp_path):
    return [
        "--epochs", "2", "--batch-size", "8", "--lr", "1e-3", "--lr-min", "1e-4",
        "--d", "8", "--heads", "2", "--layers", "1", "--k", "3",
        "--patience", "0", "--seed", "3",
    ]


class TestSynthCommand:
    def test_writes_loadable_dataset(self, synth_spec_file, tmp_path, capsys):
        out = tmp_path / "ds"
        assert main(["synth", "--spec", str(synth_spec_file), "--out", str(out)]) == 0
        ds = load_dataset(out / "manifest.json")
        assert len(ds.subjects) == 16
        assert ds.atlas_labels is not None
        assert "16 subjects" in capsys.readouterr().out

    def test_seed_override_changes_data(self, synth_spec_file, tmp_path):
        out_a, out_b, out_c = (tmp_path / x for x in "abc")
        main(["synth", "--spec", str(synth_spec_file), "--out", str(out_a)])
        main(["synth", "--spec", str(synth_spec_file), "--out", str(out_b), "--seed", "8"])
        main(["synth", "--spec", str(synth_spec_file), "--out", str(out_c), "--seed", "7"])
        a = (out_a / "subj_0000.mat").read_bytes()
        b = (out_b / "subj_0000.mat").read_bytes()
        c = (out_c / "subj_0000.mat").read_bytes()
        assert a != b
        assert a == c

    def test_missing_spec_is_data_error(self, tmp_path):
        assert main(["synth", "--spec", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 2


class TestTrainCommand:
    def test_end_to_end_artifacts(self, synth_spec_file, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(
            ["train", "--synth", str(synth_spec_file), "--out", str(out)]
            + fast_flags(tmp_path)
        )
        assert code == 0
        assert (out / "checkpoint.bin").exists()
        assert (out / "training_log.csv").exists()
        assert (out / "train_report.json").exists()
        effective = json.loads((out / "effective_config.json").read_text())
        assert effective["train"]["epochs"] == 2
        log = (out / "training_log.csv").read_text().splitlines()
        assert log[0] == "step,cls,aux,oc,hc,beta,total,lr"
        assert len(log) > 1

    def test_seeded_runs_bit_identical(self, synth_spec_file, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(
                ["train", "--synth", str(synth_spec_file), "--out", str(out)]
                + fast_flags(tmp_path)
            ) == 0
            outs.append(out)
        assert (outs[0] / "checkpoint.bin").read_bytes() == (outs[1] / "checkpoint.bin").read_bytes()
        assert (outs[0] / "training_log.csv").read_bytes() == (outs[1] / "training_log.csv").read_bytes()

    def test_float32_overflow_in_validation_is_numerical_failure(
        self, synth_spec_file, tmp_path, monkeypatch, capsys
    ):
        # a head bias the float64 master weights carry but no float32 copy can:
        # every training step is skipped, and the per-epoch validation forward
        # overflows, outside the batch-skip policy, so the run ends with exit 3
        # and writes nothing past its effective config
        def init_with_huge_head_bias(config, seed):
            params = init_params(config, seed)
            params["head.b2"].data[...] = 1e39
            return params

        monkeypatch.setattr(hierconn.cli, "init_params", init_with_huge_head_bias)
        out = tmp_path / "run"
        with pytest.warns(RuntimeWarning, match="overflow encountered in cast"):
            code = main(["train", "--synth", str(synth_spec_file), "--out", str(out),
                         *fast_flags(tmp_path)])
        assert code == 3
        assert capsys.readouterr().err == "numerical failure: non-finite values after head\n"
        assert sorted(p.name for p in out.iterdir()) == ["effective_config.json"]

    def test_requires_data_or_synth(self, tmp_path):
        assert main(["train", "--out", str(tmp_path / "x")]) == 1

    def test_missing_manifest_is_data_error(self, tmp_path):
        code = main(["train", "--data", str(tmp_path / "none.json"), "--out", str(tmp_path / "x")])
        assert code == 2

    @pytest.mark.parametrize("labels", [(0, 0), (0, 1)])
    def test_duplicate_subject_id_is_data_error(self, labels, synth_spec_file, tmp_path, capsys):
        ds_out = tmp_path / "ds"
        main(["synth", "--spec", str(synth_spec_file), "--out", str(ds_out)])
        manifest = ds_out / "manifest.json"
        doc = json.loads(manifest.read_text())
        for entry, label in zip(doc["subjects"][:2], labels):
            entry["id"], entry["label"] = "twin", label
        manifest.write_text(json.dumps(doc))
        out = tmp_path / "x"
        code = main(["train", "--data", str(manifest), "--out", str(out), *fast_flags(tmp_path)])
        assert code == 2
        assert "subject 'twin'" in capsys.readouterr().err
        assert not out.exists()


class TestEvaluateCommand:
    def test_seeded_cv_runs_bit_identical(self, synth_spec_file, tmp_path):
        # folds run on worker threads draw from their own seeded generators, so
        # three workers write what one writes, byte for byte, dropout draws included
        outs = []
        for threads in ("1", "3"):
            out = tmp_path / f"threads_{threads}"
            assert main([
                "evaluate", "--synth", str(synth_spec_file), "--out", str(out),
                *fast_flags(tmp_path), "--dropout", "0.1", "--threads", threads,
            ]) == 0
            outs.append(out)
        fold_files = [f"fold_{i}/{name}" for i in range(5)
                      for name in ("checkpoint.bin", "training_log.csv")]
        for rel in ["cv_report.json", "predictions.csv", "metrics_table.txt", *fold_files]:
            assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel

    def test_cv_artifacts(self, synth_spec_file, tmp_path):
        out = tmp_path / "cv"
        code = main(
            ["evaluate", "--synth", str(synth_spec_file), "--out", str(out)]
            + fast_flags(tmp_path)
        )
        assert code == 0
        report = json.loads((out / "cv_report.json").read_text())
        assert len(report["folds"]) == 5
        assert report["std_kind"] == "population"
        table = (out / "metrics_table.txt").read_text()
        assert "±" in table
        predictions = (out / "predictions.csv").read_text().splitlines()
        assert predictions[0] == "subject_id,fold,label,score"
        assert len(predictions) == 17  # header + every subject once
        for i in range(5):
            assert (out / f"fold_{i}" / "checkpoint.bin").exists()

    def test_class_without_validation_subjects_is_refused_before_training(self, tmp_path, capsys):
        # 5 controls over 5 folds leave 4 per fold, and 10% of 4 rounds to none
        ds = generate_synthetic(SyntheticSpec(**{**SPEC, "subject_count": 30}))
        controls = [rec for rec in ds.subjects if rec.label == 0][:5]
        patients = [rec for rec in ds.subjects if rec.label == 1]
        manifest = save_dataset(DatasetManifest(controls + patients), tmp_path / "ds")
        out = tmp_path / "x"
        code = main([
            "evaluate", "--data", str(manifest), "--out", str(out),
            *fast_flags(tmp_path), "--val-fraction", "0.1",
        ])
        assert code == 2
        assert "fold 0: validation fraction 0.1 of class 0's 4 subjects" in capsys.readouterr().err
        assert not list(out.glob("fold_*"))


class TestInterpretCommand:
    def test_malformed_checkpoint_index_is_data_error(self, synth_spec_file, tmp_path, capsys):
        ds_out = tmp_path / "ds"
        main(["synth", "--spec", str(synth_spec_file), "--out", str(ds_out)])
        config = ModelConfig(n=SPEC["n"], d=8, heads=2, layers=1, k=3)
        path = save_checkpoint(tmp_path / "c.bin", config, init_params(config, 0))
        blob = path.read_bytes()
        (header_len,) = struct.unpack("<Q", blob[8:16])
        header = json.loads(blob[16 : 16 + header_len])
        header["tensors"][0]["shape"] = "ab"
        text = json.dumps(header, sort_keys=True).encode()
        path.write_bytes(blob[:8] + struct.pack("<Q", len(text)) + text + blob[16 + header_len :])
        capsys.readouterr()
        out = tmp_path / "interp"
        code = main([
            "interpret", "--checkpoint", str(path), "--data", str(ds_out / "manifest.json"),
            "--out", str(out),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("data error: ") and err.count("\n") == 1  # one line, no traceback
        assert not out.exists()

    def test_checkpoint_with_key_biases_is_refused(self, synth_spec_file, tmp_path, capsys):
        # attention has no key bias; a checkpoint written while it still held one
        # has an extra (d,) ``.bk`` tensor per attention block, so its layout
        # differs from its config's
        ds_out = tmp_path / "ds"
        main(["synth", "--spec", str(synth_spec_file), "--out", str(ds_out)])
        config = ModelConfig(n=SPEC["n"], d=8, heads=2, layers=1, k=3)
        params = init_params(config, 0)
        shapes = {name: params[name].shape for name in params.names()}
        blocks = {name.rsplit(".", 1)[0] for name in shapes if name.endswith(".wk")}
        assert len(blocks) == 2 * config.layers + 1
        shapes.update({f"{block}.bk": (config.d,) for block in blocks})
        old = ModelParams(shapes, np.zeros(params.flat.size + len(blocks) * config.d))
        for name in params.names():
            old[name].data[...] = params[name].data
        path = save_checkpoint(tmp_path / "c.bin", config, old)
        with pytest.raises(ShapeMismatch, match="differ from its config's layout"):
            load_checkpoint(path)
        capsys.readouterr()
        out = tmp_path / "interp"
        code = main([
            "interpret", "--checkpoint", str(path), "--data", str(ds_out / "manifest.json"),
            "--out", str(out),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err == (f"data error: {path}: tensor names or shapes differ from its "
                       "config's layout\n")
        assert not out.exists()

    def test_loads_the_checkpoint_once_in_eval_dtype(self, synth_spec_file, tmp_path, monkeypatch):
        """``interpret`` holds no float64 weights: it loads them in ``FORWARD_DTYPE``
        through ``hierconn.cli.load_checkpoint``, the path first and positional
        (the benchmark tracer wraps that name and reads the path from ``args[0]``)."""
        ds_out = tmp_path / "ds"
        main(["synth", "--spec", str(synth_spec_file), "--out", str(ds_out)])
        config = ModelConfig(n=SPEC["n"], d=8, heads=2, layers=1, k=3)
        path = save_checkpoint(tmp_path / "c.bin", config, init_params(config, 0))
        calls = []
        load = hierconn.cli.load_checkpoint
        monkeypatch.setattr(
            hierconn.cli, "load_checkpoint",
            lambda *args, **kwargs: calls.append((args, kwargs)) or load(*args, **kwargs),
        )
        assert main([
            "interpret", "--checkpoint", str(path), "--data", str(ds_out / "manifest.json"),
            "--out", str(tmp_path / "interp"),
        ]) == 0
        assert calls == [((str(path), FORWARD_DTYPE), {})]

    def test_end_to_end(self, synth_spec_file, tmp_path):
        train_out = tmp_path / "run"
        main(
            ["train", "--synth", str(synth_spec_file), "--out", str(train_out)]
            + fast_flags(tmp_path)
        )
        ds_out = tmp_path / "ds"
        main(["synth", "--spec", str(synth_spec_file), "--out", str(ds_out)])
        out = tmp_path / "interp"
        code = main(
            [
                "interpret",
                "--checkpoint", str(train_out / "checkpoint.bin"),
                "--data", str(ds_out / "manifest.json"),
                "--out", str(out),
            ]
        )
        assert code == 0
        summary = json.loads((out / "interpret_summary.json").read_text())
        assert len(summary["ranking"]) == 3
        assert (out / "soft_assignment.csv").exists()
        assert (out / "atlas_overlap.csv").exists()

    def test_node_count_mismatch_is_data_error(self, synth_spec_file, tmp_path):
        train_out = tmp_path / "run"
        main(
            ["train", "--synth", str(synth_spec_file), "--out", str(train_out)]
            + fast_flags(tmp_path)
        )
        other_spec = tmp_path / "spec14.json"
        other_spec.write_text(json.dumps({
            "n": 14, "subject_count": 8, "planted_subgraphs": [[2, 3, 4, 5]],
            "signal_strength": 0.6, "noise_level": 0.12, "seed": 7,
        }))
        ds_out = tmp_path / "ds14"
        main(["synth", "--spec", str(other_spec), "--out", str(ds_out)])
        code = main(
            [
                "interpret",
                "--checkpoint", str(train_out / "checkpoint.bin"),
                "--data", str(ds_out / "manifest.json"),
                "--out", str(tmp_path / "interp"),
            ]
        )
        assert code == 2


@pytest.fixture()
def heap_calls(monkeypatch):
    """The allocator settings a command makes, through a stand-in for libc's
    ``mallopt``, and a ``"step"`` for each training step, in order."""
    calls = []
    libc = SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)) or 1)
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    train_step = hierconn.train._train_step
    monkeypatch.setattr(
        hierconn.train, "_train_step", lambda *args: calls.append("step") or train_step(*args)
    )
    return calls


class TestHeapPolicy:
    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_training_commands_keep_the_heap_before_the_first_step(
        self, command, heap_calls, synth_spec_file, tmp_path
    ):
        assert main([
            command, "--synth", str(synth_spec_file), "--out", str(tmp_path / "run"),
            *fast_flags(tmp_path), "--folds", "2",
        ]) == 0
        mmap_threshold, trim_threshold, first_step = heap_calls[:3]
        assert mmap_threshold == (-3, 32 << 20)  # glibc's M_MMAP_THRESHOLD at its maximum
        assert trim_threshold[0] == -1 and trim_threshold[1] >= 1 << 30  # M_TRIM_THRESHOLD
        assert first_step == "step"

    def test_synth_and_interpret_set_nothing(self, heap_calls, synth_spec_file, tmp_path):
        ds_out = tmp_path / "ds"
        assert main(["synth", "--spec", str(synth_spec_file), "--out", str(ds_out)]) == 0
        config = ModelConfig(n=SPEC["n"], d=8, heads=2, layers=1, k=3)
        path = save_checkpoint(tmp_path / "c.bin", config, init_params(config, 0))
        assert main([
            "interpret", "--checkpoint", str(path), "--data", str(ds_out / "manifest.json"),
            "--out", str(tmp_path / "interp"),
        ]) == 0
        assert heap_calls == []

    def test_libc_without_mallopt_is_a_silent_noop(
        self, monkeypatch, synth_spec_file, tmp_path, capsys
    ):
        monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([
                "train", "--synth", str(synth_spec_file), "--out", str(tmp_path / "run"),
                *fast_flags(tmp_path),
            ]) == 0
        assert capsys.readouterr().err == ""


class TestGradcheckCommand:
    def test_passes_and_lists_every_tensor(self, capsys, heap_calls):
        assert main(["gradcheck", "--seed", "0"]) == 0
        assert heap_calls == []  # the heap policy is for training commands only
        out = capsys.readouterr().out
        from hierconn.gradcheck import TINY_CONFIG
        from hierconn.model import init_params

        for name in init_params(TINY_CONFIG, 0).names():
            assert out.count(f"  {name}\n") == 1
        assert "PASS" in out

    @pytest.mark.parametrize("threshold", ["inf", "nan", "0", "-1"])
    def test_threshold_must_be_finite_and_positive(self, threshold, capsys, monkeypatch):
        # refused before any work: an infinite threshold would pass any gradient
        monkeypatch.setattr(hierconn.cli, "run_gradcheck", lambda **_: pytest.fail("swept"))
        assert main(["gradcheck", "--threshold", threshold]) == 2
        err = capsys.readouterr().err
        assert err == f"data error: --threshold must be finite and > 0, got {float(threshold)}\n"


class TestExitCodes:
    def test_unknown_command_is_usage_error(self):
        assert main(["transmogrify"]) == 1

    def test_unknown_flag_is_usage_error(self):
        assert main(["gradcheck", "--frobnicate"]) == 1

    def test_unknown_config_key_is_data_error(self, synth_spec_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"karma": 5}))
        code = main([
            "train", "--synth", str(synth_spec_file),
            "--config", str(cfg), "--out", str(tmp_path / "x"),
        ])
        assert code == 2

    # a value its key's type or choices do not admit (keys whose default is
    # None, or whose annotation does not admit None), or two keys that break
    # a cross-key rule, which names the section
    @pytest.mark.parametrize("doc, path", [
        ({"train": {"grad_clip_norm": "x"}}, "train.grad_clip_norm"),
        ({"seed": None}, "seed"),
        ({"train": {"epochs": 1.5}}, "train.epochs"),
        ({"train": {"batch_size": 2.5}}, "train.batch_size"),
        ({"folds": 2.7}, "folds"),
        ({"train": {"early_stop_metric": "f1"}}, "train.early_stop_metric"),
        ({"model": {"d": 8, "heads": 3}}, "model"),
        ({"train": {"lr": 1e-4, "lr_min": 1e-4}}, "train"),
        (b"\xff\xfe{}", None),  # not UTF-8: the message names the file
    ])
    def test_wrongly_typed_config_value_is_data_error(
        self, doc, path, synth_spec_file, tmp_path, capsys
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
        out = tmp_path / "x"
        code = main([
            "train", "--synth", str(synth_spec_file), "--config", str(cfg), "--out", str(out),
        ])
        assert code == 2
        assert (f"config key '{path}'" if path else str(cfg)) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("folds", ["0", "1"])
    def test_fewer_than_two_folds_is_data_error(self, folds, synth_spec_file, tmp_path, capsys):
        out = tmp_path / "x"
        code = main([
            "evaluate", "--synth", str(synth_spec_file), "--out", str(out),
            *fast_flags(tmp_path), "--folds", folds,
        ])
        assert code == 2
        assert "config key 'folds'" in capsys.readouterr().err
        assert not out.exists()  # rejected before any run directory is made

    @pytest.mark.parametrize("fraction", ["-0.25", "0", "1", "1.5", "nan"])
    def test_val_fraction_outside_open_unit_interval_is_data_error(
        self, fraction, synth_spec_file, tmp_path, capsys
    ):
        out = tmp_path / "x"
        code = main([
            "train", "--synth", str(synth_spec_file), "--out", str(out),
            *fast_flags(tmp_path), "--val-fraction", fraction,
        ])
        assert code == 2
        assert "config key 'val_fraction'" in capsys.readouterr().err
        assert not out.exists()

    # every range-checked key of the train, model and loss sections, the seed,
    # the thread count, and non-finite values of the float keys without a
    # range, by field name
    @pytest.mark.parametrize("key, value", [
        ("mixup_alpha", "0"), ("mixup_alpha", "-1"), ("mixup_alpha", "nan"),
        ("adam_beta1", "1"), ("adam_beta2", "1"), ("adam_beta2", "-0.1"),
        ("epochs", "0"), ("batch_size", "0"), ("lr_min", "0"), ("weight_decay", "-1"),
        ("adam_eps", "0"), ("adam_eps", "-1"), ("grad_clip_norm", "0"), ("grad_clip_norm", "-1"),
        ("d", "0"), ("d", "-4"), ("heads", "0"), ("heads", "-2"), ("layers", "0"), ("k", "1"),
        ("dropout", "1"), ("dropout", "-0.1"), ("class_count", "1"), ("ffn_mult", "0"),
        ("alpha", "-1"), ("beta_max", "-1"), ("tau", "0"),
        ("alpha", "nan"), ("alpha", "inf"), ("beta_max", "inf"), ("beta_max", "nan"),
        ("beta_slope", "nan"), ("beta_slope", "inf"),
        ("beta_center_fraction", "nan"), ("beta_center_fraction", "inf"),
        ("lr", "inf"), ("lr", "nan"), ("seed", "-1"), ("threads", "0"), ("threads", "-4"),
    ])
    def test_out_of_range_optimizer_or_mixup_setting_is_data_error(
        self, key, value, synth_spec_file, tmp_path, capsys
    ):
        (path,) = [p for p in CONFIG_KEYS if p.rpartition(".")[2] == key]
        out = tmp_path / "x"
        code = main([
            "train", "--synth", str(synth_spec_file), "--out", str(out),
            *fast_flags(tmp_path), CONFIG_KEYS[path].flag, value,
        ])
        assert code == 2
        assert f"config key '{path}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("doc", [
        {"folds": 1}, {"val_fraction": 0}, {"threads": 0},
        {"train": {"mixup_alpha": 0}}, {"train": {"mixup_alpha": -1}},
        {"train": {"adam_beta1": 1}}, {"train": {"adam_beta1": -0.1}},
        {"train": {"adam_beta2": 1}}, {"train": {"adam_beta2": -0.1}},
        {"model": {"n": 0}}, {"model": {"heads": 0}}, {"model": {"d": -4}},
        {"model": {"ffn_mult": 0}}, {"model": {"class_count": 1}}, {"model": {"k": 1}},
        {"model": {"layers": 0}}, {"model": {"dropout": 1}},
        {"train": {"epochs": 0}}, {"train": {"batch_size": 0}}, {"train": {"lr_min": 0}},
        {"train": {"weight_decay": -1}}, {"train": {"adam_eps": 0}},
        {"train": {"grad_clip_norm": 0}}, {"train": {"early_stop_metric": "f1"}},
        {"loss": {"alpha": -1}}, {"loss": {"beta_max": -1}}, {"loss": {"tau": 0}},
    ])
    def test_out_of_range_values_rejected_at_parse(self, doc, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        with pytest.raises(InvalidValue):
            parse_config(cfg)

    def test_integral_float_for_int_key_is_stored_as_int(self, synth_spec_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"heads": 2.0}}))
        flags = fast_flags(tmp_path)
        i = flags.index("--heads")
        del flags[i : i + 2]
        out = tmp_path / "x"
        code = main([
            "train", "--synth", str(synth_spec_file),
            "--config", str(cfg), "--out", str(out), *flags,
        ])
        assert code == 0
        assert '"heads": 2,' in (out / "effective_config.json").read_text()
        # a synthetic spec's int field takes one too
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**SPEC, "subject_count": 8.0}))
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "ds")]) == 0
        assert len(load_dataset(tmp_path / "ds" / "manifest.json").subjects) == 8

    # a document that is no spec, or a value of the wrong type, out of range
    # or not finite
    @pytest.mark.parametrize("doc", [
        {**SPEC, "planted_subgraphs": [["a", 2]]},
        [12, 16],
        b"\xff\xfe{}",  # not UTF-8
        b"",  # reads as {}, so every required field is missing
        {**SPEC, "seed": 1.5},
        {**SPEC, "seed": -1},
        {**SPEC, "signal_strength": float("nan")},
        {**SPEC, "noise_level": float("inf")},
        {**SPEC, "atlas_blocks": 2.5},
        {**SPEC, "planted_subgraphs": [[2, 3, 4.7]]},
        {**SPEC, "planted_subgraphs": [[2, 3, True, 5]]},
    ])
    def test_malformed_synth_spec_is_data_error(self, doc, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
        code = main(["synth", "--spec", str(spec), "--out", str(tmp_path / "ds")])
        assert code == 2
        err = capsys.readouterr().err
        assert str(spec) in err and len(err.splitlines()) == 1
        assert not (tmp_path / "ds").exists()

    # the commands whose --seed is not a config key
    @pytest.mark.parametrize("command", ["synth", "gradcheck"])
    def test_negative_seed_flag_is_data_error(self, command, synth_spec_file, tmp_path, capsys):
        out = tmp_path / "ds"
        spec = ["--spec", str(synth_spec_file), "--out", str(out)] if command == "synth" else []
        assert main([command, *spec, "--seed", "-2"]) == 2
        err = capsys.readouterr().err
        assert "seed must be >= 0, got -2" in err and len(err.splitlines()) == 1
        assert not out.exists()
