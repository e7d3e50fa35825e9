"""Artifacts are written whole or not at all.

A write that fails part-way leaves the final path absent, or holding its
previous bytes, and no temporary file behind; a write that succeeds produces
the same bytes as a plain ``open``.
"""

import errno
import json

import numpy as np
import pytest

import hierconn.atomic
from hierconn.atomic import atomic_open
from hierconn.checkpoint import load_checkpoint, save_checkpoint
from hierconn.cli import main
from hierconn.data import SyntheticSpec, generate_synthetic, load_matrix, save_dataset
from hierconn.interpret import SubgraphImportance, SubnetworkAssignment, export_report
from hierconn.model import ModelConfig, init_params
from hierconn.train import write_training_log


class Unprintable(float):
    def __repr__(self, *spec):
        raise RuntimeError("fails part-way through the write")

    __format__ = __repr__


class Unserializable(np.ndarray):
    def astype(self, *args, **kwargs):
        raise RuntimeError("fails part-way through the write")


def failing_writes(tmp_path):
    """(final path, callable that writes part of it and then raises)."""
    config = ModelConfig(n=6, d=4, heads=2, layers=1, k=2)
    params = init_params(config, 0)
    # the payload fails to serialize once the header is in the temporary file
    params.flat = params.flat.view(Unserializable)

    def write_checkpoint():
        save_checkpoint(tmp_path / "checkpoint.bin", config, params)

    def write_log():
        rows = [(0, 1.0, 2.0, 3.0, 4.0, 0.5, 6.0, 1e-3), (1, Unprintable(1.0))]
        write_training_log(tmp_path / "training_log.csv", rows)

    def write_report():
        assign = SubnetworkAssignment(
            soft_assignment=np.array([[0.5, 0.5], [0.5, 0.5]]),
            hard_assignment=np.array([0, 1]),
            support_masks=((0, 1), (0, 1)),
        )
        importance = SubgraphImportance(weights=[0.5, Unprintable(0.5)], ranking=(0, 1))
        export_report(assign, None, importance, tmp_path)

    return [
        (tmp_path / "checkpoint.bin", write_checkpoint),
        (tmp_path / "training_log.csv", write_log),
        (tmp_path / "importance.csv", write_report),
    ]


@pytest.mark.parametrize("case", range(3), ids=["checkpoint", "training_log", "export_report"])
@pytest.mark.parametrize("previous", [None, b"earlier run\n"], ids=["absent", "present"])
def test_failed_write_leaves_previous_state_and_no_temp_file(tmp_path, case, previous):
    path, write = failing_writes(tmp_path)[case]
    if previous is not None:
        path.write_bytes(previous)
    before = {p.name for p in tmp_path.iterdir()}
    with pytest.raises((RuntimeError, ValueError)):
        write()
    if previous is None:
        assert not path.exists()
    else:
        assert path.read_bytes() == previous
    # export_report writes its earlier tables whole before the failing one
    assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]
    assert before <= {p.name for p in tmp_path.iterdir()}


@pytest.mark.parametrize("mode, payload", [("w", "a,b\n1,±2\n"), ("wb", b"\x00\x01binary")])
def test_successful_write_matches_plain_open(tmp_path, mode, payload):
    with open(tmp_path / "plain", mode) as f:
        f.write(payload)
    with atomic_open(tmp_path / "atomic", mode) as f:
        f.write(payload)
    assert (tmp_path / "atomic").read_bytes() == (tmp_path / "plain").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["atomic", "plain"]


def test_successful_write_replaces_previous_bytes(tmp_path):
    path = tmp_path / "report.json"
    path.write_text("old")
    with atomic_open(path) as f:
        f.write("new")
    assert path.read_text() == "new"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_checkpoint_round_trips_through_atomic_write(tmp_path):
    config = ModelConfig(n=6, d=4, heads=2, layers=1, k=2)
    params = init_params(config, 1)
    save_checkpoint(tmp_path / "ckpt.bin", config, params, meta={"seed": 1})
    loaded_config, loaded, meta = load_checkpoint(tmp_path / "ckpt.bin")
    assert loaded_config == config and meta == {"seed": 1}
    for name in params.names():
        assert np.array_equal(loaded[name].data, params[name].data)
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt.bin"]


def test_cli_run_leaves_no_temp_files(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "n": 12, "subject_count": 16, "planted_subgraphs": [[2, 3, 4, 5]],
        "signal_strength": 0.6, "noise_level": 0.12, "seed": 7,
    }))
    out = tmp_path / "cv"
    assert main([
        "evaluate", "--synth", str(spec), "--out", str(out), "--epochs", "1",
        "--batch-size", "8", "--d", "8", "--heads", "2", "--layers", "1", "--k", "3",
    ]) == 0
    assert not list(out.rglob("*.tmp"))
    assert {"cv_report.json", "metrics_table.txt", "predictions.csv",
            "effective_config.json"} <= {p.name for p in out.iterdir()}


class DiskFull:
    """A file that takes one write and fails the next, as a full disk would."""

    def __init__(self, f):
        self.f, self.writes = f, 0

    def write(self, data):
        if self.writes == 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.writes += 1
        return self.f.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.f.__exit__(*exc)


@pytest.mark.parametrize("file_format, suffix", [("bin", ".mat"), ("csv", ".csv")])
def test_failed_dataset_write_leaves_no_partial_matrix(tmp_path, monkeypatch, file_format, suffix):
    """The disk fills during the second matrix: the first stays whole, the
    second and the manifest are absent, and no temporary file is left."""
    ds = generate_synthetic(SyntheticSpec(
        n=6, subject_count=4, planted_subgraphs=[(1, 2, 3)],
        signal_strength=0.5, noise_level=0.1, seed=2,
    ))
    opened = []

    def filling_open(path, mode="r"):
        opened.append(path)
        f = open(path, mode)
        return DiskFull(f) if len(opened) == 2 else f

    monkeypatch.setattr(hierconn.atomic, "open", filling_open, raising=False)
    with pytest.raises(OSError, match="No space left"):
        save_dataset(ds, tmp_path, file_format=file_format)
    first = ds.subjects[0].id + suffix
    assert sorted(p.name for p in tmp_path.iterdir()) == [first]
    assert np.array_equal(load_matrix(tmp_path / first), ds.subjects[0].matrix.values)
