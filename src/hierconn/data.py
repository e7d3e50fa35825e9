"""Connectome dataset handling.

Covers the full ingest path: correlation matrices from time series, a binary
matrix file format with CSV fallback, a JSON manifest, a planted-subgraph
synthetic generator, stratified k-fold splitting, and mixup augmentation.

All types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .atomic import atomic_open, read_json, write_json
from .errors import (
    InvalidSpec,
    InvariantViolation,
    NonFiniteInput,
    ParseError,
    ShapeMismatch,
    TooFewSubjects,
    ZeroVarianceNode,
    check_fields,
)

SYMMETRY_TOL = 1e-6  # asymmetry beyond this on load is an error, below is repaired
MATRIX_MAGIC = b"CMTX"
MATRIX_DTYPE_F64_LE = 1


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimeSeries:
    """Per-subject regional activity: ``values[node, timepoint]``."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", v)
        if v.ndim != 2:
            raise ShapeMismatch(f"time series must be 2-d, got shape {v.shape}")
        if v.shape[0] < 1 or v.shape[1] < 2:
            raise ShapeMismatch(
                f"need >=1 node and >=2 timepoints, got shape {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise NonFiniteInput("time series contains NaN or infinity")


@dataclass(frozen=True)
class ConnectivityMatrix:
    """Symmetric correlation matrix, unit diagonal, entries in [-1, 1]."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", v)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ShapeMismatch(f"connectivity matrix must be square, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise NonFiniteInput("connectivity matrix contains NaN or infinity")
        asym = np.max(np.abs(v - v.T)) if v.size else 0.0
        if asym > 1e-9:
            raise InvariantViolation(f"matrix asymmetric by {asym:.3e}")
        if not np.all(np.diag(v) == 1.0):
            raise InvariantViolation("diagonal entries must be exactly 1")
        if np.min(v) < -1.0 or np.max(v) > 1.0:
            raise InvariantViolation("entries outside [-1, 1]")

    @property
    def n(self) -> int:
        return self.values.shape[0]


# the manifest's value rules by field, (predicate, what it demands): the loader and
# the records and datasets built in code apply them, so all can be saved and reloaded
_RULES = {
    "id": (lambda v: isinstance(v, str), "a string"),
    "label": (lambda v: type(v) is int and v in (0, 1), "the integer 0 or 1"),
    "path": (lambda v: isinstance(v, str), "a string"),
    "atlas_labels": (lambda v: all(isinstance(a, str) for a in v), "strings"),
}


def _broken_rule(fields: dict, names) -> str | None:
    """``"<name> must be <rule>, got <value>"`` for the first of ``names`` that breaks its rule."""
    for name in names:
        ok, expected = _RULES[name]
        if not ok(fields[name]):
            return f"{name} must be {expected}, got {fields[name]!r}"
    return None


@dataclass(frozen=True)
class SubjectRecord:
    id: str
    label: int  # 0 = control, 1 = patient
    matrix: ConnectivityMatrix

    def __post_init__(self):
        if problem := _broken_rule(vars(self), ("id", "label")):
            raise InvariantViolation(problem, subject_id=self.id)


@dataclass(frozen=True)
class DatasetManifest:
    subjects: tuple[SubjectRecord, ...]
    atlas_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "subjects", tuple(self.subjects))
        if self.atlas_labels is not None:
            object.__setattr__(self, "atlas_labels", tuple(self.atlas_labels))
            if not _RULES["atlas_labels"][0](self.atlas_labels):
                raise InvariantViolation(f"atlas labels must be strings, got {self.atlas_labels!r}")
        if not self.subjects:
            raise InvariantViolation("dataset has no subjects")
        n = self.subjects[0].matrix.n
        seen = set()
        for rec in self.subjects:
            if rec.id in seen:
                raise InvariantViolation("id appears more than once", subject_id=rec.id)
            seen.add(rec.id)
            if rec.matrix.n != n:
                raise InvariantViolation(
                    f"node count {rec.matrix.n} != dataset node count {n}", subject_id=rec.id
                )
        if {rec.label for rec in self.subjects} != {0, 1}:
            raise InvariantViolation("dataset needs at least one subject per class")
        if self.atlas_labels is not None and len(self.atlas_labels) != n:
            raise InvariantViolation(f"{len(self.atlas_labels)} atlas labels for {n} nodes")

    @property
    def n(self) -> int:
        return self.subjects[0].matrix.n

    def by_id(self, subject_id: str) -> SubjectRecord:
        for rec in self.subjects:
            if rec.id == subject_id:
                return rec
        raise KeyError(subject_id)

    def subset(self, ids) -> list[SubjectRecord]:
        wanted = set(ids)
        return [rec for rec in self.subjects if rec.id in wanted]


@dataclass(frozen=True)
class FoldSplit:
    fold_index: int
    train_ids: tuple[str, ...]
    val_ids: tuple[str, ...]
    test_ids: tuple[str, ...]

    def __post_init__(self):
        check_fields(self)
        groups = [set(self.train_ids), set(self.val_ids), set(self.test_ids)]
        total = sum(len(g) for g in groups)
        if len(groups[0] | groups[1] | groups[2]) != total:
            raise InvariantViolation(f"fold {self.fold_index}: id lists overlap")


@dataclass(frozen=True)
class SyntheticSpec:
    """Planted-subgraph generator parameters.

    Patients get ``signal_strength`` added to every edge inside each planted
    node set on top of a shared Gaussian noise background; controls are noise
    only. Atlas labels partition nodes into ``atlas_blocks`` contiguous
    blocks, and at least one planted set must span two or more blocks.
    """

    n: int = field(metadata={"check": ">= 2"})
    subject_count: int = field(metadata={"check": ">= 2"})
    planted_subgraphs: tuple[tuple[int, ...], ...]
    signal_strength: float = field(metadata={"check": ">= 0"})
    noise_level: float = field(metadata={"check": "> 0"})
    seed: int = field(metadata={"check": ">= 0"})
    atlas_blocks: int = field(default=4, metadata={"check": ">= 2"})

    def __post_init__(self):
        try:
            check_fields(self)
        except ValueError as exc:
            raise InvalidSpec(str(exc)) from exc
        planted = tuple(tuple(sorted(s)) for s in self.planted_subgraphs)
        object.__setattr__(self, "planted_subgraphs", planted)
        if not self.planted_subgraphs:
            raise InvalidSpec("need at least one planted subgraph")
        if self.atlas_blocks > self.n:
            raise InvalidSpec("atlas_blocks must be <= n")
        for s in self.planted_subgraphs:
            if len(s) < 2:
                raise InvalidSpec("planted sets need at least two nodes")
            if len(set(s)) != len(s):
                raise InvalidSpec("planted set has duplicate nodes")
            if min(s) < 0 or max(s) >= self.n:
                raise InvalidSpec("planted node index out of range")
        blocks = _atlas_block_of(self.n, self.atlas_blocks)
        if not any(len({blocks[i] for i in s}) >= 2 for s in self.planted_subgraphs):
            raise InvalidSpec("at least one planted set must span two atlas blocks")


# ---------------------------------------------------------------------------
# correlation
# ---------------------------------------------------------------------------


def compute_pcc(ts: TimeSeries) -> ConnectivityMatrix:
    """Pearson correlation between every pair of node time series."""
    v = ts.values
    centered = v - v.mean(axis=1, keepdims=True)
    norms = np.sqrt(np.sum(centered * centered, axis=1))
    zero = np.nonzero(norms == 0.0)[0]
    if zero.size:
        raise ZeroVarianceNode(int(zero[0]))
    unit = centered / norms[:, None]
    corr = unit @ unit.T
    corr = (corr + corr.T) / 2.0  # exact symmetry
    np.clip(corr, -1.0, 1.0, out=corr)
    np.fill_diagonal(corr, 1.0)
    return ConnectivityMatrix(corr)


# ---------------------------------------------------------------------------
# matrix files and manifests
# ---------------------------------------------------------------------------


def save_matrix(path: str | Path, values: np.ndarray) -> None:
    """Little-endian binary container: magic, n, dtype code, row-major payload."""
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    path = Path(path)
    if path.suffix == ".csv":
        with atomic_open(path) as f:
            np.savetxt(f, values, delimiter=",", fmt="%.17g")
        return
    with atomic_open(path, "wb") as f:
        f.write(MATRIX_MAGIC)
        f.write(struct.pack("<II", n, MATRIX_DTYPE_F64_LE))
        f.write(np.ascontiguousarray(values, dtype="<f8").tobytes())


def load_matrix(path: str | Path) -> np.ndarray:
    path = Path(path)
    if not path.exists():
        raise ParseError(f"matrix file not found: {path}")
    if path.suffix == ".csv":
        try:
            values = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}") from exc
        return values
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != MATRIX_MAGIC:
            raise ParseError(f"{path}: bad magic {magic!r}")
        header = f.read(8)
        if len(header) != 8:
            raise ParseError(f"{path}: truncated header")
        n, dtype_code = struct.unpack("<II", header)
        if dtype_code != MATRIX_DTYPE_F64_LE:
            raise ParseError(f"{path}: unsupported dtype code {dtype_code}")
        payload = f.read(8 * n * n)
        if len(payload) != 8 * n * n:
            raise ParseError(f"{path}: truncated payload")
        return np.frombuffer(payload, dtype="<f8").reshape(n, n).astype(np.float64)


def _validated_matrix(values: np.ndarray, n: int, subject_id: str) -> ConnectivityMatrix:
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ShapeMismatch(f"subject {subject_id!r}: matrix shape {values.shape}")
    if values.shape[0] != n:
        raise ShapeMismatch(
            f"subject {subject_id!r}: matrix is {values.shape[0]}x{values.shape[0]}, "
            f"dataset node count is {n}"
        )
    if not np.all(np.isfinite(values)):
        raise InvariantViolation("non-finite entries", subject_id=subject_id)
    asym = np.max(np.abs(values - values.T))
    if asym > SYMMETRY_TOL:
        raise InvariantViolation(f"asymmetry {asym:.3e} beyond tolerance", subject_id=subject_id)
    values = (values + values.T) / 2.0
    if np.min(values) < -1.0 or np.max(values) > 1.0:
        raise InvariantViolation("entries outside [-1, 1]", subject_id=subject_id)
    if np.any(values.diagonal() != 1.0):
        if np.max(np.abs(values.diagonal() - 1.0)) > SYMMETRY_TOL:
            raise InvariantViolation("diagonal not 1", subject_id=subject_id)
        values = values.copy()
        np.fill_diagonal(values, 1.0)
    return ConnectivityMatrix(values)


def load_dataset(manifest_path: str | Path) -> DatasetManifest:
    """Read a JSON manifest and every matrix it references, validating all."""
    manifest_path = Path(manifest_path)
    doc = read_json(manifest_path)
    if not isinstance(doc.get("subjects"), list):
        raise ParseError(f"{manifest_path}: expected an object with a 'subjects' list")
    n = doc.get("n")
    if type(n) is not int or n < 1:
        raise ParseError(f"{manifest_path}: missing or invalid node count 'n'")
    atlas = doc.get("atlas_labels")
    if atlas is not None and not (isinstance(atlas, list) and _RULES["atlas_labels"][0](atlas)):
        raise ParseError(f"{manifest_path}: 'atlas_labels' must be null or a list of strings")
    base = manifest_path.parent
    records = []
    for entry in doc["subjects"]:
        if not isinstance(entry, dict) or not {"id", "label", "path"} <= entry.keys():
            raise ParseError(f"{manifest_path}: malformed subject entry {entry!r}")
        sid = entry["id"]
        if problem := _broken_rule(entry, ("id", "label", "path")):
            raise ParseError(f"{manifest_path}: subject {sid!r}: {problem}")
        values = load_matrix(base / entry["path"])
        records.append(SubjectRecord(sid, entry["label"], _validated_matrix(values, n, sid)))
    return DatasetManifest(tuple(records), atlas)


def save_dataset(ds: DatasetManifest, out_dir: str | Path, file_format: str = "bin") -> Path:
    """Write matrices plus manifest.json under out_dir; returns the manifest path.

    Each matrix file is named after its subject id, so an id holding a path
    separator or a NUL is refused (``InvariantViolation``) before anything is
    written: it would place the file outside ``out_dir`` or nowhere.
    """
    for rec in ds.subjects:
        if any(c in rec.id for c in {"/", os.sep, "\0"}):
            raise InvariantViolation("id is not a plain file name", subject_id=rec.id)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    suffix = ".csv" if file_format == "csv" else ".mat"
    entries = []
    for rec in ds.subjects:
        rel = f"{rec.id}{suffix}"
        save_matrix(out_dir / rel, rec.matrix.values)
        entries.append({"id": rec.id, "label": rec.label, "path": rel})
    doc = {
        "n": ds.n,
        "atlas_labels": list(ds.atlas_labels) if ds.atlas_labels else None,
        "subjects": entries,
    }
    manifest_path = out_dir / "manifest.json"
    write_json(manifest_path, doc)
    return manifest_path


# ---------------------------------------------------------------------------
# synthetic planted-subgraph datasets
# ---------------------------------------------------------------------------


def _atlas_block_of(n: int, blocks: int) -> np.ndarray:
    """Contiguous block index per node, sizes as even as possible."""
    return np.minimum(np.arange(n) * blocks // n, blocks - 1)


def synthetic_atlas_labels(spec: SyntheticSpec) -> tuple[str, ...]:
    blocks = _atlas_block_of(spec.n, spec.atlas_blocks)
    return tuple(f"block{int(b)}" for b in blocks)


def generate_synthetic(spec: SyntheticSpec) -> DatasetManifest:
    """Deterministic planted-signal connectomes; label 1 = elevated planted edges."""
    records = []
    for s in range(spec.subject_count):
        # per-subject derived stream keeps generation order-independent
        rng = np.random.default_rng([spec.seed, s])
        label = s % 2
        noise = rng.normal(0.0, spec.noise_level, size=(spec.n, spec.n))
        m = (noise + noise.T) / 2.0
        if label == 1:
            for planted in spec.planted_subgraphs:
                idx = np.array(planted)
                block = np.ix_(idx, idx)
                m[block] += spec.signal_strength
        np.clip(m, -0.999, 0.999, out=m)
        np.fill_diagonal(m, 1.0)
        records.append(SubjectRecord(f"subj_{s:04d}", label, ConnectivityMatrix(m)))
    return DatasetManifest(subjects=tuple(records), atlas_labels=synthetic_atlas_labels(spec))


def planted_edge_means(ds: DatasetManifest, planted: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Mean within-planted-set edge value per subject, split (patients, controls)."""
    idx = np.array(sorted(planted))
    sub_i, sub_j = np.triu_indices(len(idx), k=1)
    patients, controls = [], []
    for rec in ds.subjects:
        block = rec.matrix.values[np.ix_(idx, idx)]
        mean_edge = block[sub_i, sub_j].mean()
        (patients if rec.label == 1 else controls).append(mean_edge)
    return np.array(patients), np.array(controls)


# ---------------------------------------------------------------------------
# splits and augmentation
# ---------------------------------------------------------------------------


def stack_records(records: list[SubjectRecord]) -> tuple[np.ndarray, np.ndarray]:
    """(B, n, n) matrices and (B,) integer labels of ``records``, in order."""
    matrices = np.stack([rec.matrix.values for rec in records])
    labels = np.array([rec.label for rec in records], dtype=np.int64)
    return matrices, labels


def _carve(ids, fraction: float, seed_key, label: int, split: str) -> tuple[list[str], list[str]]:
    """Shuffle class ``label``'s ``ids`` by ``seed_key``; the first ``round(fraction * len)``
    are validation. Returns (train, validation), refusing an empty one."""
    shuffled = np.random.default_rng(seed_key).permutation(ids).tolist()
    n_val = int(round(fraction * len(shuffled)))
    if not 0 < n_val < len(shuffled):
        raise TooFewSubjects(f"{split}: validation fraction {fraction} of class {label}'s "
                             f"{len(shuffled)} subjects leaves an empty train or validation share")
    return shuffled[n_val:], shuffled[:n_val]


def stratified_kfold(
    ds: DatasetManifest, k: int = 5, val_fraction: float = 0.25, seed: int = 0
) -> list[FoldSplit]:
    """Stratified k-fold with a stratified validation carve-out per fold.

    Every subject lands in exactly one test fold; within each fold,
    ``val_fraction`` of the non-test pool (per class, rounded) becomes the
    validation set.
    """
    by_class: dict[int, list[str]] = {0: [], 1: []}
    for rec in ds.subjects:
        by_class[rec.label].append(rec.id)
    for label, ids in by_class.items():
        if len(ids) < k:
            raise TooFewSubjects(
                f"class {label} has {len(ids)} subjects, need >= {k} for {k}-fold"
            )
    rng = np.random.default_rng([seed, 101])
    # test chunks per class; sizes differ by at most one, larger chunks first
    test_chunks = {
        label: [chunk.tolist() for chunk in np.array_split(rng.permutation(sorted(ids)), k)]
        for label, ids in by_class.items()
    }
    folds = []
    for f in range(k):
        train, val, test = [], [], []
        for label, chunks in test_chunks.items():
            pool = [sid for g, chunk in enumerate(chunks) if g != f for sid in chunk]
            fold_train, fold_val = _carve(
                pool, val_fraction, [seed, 211, f, label], label, f"fold {f}"
            )
            train += fold_train
            val += fold_val
            test += chunks[f]
        folds.append(FoldSplit(f, sorted(train), sorted(val), sorted(test)))
    return folds


def stratified_holdout(
    ds: DatasetManifest, val_fraction: float = 0.25, seed: int = 0
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Single stratified train/validation split over the whole dataset."""
    train, val = [], []
    for label in (0, 1):
        ids = sorted(rec.id for rec in ds.subjects if rec.label == label)
        label_train, label_val = _carve(ids, val_fraction, [seed, 307, label], label, "holdout")
        train += label_train
        val += label_val
    return tuple(sorted(train)), tuple(sorted(val))


def mixup(
    x_i: np.ndarray,
    x_j: np.ndarray,
    y_i: np.ndarray,
    y_j: np.ndarray,
    lam: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Convex combination of two feature blocks and their one-hot labels."""
    x_i, x_j = np.asarray(x_i, float), np.asarray(x_j, float)
    y_i, y_j = np.asarray(y_i, float), np.asarray(y_j, float)
    if x_i.shape != x_j.shape or y_i.shape != y_j.shape:
        raise ShapeMismatch(
            f"mixup shapes differ: {x_i.shape} vs {x_j.shape}, {y_i.shape} vs {y_j.shape}"
        )
    if not 0.0 <= lam <= 1.0:
        raise InvariantViolation(f"lambda {lam} outside [0, 1]")
    return lam * x_i + (1.0 - lam) * x_j, lam * y_i + (1.0 - lam) * y_j
