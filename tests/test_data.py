"""Dataset ingest: PCC, file formats, synthetic generation, folds, mixup."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierconn.data import (
    ConnectivityMatrix,
    DatasetManifest,
    SubjectRecord,
    SyntheticSpec,
    TimeSeries,
    compute_pcc,
    generate_synthetic,
    load_dataset,
    load_matrix,
    mixup,
    planted_edge_means,
    save_dataset,
    save_matrix,
    stratified_holdout,
    stratified_kfold,
)
from hierconn.errors import (
    InvalidSpec,
    InvariantViolation,
    NonFiniteInput,
    ParseError,
    ShapeMismatch,
    TooFewSubjects,
    ZeroVarianceNode,
)


def pcc_oracle(x, y):
    """Two-pass covariance Pearson correlation."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    dx, dy = x - x.mean(), y - y.mean()
    return float((dx * dy).sum() / math.sqrt((dx * dx).sum() * (dy * dy).sum()))


class TestComputePcc:
    def test_perfect_linear(self):
        ts = TimeSeries(np.array([[1, 2, 3], [2, 4, 6]], float))
        assert compute_pcc(ts).values[0, 1] == pytest.approx(1.0)

    def test_perfect_anticorrelation(self):
        ts = TimeSeries(np.array([[1, 2, 3], [3, 2, 1]], float))
        assert compute_pcc(ts).values[0, 1] == pytest.approx(-1.0)

    def test_matches_direct_covariance_oracle(self):
        x, y = [1, 2, 4, 3], [2, 1, 3, 4]
        ts = TimeSeries(np.array([x, y], float))
        got = compute_pcc(ts).values[0, 1]
        assert got == pytest.approx(pcc_oracle(x, y), abs=1e-12)
        assert got == pytest.approx(0.6, abs=1e-12)  # frozen from the oracle

    def test_random_matrix_matches_oracle_pairwise(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=(6, 40))
        m = compute_pcc(TimeSeries(v)).values
        for i in range(6):
            for j in range(6):
                assert m[i, j] == pytest.approx(pcc_oracle(v[i], v[j]), abs=1e-12)

    def test_result_satisfies_matrix_invariants(self):
        rng = np.random.default_rng(1)
        m = compute_pcc(TimeSeries(rng.normal(size=(10, 30))))
        v = m.values
        assert np.array_equal(v, v.T)
        assert np.all(np.diag(v) == 1.0)
        assert v.min() >= -1.0 and v.max() <= 1.0

    def test_zero_variance_row_rejected(self):
        ts = TimeSeries(np.array([[1, 2, 3], [5, 5, 5]], float))
        with pytest.raises(ZeroVarianceNode) as exc:
            compute_pcc(ts)
        assert exc.value.row_index == 1

    def test_nonfinite_input_rejected_at_construction(self):
        with pytest.raises(NonFiniteInput):
            TimeSeries(np.array([[1, np.nan, 3]], float))

    @given(
        st.floats(0.1, 100.0),
        st.floats(-50, 50),
        st.integers(0, 2**16),
    )
    @settings(max_examples=100, deadline=None)
    def test_affine_invariance_positive_scale(self, a, b, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=20)
        y = rng.normal(size=20)
        base = compute_pcc(TimeSeries(np.stack([x, y]))).values[0, 1]
        scaled = compute_pcc(TimeSeries(np.stack([a * x + b, y]))).values[0, 1]
        assert scaled == pytest.approx(base, abs=1e-9)


class TestMatrixFiles:
    def test_binary_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        v = rng.uniform(-1, 1, size=(7, 7))
        path = tmp_path / "m.mat"
        save_matrix(path, v)
        assert np.array_equal(load_matrix(path), v)

    def test_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        v = rng.uniform(-1, 1, size=(5, 5))
        path = tmp_path / "m.csv"
        save_matrix(path, v)
        np.testing.assert_allclose(load_matrix(path), v, atol=0)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.mat"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ParseError):
            load_matrix(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "m.mat"
        save_matrix(path, np.eye(4))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ParseError):
            load_matrix(path)


def write_manifest(tmp_path, matrices, labels, n, atlas=None):
    entries = []
    for i, (m, lab) in enumerate(zip(matrices, labels)):
        rel = f"s{i}.mat"
        save_matrix(tmp_path / rel, m)
        entries.append({"id": f"s{i}", "label": lab, "path": rel})
    doc = {"n": n, "atlas_labels": atlas, "subjects": entries}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    return path


def valid_matrix(rng, n=4):
    g = rng.normal(0, 0.1, size=(n, n))
    m = (g + g.T) / 2
    np.clip(m, -0.99, 0.99, out=m)
    np.fill_diagonal(m, 1.0)
    return m


class TestLoadDataset:
    def test_four_valid_subjects(self, tmp_path):
        rng = np.random.default_rng(4)
        mats = [valid_matrix(rng) for _ in range(4)]
        path = write_manifest(tmp_path, mats, [0, 1, 0, 1], n=4)
        ds = load_dataset(path)
        assert len(ds.subjects) == 4
        assert ds.n == 4

    def test_shape_mismatch(self, tmp_path):
        rng = np.random.default_rng(5)
        bad = rng.normal(size=(10, 12))
        path = tmp_path / "bad.csv"
        save_matrix(path, bad)
        doc = {"n": 10, "subjects": [{"id": "s0", "label": 0, "path": "bad.csv"}]}
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps(doc))
        with pytest.raises(ShapeMismatch):
            load_dataset(mpath)

    def test_out_of_range_entry(self, tmp_path):
        rng = np.random.default_rng(6)
        m = valid_matrix(rng)
        m[0, 1] = m[1, 0] = 1.5
        path = write_manifest(tmp_path, [m, valid_matrix(rng)], [0, 1], n=4)
        with pytest.raises(InvariantViolation) as exc:
            load_dataset(path)
        assert "s0" in str(exc.value)

    def test_small_asymmetry_symmetrized(self, tmp_path):
        rng = np.random.default_rng(7)
        m = valid_matrix(rng)
        m[0, 1] += 5e-7  # inside tolerance
        path = write_manifest(tmp_path, [m, valid_matrix(rng)], [1, 0], n=4)
        ds = load_dataset(path)
        v = ds.subjects[0].matrix.values
        assert np.array_equal(v, v.T)
        assert v[0, 1] == pytest.approx((m[0, 1] + m[1, 0]) / 2)

    def test_large_asymmetry_rejected(self, tmp_path):
        rng = np.random.default_rng(8)
        m = valid_matrix(rng)
        m[0, 1] += 1e-3
        path = write_manifest(tmp_path, [m, valid_matrix(rng)], [1, 0], n=4)
        with pytest.raises(InvariantViolation):
            load_dataset(path)

    def test_unparseable_manifest(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_dataset(path)

    @pytest.mark.parametrize("where, name, value", [
        ("subject", "label", "x"),
        ("subject", "label", None),
        ("subject", "label", 0.6),
        ("subject", "label", True),
        ("subject", "path", 5),
        ("subject", "id", 5),
        ("manifest", "subjects", 5),
        ("manifest", "atlas_labels", 5),
        ("manifest", "n", True),
        ("file", "bytes", b"\xff\xfe{}"),  # not UTF-8
        ("file", "bytes", b""),  # reads as {}, which has no 'subjects' list
    ])
    def test_malformed_field_is_parse_error(self, where, name, value, tmp_path):
        rng = np.random.default_rng(4)
        path = write_manifest(tmp_path, [valid_matrix(rng) for _ in range(4)], [0, 1, 0, 1], n=4)
        doc = json.loads(path.read_text())
        if where == "file":
            path.write_bytes(value)
        else:
            (doc["subjects"][1] if where == "subject" else doc)[name] = value
            path.write_text(json.dumps(doc))
        with pytest.raises(ParseError) as exc:
            load_dataset(path)
        assert str(path) in str(exc.value)
        if where == "subject":
            assert f"subject {doc['subjects'][1]['id']!r}" in str(exc.value)

    def test_duplicate_subject_id_rejected(self):
        rng = np.random.default_rng(4)
        records = [SubjectRecord(sid, label, ConnectivityMatrix(valid_matrix(rng)))
                   for sid, label in [("a", 0), ("b", 1), ("a", 1)]]
        with pytest.raises(InvariantViolation, match="subject 'a'"):
            DatasetManifest(subjects=records)

    def test_python_built_dataset_roundtrips(self, tmp_path):
        rng = np.random.default_rng(4)
        ds = DatasetManifest(subjects=[
            SubjectRecord(sid, label, ConnectivityMatrix(valid_matrix(rng)))
            for sid, label in [("a", 0), ("b", 1)]
        ], atlas_labels=["l0", "l1", "l2", "l3"])
        loaded = load_dataset(save_dataset(ds, tmp_path / "out"))
        assert [(r.id, r.label) for r in loaded.subjects] == [("a", 0), ("b", 1)]
        assert all(type(r.label) is int for r in loaded.subjects)
        assert loaded.atlas_labels == ds.atlas_labels
        for a, b in zip(loaded.subjects, ds.subjects):
            assert np.array_equal(a.matrix.values, b.matrix.values)

    @pytest.mark.parametrize("label", [True, False, 0.0, 1.0, np.int64(1), 2, -1, "1"])
    def test_record_label_must_be_int_zero_or_one(self, label):
        matrix = ConnectivityMatrix(valid_matrix(np.random.default_rng(4)))
        with pytest.raises(InvariantViolation, match="subject 'a': label must be the integer"):
            SubjectRecord("a", label, matrix)

    # what the manifest loader refuses, the types refuse, so save_dataset never
    # writes a manifest that load_dataset cannot read
    @pytest.mark.parametrize("sid", [5, None, b"a", ("a",)])
    def test_record_id_must_be_a_string(self, sid):
        matrix = ConnectivityMatrix(valid_matrix(np.random.default_rng(4)))
        with pytest.raises(InvariantViolation, match="id must be a string"):
            SubjectRecord(sid, 0, matrix)

    @pytest.mark.parametrize("atlas", [(1, 2, 3, 4), ("l0", None, "l2", "l3")])
    def test_atlas_labels_must_be_strings(self, atlas):
        subjects = two_class_dataset((1, 1), n=4).subjects
        with pytest.raises(InvariantViolation, match="atlas labels must be strings"):
            DatasetManifest(subjects=subjects, atlas_labels=atlas)

    def test_save_load_roundtrip(self, tmp_path):
        spec = SyntheticSpec(
            n=12, subject_count=6, planted_subgraphs=[(2, 3, 4, 5)],
            signal_strength=0.4, noise_level=0.1, seed=9,
        )
        ds = generate_synthetic(spec)
        path = save_dataset(ds, tmp_path / "out")
        loaded = load_dataset(path)
        assert [r.id for r in loaded.subjects] == [r.id for r in ds.subjects]
        for a, b in zip(loaded.subjects, ds.subjects):
            assert np.array_equal(a.matrix.values, b.matrix.values)
        assert loaded.atlas_labels == ds.atlas_labels

    @pytest.mark.parametrize("sid", ["../escaped", "sub/x", "nul\0id"])
    def test_save_refuses_an_id_that_is_not_a_plain_file_name(self, tmp_path, sid):
        controls, patients = two_class_dataset((1, 1)).subjects
        ds = DatasetManifest((controls, SubjectRecord(sid, 1, patients.matrix)))
        with pytest.raises(InvariantViolation, match="not a plain file name"):
            save_dataset(ds, tmp_path / "out")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("sid", ["..", ".", "a b", "x.y"])
    def test_save_keeps_dotted_ids_inside_the_directory(self, tmp_path, sid):
        controls, patients = two_class_dataset((1, 1)).subjects
        ds = DatasetManifest((controls, SubjectRecord(sid, 1, patients.matrix)))
        loaded = load_dataset(save_dataset(ds, tmp_path / "out"))
        assert [r.id for r in loaded.subjects] == ["c0", sid]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
        assert (tmp_path / "out" / f"{sid}.mat").is_file()


class TestGenerateSynthetic:
    def spec(self, **kw):
        defaults = dict(
            n=20,
            subject_count=30,
            planted_subgraphs=[(3, 4, 5, 6, 7)],
            signal_strength=0.5,
            noise_level=0.1,
            seed=13,
        )
        defaults.update(kw)
        return SyntheticSpec(**defaults)

    def test_deterministic_byte_identical(self, tmp_path):
        a = generate_synthetic(self.spec())
        b = generate_synthetic(self.spec())
        pa = save_dataset(a, tmp_path / "a")
        pb = save_dataset(b, tmp_path / "b")
        assert pa.read_bytes() == pb.read_bytes()
        for ra, rb in zip(a.subjects, b.subjects):
            assert (tmp_path / "a" / f"{ra.id}.mat").read_bytes() == (
                tmp_path / "b" / f"{rb.id}.mat"
            ).read_bytes()

    def test_zero_signal_no_class_effect(self):
        ds = generate_synthetic(self.spec(signal_strength=0.0, subject_count=100))
        patients, controls = planted_edge_means(ds, (3, 4, 5, 6, 7))
        diff = patients.mean() - controls.mean()
        # two-sample z-score on planted-edge means stays at noise level
        se = math.sqrt(patients.var() / len(patients) + controls.var() / len(controls))
        assert abs(diff) < 4 * se

    def test_strong_signal_positive_group_difference(self):
        ds = generate_synthetic(self.spec(signal_strength=1.0, noise_level=0.1))
        patients, controls = planted_edge_means(ds, (3, 4, 5, 6, 7))
        assert patients.mean() - controls.mean() > 0.5  # group-mean oracle

    def test_matrices_satisfy_invariants(self):
        ds = generate_synthetic(self.spec())
        for rec in ds.subjects:
            v = rec.matrix.values
            assert np.array_equal(v, v.T)
            assert np.all(np.diag(v) == 1.0)
            assert v.min() >= -1.0 and v.max() <= 1.0

    def test_atlas_labels_present_and_sized(self):
        ds = generate_synthetic(self.spec())
        assert ds.atlas_labels is not None
        assert len(ds.atlas_labels) == 20

    def test_planted_set_must_cross_blocks(self):
        # nodes 0..4 sit inside atlas block 0 of 4 blocks over 20 nodes
        with pytest.raises(InvalidSpec):
            self.spec(planted_subgraphs=[(0, 1, 2, 3, 4)])

    def test_invalid_specs_rejected(self):
        with pytest.raises(InvalidSpec):
            self.spec(noise_level=0.0)
        with pytest.raises(InvalidSpec):
            self.spec(planted_subgraphs=[(1, 25)])
        with pytest.raises(InvalidSpec):
            self.spec(planted_subgraphs=[])


def two_class_dataset(per_class, n=6, seed=0):
    """(controls, patients) counts of random valid matrices, ids c0.. and p0.."""
    rng = np.random.default_rng(seed)
    recs = []
    for i in range(per_class[0]):
        recs.append(SubjectRecord(f"c{i}", 0, ConnectivityMatrix(valid_matrix(rng, n))))
    for i in range(per_class[1]):
        recs.append(SubjectRecord(f"p{i}", 1, ConnectivityMatrix(valid_matrix(rng, n))))
    return DatasetManifest(subjects=tuple(recs))


class TestStratifiedKfold:
    def test_exact_divisibility_one_per_class(self):
        ds = two_class_dataset((5, 5))
        folds = stratified_kfold(ds, k=5, seed=1)
        for f in folds:
            test_labels = [ds.by_id(i).label for i in f.test_ids]
            assert sorted(test_labels) == [0, 1]

    def test_uneven_split_counts_within_one(self):
        ds = two_class_dataset((7, 5))
        folds = stratified_kfold(ds, k=5, seed=2)
        # exhaustive count check: global class ratio 7/12 and 5/12
        for f in folds:
            labels = [ds.by_id(i).label for i in f.test_ids]
            size = len(labels)
            for cls, total in ((0, 7), (1, 5)):
                got = labels.count(cls)
                expected = size * total / 12
                assert abs(got - expected) <= 1.0

    def test_test_folds_partition_dataset(self):
        ds = two_class_dataset((7, 5))
        folds = stratified_kfold(ds, k=5, seed=3)
        all_test = [i for f in folds for i in f.test_ids]
        assert sorted(all_test) == sorted(r.id for r in ds.subjects)

    def test_fold_covers_dataset_disjointly(self):
        ds = two_class_dataset((8, 6))
        for f in stratified_kfold(ds, k=5, seed=4):
            union = set(f.train_ids) | set(f.val_ids) | set(f.test_ids)
            assert union == {r.id for r in ds.subjects}
            assert len(f.train_ids) + len(f.val_ids) + len(f.test_ids) == 14

    def test_val_fraction(self):
        ds = two_class_dataset((40, 40))
        for f in stratified_kfold(ds, k=5, val_fraction=0.25, seed=5):
            pool = len(f.train_ids) + len(f.val_ids)
            assert len(f.val_ids) == round(0.25 * pool)

    def test_deterministic(self):
        ds = two_class_dataset((7, 5))
        assert stratified_kfold(ds, k=5, seed=6) == stratified_kfold(ds, k=5, seed=6)
        assert stratified_kfold(ds, k=5, seed=6) != stratified_kfold(ds, k=5, seed=7)

    def test_too_few_subjects(self):
        ds = two_class_dataset((4, 9))
        with pytest.raises(TooFewSubjects):
            stratified_kfold(ds, k=5, seed=8)

    def test_class_with_empty_validation_share_is_refused(self):
        # 5 controls over 5 folds leave 4 per fold, and 10% of 4 rounds to none
        ds = two_class_dataset((5, 15))
        message = "fold 0: validation fraction 0.1 of class 0's 4 subjects"
        with pytest.raises(TooFewSubjects, match=message):
            stratified_kfold(ds, k=5, val_fraction=0.1, seed=0)


class TestStratifiedHoldout:
    @pytest.mark.parametrize("per_class, fraction", [((7, 5), 0.25), ((10, 10), 0.3), ((3, 8), 0.5)])
    def test_validation_share_per_class(self, per_class, fraction):
        ds = two_class_dataset(per_class)
        _, val = stratified_holdout(ds, fraction, seed=1)
        for label, count in enumerate(per_class):
            assert sum(ds.by_id(i).label == label for i in val) == round(fraction * count)

    def test_disjoint_and_covering(self):
        ds = two_class_dataset((7, 5))
        train, val = stratified_holdout(ds, 0.25, seed=2)
        assert not set(train) & set(val)
        assert sorted(train + val) == sorted(rec.id for rec in ds.subjects)

    def test_deterministic(self):
        ds = two_class_dataset((7, 5))
        assert stratified_holdout(ds, 0.25, seed=3) == stratified_holdout(ds, 0.25, seed=3)
        assert stratified_holdout(ds, 0.25, seed=3) != stratified_holdout(ds, 0.25, seed=4)

    @pytest.mark.parametrize("per_class, fraction", [((3, 3), 0.0), ((3, 3), 1.0), ((1, 1), 0.25)])
    def test_empty_side_is_too_few_subjects(self, per_class, fraction):
        with pytest.raises(TooFewSubjects):
            stratified_holdout(two_class_dataset(per_class), fraction, seed=0)


class TestMixup:
    def test_lambda_one_is_identity(self):
        rng = np.random.default_rng(9)
        x_i, x_j = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
        y_i, y_j = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        mx, my = mixup(x_i, x_j, y_i, y_j, 1.0)
        assert np.array_equal(mx, x_i)
        assert np.array_equal(my, y_i)

    def test_midpoint(self):
        x_i = np.zeros((3, 3))
        x_j = np.ones((3, 3))
        mx, my = mixup(x_i, x_j, np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.5)
        assert np.all(mx == 0.5)
        np.testing.assert_allclose(my, [0.5, 0.5])

    @given(st.floats(0, 1))
    @settings(max_examples=50, deadline=None)
    def test_self_mix_is_identity(self, lam):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(2, 5))
        y = np.array([0.0, 1.0])
        mx, my = mixup(x, x, y, y, lam)
        np.testing.assert_allclose(mx, x, atol=1e-15)
        np.testing.assert_allclose(my, y, atol=1e-15)

    def test_seeded_beta_draw_replays(self):
        lam_a = np.random.default_rng([77, 0]).beta(1.0, 1.0)
        lam_b = np.random.default_rng([77, 0]).beta(1.0, 1.0)
        assert lam_a == lam_b

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            mixup(np.zeros((2, 2)), np.zeros((3, 3)), np.zeros(2), np.zeros(2), 0.5)
