"""Trace aggregation, atlas mapping, importance ranking, and export."""

import numpy as np
import pytest

from hierconn.data import SyntheticSpec, generate_synthetic
from hierconn.errors import EmptyDataset, MissingAtlasLabels
from hierconn.interpret import (
    SubnetworkAssignment,
    aggregate_assignments,
    atlas_overlap,
    cohort_traces,
    export_report,
    jaccard,
    mean_token_cosine,
    rank_subgraphs,
    select_cohort,
)
from hierconn.model import ModelConfig, forward_batch, init_params


@pytest.fixture(scope="module")
def setup():
    spec = SyntheticSpec(
        n=12, subject_count=10, planted_subgraphs=[(4, 5, 6, 7)],
        signal_strength=0.5, noise_level=0.1, seed=21,
    )
    ds = generate_synthetic(spec)
    config = ModelConfig(n=12, d=8, heads=2, layers=2, k=3, dropout=0.0)
    params = init_params(config, 21)
    return ds, config, params


class TestAggregateAssignments:
    def test_single_subject_equals_own_trace(self, setup):
        ds, config, params = setup
        rec = ds.subjects[0]
        assign = aggregate_assignments(cohort_traces(params, config, [rec]))
        out = forward_batch(rec.matrix.values[None], params, config)
        expected = out.trace.node_to_subgraph[-1][0]
        expected = expected / expected.sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(assign.soft_assignment, expected, atol=1e-12)

    def test_two_subject_average_matches_direct_oracle(self, setup):
        ds, config, params = setup
        recs = list(ds.subjects[:2])
        assign = aggregate_assignments(cohort_traces(params, config, recs))
        t1, t2 = (
            forward_batch(rec.matrix.values[None], params, config).trace.node_to_subgraph[-1][0]
            for rec in recs
        )
        avg = (t1 + t2) / 2.0
        avg = avg / avg.sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(assign.soft_assignment, avg, atol=1e-12)

    def test_rows_sum_to_one(self, setup):
        ds, config, params = setup
        assign = aggregate_assignments(cohort_traces(params, config, list(ds.subjects)))
        np.testing.assert_allclose(assign.soft_assignment.sum(axis=-1), 1.0, atol=1e-6)
        assert assign.hard_assignment.shape == (12,)
        assert set(assign.hard_assignment) <= set(range(3))

    def test_hard_assignment_stable_across_reruns(self, setup):
        ds, config, params = setup
        a = aggregate_assignments(cohort_traces(params, config, list(ds.subjects)))
        b = aggregate_assignments(cohort_traces(params, config, list(ds.subjects)))
        np.testing.assert_array_equal(a.hard_assignment, b.hard_assignment)
        np.testing.assert_array_equal(a.soft_assignment, b.soft_assignment)

    def test_support_masks_respect_threshold(self, setup):
        ds, config, params = setup
        assign = aggregate_assignments(cohort_traces(params, config, list(ds.subjects)))
        for k, mask in enumerate(assign.support_masks):
            member = np.zeros(12, bool)
            member[list(mask)] = True
            assert np.all(assign.soft_assignment[k][member] > 0.01)
            assert np.all(assign.soft_assignment[k][~member] <= 0.01)


class TestAtlasOverlap:
    def make_assign(self, hard, k=3, n=6):
        soft = np.full((k, n), 1.0 / n)
        return SubnetworkAssignment(
            soft_assignment=soft,
            hard_assignment=np.array(hard),
            support_masks=tuple(tuple(np.nonzero(np.array(hard) == i)[0]) for i in range(k)),
        )

    def test_single_network_one_hot_row(self):
        assign = self.make_assign([0, 0, 0, 1, 1, 2])
        table = atlas_overlap(assign, ["A", "A", "A", "B", "B", "B"])
        assert table.labels == ("A", "B")
        np.testing.assert_allclose(table.proportions[0], [1.0, 0.0])

    def test_counting_example(self):
        # subgraph 0 holds 2 nodes in A and 1 in B
        assign = self.make_assign([0, 0, 0, 1, 1, 1])
        table = atlas_overlap(assign, ["A", "A", "B", "B", "B", "C"])
        np.testing.assert_allclose(table.proportions[0], [2 / 3, 1 / 3, 0.0])
        np.testing.assert_allclose(table.proportions.sum(axis=1), 1.0, atol=1e-12)

    def test_empty_subgraph_uniform_with_warning(self):
        assign = self.make_assign([0, 0, 0, 0, 1, 1])  # subgraph 2 empty
        with pytest.warns(UserWarning):
            table = atlas_overlap(assign, ["A", "A", "B", "B", "B", "C"])
        np.testing.assert_allclose(table.proportions[2], [1 / 3, 1 / 3, 1 / 3])

    def test_missing_labels(self):
        assign = self.make_assign([0, 0, 1, 1, 2, 2])
        with pytest.raises(MissingAtlasLabels):
            atlas_overlap(assign, None)


class TestRankSubgraphs:
    def test_single_subject_matches_own_trace(self, setup):
        ds, config, params = setup
        rec = ds.subjects[0]
        imp = rank_subgraphs(cohort_traces(params, config, [rec]))
        trace = forward_batch(rec.matrix.values[None], params, config).trace.subgraph_to_graph[0]
        expected = trace[1:] / trace[1:].sum()
        np.testing.assert_allclose(imp.weights, expected, atol=1e-12)

    def test_weights_normalized_and_ranked(self, setup):
        ds, config, params = setup
        imp = rank_subgraphs(cohort_traces(params, config, list(ds.subjects)))
        assert imp.weights.shape == (3,)
        assert imp.weights.sum() == pytest.approx(1.0, abs=1e-9)
        ordered = [imp.weights[i] for i in imp.ranking]
        assert all(b <= a for a, b in zip(ordered, ordered[1:]))

    def test_uniform_attention_uniform_importance(self):
        # identical keys force uniform attention, so importance is uniform
        config = ModelConfig(n=6, d=8, heads=2, layers=1, k=2, dropout=0.0)
        params = init_params(config, 3)
        token = np.random.default_rng(3).normal(size=8)
        params.tensors["graph_token"].data = token[None, None].copy()

        from hierconn.autodiff import Tensor
        from hierconn.model import subgraph_to_graph

        x_sg = np.tile(token, (1, 2, 1))
        _, head_mean = subgraph_to_graph(params["graph_token"], Tensor(x_sg), params, config)
        weights = head_mean[0, 1:] / head_mean[0, 1:].sum()
        np.testing.assert_allclose(weights, [0.5, 0.5], atol=1e-12)


class TestCohortSelection:
    def test_defaults_to_patients(self, setup):
        ds, _, _ = setup
        cohort = select_cohort(ds)
        assert all(rec.label == 1 for rec in cohort)

    def test_include_controls(self, setup):
        ds, _, _ = setup
        cohort = select_cohort(ds, include_controls=True)
        assert len(cohort) == len(ds.subjects)

    def test_empty_cohort_rejected(self, setup):
        ds, _, _ = setup
        controls = [rec.id for rec in ds.subjects if rec.label == 0]
        with pytest.raises(EmptyDataset):
            select_cohort(ds, ids=controls)  # patients-only filter empties it


class TestJaccard:
    def test_basic_values(self):
        assert jaccard({1, 2, 3}, {1, 2, 3}) == 1.0
        assert jaccard({1, 2}, {3, 4}) == 0.0
        assert jaccard({1, 2, 3}, {2, 3, 4}) == pytest.approx(0.5)


class TestMeanTokenCosine:
    def test_in_unit_range(self, setup):
        ds, config, params = setup
        value = mean_token_cosine(cohort_traces(params, config, list(ds.subjects)))
        assert -1.0 <= value <= 1.0


class TestExport:
    def test_roundtrip_and_shapes(self, setup, tmp_path):
        ds, config, params = setup
        cohort = select_cohort(ds)
        traces = cohort_traces(params, config, cohort)
        assign = aggregate_assignments(traces)
        overlap = atlas_overlap(assign, ds.atlas_labels)
        imp = rank_subgraphs(traces)
        written = export_report(assign, overlap, imp, tmp_path, atlas_labels=ds.atlas_labels)
        names = {p.name for p in written}
        assert names == {
            "soft_assignment.csv", "hard_assignment.csv", "atlas_overlap.csv",
            "importance.csv", "subgraph_nodes.csv",
        }
        soft = np.loadtxt(
            tmp_path / "soft_assignment.csv", delimiter=",", skiprows=1,
            usecols=range(1, 13),
        )
        np.testing.assert_allclose(soft, assign.soft_assignment, atol=1e-9)
        table = np.loadtxt(
            tmp_path / "atlas_overlap.csv", delimiter=",", skiprows=1,
            usecols=range(1, 1 + len(overlap.labels)),
        )
        np.testing.assert_allclose(table, overlap.proportions, atol=1e-9)

    def test_deterministic_output(self, setup, tmp_path):
        ds, config, params = setup
        cohort = select_cohort(ds)
        traces = cohort_traces(params, config, cohort)
        assign = aggregate_assignments(traces)
        imp = rank_subgraphs(traces)
        export_report(assign, None, imp, tmp_path / "a")
        export_report(assign, None, imp, tmp_path / "b")
        for name in ("soft_assignment.csv", "importance.csv", "subgraph_nodes.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
