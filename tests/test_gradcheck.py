"""Gradient-check harness: healthy pass, fault localization, and coverage."""

import pytest

import hierconn.autodiff as autodiff
from hierconn.gradcheck import TINY_CONFIG, run_gradcheck
from hierconn.model import init_params


@pytest.fixture(scope="module")
def healthy_report():
    return run_gradcheck(seed=0)


class TestHealthyRun:
    def test_passes_under_target(self, healthy_report):
        assert healthy_report.passed
        assert healthy_report.worst_error <= 1e-4

    def test_covers_every_tensor_exactly_once(self, healthy_report):
        expected = set(init_params(TINY_CONFIG, 0).names())
        assert set(healthy_report.max_rel_error) == expected

    def test_report_lines_mention_every_tensor(self, healthy_report):
        lines = healthy_report.lines()
        assert len(lines) == len(healthy_report.max_rel_error) + 1
        assert lines[-1].startswith("PASS")


class TestFaultInjection:
    def test_corrupted_sparsemax_backward_localizes(self, monkeypatch):
        """Breaking the sparse projection's Jacobian must fail exactly the
        tensors whose gradient flows through it (the pool stage's query/key
        path and everything upstream), leaving the value path and all
        downstream heads clean."""

        def corrupted(probabilities, upstream):
            # wrong Jacobian: skips centering over the support
            return (probabilities > 0.0) * upstream

        monkeypatch.setattr(autodiff, "sparsemax_rows_backward", corrupted)
        report = run_gradcheck(seed=0)
        assert not report.passed

        failing = {n for n, e in report.max_rel_error.items() if e > report.threshold}
        upstream_prefixes = (
            "embed.",
            "subgraph_tokens",
            "layers.0.node_attn.",
            "layers.0.node_ffn.",
            "layers.0.pool_attn.wq",
            "layers.0.pool_attn.bq",
            "layers.0.pool_attn.wk",
        )
        for name in failing:
            assert name.startswith(upstream_prefixes), f"unexpected failure in {name}"
        # the corrupted projection feeds the scores, so its query/key
        # projections must be among the failures
        assert any(name.startswith("layers.0.pool_attn.w") for name in failing)
        # value/output path and downstream stages see only forward values
        clean = {"layers.0.pool_attn.wv", "layers.0.pool_attn.wo", "graph_attn.wq",
                 "head.w1", "head.w2", "aux.w"}
        for name in clean:
            assert report.max_rel_error[name] <= report.threshold, name


class TestDeterminism:
    def test_same_seed_same_report(self):
        a = run_gradcheck(seed=3)
        b = run_gradcheck(seed=3)
        assert a.max_rel_error == b.max_rel_error
