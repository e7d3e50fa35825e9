"""Span tracing of hierconn's public call sites, installed from outside the package.

``Tracer.install`` replaces each traced name at the module attribute where its
caller looks it up (``hierconn.train.optimizer_step`` is looked up by ``fit``
in ``hierconn.train``, so that is where it is wrapped), and ``restore`` puts
every original back. A call site that a refactor renamed or removed is
recorded in ``missing`` and the run goes on; the metrics measured there are
then reported as missing with that reason.

Each span records its name, start, end, parent span and the workload repeat it
belongs to. Counts are attached to the span of the boundary where they are
taken: matmul FLOPs and the tracemalloc peak to ``forward_batch``, graph size
and backward-closure time by op kind to ``Tensor.backward``, exact zeros to
``sparsemax_rows``. Spans stay in memory until ``dump`` writes them.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import statistics
import time
import tracemalloc
from collections import defaultdict

import numpy as np

from catalog import FUNCTION_OP_KINDS, OP_KINDS, PER_LAYER

# wrapped call site -> span name
SPAN_SITES = {
    "hierconn.train.forward_batch": "model.forward_batch",
    "hierconn.interpret.forward_batch": "model.forward_batch",
    "hierconn.model.embed_nodes": "model.embed_nodes",
    "hierconn.model.node_to_node": "model.node_to_node",
    "hierconn.model.node_to_subgraph": "model.node_to_subgraph",
    "hierconn.model.subgraph_to_graph": "model.subgraph_to_graph",
    "hierconn.autodiff.Tensor.backward": "autodiff.backward",
    "hierconn.autodiff.sparsemax_rows": "sparsemax.rows",
    "hierconn.autodiff.sparsemax_rows_backward": "sparsemax.rows_backward",
    "hierconn.train.total_loss_graph": "losses.total_loss_graph",
    "hierconn.train.optimizer_step": "train.optimizer_step",
    "hierconn.train.mixup": "train.mixup",
    "hierconn.train.predict_scores": "train.predict_scores",
    "hierconn.train.save_checkpoint": "checkpoint.save",
    "hierconn.cli.load_checkpoint": "checkpoint.load",
    "hierconn.cli.load_dataset": "data.load_dataset",
    "hierconn.cli.run_cv": "evaluate.run_cv",
    "hierconn.cli.aggregate_assignments": "interpret.aggregate",
    "hierconn.cli.rank_subgraphs": "interpret.rank",
    "hierconn.cli.export_report": "interpret.export",
}
BUCKETS = ("matmul", "elementwise", "shape", "sparsemax")


def _resolve(site: str):
    """(owner, attribute name, current value) of a dotted ``hierconn.<module>.<attr...>``."""
    parts = site.split(".")
    owner = importlib.import_module(".".join(parts[:2]))
    for name in parts[2:-1]:
        owner = getattr(owner, name)
    return owner, parts[-1], getattr(owner, parts[-1])


def graph_size(root) -> tuple[int, int]:
    """Nodes reachable from ``root`` and the bytes of their arrays that own memory."""
    seen = {id(root)}
    stack = [root]
    nbytes = 0
    while stack:
        node = stack.pop()
        if node.data.base is None:
            nbytes += node.data.nbytes
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen), nbytes


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.repeat: int | None = None
        self.missing: dict[str, str] = {}
        self.called: set[str] = set()
        self._stack: list[dict] = []
        self._forward: dict | None = None
        self._backward: dict | None = None
        self._originals: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "repeat": self.repeat,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the benchmark's own call into a layer."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for site, name in SPAN_SITES.items():
            self._replace(site, lambda orig, s=site, n=name: self._wrap_span(orig, s, n))
        for op, kind in OP_KINDS.items():
            site = f"hierconn.autodiff.Tensor.{op}"
            self._replace(site, lambda orig, s=site, k=kind: self._wrap_op(orig, s, k))
        for site, kind in FUNCTION_OP_KINDS.items():
            self._replace(site, lambda orig, s=site, k=kind: self._wrap_op(orig, s, k))
        # read, not wrapped: graph walking and closure timing depend on them
        for site in ("hierconn.autodiff.Tensor._parents", "hierconn.autodiff.Tensor._backward"):
            try:
                _resolve(site)
            except (ImportError, AttributeError) as exc:
                self.missing[site] = f"{site} not found ({exc})"

    def _replace(self, site: str, make_wrapper) -> None:
        try:
            owner, attr, original = _resolve(site)
        except (ImportError, AttributeError) as exc:
            self.missing[site] = f"{site} not found ({exc})"
            return
        self._originals.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -- wrappers ------------------------------------------------------------

    def _wrap_span(self, original, site: str, name: str):
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            self.called.add(site)
            state = before(args) if before else None
            span = self._open(name)
            result = None
            try:
                result = original(*args, **kwargs)
                span["ok"] = True
                return result
            finally:
                self._close(span)
                if after:
                    after(span, state, args, kwargs, result)

        wrapper.__wrapped__ = original
        return wrapper

    def _wrap_op(self, original, site: str, kind: str):
        key = "bwd_" + kind

        def timed(backward):
            def closure(g):
                start = time.perf_counter()
                try:
                    backward(g)
                finally:
                    if self._backward is not None:
                        self._backward[key] += time.perf_counter() - start

            return closure

        def op(*args, **kwargs):
            self.called.add(site)
            out = original(*args, **kwargs)
            backward = getattr(out, "_backward", None)
            if backward is not None:
                out._backward = timed(backward)
            if kind == "matmul" and self._forward is not None:
                self._forward["matmul_flop"] += 2 * out.data.size * args[0].shape[-1]
            return out

        op.__wrapped__ = original
        return op

    # forward_batch: tracemalloc peak of the call, and the span matmuls count into
    def _before_model_forward_batch(self, args):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        tracemalloc.reset_peak()
        previous = self._forward
        self._forward = {"matmul_flop": 0}
        return started, tracemalloc.get_traced_memory()[0], previous

    def _after_model_forward_batch(self, span, state, args, kwargs, result):
        started, base, previous = state
        span["peak_bytes"] = tracemalloc.get_traced_memory()[1] - base
        span["matmul_flop"] = self._forward["matmul_flop"]
        if started:
            tracemalloc.stop()
        self._forward = previous

    # Tensor.backward: graph size before the sweep, closure time by op kind
    def _before_autodiff_backward(self, args):
        counts = {"bwd_" + kind: 0.0 for kind in BUCKETS}
        if "hierconn.autodiff.Tensor._parents" not in self.missing:
            counts["graph_nodes"], counts["graph_bytes"] = graph_size(args[0])
        previous = self._backward
        self._backward = counts
        return previous

    def _after_autodiff_backward(self, span, previous, args, kwargs, result):
        span.update(self._backward)
        self._backward = previous

    def _after_sparsemax_rows(self, span, state, args, kwargs, result):
        if result is not None:
            span["zeros"] = int(np.count_nonzero(result == 0.0))
            span["size"] = int(result.size)

    def _after_checkpoint_save(self, span, state, args, kwargs, result):
        if result is not None:
            span["bytes"] = os.path.getsize(result)

    def _after_checkpoint_load(self, span, state, args, kwargs, result):
        path = args[0] if args else kwargs.get("path")
        if path is not None and os.path.exists(path):
            span["bytes"] = os.path.getsize(path)

    def _after_evaluate_run_cv(self, span, state, args, kwargs, result):
        folds = args[1] if len(args) > 1 else kwargs.get("folds")
        span["folds"] = len(folds) if folds is not None else 0

    # -- output --------------------------------------------------------------

    def dump(self, path, header: dict) -> None:
        with open(path, "w") as f:
            f.write(json.dumps({"run": self.run_id, **header}) + "\n")
            for span in self.spans:
                f.write(json.dumps({"run": self.run_id, **span}) + "\n")


def _sums(spans: list[dict]) -> tuple[dict, dict, dict]:
    """Total duration, self time and call count per span name."""
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    children: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]] += span["end"] - span["start"]
    for span in spans:
        duration = span["end"] - span["start"]
        total[span["name"]] += duration
        self_time[span["name"]] += duration - children[span["id"]]
        calls[span["name"]] += 1
    return total, self_time, calls


def repeat_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer values measured by the spans of one workload repeat."""
    total, self_time, calls = _sums(spans)
    named = defaultdict(list)
    for span in spans:
        named[span["name"]].append(span)
    forwards = named["model.forward_batch"]
    backwards = named["autodiff.backward"]
    rows = named["sparsemax.rows"]
    closures = {kind: sum(s.get("bwd_" + kind, 0.0) for s in backwards) for kind in BUCKETS}
    row_size = sum(s.get("size", 0) for s in rows)
    run_cv = named["evaluate.run_cv"]
    folds = sum(s.get("folds", 0) for s in run_cv)

    def per_step(key):
        values = [s[key] for s in backwards if key in s]
        return float(statistics.median(values)) if values else 0.0

    return {
        "model.fwd.embed_s": total["model.embed_nodes"],
        "model.fwd.node_attn_s": total["model.node_to_node"],
        "model.fwd.pool_attn_s": total["model.node_to_subgraph"],
        "model.fwd.graph_attn_s": total["model.subgraph_to_graph"],
        "model.fwd.rest_s": self_time["model.forward_batch"],
        "model.forward_calls": calls["model.forward_batch"],
        "model.fwd.matmul_gflop": sum(s.get("matmul_flop", 0) for s in forwards) / 1e9,
        "model.fwd.peak_mb": max((s.get("peak_bytes", 0) for s in forwards), default=0) / 2**20,
        "autodiff.backward_s": total["autodiff.backward"],
        **{f"autodiff.bwd.{kind}_s": closures[kind] for kind in BUCKETS},
        "autodiff.topo_s": total["autodiff.backward"] - sum(closures.values()),
        "autodiff.graph_nodes": per_step("graph_nodes"),
        "autodiff.graph_bytes": per_step("graph_bytes"),
        "sparsemax.rows_s": total["sparsemax.rows"],
        "sparsemax.backward_s": total["sparsemax.rows_backward"],
        "sparsemax.zero_frac": (
            sum(s.get("zeros", 0) for s in rows) / row_size if row_size else 0.0
        ),
        "losses.total_s": total["losses.total_loss_graph"],
        "train.optimizer_s": total["train.optimizer_step"],
        "train.mixup_s": total["train.mixup"],
        "train.val_eval_s": total["train.predict_scores"],
        "train.steps": sum(1 for s in named["train.optimizer_step"] if s.get("ok")),
        "checkpoint.save_s": total["checkpoint.save"],
        "checkpoint.load_s": total["checkpoint.load"],
        "checkpoint.bytes": sum(
            s.get("bytes", 0) for s in named["checkpoint.save"] + named["checkpoint.load"]
        ),
        "data.load_dataset_s": total["data.load_dataset"],
        "evaluate.fold_s": total["evaluate.run_cv"] / folds if folds else 0.0,
        "interpret.aggregate_s": total["interpret.aggregate"],
        "interpret.rank_s": total["interpret.rank"],
        "interpret.export_s": total["interpret.export"],
    }


def missing_reasons(tracer: Tracer, workload: str) -> dict[str, str]:
    """Per-layer metrics whose call sites are gone, or were never reached on a
    workload where their layer does work."""
    reasons = {}
    for metric in PER_LAYER:
        gone = [tracer.missing[s] for s in metric.sites if s in tracer.missing]
        if gone:
            reasons[metric.name] = "; ".join(gone)
        elif (
            metric.sites
            and workload in metric.runs_on
            and not any(s in tracer.called for s in metric.sites)
        ):
            reasons[metric.name] = (
                "call sites installed but never called: " + ", ".join(metric.sites)
            )
    return reasons
