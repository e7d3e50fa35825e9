"""Every metric the benchmark reports: name, unit, direction, and what it means.

This table is the single source for metric names. ``BENCHMARK.json`` repeats
the names, units and directions, and ``run.py --smoke`` fails if the two
disagree.

Each per-layer metric lists the call sites it is measured at (module
attributes wrapped from outside the package), the workloads on which that
layer does work, and the end-to-end metric it should move on which workload.
Per-layer values are totals over one repeat of the workload's operation,
median over the repeats of the traced run; graph sizes are per training step.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = ("cv-acceptance", "train-reference", "interpret-reference")
TRAINING = ("cv-acceptance", "train-reference")
ALL = WORKLOADS


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    sites: tuple[str, ...]  # wrapped call sites; empty if derived elsewhere
    runs_on: tuple[str, ...]  # workloads on which the layer does work
    moves: str


END_TO_END = (
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "median over five set-ups, each one fresh process that imports hierconn, "
        "generates and writes the inputs and builds the fixture checkpoint",
    ),
    EndToEnd(
        "subjects_per_s", "subjects/s", "higher", 0.25,
        "cv-acceptance and train-reference: training subjects consumed by optimizer "
        "steps per second of the evaluate/train command; interpret-reference: "
        "subjects scored per second by one predict_scores call over the cohort",
    ),
    EndToEnd(
        "command_s", "s", "lower", 0.25,
        "wall time of the workload's hierconn command (evaluate, train, interpret), "
        "median over the repeats of one run",
    ),
    EndToEnd(
        "peak_rss_mb", "MB", "lower", 0.05,
        "ru_maxrss of the workload process",
    ),
)

# Tensor op methods whose backward closures are timed, by op kind; sum's
# backward is a broadcast copy, so it counts as a shape op
OP_KINDS = {
    "__matmul__": "matmul",
    "__add__": "elementwise", "__radd__": "elementwise", "__neg__": "elementwise",
    "__mul__": "elementwise", "__rmul__": "elementwise", "__truediv__": "elementwise",
    "exp": "elementwise", "log": "elementwise", "sqrt": "elementwise",
    "gelu": "elementwise",
    "reshape": "shape", "swapaxes": "shape", "broadcast_to": "shape", "sum": "shape",
    "sparsemax": "sparsemax",
}
# module-level graph ops, wrapped where the model looks them up
FUNCTION_OP_KINDS = {"hierconn.model.concat": "shape"}


def _op_sites(kind: str) -> tuple[str, ...]:
    sites = [f"hierconn.autodiff.Tensor.{op}" for op, k in OP_KINDS.items() if k == kind]
    sites += [site for site, k in FUNCTION_OP_KINDS.items() if k == kind]
    return ("hierconn.autodiff.Tensor.backward", "hierconn.autodiff.Tensor._backward", *sites)


ALL_OP_SITES = ("hierconn.autodiff.Tensor.backward", "hierconn.autodiff.Tensor._backward",
                *(f"hierconn.autodiff.Tensor.{op}" for op in OP_KINDS), *FUNCTION_OP_KINDS)
GRAPH_SITES = ("hierconn.autodiff.Tensor.backward", "hierconn.autodiff.Tensor._parents")


_TRAIN_REF = "subjects_per_s on train-reference"
_CV = "subjects_per_s on cv-acceptance"
_INFER = "subjects_per_s, command_s and peak_rss_mb on interpret-reference"

PER_LAYER = (
    # model
    PerLayer("model.fwd.embed_s", "s", "lower", ("hierconn.model.embed_nodes",), ALL,
             f"{_TRAIN_REF}; {_INFER}"),
    PerLayer("model.fwd.node_attn_s", "s", "lower", ("hierconn.model.node_to_node",), ALL,
             f"{_TRAIN_REF}; {_INFER}"),
    PerLayer("model.fwd.pool_attn_s", "s", "lower", ("hierconn.model.node_to_subgraph",), ALL,
             f"{_TRAIN_REF}; {_INFER}"),
    PerLayer("model.fwd.graph_attn_s", "s", "lower", ("hierconn.model.subgraph_to_graph",), ALL,
             f"{_TRAIN_REF}; {_INFER}"),
    PerLayer("model.fwd.rest_s", "s", "lower",
             ("hierconn.train.forward_batch", "hierconn.interpret.forward_batch"), ALL,
             f"{_TRAIN_REF}; {_INFER} (self time of forward_batch: FFNs, norms, heads)"),
    PerLayer("model.forward_calls", "count", "lower",
             ("hierconn.train.forward_batch", "hierconn.interpret.forward_batch"), ALL,
             "command_s on interpret-reference (duplicate cohort forwards)"),
    PerLayer("model.fwd.matmul_gflop", "GFLOP", "lower", ("hierconn.autodiff.Tensor.__matmul__",),
             ALL, f"{_TRAIN_REF}; {_INFER}"),
    PerLayer("model.fwd.peak_mb", "MB", "lower",
             ("hierconn.train.forward_batch", "hierconn.interpret.forward_batch"), ALL,
             "peak_rss_mb on interpret-reference and train-reference"),
    # autodiff
    PerLayer("autodiff.backward_s", "s", "lower", ("hierconn.autodiff.Tensor.backward",), TRAINING,
             f"{_TRAIN_REF}; {_CV}; zero on interpret-reference"),
    PerLayer("autodiff.bwd.matmul_s", "s", "lower", _op_sites("matmul"),
             TRAINING, f"{_TRAIN_REF}; zero on interpret-reference"),
    PerLayer("autodiff.bwd.elementwise_s", "s", "lower", _op_sites("elementwise"),
             TRAINING, f"{_TRAIN_REF}; {_CV}; zero on interpret-reference"),
    PerLayer("autodiff.bwd.shape_s", "s", "lower", _op_sites("shape"), TRAINING,
             f"{_CV}; zero on interpret-reference"),
    PerLayer("autodiff.bwd.sparsemax_s", "s", "lower", _op_sites("sparsemax"),
             TRAINING, f"{_CV}; zero on interpret-reference"),
    PerLayer("autodiff.topo_s", "s", "lower", ALL_OP_SITES, TRAINING,
             f"{_CV}; zero on interpret-reference (backward minus its closures)"),
    PerLayer("autodiff.graph_nodes", "count", "lower", GRAPH_SITES,
             TRAINING, f"{_CV}; zero on interpret-reference (per step)"),
    PerLayer("autodiff.graph_bytes", "bytes", "lower", GRAPH_SITES,
             TRAINING, "peak_rss_mb and subjects_per_s on train-reference; zero on "
             "interpret-reference (per step, owned arrays only)"),
    # sparsemax
    PerLayer("sparsemax.rows_s", "s", "lower", ("hierconn.autodiff.sparsemax_rows",), ALL, _CV),
    PerLayer("sparsemax.backward_s", "s", "lower", ("hierconn.autodiff.sparsemax_rows_backward",),
             TRAINING, _CV),
    PerLayer("sparsemax.zero_frac", "fraction", "higher", ("hierconn.autodiff.sparsemax_rows",),
             ALL, "confirms the sparse path ran; share of exact-zero pool weights"),
    # losses
    PerLayer("losses.total_s", "s", "lower", ("hierconn.train.total_loss_graph",), TRAINING, _CV),
    # train
    PerLayer("train.optimizer_s", "s", "lower", ("hierconn.train.optimizer_step",), TRAINING,
             f"{_CV}; {_TRAIN_REF}"),
    PerLayer("train.mixup_s", "s", "lower", ("hierconn.train.mixup",), TRAINING,
             f"{_CV}; {_TRAIN_REF}"),
    PerLayer("train.val_eval_s", "s", "lower", ("hierconn.train.predict_scores",), TRAINING,
             f"{_CV}; {_TRAIN_REF}"),
    PerLayer("train.steps", "count", "higher", ("hierconn.train.optimizer_step",), TRAINING,
             f"{_CV}; {_TRAIN_REF} (completed optimizer steps)"),
    PerLayer("train.skipped_batches", "count", "lower", (), TRAINING,
             "failed ops on the training workloads (read from the run reports)"),
    # checkpoint
    PerLayer("checkpoint.save_s", "s", "lower", ("hierconn.train.save_checkpoint",), TRAINING, _CV),
    PerLayer("checkpoint.load_s", "s", "lower", ("hierconn.cli.load_checkpoint",),
             ("interpret-reference",), "command_s on interpret-reference"),
    PerLayer("checkpoint.bytes", "bytes", "lower",
             ("hierconn.train.save_checkpoint", "hierconn.cli.load_checkpoint"), ALL,
             f"command_s on interpret-reference; {_CV}"),
    # data
    PerLayer("data.generate_s", "s", "lower", (), ALL,
             "setup_s on every workload (timed around generate_synthetic in set-up)"),
    PerLayer("data.load_dataset_s", "s", "lower", ("hierconn.cli.load_dataset",), ALL,
             "command_s on interpret-reference; setup_s"),
    # evaluate
    PerLayer("evaluate.fold_s", "s", "lower", ("hierconn.cli.run_cv",), ("cv-acceptance",),
             f"{_CV} (run_cv wall time per fold)"),
    PerLayer("evaluate.cv_auc", "fraction", "higher", (), ("cv-acceptance",),
             "quality guard for subjects_per_s on cv-acceptance (mean test AUC)"),
    # interpret
    PerLayer("interpret.aggregate_s", "s", "lower", ("hierconn.cli.aggregate_assignments",),
             ("interpret-reference",), "command_s on interpret-reference"),
    PerLayer("interpret.rank_s", "s", "lower", ("hierconn.cli.rank_subgraphs",),
             ("interpret-reference",), "command_s on interpret-reference"),
    PerLayer("interpret.export_s", "s", "lower", ("hierconn.cli.export_report",),
             ("interpret-reference",), "command_s on interpret-reference"),
    # the tracer itself
    PerLayer("trace.overhead_frac", "fraction", "lower", (), ALL,
             "none; command_s of the traced run over an untraced run, minus one"),
)

UNITS = {m.name: m.unit for m in END_TO_END + PER_LAYER}
