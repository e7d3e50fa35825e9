"""Sub-network interpretation from attention traces.

Aggregates the final block's node-to-subgraph attention over a cohort into
soft/hard node assignments, maps them onto reference atlas labels, and ranks
subgraph tokens by their share of the graph token's attention. One pass over
the cohort (``cohort_traces``, read out as float64) feeds every one of these
readings; it runs on ``eval_pass``, the eval forward that scoring
(``train.predict_scores``) shares.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import atomic_open
from .data import DatasetManifest, SubjectRecord
from .errors import EmptyDataset, MissingAtlasLabels, ShapeMismatch
from .model import FORWARD_CHUNK, FORWARD_DTYPE, ModelConfig, ModelParams, forward_batch

SUPPORT_THRESHOLD = 0.01  # sparse attention leaves mostly exact zeros; this trims dust


@dataclass(frozen=True)
class SubnetworkAssignment:
    """Cohort-mean soft assignment (K x n), per-node argmax, and per-subgraph
    support node sets."""

    soft_assignment: np.ndarray
    hard_assignment: np.ndarray
    support_masks: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class AtlasOverlapTable:
    """Row k gives the atlas-label composition of subgraph k's hard nodes."""

    labels: tuple[str, ...]
    proportions: np.ndarray  # K x len(labels), rows sum to 1


@dataclass(frozen=True)
class SubgraphImportance:
    """Graph-attention share per subgraph token (self-weight excluded)."""

    weights: np.ndarray
    ranking: tuple[int, ...]  # subgraph indices, most important first


def select_cohort(
    ds: DatasetManifest, ids=None, include_controls: bool = False
) -> list[SubjectRecord]:
    """Interpretation cohort: patients by default, optionally everyone."""
    records = ds.subset(ids) if ids is not None else list(ds.subjects)
    if not include_controls:
        records = [rec for rec in records if rec.label == 1]
    if not records:
        raise EmptyDataset("interpretation cohort is empty")
    return records


@dataclass(frozen=True)
class CohortTraces:
    """What interpretation reads off an eval-mode pass over a cohort."""

    pool_attention: np.ndarray  # (B, K, n) final-block pool attention
    graph_attention: np.ndarray  # (B, K+1) graph attention, self-weight first
    subgraph_tokens: np.ndarray  # (B, K, d) final subgraph tokens


def eval_pass(matrices, params: ModelParams, config: ModelConfig, read) -> list:
    """``read(out)`` of each forward over ``matrices`` (an array or a list of (n, n)
    arrays), ``FORWARD_CHUNK`` subjects at a time in ``FORWARD_DTYPE``, on constant weights
    (``ModelParams.astype``), so no op builds a graph. Each chunk's output is dropped
    once ``read`` returns, so only what it keeps outlives the chunk."""
    eval_params = params.astype(FORWARD_DTYPE)
    return [
        read(forward_batch(matrices[start : start + FORWARD_CHUNK], eval_params, config))
        for start in range(0, len(matrices), FORWARD_CHUNK)
    ]


def cohort_traces(
    params: ModelParams, config: ModelConfig, records: list[SubjectRecord]
) -> CohortTraces:
    """Run the cohort through the model once (``eval_pass``); every reading below
    uses this, in float64."""
    if not records:
        raise EmptyDataset("no subjects to interpret")
    n = records[0].matrix.n
    if n != config.n:
        raise ShapeMismatch(f"cohort node count {n} != checkpoint node count {config.n}")
    pool, graph, tokens = zip(*eval_pass(
        [rec.matrix.values for rec in records], params, config,
        lambda out: (out.trace.node_to_subgraph[-1], out.trace.subgraph_to_graph,
                     out.subgraph_tokens.data),
    ))
    # float64 out: export_report writes values that are Python floats (as
    # float64 values are) with .17g, and would write float32 values with str
    return CohortTraces(
        pool_attention=np.concatenate(pool, dtype=np.float64),
        graph_attention=np.concatenate(graph, dtype=np.float64),
        subgraph_tokens=np.concatenate(tokens, dtype=np.float64),
    )


def aggregate_assignments(traces: CohortTraces) -> SubnetworkAssignment:
    """Average the final-block attention over the cohort, row-renormalized."""
    soft = traces.pool_attention.mean(axis=0)
    soft = soft / soft.sum(axis=-1, keepdims=True)
    hard = np.argmax(soft, axis=0)
    masks = tuple(
        tuple(int(i) for i in np.nonzero(row > SUPPORT_THRESHOLD)[0]) for row in soft
    )
    return SubnetworkAssignment(
        soft_assignment=soft, hard_assignment=hard, support_masks=masks
    )


def atlas_overlap(assign: SubnetworkAssignment, atlas_labels) -> AtlasOverlapTable:
    """Fraction of each subgraph's hard-assigned nodes per atlas label."""
    if atlas_labels is None:
        raise MissingAtlasLabels("dataset carries no atlas labels")
    atlas_labels = tuple(atlas_labels)
    k, n = assign.soft_assignment.shape
    if len(atlas_labels) != n:
        raise ShapeMismatch(f"{len(atlas_labels)} atlas labels for {n} nodes")
    columns = tuple(sorted(set(atlas_labels)))
    column_of = {label: j for j, label in enumerate(columns)}
    counts = np.zeros((k, len(columns)))
    np.add.at(counts, (assign.hard_assignment, [column_of[label] for label in atlas_labels]), 1.0)
    sizes = counts.sum(axis=1)
    for subgraph in np.nonzero(sizes == 0)[0]:
        warnings.warn(f"subgraph {subgraph} has no hard-assigned nodes; uniform row")
    table = counts / np.maximum(sizes, 1.0)[:, None]
    table[sizes == 0] = 1.0 / len(columns)
    return AtlasOverlapTable(labels=columns, proportions=table)


def rank_subgraphs(traces: CohortTraces) -> SubgraphImportance:
    """Cohort-mean graph attention per subgraph, self-weight dropped."""
    mean_attention = traces.graph_attention.mean(axis=0)
    weights = mean_attention[1:]  # index 0 is the graph token itself
    weights = weights / weights.sum()
    ranking = tuple(int(i) for i in np.argsort(-weights, kind="stable"))
    return SubgraphImportance(weights=weights, ranking=ranking)


def jaccard(a, b) -> float:
    """Overlap of two node sets; ground-truth recovery score."""
    a, b = set(a), set(b)
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def mean_token_cosine(traces: CohortTraces) -> float:
    """Cohort mean of pairwise cosine similarity between final subgraph tokens."""
    tokens = traces.subgraph_tokens
    unit = tokens / np.linalg.norm(tokens, axis=-1, keepdims=True)
    gram = unit @ unit.swapaxes(-1, -2)
    k = gram.shape[-1]
    upper = np.triu_indices(k, k=1)
    return float(gram[:, upper[0], upper[1]].mean())


def export_report(
    assign: SubnetworkAssignment,
    overlap: AtlasOverlapTable | None,
    importance: SubgraphImportance,
    out_dir: str | Path,
    atlas_labels=None,
) -> list[Path]:
    """Plot-ready CSV matrices; deterministic ordering, full float precision."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    soft = assign.soft_assignment
    tables = [  # (file, header, rows)
        ("soft_assignment.csv", ["subgraph", *(f"node_{j}" for j in range(soft.shape[1]))],
         [[i, *row] for i, row in enumerate(soft)]),
        ("hard_assignment.csv", ["node", "subgraph"], enumerate(assign.hard_assignment)),
    ]
    if overlap is not None:
        tables.append(("atlas_overlap.csv", ["subgraph", *overlap.labels],
                       [[i, *row] for i, row in enumerate(overlap.proportions)]))
    tables += [
        ("importance.csv", ["subgraph", "weight", "rank"],
         [(i, w, importance.ranking.index(i)) for i, w in enumerate(importance.weights)]),
        ("subgraph_nodes.csv", ["subgraph", "node", "atlas_label", "weight"],
         [(subgraph, node, atlas_labels[node] if atlas_labels else "", soft[subgraph, node])
          for subgraph, mask in enumerate(assign.support_masks) for node in mask]),
    ]
    written = []
    for name, header, rows in tables:
        path = out_dir / name
        with atomic_open(path) as f:
            for row in [header, *rows]:
                f.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row))
                f.write("\n")
        written.append(path)
    return written
