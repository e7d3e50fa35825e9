"""hierconn: hierarchical attention over connectivity graphs.

Learns latent sub-networks of a correlation graph via learnable subgraph
tokens with sparse (simplex-projected) attention, classifies whole graphs
from a hierarchical token pipeline, and exports interpretable sub-network
assignments.
"""

from .data import (
    ConnectivityMatrix,
    DatasetManifest,
    FoldSplit,
    SubjectRecord,
    SyntheticSpec,
    TimeSeries,
    compute_pcc,
    generate_synthetic,
    load_dataset,
    mixup,
    save_dataset,
    stratified_kfold,
)
from .evaluate import CvReport, run_cv
from .losses import (
    LossBreakdown,
    LossWeights,
    beta_schedule,
    classification_loss,
    hierarchical_consistency_loss,
    orthogonality_loss,
)
from .metrics import MetricSet, compute_metrics
from .model import (
    AttentionTrace,
    ForwardOutput,
    ModelConfig,
    ModelParams,
    forward_batch,
    init_params,
)
from .sparsemax import SimplexProjection, sparsemax_backward, sparsemax_forward
from .train import TrainConfig, TrainReport, cosine_lr, fit, optimizer_step

__version__ = "0.1.0"

__all__ = [
    "AttentionTrace",
    "ConnectivityMatrix",
    "CvReport",
    "DatasetManifest",
    "FoldSplit",
    "ForwardOutput",
    "LossBreakdown",
    "LossWeights",
    "MetricSet",
    "ModelConfig",
    "ModelParams",
    "SimplexProjection",
    "SubjectRecord",
    "SyntheticSpec",
    "TimeSeries",
    "TrainConfig",
    "TrainReport",
    "beta_schedule",
    "classification_loss",
    "compute_metrics",
    "compute_pcc",
    "cosine_lr",
    "fit",
    "forward_batch",
    "generate_synthetic",
    "hierarchical_consistency_loss",
    "init_params",
    "load_dataset",
    "mixup",
    "optimizer_step",
    "orthogonality_loss",
    "run_cv",
    "save_dataset",
    "sparsemax_backward",
    "sparsemax_forward",
    "stratified_kfold",
]
