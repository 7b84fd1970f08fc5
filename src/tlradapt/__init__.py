"""Kernel-space latent projections for unsupervised domain adaptation.

The package learns a shared projection of a labeled source domain and an
unlabeled target domain: both domains are embedded through a joint kernel,
and a closed-form eigensolve picks latent directions that shrink the
between-domain mean discrepancy while reconstructing each domain's
embedding. A 1-NN benchmark harness reproduces the transductive grid-search
evaluation protocol.
"""

from .bench import (
    CSV_HEADER,
    ConfigResult,
    ExperimentReport,
    GridSpec,
    ReportRow,
    SkippedConfig,
    emit_report,
    grid_search,
    read_report_csv,
    relative_kernel_gap,
    relative_latent_gap,
    run_protocol_ixmas_style,
)
from .classify import (
    PredictionResult,
    accuracy,
    knn1_predict,
    no_adaptation_predict,
)
from .dataset import (
    STD_FLOOR,
    DomainPair,
    LabeledMatrix,
    ZScoreStats,
    load_csv,
    sample_per_class,
    save_csv,
    standardize_pair,
    synth_shift_pair,
    zscore_apply,
    zscore_fit,
)
from .kernels import (
    BANDWIDTH_FLOOR,
    JointKernel,
    KernelSpec,
    build_joint_kernel,
    gram,
    median_bandwidth,
)
from .mmd import MmdMatrix, mmd_latent, mmd_matrix, mmd_trace
from .tlr import (
    MODEL_FORMAT_TAG,
    SolverMatrices,
    TlrHyperparams,
    TlrModel,
    build_AB,
    build_M,
    eigen_basis,
    fit,
    load_model,
    objective_expanded,
    objective_raw,
    save_model,
    solve_W,
    stationarity_residual,
)

__version__ = "0.1.0"

__all__ = [
    "BANDWIDTH_FLOOR",
    "CSV_HEADER",
    "ConfigResult",
    "DomainPair",
    "ExperimentReport",
    "GridSpec",
    "JointKernel",
    "KernelSpec",
    "LabeledMatrix",
    "MODEL_FORMAT_TAG",
    "MmdMatrix",
    "PredictionResult",
    "ReportRow",
    "STD_FLOOR",
    "SkippedConfig",
    "SolverMatrices",
    "TlrHyperparams",
    "TlrModel",
    "ZScoreStats",
    "accuracy",
    "build_AB",
    "build_M",
    "build_joint_kernel",
    "eigen_basis",
    "emit_report",
    "fit",
    "gram",
    "grid_search",
    "knn1_predict",
    "load_csv",
    "load_model",
    "median_bandwidth",
    "mmd_latent",
    "mmd_matrix",
    "mmd_trace",
    "no_adaptation_predict",
    "objective_expanded",
    "objective_raw",
    "read_report_csv",
    "relative_kernel_gap",
    "relative_latent_gap",
    "run_protocol_ixmas_style",
    "sample_per_class",
    "save_csv",
    "save_model",
    "solve_W",
    "standardize_pair",
    "stationarity_residual",
    "synth_shift_pair",
    "zscore_apply",
    "zscore_fit",
]
