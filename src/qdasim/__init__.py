"""Desk-scale density-matrix simulation of discriminant-analysis quantum algorithms.

The toolkit pairs every quantum-path operation (spectral-function chains,
phase estimation, signed overlap tests, discriminant classification) with an exact
classical oracle so results are verifiable end to end.
"""

__version__ = "0.1.0"

from .errors import DomainRejection, NumericalFailure
from .linalg import (
    DensityOperator,
    EigenSolution,
    HermitianOperator,
    SpectralFunction,
    eig_hermitian,
    matrix_function,
    trace_distance,
)
from .oracle import (
    ClassStatistics,
    LabeledDataset,
    between_scatter,
    class_covariance_operator,
    class_statistics,
    within_scatter,
)
from .qsim import (
    QpeState,
    ShotResult,
    density_exponentiation_step,
    overlap_test_signed,
    phase_estimation,
    postselect_ancilla,
    sample_eigenpairs,
)
from .chain import (
    ChainReport,
    ChainSpec,
    PreparedStage,
    chain_apply,
    chain_stage,
    classical_chain_oracle,
    prepare_stage,
)
from .rotation import rotation_amplitudes
from .lda import (
    ProjectionBasis,
    classical_lda_oracle,
    feature_map,
    fisher_criterion,
    project,
    quantum_lda,
)
from .qda import (
    Classification,
    ClassifierModel,
    classify_many,
    fit,
    invert_apply,
)
from .data_io import RunReport, load_csv, save_csv, synthetic_preset

__all__ = [
    "__version__",
    "DomainRejection",
    "NumericalFailure",
    "DensityOperator",
    "EigenSolution",
    "HermitianOperator",
    "SpectralFunction",
    "eig_hermitian",
    "matrix_function",
    "trace_distance",
    "ClassStatistics",
    "LabeledDataset",
    "between_scatter",
    "class_covariance_operator",
    "class_statistics",
    "within_scatter",
    "QpeState",
    "ShotResult",
    "density_exponentiation_step",
    "overlap_test_signed",
    "phase_estimation",
    "postselect_ancilla",
    "sample_eigenpairs",
    "ChainReport",
    "ChainSpec",
    "PreparedStage",
    "chain_apply",
    "chain_stage",
    "classical_chain_oracle",
    "prepare_stage",
    "rotation_amplitudes",
    "ProjectionBasis",
    "classical_lda_oracle",
    "feature_map",
    "fisher_criterion",
    "project",
    "quantum_lda",
    "Classification",
    "ClassifierModel",
    "classify_many",
    "fit",
    "invert_apply",
    "RunReport",
    "load_csv",
    "save_csv",
    "synthetic_preset",
]
