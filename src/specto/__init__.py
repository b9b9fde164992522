"""specto: spectral stability and robustness analysis for recurrent weights.

Quantifies learned weight matrices three ways: the eigen-spectrum (dynamic
stability vs the unit disk), non-normality indices (Henrici number, Schur
departure), and the eps-pseudospectrum (robustness to bounded
perturbations, Kreiss bounds on transient growth). A small recurrent-cell
lab trains RNN/LSTM/GRU cells at desk scale so the full
train -> analyze -> stabilize -> compare pipeline runs end to end.
"""

from .errors import FormatError, NumericalError, SpectoError, TrainingDiverged
from .matrix import (
    Matrix,
    SchurFactors,
    eigenvalues,
    frobenius_norm,
    mat_power_norms,
    schur,
    singular_values,
    spectral_radius,
    two_norm,
)
from .nonnormality import (
    NonNormalityReport,
    commutator_norm,
    henrici_number,
    is_normal,
    nonnormality_report,
    schur_departure,
)
from .pseudospectrum import (
    ContourSet,
    GridSpec,
    KreissSandwich,
    PseudospectrumField,
    auto_grid,
    check_levels,
    compute_field,
    extract_contours,
    jacobian_norm_bound_check,
    kreiss_lower_bound,
    kreiss_sandwich_check,
    pseudospectral_radius,
    resolve_workers,
    sigma_min_at,
)
from .stabilizer import StabilizationResult, StabilizerConfig, gain_convergence, stabilize
from .containers import (
    MatrixContainer,
    container_from_bytes,
    container_to_bytes,
    load_matrix_any,
    parse_matrix_csv,
    read_matrix_file,
    write_matrix_file,
)
from .report import (
    AnalysisReport,
    MatrixReport,
    build_matrix_report,
    compare_svg,
    parse_report,
    portrait_svg,
    serialize_report,
    write_contours_csv,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "ContourSet",
    "FormatError",
    "GridSpec",
    "KreissSandwich",
    "Matrix",
    "MatrixContainer",
    "MatrixReport",
    "NonNormalityReport",
    "NumericalError",
    "PseudospectrumField",
    "SchurFactors",
    "SpectoError",
    "StabilizationResult",
    "StabilizerConfig",
    "TrainingDiverged",
    "auto_grid",
    "build_matrix_report",
    "check_levels",
    "commutator_norm",
    "compare_svg",
    "compute_field",
    "container_from_bytes",
    "container_to_bytes",
    "eigenvalues",
    "extract_contours",
    "frobenius_norm",
    "gain_convergence",
    "henrici_number",
    "is_normal",
    "jacobian_norm_bound_check",
    "kreiss_lower_bound",
    "kreiss_sandwich_check",
    "load_matrix_any",
    "mat_power_norms",
    "nonnormality_report",
    "parse_matrix_csv",
    "parse_report",
    "portrait_svg",
    "pseudospectral_radius",
    "read_matrix_file",
    "resolve_workers",
    "schur",
    "schur_departure",
    "serialize_report",
    "sigma_min_at",
    "singular_values",
    "spectral_radius",
    "stabilize",
    "two_norm",
    "write_contours_csv",
    "write_matrix_file",
    "__version__",
]
