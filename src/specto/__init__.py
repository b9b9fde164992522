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
    mat_power_norms,
    schur,
    singular_values,
    spectral_radius,
    two_norm,
)
from .nonnormality import (
    NonNormalityReport,
    henrici_number,
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
    kreiss_lower_bound,
    kreiss_sandwich_check,
    pseudospectral_radius,
    resolve_workers,
    sigma_min_at,
)
from .stabilizer import StabilizationResult, StabilizerConfig, stabilize
from .containers import (
    MatrixContainer,
    container_from_bytes,
    container_to_bytes,
    load_matrix_any,
    parse_matrix_csv,
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
    "compare_svg",
    "compute_field",
    "container_from_bytes",
    "container_to_bytes",
    "eigenvalues",
    "extract_contours",
    "henrici_number",
    "kreiss_lower_bound",
    "kreiss_sandwich_check",
    "load_matrix_any",
    "mat_power_norms",
    "nonnormality_report",
    "parse_matrix_csv",
    "parse_report",
    "portrait_svg",
    "pseudospectral_radius",
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
