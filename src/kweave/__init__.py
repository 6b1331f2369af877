"""kweave: frames, K-frames, and weaving certification in C^d.

The package certifies whether families of finite frames can be woven —
mixed column-by-column according to arbitrary partitions — while
remaining K-frames with uniform bounds, and provides the supporting
machinery: optimal lower K-frame bounds in closed form with a PSD
feasibility check, range-inclusion factorization, and a perturbation
sufficiency bound with exhaustive cross-validation.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .errors import (
    CapExceeded,
    DimTooSmall,
    HypothesesViolated,
    InvalidInput,
    InvalidPartition,
    KweaveError,
    NearSingularWarning,
    NotHermitian,
    NotSquare,
    ShapeMismatch,
    ZeroK,
    ZeroOperator,
)
from .linalg import (
    SpectralSummary,
    operator_norm,
    pseudo_inverse,
    smallest_positive_singular,
    spectral_bounds,
)
from .frames import (
    BoundsPair,
    Frame,
    frame_bounds,
    frame_operator,
    is_frame,
)
from .kframe import (
    DouglasReport,
    KFrameReport,
    KOperator,
    douglas_check,
    is_kframe,
    kframe_lower_bound,
)
from .weaving import (
    Partition,
    WeavingReport,
    WeavingTable,
    certify_woven,
    weaving_bound_table,
    weaving_family,
)
from .perturbation import (
    OrthogonalityCheck,
    PerturbationReport,
    check_orthogonal_alpha,
    perturbation_certify,
    perturbation_condition,
)
from .generators import PaperExample, paper_example

__all__ = [
    "__version__",
    # errors
    "KweaveError", "NotSquare", "NotHermitian", "ShapeMismatch",
    "ZeroOperator", "ZeroK", "InvalidPartition", "CapExceeded",
    "HypothesesViolated", "DimTooSmall", "InvalidInput", "NearSingularWarning",
    # linalg
    "SpectralSummary", "spectral_bounds", "operator_norm",
    "pseudo_inverse", "smallest_positive_singular",
    # frames
    "Frame", "BoundsPair", "frame_operator", "frame_bounds", "is_frame",
    # kframe
    "KOperator", "KFrameReport", "DouglasReport", "kframe_lower_bound",
    "is_kframe", "douglas_check",
    # weaving
    "Partition", "WeavingReport", "WeavingTable", "weaving_family",
    "certify_woven", "weaving_bound_table",
    # perturbation
    "PerturbationReport", "OrthogonalityCheck", "check_orthogonal_alpha",
    "perturbation_condition", "perturbation_certify",
    # generators
    "PaperExample", "paper_example",
]
