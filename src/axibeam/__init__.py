"""axibeam: dimension-generic axisymmetric directivity and panning design.

Evaluate ultraspherical polynomials for any real dimension 2 <= D <= 64, generate
the classic Ambisonic order-weighting designs (basic/max-DI, max-rE,
supercardioid, inphase, max-flat, spherical caps), compute their
P/E/Q/rV/rE/FBR metrics both analytically and by quadrature, and verify
circular and spherical t-design node sets.
"""

from .designs import (
    MaxReSolution,
    Normalization,
    WeightVector,
    basic,
    cap,
    cap_trapezoid,
    inphase,
    max_re,
    maxflat,
    supercardioid,
    supercardioid_approx,
)
from .errors import (
    AxibeamError,
    DomainError,
    InvalidFlatness,
    NormError,
    ParseError,
    RangeWarning,
    ZeroPressure,
)
from .metrics import PatternMetrics, compute_metrics, compute_metrics_numeric, eval_pattern
from .quadrature import GramMatrix, gram_front, integrate_axisym, transform_coeffs
from .sampling import (
    DiscreteMetrics,
    NodeSet,
    TDesignReport,
    circle_nodes,
    discrete_metrics,
    load_nodes,
    platonic,
    tdesign_check,
)
from .ultraspherical import (
    Dimension,
    beta_coeff,
    cd_kernel,
    derivative,
    eval_sequence,
    norm_squared,
    norm_squared_gamma,
    norms_squared,
    power_series_coeffs,
    surface_area,
    value_at_zero,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "AxibeamError",
    "Dimension",
    "DiscreteMetrics",
    "DomainError",
    "GramMatrix",
    "InvalidFlatness",
    "MaxReSolution",
    "NodeSet",
    "NormError",
    "Normalization",
    "ParseError",
    "PatternMetrics",
    "RangeWarning",
    "TDesignReport",
    "WeightVector",
    "ZeroPressure",
    "basic",
    "beta_coeff",
    "cap",
    "cap_trapezoid",
    "cd_kernel",
    "circle_nodes",
    "compute_metrics",
    "compute_metrics_numeric",
    "derivative",
    "discrete_metrics",
    "eval_pattern",
    "eval_sequence",
    "gram_front",
    "inphase",
    "integrate_axisym",
    "load_nodes",
    "max_re",
    "maxflat",
    "norm_squared",
    "norm_squared_gamma",
    "norms_squared",
    "platonic",
    "power_series_coeffs",
    "supercardioid",
    "supercardioid_approx",
    "surface_area",
    "tdesign_check",
    "transform_coeffs",
    "value_at_zero",
]
