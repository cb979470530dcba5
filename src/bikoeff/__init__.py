"""Coefficient bounds for bi-univalent function classes, with a sampling oracle."""

from .bounds import (
    BoundBreakdown,
    DegenerateBoundError,
    SS_BETA_A5_VARIANTS,
    ST_RHO_A5_VARIANTS,
    ali_singh_a5,
    baseline_starlike_an,
    class_bounds,
    m_bounds,
    ss_beta_a5,
    st_bounds,
    st_rho_a5,
)
from .caratheodory import (
    AtomicMeasure,
    CaratheodoryTuple,
    MeasureSampler,
    from_atoms,
    is_admissible,
    sample,
    smallest_eigenvalue,
    toeplitz_matrix,
)
from .classes import (
    ClassSpec,
    MindaGenerator,
    SpecParseError,
    ZeroPivotError,
    apply_operator,
    implied_q,
    janowski_coeffs,
    order_coeffs,
    parse_spec,
    solve_coefficients,
    strong_coeffs,
    subordination_target,
)
from .oracle import (
    A5Report,
    OracleError,
    OracleReport,
    SearchConfig,
    check_a5_system,
    fit_atoms,
    fit_residual,
    max_coeff,
)
from .series import (
    CoefficientVector,
    SeriesError,
    SeriesKindError,
    TruncatedSeries,
    compose,
    disk_to_halfplane,
    mobius_to_disk,
    pow_real,
    revert,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
