"""Exact extrema of Takagi-class fractal functions and Littlewood root scans.

The package computes global maximizers and minimizers of functions
f(t) = sum_m c_m tent(2^m t) through greedy +-1 digit recursions with exact
arithmetic, classifies the extremizer set (finite count or perfect set with
its Hausdorff dimension), and enumerates real roots and step roots of
Littlewood polynomials, cross-checked by an independent dyadic-grid oracle.
"""

from .evaluate import (
    CoefficientSequence,
    Custom,
    DomainError,
    DyadicRational,
    FiniteSupport,
    Geometric,
    PowerSquared,
    SignSequence,
    T_map,
    eval_from_rademacher,
    eval_periodic,
    eval_series,
    eval_truncated,
    rademacher_of,
    t_map_fraction,
    tent,
)
from .landsberg import (
    AlphaRegime,
    LittlewoodNegRoot,
    classify_alpha,
    maxima,
    minima,
    solve_alpha_n,
    solve_xn,
    tabor_C,
    tau_curve,
)
from .littlewood import (
    LittlewoodPoly,
    RootRecord,
    ScanSummary,
    is_step_root,
    rational_root_filter,
    real_roots,
    scan,
)
from .scalars import (
    AlgebraicScalar,
    IntervalScalar,
    PrecisionError,
    RationalScalar,
    Scalar,
    SignResult,
    algebraic,
    eval_int_poly,
    interval,
    rational,
    refine,
    same_root,
    scalar_add,
    scalar_decimal,
    scalar_div,
    scalar_enclosure,
    scalar_eq,
    scalar_inverse,
    scalar_is_zero,
    scalar_mul,
    scalar_neg,
    scalar_pow,
    scalar_sign,
    scalar_sub,
    scalar_to_json,
)
from .step_engine import (
    AbortUnresolved,
    Cardinality,
    ExtremaReport,
    StepTrace,
    build_lambda,
    build_rho,
    check_step_condition,
    classify_extrema,
    nonneg_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
