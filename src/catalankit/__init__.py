"""Catalan-type constants by several independent representations.

The package computes three related families: the plain Catalan numbers,
a two-parameter deformation C2(n; a, b), and its fractional-order
extension cf(n; a, b, p), together with the auxiliary series Q(n, y, p)
the extension rests on. Every quantity has multiple closed forms plus
two oracle routes (adaptive half-line quadrature, generating-function
power series); the `catalankit` CLI cross-validates them.

Exact arithmetic is used whenever the inputs allow it: rational a, b, p
with rational sqrt(b) or b^p produce Fraction results.
"""

from .catalan2 import (
    LegendreVariant,
    Normalization,
    c2_double_factorial_sum,
    c2_gf_coefficient,
    c2_hyp_closed,
    c2_hyp_unbounded,
    c2_jacobi,
    c2_legendre,
    c2_quadrature,
    c2_table_check,
    printed_table_value,
)
from .exact import (
    Polynomial,
    RationalFunction,
    catalan,
    catalan_formulas,
    catalan_stream,
    double_factorial,
    exact_pow,
    exact_sqrt,
    falling_factorial,
    geometric_polynomial,
    polylog_neg,
    rising_factorial,
    stirling_first,
    stirling_second,
)
from .functional import (
    cf_double_sum,
    cf_half_reduction_check,
    cf_quadrature,
    cf_series,
    cf_series_as_printed,
    cf_series_detailed,
    cf_via_q,
)
from .hyper import (
    HypConvergenceError,
    HypergeometricError,
    assoc_legendre_p,
    gauss_2f1,
    jacobi_p,
    pfq_series,
)
from .qfunc import (
    q_hyp,
    q_polylog,
    q_rational,
    q_rational_recurrence,
    q_recurrence_value,
    q_series,
    q_stirling,
    zform_bracket,
)
from .quad import (
    HalflineIntegrand,
    QuadResult,
    QuadratureError,
    beta_halfline,
    integrate_halfline,
)
from .series import PowerSeries, gf_catalan, gf_catalan2

__version__ = "0.1.0"

__all__ = [
    "LegendreVariant",
    "Normalization",
    "c2_double_factorial_sum",
    "c2_gf_coefficient",
    "c2_hyp_closed",
    "c2_hyp_unbounded",
    "c2_jacobi",
    "c2_legendre",
    "c2_quadrature",
    "c2_table_check",
    "printed_table_value",
    "Polynomial",
    "RationalFunction",
    "catalan",
    "catalan_formulas",
    "catalan_stream",
    "double_factorial",
    "exact_pow",
    "exact_sqrt",
    "falling_factorial",
    "geometric_polynomial",
    "polylog_neg",
    "rising_factorial",
    "stirling_first",
    "stirling_second",
    "cf_double_sum",
    "cf_half_reduction_check",
    "cf_quadrature",
    "cf_series",
    "cf_series_as_printed",
    "cf_series_detailed",
    "cf_via_q",
    "HypConvergenceError",
    "HypergeometricError",
    "assoc_legendre_p",
    "gauss_2f1",
    "jacobi_p",
    "pfq_series",
    "q_hyp",
    "q_polylog",
    "q_rational",
    "q_rational_recurrence",
    "q_recurrence_value",
    "q_series",
    "q_stirling",
    "zform_bracket",
    "HalflineIntegrand",
    "QuadResult",
    "QuadratureError",
    "beta_halfline",
    "integrate_halfline",
    "PowerSeries",
    "gf_catalan",
    "gf_catalan2",
    "__version__",
]
