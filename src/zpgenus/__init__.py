"""zpgenus: exact Hirzebruch genera of manifolds with Z/p actions.

Given the tangent weights of the fixed points of a Z/p action, the package
computes the genus of the ambient manifold mod p by three independent exact
routes (formal power systems, coefficient extraction against the trace
generating series, and direct cyclotomic traces), checks the Conner-Floyd
style vanishing that realizable weight data must satisfy, and carries a
laboratory of linear actions on complex projective spaces where every value
has a closed form.
"""
from .cyclotomic import ab_trace, theta_minimal_polynomial, trace_theta_power
from .engine import (
    ResidueTuple,
    SubmanifoldComponent,
    SubmanifoldData,
    Thm71Report,
    WeightSet,
    a_series,
    ab_coefficient,
    b_series,
    canonical_residues,
    cf_residuals,
    cpn_weight_set,
    genus_mod_p,
    h_series,
    p_series_term,
    reduce_value,
    submanifold_genus,
    thm71_check,
)
from .errors import (
    BadParams,
    DuplicateResidues,
    EngineError,
    GuardViolation,
    IndexBeyondTruncation,
    NonIntegralAtP,
    NonUnitConstantTerm,
    NonzeroInnerConstant,
    NotReversible,
    RingMismatch,
    UnsupportedClosedForm,
    UnsupportedKind,
    ZeroDivision,
    ZeroWeight,
)
from .genus import (
    CATALOG_KINDS,
    GenusSpec,
    cpn_genus,
    make_genus,
    parse_genus_name,
    power_system,
    power_system_closed,
)
from .rings import (
    DE,
    QQ,
    GradedPoly,
    GradedPolyModP,
    ModP,
    Rational,
    poly_reduce_mod_p,
    poly_to_text,
    rational_reduce_mod_p,
)
from .series import Series, binomial_power, geometric

__version__ = "0.1.0"

# The Legendre checks load on first use, so that a query that does not run them
# does not compile them (PEP 562).
_CPN_NAMES = ("Eq45Report", "Eq46Report", "check_eq45", "check_eq46",
              "homogenized_legendre", "legendre_coeffs", "legendre_value")


def __getattr__(name):
    if name not in _CPN_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import cpn

    globals()[name] = value = getattr(cpn, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_CPN_NAMES))
