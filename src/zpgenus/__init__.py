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
from .engine import (ResidueTuple, WeightSet, b_series, canonical_residues, cf_residuals,
                     cpn_weight_set, genus_mod_p, reduce_value)
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
from .rings import QQ, ModP, Rational, rational_reduce_mod_p
from .series import Series, binomial_power

__version__ = "0.1.0"

# Code that only some queries run loads on first use of one of its names, so that
# a query which does not run it does not compile it (PEP 562): name -> the module
# that defines it, the one other home of the name.
_ON_DEMAND = {
    **dict.fromkeys(("DE", "GradedPoly", "GradedPolyModP", "poly_reduce_mod_p", "poly_to_text"),
                    "graded"),
    **dict.fromkeys(("SubmanifoldComponent", "SubmanifoldData", "Thm71Report", "ab_coefficient",
                     "h_series", "p_series_term", "submanifold_genus", "thm71_check"), "checks"),
    **dict.fromkeys(("Eq45Report", "Eq46Report", "check_eq45", "check_eq46",
                     "homogenized_legendre", "legendre_coeffs", "legendre_value"), "cpn"),
}


def __getattr__(name):
    """An on-demand name, read from its module and then kept as a plain attribute."""
    if name not in _ON_DEMAND:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    globals()[name] = value = getattr(import_module(f"{__name__}.{_ON_DEMAND[name]}"), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_ON_DEMAND))
