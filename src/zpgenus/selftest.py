"""The ``selftest`` battery: quick cross-checks of the three routes, the B- and
h-series, the elliptic genus, the closed-form power systems and the Legendre
congruences, each on a small case.  Only the ``selftest`` verb imports it.
"""
from __future__ import annotations

from fractions import Fraction

from .checks import h_series
from .cpn import check_eq45, check_eq46
from .cyclotomic import theta_minimal_polynomial, trace_theta_power
from .engine import ROUTES, b_series, canonical_residues, cpn_weight_set, genus_mod_p
from .genus import make_genus, parse_genus_name, power_system, power_system_closed
from .rings import rational_reduce_mod_p


def battery():
    """(name, check) pairs; a check returns True when it passes."""
    yield "todd_cp2_p5_routes_agree", lambda: _routes_agree("td", 5, 2, "1")
    yield "euler_cp3_p7_value", lambda: _routes_agree("euler", 7, 3, "4")
    yield "l_genus_cp3_p7_zero", lambda: _routes_agree("L", 7, 3, "0")
    yield "chi2_cp2_p7_value", lambda: _routes_agree(
        "chi_y:2", 7, 2, str(rational_reduce_mod_p(Fraction(1 + 2**3, 3), 7))
    )
    yield "ahat_bseries_matches_traces_p5", lambda: all(
        b_series("a_hat", 5, 6)[s] == trace_theta_power("a_hat", 5, -s)
        for s in range(5)
    )
    yield "ahat_minimal_polynomial_p5", _ahat_p5_minimal_polynomial_vanishes
    yield "h_todd_p5_is_1_minus_u", lambda: h_series("todd", 5, 6).to_text() == "1 + (-1)*u"
    yield "elliptic_cp2_p5_delta", lambda: str(
        genus_mod_p(
            make_genus("elliptic", 9),
            cpn_weight_set(canonical_residues(5, 2)),
            "pseries",
        )
    ) == "1*delta"
    yield "power_system_closed_matches_generic", lambda: all(
        power_system(make_genus(kind, 8, y), m)
        == power_system_closed(kind, m, 8, y)
        for kind, y in [("todd", None), ("l_genus", None), ("a_hat", None)]
        for m in (2, 3)
    )
    yield "eq45_p5_m1", lambda: check_eq45(5, m=1).equal
    yield "eq46_p5", lambda: check_eq46(5).equal


def _ahat_p5_minimal_polynomial_vanishes() -> bool:
    # theta generates Q(zeta_5) and the trace form is nondegenerate, so P(theta) = 0
    # iff Tr(P(theta) theta^j) = 0 for j < 4
    P = theta_minimal_polynomial("a_hat", 5)
    return all(
        sum(c * trace_theta_power("a_hat", 5, i + j) for i, c in enumerate(P)) == 0
        for j in range(4)
    )


def _routes_agree(name: str, p: int, n: int, expected: str) -> bool:
    w = cpn_weight_set(canonical_residues(p, n))
    kind, y = parse_genus_name(name)
    g = make_genus(kind, 2, y)
    vals = [str(genus_mod_p(g, w, route=r)) for r in ROUTES]
    return all(v == expected for v in vals)
