"""Projective-space laboratory: linear Z/p actions on CP^n and the
Legendre-polynomial congruences of the elliptic genus.

The weight-set builder (``ResidueTuple``, ``canonical_residues``,
``cpn_weight_set``) lives in :mod:`zpgenus.engine`, so that only the
``legendre`` and ``selftest`` verbs import this module.

A linear Z/p action on CP^n is given by n+1 residues y_0..y_n, distinct
mod p; its fixed points are the n+1 coordinate lines, and the fixed point
number j carries the tangent weights (y_i - y_j) mod p, i != j.  These
weight sets feed the engine and are also where closed-form expected values
live: the genus of CP^n is <g'(u)>_n, and for the elliptic genus the
mod-p values are homogenized Legendre polynomials:

* the full p-series value on CP^{2m} (residues arbitrary) is congruent to
  the homogenization of P_m(t) with deg t = 2 filled by eps = (degree 4);
* the coefficient of u^p in [u]_p is congruent to the homogenization of
  P_{(p-1)/2}, equivalently <p^2 u^p / (u [u]_2 ... [u]_p)>_{p-1} = p X
  with X the (p-1)-st p-series coefficient of the point with weights
  (1, 2, ..., p-1).
"""
from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import comb

from .checks import p_series_term
from .engine import (ResidueTuple, canonical_residues, cpn_weight_set, genus_mod_p,
                     reduce_value)
from .errors import BadParams
from .genus import KIND_ELLIPTIC, cpn_genus, make_genus, power_system
from .graded import GradedPoly, GradedPolyModP, poly_reduce_mod_p
from .rings import _Frozen, require_int, require_odd_prime


# ---------------------------------------------------------------------------
# Legendre polynomials, exact:
# P_m(t) = 2^-m sum_k (-1)^k C(m, k) C(2m - 2k, m) t^(m - 2k).
# ---------------------------------------------------------------------------


def legendre_coeffs(m: int) -> tuple[Fraction, ...]:
    """Coefficients of P_m(t), low degree first, exact over Q."""
    require_int(m, "Legendre index", 0)
    coeffs = [Fraction(0)] * (m + 1)
    for k in range(m // 2 + 1):
        coeffs[m - 2 * k] = Fraction((-1) ** k * comb(m, k) * comb(2 * m - 2 * k, m), 2**m)
    return tuple(coeffs)


def legendre_value(m: int, t: Fraction) -> Fraction:
    t = Fraction(t)
    return sum((c * t**a for a, c in enumerate(legendre_coeffs(m))), Fraction(0))


def homogenized_legendre(m: int) -> GradedPoly:
    """P_m(t) with t^a replaced by delta^a eps^{(m-a)/2}: weighted degree 2m.

    P_m has the parity of m, so m - a is even wherever the coefficient is nonzero.
    """
    return GradedPoly({(a, (m - a) // 2): c for a, c in enumerate(legendre_coeffs(m))})


# ---------------------------------------------------------------------------
# The two elliptic-genus congruence checks.
# ---------------------------------------------------------------------------


class Eq45Report(_Frozen):
    """Elliptic genus of CP^{2m} mod p vs the homogenized Legendre polynomial."""

    def __init__(self, p: int, m: int, residues: tuple[int, ...], pseries_value: GradedPolyModP,
                 legendre_value: GradedPolyModP, cpn_value: GradedPolyModP):
        self._fill(locals())

    @property
    def equal(self) -> bool:
        return self.pseries_value == self.legendre_value

    @property
    def cpn_matches(self) -> bool:
        return self.pseries_value == self.cpn_value

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "m": self.m,
            "residues": list(self.residues),
            "pseries_value": str(self.pseries_value),
            "legendre_value": str(self.legendre_value),
            "cpn_value": str(self.cpn_value),
            "equal": self.equal,
            "cpn_matches": self.cpn_matches,
        }


def check_eq45(
    p: int,
    residues: Sequence[int] | None = None,
    m: int | None = None,
) -> Eq45Report:
    """Compare the elliptic p-series value on CP^{2m} with homogenized P_m.

    Give either explicit residues (2m+1 of them) or m (canonical residues
    0..2m are used).  The genus value on CP^{2m} computed from the logarithm
    is carried along as a cross-check.  Both read coefficient n = 2m, so the
    genus is built to order n+1.
    """
    require_odd_prime(p)
    if m is not None:
        require_int(m, "m", 0)
    if residues is None:
        if m is None:
            raise BadParams("check_eq45 needs residues or m")
        rt = canonical_residues(p, 2 * m)
    else:
        rt = ResidueTuple(p, tuple(residues))
        if rt.n % 2:
            raise BadParams(f"check_eq45 needs even n, got n = {rt.n}")
        if m is not None and 2 * m != rt.n:
            raise BadParams(f"m = {m} (n = {2 * m}) contradicts n = {rt.n} of the residues")
        m = rt.n // 2
    n = 2 * m
    w = cpn_weight_set(rt)
    g = make_genus(KIND_ELLIPTIC, max(n + 1, 2))
    lhs = genus_mod_p(g, w, route="pseries")
    rhs = poly_reduce_mod_p(homogenized_legendre(m), p)
    cpn_val = reduce_value(cpn_genus(g, n), p)
    return Eq45Report(
        p=p,
        m=m,
        residues=rt.residues,
        pseries_value=lhs,
        legendre_value=rhs,
        cpn_value=cpn_val,
    )


class Eq46Report(_Frozen):
    """The u^p coefficient of the elliptic [u]_p mod p vs homogenized P_{(p-1)/2}."""

    def __init__(self, p: int, m: int, scaled_term: GradedPolyModP, legendre_value: GradedPolyModP,
                 power_system_u_p: GradedPolyModP, low_coeffs_vanish: bool, eps_one_equal: bool):
        self._fill(locals())

    @property
    def equal(self) -> bool:
        return self.scaled_term == self.legendre_value

    @property
    def power_system_matches(self) -> bool:
        return self.power_system_u_p == self.legendre_value

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "m": self.m,
            "scaled_term": str(self.scaled_term),
            "legendre_value": str(self.legendre_value),
            "power_system_u_p": str(self.power_system_u_p),
            "equal": self.equal,
            "power_system_matches": self.power_system_matches,
            "low_coeffs_vanish": self.low_coeffs_vanish,
            "eps_one_equal": self.eps_one_equal,
        }


# The largest p of check_eq46, whose elliptic series run through the generic
# Q[delta, eps] loop at order p: 2.8-3.5 s at p = 37 and 4.1-5.0 s at 41, where
# composing a factor u/[u]_x per weight took 3.3-4.0 s at p = 23 (Python 3.11,
# one core of a shared x86-64 host, fresh processes).
EQ46_MAX_P = 37


def check_eq46(p: int) -> Eq46Report:
    """Check p * <(p u/[u]_p) u^{p-1}/([u]_1...[u]_{p-1})>_{p-1} ≡ P-hom mod p.

    The single p-series coefficient X at the point with weights (1,...,p-1)
    is not itself p-integral, but p X is, and reduces to the homogenized
    Legendre polynomial P_{(p-1)/2}.  Equivalently the coefficient of u^p in
    [u]_p reduces to the same polynomial while the coefficients of
    u^1..u^{p-1} reduce to zero; both the fully homogenized comparison and
    its eps = 1 specialization are reported.  X is read in the coordinate
    u = f(z), which composes no series, and [u]_p/u through u^{p-1} from [u]_p
    composed once, so the genus is built to order p.
    """
    require_odd_prime(p)
    if p > EQ46_MAX_P:
        raise BadParams(f"the u^p check needs p <= EQ46_MAX_P = {EQ46_MAX_P}, got {p}")
    m = (p - 1) // 2
    g = make_genus(KIND_ELLIPTIC, p)
    x = p_series_term(g, p, tuple(range(1, p)), p - 1)
    scaled = poly_reduce_mod_p(x * p, p)
    rhs = poly_reduce_mod_p(homogenized_legendre(m), p)

    ps_over_u = power_system(g, p, p).shift_down(1)  # coefficient k is that of u^{k+1} in [u]_p
    u_p = poly_reduce_mod_p(ps_over_u[p - 1], p)
    low_ok = all(poly_reduce_mod_p(ps_over_u[k], p).is_zero() for k in range(p - 1))

    eps_lhs = poly_reduce_mod_p(ps_over_u[p - 1].substitute_eps(1), p)
    eps_rhs = poly_reduce_mod_p(homogenized_legendre(m).substitute_eps(1), p)
    return Eq46Report(
        p=p,
        m=m,
        scaled_term=scaled,
        legendre_value=rhs,
        power_system_u_p=u_p,
        low_coeffs_vanish=low_ok,
        eps_one_equal=eps_lhs == eps_rhs,
    )
