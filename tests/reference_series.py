"""Series references that the package no longer builds: the hyperbolic series
behind the a_hat closed forms, the Legendre polynomials expanded from their
generating function over Q[delta, eps], and the fixed-point factors u/[u]_m in
the coordinate u, each from its power system [u]_m = f(m g(u)).  Tests compare
the package's closed formulas, and its routes in the coordinate u = f(z),
against them.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Sequence, Tuple

from zpgenus.errors import BadParams
from zpgenus.genus import GenusSpec, ensure_order, power_system
from zpgenus.graded import DE, GradedPoly
from zpgenus.rings import QQ, require_odd_prime
from zpgenus.series import Series, binomial_power


@lru_cache(maxsize=4096)
def power_factor(g: GenusSpec, m: int, order: int) -> Series:
    """u/[u]_m through u^order (the genus needs order + 1), one compose and one
    inversion, memoized per (genus, m, order) in a bounded lru_cache."""
    return power_system(g, m, order + 1).shift_down(1).invert()


def a_series(g: GenusSpec, weights: Sequence[int], order: int) -> Series:
    """A(u) = prod_k u/[u]_{x_k} at the given order; empty product is 1.

    Weights are used literally as power-system indices (positive integers);
    congruent representatives give mod-p congruent final answers.
    """
    g = ensure_order(g, order + 1)
    acc = None
    for x in weights:
        if not isinstance(x, int) or x < 1:
            raise BadParams(f"a_series weights must be ints >= 1, got {x!r}")
        if x != 1:  # u/[u]_1 is exactly 1
            factor = power_factor(g, x, order)
            acc = factor if acc is None else acc * factor
    return Series.one(g.ring, order) if acc is None else acc


def p_power_factor(g: GenusSpec, p: int, order: int) -> Series:
    """p*u/[u]_p at the given order; its constant term is 1."""
    require_odd_prime(p)
    g = ensure_order(g, order + 1)
    return power_factor(g, p, order).scale(p)


def sinh_series(ring, order: int) -> Series:
    return Series(
        ring,
        [
            ring.from_fraction(Fraction(1, factorial(k))) if k % 2 else ring.zero
            for k in range(order + 1)
        ],
    )


def cosh_series(ring, order: int) -> Series:
    return Series(
        ring,
        [
            ring.zero if k % 2 else ring.from_fraction(Fraction(1, factorial(k)))
            for k in range(order + 1)
        ],
    )


def arcsinh_u_over_2(order: int) -> Series:
    """t(u) = arcsinh(u/2) over Q; the a_hat logarithm is 2t."""
    w = Series.from_fractions(QQ, [0, 0, Fraction(1, 4)], order - 1)
    return binomial_power(w, Fraction(-1, 2)).integrate().scale(Fraction(1, 2))


def legendre_coeffs_by_expansion(m: int) -> Tuple[Fraction, ...]:
    """Coefficients of P_m(t), low degree first, read off
    (1 - 2tu + u^2)^{-1/2} = sum_m P_m(t) u^m with delta standing in for t."""
    w = Series(
        DE,
        [GradedPoly.zero(), GradedPoly.delta() * Fraction(-2), GradedPoly.one()],
        max(m, 1),
    )
    poly = binomial_power(w, Fraction(-1, 2))[m]
    coeffs = [Fraction(0)] * (m + 1)
    for (a, b), c in poly.terms.items():
        assert b == 0, "an eps term in a Legendre expansion"
        coeffs[a] = c
    return tuple(coeffs)
