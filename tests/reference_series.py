"""Series references that the package no longer builds: the hyperbolic series
behind the a_hat closed forms, and the Legendre polynomials expanded from their
generating function over Q[delta, eps].  Tests compare the package's closed
formulas against them.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Tuple

from zpgenus.rings import DE, QQ, GradedPoly
from zpgenus.series import Series, binomial_power


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
