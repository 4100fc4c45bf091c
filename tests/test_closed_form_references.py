"""Closed formulas against the series compositions they replace.

``Series.revert`` (Lagrange inversion), ``b_series`` (((p-1)P - uP')/P from
the minimal polynomial P of theta), the a_hat minimal polynomial (Lucas
coefficients) and ``h_series`` (p(1 - u/[u]_p)/B) must give exactly the values
of the composition-based constructions copied below as references.
"""
import os
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from math import comb
from pathlib import Path

import pytest
from reference_series import arcsinh_u_over_2, sinh_series

import zpgenus
from zpgenus.checks import h_series
from zpgenus.cyclotomic import theta_minimal_polynomial
from zpgenus.engine import b_series
from zpgenus.errors import BadParams
from zpgenus.genus import make_genus, power_system
from zpgenus.graded import GradedPoly
from zpgenus.rings import QQ
from zpgenus.series import Series, binomial_power

PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
CHI_YS = (F(2), F(-1, 2), F(1, 3), F(-3))


# ---------------------------------------------------------------------------
# The references.
# ---------------------------------------------------------------------------


def ref_revert(a: Series) -> Series:
    """Back-substitution: b_k follows from the u^k coefficient of a(b(u))."""
    n = a.order
    inv_a1 = a.ring.invert(a.coeffs[1])
    zero = a.ring.zero
    b = [zero, inv_a1]
    for k in range(2, n + 1):
        partial = Series(a.ring, b, k)
        c = a.truncate(k).compose(partial).coeffs[k]
        b.append(-(c * inv_a1) if c else zero)
    return Series(a.ring, b, n)


def ref_b_series(kind, p, order, y=None) -> Series:
    """B from p((1+yu)^{p-1} - (1-u)^{p-1})/((1+yu)^p - (1-u)^p), or for
    a_hat p sinh((p-1)t)/(sqrt(1+u^2/4) sinh(pt)) with t = arcsinh(u/2)."""
    work = order + 1
    if kind == "a_hat":
        t = arcsinh_u_over_2(work)
        sh = sinh_series(QQ, work)
        num = sh.compose(t.scale(p - 1)).scale(p)
        root = binomial_power(Series.from_fractions(QQ, [0, 0, F(1, 4)], work), F(1, 2))
        den = root * sh.compose(t.scale(p))
    else:
        y_eff = {"todd": F(0), "l_genus": F(1)}.get(kind, y)
        one = Series.one(QQ, work)
        u = Series.identity(QQ, work)
        plus = one + u.scale(y_eff)
        minus = one - u
        num = (plus ** (p - 1) - minus ** (p - 1)).scale(p)
        den = plus**p - minus**p
    return num.divide(den)


def ref_ahat_minimal_polynomial(p):
    """2 sinh(p arcsinh(u/2))/u, read off a composition."""
    order = p + 4
    t = arcsinh_u_over_2(order)
    poly = sinh_series(QQ, order).compose(t.scale(p)).scale(2).shift_down(1)
    assert all(not poly[k] for k in range(p, poly.order + 1))
    return tuple(poly[k] for k in range(p))


def ref_h_series(kind, p, order, y=None) -> Series:
    """p([u]_p - u)/(B [u]_p) with [u]_p composed on a genus of order n + 2."""
    work = order + 1
    g = make_genus(kind, work + 1, y)
    ps_p = power_system(g, p, work)
    num = (ps_p - Series.identity(QQ, work)).scale(p)
    den = ref_b_series(kind, p, work, y).truncate(work) * ps_p
    return num.divide(den)


def _theta_kinds(p):
    """(kind, y) for every B-series kind, chi_y only where y is admissible at p."""
    out = [("todd", None), ("l_genus", None), ("a_hat", None)]
    for y in CHI_YS:
        if y.denominator % p and (1 + y).numerator % p:
            out.append(("chi_y", y))
    return out


def _identical(a: Series, b: Series):
    assert a.order == b.order
    assert a.coeffs == b.coeffs
    assert [type(c) for c in a.coeffs] == [type(c) for c in b.coeffs]


# ---------------------------------------------------------------------------
# The comparisons.
# ---------------------------------------------------------------------------


def test_revert_matches_back_substitution():
    rng = random.Random(2718)
    # the reference slows fast with height: 100-bit order 20 alone costs seconds
    for bits, top in ((3, 20), (100, 14)):
        for n in range(1, top + 1):

            def coeff():
                return F(rng.randint(-(2**bits), 2**bits), rng.randint(1, 2**bits))

            a1 = coeff() or F(1)
            a = Series(QQ, [F(0), a1] + [coeff() for _ in range(n - 1)], n)
            _identical(a.revert(), ref_revert(a))
    custom = Series.from_fractions(QQ, [0, 1, F(-2, 7), F(5, 3), 0, F(-11, 2), F(1, 9)], 6)
    _identical(custom.revert(), ref_revert(custom))
    elliptic = make_genus("elliptic", 12).logarithm
    got, want = elliptic.revert(), ref_revert(elliptic)
    _identical(got, want)
    assert all(isinstance(c, GradedPoly) for c in got.coeffs)


def test_b_series_matches_composition():
    for p in PRIMES:
        for kind, y in _theta_kinds(p):
            want = ref_b_series(kind, p, 12, y)
            for order in range(13):
                got = b_series(kind, p, order, y)
                _identical(got, want.truncate(order))
                if order in (0, 5):
                    _identical(got, ref_b_series(kind, p, order, y))
    with pytest.raises(BadParams):
        b_series("chi_y", 3, 4, F(2))  # 1 + y ≡ 0 mod 3


def ref_chi_minimal_polynomial(p, y):
    """((1+y u)^p - (1-u)^p)/((1+y) u), coefficient by coefficient."""
    scale = 1 / (1 + y)
    return tuple(comb(p, k) * (y**k - F(-1) ** k) * scale for k in range(1, p + 1))


def test_minimal_polynomials_match_references():
    for p in PRIMES:
        got = theta_minimal_polynomial("a_hat", p)
        assert got == ref_ahat_minimal_polynomial(p)
        assert all(type(c) is F for c in got)
        for kind, y in _theta_kinds(p):
            if kind != "a_hat":
                y_eff = {"todd": F(0), "l_genus": F(1)}.get(kind, y)
                assert theta_minimal_polynomial(kind, p, y) == ref_chi_minimal_polynomial(p, y_eff)


def test_h_series_matches_composition():
    for p in (3, 5, 7, 11, 13):
        for kind, y in _theta_kinds(p):
            for n in range(9):
                _identical(h_series(kind, p, n, y), ref_h_series(kind, p, n, y))


def _cli_within(argv, seconds):
    """Run the CLI in a fresh interpreter, killed (TimeoutExpired) after ``seconds``."""
    src = Path(zpgenus.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "zpgenus", *argv, "--format", "json"],
        env=env, capture_output=True, text=True, timeout=seconds,
    )
    assert proc.returncode == 0, proc.stderr
    return time.perf_counter() - start


@pytest.mark.parametrize("genus, residues", [("chi_y:2", "0,1,2"), ("ahat", "0,1,2,3")])
def test_large_p_reads_few_minimal_polynomial_coefficients(genus, residues):
    # P has degree p - 1 = 100002, but the ab route and thm71 read it through u^n
    for verb, extra in (("compute", ["--route", "ab"]), ("thm71", [])):
        argv = [verb, "--genus", genus, "--p", "100003", "--residues", residues, *extra]
        assert _cli_within(argv, 2.0) < 2.0
