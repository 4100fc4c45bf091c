"""Acceptance battery: fifteen exact cross-validation criteria.

Each criterion reports one verdict line 'ACCEPTANCE <k>: <label>: PASS|FAIL',
printed in the terminal summary by the conftest hook so it stays visible
under pytest's output capture.  All arithmetic is exact; every comparison is
strict equality of residues, rationals, or graded polynomials.
"""
import functools
import random
from fractions import Fraction as F

import pytest
from conftest import record_acceptance
from reference_cyclotomic import evaluate_at_theta, reference_trace_theta_power, theta_of
from reference_series import arcsinh_u_over_2, cosh_series, sinh_series

from zpgenus.checks import (SubmanifoldComponent, SubmanifoldData, ab_coefficient, h_series,
                            submanifold_genus, thm71_check)
from zpgenus.cpn import check_eq45, check_eq46
from zpgenus.cyclotomic import ab_trace, theta_minimal_polynomial, trace_theta_power
from zpgenus.engine import (WeightSet, b_series, canonical_residues, cf_residuals, cpn_weight_set,
                            genus_mod_p, reduce_value)
from zpgenus.errors import BadParams
from zpgenus.genus import cpn_genus, make_genus, power_system, power_system_closed
from zpgenus.graded import DE, GradedPoly, poly_reduce_mod_p
from zpgenus.rings import QQ, ModP, rational_reduce_mod_p
from zpgenus.series import Series

ROUTES = ("pseries", "ab", "trace")
# the kinds whose theta routes exist; chi_y(2) degenerates at p = 3 and the
# acceptance stance there is mutual refusal by both theta routes
THETA_CASES = (("todd", None), ("l_genus", None), ("chi_y", F(2)), ("a_hat", None))


def criterion(num, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                record_acceptance(num, label, False)
                raise
            record_acceptance(num, label, True)

        return run

    return wrap


def _random_weight_set(rng, p, n, q):
    return WeightSet(
        p=p, n=n, points=tuple(tuple(rng.randint(1, p - 1) for _ in range(n)) for _ in range(q))
    )


def _cpn_set(p, n):
    return cpn_weight_set(canonical_residues(p, n))


@criterion(1, "todd genus of CP^n is 1 mod p by all three routes")
def test_acceptance_01_todd_on_projective_spaces():
    for p in (5, 7, 11):
        for n in (1, 2, 3, 4):
            w = _cpn_set(p, n)
            g = make_genus("todd", p + 2)
            for route in ROUTES:
                assert genus_mod_p(g, w, route) == ModP(1, p), (p, n, route)


@criterion(2, "euler number: n+1 on CP^n, and q mod p on arbitrary weight sets")
def test_acceptance_02_euler_counts_fixed_points():
    for p in (5, 7, 11):
        for n in (1, 2, 3, 4):
            w = _cpn_set(p, n)
            g = make_genus("euler", p + 2)
            for route in ROUTES:
                assert genus_mod_p(g, w, route) == ModP(n + 1, p), (p, n, route)
    rng = random.Random(102)
    g = make_genus("euler", 12)
    for p in (3, 5, 7):
        for _ in range(10):
            w = _random_weight_set(rng, p, rng.randint(1, 4), rng.randint(0, 2 * p))
            assert genus_mod_p(g, w, "ab") == ModP(w.q, p)


@criterion(3, "signature parity: l_genus on CP^n is 1 for even n, 0 for odd n")
def test_acceptance_03_l_genus_parity():
    for p in (5, 7, 11):
        for n in (1, 2, 3, 4):
            w = _cpn_set(p, n)
            g = make_genus("l_genus", p + 2)
            want = ModP(1 if n % 2 == 0 else 0, p)
            for route in ROUTES:
                assert genus_mod_p(g, w, route) == want, (p, n, route)


@criterion(4, "chi_y on CP^n matches (1+(-1)^n y^(n+1))/(1+y) and todd/l_genus at y=0/1")
def test_acceptance_04_chi_y_family():
    for p in (5, 7, 11):
        for n in (1, 2, 3, 4):
            w = _cpn_set(p, n)
            order = p + 2
            for y in (F(0), F(1), F(2), F(-2)):
                g = make_genus("chi_y", order, y)
                want = rational_reduce_mod_p((1 + F(-1) ** n * y ** (n + 1)) / (1 + y), p)
                assert genus_mod_p(g, w, "pseries") == want, (p, n, y)
            assert genus_mod_p(make_genus("chi_y", order, F(0)), w, "pseries") == genus_mod_p(
                make_genus("todd", order), w, "pseries"
            )
            assert genus_mod_p(make_genus("chi_y", order, F(1)), w, "pseries") == genus_mod_p(
                make_genus("l_genus", order), w, "pseries"
            )


@criterion(5, "coefficient route is congruent to the trace route on random weight tuples")
def test_acceptance_05_ab_coefficient_vs_trace():
    rng = random.Random(105)
    for kind, y in THETA_CASES:
        per_prime = 100 if kind == "chi_y" else 67
        checked = 0
        for p in (3, 5, 7):
            if kind == "chi_y" and p == 3:
                # 1 + y ≡ 0 mod 3: both routes must refuse this parameter
                with pytest.raises(BadParams):
                    ab_coefficient(make_genus("chi_y", 8, y), 3, (1,))
                with pytest.raises(BadParams):
                    ab_trace("chi_y", 3, (1,), y)
                continue
            g = make_genus(kind, max(4, p) + 3, y)
            for _ in range(per_prime):
                weights = tuple(rng.randint(1, p - 1) for _ in range(rng.randint(1, 4)))
                diff = ab_coefficient(g, p, weights) - ab_trace(kind, p, weights, y)
                assert rational_reduce_mod_p(diff, p).value == 0, (kind, p, weights)
                checked += 1
        assert checked >= 200, (kind, checked)


@criterion(6, "trace of theta^k vanishes mod p and B-series coefficients are Tr theta^(-s)")
def test_acceptance_06_trace_lemmas():
    for p in (3, 5, 7):
        for kind, y in THETA_CASES:
            if kind == "chi_y" and p == 3:
                with pytest.raises(BadParams):
                    trace_theta_power("chi_y", 3, 1, y)
                with pytest.raises(BadParams):
                    b_series("chi_y", 3, 8, y)
                continue
            for k in range(1, 13):
                t = trace_theta_power(kind, p, k, y)
                assert rational_reduce_mod_p(t, p).value == 0, (kind, p, k)
                assert t == reference_trace_theta_power(kind, p, k, y), (kind, p, k)
            b = b_series(kind, p, 8, y)
            for s in range(9):
                assert b[s] == trace_theta_power(kind, p, -s, y), (kind, p, s)
                assert b[s] == reference_trace_theta_power(kind, p, -s, y), (kind, p, s)


@criterion(7, "minimal polynomials annihilate theta; frozen a_hat polynomials for p=3,5")
def test_acceptance_07_minimal_polynomials():
    for p in (3, 5, 7):
        for kind, y in THETA_CASES:
            if kind == "chi_y" and p == 3:
                continue
            coeffs = theta_minimal_polynomial(kind, p, y)
            assert evaluate_at_theta(coeffs, theta_of(kind, p, y)).is_zero(), (kind, p)
    assert theta_minimal_polynomial("a_hat", 3) == (3, 0, 1)
    assert theta_minimal_polynomial("a_hat", 5) == (5, 0, 5, 0, 1)


@criterion(8, "h-series closed forms, h(0)=1, and p-integrality through degree 12")
def test_acceptance_08_h_series():
    for p in (3, 5, 7):
        assert h_series("todd", p, 12) == Series.from_fractions(QQ, [1, -1], 12)
        assert h_series("l_genus", p, 12) == Series.from_fractions(QQ, [1, 0, -1], 12)
        t = arcsinh_u_over_2(13)
        ch = cosh_series(QQ, 13)
        cosh_form = (
            ch.compose(t.scale(F(p + 1, 2)))
            * ch.compose(t)
            * ch.compose(t.scale(F(p - 1, 2))).invert()
        ).truncate(12)
        assert h_series("a_hat", p, 12) == cosh_form
        for kind, y in THETA_CASES:
            if kind == "chi_y" and p == 3:
                continue
            h = h_series(kind, p, 12, y)
            assert h[0] == 1
            for k in range(13):
                assert h[k].denominator % p != 0, (kind, p, k)


@criterion(9, "ab route equals p-series plus weighted residual sum on 100 random sets")
def test_acceptance_09_combined_congruence():
    rng = random.Random(109)
    checked = 0
    while checked < 100:
        p = rng.choice((3, 5, 7))
        kind, y = rng.choice(THETA_CASES)
        if kind == "chi_y" and p == 3:
            continue
        n = rng.randint(1, p - 2)
        w = _random_weight_set(rng, p, n, rng.randint(1, 4))
        g = make_genus(kind, p + 2, y)
        assert thm71_check(g, w).equal, (kind, w)
        checked += 1


@criterion(10, "low p-series coefficients vanish on CP^n data for every catalog genus")
def test_acceptance_10_conner_floyd_vanishing():
    kinds = [("todd", None), ("euler", None), ("l_genus", None),
             ("chi_y", F(2)), ("a_hat", None), ("elliptic", None)]
    for p in (5, 7):
        for n in (1, 2, 3, 4):
            w = _cpn_set(p, n)
            for kind, y in kinds:
                g = make_genus(kind, p + 2, y)
                res = cf_residuals(g, w)
                assert len(res) == n
                assert all(not isinstance(r, Exception) and r.is_zero() for r in res), (
                    kind, p, n,
                )


@criterion(11, "elliptic genus of CP^2 is delta mod p; odd projective spaces give 0")
def test_acceptance_11_elliptic_values():
    for p in (5, 7):
        g = make_genus("elliptic", p + 2)
        val = genus_mod_p(g, _cpn_set(p, 2), "pseries")
        assert val == poly_reduce_mod_p(GradedPoly.delta(), p)
        assert val == reduce_value(cpn_genus(g, 2), p)
        for n in (1, 3):
            assert genus_mod_p(g, _cpn_set(p, n), "pseries").is_zero(), (p, n)


@criterion(12, "elliptic values on CP^2m and the u^p power-system coefficient are Legendre")
def test_acceptance_12_legendre_congruences():
    for p, m in ((5, 1), (7, 1), (7, 2)):
        rep = check_eq45(p, m=m)
        assert rep.equal and rep.cpn_matches, (p, m)
    for m in range(1, 6):
        rep = check_eq45(11, m=m)
        assert rep.equal and rep.cpn_matches, (11, m)
    for p in (3, 5, 7, 11):
        rep = check_eq46(p)
        assert rep.equal and rep.power_system_matches, p
        assert rep.low_coeffs_vanish and rep.eps_one_equal, p


@criterion(13, "elliptic degenerations to tanh and 2sinh(w/2); closed form of [u]_3")
def test_acceptance_13_elliptic_degenerations():
    g = make_genus("elliptic", 13)
    tanh = sinh_series(QQ, 13).divide(cosh_series(QQ, 13))
    assert Series(QQ, [c.substitute(1, 1) for c in g.f_series.coeffs]) == tanh
    ahat_f = make_genus("a_hat", 13).f_series
    assert Series(QQ, [c.substitute(F(-1, 8), 0) for c in g.f_series.coeffs]) == ahat_f

    D = GradedPoly.delta()
    E = GradedPoly.eps()
    zero = GradedPoly.zero()

    def poly(coeff_map):
        coeffs = [zero] * 14
        for k, c in coeff_map.items():
            coeffs[k] = c
        return Series(DE, coeffs)

    num = poly({1: GradedPoly.const(3), 3: D * -8, 5: E * 6, 9: E * E * -1})
    den = poly({0: GradedPoly.one(), 4: E * -6, 6: D * E * 8, 8: E * E * -3})
    assert power_system(g, 3) == num * den.invert()


@criterion(14, "submanifold reduction: isolated points give the ab route, trivial actions"
              " give the value")
def test_acceptance_14_submanifold_reduction():
    rng = random.Random(114)
    for kind, y in THETA_CASES:
        for p in (5, 7):
            w = _random_weight_set(rng, p, 3, 3)
            data = SubmanifoldData(
                p=p,
                components=tuple(SubmanifoldComponent(pt, F(1)) for pt in w.points),
            )
            g = make_genus(kind, p + 2, y)
            assert submanifold_genus(g, data) == genus_mod_p(g, w, "ab"), (kind, p)
    trivial = SubmanifoldData(p=3, components=(SubmanifoldComponent((), F(7, 4)),))
    assert submanifold_genus(make_genus("todd", 8), trivial) == rational_reduce_mod_p(F(7, 4), 3)
    trivial5 = SubmanifoldData(p=5, components=(SubmanifoldComponent((), F(-13, 6)),))
    assert submanifold_genus(make_genus("l_genus", 9), trivial5) == rational_reduce_mod_p(
        F(-13, 6), 5
    )


@criterion(15, "power systems: generic equals closed form for m=1..6; composition law")
def test_acceptance_15_power_systems():
    closed_kinds = [("todd", None), ("euler", None), ("l_genus", None),
                    ("chi_y", F(2)), ("a_hat", None)]
    for kind, y in closed_kinds:
        g = make_genus(kind, 12, y)
        for m in range(1, 7):
            assert power_system(g, m) == power_system_closed(kind, m, 12, y), (kind, m)
    for kind, y in closed_kinds + [("elliptic", None)]:
        g = make_genus(kind, 12, y)
        for a in (2, 3):
            for b in (2, 3):
                lhs = power_system(g, a).compose(power_system(g, b))
                assert lhs == power_system(g, a * b), (kind, a, b)
