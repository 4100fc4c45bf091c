"""The group-ring theta traces, checked against the field arithmetic of
``reference_cyclotomic``, and the laws of that reference itself."""
import cmath
import random
import sys
import time
from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_cyclotomic import CycloElem, evaluate_at_theta, theta_of
from reference_series import a_series, p_power_factor
from zpgenus.checks import ab_coefficient
from zpgenus.cyclotomic import (
    TRACE_MAX_P,
    _route_table,
    _todd_preimage,
    _trace_preimage,
    _trace_table,
    _trace_total,
    ab_trace,
    theta_minimal_polynomial,
    trace_theta_power,
)
from zpgenus.engine import (
    WeightSet,
    _point_sums,
    _route_total,
    b_series,
    genus_mod_p,
)
from zpgenus.errors import BadParams, UnsupportedKind, ZeroDivision, ZeroWeight
from zpgenus.genus import make_genus
from zpgenus.rings import PACKED_CACHE_BYTES, is_odd_prime, rational_reduce_mod_p


def _random_elem(rng, p):
    return CycloElem(p, [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(p - 1)])


def _embed(x, m=1):
    """Numeric embedding zeta -> exp(2 pi i m/p), an oracle independent of the
    power-basis folding."""
    z = cmath.exp(2j * cmath.pi * m / x.p)
    return sum(complex(c) * z**k for k, c in enumerate(x.coords))


def test_basis_relations():
    for p in (3, 5, 7):
        zeta = CycloElem.zeta(p)
        assert zeta**p == CycloElem.one(p)
        total = CycloElem.one(p)
        for k in range(1, p):
            total = total + CycloElem.zeta(p, k)
        assert total.is_zero()
        # zeta^{p-1} folds to -(1 + zeta + ... + zeta^{p-2})
        assert CycloElem.zeta(p, p - 1) == CycloElem(p, [-1] * (p - 1))


def test_field_laws_random():
    rng = random.Random(11)
    for p in (3, 5, 7):
        for _ in range(20):
            a, b, c = (_random_elem(rng, p) for _ in range(3))
            assert a * b == b * a
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)


def test_embedding_matches_arithmetic():
    rng = random.Random(12)
    for p in (3, 5, 7):
        for _ in range(10):
            a, b = _random_elem(rng, p), _random_elem(rng, p)
            assert abs(_embed(a * b) - _embed(a) * _embed(b)) < 1e-9
            assert abs(_embed(a + b) - (_embed(a) + _embed(b))) < 1e-9


def test_invert_roundtrip():
    rng = random.Random(13)
    for p in (3, 5, 7):
        for _ in range(15):
            a = _random_elem(rng, p)
            if a.is_zero():
                continue
            assert a * a.invert() == CycloElem.one(p)
            assert abs(_embed(a.invert()) - 1 / _embed(a)) < 1e-9
    with pytest.raises(ZeroDivision):
        CycloElem.zero(5).invert()


def test_trace_and_conjugates():
    rng = random.Random(14)
    for p in (3, 5, 7):
        for _ in range(8):
            a = _random_elem(rng, p)
            numeric = sum(_embed(a, m) for m in range(1, p))
            assert abs(complex(a.trace()) - numeric) < 1e-9
            galois_sum = CycloElem.zero(p)
            for m in range(1, p):
                galois_sum = galois_sum + a.conjugate(m)
            assert galois_sum == CycloElem.from_rational(p, a.trace())
            b = _random_elem(rng, p)
            assert (a * b).conjugate(2) == a.conjugate(2) * b.conjugate(2)
    with pytest.raises(BadParams):
        CycloElem.one(5).conjugate(10)


def test_trace_of_todd_resolvent():
    # Tr 1/(1 - zeta) = (p-1)/2
    for p in (3, 5, 7, 11):
        x = (CycloElem.one(p) - CycloElem.zeta(p)).invert()
        assert x.trace() == F(p - 1, 2)


def test_theta_frozen_examples():
    # p = 3, basis 1, zeta: l_genus theta = (1-zeta)/(1+zeta) = -1 - 2 zeta
    assert theta_of("l_genus", 3) == CycloElem(3, [-1, -2])
    # and a_hat theta = zeta^2 - zeta = -1 - 2 zeta as well
    assert theta_of("a_hat", 3) == CycloElem(3, [-1, -2])
    # p = 5: l_genus theta solved by hand from (1+zeta) theta = 1 - zeta
    assert theta_of("l_genus", 5) == CycloElem(5, [-1, -2, 0, -2])
    assert theta_of("todd", 5) == CycloElem.one(5) - CycloElem.zeta(5)
    assert theta_of("euler", 7) == CycloElem.one(7)
    # chi_y interpolates: y = 0 gives todd, y = 1 gives l_genus
    assert theta_of("chi_y", 5, 0) == theta_of("todd", 5)
    assert theta_of("chi_y", 5, 1) == theta_of("l_genus", 5)


def test_theta_traces_vanish():
    cases = [("todd", None), ("l_genus", None), ("a_hat", None), ("chi_y", F(2))]
    for p in (3, 5, 7):
        for kind, y in cases:
            if kind == "chi_y" and p == 3:
                continue
            for k in range(1, 13):
                t = trace_theta_power(kind, p, k, y)
                assert rational_reduce_mod_p(t, p).value == 0, (kind, p, k)
        assert trace_theta_power("todd", p, 0) == p - 1


def test_trace_negative_powers():
    for p in (3, 5, 7):
        theta = theta_of("todd", p)
        inv = theta.invert()
        for s in (1, 2, 3):
            assert trace_theta_power("todd", p, -s) == (inv**s).trace()


def test_chi_y_degeneration_guard():
    for k in (-1, 0, 1):
        with pytest.raises(BadParams):
            trace_theta_power("chi_y", 3, k, 2)
        with pytest.raises(BadParams):
            trace_theta_power("chi_y", 5, k, F(1, 5))
        with pytest.raises(BadParams):
            trace_theta_power("chi_y", 5, k)
        # the same parameter is fine one prime up
        trace_theta_power("chi_y", 5, k, 2)
        with pytest.raises(UnsupportedKind):
            trace_theta_power("elliptic", 5, k)
    # y = -1 exactly is euler's theta = 1, while y = 4 ≡ -1 mod 5 degenerates
    for p in (3, 5, 7):
        for k in (-2, 1, 3):
            assert trace_theta_power("chi_y", p, k, -1) == trace_theta_power("euler", p, k) == p - 1
        assert ab_trace("chi_y", p, (1, 2), -1) == ab_trace("euler", p, (1, 2)) == 1 - p
    with pytest.raises(BadParams, match="theta degenerates"):
        ab_trace("chi_y", 5, (1, 2), 4)


def test_minimal_polynomials_frozen():
    assert theta_minimal_polynomial("a_hat", 3) == (3, 0, 1)
    assert theta_minimal_polynomial("a_hat", 5) == (5, 0, 5, 0, 1)
    assert theta_minimal_polynomial("todd", 3) == (3, -3, 1)
    assert theta_minimal_polynomial("l_genus", 3) == (3, 0, 1)
    # chi family: coefficient of u^{k-1} is C(p,k) (y^k - (-1)^k)/(1+y);
    # expanded by hand for p = 5, y = 2 from ((1+2u)^5 - (1-u)^5)/(3u)
    assert theta_minimal_polynomial("chi_y", 5, 2) == (5, 10, 30, 25, 11)
    # euler's theta is 1, where that quotient is 0/0: (1 - u)^(p-1)
    assert theta_minimal_polynomial("euler", 5) == (1, -4, 6, -4, 1)


def test_minimal_polynomials_annihilate():
    cases = [("todd", None), ("l_genus", None), ("a_hat", None), ("chi_y", F(2))]
    for p in (3, 5, 7):
        for kind, y in cases:
            if kind == "chi_y" and p == 3:
                continue
            coeffs = theta_minimal_polynomial(kind, p, y)
            assert len(coeffs) == p and coeffs[-1] != 0
            theta = theta_of(kind, p, y)
            assert evaluate_at_theta(coeffs, theta).is_zero(), (kind, p)
            # the polynomial is minimal-degree here: it does not kill theta + 1
            assert not evaluate_at_theta(coeffs, theta + CycloElem.one(p)).is_zero()


def test_ab_trace_examples():
    # single weight, todd: -Tr 1/(1-zeta) = -(p-1)/2
    for p in (3, 5, 7):
        assert ab_trace("todd", p, (1,)) == -F(p - 1, 2)
    # two weights at p = 3: (1-zeta)(1-zeta^2) = 3, so the product is 1/3
    assert ab_trace("todd", 3, (1, 2)) == -F(2, 3)
    # euler ignores the weights entirely
    assert ab_trace("euler", 5, (1, 2, 3)) == -4
    assert ab_trace("euler", 7, ()) == -6
    # weights only matter mod p
    assert ab_trace("l_genus", 5, (2, 3)) == ab_trace("l_genus", 5, (7, -2))


@lru_cache(maxsize=None)  # the field inversion is the slow part of the reference
def _inverse_of_one_minus_zeta(p, x):
    return (CycloElem.one(p) - CycloElem.zeta(p, x)).invert()


def _reference_ab_trace(kind, p, weights, y=None):
    """-Tr(prod_k factor(zeta^{x_k})) by field arithmetic in Q(zeta_p)."""
    one = CycloElem.one(p)
    prod = one
    for x in weights:
        x = x % p
        if kind == "euler":
            continue
        zx = CycloElem.zeta(p, x)
        denom_inv = _inverse_of_one_minus_zeta(p, x)
        if kind == "todd":
            factor = denom_inv
        elif kind == "l_genus":
            factor = (one + zx) * denom_inv
        elif kind == "chi_y":
            factor = (one + zx * y) * denom_inv
        else:  # a_hat
            factor = CycloElem.zeta(p, x * (p + 1) // 2) * denom_inv
        prod = prod * factor
    return -prod.trace()


def _rotate(vec, s):
    """vec * t^s in Z[t]/(t^p - 1), for 0 <= s < p."""
    return vec[-s:] + vec[:-s]


def _loop_cyclic_mul(a, b):
    """The product of two elements of Z[t]/(t^p - 1), one rotated row per term."""
    out = [0] * len(a)
    for i, c in enumerate(a):
        if c:
            out = [o + c * r for o, r in zip(out, _rotate(b, i))]
    return out


def _loop_ab_trace(kind, p, weights, y=None):
    """-Tr(prod_k factor(x_k)) on unpacked group-ring vectors, an O(p^2) loop per weight."""
    a, b = (1, 1) if y is None else (F(y).numerator, F(y).denominator)
    prod, denom = [1] + [0] * (p - 1), 1
    for x in weights:
        x %= p
        if kind == "euler":
            continue
        factor = _todd_preimage(p, x)
        if kind == "a_hat":
            factor = _rotate(factor, x * (p + 1) // 2 % p)
        elif kind in ("l_genus", "chi_y"):
            factor = [b * f + a * g for f, g in zip(factor, _rotate(factor, x))]
        prod = _loop_cyclic_mul(prod, factor)
        denom *= p * b
    return F(sum(prod) - p * prod[0], denom)


def _group_ring_image(vec, denom):
    """The image in Q(zeta_p) of sum_j vec[j] t^j / denom (t -> zeta)."""
    p = len(vec)
    return CycloElem(p, [F(c - vec[-1], denom) for c in vec[:-1]])


def test_ab_trace_matches_field_arithmetic():
    rng = random.Random(15)
    kinds = [("todd", None), ("euler", None), ("l_genus", None), ("a_hat", None)]
    kinds += [("chi_y", y) for y in (F(2), F(-1, 2), F(1, 3), F(-3))]
    for p in (3, 5, 7, 11, 13, 23, 31, 47):
        units = [x for x in range(-2 * p, 3 * p) if x % p]
        for kind, y in kinds:
            if y is not None and ((1 + y).numerator % p == 0 or y.denominator % p == 0):
                continue
            for n in range(6):
                weights = [rng.choice(units) for _ in range(n)]
                if n >= 2:
                    weights[1] = weights[0]
                got = ab_trace(kind, p, weights, y)
                assert got == _reference_ab_trace(kind, p, weights, y), (kind, y, p, weights)
                assert got == _loop_ab_trace(kind, p, weights, y), (kind, y, p, weights)


_ODD_PRIMES_TO_47 = [q for q in range(3, 48) if is_odd_prime(q)]


@st.composite
def _trace_inputs(draw):
    kind = draw(st.sampled_from(["todd", "euler", "l_genus", "a_hat", "chi_y"]))
    p = draw(st.sampled_from(_ODD_PRIMES_TO_47))
    y = None
    if kind == "chi_y":
        y = draw(st.fractions(min_value=-50, max_value=50, max_denominator=60).filter(
            lambda v: v.denominator % p and (1 + v).numerator % p))
    unit = st.integers(-3 * p, 3 * p).filter(lambda x: x % p)
    return kind, p, draw(st.lists(unit, max_size=6)), y


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_trace_inputs())
def test_packed_trace_product_matches_loop(case):
    # The packed single-int product must give the loop's exact Fraction.
    kind, p, weights, y = case
    assert ab_trace(kind, p, weights, y) == _loop_ab_trace(kind, p, weights, y)


@st.composite
def _route_inputs(draw):
    """A kind, p <= 47, a weight set with repeated points and literal weights, and y."""
    kind = draw(st.sampled_from(["todd", "euler", "l_genus", "a_hat", "chi_y"]))
    p = draw(st.sampled_from(_ODD_PRIMES_TO_47))
    y = None
    if kind == "chi_y":  # high height, so that the slot width is pinned
        part = st.integers(-10**12, 10**12)
        y = draw(st.builds(F, part, part.filter(bool)).filter(
            lambda v: v.denominator % p and (1 + v).numerator % p))
    n = draw(st.integers(0, 6))
    unit = st.integers(-3 * p, 3 * p).filter(lambda x: x % p)
    points = draw(st.lists(st.tuples(*[unit] * n), max_size=4))
    if points:
        points += draw(st.lists(st.sampled_from(points), max_size=3))
    return kind, p, y, WeightSet(p, n, tuple(points))


@settings(derandomize=True, max_examples=250, deadline=None)
@given(_route_inputs())
def test_packed_route_totals_equal_per_point_references(case):
    # Each route takes a repeated point once, times its multiplicity (trace as
    # packed products over one denominator); the totals (and every pseries
    # coefficient read) must equal the per-point series and group-ring
    # references summed over all points.
    kind, p, y, w = case
    n = w.n
    g = make_genus(kind, max(n + 1, 2), y)
    pf = p_power_factor(g, p, n)
    prods = [pf * a_series(g, pt, n) for pt in w.points]
    want = [sum((prod[m] for prod in prods), F(0)) for m in range(n + 1)]
    assert _point_sums(g, p, n, "pseries", range(n + 1), w.distinct_points.items()) == want, case
    if kind == "euler":
        ab = F(-(p - 1) * w.q)
    else:
        b = b_series(kind, p, n, y)
        ab = sum((-(a_series(g, pt, n) * b)[n] for pt in w.points), F(0))
    assert _route_total(g, w, "ab") == ab, case
    trace = sum((_loop_ab_trace(kind, p, pt, y) for pt in w.points), F(0))
    assert _route_total(g, w, "trace") == trace, case


def test_todd_preimage_inverts_one_minus_zeta():
    # -(1/p) sum_k k t^{kx} maps to 1/(1 - zeta^x)
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for x in range(1, p):
            image = _group_ring_image(_todd_preimage(p, x), p)
            assert image == (CycloElem.one(p) - CycloElem.zeta(p, x)).invert(), (p, x)


def test_ab_trace_errors():
    with pytest.raises(ZeroWeight):
        ab_trace("todd", 5, (1, 10))
    with pytest.raises(UnsupportedKind):
        ab_trace("elliptic", 5, (1,))
    with pytest.raises(BadParams):
        ab_trace("chi_y", 3, (1,), 2)


def test_theta_functions_refuse_a_stray_y():
    # only chi_y takes a parameter; any other kind given one is refused
    for kind in ("todd", "l_genus", "a_hat", "euler"):
        with pytest.raises(BadParams, match="does not take a parameter y"):
            trace_theta_power(kind, 5, 1, 7)
        with pytest.raises(BadParams, match="does not take a parameter y"):
            ab_trace(kind, 5, [1, 2], 7)
    for kind in ("todd", "l_genus", "a_hat", "euler"):
        with pytest.raises(BadParams, match="does not take a parameter y"):
            theta_minimal_polynomial(kind, 5, 7)
    assert ab_trace("todd", 5, [1, 2]) == _loop_ab_trace("todd", 5, [1, 2])


def test_trace_route_refuses_p_above_bound():
    # ab_trace allocates lists of length p; above TRACE_MAX_P it must refuse
    # before any of that work starts.
    above = next(q for q in range(TRACE_MAX_P + 1, 2 * TRACE_MAX_P) if is_odd_prime(q))
    for p in (above, 2**61 - 1):
        for kind, y in (("todd", None), ("euler", None), ("chi_y", 2)):
            start = time.perf_counter()
            with pytest.raises(BadParams, match="TRACE_MAX_P"):
                ab_trace(kind, p, (1, 2, 3), y)
            assert time.perf_counter() - start < 0.1
    below = next(q for q in range(TRACE_MAX_P, 2, -1) if is_odd_prime(q))
    assert ab_trace("euler", below, (1, 2, 3)) == -(below - 1)


def test_prime_mismatch_and_validation():
    with pytest.raises(AssertionError, match="mixed primes"):
        CycloElem.one(3) * CycloElem.one(5)
    with pytest.raises(BadParams):
        CycloElem(5, [1, 2, 3])
    with pytest.raises(BadParams):
        CycloElem.zeta(4)


_THETA_KINDS = [("todd", None), ("euler", None), ("l_genus", None), ("a_hat", None)]
_THETA_KINDS += [("chi_y", F(y)) for y in (0, 1, 2, F(-1, 2), F(1, 3), -3)]


def test_trace_theta_power_matches_field_reference():
    # Every kind, chi_y at six y, p <= 13 and k = -12..12: the group-ring kernel
    # gives the exact Fraction of field arithmetic (successive powers of theta
    # and of its field inverse), and a degenerate y is refused by both.
    for p in (3, 5, 7, 11, 13):
        for kind, y in _THETA_KINDS:
            if y is not None and (y.denominator % p == 0 or (1 + y).numerator % p == 0):
                for k in (-1, 0, 1):
                    with pytest.raises(BadParams):
                        trace_theta_power(kind, p, k, y)
                    with pytest.raises(BadParams):
                        (theta_of(kind, p, y) ** k).trace()
                continue
            theta = theta_of(kind, p, y)
            inv = theta.invert()
            pos = neg = CycloElem.one(p)
            for k in range(13):
                for s, power in ((k, pos), (-k, neg)):
                    got = trace_theta_power(kind, p, s, y)
                    assert type(got) is F and got == power.trace(), (kind, y, p, s)
                pos, neg = pos * theta, neg * inv
            if p == 7:  # long exponents, whose powers are taken by squaring
                for k in (-257, 100, 255):
                    assert trace_theta_power(kind, p, k, y) == (theta ** k).trace(), (kind, y, k)


def _trace_pairing_vanishes(coeffs, kind, p, y):
    """Tr(P(theta) theta^j) = 0 for j < p - 1, which for theta of degree p - 1
    (a generator of the field, whose trace form is nondegenerate) is P(theta) = 0."""
    return all(
        sum(c * trace_theta_power(kind, p, i + j, y) for i, c in enumerate(coeffs)) == 0
        for j in range(p - 1)
    )


def test_trace_pairing_agrees_with_field_evaluation():
    cases = [("todd", None), ("l_genus", None), ("a_hat", None)]
    cases += [("chi_y", F(y)) for y in (0, 2, F(-1, 2), F(1, 3), -3)]
    for p in (3, 5, 7):
        for kind, y in cases:
            if y is not None and (y.denominator % p == 0 or (1 + y).numerator % p == 0):
                continue
            theta = theta_of(kind, p, y)
            coeffs = theta_minimal_polynomial(kind, p, y)
            perturbed = (coeffs[0] + 1,) + coeffs[1:]
            for poly, vanishes in ((coeffs, True), (perturbed, False)):
                assert _trace_pairing_vanishes(poly, kind, p, y) is vanishes, (kind, y, p)
                assert evaluate_at_theta(poly, theta).is_zero() is vanishes, (kind, y, p)


def test_trace_theta_power_refuses_bad_inputs():
    # The classes the field computation raised: a stray y is checked before the
    # kind, and every check runs at k = 0 too.
    cases = [(kind, 5, None, UnsupportedKind) for kind in ("elliptic", "custom", "bogus")]
    cases += [(kind, 5, 2, BadParams) for kind in ("elliptic", "custom", "bogus")]
    cases += [(kind, 5, 7, BadParams) for kind in ("todd", "l_genus", "a_hat", "euler")]
    chi = [(3, 2), (5, 4), (5, F(-8, 3)), (5, F(1, 5)), (3, F(2, 3)), (5, None)]
    cases += [("chi_y", p, y, BadParams) for p, y in chi]
    for p in (-3, 0, 1, 2, 9, 15):
        cases += [("todd", p, None, BadParams), ("chi_y", p, 2, BadParams)]
    for kind, p, y, exc in cases:
        for k in (-2, 0, 3):
            with pytest.raises(exc):
                trace_theta_power(kind, p, k, y)
            with pytest.raises(exc):
                (theta_of(kind, p, y) ** k).trace()


def test_theta_functions_refuse_p_above_bound():
    # trace_theta_power and the full-degree minimal polynomial are O(p) and
    # worse; above TRACE_MAX_P they refuse before building anything.
    above = next(q for q in range(TRACE_MAX_P + 1, 2 * TRACE_MAX_P) if is_odd_prime(q))
    for p in (above, 10007, 2**61 - 1):
        calls = [(theta_minimal_polynomial, (kind, p, y)) for kind, y in
                 (("todd", None), ("l_genus", None), ("a_hat", None), ("chi_y", 2))]
        calls += [(trace_theta_power, (kind, p, k, y)) for kind, y in
                  (("todd", None), ("euler", None), ("chi_y", 2)) for k in (-1, 0, 3)]
        for func, args in calls:
            start = time.perf_counter()
            with pytest.raises(BadParams, match="TRACE_MAX_P"):
                func(*args)
            assert time.perf_counter() - start < 0.1, (func.__name__, args)
    below = next(q for q in range(TRACE_MAX_P, 2, -1) if is_odd_prime(q))
    assert len(theta_minimal_polynomial("l_genus", below)) == below
    assert trace_theta_power("todd", below, -1) == F(below - 1, 2)


def test_trace_theta_power_refuses_long_exponents_at_once():
    # |k| products of p |k| bitlen(L1) bits above TRACE_MAX_WORK are refused
    # before anything is packed; chi_y:2 at p = 2039, k = 3 would pack 12.5 Mbit.
    below = next(q for q in range(TRACE_MAX_P, 2, -1) if is_odd_prime(q))
    calls = [(kind, p, k, y) for kind, y in _THETA_KINDS for p in (7, below)
             for k in (10**9, -(10**9))]
    calls += [("chi_y", below, 3, 2)]
    for kind, p, k, y in calls:
        start = time.perf_counter()
        with pytest.raises(BadParams, match="TRACE_MAX_WORK"):
            trace_theta_power(kind, p, k, y)
        assert time.perf_counter() - start < 0.1, (kind, p, k, y)


def test_trace_table_takes_any_integer_vector():
    # The slot table shifts any integer vector by its minimum (a multiple of
    # sum_k t^k); products of its images under t -> t^x keep their exact trace.
    rng = random.Random(16)
    for p in (3, 5, 7, 11, 13):
        for _ in range(12):
            vec = [rng.randint(-30, 30) for _ in range(p)]
            den, n, k = rng.choice([1, 2, -3, 7]), rng.randint(0, 4), rng.randint(1, 3)
            pt = [rng.randrange(1, p) for _ in range(n)]
            prod = [1] + [0] * (p - 1)
            for x in pt:
                image = [0] * p
                for i, c in enumerate(vec):
                    image[i * x % p] = c
                prod = _loop_cyclic_mul(prod, image)
            want = -k * F(p * prod[0] - sum(prod), den**n)
            assert F(*_trace_total(p, _trace_table(vec, den, n), [(pt, k)])) == want, (p, vec, pt)


def test_trace_table_factor_bytes_stay_bounded():
    # At p = 2039 all p - 1 packed factors would take tens of MB; a stream of
    # weight sets keeps factors while the table, dict and ints counted, stays
    # within PACKED_CACHE_BYTES, and drops none it kept.
    rng = random.Random(45)
    p, n, y = 2039, 2, F(2)
    g = make_genus("chi_y", n + 1, y)
    _route_table.cache_clear()
    den, slots, total, width, _ = _trace_table(*_trace_preimage("chi_y", p, y), n)
    kept, refused = {}, 0
    for _ in range(10):
        w = WeightSet(p, n, tuple(tuple(rng.randrange(1, p) for _ in range(n)) for _ in range(8)))
        want = F(*_trace_total(p, (den, slots, total, width, {}), w.distinct_points.items()))
        assert _route_total(g, w, "trace") == want
        packed = _route_table("chi_y", y, p, n)[4]
        assert kept.items() <= packed.items()
        assert _table_bytes(packed) <= PACKED_CACHE_BYTES
        kept = dict(packed)
        refused += len({x for pt in w.points for x in pt} - kept.keys())
    assert refused and _table_bytes(kept) > PACKED_CACHE_BYTES * 0.9  # the stream did fill it


def _table_bytes(packed: dict) -> int:
    """What a table of packed factors occupies: its dict, keys and factors."""
    return sys.getsizeof(packed) + sum(map(sys.getsizeof, [*packed, *packed.values()]))


def test_trace_route_refuses_many_weights_at_once():
    # n products of p n bitlen(L1) bits above TRACE_MAX_WORK are refused before
    # anything is packed: 44 weights of chi_y:2 at p = 2039 took about 22 s unbounded.
    below = next(q for q in range(TRACE_MAX_P, 2, -1) if is_odd_prime(q))
    for kind, y in _THETA_KINDS:
        for n in (3000, 44):
            weights = [x % (below - 1) + 1 for x in range(n)]
            w = WeightSet(below, n, (tuple(weights),))
            g = make_genus(kind, 2, y)
            if kind == "euler" and n == 44:  # bitlen(L1) = 1: 44 weights stay cheap
                assert ab_trace(kind, below, weights, y) == -(below - 1)
                continue
            start = time.perf_counter()
            with pytest.raises(BadParams, match="TRACE_MAX_WORK"):
                ab_trace(kind, below, weights, y)
            with pytest.raises(BadParams, match="TRACE_MAX_WORK"):
                genus_mod_p(g, w, "trace")
            assert time.perf_counter() - start < 0.1, (kind, y, n)


def test_trace_route_refuses_long_points_at_small_p_at_once():
    # Small packed factors do not make a long product cheap: each of these
    # one-point todd sets took 18-35 s under a bound on packed bits alone.
    g = make_genus("todd", 2)
    for p, n in ((11, 4000), (5, 12000), (101, 600)):
        weights = [x % (p - 1) + 1 for x in range(n)]
        w = WeightSet(p, n, (tuple(weights),))
        start = time.perf_counter()
        with pytest.raises(BadParams, match="TRACE_MAX_WORK"):
            ab_trace("todd", p, weights)
        with pytest.raises(BadParams, match="TRACE_MAX_WORK"):
            genus_mod_p(g, w, "trace")
        assert time.perf_counter() - start < 0.1, (p, n)


def test_trace_inputs_that_are_not_ints_are_refused():
    # ab_trace refuses what ab_coefficient refuses, with its class and message,
    # before any table is built; a bool is not a weight nor a theta power.
    g = make_genus("todd", 3)
    for weights in ([1.0], [2.5], ["1"], [1, 2.0], [True]):
        with pytest.raises(BadParams) as want:
            ab_coefficient(g, 5, weights)
        with pytest.raises(BadParams) as got:
            ab_trace("todd", 5, weights)
        assert str(got.value) == str(want.value), weights
    with pytest.raises(ZeroWeight, match="weight ≡ 0 mod p = 5 is not allowed"):
        ab_trace("todd", 5, [1, 10])
    for k in (True, False, 1.0):
        with pytest.raises(BadParams, match="theta power must be an int, got"):
            trace_theta_power("todd", 5, k)
