"""Truncated power series arithmetic over the exact rings."""
import random
from fractions import Fraction as F

import pytest

from zpgenus.errors import (
    BadParams,
    IndexBeyondTruncation,
    NonUnitConstantTerm,
    NonzeroInnerConstant,
    NotReversible,
    RingMismatch,
    ZeroDivision,
)
from zpgenus.rings import DE, QQ, GradedPoly
from zpgenus.series import Series, binomial_power


def S(*coeffs, order=None):
    return Series.from_fractions(QQ, coeffs, order if order is not None else len(coeffs) - 1)


def geometric(ring, order):
    """1/(1-u) = 1 + u + u^2 + ... through u^order."""
    return Series(ring, [ring.one] * (order + 1))


def _random_series(rng, order, unit=False, zero_const=False):
    coeffs = [F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(order + 1)]
    if unit:
        while coeffs[0] == 0:
            coeffs[0] = F(rng.randint(-6, 6), rng.randint(1, 6))
    if zero_const:
        coeffs[0] = F(0)
    return Series(QQ, coeffs)


def test_construction_and_coeff_access():
    a = S(1, 2, 3)
    assert a.order == 2
    assert a[0] == 1 and a[2] == 3
    with pytest.raises(IndexBeyondTruncation):
        a[3]
    with pytest.raises(BadParams):
        a[-1]
    padded = Series.from_fractions(QQ, [1], 4)
    assert padded.order == 4 and padded[4] == 0


def test_mul_geometric_telescopes():
    n = 6
    geo = geometric(QQ, n)
    one_minus_u = S(1, -1, order=n)
    assert geo * one_minus_u == Series.one(QQ, n)


def test_mul_truncates_to_min_order():
    a = S(1, 1, 1)
    b = S(1, 1, 1, 1, 1, 1)
    assert (a * b).order == 2
    assert (a + b).order == 2


def test_invert():
    inv = S(2, -1, order=5).invert()
    # 1/(2-u) = 1/2 + u/4 + u^2/8 + ...
    assert [inv[k] for k in range(4)] == [F(1, 2), F(1, 4), F(1, 8), F(1, 16)]
    assert inv * S(2, -1, order=5) == Series.one(QQ, 5)
    with pytest.raises(NonUnitConstantTerm):
        S(0, 1).invert()


def test_invert_random_property():
    rng = random.Random(5)
    for _ in range(40):
        a = _random_series(rng, rng.randint(1, 9), unit=True)
        assert a * a.invert() == Series.one(QQ, a.order)


def test_compose_examples():
    outer = S(0, 1, 1, order=4)  # u + u^2
    inner = S(0, 2, order=4)  # 2u
    assert outer.compose(inner) == S(0, 2, 4, order=4)
    # 1/(1-u) composed with u/(1+u) gives exactly 1 + u
    geo = geometric(QQ, 6)
    inner2 = Series.identity(QQ, 6) * S(1, 1, order=6).invert()
    assert geo.compose(inner2) == S(1, 1, order=6)
    with pytest.raises(NonzeroInnerConstant):
        geo.compose(S(1, 1, order=6))


def test_compose_is_multiplicative():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(2, 8)
        a = _random_series(rng, n)
        b = _random_series(rng, n)
        inner = _random_series(rng, n, zero_const=True)
        lhs = (a * b).compose(inner)
        rhs = a.compose(inner) * b.compose(inner)
        assert lhs == rhs


def test_revert_frozen_example():
    # back-substitution on u - u^2: coefficients are the Catalan numbers
    a = S(0, 1, -1, order=4)
    b = a.revert()
    assert b == S(0, 1, 1, 2, 5)
    assert a.compose(b) == Series.identity(QQ, 4)
    assert b.compose(a) == Series.identity(QQ, 4)


def test_revert_random_roundtrip():
    rng = random.Random(13)
    u = Series.identity(QQ, 8)
    for _ in range(20):
        a = _random_series(rng, 8, zero_const=True)
        coeffs = list(a.coeffs)
        coeffs[1] = F(rng.choice([1, -1, 2, 3]), rng.choice([1, 2]))
        a = Series(QQ, coeffs)
        b = a.revert()
        assert a.compose(b) == u
        assert b.compose(a) == u
        assert b.revert() == a


def test_revert_preconditions():
    with pytest.raises(NotReversible):
        S(1, 1).revert()
    with pytest.raises(NotReversible):
        S(0, 0, 1).revert()


def test_differentiate_integrate():
    a = S(0, 1, F(1, 2), F(1, 3), F(1, 4))
    d = a.differentiate()
    assert d == S(1, 1, 1, 1)
    assert d.order == a.order - 1
    back = d.integrate()
    assert back == a and back.order == a.order
    # integrate of 1/(1-u) gives sum u^k/k
    assert geometric(QQ, 5).integrate() == S(0, 1, F(1, 2), F(1, 3), F(1, 4), F(1, 5), F(1, 6))


def test_binomial_power():
    w = S(0, 1, order=6)
    sq = binomial_power(w, 2)
    assert sq == S(1, 2, 1, order=6)
    half = binomial_power(S(0, 0, F(1, 4), order=6), F(-1, 2))
    # (1+u^2/4)^{-1/2} = 1 - u^2/8 + 3u^4/128 - ...
    assert half[0] == 1 and half[2] == F(-1, 8) and half[4] == F(3, 128)
    assert half * binomial_power(S(0, 0, F(1, 4), order=6), F(1, 2)) == Series.one(QQ, 6)
    with pytest.raises(BadParams):
        binomial_power(S(1, 1), F(1, 2))


def test_binomial_power_group_law():
    rng = random.Random(17)
    for _ in range(20):
        w = _random_series(rng, 7, zero_const=True)
        a = F(rng.randint(-5, 5), rng.randint(1, 4))
        b = F(rng.randint(-5, 5), rng.randint(1, 4))
        assert binomial_power(w, a) * binomial_power(w, b) == binomial_power(w, a + b)


def test_divide_and_shifts():
    u = Series.identity(QQ, 6)
    num = S(0, 0, 2, 2, order=6)  # 2u^2 + 2u^3
    den = S(0, 2, order=6)  # 2u
    assert num.divide(den) == S(0, 1, 1, order=5)
    with pytest.raises(ZeroDivision):
        u.divide(Series.zero(QQ, 6))
    with pytest.raises(ZeroDivision):
        S(1, 1).shift_down(1)
    assert S(0, 5, 7).shift_down(1) == S(5, 7)


def _loop_mul(a, b):
    """The coefficient loop Series.__mul__ runs for rings other than QQ."""
    n = min(a.order, b.order)
    out = [QQ.zero] * (n + 1)
    for i, x in enumerate(a.coeffs[: n + 1]):
        if not x:
            continue
        for j in range(n + 1 - i):
            y = b.coeffs[j]
            if y:
                out[i + j] = out[i + j] + x * y
    return tuple(out)


def test_qq_kernel_matches_coefficient_loop():
    # Over QQ the product runs on integer numerators over a common
    # denominator; it must give the loop's exact coefficients, all Fractions.
    rng = random.Random(31)

    def coeff(bits):
        shape = rng.randrange(4)
        if shape == 0:
            return 0
        top = rng.randint(-(2**bits), 2**bits)
        return top if shape == 1 else F(top, rng.randint(1, 2**bits))

    for trial in range(400):
        bits = (3, 100)[trial % 2]
        orders = (0 if trial % 5 == 0 else rng.randint(0, 12), rng.randint(0, 12))
        a, b = (Series(QQ, [coeff(bits) for _ in range(k + 1)]) for k in orders)
        got = a * b
        assert got.coeffs == _loop_mul(a, b), (a, b)
        assert all(type(c) is F for c in got.coeffs)
        assert (b * a).coeffs == got.coeffs
    ints = Series(QQ, [2, 0, -3])
    assert (ints * ints).coeffs == (F(4), F(0), F(-12))
    assert all(type(c) is F for c in (ints * ints).coeffs)


def test_ring_mismatch_and_powers():
    a = Series.one(QQ, 3)
    b = Series(DE, [GradedPoly.one()], 3)
    with pytest.raises(RingMismatch):
        a * b
    assert S(1, 1, order=6) ** 3 == S(1, 3, 3, 1, order=6)
    assert S(1, 1) ** 0 == Series.one(QQ, 1)


def test_graded_coefficient_series():
    d = GradedPoly.delta()
    w = Series(DE, [GradedPoly.zero(), d], 4)
    sq = binomial_power(w, 2)  # (1 + delta*u)^2
    assert sq[0] == GradedPoly.one()
    assert sq[1] == d * 2
    assert sq[2] == d * d
    assert sq[3] == GradedPoly.zero()


def test_truncate_refuses_extension():
    a = S(1, 2, 3)
    assert a.truncate(1) == S(1, 2)
    with pytest.raises(IndexBeyondTruncation):
        a.truncate(9)


def test_equality_through_common_order():
    assert S(1, 2, 3) == S(1, 2, 3, 4, 5)
    assert S(1, 2, 3) != S(1, 2, 4, 4)


def test_equal_series_hash_equal():
    # Equality compares through the common order, so a hash may read only what
    # that fixes, the ring and the constant term: equal series of different
    # orders must land in one set entry.
    a, b = Series(QQ, [1, 2]), Series(QQ, [1, 2, 3])
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    rng = random.Random(7)
    for _ in range(200):
        s = Series(QQ, [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rng.randint(1, 6))])
        t = s.truncate(rng.randint(0, s.order))
        longer = Series(QQ, list(s.coeffs) + [F(rng.randint(-5, 5))], s.order + 1)
        for other in (t, longer):
            assert s == other and hash(s) == hash(other), (s, other)
    c = Series(QQ, [2, 2])
    assert a != c and len({a, b, c}) == 2
    assert Series(DE, [GradedPoly.one()]) != Series(QQ, [1])
