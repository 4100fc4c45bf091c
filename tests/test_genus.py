"""The genus catalog: logarithms, characteristic series, power systems."""
from fractions import Fraction as F
from math import factorial

import pytest
from reference_series import cosh_series, sinh_series

from zpgenus.errors import (
    BadParams,
    IndexBeyondTruncation,
    UnsupportedClosedForm,
    UnsupportedKind,
)
from zpgenus import genus as genus_module
from zpgenus.genus import (
    CATALOG_KINDS,
    cpn_genus,
    make_genus,
    parse_genus_name,
    power_system,
    power_system_closed,
)
from zpgenus.graded import DE, GradedPoly
from zpgenus.rings import MEMO_SIZE, QQ
from zpgenus.series import Series, binomial_power

D = GradedPoly.delta()
E = GradedPoly.eps()

Y_SAMPLES = (F(0), F(1), F(2), F(-2), F(1, 2))


def _genus(kind, order, y=None):
    return make_genus(kind, order, y)


def test_todd_series():
    g = _genus("todd", 8)
    assert [g.logarithm[k] for k in range(1, 9)] == [F(1, k) for k in range(1, 9)]
    # f = 1 - e^{-w}: coefficient of w^k is -(-1)^k/k!
    assert [g.f_series[k] for k in range(1, 9)] == [
        -F(-1) ** k / factorial(k) for k in range(1, 9)
    ]


def test_euler_series():
    g = _genus("euler", 8)
    assert [g.logarithm[k] for k in range(9)] == [0] + [1] * 8
    # f = w/(1+w)
    assert [g.f_series[k] for k in range(1, 9)] == [F(-1) ** (k + 1) for k in range(1, 9)]


def test_l_genus_series():
    g = _genus("l_genus", 9)
    assert g.logarithm[1] == 1 and g.logarithm[3] == F(1, 3) and g.logarithm[5] == F(1, 5)
    assert g.logarithm[2] == 0 and g.logarithm[4] == 0
    # f = tanh(w) checked against the independent sinh/cosh quotient
    tanh = sinh_series(QQ, 9).divide(cosh_series(QQ, 9))
    assert g.f_series == tanh


def test_a_hat_series():
    g = _genus("a_hat", 9)
    # f = 2 sinh(w/2): coefficient of w^{2k+1} is 2 (1/2)^{2k+1} / (2k+1)!
    for k in range(1, 10):
        expect = 2 * F(1, 2) ** k / factorial(k) if k % 2 else F(0)
        assert g.f_series[k] == expect
    # logarithm' = (1+u^2/4)^{-1/2}
    deriv = g.logarithm.differentiate()
    assert deriv[2] == F(-1, 8) and deriv[4] == F(3, 128)


def test_chi_y_normalization_and_unnormalized_form():
    y = F(2)
    g = _genus("chi_y", 9, y)
    assert g.logarithm[0] == 0 and g.logarithm[1] == 1
    # (1+y) g equals ln((1+yu)/(1-u)) = sum_k (1 - (-y)^k)/k u^k
    unnorm = Series(
        QQ, [F(0)] + [(1 - (-y) ** k) / k for k in range(1, 10)]
    )
    assert g.logarithm.scale(1 + y) == unnorm


def test_chi_y_specializations():
    assert _genus("chi_y", 8, F(0)).logarithm == _genus("todd", 8).logarithm
    assert _genus("chi_y", 8, F(1)).logarithm == _genus("l_genus", 8).logarithm
    assert _genus("chi_y", 8, F(-1)).logarithm == _genus("euler", 8).logarithm
    for m in (2, 3):
        assert power_system(_genus("chi_y", 8, F(0)), m) == power_system(_genus("todd", 8), m)
        assert power_system(_genus("chi_y", 8, F(1)), m) == power_system(_genus("l_genus", 8), m)
        assert power_system(_genus("chi_y", 8, F(-1)), m) == power_system(_genus("euler", 8), m)


def test_elliptic_f_satisfies_defining_ode():
    g = make_genus("elliptic", 10)
    f = g.f_series
    lhs = f.differentiate() ** 2
    f2 = (f * f).truncate(9)
    one = Series.one(DE, 9)
    rhs = one - f2.scale(2) * Series(DE, [D], 9) + (f2 * f2).truncate(9) * Series(DE, [E], 9)
    assert lhs == rhs
    # the w^3 coefficient is -delta/3 (the ODE forces the sign)
    assert f[1] == GradedPoly.one()
    assert f[3] == D * F(-1, 3)
    assert f[5] == D * D * F(1, 30) + E * F(1, 10)


def test_elliptic_degenerations():
    g = make_genus("elliptic", 13)
    # delta = eps = 1: f = tanh
    tanh = sinh_series(QQ, 13).divide(cosh_series(QQ, 13))
    spec1 = Series(QQ, [c.substitute(1, 1) for c in g.f_series.coeffs])
    assert spec1 == tanh
    # delta = -1/8, eps = 0: f = 2 sinh(w/2)
    ahat_f = make_genus("a_hat", 13).f_series
    spec2 = Series(QQ, [c.substitute(F(-1, 8), 0) for c in g.f_series.coeffs])
    assert spec2 == ahat_f


def test_elliptic_homogeneity():
    g = make_genus("elliptic", 12)
    for series in (g.logarithm, g.f_series, power_system(g, 3)):
        for m in range(1, 13):
            c = series[m]
            assert {2 * a + 4 * b for a, b in c.terms} <= {m - 1}, (m, c)
    deriv = g.logarithm.differentiate()
    for m in range(12):
        c = deriv[m]
        if m % 2:
            assert c.is_zero()
        else:
            assert {2 * a + 4 * b for a, b in c.terms} == {m}


def test_elliptic_power_system_3_closed_form():
    g = make_genus("elliptic", 13)
    u = Series.identity(DE, 13)
    zero = GradedPoly.zero()

    def poly(coeff_map):
        coeffs = [zero] * 14
        for k, c in coeff_map.items():
            coeffs[k] = c
        return Series(DE, coeffs)

    num = poly({1: GradedPoly.const(3), 3: D * -8, 5: E * 6, 9: E * E * -1})
    den = poly({0: GradedPoly.one(), 4: E * -6, 6: D * E * 8, 8: E * E * -3})
    assert power_system(g, 3) == num * den.invert()


def test_power_systems_generic_equals_closed():
    for kind in ("todd", "euler", "l_genus", "a_hat"):
        g = _genus(kind, 12)
        for m in range(1, 7):
            assert power_system(g, m) == power_system_closed(kind, m, 12), (kind, m)
    for y in Y_SAMPLES:
        g = _genus("chi_y", 12, y)
        for m in range(1, 7):
            assert power_system(g, m) == power_system_closed("chi_y", m, 12, y), (y, m)
    # chi_y at y = -1 degenerates to the euler closed form
    assert power_system_closed("chi_y", 3, 10, F(-1)) == power_system_closed("euler", 3, 10)


def test_power_system_closed_frozen_examples():
    # [u]_2 todd = 2u - u^2
    assert power_system_closed("todd", 2, 6) == Series.from_fractions(QQ, [0, 2, -1], 6)
    # [u]_3 euler = 3u/(1+2u)
    expect = Series.identity(QQ, 6).scale(3) * Series.from_fractions(QQ, [1, 2], 6).invert()
    assert power_system_closed("euler", 3, 6) == expect
    # [u]_2 l_genus = 2u/(1+u^2)
    expect = Series.identity(QQ, 8).scale(2) * Series.from_fractions(QQ, [1, 0, 1], 8).invert()
    assert power_system_closed("l_genus", 2, 8) == expect
    # [u]_2 a_hat = 2u sqrt(1+u^2/4) (from sinh(2t) = 2 sinh t cosh t)
    root = binomial_power(Series.from_fractions(QQ, [0, 0, F(1, 4)], 8), F(1, 2))
    assert power_system_closed("a_hat", 2, 8) == Series.identity(QQ, 8).scale(2) * root


def test_power_system_composition_law():
    for kind, y in [(k, None) for k in ("todd", "euler", "l_genus", "a_hat", "elliptic")] + [
        ("chi_y", F(2))
    ]:
        g = _genus(kind, 12, y)
        for a in (2, 3):
            for b in (2, 3):
                lhs = power_system(g, a).compose(power_system(g, b))
                assert lhs == power_system(g, a * b), (kind, a, b)


def test_power_system_identity_and_validation():
    g = _genus("todd", 6)
    assert power_system(g, 1) == Series.identity(QQ, 6)
    with pytest.raises(BadParams):
        power_system(g, 0)
    with pytest.raises(UnsupportedClosedForm):
        power_system_closed("elliptic", 2, 6)


def test_cpn_genus_values():
    for n in range(0, 7):
        assert cpn_genus(_genus("todd", 8), n) == 1
        assert cpn_genus(_genus("euler", 8), n) == n + 1
        assert cpn_genus(_genus("l_genus", 8), n) == (1 if n % 2 == 0 else 0)
        assert cpn_genus(_genus("a_hat", 8), n) == (
            cpn_genus(_genus("elliptic", 8), n).substitute(F(-1, 8), 0)
        )
        for y in (F(0), F(1), F(2), F(-2)):
            expect = (1 + F(-1) ** n * y ** (n + 1)) / (1 + y)
            assert cpn_genus(_genus("chi_y", 8, y), n) == expect
    assert cpn_genus(_genus("elliptic", 8), 2) == D
    assert cpn_genus(_genus("elliptic", 8), 1) == GradedPoly.zero()
    assert cpn_genus(_genus("elliptic", 8), 2).substitute(1, 1) == 1
    assert cpn_genus(_genus("a_hat", 8), 2) == F(-1, 8)
    with pytest.raises(IndexBeyondTruncation):
        cpn_genus(_genus("todd", 4), 4)


def test_custom_genus():
    log = Series.from_fractions(QQ, [0, 1, 0, F(1, 3), 0, F(1, 5)], 5)
    g = make_genus("custom", 5, logarithm=log)
    assert g.kind == "custom"
    assert g.f_series == make_genus("l_genus", 5).f_series
    with pytest.raises(BadParams):
        make_genus("custom", 5)
    with pytest.raises(BadParams):
        make_genus("custom", 5, logarithm=Series.from_fractions(QQ, [1, 1], 5))
    with pytest.raises(BadParams):
        make_genus("custom", 5, logarithm=Series.from_fractions(QQ, [0, 2], 5))


def test_custom_genus_refuses_a_stray_y():
    # like every other kind but chi_y, custom takes no y
    log = Series.from_fractions(QQ, [0, 1, 0, F(1, 3), 0, F(1, 5)], 5)
    for y in (5, F(1, 2), 0):
        with pytest.raises(BadParams, match="does not take a parameter y"):
            make_genus("custom", 5, y=y, logarithm=log)
    assert make_genus("custom", 5, y=None, logarithm=log).y is None


def test_make_genus_validation():
    with pytest.raises(BadParams):
        make_genus("todd", 1)
    with pytest.raises(BadParams):
        make_genus("chi_y", 6)
    with pytest.raises(BadParams):
        make_genus("todd", 6, y=F(1))
    with pytest.raises(UnsupportedKind):
        make_genus("signature", 6)
    assert make_genus("todd", 6) is make_genus("todd", 6)


def test_genus_memo_is_bounded():
    # make_genus returns the genus it built before for every catalog kind, so
    # factors and tables cached on it are reused; a stream of distinct chi_y
    # keeps the last MEMO_SIZE genera, no more.  A custom genus is built anew.
    for kind in CATALOG_KINDS:
        y = F(3) if kind == "chi_y" else None
        assert make_genus(kind, 5, y) is make_genus(kind, 5, y)
    log = Series.from_fractions(QQ, [0, 1, 0, F(1, 3)], 5)
    assert make_genus("custom", 5, logarithm=log) is not make_genus("custom", 5, logarithm=log)
    ys = [F(y, 11) for y in range(1000, 1000 + 2 * MEMO_SIZE)]
    for y in ys:
        make_genus("chi_y", 2, y)
    info = genus_module._catalog_genus.cache_info()
    assert info.maxsize == info.currsize == MEMO_SIZE
    assert make_genus("chi_y", 2, ys[-1]) is make_genus("chi_y", 2, ys[-1])
    misses = genus_module._catalog_genus.cache_info().misses
    make_genus("chi_y", 2, ys[0])  # evicted, so built again
    assert genus_module._catalog_genus.cache_info().misses == misses + 1


def test_genus_names():
    assert parse_genus_name("td") == ("todd", None)
    assert parse_genus_name("L") == ("l_genus", None)
    assert parse_genus_name("chi_y:-1/2") == ("chi_y", F(-1, 2))
    assert parse_genus_name("ahat") == ("a_hat", None)
    assert parse_genus_name("euler") == ("euler", None)
    assert parse_genus_name("elliptic") == ("elliptic", None)
    assert parse_genus_name("chi_y:2") == ("chi_y", F(2))
    with pytest.raises(BadParams):
        parse_genus_name("todd_genus")
    with pytest.raises(BadParams):
        parse_genus_name("chi_y:one")


def test_catalog_logarithm_normalization():
    for kind in CATALOG_KINDS:
        y = F(2) if kind == "chi_y" else None
        g = make_genus(kind, 6, y)
        assert not g.logarithm[0]
        assert g.logarithm[1] == g.ring.one
        assert g.f_series[1] == g.ring.one
