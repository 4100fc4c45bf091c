"""The fixed-point engine: weight data, the three routes, and the congruences."""
import copy
import gc
import json
import pickle
import random
import sys
import time
from collections import Counter, namedtuple
from fractions import Fraction as F
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_series import a_series, arcsinh_u_over_2, cosh_series, p_power_factor

from zpgenus import checks as checks_module
from zpgenus import cli
from zpgenus import cyclotomic as cyclotomic_module
from zpgenus import engine as engine_module
from zpgenus import genus as genus_module
from zpgenus import rings as rings_module
from zpgenus.checks import (SubmanifoldComponent, SubmanifoldData, Thm71Report, ab_coefficient,
                            h_series, p_series_term, submanifold_genus, thm71_check)
from zpgenus.cyclotomic import ab_trace, trace_theta_power
from zpgenus.engine import (
    ROUTES,
    ResidueTuple,
    WeightSet,
    _point_sums,
    _route_total,
    b_series,
    canonical_residues,
    cf_residuals,
    cpn_weight_set,
    genus_mod_p,
    reduce_value,
)
from zpgenus.errors import (
    BadParams,
    EngineError,
    GuardViolation,
    NonIntegralAtP,
    UnsupportedKind,
    ZeroWeight,
)
from zpgenus.genus import (TRACE_KINDS, GenusSpec, cpn_genus, ensure_order, make_genus, power_system,
                          require_theta)
from zpgenus.graded import GradedPoly, poly_reduce_mod_p
from zpgenus.rings import (
    MEMO_SIZE,
    PACKED_CACHE_BYTES,
    QQ,
    ModP,
    canonical_weight,
    is_odd_prime,
    rational_reduce_mod_p,
)
from zpgenus.series import Series, binomial_power

CP1_P3 = WeightSet(p=3, n=1, points=((1,), (2,)))
CP2_P5 = WeightSet(p=5, n=2, points=((1, 2), (4, 1), (3, 4)))


def _random_weight_set(rng, p, n, q):
    return WeightSet(
        p=p, n=n, points=tuple(tuple(rng.randint(1, p - 1) for _ in range(n)) for _ in range(q))
    )


# The lru memos of genera and of what the routes derive from them.
_ROUTE_MEMOS = (genus_module._catalog_genus, engine_module._q, engine_module._leads,
                engine_module._residue_table, cyclotomic_module._route_table,
                checks_module._h_inverse)


def _clear_memos():
    """Empty the genus and route memos, so that the next genus starts with no tables."""
    for memo in _ROUTE_MEMOS:
        memo.cache_clear()


def test_canonical_weight():
    assert canonical_weight(7, 5) == 2
    assert canonical_weight(-1, 5) == 4
    with pytest.raises(ZeroWeight):
        canonical_weight(10, 5)
    with pytest.raises(BadParams):
        canonical_weight(F(1, 2), 5)


def test_weight_set_construction():
    w = WeightSet(p=5, n=2, points=((6, -3), (1, 2)))
    assert w.points == ((1, 2), (1, 2))
    assert w.q == 2
    with pytest.raises(BadParams):
        WeightSet(p=4, n=1, points=((1,),))
    with pytest.raises(BadParams):
        WeightSet(p=5, n=2, points=((1,),))
    with pytest.raises(ZeroWeight):
        WeightSet(p=5, n=1, points=((5,),))
    with pytest.raises(BadParams):
        WeightSet([7], 1, ((1,),))


def test_weight_sets_keep_canonical_weights_in_one_flat_tuple():
    a, b = (1, 2), (3, 4)
    again = tuple([1, 2])
    assert again == a and again is not a
    w = WeightSet(5, 2, (a, b, again, a))
    assert w.points == ((1, 2), (3, 4), (1, 2), (1, 2))
    # the set keeps one flat tuple of its q*n canonical weights, in point order
    assert WeightSet.__slots__ == ("p", "n", "q", "weights")
    assert w.weights == (1, 2, 3, 4, 1, 2, 1, 2) and w.q == 4
    tuples = [r for r in gc.get_referents(w) if type(r) is tuple]
    assert tuples == [w.weights] and all(type(x) is int for x in w.weights)
    # a point that is not a plain tuple of ints in [1, p-1] is canonicalized
    Pt = namedtuple("Pt", "x y")
    for point in (Pt(1, 2), [1, 2], (6, 2), (-4, 7), (11, 12), iter((1, 2))):
        v = WeightSet(5, 2, (point, (1, 2)))
        assert v.points == ((1, 2), (1, 2)) and type(v.points[0]) is tuple
        assert v.weights == (1, 2, 1, 2)
    named = WeightSet(5, 2, (Pt(1, 2), Pt(3, 4), [1, 2], (6, 7)))
    assert named == w and hash(named) == hash(w) and repr(named) == repr(w)
    assert repr(w) == "WeightSet(p=5, n=2, points=((1, 2), (3, 4), (1, 2), (1, 2)))"
    assert not hasattr(w, "__dict__")  # a slotted record
    # at n = 0 the weights are empty, and q keeps the count of empty points
    e = WeightSet(5, 0, ((), [], iter(())))
    assert (e.q, e.weights, e.points) == (3, (), ((), (), ()))
    assert e.distinct_points == {(): 3}
    assert repr(e) == "WeightSet(p=5, n=0, points=((), (), ()))"


@pytest.mark.parametrize("points, error, message", [
    (((True,),), BadParams, "weights must be ints, got True"),
    (((1.0,),), BadParams, "weights must be ints, got 1.0"),
    (((0,),), ZeroWeight, "weight ≡ 0 mod p = 5 is not allowed"),
    (((10,),), ZeroWeight, "weight ≡ 0 mod p = 5 is not allowed"),
    (((-5,),), ZeroWeight, "weight ≡ 0 mod p = 5 is not allowed"),
    (((1, 2),), BadParams, "each fixed point needs exactly n = 1 weights, got 2"),
    (((),), BadParams, "each fixed point needs exactly n = 1 weights, got 0"),
    (((1,), (2.0, 3)), BadParams, "weights must be ints, got 2.0"),  # type before length
    ((namedtuple("Pt", "x y")(1, 2),), BadParams, "each fixed point needs exactly n = 1 weights, got 2"),
])
def test_weight_set_errors_are_unchanged(points, error, message):
    with pytest.raises(error) as exc:
        WeightSet(5, 1, points)
    assert type(exc.value) is error and str(exc.value) == message


def test_weight_sets_survive_pickle_and_copy():
    w = WeightSet(7, 2, ((2, 1), (1, 9), (2, 1)))
    w.distinct_points
    for twin in (pickle.loads(pickle.dumps(w)), copy.copy(w), copy.deepcopy(w)):
        assert type(twin) is WeightSet and twin == w and hash(twin) == hash(w)
        assert repr(twin) == repr(w) and twin.distinct_points == {(2, 1): 2, (1, 2): 1}


def test_weight_set_json_roundtrip():
    d = CP2_P5.to_json_dict()
    assert d == {"p": 5, "n": 2, "fixed_points": [[1, 2], [4, 1], [3, 4]]}
    assert WeightSet.from_json_dict(d) == CP2_P5
    assert WeightSet.from_json('{"p":3,"n":1,"fixed_points":[[1],[2]]}') == CP1_P3
    with pytest.raises(BadParams):
        WeightSet.from_json("{not json")
    with pytest.raises(BadParams):
        WeightSet.from_json('{"p": 3, "n": 1}')
    with pytest.raises(BadParams):
        WeightSet.from_json_dict({"p": 3, "n": 1, "fixed_points": [1, 2]})


@st.composite
def _weight_set_inputs(draw):
    """(p, n, the points as given, their canonical tuples): q <= 20 points of n
    ints, some out of [1, p-1], each given as a tuple, a list, a namedtuple, an
    iterator or again as an earlier point's object."""
    p = draw(st.sampled_from((5, 7, 11, 13, 23)))
    n = draw(st.integers(0, 6))
    Pt = namedtuple("Pt", [f"x{i}" for i in range(n)])
    unit = st.integers(-2 * p, 3 * p).filter(lambda x: x % p)
    given_points, canonical, reusable = [], [], []
    for _ in range(draw(st.integers(0, 20))):
        form = draw(st.sampled_from(("tuple", "list", "named", "iter", "again")))
        if form == "again" and reusable:
            pt, want = draw(st.sampled_from(reusable))
        else:
            xs = draw(st.lists(unit, min_size=n, max_size=n))
            pt = {"list": list, "named": lambda xs: Pt(*xs), "iter": iter}.get(form, tuple)(xs)
            want = tuple(x % p for x in xs)
            if form != "iter":  # an iterator is spent by its one use
                reusable.append((pt, want))
        given_points.append(pt)
        canonical.append(want)
    return p, n, tuple(given_points), tuple(canonical)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_weight_set_inputs())
def test_weight_sets_round_trip(case):
    # Whatever form the points take, the set's points are their canonical tuples,
    # and rebuilding it from them, from its JSON form, by pickle or by copy gives
    # an equal set, whose distinct points are a Counter of the canonical points.
    p, n, points, canonical = case
    w = WeightSet(p, n, points)
    assert (w.p, w.n, w.q, w.points) == (p, n, len(canonical), canonical)
    twins = (WeightSet(p, n, w.points), WeightSet.from_json(json.dumps(w.to_json_dict())),
             pickle.loads(pickle.dumps(w)), copy.copy(w), copy.deepcopy(w))
    for twin in twins:
        assert type(twin) is WeightSet and twin == w and hash(twin) == hash(w)
        assert repr(twin) == repr(w) and twin.points == canonical
    assert w.distinct_points == Counter(canonical)
    assert twins[-1].distinct_points == Counter(canonical)


def test_a_series_frozen():
    g = make_genus("todd", 8)
    # u/[u]_2 = 1/(2 - u): coefficient of u^k is 1/2^{k+1}
    a = a_series(g, (2,), 5)
    assert [a[k] for k in range(6)] == [F(1, 2 ** (k + 1)) for k in range(6)]
    assert a_series(g, (), 5) == Series.one(QQ, 5)
    ge = make_genus("euler", 8)
    # euler u/[u]_2 = (1 + u)/2
    assert a_series(ge, (2,), 3) == Series.from_fractions(QQ, [F(1, 2), F(1, 2)], 3)
    with pytest.raises(BadParams):
        a_series(g, (0,), 5)


def test_p_series_frozen():
    g = make_genus("todd", 9)
    # 3u/[u]_3 = 1/(1 - u + u^2/3) = 1 + u + (2/3)u^2 + ...
    pf = p_power_factor(g, 3, 4)
    assert pf[0] == 1 and pf[1] == 1 and pf[2] == F(2, 3)
    assert p_series_term(g, 3, (1,), 1) == 1
    assert p_series_term(g, 3, (2,), 1) == F(3, 4)
    ge = make_genus("euler", 9)
    # euler: 3u/[u]_3 = 1 + 2u, and <(1+2u)(1+u)/2>_1 = 3/2
    assert p_series_term(ge, 3, (2,), 1) == F(3, 2)
    with pytest.raises(BadParams):
        p_series_term(g, 3, (1,), -1)
    with pytest.raises(BadParams, match="p_series_term weight must be an int >= 1, got 0"):
        p_series_term(g, 3, (2, 0), 1)
    # slot m needs the genus through order m + 1 only, however many weights
    custom = make_genus("custom", 2, logarithm=Series.from_fractions(QQ, [0, 1, F(1, 2)], 2))
    weights = (1, 2, 3, 4)
    want = (p_power_factor(custom, 5, 1) * a_series(custom, weights, 1))[1]
    assert p_series_term(custom, 5, weights, 1) == want


def test_b_series_values():
    for p in (3, 5, 7):
        for kind, y in [("todd", None), ("euler", None), ("l_genus", None), ("a_hat", None),
                        ("chi_y", F(2))]:
            if kind == "chi_y" and p == 3:
                continue
            b = b_series(kind, p, 8, y)
            assert b[0] == p - 1
            for s in range(9):
                assert b[s] == trace_theta_power(kind, p, -s, y), (kind, p, s)
        # todd B_1 = Tr 1/(1 - zeta) = (p-1)/2
        assert b_series("todd", p, 4)[1] == F(p - 1, 2)


def test_b_series_validation():
    # euler's theta is 1, so B = sum_s Tr(1) u^s = (p-1)/(1-u)
    for p in (3, 5, 7):
        assert b_series("euler", p, 9) == Series.from_fractions(QQ, [p - 1] * 10, 9)
    with pytest.raises(UnsupportedKind):
        b_series("elliptic", 5, 4)
    with pytest.raises(BadParams):
        b_series("chi_y", 3, 4, 2)
    with pytest.raises(BadParams):
        b_series("chi_y", 5, 4, F(1, 5))
    with pytest.raises(BadParams):
        b_series("chi_y", 5, 4)
    with pytest.raises(BadParams):
        b_series("todd", 5, 4, 1)
    # chi_y at y = -1 is euler; y = 4 ≡ -1 mod 5 is not, and stays degenerate
    assert b_series("chi_y", 5, 9, -1) == b_series("euler", 5, 9)
    with pytest.raises(BadParams, match="theta degenerates"):
        b_series("chi_y", 5, 4, 4)


def test_ab_coefficient_frozen():
    g = make_genus("todd", 8)
    assert ab_coefficient(g, 3, (1,)) == -1
    assert ab_coefficient(g, 3, (2,)) == -1
    # euler ignores weights: always -(p-1)
    ge = make_genus("euler", 8)
    assert ab_coefficient(ge, 5, (1, 2, 3)) == -4
    assert ab_coefficient(ge, 5, ()) == -4
    # no weights: -<B>_0 = -Tr(1) = -(p-1) for every kind
    assert ab_coefficient(g, 5, ()) == -4
    with pytest.raises(UnsupportedKind):
        ab_coefficient(make_genus("elliptic", 8), 5, (1,))


def test_ab_coefficient_matches_trace():
    rng = random.Random(21)
    cases = [("todd", None), ("l_genus", None), ("a_hat", None), ("chi_y", F(2))]
    for p in (3, 5, 7):
        for kind, y in cases:
            if kind == "chi_y" and p == 3:
                continue
            g = make_genus(kind, max(4, p) + 3, y)
            for _ in range(12):
                weights = tuple(rng.randint(1, p - 1) for _ in range(rng.randint(1, 4)))
                # each route's exact rational may have p in its denominator;
                # the congruence says their difference is p-integral and ≡ 0
                diff = ab_coefficient(g, p, weights) - ab_trace(kind, p, weights, y)
                assert rational_reduce_mod_p(diff, p).value == 0, (kind, p, weights)


def test_ab_literal_representatives():
    # a_series uses weights literally; adding p to a weight changes the exact
    # rational but not its residue, pinned against the trace oracle
    for p in (3, 5):
        for x in range(1, p):
            order = p + 2
            g = make_genus("todd", order + p + 3)
            val = -(a_series(g, (x + p,), order) * b_series("todd", p, order))[1]
            diff = val - ab_trace("todd", p, (x,))
            assert rational_reduce_mod_p(diff, p).value == 0, (p, x)


def test_genus_mod_p_cp1_todd():
    g = make_genus("todd", 8)
    for route in ("pseries", "ab", "trace"):
        assert genus_mod_p(g, CP1_P3, route) == ModP(1, 3)
    with pytest.raises(BadParams):
        genus_mod_p(g, CP1_P3, "bogus")


def test_genus_mod_p_euler_counts_points():
    g = make_genus("euler", 8)
    rng = random.Random(22)
    for p in (3, 5, 7):
        for _ in range(5):
            w = _random_weight_set(rng, p, rng.randint(1, 3), rng.randint(0, 2 * p))
            assert genus_mod_p(g, w, "ab") == ModP(w.q, p)
            assert genus_mod_p(g, w, "trace") == ModP(w.q, p)


def test_genus_mod_p_elliptic():
    g = make_genus("elliptic", 10)
    assert genus_mod_p(g, CP2_P5, "pseries") == poly_reduce_mod_p(GradedPoly.delta(), 5)
    with pytest.raises(UnsupportedKind):
        genus_mod_p(g, CP2_P5, "ab")
    with pytest.raises(UnsupportedKind):
        genus_mod_p(g, CP2_P5, "trace")


def test_empty_weight_sets_are_checked_like_any_other():
    # A set with no points sums to 0 on every route that serves its kind and y,
    # and a route that refuses a kind or y on a non-empty set refuses it on an
    # empty one too, the exact totals included.
    for p, n in ((3, 0), (3, 2), (7, 3)):
        empty = WeightSet(p, n, ())
        for kind in TRACE_KINDS:
            if kind != "chi_y":
                for route in ROUTES:
                    assert genus_mod_p(make_genus(kind, 2), empty, route) == ModP(0, p)
        elliptic = make_genus("elliptic", 2)
        assert genus_mod_p(elliptic, empty, "pseries") == poly_reduce_mod_p(GradedPoly.zero(), p)
        for route in ("ab", "trace"):
            for f in (genus_mod_p, _route_total):
                with pytest.raises(UnsupportedKind):
                    f(elliptic, empty, route)
    chi = make_genus("chi_y", 2, F(7, 3))
    empty = WeightSet(3, 2, ())
    assert genus_mod_p(chi, empty, "pseries") == ModP(0, 3)
    for route in ("ab", "trace"):
        for f in (genus_mod_p, _route_total):
            with pytest.raises(BadParams, match="not p-integral at p = 3"):
                f(chi, empty, route)


def test_cf_residuals_vanish_on_projective_data():
    for kind in ("todd", "l_genus", "a_hat", "euler"):
        g = make_genus(kind, 10)
        res = cf_residuals(g, CP2_P5)
        assert all(isinstance(r, ModP) and r.value == 0 for r in res)
        assert len(res) == 2


def test_cf_residuals_empty_and_errors():
    g = make_genus("todd", 8)
    res = cf_residuals(g, WeightSet(p=5, n=1, points=()))
    assert res == [ModP(0, 5)]
    with pytest.raises(BadParams):
        cf_residuals(g, WeightSet(p=5, n=0, points=((),)))


def test_cf_residuals_capture_non_integral_slots():
    log = Series.from_fractions(QQ, [0, 1, F(1, 5)] + [0] * 10, 12)
    g = make_genus("custom", 12, logarithm=log)
    w = WeightSet(p=5, n=2, points=((1, 1),))
    res = cf_residuals(g, w)
    assert isinstance(res[0], ModP) and res[0].value == 1
    assert isinstance(res[1], NonIntegralAtP)


def test_routes_read_exact_values_of_wide_truncations():
    # Each route truncates at the coefficient it reads; its exact per-point
    # values must equal those read off series built to the wide orders
    # n+p+2 (pseries) and max(d, p)+2 (ab).
    rng = random.Random(26)
    kinds = [("todd", None), ("euler", None), ("l_genus", None), ("chi_y", F(2)),
             ("chi_y", F(-1, 2)), ("a_hat", None), ("elliptic", None)]
    for p in (3, 5, 7, 11):
        sets = [cpn_weight_set(canonical_residues(p, n)) for n in (1, 2, 3) if n < p]
        sets += [_random_weight_set(rng, p, n, 2) for n in (0, 1, 2, 3)]
        for kind, y in kinds:
            if kind == "elliptic" and p == 11:
                continue  # the wide elliptic genus at order 17 is too slow
            lean = make_genus(kind, 2, y)
            wide = make_genus(kind, p + 6, y)
            has_b = kind != "elliptic" and (kind, y, p) != ("chi_y", F(2), 3)
            for w in sets:
                order = w.n + p + 2
                pf = p_power_factor(wide, p, order)
                for pt in w.distinct_points:
                    prod = _point_sums(lean, p, w.n, "pseries", range(w.n + 1), [(pt, 1)])
                    ref = pf * a_series(wide, pt, order)
                    assert prod == list(ref.coeffs[: w.n + 1]), (kind, y, p, pt)
                    if has_b:
                        order_ab = max(w.n, p) + 2
                        a = a_series(wide, pt, order_ab)
                        ref_ab = -(a * b_series(kind, p, order_ab, y))[w.n]
                        assert ab_coefficient(lean, p, pt) == ref_ab, (kind, y, p, pt)


def _series_thm71_and_cf(g, w):
    """thm71_check's JSON report and cf_residuals' reprs from series products per point,
    summed over every point."""
    n, p = w.n, w.p
    pf = p_power_factor(g, p, n)
    points = w.distinct_points.items()
    prods = [(k, pf * a_series(g, pt, n)) for pt, k in points]
    sums = [sum((prod[m] * k for k, prod in prods), F(0)) for m in range(n + 1)]
    cf = []
    for total in sums[:n]:
        try:
            cf.append(repr(rational_reduce_mod_p(total, p)))
        except NonIntegralAtP as exc:
            cf.append(repr(exc))
    ab_sum = sum((-(a_series(g, pt, n) * b_series(g.kind, p, n, g.y))[n] * k
                  for pt, k in points), F(0))
    h_inv = h_series(g.kind, p, n, g.y).invert()
    rhs = sums[n] + sum((h_inv[n - m] * sums[m] for m in range(n)), F(0))
    try:
        lhs, rhs = rational_reduce_mod_p(ab_sum, p), rational_reduce_mod_p(rhs, p)
    except NonIntegralAtP:
        return None, cf
    report = Thm71Report(p, n, w.q, ab_sum, sums[n], tuple(sums[:n]),
                         tuple(h_inv[k] for k in range(n + 1)), lhs, rhs)
    return json.dumps(report.to_json_dict()), cf


def test_integer_routes_equal_series_products():
    # Every exact per-point value and total must equal the u-form reference
    # (p_power_factor * a_series)[n] and -(a_series * b_series)[d], and the
    # cf_residuals (read from residues mod p) and thm71_check reports must
    # equal those built from them.
    rng = random.Random(29)
    kinds = [("todd", None), ("euler", None), ("l_genus", None), ("chi_y", F(2)),
             ("chi_y", F(-1, 2)), ("a_hat", None), ("elliptic", None)]
    for p in (3, 5, 7, 11, 13):
        sets = [cpn_weight_set(canonical_residues(p, n)) for n in (1, 2, 3, 4) if n < p]
        sets += [_random_weight_set(rng, p, n, 4) for n in (0, 1, 2, 3, 4)]
        for kind, y in kinds:
            if kind == "elliptic" and p > 7:
                continue  # the elliptic genus keeps the series path; p <= 7 shows it
            g = make_genus(kind, 2, y)
            has_b = kind != "elliptic" and (kind, y, p) != ("chi_y", F(2), 3)
            for w in sets:
                n = w.n
                pf = p_power_factor(g, p, n)
                totals = {"pseries": g.ring.zero, "ab": F(0)}
                for pt, k in w.distinct_points.items():
                    one = WeightSet(p, n, (pt,))
                    want = {"pseries": (pf * a_series(g, pt, n))[n]}
                    if has_b:
                        want["ab"] = -(a_series(g, pt, n) * b_series(kind, p, n, y))[n]
                    for route, value in want.items():
                        assert _route_total(g, one, route) == value, (kind, y, p, pt, route)
                        totals[route] = totals[route] + value * k
                for route in ("pseries", "ab") if has_b else ("pseries",):
                    assert _route_total(g, w, route) == totals[route], (kind, y, p, route)
                if has_b and n >= 1:
                    report, cf = _series_thm71_and_cf(g, w)
                    assert [repr(r) for r in cf_residuals(g, w)] == cf, (kind, y, p, w)
                    if report is None:
                        with pytest.raises(NonIntegralAtP):
                            thm71_check(g, w, force=True)
                    else:
                        got = json.dumps(thm71_check(g, w, force=True).to_json_dict())
                        assert got == report, (kind, y, p, w)


def _union_of_products(rng, p, comps):
    """Points of a disjoint union of products CP^a x CP^b, each taken k times.

    A point of CP^a x CP^b is a pair of points; its weights are theirs,
    concatenated.
    """
    points = []
    for a, b, k in comps:
        left, right = (
            cpn_weight_set(ResidueTuple(p, tuple(rng.sample(range(p), m + 1)))).points
            for m in (a, b)
        )
        points += [pa + pb for pa in left for pb in right] * k
    return WeightSet(p=p, n=comps[0][0] + comps[0][1], points=tuple(points))


def test_repeated_points_and_multiplicativity():
    # Each route counts a repeated point once, times its multiplicity; the
    # exact total must equal the plain sum over all points, and its residue
    # phi(sum_k k M_a x M_b) = sum_k k phi(CP^a) phi(CP^b) mod p.
    rng = random.Random(27)
    kinds = [("todd", None), ("chi_y", F(2)), ("l_genus", None), ("a_hat", None)]
    for p in (7, 11, 13):
        for kind, y in kinds:
            g = make_genus(kind, 6, y)
            for n in (2, 3, 4):
                a1, a2 = rng.sample(range(n + 1), 2)
                comps = [(a1, n - a1, rng.randint(2, 3)), (a2, n - a2, rng.randint(1, 3))]
                w = _union_of_products(rng, p, comps)
                assert len(w.distinct_points) < w.q
                pf = p_power_factor(g, p, n)
                plain = {
                    "pseries": sum((pf * a_series(g, pt, n))[n] for pt in w.points),
                    "ab": sum(ab_coefficient(g, p, pt) for pt in w.points),
                    "trace": sum(ab_trace(kind, p, pt, y) for pt in w.points),
                }
                want = sum(k * cpn_genus(g, a) * cpn_genus(g, b) for a, b, k in comps)
                for route, total in plain.items():
                    assert _route_total(g, w, route) == total, (kind, p, comps, route)
                    assert genus_mod_p(g, w, route) == rational_reduce_mod_p(want, p)


def test_trace_route_is_rigid_on_products_and_unions():
    # chi_y is rigid, and so is a_hat on spin manifolds: the equivariant genus
    # at each of the p - 1 elements other than 1 is the genus itself.  The
    # trace route's exact total is minus their sum, so it must be exactly
    # -(p - 1) phi(M), not only congruent to it, on products CP^a x CP^b with
    # random distinct residues and on disjoint unions of them: an oracle for
    # the trace route that shares no code with it.
    rng = random.Random(44)
    kinds = [("todd", None), ("l_genus", None), ("euler", None), ("chi_y", F(2)),
             ("chi_y", F(-1, 3)), ("a_hat", None)]
    checked = 0
    for p in (5, 7, 11, 13):
        for kind, y in kinds:
            g = make_genus(kind, 2, y)
            for _ in range(4):
                n = rng.randint(1, 5)
                shapes = [(a, n - a) for a in range(n + 1) if max(a, n - a) < p]
                if kind == "a_hat":  # spin data: each factor odd-dimensional or a point
                    shapes = [(a, b) for a, b in shapes if all(d % 2 or d == 0 for d in (a, b))]
                if not shapes:
                    continue
                comps = [rng.choice(shapes) + (rng.randint(1, 2),) for _ in range(rng.randint(1, 3))]
                w = _union_of_products(rng, p, comps)
                phi = [cpn_genus(ensure_order(g, n + 1), d) for d in range(n + 1)]
                want = -(p - 1) * sum(k * phi[a] * phi[b] for a, b, k in comps)
                assert _route_total(g, w, "trace") == want, (kind, y, p, comps)
                checked += 1
    assert checked > 80


def test_factor_cache_is_independent_of_fill_order(monkeypatch):
    # A genus keeps its route tables per (p, n) and is memoized per order: the
    # exact route totals must not depend on which query built or filled them.
    def fresh(kind, order, y):
        _clear_memos()
        return make_genus(kind, order, y)

    rng = random.Random(28)
    kinds = [("todd", None), ("euler", None), ("l_genus", None), ("chi_y", F(2)),
             ("chi_y", F(-1, 2)), ("a_hat", None), ("elliptic", None)]
    for p in (3, 5, 7, 11):
        for kind, y in kinds:
            if kind == "elliptic" and p > 7:
                continue  # the elliptic genus at order p + 8 grows slow beyond p = 7
            routes = ROUTES
            if kind not in TRACE_KINDS or (kind, y, p) == ("chi_y", F(2), 3):
                routes = ("pseries",)  # no theta, or 1 + y ≡ 0 mod p
            sets = {n: _random_weight_set(rng, p, n, 3) for n in (2, 5)}
            want = {
                (n, r): _route_total(fresh(kind, n + 1, y), w, r)
                for n, w in sets.items()
                for r in routes
            }
            for first, then in ((5, 2), (2, 5)):
                g = fresh(kind, 5 + p + 3, y)
                for n in (first, then):
                    for r in routes:
                        assert _route_total(g, sets[n], r) == want[n, r], (kind, y, p, first, n, r)

    g = make_genus("chi_y", 9, F(-1, 2))
    for m in (1, 2, 3, 7):
        for k in (1, 4, 9):
            assert power_system(g, m, k).coeffs == power_system(g, m).truncate(k).coeffs

    # a warm genus answers every route without inverting a series
    w = cpn_weight_set(canonical_residues(7, 4))
    g = make_genus("l_genus", 6)
    for r in ROUTES:
        genus_mod_p(g, w, r)
    calls = []
    invert = Series.invert

    def counted(series):
        calls.append(series.order)
        return invert(series)

    monkeypatch.setattr(Series, "invert", counted)
    for r in ROUTES:
        genus_mod_p(g, w, r)
    assert calls == []


def test_packed_tables_grow_with_new_weights():
    # A route's packed table covers the weights queried so far (for the trace
    # route, up to its byte bound); a genus warmed with set A and then asked
    # for set B (new weights, same p and n) must give a fresh genus's residues
    # and errors on every route and in cf_residuals.
    def fresh(kind, y):
        _clear_memos()
        return make_genus(kind, 2, y)

    kinds = [("todd", None), ("euler", None), ("l_genus", None), ("chi_y", F(-1, 2)),
             ("chi_y", F(2)), ("a_hat", None), ("elliptic", None)]
    for p, n in ((7, 2), (11, 3)):
        low = WeightSet(p, n, ((1, 2, 3)[:n], (2, 1, 2)[:n], (1, 1, 3)[:n]))
        high = WeightSet(p, n, ((p - 1, 2, 5)[:n], (p - 2, 1, p - 1)[:n], (1, 2, 3)[:n]))
        for kind, y in kinds:
            routes = ("pseries",) if kind == "elliptic" else ROUTES
            want = {r: _outcome(genus_mod_p, fresh(kind, y), high, r) for r in routes}
            want_cf = [repr(r) for r in cf_residuals(fresh(kind, y), high)]
            g = fresh(kind, y)
            for r in routes:
                _outcome(genus_mod_p, g, low, r)
            cf_residuals(g, low)
            for r in routes:
                assert _outcome(genus_mod_p, g, high, r) == want[r], (kind, p, n, r)
            assert [repr(r) for r in cf_residuals(g, high)] == want_cf, (kind, p, n)
            if kind != "elliptic":
                # one residue table per (p, n), holding the lead of each series
                # route asked, and one trace table; each lookup below is a hit
                used = {x for w in (low, high) for pt in w.points for x in pt}
                tables = engine_module._residue_table, cyclotomic_module._route_table
                assert [memo.cache_info().currsize for memo in tables] == [1, 1]
                t, trace = tables[0](g, p, n), tables[1](kind, g.y, p, n)
                assert [memo.cache_info().currsize for memo in tables] == [1, 1]
                assert set(t.packed) == used and set(t.leads) == {"pseries", "ab"}
                assert set(trace[4]) == used


def test_a_warm_call_packs_nothing_and_a_miss_packs_once(monkeypatch):
    # A call whose weights and lead the table holds reads it as it is; a lead it
    # lacks is packed once, and so is a weight it lacks, on first use, for both
    # series routes at once.  The width is fixed by (p, n), so the residues
    # equal a fresh genus's.
    calls = []  # "lead" for each packed lead, x for a packed weight x
    pack = engine_module._packed
    monkeypatch.setattr(engine_module, "_packed",
                        lambda *a: calls.append(a[2] if len(a) == 3 else "lead") or pack(*a))
    table = engine_module._residue_table
    p, n = 13, 3
    low = WeightSet(p, n, ((1, 2, 4), (2, 1, 2), (4, 4, 1)))
    high = WeightSet(p, n, ((12, 2, 5), (1, 2, 3), (11, 1, 12)))

    def queries(g, w):
        return [repr(genus_mod_p(g, w, r)) for r in ("pseries", "ab")] + [repr(r) for r in cf_residuals(g, w)]

    for kind, y in [("todd", None), ("chi_y", F(-1, 2)), ("a_hat", None)]:
        _clear_memos()
        g = make_genus(kind, n + 1, y)
        calls.clear()
        for route in ("pseries", "ab"):
            genus_mod_p(g, low, route)
            genus_mod_p(g, WeightSet(p, n, low.points[::-1]), route)
        cf_residuals(g, low)
        leads = ["lead"] * (n + 1)
        assert calls == leads + [1, 2, 4] + leads, kind  # pseries leads, low's weights, ab leads
        got = queries(g, high)
        assert calls == leads + [1, 2, 4] + leads + [12, 5, 3, 11], kind  # high's new weights
        assert queries(g, high) == got
        queries(g, low)
        assert len(calls) == 2 * (n + 1) + 7, kind  # warm: nothing packed
        assert table.cache_info().currsize == 1  # one table for every query
        t = table(g, p, n)
        assert table.cache_info().currsize == 1
        assert set(t.packed) == {1, 2, 3, 4, 5, 11, 12}
        assert set(t.leads) == {"pseries", "ab"}
        assert t.width == (4**3 * 12**4).bit_length()  # (n + 1)^n (p - 1)^(n + 1)
        _clear_memos()
        assert got == queries(make_genus(kind, n + 1, y), high), kind


_CATALOG = [("todd", None), ("euler", None), ("l_genus", None), ("chi_y", F(2)),
            ("chi_y", F(-1, 2)), ("a_hat", None), ("elliptic", None)]


@st.composite
def _catalog_inputs(draw):
    """A catalog kind, p <= 23, and a weight set with negative, >= p and repeated
    weights and points; n reaches p - 1 and beyond at p <= 7."""
    kind, y = draw(st.sampled_from(_CATALOG))
    p = draw(st.sampled_from((3, 5, 7, 11, 13, 17, 19, 23)))
    n = draw(st.integers(0, 3 if kind == "elliptic" else 8))
    unit = st.integers(-3 * p, 3 * p).filter(lambda x: x % p)
    points = draw(st.lists(st.tuples(*[unit] * n), max_size=4))
    if points:
        points += draw(st.lists(st.sampled_from(points), max_size=3))
    return kind, y, WeightSet(p, n, tuple(points))


def _outcome(f, *args):
    """repr of f(*args), or of the EngineError it raises."""
    try:
        return repr(f(*args))
    except EngineError as exc:
        return repr(exc)


@settings(derandomize=True, max_examples=250, deadline=None)
@given(_catalog_inputs())
def test_residues_reduce_the_exact_totals(case):
    # genus_mod_p reads pseries and ab from residues mod p and trace from its
    # integer numerator and denominator; it must give reduce_value of the exact
    # total or raise the same error (NonIntegralAtP where the total is not
    # p-integral), and so must cf_residuals slot by slot.
    kind, y, w = case
    g = make_genus(kind, 2, y)
    for route in ROUTES:
        want = _outcome(lambda: reduce_value(_route_total(g, w, route), w.p))
        assert _outcome(genus_mod_p, g, w, route) == want, (case, route)
    if w.n:
        sums = _point_sums(g, w.p, w.n, "pseries", range(w.n), w.distinct_points.items())
        want = [_outcome(reduce_value, s, w.p) for s in sums]
        assert [repr(r) for r in cf_residuals(g, w)] == want, case


@st.composite
def _fallback_inputs(draw):
    """chi_y with p in the denominator of y, n <= 4, and a weight set with
    negative, >= p and repeated weights and points."""
    y, p = draw(st.sampled_from(((F(7, 3), 3), (F(1, 5), 5))))
    n = draw(st.integers(1, 4))
    unit = st.integers(-2 * p, 3 * p).filter(lambda x: x % p)
    points = draw(st.lists(st.tuples(*[unit] * n), max_size=4))
    if points:
        points += draw(st.lists(st.sampled_from(points), max_size=2))
    return y, WeightSet(p, n, tuple(points))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_fallback_inputs())
def test_residues_fall_back_to_the_exact_sums(case):
    # With p in y's denominator q(z) = z/f(z) is not p-integral, so no factor
    # q(xz)/x is and the residue table cannot read the sums; genus_mod_p and
    # cf_residuals must then give reduce_value of the exact series sums of the
    # u-form reference, ModP or NonIntegralAtP with the same message.
    y, w = case
    p, n = w.p, w.n
    g = make_genus("chi_y", n + 1, y)
    pf = p_power_factor(g, p, n)
    prods = [(k, pf * a_series(g, pt, n)) for pt, k in w.distinct_points.items()]
    sums = [sum((a[m] * k for k, a in prods), F(0)) for m in range(n + 1)]
    want = [_outcome(reduce_value, s, p) for s in sums]
    assert _outcome(genus_mod_p, g, w, "pseries") == want[n], case
    assert [repr(r) for r in cf_residuals(g, w)] == want[:n], case
    t = engine_module._residue_table(g, p, n)
    assert any(c.denominator % p == 0 for c in t.q.coeffs)  # q(z) = z/f(z)
    assert all(f is None for f in t.packed.values())


def test_packed_width_is_bounded_by_the_largest_factor():
    # The width holds the (n + 1)-fold product of residues mod p, so it is
    # fixed by (p, n): a stream of weight sets at large p keeps the width of
    # its first query however many weights the table holds, and another
    # genus at the same (p, n) packs at the same width.
    rng = random.Random(31)
    p, n = 100003, 3
    g = make_genus("todd", n + 1)
    widths = []
    for _ in range(40):
        w = _random_weight_set(rng, p, n, 4)
        for route in ("pseries", "ab"):
            genus_mod_p(g, w, route)
        widths.append(engine_module._residue_table(g, p, n).width)
    assert len(engine_module._residue_table(g, p, n).packed) > 400
    assert widths == [(4**3 * (p - 1) ** 4).bit_length()] * 40
    other = make_genus("chi_y", n + 1, F(2))
    genus_mod_p(other, w, "pseries")
    assert engine_module._residue_table(other, p, n).width == widths[0]
    # at n >= p - 1, q(z) = z/tanh(z) holds B_(p-1) and p divides its
    # denominator: no factor is p-integral, and both routes and cf_residuals
    # reduce the exact sums, with the same NonIntegralAtP messages
    for p, n in ((3, 2), (3, 4), (5, 8), (7, 6)):
        g = make_genus("l_genus", n + 1)
        w = _random_weight_set(rng, p, n, 3)
        for route in ("pseries", "ab"):
            want = _outcome(lambda: reduce_value(_per_point_sums(g, w, route, [n])[0], p))
            assert _outcome(genus_mod_p, g, w, route) == want, (p, n, route)
        want = [_outcome(reduce_value, s, p) for s in _per_point_sums(g, w, "pseries", range(n))]
        assert [repr(r) for r in cf_residuals(g, w)] == want, (p, n)
        t = engine_module._residue_table(g, p, n)
        assert t.width == ((n + 1) ** n * (p - 1) ** (n + 1)).bit_length()
        assert t.q[p - 1].denominator % p == 0 and set(t.packed.values()) == {None}


def test_large_p_ab_query_builds_factors_for_its_weights_only(capsys):
    # At p = 100003 the ab route must touch only the query's weights: no
    # packed factor q(mz)/m for the other p - 5 residues, and no pseries lead
    # either, so its one series table holds the ab leads only, as ints.  From
    # an empty memo the query builds two genera: the CLI's at order 2, and
    # the route's at n + 1.
    _clear_memos()
    argv = ["compute", "--genus", "chi_y:2", "--p", "100003", "--residues", "0,1,2",
            "--route", "ab", "--format", "json"]
    start = time.perf_counter()
    assert cli.main(argv) == 0
    assert time.perf_counter() - start < 0.5
    assert json.loads(capsys.readouterr().out)["result"] == "3"  # chi_y(CP^2) = 1 - y + y^2
    assert genus_module._catalog_genus.cache_info().currsize == 2
    assert engine_module._residue_table.cache_info().currsize == 1
    t = engine_module._residue_table(make_genus("chi_y", 2, F(2)), 100003, 2)
    assert engine_module._residue_table.cache_info().currsize == 1  # that table
    assert set(t.packed) == {1, 2, 100001, 100002} and set(t.leads) == {"ab"}
    assert all(type(f) is int for f in t.packed.values())
    assert len(t.leads["ab"]) == 3 and all(type(f) is int for f in t.leads["ab"])


def test_large_p_stream_reads_ints_and_keeps_no_series():
    # 300 todd sets of 4 points at p = 100003, n = 3, through pseries and ab:
    # the table packs each new weight as one int, q(xz)/x mod p, so the genus
    # holds no per-weight Series, the residues equal the reductions of the
    # u-form reference, and the stream takes well under 0.5 s.
    rng = random.Random(45)
    p, n = 100003, 3
    sets = [_random_weight_set(rng, p, n, 4) for _ in range(300)]
    _clear_memos()
    g = make_genus("todd", n + 1)
    start = time.perf_counter()
    got = [[genus_mod_p(g, w, r) for r in ("pseries", "ab")] for w in sets]
    elapsed = time.perf_counter() - start
    for i in range(0, 300, 50):
        want = [reduce_value(_per_point_sums(g, sets[i], r, [n])[0], p) for r in ("pseries", "ab")]
        assert got[i] == want, i
    assert "_factors" not in GenusSpec.__slots__ and "_tables" not in GenusSpec.__slots__
    assert engine_module._residue_table.cache_info().currsize == 1
    t = engine_module._residue_table(g, p, n)
    assert engine_module._residue_table.cache_info().currsize == 1
    assert len(t.packed) > 3000 and all(type(f) is int for f in t.packed.values())
    assert all(type(f) is int for r in ("pseries", "ab") for f in t.leads[r])
    assert elapsed < 0.5, elapsed


def _table_bytes(packed: dict) -> int:
    """What a table of packed factors occupies: its dict, keys and factors."""
    return sys.getsizeof(packed) + sum(map(sys.getsizeof, [*packed, *packed.values()]))


def test_residue_table_factor_bytes_stay_bounded(monkeypatch):
    # At p = 100003 all p - 1 packed factors would take tens of MB at n = 12; a
    # stream of weight sets keeps factors while the table, dict and ints counted,
    # stays within PACKED_CACHE_BYTES, drops none it kept, and its residues equal
    # those of a fresh table.
    rng = random.Random(47)
    p, n = 100003, 12
    g = make_genus("todd", n + 1)
    engine_module._residue_table.cache_clear()
    t = engine_module._residue_table(g, p, n)
    kept, refused = {}, 0
    for _ in range(24):
        w = _random_weight_set(rng, p, n, 12)
        got = [genus_mod_p(g, w, r) for r in ("pseries", "ab")]
        assert kept.items() <= t.packed.items()
        assert _table_bytes(t.packed) <= PACKED_CACHE_BYTES
        kept = dict(t.packed)
        refused += len({x for pt in w.points for x in pt} - kept.keys())
        fresh = SimpleNamespace(**{**vars(t), "packed": {}, "leads": {}, "last": None})
        with monkeypatch.context() as m:
            m.setattr(engine_module, "_residue_table", lambda *key: fresh)
            assert [genus_mod_p(g, w, r) for r in ("pseries", "ab")] == got
    assert refused and _table_bytes(kept) > PACKED_CACHE_BYTES * 0.9  # the stream did fill it


def test_series_routes_share_one_product_pass_per_weight_set(monkeypatch):
    # pseries, ab and cf_residuals on one weight set multiply each point's packed
    # factors once, and thm71_check (exact series products) none; an equal but
    # distinct set multiplies them again.
    calls = []
    products = engine_module._products
    monkeypatch.setattr(engine_module, "_products", lambda *a: calls.append(1) or products(*a))
    _clear_memos()
    p, n = 11, 3
    w = WeightSet(p, n, ((1, 2, 4), (3, 5, 9), (2, 1, 4), (10, 10, 6)))
    g = make_genus("l_genus", n + 1)
    values = [genus_mod_p(g, w, "pseries"), genus_mod_p(g, w, "ab")]
    cf = cf_residuals(g, w)
    report = thm71_check(g, w)
    assert len(calls) == 1
    twin = WeightSet(p, n, w.points)
    assert [genus_mod_p(g, twin, r) for r in ("ab", "pseries")] == values[::-1]
    assert cf_residuals(g, twin) == cf and thm71_check(g, twin) == report
    assert len(calls) == 2


def test_packing_between_two_routes_of_one_set_gives_fresh_totals(monkeypatch):
    # Packing new weights between two routes of one set keeps the set's kept
    # products, since the width is fixed by (p, n): the next route on the set
    # multiplies no factor again and gives a fresh genus's residues.  A query
    # on another set in between replaces them, and they are taken again.
    def fresh(kind, y):
        _clear_memos()
        return make_genus(kind, n + 1, y)

    calls = []
    products = engine_module._products
    monkeypatch.setattr(engine_module, "_products", lambda *a: calls.append(1) or products(*a))
    p, n = 13, 3
    w = WeightSet(p, n, ((1, 1, 1), (1, 2, 1), (2, 2, 2)))
    wide = WeightSet(p, n, ((12, 11, 6), (7, 5, 9)))
    for kind, y in [("todd", None), ("chi_y", F(-1, 2)), ("a_hat", None), ("l_genus", None)]:
        want = {r: genus_mod_p(fresh(kind, y), w, r) for r in ("pseries", "ab")}
        want_cf = cf_residuals(fresh(kind, y), w)
        for first, then in (("pseries", "ab"), ("ab", "pseries")):
            g = fresh(kind, y)
            assert genus_mod_p(g, w, first) == want[first]
            t = engine_module._residue_table(g, p, n)
            last = t.last
            products(t, wide.distinct_points.items())  # packs wide's weights only
            assert {12, 11, 6, 7, 5, 9} <= set(t.packed) and then not in t.leads
            calls[:] = []
            assert genus_mod_p(g, w, then) == want[then], (kind, first)
            assert cf_residuals(g, w) == want_cf, (kind, first)
            assert t.last is last and calls == [] and then in t.leads, (kind, first)

            g = fresh(kind, y)
            genus_mod_p(g, w, first)
            genus_mod_p(g, wide, first)
            assert genus_mod_p(g, w, then) == want[then], (kind, first)
            assert engine_module._residue_table(g, p, n).last[0] is w
            got = _point_sums(g, p, n, first, (n,), w.distinct_points.items())
            assert got == [_route_total(fresh(kind, y), w, first)]


def test_a_degenerate_chi_y_lead_leaves_pseries_working():
    # chi_y with 1 + y ≡ 0 mod p has no B: the ab route raises, in either
    # order, and the shared table keeps the pseries lead alone.
    w = WeightSet(3, 2, ((1, 2), (2, 1), (1, 1)))
    want = reduce_value(_route_total(make_genus("chi_y", 5, F(2)), w, "pseries"), 3)
    for routes in (("pseries", "ab", "pseries"), ("ab", "pseries", "ab")):
        _clear_memos()
        g = make_genus("chi_y", 3, F(2))
        for route in routes:
            if route == "ab":
                with pytest.raises(BadParams, match="theta degenerates"):
                    genus_mod_p(g, w, route)
            else:
                assert genus_mod_p(g, w, route) == want, routes
        assert set(engine_module._residue_table(g, 3, 2).leads) == {"pseries"}


_SERIES_OPS = ("pseries", "ab", "cf", "thm71", "sums")


@st.composite
def _interleaved_queries(draw):
    """A catalog kind with theta at p <= 13, weight sets at one or two n (the last
    equal to the first but a distinct object), and a drawn sequence of (set,
    series query)."""
    kind, y = draw(st.sampled_from([c for c in _CATALOG if c[0] != "elliptic"]))
    p = draw(st.sampled_from((3, 5, 7, 11, 13)))
    unit = st.integers(1, p - 1)
    sets = []
    for n in draw(st.lists(st.integers(0, 5), min_size=1, max_size=2, unique=True)):
        for points in draw(st.lists(st.lists(st.tuples(*[unit] * n), max_size=4), min_size=1,
                                    max_size=3)):
            sets.append(WeightSet(p, n, tuple(points)))
    sets.append(WeightSet(p, sets[0].n, sets[0].points))
    queries = draw(st.lists(st.tuples(st.integers(0, len(sets) - 1), st.sampled_from(_SERIES_OPS)),
                            min_size=1, max_size=12))
    return kind, y, sets, queries


def _series_query(g, w, query):
    if query in ("pseries", "ab"):
        return _outcome(_route_total, g, w, query)
    if query == "sums":
        return _outcome(_point_sums, g, w.p, w.n, "pseries", range(w.n + 1),
                        w.distinct_points.items())
    if w.n == 0:
        return None
    if query == "cf":
        return [repr(r) for r in cf_residuals(g, w)]
    return _outcome(lambda: json.dumps(thm71_check(g, w, force=True).to_json_dict()))


@settings(derandomize=True, max_examples=120, deadline=None)
@given(_interleaved_queries())
def test_series_queries_in_any_order_give_fresh_totals(case):
    # Over interleaved weight sets, series queries asked in a drawn order (so
    # kept products, lead additions, packing and repacking fall between them)
    # each give the exact values of a genus that no table memo holds yet.
    kind, y, sets, queries = case
    g = make_genus(kind, 9, y)
    log = make_genus(kind, 10, y).logarithm
    for i, query in queries:
        ref = GenusSpec(kind, y, log)
        assert _series_query(g, sets[i], query) == _series_query(ref, sets[i], query), (i, query)


def _u_lead(g, p, n, route):
    """A series route's lead in the coordinate u, through u^n: p u/[u]_p, or -B."""
    if route == "pseries":
        return p_power_factor(g, p, n)
    require_theta(g.kind)
    return b_series(g.kind, p, n, g.y).scale(-1)


def _per_point_sums(g, w, route, ms):
    """sum_j k_j <F A_j>_m in the coordinate u, with one lead product per
    distinct point, F the route's lead and A_j from the reference a_series:
    the values the one-pass sums in the coordinate z must reproduce exactly."""
    n = w.n
    lead = _u_lead(g, w.p, n, route)
    g = ensure_order(g, n + 1)
    prods = [(k, lead * a_series(g, pt, n)) for pt, k in w.distinct_points.items()]
    return [sum((a[m] * k for k, a in prods), g.ring.zero) for m in ms]


def _per_point_thm71(g, w):
    """thm71_check(g, w, force=True).to_json_dict() from the per-point sums."""
    n, p = w.n, w.p
    (ab_sum,) = _per_point_sums(g, w, "ab", [n])
    sums = _per_point_sums(g, w, "pseries", range(n + 1))
    h_inv = h_series(g.kind, p, n, g.y).invert()
    rhs = sums[n] + sum((h_inv[n - m] * sums[m] for m in range(n)), F(0))
    return {"p": p, "n": n, "q": w.q, "ab_sum": str(ab_sum), "pseries_n": str(sums[n]),
            "cf_sums": [str(c) for c in sums[:n]],
            "h_inverse_coeffs": [str(h_inv[k]) for k in range(n + 1)],
            "lhs_mod_p": rational_reduce_mod_p(ab_sum, p).value,
            "rhs_mod_p": rational_reduce_mod_p(rhs, p).value,
            "equal": rational_reduce_mod_p(ab_sum, p) == rational_reduce_mod_p(rhs, p)}


_CUSTOM = make_genus(
    "custom", 2, logarithm=Series.from_fractions(QQ, [0, 1, F(1, 2), F(2, 3), F(-1, 4)], 12)
)
_DIFFERENTIAL_KINDS = [("todd", None), ("euler", None), ("l_genus", None), ("chi_y", F(2)),
                       ("chi_y", F(-1, 2)), ("chi_y", F(7, 3)), ("a_hat", None),
                       ("elliptic", None), ("custom", None)]


@st.composite
def _differential_inputs(draw):
    """A kind of _DIFFERENTIAL_KINDS, p in 3..13 (elliptic p <= 7, n <= 4), n in
    0..8 with n >= p - 1 drawn often, and points as drawn (negative and >= p
    weights) with repeats and reorderings of them; the set may be empty."""
    kind, y = draw(st.sampled_from(_DIFFERENTIAL_KINDS))
    p = draw(st.sampled_from((3, 5, 7) if kind == "elliptic" else (3, 5, 7, 11, 13)))
    top = 4 if kind == "elliptic" else 8
    n = draw(st.one_of(st.integers(0, top), st.integers(min(p - 1, top), top)))
    unit = st.integers(-2 * p, 3 * p).filter(lambda x: x % p)
    points = draw(st.lists(st.tuples(*[unit] * n), max_size=4))
    if points:
        points += draw(st.lists(st.sampled_from(points), max_size=2))
        points += [draw(st.permutations(pt)) for pt in draw(st.lists(st.sampled_from(points),
                                                                      max_size=2))]
    return kind, y, points, WeightSet(p, n, tuple(points))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_differential_inputs())
def test_one_pass_sums_equal_the_per_point_sums(case):
    # The exact sums multiply each lead once by S = sum_j k_j A_j; every reader
    # of them must give exactly the per-point sums, or the same EngineError.
    kind, y, points, w = case
    p, n = w.p, w.n
    g = _CUSTOM if kind == "custom" else make_genus(kind, 2, y)
    for route in ("pseries", "ab"):
        want = _outcome(_per_point_sums, g, w, route, range(n + 1))
        got = _outcome(_point_sums, g, p, n, route, range(n + 1), w.distinct_points.items())
        assert got == want, (case, route)
        want = _outcome(lambda: _per_point_sums(g, w, route, [n])[0])
        assert _outcome(_route_total, g, w, route) == want, (case, route)
    for pt in points:
        want = _outcome(lambda: _per_point_sums(g, WeightSet(p, n, (pt,)), "ab", [n])[0])
        assert _outcome(ab_coefficient, g, p, pt) == want, (case, pt)
    if n:
        sums = _per_point_sums(g, w, "pseries", range(n))
        assert [repr(r) for r in cf_residuals(g, w)] == [_outcome(reduce_value, s, p) for s in sums]
    if n and kind in TRACE_KINDS:
        got = _outcome(lambda: thm71_check(g, w, force=True).to_json_dict())
        assert got == _outcome(_per_point_thm71, g, w), case


_Z_FORM_KINDS = [("todd", None), ("euler", None), ("l_genus", None), ("a_hat", None),
                 ("chi_y", F(2)), ("chi_y", F(-1, 2)), ("chi_y", F(7, 3)), ("chi_y", "2p - 1"),
                 ("elliptic", None)]


@st.composite
def _z_form_inputs(draw):
    """A B-series kind (chi_y also at y = 2p - 1, -1 mod p but not -1) at p in
    3..13 or 100003, or elliptic at p <= 7; n in 0..8 with n >= p - 1 drawn
    often (n <= 4 for elliptic and at p = 100003); points with repeats; and
    literal p_series_term weights in 1..3p with a slot m up to two past them."""
    kind, y = draw(st.sampled_from(_Z_FORM_KINDS))
    p = draw(st.sampled_from((3, 5, 7) if kind == "elliptic" else (3, 5, 7, 11, 13, 100003)))
    y = F(2 * p - 1) if y == "2p - 1" else y
    top = 4 if kind == "elliptic" or p > 13 else 8
    n = draw(st.one_of(st.integers(0, top), st.integers(min(p - 1, top), top)))
    points = draw(st.lists(st.tuples(*[st.integers(1, p - 1)] * n), max_size=3))
    if points:
        points += draw(st.lists(st.sampled_from(points), max_size=2))
    literal = draw(st.lists(st.integers(1, 3 * p), max_size=3 if kind == "elliptic" else 4))
    m = draw(st.integers(0, len(literal) + 2))
    return kind, y, WeightSet(p, n, tuple(points)), tuple(literal), m


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_z_form_inputs())
def test_z_form_equals_the_u_form_reference(case):
    # Every exact value read in the coordinate u = f(z) must equal the u-form
    # reference, which composes a power system per weight, and every residue
    # and NonIntegralAtP message must be the reduction of that reference.
    kind, y, w, literal, m = case
    p, n = w.p, w.n
    g = make_genus(kind, 2, y)
    for route in ("pseries", "ab"):
        want = _outcome(_per_point_sums, g, w, route, range(n + 1))
        got = _outcome(_point_sums, g, p, n, route, range(n + 1), w.distinct_points.items())
        assert got == want, (case, route)
        want = _outcome(lambda: reduce_value(_per_point_sums(g, w, route, [n])[0], p))
        assert _outcome(genus_mod_p, g, w, route) == want, (case, route)
    if n:
        sums = _per_point_sums(g, w, "pseries", range(n))
        assert [repr(r) for r in cf_residuals(g, w)] == [_outcome(reduce_value, s, p) for s in sums]
    wide = ensure_order(g, m + 1)
    want = (p_power_factor(wide, p, m) * a_series(wide, literal, m))[m]
    assert p_series_term(g, p, literal, m) == want, case


@pytest.mark.parametrize("p", (5, 7, 11, 13))
def test_elliptic_sums_specialize_to_custom_genera(p):
    # Every pseries slot of the elliptic genus over Q[delta, eps], at delta = 1
    # and eps = e, equals that slot of the genus over Q whose logarithm is the
    # integral of (1 - 2u^2 + e u^4)^(-1/2): the graded ring carries delta and
    # eps through the same series arithmetic as Q.
    rng = random.Random(p)
    elliptic = make_genus("elliptic", 2)
    for n in (1, 2, 3, 4, 6):
        points = _random_weight_set(rng, p, n, 3).distinct_points.items()
        graded = _point_sums(elliptic, p, n, "pseries", range(n + 1), points)
        for e in (0, 1, 2, -1, F(1, 3)):
            w = Series.from_fractions(QQ, [0, 0, -2, 0, e], n)
            g = make_genus("custom", 2, logarithm=binomial_power(w, F(-1, 2)).integrate())
            want = _point_sums(g, p, n, "pseries", range(n + 1), points)
            assert [s.substitute(1, e) for s in graded] == want, (p, n, e)


def test_b_series_memo_is_bounded():
    # A stream of distinct p keeps the last MEMO_SIZE B-series, no more, and
    # one still held is returned again.
    primes = [q for q in range(3, 4000, 2) if is_odd_prime(q)][: 2 * MEMO_SIZE]
    assert len(primes) == 2 * MEMO_SIZE
    for q in primes:
        b_series("todd", q, 2)
    info = engine_module._b_series.cache_info()
    assert info.maxsize == info.currsize == MEMO_SIZE
    assert b_series("todd", primes[-1], 2) is b_series("todd", primes[-1], 2)


def test_custom_logarithm_needs_only_order_n_plus_1():
    log = Series.from_fractions(QQ, [0, 1, F(1, 2), F(2, 3), F(-1, 4), F(3, 7)], 12)
    for p, n in ((5, 2), (7, 3)):
        w = cpn_weight_set(canonical_residues(p, n))
        full = make_genus("custom", 2, logarithm=log)
        lean = make_genus("custom", 2, logarithm=log.truncate(n + 1))
        assert genus_mod_p(lean, w, "pseries") == genus_mod_p(full, w, "pseries")
        assert cf_residuals(lean, w) == cf_residuals(full, w)


def test_h_series_closed_forms():
    for p in (3, 5, 7):
        assert h_series("todd", p, 12) == Series.from_fractions(QQ, [1, -1], 12)
        assert h_series("l_genus", p, 12) == Series.from_fractions(QQ, [1, 0, -1], 12)
        if p != 3:
            assert h_series("chi_y", p, 12, 2) == Series.from_fractions(QQ, [1, 1, -2], 12)
        assert h_series("euler", p, 12) == Series.from_fractions(QQ, [1, -2, 1], 12)
        # a_hat: cosh(((p+1)/2) t) cosh(t) / cosh(((p-1)/2) t), t = arcsinh(u/2)
        t = arcsinh_u_over_2(13)
        ch = cosh_series(QQ, 13)
        expect = (
            ch.compose(t.scale(F(p + 1, 2)))
            * ch.compose(t)
            * ch.compose(t.scale(F(p - 1, 2))).invert()
        ).truncate(12)
        assert h_series("a_hat", p, 12) == expect
    # p = 3 a_hat specializes to cosh(2t) = 1 + u^2/2
    assert h_series("a_hat", 3, 6) == Series.from_fractions(QQ, [1, 0, F(1, 2)], 6)
    with pytest.raises(UnsupportedKind):
        h_series("elliptic", 5, 6)


def test_negative_orders_are_refused_with_one_message():
    # h_series at -1, -3 and -5 failed three different ways, and a power system
    # at order -3 came back at order 3.
    for order in (-1, -3, -5):
        with pytest.raises(BadParams, match=f"order must be an int >= 0, got {order}$"):
            h_series("todd", 5, order)
    with pytest.raises(BadParams, match="order must be an int >= 0, got -3$"):
        power_system(make_genus("todd", 5), 3, -3)


def test_h_series_p_integral():
    for p in (3, 5, 7):
        for kind, y in [("todd", None), ("euler", None), ("l_genus", None), ("a_hat", None),
                        ("chi_y", F(2))]:
            if kind == "chi_y" and p == 3:
                continue
            h = h_series(kind, p, 12, y)
            assert h[0] == 1
            for k in range(13):
                assert h[k].denominator % p != 0, (kind, p, k)


def test_thm71_cp1_todd_report():
    g = make_genus("todd", 8)
    rep = thm71_check(g, CP1_P3)
    assert rep.equal
    assert rep.ab_sum == -2
    assert rep.pseries_n == F(7, 4)
    assert rep.cf_sums == (F(3, 2),)
    assert rep.h_inverse_coeffs == (1, 1)
    assert rep.lhs == ModP(1, 3) and rep.rhs == ModP(1, 3)
    d = rep.to_json_dict()
    assert d["equal"] is True and d["ab_sum"] == "-2" and d["lhs_mod_p"] == 1


def test_a_sum_starts_each_point_from_its_first_factor(monkeypatch):
    # A point's product takes one series product per weight after its first, so
    # thm71_check, which forms S once, takes one product fewer per distinct
    # point than products started from 1, and reports the same values.
    def from_one(g, points, n):  # each point's product as 1 times every factor
        q = engine_module._q(ensure_order(g, n + 1), n)
        total = Series.zero(QQ, n)
        for pt, k in points:
            acc = Series.one(QQ, n)
            for x in pt:
                acc = acc * engine_module._factor(q, x)
            total = total + acc.scale(k)
        return total

    g = make_genus("todd", 5)
    for points in ((), ((),), ((1,),), ((3,), (3,), (5,)), ((1, 3, 1), (2, 5, 4), (4, 5, 2))):
        w = WeightSet(11, len(points[0]) if points else 2, points)
        args = (g, w.distinct_points.items(), w.n)
        assert engine_module._a_sum(*args).coeffs == from_one(*args).coeffs, points
    w = _random_weight_set(random.Random(42), 11, 3, 200)
    thm71_check(g, w)  # fills the genus and B-series memos h_series reads, which take products
    reports, products = {}, {}
    mul = Series.__mul__
    for name, build in (("from_one", from_one), ("_a_sum", engine_module._a_sum)):
        calls = []
        monkeypatch.setattr(checks_module, "_a_sum", build)
        monkeypatch.setattr(Series, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
        reports[name] = thm71_check(g, w)
        products[name] = len(calls)
    assert products["_a_sum"] == products["from_one"] - len(w.distinct_points)
    assert reports["_a_sum"] == reports["from_one"]


def test_thm71_random_weight_sets():
    rng = random.Random(23)
    cases = [("todd", None), ("euler", None), ("l_genus", None), ("a_hat", None), ("chi_y", F(2))]
    for kind, y in cases:
        for _ in range(6):
            p = rng.choice((5, 7))
            n = rng.randint(1, p - 2)
            w = _random_weight_set(rng, p, n, rng.randint(1, 4))
            g = make_genus(kind, p + 2, y)
            assert thm71_check(g, w).equal, (kind, w)


def test_thm71_guard():
    g = make_genus("todd", 10)
    w = _random_weight_set(random.Random(24), 5, 4, 2)
    with pytest.raises(GuardViolation):
        thm71_check(g, w)
    rep = thm71_check(g, w, force=True)
    assert isinstance(rep, Thm71Report)
    with pytest.raises(BadParams):
        thm71_check(g, WeightSet(p=5, n=0, points=()))
    with pytest.raises(UnsupportedKind):
        thm71_check(make_genus("elliptic", 8), CP1_P3)
    # euler: every point's ab value is -(p-1), so both sides are q mod p
    rep = thm71_check(make_genus("euler", 8), CP1_P3)
    assert rep.equal and rep.ab_sum == -4 and rep.lhs == ModP(2, 3)


def test_submanifold_isolated_points_match_ab_route():
    rng = random.Random(25)
    for kind, y in [("todd", None), ("l_genus", None), ("chi_y", F(2))]:
        for p in (5, 7):
            g = make_genus(kind, p + 2, y)
            w = _random_weight_set(rng, p, 3, 3)
            data = SubmanifoldData(
                p=p,
                components=tuple(
                    SubmanifoldComponent(pt, F(1)) for pt in w.points
                ),
            )
            assert submanifold_genus(g, data) == genus_mod_p(g, w, "ab")


def test_submanifold_trivial_action():
    # one component, no normal weights: ab(empty) = -(p-1) ≡ 1, so the genus
    # value itself comes back mod p
    g = make_genus("todd", 8)
    data = SubmanifoldData(p=3, components=(SubmanifoldComponent((), F(7, 4)),))
    assert submanifold_genus(g, data) == rational_reduce_mod_p(F(7, 4), 3)
    with pytest.raises(UnsupportedKind):
        submanifold_genus(make_genus("elliptic", 8), data)


def test_submanifold_json():
    text = (
        '{"p": 5, "components": ['
        '{"normal_weights": [1, 2], "genus_value": "3/2"},'
        '{"normal_weights": [], "genus_value": 4}]}'
    )
    data = SubmanifoldData.from_json(text)
    assert data.p == 5
    assert data.components[0] == SubmanifoldComponent((1, 2), F(3, 2))
    assert data.components[1].genus_value == 4
    with pytest.raises(BadParams):
        SubmanifoldData.from_json('{"p": 5}')
    with pytest.raises(BadParams):
        SubmanifoldData.from_json_dict(
            {"p": 5, "components": [{"normal_weights": [1], "genus_value": 1.5}]}
        )
    with pytest.raises(BadParams):
        SubmanifoldData.from_json("[")


def test_distinct_points_are_counted_once_per_weight_set(monkeypatch):
    # A set's (point, multiplicity) pairs live in the engine's one-entry memo,
    # keyed by the set's identity: its three routes read one dict, built once,
    # and equality, hash and repr are those of the fields alone.
    read = []
    count = WeightSet.distinct_points.fget
    monkeypatch.setattr(WeightSet, "distinct_points",
                        property(lambda w: read.append(count(w)) or read[-1]))
    points = ((2, 1), (1, 2), (3, 4), (2, 1))
    w, v = WeightSet(7, 2, points), WeightSet(7, 2, points)
    before = (hash(w), repr(w))
    g = make_genus("todd", 4)
    assert len({str(genus_mod_p(g, w, r)) for r in ROUTES}) == 1
    # pseries and trace read it (ab reads the products pseries left in its table)
    assert len(read) >= 2 and len({id(d) for d in read}) == 1  # built once
    assert engine_module._last_set == (w, read[0])
    assert w.distinct_points == {(2, 1): 2, (1, 2): 1, (3, 4): 1}  # keyed as given
    assert w.distinct_points is read[0]
    assert v.distinct_points == read[0] and v.distinct_points is not read[0]  # by identity
    assert w == v and (hash(w), repr(w)) == before and hash(v) == before[0]
    assert repr(w) == "WeightSet(p=7, n=2, points=((2, 1), (1, 2), (3, 4), (2, 1)))"


def test_weight_sets_keep_nothing_but_their_fields():
    # Sets run through all three routes and thm71_check carry no derived state:
    # no slot beyond p, n, q and the flat weights, no __dict__, the same slot
    # objects; the set memo then holds the last set asked only.
    assert WeightSet.__slots__ == ("p", "n", "q", "weights")
    rng = random.Random(29)
    g = make_genus("todd", 4)
    sets = [_random_weight_set(rng, 11, 3, 4) for _ in range(6)]
    slots = [(w.p, w.n, w.q, w.weights) for w in sets]
    for w in sets:
        for route in ROUTES:
            genus_mod_p(g, w, route)
        thm71_check(g, w)
    for w, before in zip(sets, slots):
        assert not hasattr(w, "__dict__")
        assert all(a is b for a, b in zip((w.p, w.n, w.q, w.weights), before))
    assert engine_module._last_set[0] is sets[-1] and len(engine_module._last_set) == 2


def test_every_memo_stays_at_its_bound():
    # Each lru memo filled with MEMO_SIZE + 8 distinct cheap keys keeps
    # MEMO_SIZE entries: the genus, B-series, prime, q, lead, residue table,
    # trace table and 1/h memos; the set memo keeps one set.
    primes = [q for q in range(3, 4000, 2) if is_odd_prime(q)][: MEMO_SIZE + 8]
    todd = make_genus("todd", 2)
    fills = {
        genus_module._catalog_genus: [lambda y=y: make_genus("chi_y", 2, y)
                                      for y in range(MEMO_SIZE + 8)],
        engine_module._b_series: [lambda q=q: b_series("todd", q, 1) for q in primes],
        rings_module._is_odd_prime: [lambda k=k: is_odd_prime(k) for k in range(MEMO_SIZE + 8)],
        engine_module._q: [lambda y=y: engine_module._q(make_genus("chi_y", 2, y), 1)
                           for y in range(MEMO_SIZE + 8)],
        engine_module._leads: [lambda q=q: engine_module._leads(todd, q, 1, "pseries", (1,))
                               for q in primes],
        engine_module._residue_table: [lambda q=q: engine_module._residue_table(todd, q, 1)
                                       for q in primes],
        cyclotomic_module._route_table: [lambda q=q: cyclotomic_module._route_table(
            "todd", None, q, 1) for q in primes],
        checks_module._h_inverse: [lambda q=q: checks_module._h_inverse("todd", None, q, 1)
                                   for q in primes],
    }
    for memo, calls in fills.items():
        assert len(calls) == MEMO_SIZE + 8
        memo.cache_clear()
        for call in calls:
            call()
        info = memo.cache_info()
        assert info.maxsize == info.currsize == MEMO_SIZE, memo
    # the set memo of distinct points holds one set, the last one asked
    sets = [WeightSet(q, 1, ((1,), (1,), (2,))) for q in primes]
    for w in sets:
        genus_mod_p(todd, w, "trace")
    assert engine_module._last_set == (sets[-1], {(1,): 2, (2,): 1})


def test_warm_exact_readers_compose_and_invert_nothing(monkeypatch):
    # After a first thm71_check, ab_coefficient and _route_total at one (kind,
    # p, n), the same calls on other sets of that shape read q, the leads, B
    # and 1/h from their memos: no series is composed or inverted again.
    p, n = 11, 3
    g = make_genus("chi_y", 2, F(2))
    rng = random.Random(48)
    first, second = (_random_weight_set(rng, p, n, 4) for _ in range(2))

    def calls(w):
        return [thm71_check(g, w), ab_coefficient(g, p, w.points[0]),
                _route_total(g, w, "pseries"), _route_total(g, w, "ab")]

    calls(first)
    counted = []
    for name in ("compose", "invert"):
        method = getattr(Series, name)
        monkeypatch.setattr(Series, name,
                            lambda *a, name=name, method=method: counted.append(name) or method(*a))
    got = calls(second)
    assert counted == []
    monkeypatch.undo()
    _clear_memos()
    assert calls(second) == got  # as a fresh genus gives them


def test_submanifold_genus_sums_the_ab_coefficients():
    # One ab sum per count of normal weights, with the genus values as
    # multiplicities, equals sum_F ab_coefficient(normal weights of F) phi(F)
    # reduced mod p, or raises the same error.
    rng = random.Random(49)
    kinds = [("todd", None), ("euler", None), ("l_genus", None), ("chi_y", F(2)),
             ("chi_y", F(-1, 2)), ("a_hat", None)]
    for _ in range(60):
        kind, y = rng.choice(kinds)
        p = rng.choice((3, 5, 7, 11))
        g = make_genus(kind, 2, y)
        comps = []
        for _ in range(rng.randint(1, 6)):
            weights = tuple(rng.randint(-p, 2 * p) or 1 for _ in range(rng.randint(0, 4)))
            weights = tuple(x if x % p else x + 1 for x in weights)
            value = F(rng.randint(-9, 9), rng.choice((1, 2, 3, p)))
            comps.append(SubmanifoldComponent(weights, value))
        data = SubmanifoldData(p, tuple(comps))

        def by_component():
            total = sum((ab_coefficient(g, p, c.normal_weights) * c.genus_value
                         for c in data.components), F(0))
            return rational_reduce_mod_p(total, p)

        assert _outcome(submanifold_genus, g, data) == _outcome(by_component), (kind, y, data)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 9: the reduction assumes equivariantly "
                   "trivial normal bundles")
def test_submanifold_genus_of_cp2_with_a_fixed_line():
    # CP^2 with residues (0, 0, 1) at p = 5 fixes the line CP^1 (normal weight 1,
    # Todd(CP^1) = 1) and a point (weights 4, 4); it gives 3 today, not Todd(CP^2) = 1.
    data = SubmanifoldData(5, (SubmanifoldComponent((1,), 1), SubmanifoldComponent((4, 4), 1)))
    assert submanifold_genus(make_genus("todd", 4), data) == ModP(1, 5)


def test_bad_p_or_y_raise_the_same_bad_params():
    # p and y are checked before a memo hashes them, so a bad one raises
    # BadParams with its message, on every call, never a TypeError.
    todd = make_genus("todd", 4)
    for p in ([7], 4, 9, "7", 7.0, True, None):
        message = f"p must be an odd prime >= 3, got {p!r}"
        for call in (lambda: ab_trace("todd", p, (1, 2)), lambda: h_series("todd", p, 3),
                     lambda: ab_coefficient(todd, p, (1, 2)),
                     lambda: p_series_term(todd, p, (1, 2), 2)):
            for _ in range(2):
                with pytest.raises(BadParams) as exc:
                    call()
                assert str(exc.value) == message
    for kind, p, y, message in (
            ("chi_y", 3, F(7, 3), "chi_y parameter 7/3 is not p-integral at p = 3"),
            ("chi_y", 5, F(4), "chi_y parameter 4 has 1 + y ≡ 0 mod 5; theta degenerates"),
            ("todd", 5, 2, "kind 'todd' does not take a parameter y")):
        calls = [lambda: ab_trace(kind, p, (1, 2), y), lambda: h_series(kind, p, 3, y)]
        if kind == "chi_y":
            calls.append(lambda: ab_coefficient(make_genus(kind, 4, y), p, (1, 2)))
        for call in calls:
            for _ in range(2):
                with pytest.raises(BadParams) as exc:
                    call()
                assert str(exc.value) == message
    with pytest.raises(UnsupportedKind, match=r"genus kind \['todd'\] has no theta in Q\(zeta_p\)$"):
        ab_trace(["todd"], 5, (1, 2))  # a kind no memo can hash is refused first
