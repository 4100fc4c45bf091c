"""Linear actions on projective space and the Legendre congruences."""
import random
import time
from fractions import Fraction as F

import pytest
from reference_series import legendre_coeffs_by_expansion

from zpgenus import cpn as cpn_module
from zpgenus.cpn import (
    EQ46_MAX_P,
    Eq45Report,
    Eq46Report,
    check_eq45,
    check_eq46,
    homogenized_legendre,
    legendre_coeffs,
    legendre_value,
)
from zpgenus.engine import (ResidueTuple, WeightSet, canonical_residues, cpn_weight_set, genus_mod_p,
                            reduce_value)
from zpgenus.errors import BadParams, DuplicateResidues
from zpgenus.genus import cpn_genus, make_genus
from zpgenus.graded import GradedPoly, poly_reduce_mod_p
from zpgenus.rings import is_odd_prime

D = GradedPoly.delta()
E = GradedPoly.eps()


def test_residue_tuple_validation():
    rt = canonical_residues(5, 2)
    assert rt == ResidueTuple(5, (0, 1, 2))
    assert rt.n == 2
    with pytest.raises(DuplicateResidues):
        ResidueTuple(5, (0, 1, 5))
    with pytest.raises(BadParams):
        ResidueTuple(5, ())
    with pytest.raises(BadParams):
        canonical_residues(5, 5)
    with pytest.raises(BadParams):
        canonical_residues(4, 1)


def test_cpn_weight_set_example():
    w = cpn_weight_set(canonical_residues(5, 2))
    assert w == WeightSet(p=5, n=2, points=((1, 2), (4, 1), (3, 4)))
    # CP^0 has a single fixed point with no weights
    w0 = cpn_weight_set(canonical_residues(7, 0))
    assert w0 == WeightSet(p=7, n=0, points=((),))


def test_legendre_frozen():
    assert legendre_coeffs(0) == (1,)
    assert legendre_coeffs(1) == (0, 1)
    assert legendre_coeffs(2) == (F(-1, 2), 0, F(3, 2))
    assert legendre_coeffs(3) == (0, F(-3, 2), 0, F(5, 2))
    assert legendre_coeffs(4) == (F(3, 8), 0, F(-15, 4), 0, F(35, 8))
    with pytest.raises(BadParams):
        legendre_coeffs(-1)


def test_legendre_closed_sum_matches_generating_function():
    # the explicit sum against (1 - 2tu + u^2)^{-1/2} expanded over Q[delta, eps]
    for m in range(31):
        assert legendre_coeffs(m) == legendre_coeffs_by_expansion(m), m


def test_legendre_recurrence_and_special_values():
    samples = (F(0), F(1), F(-1), F(3, 7), F(-2, 5))
    for m in range(1, 9):
        for t in samples:
            lhs = (m + 1) * legendre_value(m + 1, t)
            rhs = (2 * m + 1) * t * legendre_value(m, t) - m * legendre_value(m - 1, t)
            assert lhs == rhs, (m, t)
    for m in range(9):
        assert legendre_value(m, F(1)) == 1
        assert legendre_value(m, F(-1)) == F(-1) ** m
        for t in samples:
            assert legendre_value(m, -t) == F(-1) ** m * legendre_value(m, t)


def test_homogenized_legendre():
    assert homogenized_legendre(1) == D
    assert homogenized_legendre(2) == D * D * F(3, 2) + E * F(-1, 2)
    for m in range(1, 7):
        h = homogenized_legendre(m)
        assert {2 * a + 4 * b for a, b in h.terms} == {2 * m}
        for t in (F(2), F(-1, 3)):
            assert h.substitute(t, 1) == legendre_value(m, t)


def test_eq45_canonical():
    for p, m in ((5, 1), (7, 1), (7, 2)):
        rep = check_eq45(p, m=m)
        assert isinstance(rep, Eq45Report)
        assert rep.equal and rep.cpn_matches, (p, m)
        d = rep.to_json_dict()
        assert d["equal"] is True and d["cpn_matches"] is True
        assert d["residues"] == list(range(2 * m + 1))


def test_eq45_explicit_residues():
    rep = check_eq45(7, residues=(3, 5, 1))
    assert rep.m == 1 and rep.equal and rep.cpn_matches
    rep = check_eq45(7, residues=(0, 2, 3, 6, 1))
    assert rep.m == 2 and rep.equal and rep.cpn_matches


def test_eq45_validation():
    with pytest.raises(BadParams):
        check_eq45(5)
    with pytest.raises(BadParams):
        check_eq45(5, residues=(0, 1))
    with pytest.raises(BadParams):
        check_eq45(5, residues=(0, 1, 2), m=2)


def test_eq46():
    for p in (3, 5, 7):
        rep = check_eq46(p)
        assert isinstance(rep, Eq46Report)
        assert rep.m == (p - 1) // 2
        assert rep.equal, p
        assert rep.power_system_matches, p
        assert rep.low_coeffs_vanish, p
        assert rep.eps_one_equal, p
    rep3 = check_eq46(3)
    assert rep3.scaled_term == poly_reduce_mod_p(D, 3)
    d = rep3.to_json_dict()
    assert d["equal"] is True and d["low_coeffs_vanish"] is True


def test_eq46_refuses_p_above_bound(monkeypatch):
    # the check's cost grows about as p^4; above EQ46_MAX_P it must refuse
    # before building any genus or series
    assert EQ46_MAX_P >= 11  # the primes the tests and the benchmark use
    assert is_odd_prime(EQ46_MAX_P)
    above = next(q for q in range(EQ46_MAX_P + 1, 2 * EQ46_MAX_P) if is_odd_prime(q))
    built = []
    monkeypatch.setattr(cpn_module, "make_genus", lambda *a, **k: built.append(a))
    for p in (above, 10007, 2**61 - 1):
        start = time.perf_counter()
        with pytest.raises(BadParams, match=f"EQ46_MAX_P = {EQ46_MAX_P}, got {p}"):
            check_eq46(p)
        assert time.perf_counter() - start < 0.1
    assert built == []


def test_pseries_matches_cpn_genus_all_kinds():
    kinds = [("todd", None), ("euler", None), ("l_genus", None),
             ("chi_y", F(2)), ("a_hat", None), ("elliptic", None)]
    for p in (5, 7):
        for n in (1, 2, 3):
            w = cpn_weight_set(canonical_residues(p, n))
            for kind, y in kinds:
                g = make_genus(kind, p + 2, y)
                got = genus_mod_p(g, w, "pseries")
                want = reduce_value(cpn_genus(g, n), p)
                assert got == want, (kind, p, n)


def test_pseries_value_independent_of_residues():
    rng = random.Random(31)
    g = make_genus("todd", 12)
    for p in (5, 7):
        for n in (1, 2):
            base = genus_mod_p(g, cpn_weight_set(canonical_residues(p, n)), "pseries")
            for _ in range(3):
                residues = tuple(rng.sample(range(p), n + 1))
                w = cpn_weight_set(ResidueTuple(p, residues))
                assert genus_mod_p(g, w, "pseries") == base, (p, residues)
