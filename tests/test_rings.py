"""Exact scalar, residue and graded-polynomial arithmetic."""
import random
import time
from fractions import Fraction as F

import pytest

from zpgenus import rings
from zpgenus.errors import BadParams, NonIntegralAtP
from zpgenus.graded import GradedPoly, GradedPolyModP, poly_reduce_mod_p, poly_to_text
from zpgenus.rings import MEMO_SIZE, ModP, is_odd_prime, rational_reduce_mod_p, require_odd_prime

D = GradedPoly.delta()
E = GradedPoly.eps()
ONE = GradedPoly.one()


def test_odd_prime_gate():
    assert is_odd_prime(3) and is_odd_prime(11) and is_odd_prime(97)
    for bad in (2, 1, 0, -3, 9, 15, 21, 7.0, "7", [7], {}):  # non-ints before the memo hashes
        assert not is_odd_prime(bad)
    with pytest.raises(BadParams):
        require_odd_prime(2)
    with pytest.raises(BadParams):
        require_odd_prime(9)


def test_odd_prime_gate_is_fast_and_exact():
    start = time.perf_counter()
    assert is_odd_prime(2**61 - 1)
    assert time.perf_counter() - start < 0.5
    # Carmichael numbers, then strong pseudoprimes to base 2 and to bases 2, 3, 5, 7
    for bad in (561, 1105, 41041, 2047, 3215031751):
        assert not is_odd_prime(bad)
    with pytest.raises(BadParams, match="3317044064679887385961981"):
        is_odd_prime(2**89 - 1)


def test_odd_prime_gate_matches_sieve():
    limit = 2 * 10**5
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for d in range(2, int(limit**0.5) + 1):
        if sieve[d]:
            sieve[d * d :: d] = bytearray(len(range(d * d, limit, d)))
    gate = rings._is_odd_prime.__wrapped__  # bypass the cache, which would keep every n
    for n in range(limit):
        assert gate(n) == (bool(sieve[n]) and n != 2), n


def test_odd_prime_cache_is_bounded():
    # A stream of distinct p keeps the last MEMO_SIZE answers, no more.
    for q in range(10**6 + 1, 10**6 + 1 + 4 * MEMO_SIZE, 2):
        is_odd_prime(q)
    info = rings._is_odd_prime.cache_info()
    assert info.maxsize == info.currsize == MEMO_SIZE
    assert is_odd_prime(10**6 + 3) and not is_odd_prime(10**6 + 1)


def test_unchecked_residue_equals_the_checked_one():
    # ModP._of skips the primality test a validated p has passed already.
    for value, p in ((12, 5), (-1, 7), (0, 3), (10**30 + 7, 101)):
        got = ModP._of(value, p)
        assert got == ModP(value, p) and repr(got) == repr(ModP(value, p))
        with pytest.raises(AttributeError):
            got.value = 0


def test_rational_reduce_examples():
    # 7/4 is the exact CP^1 Todd point sum at p=3 (1 + 3/4); its residue is 1
    assert rational_reduce_mod_p(F(7, 4), 3) == ModP(1, 3)
    assert rational_reduce_mod_p(F(0), 5) == ModP(0, 5)
    assert rational_reduce_mod_p(7, 5) == ModP(2, 5)
    # 2/3 shows up as the u^2 coefficient of 3u/[u]_3 for todd; not 3-integral
    with pytest.raises(NonIntegralAtP):
        rational_reduce_mod_p(F(2, 3), 3)
    with pytest.raises(NonIntegralAtP):
        rational_reduce_mod_p(F(1, 10), 5)


def test_rational_reduce_is_a_homomorphism():
    rng = random.Random(101)
    for _ in range(200):
        p = rng.choice((3, 5, 7, 11))
        a = F(rng.randint(-40, 40), rng.choice([1, 2, 4, 9, 121]))
        b = F(rng.randint(-40, 40), rng.choice([1, 2, 4, 9, 121]))
        if a.denominator % p == 0 or b.denominator % p == 0:
            continue
        ra, rb = rational_reduce_mod_p(a, p).value, rational_reduce_mod_p(b, p).value
        assert rational_reduce_mod_p(a + b, p).value == (ra + rb) % p
        assert rational_reduce_mod_p(a * b, p).value == ra * rb % p


def test_graded_poly_basic_algebra():
    assert D * D == GradedPoly({(2, 0): 1})
    assert (D + E) - D == E
    assert (D * 2) * F(1, 2) == D
    assert D * E == GradedPoly({(1, 1): 1})
    assert (D + E) * (D - E) == GradedPoly({(2, 0): 1, (0, 2): -1})
    # canonicalization: zeros dropped, all representations agree
    assert GradedPoly({(1, 0): 0, (0, 1): 2}) == E * 2
    assert GradedPoly({(0, 0): F(0)}).is_zero()
    assert hash(D + E) == hash(E + D)


def test_weighted_degree_multiplicative():
    rng = random.Random(7)
    for _ in range(50):
        d1 = rng.randint(0, 3)
        d2 = rng.randint(0, 3)
        # random homogeneous polys of weighted degrees 2*d1.. and 2*d2..
        q1 = GradedPoly({(d1 - 2 * b, b): rng.randint(1, 5) for b in range(d1 // 2 + 1)})
        q2 = GradedPoly({(d2 - 2 * b, b): rng.randint(1, 5) for b in range(d2 // 2 + 1)})
        assert {2 * a + 4 * b for a, b in (q1 * q2).terms} == {2 * d1 + 2 * d2}


def test_poly_reduce_mod_p():
    assert poly_reduce_mod_p(D * 3 + E, 3) == GradedPolyModP({(0, 1): 1}, 3)
    assert poly_reduce_mod_p(D * F(1, 2), 5) == GradedPolyModP({(1, 0): 3}, 5)
    assert poly_reduce_mod_p(GradedPoly.zero(), 5).is_zero()
    with pytest.raises(NonIntegralAtP):
        poly_reduce_mod_p(E * F(1, 3), 3)


def test_poly_text_round_trip_fixed():
    q = D * D * F(3, 2) + E * F(-1, 2)
    text = poly_to_text(q)
    assert text == "3/2*delta^2 + -1/2*eps"
    assert poly_to_text(GradedPoly.zero()) == "0"
    assert poly_to_text(ONE * 7) == "7"
    # ordering: descending weighted degree, then descending delta exponent
    q2 = E + D * D + D + ONE * 2
    assert poly_to_text(q2) == "1*delta^2 + 1*eps + 1*delta + 2"


def test_substitution():
    q = D * D * 3 + E * -1  # 3*delta^2 - eps
    assert q.substitute(1, 1) == 2
    assert q.substitute(F(-1, 8), 0) == F(3, 64)
    assert q.substitute_eps(1) == D * D * 3 - ONE
