"""Theta traces over the cyclotomic field Q(zeta_p), p an odd prime.

Nothing here does field arithmetic and nothing is inverted: every element the
routes need is the image under t -> zeta of an integer vector over a
denominator in the group ring Z[t]/(t^p - 1), products multiply such vectors,
and Tr(sum_j b_j t^j) = p b_0 - sum_j b_j reads a trace off the result.  No
series arithmetic is used either, so the trace route is an oracle that shares
no machinery with the series-based routes it validates.  The closed-form
minimal polynomials of theta are the one thing the ab route takes from this
module: its B-series is built from them.

The theta elements attached to the genus catalog are

* chi_y    theta = (1 - zeta)/(1 + y zeta)   (needs 1 + y a unit mod p, or y = -1)
* todd     chi_y at y = 0: theta = 1 - zeta
* l_genus  chi_y at y = 1: theta = (1 - zeta)/(1 + zeta)
* euler    chi_y at y = -1: theta = 1, so its polynomial is (1 - u)^{p-1}
* a_hat    theta = zeta^{(p+1)/2} - zeta^{(p-1)/2}

with y read from ``genus.CHI_Y_AT`` for todd, l_genus and euler, and the
trace-route factor of a weight x is theta^{-1} (-theta^{-1} for
a_hat) under zeta -> zeta^x.  The fixed-point contribution
ab_trace = -Tr(prod_k factor(x_k)) and Tr(theta^k), a product of |k| equal
factors, both run on the product loop of :func:`_trace_total`: each preimage
is packed into one Python int, a factor costs one bigint product, and a sum
over points is one integer over one denominator.
"""
from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache
from math import comb, log2

from .errors import BadParams
from .genus import CHI_Y_AT, KIND_A_HAT, _kind_y, require_theta
from .rings import (MEMO_SIZE, Rational, canonical_weights, keep_factor, require_int,
                    require_odd_prime)

# The largest p of the trace route, which packs vectors of length p into one int
# per weight: 3 weights took 0.016 s at p = 2003, 0.05 s at 4001 (3.11, Xeon).
TRACE_MAX_P = 2048
# The largest work n M(b) of a product of n factors of b packed bits, about
# p n bitlen(L1) for slots summing to L1, M(b) as in _trace_table.  Largest n
# accepted (todd and a_hat / l_genus / chi_y:2): p = 2039 23/22/22, 503 62/60/58,
# 101 197/188/188, 11 1234/1123/1034, 5 2567/2567/2238; one ab_trace there took
# 1.8-4.0 s at p >= 101 and at most 1.6 s below, and chi_y at p = 2039 with the
# widest y accepted on 2-8 weights 1.1-3.9 s, against 2.4-4.6 s for the slowest
# product that n b <= 24.7 million accepted, todd on 24 weights (3.11, shared Xeon).
TRACE_MAX_WORK = 855_000_000


def _require_trace_prime(p: int, what: str) -> None:
    """Refuse p unless it is an odd prime of at most TRACE_MAX_P, before any O(p) work."""
    require_odd_prime(p)
    if p > TRACE_MAX_P:
        raise BadParams(f"{what} needs p <= TRACE_MAX_P = {TRACE_MAX_P}, got {p}")


def _kind_param(kind: str, p: int, y: Rational | int | None):
    """y as a Fraction for chi_y (p-integral; 1 + y a unit mod p or y = -1); other kinds none."""
    y = _kind_y(kind, y)
    if y is None:
        return None
    if y.denominator % p == 0:
        raise BadParams(f"chi_y parameter {y} is not p-integral at p = {p}")
    if y != -1 and (1 + y).numerator % p == 0:
        raise BadParams(
            f"chi_y parameter {y} has 1 + y ≡ 0 mod {p}; theta degenerates"
        )
    return y


def trace_theta_power(
    kind: str, p: int, k: int, y: Rational | int | None = None
) -> Fraction:
    """Tr(theta^k) for any integer k, as minus the :func:`_trace_total` of one
    point of |k| weights 1.

    Its factor is theta's preimage for k > 0 and the trace-route factor of
    weight 1, theta^{-1}, for k < 0.  a_hat's factor is -theta^{-1}, but
    zeta -> zeta^{-1} maps its theta to -theta, so its odd traces vanish and
    the sign never shows.  k must be an int (``require_int``), checked before
    p, y and kind; a power above TRACE_MAX_WORK is refused with BadParams by
    :func:`_trace_table` before anything is packed.
    """
    require_int(k, "theta power")
    vec, den = _trace_preimage(kind, p, y, theta=k > 0)
    if k == 0:
        return Fraction(p - 1)
    num, den = _trace_total(p, _trace_table(vec, den, abs(k)), [((1,) * abs(k), 1)])
    return Fraction(-num, den)


def _todd_preimage(p: int, x: int) -> list:
    """p times a preimage in Z[t]/(t^p - 1) of 1/(1 - zeta^x), x a unit mod p.

    (1 - t^x) * sum_k k t^{kx} = sum_k t^{kx} - p, and sum_k zeta^{kx} = 0,
    so 1/(1 - zeta^x) is the image of -(1/p) sum_{k<p} k t^{kx}.
    """
    x_inv = pow(x, -1, p)  # t^j = t^{kx} with k = j/x mod p
    return [-(j * x_inv % p) for j in range(p)]


def ab_trace(
    kind: str,
    p: int,
    weights: Iterable[int],
    y: Rational | int | None = None,
) -> Fraction:
    """The trace-route fixed-point contribution -Tr(prod_k factor(x_k)).

    The factor for a weight x is the theta-machinery analogue of u/[u]_x:
    todd 1/(1-zeta^x), l_genus (1+zeta^x)/(1-zeta^x), chi_y
    (1+y zeta^x)/(1-zeta^x), a_hat zeta^{x(p+1)/2}/(1-zeta^x), euler 1.
    A one-point call of :func:`_trace_total` on the table of :func:`_route_table`,
    after p, y, the kind and then the weights (``canonical_weights``) are checked.
    """
    y = _trace_params(kind, p, y)
    weights = canonical_weights(weights, p)
    return Fraction(*_trace_total(p, _route_table(kind, y, p, len(weights)), [(weights, 1)]))


def _trace_params(kind: str, p: int, y: Rational | int | None) -> Fraction | None:
    """y as :func:`_kind_param` gives it, after checking p, y and kind, so a memo may hash them."""
    _require_trace_prime(p, "the trace route")
    y = _kind_param(kind, p, y)
    require_theta(kind)
    return y


@lru_cache(maxsize=MEMO_SIZE)
def _route_table(kind: str, y: Fraction | None, p: int, n: int):
    """The :func:`_trace_table` of n-fold trace-route products of the genus (kind, y)
    at p, memoized; :func:`_trace_preimage` checks p, y and kind, and raises on a bad one."""
    return _trace_table(*_trace_preimage(kind, p, y), n)


def _trace_preimage(kind: str, p: int, y: Rational | int | None, theta: bool = False):
    """(vec, den) after checking p, y and kind: sum_j vec[j] t^j / den maps onto
    the factor of weight 1, or onto theta if asked, by t -> zeta.

    With y = a/b, for todd and l_genus from CHI_Y_AT, the factor is
    (b + a t)/(b (1 - t)), from :func:`_todd_preimage`, and theta is
    b (1 - t) sum_{j<p} (-a)^j b^{p-1-j} t^j / (a^p + b^p), since that sum times
    b + a t telescopes to b^p + a^p (p odd).  At y = -1 (euler) both are 1, as
    a^p + b^p = 0 there; a_hat's are t^{(p+1)/2} times todd's factor and times 1 - t^{-1}.
    """
    y = CHI_Y_AT.get(kind, _trace_params(kind, p, y))
    if y == -1:  # euler, or chi_y at y = -1
        return [1] + [0] * (p - 1), 1
    if kind == KIND_A_HAT:
        s = (p + 1) // 2  # vec[-s:] + vec[:-s] is t^s vec
        vec, den = ([1] + [0] * (p - 2) + [-1], 1) if theta else (_todd_preimage(p, 1), p)
        return vec[-s:] + vec[:-s], den
    a, b = y.numerator, y.denominator
    if theta:
        inv = [(-a) ** j * b ** (p - 1 - j) for j in range(p)]
        return [b * (c - d) for c, d in zip(inv, inv[-1:] + inv[:-1])], a**p + b**p
    vec = _todd_preimage(p, 1)
    return [b * c + a * d for c, d in zip(vec, vec[-1:] + vec[:-1])], p * b


def _trace_table(vec: list, den: int, n: int):
    """(den^n, slots, total, width, packed) for products of n factors sum_j vec[j] t^j / den.

    ``slots`` holds vec minus its minimum, a multiple of sum_k t^k (0 in the
    field) that makes it nonnegative, at ``width`` bytes per coefficient; no
    product coefficient exceeds ``total``.  ``packed`` maps a weight to its
    packed factor and is filled by :func:`_trace_total`.  A product's work, n
    times the cost M(b) of one product of its packed size b, about
    p n bitlen(sum_j slots[j]) bits, above TRACE_MAX_WORK is refused with
    BadParams before anything is packed.
    """
    low = min(vec)
    one = sum(vec) - len(vec) * low  # sum_j slots[j], as t -> 1 is a ring map
    bits = len(vec) * n * one.bit_length()
    # a b-bit product costs about b up to CPython's Karatsuba cutoff of 70 digits
    # (2100 bits) and grows as b^log2(3) above it
    work = n * max(bits, 2100 * (bits / 2100) ** log2(3))
    if work > TRACE_MAX_WORK:
        raise BadParams(f"{n} products of about {bits} bits at p = {len(vec)} cost about "
                        f"{work:.3g}, above TRACE_MAX_WORK = {TRACE_MAX_WORK}")
    width = (max(one, one**n).bit_length() + 8) // 8  # a factor's or product's sum, plus a bit
    return den**n, [(c - low).to_bytes(width, "little") for c in vec], one**n, width, {}


def _trace_total(p: int, table, points) -> tuple[int, int]:
    """(num, den): sum k (-Tr prod_{x in pt} factor(x)) over (pt, k) in points is
    num/den, den the table's.

    The factor of x, that of 1 under t -> t^x, is read from the table's packed
    factors and packed on a miss (:func:`~zpgenus.rings.keep_factor`), so a
    memoized table packs a weight it keeps once across calls.  A weight then
    costs one bigint product and a fold of t^{p+i} onto t^i.
    """
    den, slots, total, width, packed = table
    shift = 8 * width * p
    mask, slot = (1 << shift) - 1, (1 << 8 * width) - 1
    num = 0
    for pt, k in points:
        prod = 1
        for x in pt:
            factor = packed.get(x)
            if factor is None:
                v = pow(x, -1, p)
                factor = b"".join([slots[j * v % p] for j in range(p)])
                factor = keep_factor(packed, x, int.from_bytes(factor, "little"))
            prod *= factor
            prod = (prod & mask) + (prod >> shift)
        num += k * (total - p * (prod & slot))
    return num, den


def _theta_polynomial(
    kind: str, p: int, y: Rational | int | None, top: int
) -> list:
    """The coefficients of u^0..u^min(top, p-1) of the minimal polynomial of theta.

    For the chi_y family, y from CHI_Y_AT for todd, l_genus and euler, it is
    ((1+y u)^p - (1-u)^p)/((1+y) u), except that at y = -1 (theta = 1), where
    that quotient is 0/0, it is (1-u)^{p-1}.  For a_hat it is 2 sinh(pt)/u with
    u = 2 sinh t, whose coefficient of u^{p-1-2j} is p/(p-j) C(p-j, j).
    Only the coefficients through u^top are built, since the ab route reads a
    few of them at any p.
    """
    top = min(top, p - 1)
    y = _kind_param(kind, p, y)
    require_theta(kind)
    if kind == KIND_A_HAT:
        out = []
        for i in range(top + 1):
            j = (p - 1 - i) // 2
            out.append(Fraction(0) if i % 2 else Fraction(p * comb(p - j, j), p - j))
        return out
    y = CHI_Y_AT.get(kind, y)
    if y == -1:
        return [Fraction((-1) ** k * comb(p - 1, k)) for k in range(top + 1)]
    return [comb(p, k) * (y**k - (-1) ** k) / (1 + y) for k in range(1, top + 2)]


def theta_minimal_polynomial(
    kind: str, p: int, y: Rational | int | None = None
) -> tuple[Fraction, ...]:
    """Coefficients (low to high) of the degree p-1 polynomial annihilating theta.

    The closed forms are those of :func:`_theta_polynomial`, built to full degree.
    """
    _require_trace_prime(p, "the full minimal polynomial of theta")
    return tuple(_theta_polynomial(kind, p, y, p - 1))

