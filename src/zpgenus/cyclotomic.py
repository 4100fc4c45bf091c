"""Exact arithmetic in the cyclotomic field Q(zeta_p), p an odd prime.

Elements are stored on the power basis 1, zeta, ..., zeta^{p-2}; the relation
zeta^{p-1} = -(1 + zeta + ... + zeta^{p-2}) folds everything back after
multiplication.  Inversion runs the extended Euclidean algorithm against the
p-th cyclotomic polynomial over Q, and nothing here uses series arithmetic, so
the trace route is an oracle that shares no machinery with the series-based
routes it validates.  The closed-form minimal polynomials of theta are the one
thing the ab route takes from this module: its B-series is built from them.

On top of the field sit the theta elements attached to the genus catalog:

* todd     theta = 1 - zeta
* l_genus  theta = (1 - zeta)/(1 + zeta)
* chi_y    theta = (1 - zeta)/(1 + y zeta)   (needs 1 + y a unit mod p)
* a_hat    theta = zeta^{(p+1)/2} - zeta^{(p-1)/2}
* euler    theta = 1 (degenerate; its trace-route factor is 1)

and the trace functionals Tr(theta^k) and the fixed-point contribution
ab_trace = -Tr(prod_k factor(x_k)), which multiplies integer preimages in
the group ring Z[t]/(t^p - 1) instead of inverting in the field: each
factor is packed into one Python int, a weight costs one bigint product,
and a route's sum over points builds one Fraction.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterable, Sequence, Tuple, Union

from .errors import (
    BadParams,
    PrimeMismatch,
    UnsupportedKind,
    ZeroDivision,
    ZeroWeight,
)
from .genus import (
    KIND_A_HAT,
    KIND_CHI_Y,
    KIND_EULER,
    KIND_L,
    KIND_TODD,
    TRACE_KINDS,
)
from .rings import Rational, require_odd_prime


class CycloElem:
    """An element of Q(zeta_p) on the basis 1, zeta, ..., zeta^{p-2}."""

    __slots__ = ("p", "coords")

    def __init__(self, p: int, coords: Sequence[Union[Rational, int]]):
        require_odd_prime(p)
        coords = tuple(Fraction(c) for c in coords)
        if len(coords) != p - 1:
            raise BadParams(
                f"need {p - 1} coordinates for Q(zeta_{p}), got {len(coords)}"
            )
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, val):
        raise AttributeError("CycloElem is immutable")

    # -- constructors --------------------------------------------------------
    @classmethod
    def zero(cls, p: int) -> "CycloElem":
        return cls(p, [0] * (p - 1))

    @classmethod
    def one(cls, p: int) -> "CycloElem":
        return cls.from_rational(p, 1)

    @classmethod
    def from_rational(cls, p: int, q: Union[Rational, int]) -> "CycloElem":
        coords = [Fraction(0)] * (p - 1)
        coords[0] = Fraction(q)
        return cls(p, coords)

    @classmethod
    def zeta(cls, p: int, k: int = 1) -> "CycloElem":
        """zeta^k for any integer k (k may be negative)."""
        require_odd_prime(p)
        k %= p
        if k == p - 1:
            return cls(p, [-1] * (p - 1))
        coords = [Fraction(0)] * (p - 1)
        coords[k] = Fraction(1)
        return cls(p, coords)

    # -- ring structure --------------------------------------------------------
    def _check(self, other: "CycloElem"):
        if self.p != other.p:
            raise PrimeMismatch(f"mixed primes {self.p} and {other.p}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloElem.from_rational(self.p, other)
        if not isinstance(other, CycloElem):
            return NotImplemented
        self._check(other)
        return CycloElem(
            self.p, [a + b for a, b in zip(self.coords, other.coords)]
        )

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloElem.from_rational(self.p, other)
        if not isinstance(other, CycloElem):
            return NotImplemented
        self._check(other)
        return CycloElem(
            self.p, [a - b for a, b in zip(self.coords, other.coords)]
        )

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return CycloElem(self.p, [-a for a in self.coords])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return CycloElem(self.p, [a * q for a in self.coords])
        if not isinstance(other, CycloElem):
            return NotImplemented
        self._check(other)
        p = self.p
        # convolve, fold exponents mod p (zeta^p = 1) ...
        buckets = [Fraction(0)] * p
        for i, a in enumerate(self.coords):
            if not a:
                continue
            for j, b in enumerate(other.coords):
                if b:
                    buckets[(i + j) % p] += a * b
        # ... then eliminate zeta^{p-1} via the minimal relation
        top = buckets[p - 1]
        return CycloElem(p, [buckets[i] - top for i in range(p - 1)])

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "CycloElem":
        if not isinstance(k, int):
            raise BadParams(f"cyclotomic power wants an int, got {k!r}")
        if k < 0:
            return self.invert() ** (-k)
        out = CycloElem.one(self.p)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def is_zero(self) -> bool:
        return all(not a for a in self.coords)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CycloElem)
            and self.p == other.p
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.p, self.coords))

    def __repr__(self):
        parts = []
        for k, c in enumerate(self.coords):
            if not c:
                continue
            if k == 0:
                parts.append(f"{c}")
            else:
                z = "zeta" if k == 1 else f"zeta^{k}"
                parts.append(f"({c})*{z}")
        body = " + ".join(parts) if parts else "0"
        return f"CycloElem(p={self.p}; {body})"

    # -- field structure ---------------------------------------------------------
    def invert(self) -> "CycloElem":
        """Field inverse via extended gcd against the cyclotomic polynomial."""
        if self.is_zero():
            raise ZeroDivision(f"0 is not invertible in Q(zeta_{self.p})")
        p = self.p
        phi = [Fraction(1)] * p  # 1 + x + ... + x^{p-1}
        g, s = _poly_xgcd_against(list(self.coords), phi)
        # phi is irreducible and self != 0, so g is a nonzero constant
        inv_g = 1 / g[0]
        coords = [c * inv_g for c in s]
        coords += [Fraction(0)] * (p - 1 - len(coords))
        return CycloElem(p, coords[: p - 1])

    def conjugate(self, m: int) -> "CycloElem":
        """Galois action zeta -> zeta^m, for m not divisible by p."""
        if m % self.p == 0:
            raise BadParams(f"conjugation index must be a unit mod {self.p}")
        out = CycloElem.zero(self.p)
        for k, c in enumerate(self.coords):
            if c:
                out = out + CycloElem.zeta(self.p, k * m) * c
        return out

    def trace(self) -> Fraction:
        """Field trace to Q: Tr(1) = p-1 and Tr(zeta^j) = -1 for j nonzero."""
        total = (self.p - 1) * self.coords[0]
        for c in self.coords[1:]:
            total -= c
        return total


def _poly_trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _poly_divmod(a: list, b: list):
    a = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    lead_inv = 1 / b[-1]
    for k in range(len(a) - len(b), -1, -1):
        c = a[k + len(b) - 1] * lead_inv
        if c:
            q[k] = c
            for i, bc in enumerate(b):
                a[k + i] -= c * bc
    return _poly_trim(q), _poly_trim(a)


def _poly_xgcd_against(a: list, b: list):
    """Return (g, s) with s*a ≡ g (mod b) and g = gcd(a, b), over Q[x]."""
    a = _poly_trim([Fraction(c) for c in a])
    b = _poly_trim([Fraction(c) for c in b])
    r0, r1 = a, b
    s0, s1 = [Fraction(1)], []
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        # s_next = s0 - q * s1
        prod = [Fraction(0)] * (len(q) + len(s1))
        for i, qc in enumerate(q):
            if qc:
                for j, sc in enumerate(s1):
                    prod[i + j] += qc * sc
        nxt = [
            (s0[k] if k < len(s0) else Fraction(0))
            - (prod[k] if k < len(prod) else Fraction(0))
            for k in range(max(len(s0), len(prod)))
        ]
        s0, s1 = s1, _poly_trim(nxt)
    return r0, s0


# ---------------------------------------------------------------------------
# Theta elements and trace functionals for the genus catalog.
# ---------------------------------------------------------------------------

def _kind_param(kind: str, p: int, y: Union[Rational, int, None]):
    """y as a Fraction for chi_y (p-integral, 1 + y a unit mod p); other kinds take none."""
    if kind != KIND_CHI_Y:
        if y is not None:
            raise BadParams(f"kind {kind!r} does not take a parameter y")
        return None
    if y is None:
        raise BadParams("chi_y needs the parameter y")
    y = Fraction(y)
    if y.denominator % p == 0:
        raise BadParams(f"chi_y parameter {y} is not p-integral at p = {p}")
    if (1 + y).numerator % p == 0:
        raise BadParams(
            f"chi_y parameter {y} has 1 + y ≡ 0 mod {p}; theta degenerates"
        )
    return y


def theta_of(kind: str, p: int, y: Union[Rational, int, None] = None) -> CycloElem:
    """The element theta in Q(zeta_p) attached to a genus kind."""
    require_odd_prime(p)
    y = _kind_param(kind, p, y)
    zeta = CycloElem.zeta(p, 1)
    one = CycloElem.one(p)
    if kind == KIND_TODD:
        return one - zeta
    if kind == KIND_EULER:
        return one
    if kind == KIND_L:
        return (one - zeta) * (one + zeta).invert()
    if kind == KIND_CHI_Y:
        return (one - zeta) * (one + zeta * y).invert()
    if kind == KIND_A_HAT:
        return CycloElem.zeta(p, (p + 1) // 2) - CycloElem.zeta(p, (p - 1) // 2)
    raise UnsupportedKind(f"no theta element for genus kind {kind!r}")


def trace_theta_power(
    kind: str, p: int, k: int, y: Union[Rational, int, None] = None
) -> Fraction:
    """Tr(theta^k) for any integer k (negative powers via field inversion)."""
    return theta_of(kind, p, y).__pow__(k).trace()


# The largest p of the trace route, which packs vectors of length p into one int
# per weight: 3 weights took 0.016 s at p = 2003, 0.05 s at 4001 (3.11, Xeon).
TRACE_MAX_P = 2048


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
    y: Union[Rational, int, None] = None,
) -> Fraction:
    """The trace-route fixed-point contribution -Tr(prod_k factor(x_k)).

    The factor for a weight x is the theta-machinery analogue of u/[u]_x:
    todd 1/(1-zeta^x), l_genus (1+zeta^x)/(1-zeta^x), chi_y
    (1+y zeta^x)/(1-zeta^x), a_hat zeta^{x(p+1)/2}/(1-zeta^x), euler 1.
    A one-point call of :func:`_trace_total`.
    """
    weights = tuple(weights)
    table = _trace_table(kind, p, y, len(weights))
    weights = [x % p for x in weights]
    if not all(weights):
        raise ZeroWeight(f"weight divisible by p = {p}")
    return _trace_total(p, table, [(weights, 1)])


def _trace_table(kind: str, p: int, y: Union[Rational, int, None], n: int):
    """(den, slots, total, width) for points of n weights, after checking kind, p, y.

    Products are taken in Q[t]/(t^p - 1), onto Q(zeta_p) by t -> zeta, over
    den = (p b)^n, y = a/b, with 1/(1-zeta^x) from :func:`_todd_preimage`, and
    Tr(sum_j b_j t^j) = p b_0 - sum b_j.  ``slots`` holds the factor of 1 plus a
    multiple of sum_k t^k (0 in the field) that makes it nonnegative, ``width``
    bytes per coefficient; no product coefficient exceeds ``total``.
    """
    require_odd_prime(p)
    if p > TRACE_MAX_P:
        raise BadParams(f"the trace route needs p <= TRACE_MAX_P = {TRACE_MAX_P}, got {p}")
    if kind not in TRACE_KINDS:
        raise UnsupportedKind(f"no trace route for genus kind {kind!r}")
    y = _kind_param(kind, p, y)
    # l_genus and chi_y multiply the todd factor by 1 + (a/b) t^x; euler's is 1
    a, b = (1, 1) if y is None else (y.numerator, y.denominator)
    base = [p] + [0] * (p - 1) if kind == KIND_EULER else _todd_preimage(p, 1)
    if kind == KIND_A_HAT:
        s = (p + 1) // 2  # base[-s:] + base[:-s] is t^s base
        base = base[-s:] + base[:-s]
    elif kind in (KIND_L, KIND_CHI_Y):
        base = [b * f + a * g for f, g in zip(base, base[-1:] + base[:-1])]
    low = min(base)
    one = sum(base) - p * low  # sum_j b_j, as t -> 1 is a ring map
    width = (max(one, one**n).bit_length() + 8) // 8  # a factor's or product's sum, plus a bit
    return (p * b) ** n, [(c - low).to_bytes(width, "little") for c in base], one**n, width


def _trace_total(p: int, table, points) -> Fraction:
    """sum k (-Tr prod_{x in pt} factor(x)) over (pt, k) in points, over the table's den.

    The factor of x, that of 1 under t -> t^x, is packed once per call; a weight
    costs one bigint product and a fold of t^{p+i} onto t^i.
    """
    den, slots, total, width = table
    shift = 8 * width * p
    mask = (1 << shift) - 1
    num, packed = 0, {}
    for pt, k in points:
        prod = 1
        for x in pt:
            if x not in packed:
                v = pow(x, -1, p)
                packed[x] = int.from_bytes(b"".join([slots[j * v % p] for j in range(p)]), "little")
            prod *= packed[x]
            prod = (prod & mask) + (prod >> shift)
        num += k * (total - p * (prod & (1 << 8 * width) - 1))
    return Fraction(num, den)


def _theta_polynomial(
    kind: str, p: int, y: Union[Rational, int, None], top: int
) -> list:
    """The coefficients of u^0..u^min(top, p-1) of the minimal polynomial of theta.

    For the chi_y family (todd y=0, l_genus y=1) it is
    ((1+y u)^p - (1-u)^p)/((1+y) u).  For a_hat it is 2 sinh(pt)/u with
    u = 2 sinh t, whose coefficient of u^{p-1-2j} is p/(p-j) C(p-j, j).
    Only the coefficients through u^top are built, since the ab route reads a
    few of them at any p.
    """
    top = min(top, p - 1)
    y = _kind_param(kind, p, y)
    if kind == KIND_A_HAT:
        out = []
        for i in range(top + 1):
            j = (p - 1 - i) // 2
            out.append(Fraction(0) if i % 2 else Fraction(p * comb(p - j, j), p - j))
        return out
    if kind == KIND_TODD:
        y = Fraction(0)
    elif kind == KIND_L:
        y = Fraction(1)
    elif kind != KIND_CHI_Y:
        raise UnsupportedKind(f"no minimal polynomial for genus kind {kind!r}")
    return [comb(p, k) * (y**k - (-1) ** k) / (1 + y) for k in range(1, top + 2)]


def theta_minimal_polynomial(
    kind: str, p: int, y: Union[Rational, int, None] = None
) -> Tuple[Fraction, ...]:
    """Coefficients (low to high) of the degree p-1 polynomial annihilating theta.

    The closed forms are those of :func:`_theta_polynomial`, built to full degree.
    """
    require_odd_prime(p)
    return tuple(_theta_polynomial(kind, p, y, p - 1))


def evaluate_at_theta(coeffs: Sequence[Union[Rational, int]], theta: CycloElem) -> CycloElem:
    """Evaluate sum coeffs[k] * theta^k exactly (Horner)."""
    acc = CycloElem.zero(theta.p)
    for c in reversed(list(coeffs)):
        acc = acc * theta + CycloElem.from_rational(theta.p, c)
    return acc
