"""Exact arithmetic in the cyclotomic field Q(zeta_p), p an odd prime: the
independent reference that the group-ring kernel of ``zpgenus.cyclotomic`` is
tested against.

Elements are stored on the power basis 1, zeta, ..., zeta^{p-2}; the relation
zeta^{p-1} = -(1 + zeta + ... + zeta^{p-2}) folds everything back after
multiplication.  Inversion runs the extended Euclidean algorithm against the
p-th cyclotomic polynomial over Q.  Only parameter checks come from the package.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

from zpgenus.cyclotomic import _kind_param
from zpgenus.errors import BadParams, UnsupportedKind, ZeroDivision
from zpgenus.genus import KIND_A_HAT, KIND_CHI_Y, KIND_EULER, KIND_L, KIND_TODD
from zpgenus.rings import Rational, require_odd_prime


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
        assert self.p == other.p, f"mixed primes {self.p} and {other.p}"

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


def evaluate_at_theta(coeffs: Sequence[Union[Rational, int]], theta: CycloElem) -> CycloElem:
    """Evaluate sum coeffs[k] * theta^k exactly (Horner)."""
    acc = CycloElem.zero(theta.p)
    for c in reversed(list(coeffs)):
        acc = acc * theta + CycloElem.from_rational(theta.p, c)
    return acc


def reference_trace_theta_power(kind: str, p: int, k: int, y=None) -> Fraction:
    """Tr(theta^k) by field arithmetic, negative powers via field inversion."""
    return (theta_of(kind, p, y) ** k).trace()
