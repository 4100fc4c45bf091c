"""Truncated formal power series over an exact coefficient ring.

A :class:`Series` holds coefficients c_0..c_N (N = truncation order) over one
of the ring descriptors from :mod:`zpgenus.rings`.  All arithmetic is exact;
truncation is the only approximation, and every operation states how it
propagates the order.  Binary operations work through the minimum of the two
orders, and equality compares through the common order.

Conventions used throughout:

* ``order`` is the largest exponent whose coefficient is known exactly.
* constructing from a short coefficient list pads with zeros, which is only
  correct for polynomial inputs -- that is the intended use.
* ``shift_down(k)`` divides by u^k and fails if any dropped coefficient is
  nonzero; combined with :meth:`Series.invert` it gives exact division of
  series with positive valuation.
* :meth:`Series.revert` uses Lagrange inversion, one product per degree;
  :meth:`Series.compose` is Horner's rule, which the package needs only for
  power systems.
"""
from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import lcm
from operator import mul

from .errors import (
    BadParams,
    IndexBeyondTruncation,
    NonUnitConstantTerm,
    NonzeroInnerConstant,
    NotReversible,
    RingMismatch,
    ZeroDivision,
)
from .rings import QQ, Ring, _Frozen, require_int


class Series(_Frozen):
    __slots__ = _fields = ("ring", "coeffs")

    def __init__(self, ring: Ring, coeffs: Sequence, order: int | None = None):
        coeffs = list(coeffs)
        if order is not None:
            if len(coeffs) > require_int(order, "order", 0) + 1:
                coeffs = coeffs[: order + 1]
            else:
                coeffs.extend(ring.zero for _ in range(order + 1 - len(coeffs)))
        if not coeffs:
            raise BadParams("a series needs at least the constant coefficient")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    # -- constructors --------------------------------------------------------
    @classmethod
    def zero(cls, ring: Ring, order: int) -> "Series":
        return cls(ring, [], order)

    @classmethod
    def one(cls, ring: Ring, order: int) -> "Series":
        return cls(ring, [ring.one], order)

    @classmethod
    def identity(cls, ring: Ring, order: int) -> "Series":
        return cls(ring, [ring.zero, ring.one], require_int(order, "order", 1))

    @classmethod
    def from_fractions(cls, ring: Ring, coeffs: Sequence[int | Fraction], order: int) -> "Series":
        return cls(ring, [ring.from_fraction(Fraction(c)) for c in coeffs], order)

    # -- basic structure -----------------------------------------------------
    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, m: int):
        if require_int(m, "coefficient index", 0) > self.order:
            raise IndexBeyondTruncation(
                f"coefficient of u^{m} requested but the series is truncated at order {self.order}"
            )
        return self.coeffs[m]

    def truncate(self, order: int) -> "Series":
        if require_int(order, "order", 0) > self.order:
            raise IndexBeyondTruncation(
                f"cannot extend a truncated series from order {self.order} to {order}"
            )
        return Series(self.ring, self.coeffs[: order + 1])

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient; None for the zero series."""
        for k, c in enumerate(self.coeffs):
            if c:
                return k
        return None

    def is_zero(self) -> bool:
        return self.valuation() is None

    def _check_ring(self, other: "Series"):
        if self.ring is not other.ring:
            raise RingMismatch(f"mixed rings {self.ring!r} and {other.ring!r}")

    # -- linear arithmetic ----------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        self._check_ring(other)
        n = min(self.order, other.order)
        return Series(self.ring, [self.coeffs[k] + other.coeffs[k] for k in range(n + 1)])

    def __sub__(self, other):
        return self + -other if isinstance(other, Series) else NotImplemented

    def __neg__(self):
        return Series(self.ring, [-c for c in self.coeffs])

    def scale(self, q) -> "Series":
        """Multiply every coefficient by a scalar (int/Fraction) or ring element."""
        if isinstance(q, int):
            q = Fraction(q)
        return Series(self.ring, [c * q for c in self.coeffs])

    # -- multiplicative arithmetic --------------------------------------------
    def __mul__(self, other):
        """Scalar multiple, or the product of two series through the smaller order.

        Over QQ the convolution runs on integer numerators over the lcm of each
        operand's denominators; other rings use the coefficient loop.
        """
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Series):
            return NotImplemented
        self._check_ring(other)
        n = min(self.order, other.order)
        if self.ring is QQ:
            a, da = integer_numerators(self.coeffs[: n + 1])
            b, db = integer_numerators(other.coeffs[: n + 1])
            return Series(QQ, [Fraction(sum(map(mul, a, b[k::-1])), da * db) for k in range(n + 1)])
        zero = self.ring.zero
        out = [zero] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if not a:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] = out[i + j] + a * b
        return Series(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Series":
        require_int(k, "series power", 0)
        out = Series.one(self.ring, self.order)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def invert(self) -> "Series":
        """Multiplicative inverse; the constant term must be a unit."""
        a0 = self.coeffs[0]
        if not self.ring.is_unit(a0):
            raise NonUnitConstantTerm(
                f"cannot invert a series with constant term {a0!r}"
            )
        n = self.order
        b0 = self.ring.invert(a0)
        out = [b0]
        neg_b0 = -b0
        for k in range(1, n + 1):
            acc = self.ring.zero
            for i in range(1, k + 1):
                ai = self.coeffs[i]
                if ai:
                    acc = acc + ai * out[k - i]
            out.append(neg_b0 * acc if acc else self.ring.zero)
        return Series(self.ring, out)

    def divide(self, other: "Series") -> "Series":
        """Exact division self/other.

        If other has valuation v > 0, self must also be divisible by u^v; the
        result then has order min(orders) - v.
        """
        if not isinstance(other, Series):
            raise BadParams("divide wants a Series")
        self._check_ring(other)
        v = other.valuation()
        if v is None:
            raise ZeroDivision("division by the zero series")
        if v == 0:
            return self * other.invert()
        return self.shift_down(v) * other.shift_down(v).invert()

    def shift_down(self, k: int) -> "Series":
        """Divide by u^k; errors if a dropped coefficient is nonzero."""
        if require_int(k, "shift") == 0:
            return self
        if k < 0 or k > self.order:
            raise BadParams(f"shift_down({k}) out of range for order {self.order}")
        for c in self.coeffs[:k]:
            if c:
                raise ZeroDivision(f"series is not divisible by u^{k}")
        return Series(self.ring, self.coeffs[k:])

    # -- composition and reversion ---------------------------------------------
    def compose(self, inner: "Series") -> "Series":
        """self(inner(u)); inner must vanish at 0."""
        if not isinstance(inner, Series):
            raise BadParams("compose wants a Series")
        self._check_ring(inner)
        if inner.coeffs[0]:
            raise NonzeroInnerConstant(
                f"inner series has constant term {inner.coeffs[0]!r}, expected 0"
            )
        n = min(self.order, inner.order)
        inner = inner.truncate(n)
        out = Series(self.ring, [self.coeffs[n]], n)
        for k in range(n - 1, -1, -1):
            out = out * inner
            ck = self.coeffs[k]
            if ck:
                out = Series(
                    self.ring, [out.coeffs[0] + ck] + list(out.coeffs[1:])
                )
        return out

    def revert(self) -> "Series":
        """Compositional inverse b with self(b(u)) = u.

        Lagrange inversion: b_k = (1/k) <(u/self)^k>_{k-1}, so each degree
        costs one product.  The rings contain Q, so 1/k exists.
        """
        if self.coeffs[0]:
            raise NotReversible("a(0) must be 0 to revert")
        if self.order < 1 or not self.ring.is_unit(self.coeffs[1]):
            raise NotReversible("the linear coefficient must be a unit to revert")
        phi = self.shift_down(1).invert()
        power = Series.one(self.ring, phi.order)
        b = [self.ring.zero]
        for k in range(1, self.order + 1):
            power = power * phi
            b.append(power.coeffs[k - 1] * Fraction(1, k))
        return Series(self.ring, b)

    # -- calculus ----------------------------------------------------------------
    def differentiate(self) -> "Series":
        """Termwise d/du; the order drops by one."""
        if self.order < 1:
            raise BadParams("cannot differentiate a series of order 0")
        return Series(
            self.ring, [self.coeffs[k + 1] * (k + 1) for k in range(self.order)]
        )

    def integrate(self) -> "Series":
        """Termwise integral with constant 0; the order grows by one."""
        out = [self.ring.zero]
        for k, c in enumerate(self.coeffs):
            out.append(c * Fraction(1, k + 1))
        return Series(self.ring, out)

    # -- comparison and text --------------------------------------------------
    def __eq__(self, other) -> bool:
        """Coefficientwise equality through the common truncation order."""
        if not isinstance(other, Series):
            return NotImplemented
        if self.ring is not other.ring:
            return False
        n = min(self.order, other.order)
        return self.coeffs[: n + 1] == other.coeffs[: n + 1]

    def __hash__(self):  # equality fixes only the ring and the constant term
        return hash((id(self.ring), self.coeffs[0]))

    def to_text(self) -> str:
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(f"{c}")
            elif k == 1:
                parts.append(f"({c})*u")
            else:
                parts.append(f"({c})*u^{k}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"Series[{self.ring!r}; order {self.order}]({self.to_text()})"


def integer_numerators(coeffs: Sequence[Fraction]):
    """(numerators, d): the Fractions as integers over d, the lcm of their denominators."""
    d = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (d // c.denominator) for c in coeffs], d


def binomial_power(w: Series, alpha: int | Fraction) -> "Series":
    """(1 + w)^alpha for a series w with w(0) = 0 and rational alpha.

    Expanded by the generalized binomial theorem; since w has positive
    valuation, w^k contributes nothing below degree k and the sum is finite
    at each truncation order.
    """
    if not isinstance(w, Series):
        raise BadParams("binomial_power wants a Series")
    if w.coeffs[0]:
        raise BadParams("binomial_power needs w(0) = 0")
    alpha = Fraction(alpha)
    n = w.order
    acc = Series.one(w.ring, n)
    term = Series.one(w.ring, n)
    coef = Fraction(1)
    for k in range(1, n + 1):
        term = term * w
        coef = coef * (alpha - (k - 1)) / k
        if coef:
            acc = acc + term.scale(coef)
    return acc
