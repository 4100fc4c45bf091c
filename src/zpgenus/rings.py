"""Exact coefficient arithmetic.

Two exact coefficient domains and their images mod p:

* ``Rational`` -- stdlib :class:`fractions.Fraction` (already canonical:
  gcd-reduced, positive denominator), reduced to :class:`ModP`.
* :class:`GradedPoly` -- Q[delta, eps] with the weighted grading
  deg(delta) = 2, deg(eps) = 4, where the elliptic genus takes its values;
  reduced to :class:`GradedPolyModP`, i.e. F_p[delta, eps].

Reduction mod p is only defined for p-integral inputs: a rational (or a
polynomial coefficient) with p dividing its denominator raises
:class:`~zpgenus.errors.NonIntegralAtP`.  This is the single choke point for
p-integrality diagnostics in the whole package.

The descriptors :data:`QQ` and :data:`DE` name the two exact domains for the
series layer; the mod-p types only receive final reductions.
"""
from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache

from .errors import BadParams, NonIntegralAtP, ZeroDivision

Rational = Fraction


# Miller-Rabin on the prime bases 2..41 is exact below the least strong pseudoprime
# to all of them (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases").
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981
MEMO_SIZE = 256  # entries per lru memo; a stream of distinct keys must not grow one without end


@lru_cache(maxsize=MEMO_SIZE)
def is_odd_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; BadParams at or above the exact bound."""
    if not isinstance(p, int) or p < 3 or p % 2 == 0:
        return False
    if p <= _MR_BASES[-1]:
        return p in _MR_BASES
    if p >= _MR_BOUND:
        raise BadParams(f"primality of {p} is decided exactly only below {_MR_BOUND}")
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def require_odd_prime(p: int) -> int:
    if not is_odd_prime(p):
        raise BadParams(f"p must be an odd prime >= 3, got {p!r}")
    return p


class ModP:
    """A residue mod p, stored in [0, p-1]; reductions build it, callers compare and print it."""

    __slots__ = ("value", "p")

    def __new__(cls, value: int, p: int):
        return cls._of(value, require_odd_prime(p))

    @classmethod
    def _of(cls, value: int, p: int) -> "ModP":
        """ModP(value, p) for a p already known to be an odd prime: no primality test."""
        self = object.__new__(cls)
        object.__setattr__(self, "value", value % p)
        object.__setattr__(self, "p", p)
        return self

    def __setattr__(self, name, val):  # immutable
        raise AttributeError("ModP is immutable")

    def is_zero(self) -> bool:
        return self.value == 0

    def __bool__(self) -> bool:
        return self.value != 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ModP) and self.p == other.p and self.value == other.value
        )

    def __hash__(self):
        return hash((self.value, self.p))

    def __repr__(self):
        return f"ModP({self.value}, p={self.p})"

    def __str__(self):
        return str(self.value)


def rational_reduce_mod_p(r: Rational | int, p: int) -> ModP:
    """Reduce a p-integral rational mod p.

    Raises NonIntegralAtP when p divides the denominator of r in lowest terms.
    """
    require_odd_prime(p)
    r = Fraction(r)
    if r.denominator % p == 0:
        raise NonIntegralAtP(f"{r} is not p-integral at p = {p}")
    return ModP._of(r.numerator * pow(r.denominator, -1, p), p)


# ---------------------------------------------------------------------------
# The graded ring Q[delta, eps], deg(delta) = 2, deg(eps) = 4.
# ---------------------------------------------------------------------------

Monomial = tuple  # (a, b) meaning delta^a * eps^b


def _monomial_degree(m: Monomial) -> int:
    return 2 * m[0] + 4 * m[1]


def _term_sort_key(m: Monomial):
    # descending weighted degree, then descending delta exponent
    return (-_monomial_degree(m), -m[0])


class GradedPoly:
    """An element of Q[delta, eps], stored sparsely as {(a, b): coefficient}.

    Canonical form: no zero coefficients are stored, every coefficient is a
    Fraction.  Instances are immutable; all operations return new objects.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Rational | int] = ()):
        canon = {}
        for (a, b), c in dict(terms).items():
            if not isinstance(a, int) or not isinstance(b, int) or a < 0 or b < 0:
                raise BadParams(f"bad monomial exponents ({a!r}, {b!r})")
            c = Fraction(c)
            if c:
                canon[(a, b)] = c
        object.__setattr__(self, "terms", canon)

    def __setattr__(self, name, val):
        raise AttributeError("GradedPoly is immutable")

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls) -> "GradedPoly":
        return cls({})

    @classmethod
    def one(cls) -> "GradedPoly":
        return cls({(0, 0): 1})

    @classmethod
    def const(cls, q: Rational | int) -> "GradedPoly":
        return cls({(0, 0): Fraction(q)})

    @classmethod
    def delta(cls) -> "GradedPoly":
        return cls({(1, 0): 1})

    @classmethod
    def eps(cls) -> "GradedPoly":
        return cls({(0, 1): 1})

    # -- predicates ---------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {(0, 0)}

    def constant_value(self) -> Rational:
        return self.terms.get((0, 0), Fraction(0))

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, GradedPoly):
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return GradedPoly(out)

    def __sub__(self, other):
        if not isinstance(other, GradedPoly):
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) - c
        return GradedPoly(out)

    def __neg__(self):
        return GradedPoly({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return GradedPoly({m: c * q for m, c in self.terms.items()})
        if not isinstance(other, GradedPoly):
            return NotImplemented
        out = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                m = (a1 + a2, b1 + b2)
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return GradedPoly(out)

    __rmul__ = __mul__

    def substitute(self, delta_val: Rational | int, eps_val: Rational | int) -> Rational:
        """Evaluate at delta = delta_val, eps = eps_val."""
        dv, ev = Fraction(delta_val), Fraction(eps_val)
        total = Fraction(0)
        for (a, b), c in self.terms.items():
            total += c * dv**a * ev**b
        return total

    def substitute_eps(self, eps_val: Rational | int) -> "GradedPoly":
        """Partial evaluation eps = eps_val; the result lives in Q[delta]."""
        ev = Fraction(eps_val)
        out = {}
        for (a, b), c in self.terms.items():
            m = (a, 0)
            out[m] = out.get(m, Fraction(0)) + c * ev**b
        return GradedPoly(out)

    # -- structure ----------------------------------------------------------
    def __eq__(self, other) -> bool:
        return isinstance(other, GradedPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _term_sort_key(kv[0]))

    def __repr__(self):
        return f"GradedPoly({poly_to_text(self)!r})"

    def __str__(self):
        return poly_to_text(self)


class GradedPolyModP:
    """An element of F_p[delta, eps]: integer coefficients in [1, p-1], sparse."""

    __slots__ = ("terms", "p")

    def __init__(self, terms: Mapping[Monomial, int], p: int):
        require_odd_prime(p)
        canon = {}
        for m, c in dict(terms).items():
            c = c % p
            if c:
                canon[m] = c
        object.__setattr__(self, "terms", canon)
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, val):
        raise AttributeError("GradedPolyModP is immutable")

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradedPolyModP)
            and self.p == other.p
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((frozenset(self.terms.items()), self.p))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _term_sort_key(kv[0]))

    def __repr__(self):
        return f"GradedPolyModP({poly_to_text(self)!r}, p={self.p})"

    def __str__(self):
        return poly_to_text(self)


def poly_reduce_mod_p(q: GradedPoly, p: int) -> GradedPolyModP:
    """Reduce every coefficient mod p; NonIntegralAtP if any denominator has p."""
    require_odd_prime(p)
    out = {}
    for m, c in q.terms.items():
        if c.denominator % p == 0:
            raise NonIntegralAtP(
                f"coefficient {c} of delta^{m[0]}*eps^{m[1]} is not p-integral at p = {p}"
            )
        out[m] = c.numerator * pow(c.denominator, -1, p)
    return GradedPolyModP(out, p)


# ---------------------------------------------------------------------------
# Text form: "c", "c*delta^a", "c*eps^b", "c*delta^a*eps^b" joined by " + ",
# exponent 1 omitted, terms in descending weighted degree then descending
# delta exponent.
# ---------------------------------------------------------------------------


def _term_to_text(m: Monomial, c) -> str:
    a, b = m
    parts = [str(c)]
    if a:
        parts.append("delta" if a == 1 else f"delta^{a}")
    if b:
        parts.append("eps" if b == 1 else f"eps^{b}")
    return "*".join(parts)


def poly_to_text(q: GradedPoly | GradedPolyModP) -> str:
    if q.is_zero():
        return "0"
    return " + ".join(_term_to_text(m, c) for m, c in q.sorted_terms())


# ---------------------------------------------------------------------------
# Ring descriptors: the distinguished elements, conversions and unit tests a
# series needs from its coefficient domain.
# ---------------------------------------------------------------------------


class _RationalField:
    zero, one = Fraction(0), Fraction(1)

    def from_fraction(self, q: Rational):
        return Fraction(q)

    def is_unit(self, x) -> bool:
        return x != 0

    def invert(self, x):
        if x == 0:
            raise ZeroDivision("division by zero in Q")
        return 1 / Fraction(x)

    def __repr__(self):
        return "Q"


class _GradedRing:
    zero, one = GradedPoly.zero(), GradedPoly.one()

    def from_fraction(self, q: Rational):
        return GradedPoly.const(q)

    def is_unit(self, x) -> bool:
        return x.is_constant() and not x.is_zero()

    def invert(self, x):
        if not self.is_unit(x):
            raise ZeroDivision(f"{x!r} is not a unit in {self!r}")
        return GradedPoly.const(1 / x.constant_value())

    def __repr__(self):
        return "Q[delta,eps]"


QQ = _RationalField()
DE = _GradedRing()
