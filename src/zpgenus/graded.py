"""The graded ring Q[delta, eps] of the elliptic genus, and its image F_p[delta, eps].

:class:`GradedPoly` is Q[delta, eps] with the weighted grading deg(delta) = 2,
deg(eps) = 4, where the elliptic genus takes its values; it reduces to
:class:`GradedPolyModP`, i.e. F_p[delta, eps], by :func:`poly_reduce_mod_p`,
which raises :class:`~zpgenus.errors.NonIntegralAtP` on a coefficient with p
in its denominator.  :data:`DE` names the ring for the series layer.  Only the
elliptic genus and the Legendre checks use this module, so it loads on demand.
"""
from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction

from .errors import NonIntegralAtP, ZeroDivision
from .rings import Rational, Ring, _Frozen, require_int, require_odd_prime


# ---------------------------------------------------------------------------
# The graded ring Q[delta, eps], deg(delta) = 2, deg(eps) = 4.
# ---------------------------------------------------------------------------

Monomial = tuple  # (a, b) meaning delta^a * eps^b


class _Graded(_Frozen):
    """What Q[delta, eps] and F_p[delta, eps] share: terms {(a, b): c} with no c zero,
    in descending weighted degree 2a + 4b, then descending a, hashed as a frozenset."""

    __slots__ = ()

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __hash__(self):
        return hash((frozenset(self.terms.items()), *self._values()[1:]))

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), key=lambda t: (-2 * t[0][0] - 4 * t[0][1], -t[0][0]))

    def __str__(self):
        return poly_to_text(self)


class GradedPoly(_Graded):
    """An element of Q[delta, eps], stored sparsely as {(a, b): coefficient}.

    Canonical form: no zero coefficients are stored, every coefficient is a
    Fraction.  Instances are immutable; all operations return new objects.
    """

    __slots__ = _fields = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Rational | int] = ()):
        canon = {}
        for (a, b), c in dict(terms).items():
            require_int(a, "monomial exponent", 0), require_int(b, "monomial exponent", 0)
            c = Fraction(c)
            if c:
                canon[(a, b)] = c
        object.__setattr__(self, "terms", canon)

    @classmethod
    def _of(cls, terms: dict) -> "GradedPoly":
        """The arithmetic's results: exponents already checked, Fraction coefficients."""
        self = object.__new__(cls)
        object.__setattr__(self, "terms", {m: c for m, c in terms.items() if c})
        return self

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
        return GradedPoly._of(out)

    def __sub__(self, other):
        if not isinstance(other, GradedPoly):
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) - c
        return GradedPoly._of(out)

    def __neg__(self):
        return GradedPoly._of({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return GradedPoly._of({m: c * q for m, c in self.terms.items()})
        if not isinstance(other, GradedPoly):
            return NotImplemented
        out = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                m = (a1 + a2, b1 + b2)
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return GradedPoly._of(out)

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
        return GradedPoly._of(out)

    def __repr__(self):
        return f"GradedPoly({poly_to_text(self)!r})"


class GradedPolyModP(_Graded):
    """An element of F_p[delta, eps]: integer coefficients in [1, p-1], sparse."""

    __slots__ = _fields = ("terms", "p")

    def __init__(self, terms: Mapping[Monomial, int], p: int):
        require_odd_prime(p)
        canon = {}
        for m, c in dict(terms).items():
            c = c % p
            if c:
                canon[m] = c
        object.__setattr__(self, "terms", canon)
        object.__setattr__(self, "p", p)

    def __repr__(self):
        return f"GradedPolyModP({poly_to_text(self)!r}, p={self.p})"


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


class _GradedRing(Ring):
    """The ring descriptor of Q[delta, eps] for the series layer (see rings.QQ)."""

    zero, one = GradedPoly.zero(), GradedPoly.one()

    def from_fraction(self, q: Rational):
        return GradedPoly.const(q)

    def is_unit(self, x) -> bool:
        return x.is_constant() and not x.is_zero()

    def invert(self, x):
        if not self.is_unit(x):
            raise ZeroDivision(f"{x!r} is not a unit in {self!r}")
        return GradedPoly.const(1 / x.constant_value())

    def __reduce__(self):  # by name, so that a loaded ring is DE
        return "DE"

    def __repr__(self):
        return "Q[delta,eps]"


DE = _GradedRing()
