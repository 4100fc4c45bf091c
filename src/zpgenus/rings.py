"""Exact coefficient arithmetic over Q.

``Rational`` is stdlib :class:`fractions.Fraction` (already canonical:
gcd-reduced, positive denominator), reduced to :class:`ModP`.  Reduction mod p
is only defined for p-integral inputs: a rational with p dividing its
denominator raises :class:`~zpgenus.errors.NonIntegralAtP`; so does a
coefficient of the graded ring Q[delta, eps] of the elliptic genus, which
lives in :mod:`zpgenus.graded`.

The descriptor :data:`QQ`, a :class:`Ring`, names Q for the series layer; the
mod-p types only receive final reductions.  Two input rules live here, each the
one check of its kind: :func:`require_int` for a count, an order, an index or an
exponent, and :func:`canonical_weight` for a fixed-point weight; so does the one
value rule, :class:`_Frozen`, of every value and record of the package.
"""
from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache

from .errors import BadParams, NonIntegralAtP, ZeroDivision, ZeroWeight

Rational = Fraction


# Miller-Rabin on the prime bases 2..41 is exact below the least strong pseudoprime
# to all of them (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases").
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981
MEMO_SIZE = 256  # entries per lru memo; a stream of distinct keys must not grow one without end
# The most bytes a residue or trace table of packed factors takes, dict and ints counted.
# All p - 1 factors of todd would take about 36 MB in the trace table at p = 2039, n = 3,
# and 13 MB in the residue table at p = 100003, n = 3.
PACKED_CACHE_BYTES = 2**20


def keep_factor(table: dict, x: int, f: int) -> int:
    """f, the packed factor of weight x (an int, never None), kept in a residue or trace table
    while the table (its dict as it is, each key and factor at the size of this one) stays
    within PACKED_CACHE_BYTES: never cleared, a table keeps the factors packed first, and a
    stream repacks the others.
    Sizes are read by ``__sizeof__``, which costs a miss a third of what sys.getsizeof does."""
    size = table.__sizeof__() + (len(table) + 1) * (x.__sizeof__() + f.__sizeof__())
    if size <= PACKED_CACHE_BYTES:
        table[x] = f
    return f


class _Frozen:
    """The one value rule of values and records, in place of a frozen dataclass, so that a
    query loads no ``dataclasses`` (nor the ``inspect`` and ``ast`` it imports): no field can
    be set or deleted; objects of one class with equal fields are ==, hash as the tuple of
    their fields and repr as ``Class(field=value, ...)``; pickle and copy call the class with
    the fields.  The fields are ``_fields``, or the ``__init__`` parameters of a subclass
    that names none."""

    __slots__ = ()

    def __init_subclass__(cls):
        if "__init__" in vars(cls) and "_fields" not in vars(cls):
            code = cls.__init__.__code__
            cls._fields = code.co_varnames[1 : code.co_argcount]

    def _fill(self, values: dict, slots: tuple = ()) -> None:
        """Set every field, or every one of ``slots``, from the constructor's ``locals()``."""
        for f in slots or self._fields:
            object.__setattr__(self, f, values[f])

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __reduce__(self):
        return self.__class__, self._values()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__


def is_odd_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; BadParams at or above the exact bound.  A p
    that is not an int is no prime, checked before the memo hashes it."""
    return isinstance(p, int) and _is_odd_prime(p)


@lru_cache(maxsize=MEMO_SIZE)
def _is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
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


def require_int(x, what: str, low: int | None = None) -> int:
    """The one rule for a count, an order, an index or an exponent: x if it is an
    int, not a bool, and at least ``low`` when one is given; BadParams otherwise."""
    if not isinstance(x, int) or isinstance(x, bool) or (low is not None and x < low):
        bound = "" if low is None else f" >= {low}"
        raise BadParams(f"{what} must be an int{bound}, got {x!r}")
    return x


def canonical_weight(x: int, p: int) -> int:
    """The one weight rule: an int x (not a bool) reduced into [1, p-1];
    BadParams for any other x, ZeroWeight if p divides it."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise BadParams(f"weights must be ints, got {x!r}")
    x %= p
    if x == 0:
        raise ZeroWeight(f"weight ≡ 0 mod p = {p} is not allowed")
    return x


def canonical_weights(weights: Iterable[int], p: int) -> tuple[int, ...]:
    return tuple(canonical_weight(x, p) for x in weights)


class ModP(_Frozen):
    """A residue mod p, stored in [0, p-1]; reductions build it, callers compare and print it."""

    __slots__ = _fields = ("value", "p")

    def __new__(cls, value: int, p: int):
        p = require_odd_prime(p)
        return cls._of(require_int(value, "value"), p)

    @classmethod
    def _of(cls, value: int, p: int) -> "ModP":
        """ModP(value, p) for a p already known to be an odd prime: no primality test."""
        self = object.__new__(cls)
        object.__setattr__(self, "value", value % p)
        object.__setattr__(self, "p", p)
        return self

    def is_zero(self) -> bool:
        return self.value == 0

    def __bool__(self) -> bool:
        return self.value != 0

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


class Ring:
    """A ring descriptor: the distinguished elements, conversions and unit tests a
    series needs from its coefficient domain, :data:`QQ` here and ``DE`` of
    :mod:`zpgenus.graded`."""

    __slots__ = ()


class _RationalField(Ring):
    zero, one = Fraction(0), Fraction(1)

    def from_fraction(self, q: Rational):
        return Fraction(q)

    def is_unit(self, x) -> bool:
        return x != 0

    def invert(self, x):
        if x == 0:
            raise ZeroDivision("division by zero in Q")
        return 1 / Fraction(x)

    def __reduce__(self):  # by name, so that a loaded ring is QQ
        return "QQ"

    def __repr__(self):
        return "Q"


QQ = _RationalField()

