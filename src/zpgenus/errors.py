"""Exception hierarchy for the package.

Every failure raised on purpose derives from EngineError, so callers (and the
CLI) can distinguish "the input or request was bad" from a genuine bug.  The
names encode the failure mode, which the CLI reports verbatim.
"""
from __future__ import annotations


class EngineError(Exception):
    """Base class for all deliberate failures."""


class BadParams(EngineError):
    """A parameter is outside the documented domain (bad prime, order, y, ...)."""


class NonIntegralAtP(EngineError):
    """A rational that must be p-integral has p dividing its denominator."""


class ZeroDivision(EngineError):
    """Division by zero (or by a non-unit) in an exact ring."""


class NonUnitConstantTerm(EngineError):
    """Series inversion requires a unit constant term."""


class NonzeroInnerConstant(EngineError):
    """Series composition requires the inner series to vanish at 0."""


class NotReversible(EngineError):
    """Series reversion requires a(0) = 0 and a unit linear coefficient."""


class IndexBeyondTruncation(EngineError):
    """A coefficient beyond the computed truncation order was requested."""


class RingMismatch(EngineError):
    """Two series (or a series and a value) over different rings were combined."""


class UnsupportedKind(EngineError):
    """The requested operation is not defined for this genus kind."""


class UnsupportedClosedForm(EngineError):
    """No closed-form power system is available for this genus kind."""


class ZeroWeight(EngineError):
    """A fixed-point weight is divisible by p."""


class DuplicateResidues(EngineError):
    """The residues defining a linear projective-space action must be distinct mod p."""


class GuardViolation(EngineError):
    """A dimension guard (n <= p-2) was violated without an explicit override."""
