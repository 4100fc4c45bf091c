"""The catalog of Hirzebruch genera.

A genus is determined by its logarithm g(u) = u + ... (equivalently by the
characteristic series f = g^{-1}); everything downstream -- power systems,
projective-space values, fixed-point routes -- is derived from these two
series.  The catalog:

===========  ==========================================  =================
kind         logarithm g(u)                              coefficient ring
===========  ==========================================  =================
chi_y        integral of 1/((1-u)(1+y u))                Q
todd         chi_y at y = 0: -ln(1-u)                    Q
l_genus      chi_y at y = 1: arctanh(u)                  Q
euler        chi_y at y = -1: u/(1-u)                    Q
a_hat        2 arcsinh(u/2)                              Q
elliptic     integral of (1-2 delta u^2 + eps u^4)^-1/2  Q[delta, eps]
custom       caller supplied                             caller supplied
===========  ==========================================  =================

All logarithms are normalized (g(0) = 0, g'(0) = 1).  For chi_y this fixes
the scale so that the value on CP^n is (1 + (-1)^n y^{n+1})/(1+y); it also
makes the construction polynomial in y, so todd, l_genus and euler are built
as chi_y at the y of CHI_Y_AT.  The m-th power system is [u]_m = f(m·g(u)).
The fixed-point routes read its factor u/[u]_m in the coordinate u = f(z),
where it is q(mz)/(m q(z)) with q(z) = z/f(z), so they compose none.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import (
    BadParams,
    IndexBeyondTruncation,
    UnsupportedClosedForm,
    UnsupportedKind,
)
from .rings import MEMO_SIZE, QQ, Rational, _Frozen, require_int
from .series import Series, binomial_power

KIND_TODD = "todd"
KIND_EULER = "euler"
KIND_L = "l_genus"
KIND_CHI_Y = "chi_y"
KIND_A_HAT = "a_hat"
KIND_ELLIPTIC = "elliptic"
KIND_CUSTOM = "custom"

CATALOG_KINDS = (KIND_TODD, KIND_EULER, KIND_L, KIND_CHI_Y, KIND_A_HAT, KIND_ELLIPTIC)

# kinds whose theta lies in Q(zeta_p), so the trace and B-series routes apply
TRACE_KINDS = (KIND_TODD, KIND_EULER, KIND_L, KIND_CHI_Y, KIND_A_HAT)
# the kinds that are chi_y at a fixed y
CHI_Y_AT = {KIND_TODD: Fraction(0), KIND_L: Fraction(1), KIND_EULER: Fraction(-1)}


def require_theta(kind: str) -> str:
    """The one theta rule: kind if its theta lies in Q(zeta_p), which the B-series,
    the ab and trace routes and the checks built on them need; UnsupportedKind otherwise."""
    if kind not in TRACE_KINDS:
        raise UnsupportedKind(f"genus kind {kind!r} has no theta in Q(zeta_p)")
    return kind


class GenusSpec(_Frozen):
    """An immutable genus, pinned by its normalized logarithm and f = revert(logarithm)."""

    __slots__ = _fields = ("kind", "y", "ring", "logarithm", "f_series")

    def __init__(self, kind: str, y: Rational | None, logarithm: Series):
        ring, f_series = logarithm.ring, logarithm.revert()
        self._fill(locals())

    def __reduce__(self):  # a loaded catalog genus is this process's memoized one
        if self.kind == KIND_CUSTOM:
            return GenusSpec, (self.kind, self.y, self.logarithm)
        return make_genus, (self.kind, self.order, self.y)

    @property
    def order(self) -> int:
        return self.logarithm.order

    # by identity: the route memos key on the genus object, and a catalog genus is memoized
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __repr__(self):
        y = f", y={self.y}" if self.y is not None else ""
        return f"GenusSpec({self.kind}{y}; order {self.order})"


def _build_logarithm(kind: str, order: int, y: Fraction | None) -> Series:
    y = CHI_Y_AT.get(kind, y)
    if y is not None:  # 1/((1-u)(1+yu)) = sum c_k u^k: c_0 = 1, c_{k+1} = 1 - y c_k
        coeffs = [Fraction(1)]
        for _ in range(order - 1):
            coeffs.append(1 - y * coeffs[-1])
        return Series(QQ, coeffs).integrate()
    if kind == KIND_A_HAT:
        w = Series.from_fractions(QQ, [0, 0, Fraction(1, 4)], order - 1)
        return binomial_power(w, Fraction(-1, 2)).integrate()
    if kind == KIND_ELLIPTIC:
        from .graded import DE, GradedPoly

        w = Series(
            DE,
            [
                GradedPoly.zero(),
                GradedPoly.zero(),
                GradedPoly.delta() * Fraction(-2),
                GradedPoly.zero(),
                GradedPoly.eps(),
            ],
            order - 1,
        )
        return binomial_power(w, Fraction(-1, 2)).integrate()
    raise UnsupportedKind(f"unknown genus kind {kind!r}")


def _kind_y(kind: str, y: Rational | int | None) -> Fraction | None:
    """y as a Fraction for chi_y, which needs it; every other kind takes none."""
    if kind != KIND_CHI_Y:
        if y is not None:
            raise BadParams(f"kind {kind!r} does not take a parameter y")
        return None
    if y is None:
        raise BadParams("chi_y needs the parameter y")
    return Fraction(y)


def make_genus(
    kind: str,
    order: int,
    y: Rational | int | None = None,
    logarithm: Series | None = None,
) -> GenusSpec:
    """Construct a genus; catalog kinds are memoized per (kind, y, order) in an
    lru_cache of MEMO_SIZE entries, custom ones are built anew on every call.

    ``y`` is required for (and only allowed with) chi_y.  ``logarithm`` is
    required for (and only allowed with) kind 'custom'; it must satisfy
    g(0) = 0 and g'(0) = 1 and is used at its own truncation order.
    """
    require_int(order, "order", 2)
    y = _kind_y(kind, y)
    if kind == KIND_CUSTOM:
        if logarithm is None:
            raise BadParams("custom genus needs an explicit logarithm")
        if logarithm.coeffs[0] != logarithm.ring.zero:
            raise BadParams("custom logarithm must vanish at 0")
        if logarithm.order < 1 or logarithm.coeffs[1] != logarithm.ring.one:
            raise BadParams("custom logarithm must have linear coefficient 1")
        return GenusSpec(KIND_CUSTOM, None, logarithm)
    if logarithm is not None:
        raise BadParams("an explicit logarithm is only allowed with kind='custom'")
    if kind not in CATALOG_KINDS:
        raise UnsupportedKind(f"unknown genus kind {kind!r}")
    return _catalog_genus(kind, y, order)


@lru_cache(maxsize=MEMO_SIZE)
def _catalog_genus(kind: str, y: Fraction | None, order: int) -> GenusSpec:
    return GenusSpec(kind, y, _build_logarithm(kind, order, y))


def ensure_order(g: GenusSpec, order: int) -> GenusSpec:
    """Return g, rebuilt at a higher truncation order if needed."""
    if g.order >= order:
        return g
    if g.kind == KIND_CUSTOM:
        raise BadParams(
            f"custom genus has order {g.order} but order {order} is needed"
        )
    return make_genus(g.kind, order, g.y)


def power_system(g: GenusSpec, m: int, order: int | None = None) -> Series:
    """The m-th power system [u]_m = f(m·g(u)), composed only through u^order.

    The order defaults to the genus's own.  Not cached: the routes read the
    factors u/[u]_m in the coordinate u = f(z) instead (see zpgenus.engine).
    """
    require_int(m, "power system index", 1)
    order = g.order if order is None else order
    if m == 1:
        return Series.identity(g.ring, order)
    return g.f_series.compose(g.logarithm.truncate(order).scale(m))


def power_system_closed(
    kind: str, m: int, order: int, y: Rational | int | None = None
) -> Series:
    """Closed-form [u]_m for the kinds that admit one (all but elliptic/custom)."""
    require_int(m, "power system index", 1)
    y = CHI_Y_AT.get(kind, _kind_y(kind, y))
    one = Series.one(QQ, order)
    u = Series.identity(QQ, order)
    if y == -1:  # euler, where the chi_y quotient below is 0/0
        return u.scale(m) * (one + u.scale(m - 1)).invert()
    if y is not None:
        plus = (one + u.scale(y)) ** m
        minus = (one - u) ** m
        return (plus - minus).divide(plus + minus.scale(y))
    if kind == KIND_A_HAT:
        w = Series.from_fractions(QQ, [0, 0, Fraction(1, 4)], order)
        s = binomial_power(w, Fraction(1, 2)) + u.scale(Fraction(1, 2))
        return s**m - s.invert() ** m
    if kind in (KIND_ELLIPTIC, KIND_CUSTOM):
        raise UnsupportedClosedForm(f"no closed-form power system for kind {kind!r}")
    raise UnsupportedKind(f"unknown genus kind {kind!r}")


def cpn_genus(g: GenusSpec, n: int):
    """Value of the genus on complex projective n-space: <g'(u)>_n.

    Returns a ring element (Fraction, or GradedPoly for elliptic).
    """
    require_int(n, "projective dimension", 0)
    deriv = g.logarithm.differentiate()
    if n > deriv.order:
        raise IndexBeyondTruncation(
            f"CP^{n} value needs order {n + 1}, genus has order {g.order}"
        )
    return deriv[n]


# ---------------------------------------------------------------------------
# Genus names as accepted by the command line.
# ---------------------------------------------------------------------------

_NAME_TO_KIND = {
    "td": KIND_TODD,
    "euler": KIND_EULER,
    "L": KIND_L,
    "ahat": KIND_A_HAT,
    "elliptic": KIND_ELLIPTIC,
}


def parse_genus_name(text: str):
    """Map a CLI genus name to (kind, y): td, euler, L, chi_y:<y>, ahat, elliptic."""
    text = text.strip()
    if text in _NAME_TO_KIND:
        return _NAME_TO_KIND[text], None
    if text.startswith("chi_y:"):
        raw = text[len("chi_y:"):]
        try:
            return KIND_CHI_Y, Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise BadParams(f"bad chi_y parameter {raw!r}") from exc
    raise BadParams(
        f"unknown genus name {text!r}; expected td, euler, L, chi_y:<y>, ahat or elliptic"
    )
