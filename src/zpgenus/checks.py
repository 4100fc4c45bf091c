"""The exact checks behind the routes, which only some verbs run.

* :func:`ab_coefficient` and :func:`p_series_term`: one point's exact
  coefficient-route value and p-series coefficient.
* :func:`h_series` and :func:`thm71_check`: the combined congruence
  sum_j ab ≡ pseries_n + sum_{m<n} H_{n-m} cf_m (mod p).
* :func:`submanifold_genus`: the genus mod p from fixed-submanifold data.

They are read, in the coordinate u = f(z), off the same series products as
the routes of :mod:`zpgenus.engine`.  Only some verbs run them, so the package
loads this module on first use of one of its names.
"""
from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache

from .engine import WeightSet, _a_sum, _json_loads, _point_sums, b_series, canonical_weights
from .errors import BadParams, GuardViolation
from .genus import GenusSpec, make_genus, power_system, require_theta
from .rings import (MEMO_SIZE, QQ, ModP, Rational, _Frozen, rational_reduce_mod_p, require_int,
                    require_odd_prime)
from .series import Series


# ---------------------------------------------------------------------------
# One point's exact values.
# ---------------------------------------------------------------------------


def ab_coefficient(g: GenusSpec, p: int, weights: Sequence[int]) -> Fraction:
    """Per-point coefficient-route value -<A(u) B(u)>_d, d = len(weights).

    Exact over Q; its residue mod p equals the trace-route value.  Read from
    :func:`_point_sums` on the one point, so A and B go to order d.
    For euler A has degree d and A(1) = 1, so the value is -(p-1) for any weights.
    """
    require_odd_prime(p)
    require_theta(g.kind)
    weights = canonical_weights(weights, p)
    return _point_sums(g, p, len(weights), "ab", (len(weights),), [(weights, 1)])[0]


def p_series_term(g: GenusSpec, p: int, weights: Sequence[int], m: int):
    """<(p u/[u]_p) prod_k u/[u]_{x_k}>_m, exact in the coefficient ring, with
    weights used literally (ints >= 1), read in the coordinate u = f(z) like the
    routes; for m beyond the number of weights, weights 1 are added, whose
    factor is 1 in u and q(z) in z.
    """
    require_odd_prime(p)
    require_int(m, "coefficient index", 0)
    weights = tuple(require_int(x, "p_series_term weight", 1) for x in weights)
    weights += (1,) * (m - len(weights))
    return _point_sums(g, p, len(weights), "pseries", (m,), [(weights, 1)])[0]


# ---------------------------------------------------------------------------
# The h-series and the combined congruence check.
# ---------------------------------------------------------------------------


def h_series(
    kind: str, p: int, order: int, y: Rational | int | None = None
) -> Series:
    """h(u) = p([u]_p - u)/(B(u)[u]_p) = p(1 - u/[u]_p)/B(u); h(0) = 1 and h is p-integral.

    u/[u]_p is built on every call from the power system [u]_p (one compose and
    one inversion), and h costs one division by B more; thm71_check memoizes 1/h.
    The order must be an int >= 0, checked after the kind (``require_theta``).  Known
    closed forms: (1-u)(1+yu) for chi_y, so 1-u (todd),
    1-u^2 (l_genus) and (1-u)^2 (euler), and for a_hat
    cosh(((p+1)/2)t) cosh(t)/cosh(((p-1)/2)t), t = arcsinh(u/2).
    """
    require_odd_prime(p)
    require_theta(kind)
    require_int(order, "order", 0)
    yk = Fraction(y) if y is not None else None
    g = make_genus(kind, max(order + 1, 2), yk)
    factor = power_system(g, p, order + 1).shift_down(1).invert()
    num = (Series.one(QQ, order) - factor).scale(p)
    return num.divide(b_series(kind, p, order, yk))


@lru_cache(maxsize=MEMO_SIZE)
def _h_inverse(kind: str, y: Fraction | None, p: int, order: int) -> Series:
    """1/h(u) through u^order, memoized per (kind, y, p, order)."""
    return h_series(kind, p, order, y).invert()


class Thm71Report(_Frozen):
    """Exact data behind the congruence: sum_j ab ≡ pseries_n + sum H*cf (mod p)."""

    def __init__(self, p: int, n: int, q: int, ab_sum: Fraction, pseries_n: Fraction,
                 cf_sums: tuple[Fraction, ...], h_inverse_coeffs: tuple[Fraction, ...],
                 lhs: ModP, rhs: ModP):
        self._fill(locals())

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "q": self.q,
            "ab_sum": str(self.ab_sum),
            "pseries_n": str(self.pseries_n),
            "cf_sums": [str(c) for c in self.cf_sums],
            "h_inverse_coeffs": [str(c) for c in self.h_inverse_coeffs],
            "lhs_mod_p": self.lhs.value,
            "rhs_mod_p": self.rhs.value,
            "equal": self.equal,
        }


def thm71_check(g: GenusSpec, w: WeightSet, force: bool = False) -> Thm71Report:
    """Check sum_j ab_coefficient ≡ pseries_n + sum_{m<n} H_{n-m} cf_m (mod p).

    H_i are the coefficients of 1/h(u).  Both sides are read off one sum S of the
    points' products (:func:`_a_sum`).  The congruence is guaranteed for n <= p-2;
    beyond that a GuardViolation is raised unless force=True, in which case the
    reduction itself may legitimately fail NonIntegralAtP.
    """
    require_theta(g.kind)
    n, p, q = w.n, w.p, w.q
    if n < 1:
        raise BadParams("thm71_check needs n >= 1")
    if n > p - 2 and not force:
        raise GuardViolation(
            f"n = {n} exceeds p-2 = {p - 2}; pass force=True to check anyway"
        )

    total = _a_sum(g, w.distinct_points.items(), n)  # shared by both leads
    (ab_sum,) = _point_sums(g, p, n, "ab", (n,), None, total)
    sums = _point_sums(g, p, n, "pseries", range(n + 1), None, total)

    h_inv = _h_inverse(g.kind, g.y, p, n)
    rhs_exact = sums[n]
    for m in range(n):
        rhs_exact += h_inv[n - m] * sums[m]

    lhs = rational_reduce_mod_p(ab_sum, p)
    rhs = rational_reduce_mod_p(rhs_exact, p)
    return Thm71Report(
        p=p,
        n=n,
        q=q,
        ab_sum=ab_sum,
        pseries_n=sums[n],
        cf_sums=tuple(sums[:n]),
        h_inverse_coeffs=tuple(h_inv[k] for k in range(n + 1)),
        lhs=lhs,
        rhs=rhs,
    )


# ---------------------------------------------------------------------------
# Genus from fixed submanifold data.
# ---------------------------------------------------------------------------


def _genus_value(gv) -> Fraction:
    """A component's genus value, given as an int, a Fraction or a rational string."""
    if isinstance(gv, str):
        try:
            return Fraction(gv)
        except (ValueError, ZeroDivisionError) as exc:
            raise BadParams(f"bad genus_value {gv!r}") from exc
    if isinstance(gv, (int, Fraction)) and not isinstance(gv, bool):
        return Fraction(gv)
    raise BadParams(f"genus_value must be an int or a rational string, got {gv!r}")


class SubmanifoldComponent(_Frozen):
    def __init__(self, normal_weights: tuple[int, ...], genus_value: Fraction):
        self._fill(locals())


class SubmanifoldData(_Frozen):
    """Fixed submanifold data: per component, normal weights and the genus value."""

    def __init__(self, p: int, components: tuple[SubmanifoldComponent, ...]):
        require_odd_prime(p)
        components = tuple(
            SubmanifoldComponent(
                canonical_weights(c.normal_weights, p), _genus_value(c.genus_value)
            )
            for c in components
        )
        self._fill(locals())

    @classmethod
    def from_json_dict(cls, d: dict) -> "SubmanifoldData":
        try:
            p = d["p"]
            comps = d["components"]
        except (KeyError, TypeError) as exc:
            raise BadParams(f"submanifold JSON needs keys p, components: {exc}") from exc
        if not isinstance(comps, list):
            raise BadParams("components must be a list")
        built = []
        for c in comps:
            try:
                nw = c["normal_weights"]
                gv = c["genus_value"]
            except (KeyError, TypeError) as exc:
                raise BadParams(
                    f"each component needs normal_weights and genus_value: {exc}"
                ) from exc
            if not isinstance(nw, list):
                raise BadParams(f"normal_weights must be a list of ints, got {nw!r}")
            built.append(SubmanifoldComponent(tuple(nw), _genus_value(gv)))
        return cls(p=p, components=tuple(built))

    @classmethod
    def from_json(cls, text: str) -> "SubmanifoldData":
        return cls.from_json_dict(_json_loads(text))


def submanifold_genus(g: GenusSpec, data: SubmanifoldData) -> ModP:
    """phi(M) ≡ sum_nu ab_coefficient(normal weights of nu) * phi(M_nu) (mod p).

    Isolated fixed points have n normal weights and genus value 1, recovering
    the ab route; a trivial action (one component, no normal weights, value
    phi(M)) returns phi(M) mod p since ab(empty) = -(p-1) ≡ 1.  The formula
    assumes that each component's normal bundle is equivariantly trivial
    (the component times a linear representation); otherwise the result is
    wrong: the components CP^1 and a point of the linear action on CP^2 with
    residues (0, 0, 1) give 3 for todd at p = 5, not Todd(CP^2) = 1.
    """
    require_theta(g.kind)
    by_count = {}  # one ab sum per count of normal weights, the genus values as multiplicities
    for c in data.components:
        by_count.setdefault(len(c.normal_weights), []).append((c.normal_weights, c.genus_value))
    total = sum(_point_sums(g, data.p, d, "ab", (d,), pts)[0] for d, pts in by_count.items())
    return rational_reduce_mod_p(total, data.p)
