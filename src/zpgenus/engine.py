"""Genera of Z/p fixed-point data, computed three independent ways.

A weight set records, for each fixed point of a Z/p action on a stably
complex 2n-manifold, the n rotation weights of the action on the tangent
space (nonzero residues mod p).  The genus of the ambient manifold mod p is
computed by any of three routes, which must agree (each computes a
repeated fixed point once, times its multiplicity):

* ``pseries``: sum over fixed points of <(p u/[u]_p) * prod_k u/[u]_{x_k}>_n.
* ``ab``: sum over fixed points of ab_coefficient = -<A(u) B(u)>_n with
  A = prod_k u/[u]_{x_k} and B the trace generating series of the kind.
* ``trace``: sum over fixed points of -Tr prod_k factor(zeta^{x_k}) in
  Q(zeta_p), as packed products of integer preimages in the group ring
  Z[t]/(t^p - 1), sharing no series arithmetic with the other two routes.

Over Q, pseries and ab read the sum mod p from one table per (p, n) of
residues mod p^e, which also keeps the last set's products; every exact value,
and every sum the table cannot reduce, comes from series products.

Realizable weight sets also satisfy the vanishing of the lower p-series
coefficients (m = 0..n-1), exposed by :func:`cf_residuals`, and the exact
congruence of :func:`thm71_check` ties all of it together.
"""
from __future__ import annotations

import json
from collections.abc import Iterable, Sequence
from functools import cached_property
from fractions import Fraction
from types import SimpleNamespace

from .cyclotomic import _kind_param, _theta_polynomial, _trace_preimage, _trace_table, _trace_total
from .errors import (
    BadParams,
    DuplicateResidues,
    GuardViolation,
    NonIntegralAtP,
    UnsupportedKind,
    ZeroWeight,
)
from .genus import (
    TRACE_KINDS,
    GenusSpec,
    ensure_order,
    make_genus,
    power_factor,
)
from .rings import (
    QQ,
    GradedPoly,
    GradedPolyModP,
    ModP,
    Rational,
    poly_reduce_mod_p,
    rational_reduce_mod_p,
    require_odd_prime,
)
from .series import Series, integer_numerators


ROUTES = ("pseries", "ab", "trace")


def reduce_value(x, p: int) -> ModP | GradedPolyModP:
    """Reduce an exact route value (Fraction or GradedPoly) mod p, or a sum given
    as ints (num, den): p is cancelled from both as far as it goes, and only if
    it still divides den is a Fraction built, to raise NonIntegralAtP on it."""
    if isinstance(x, GradedPoly):
        return poly_reduce_mod_p(x, p)
    if not isinstance(x, tuple):
        return rational_reduce_mod_p(x, p)
    num, den = x
    while not den % p:
        if num % p:
            return rational_reduce_mod_p(Fraction(num, den), p)
        num, den = num // p, den // p
    return ModP._of(num * pow(den, -1, p), p)


def canonical_weight(x: int, p: int) -> int:
    """Reduce a weight into [1, p-1]; weights divisible by p are rejected."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise BadParams(f"weights must be ints, got {x!r}")
    x %= p
    if x == 0:
        raise ZeroWeight(f"weight ≡ 0 mod p = {p} is not allowed")
    return x


def canonical_weights(weights: Iterable[int], p: int) -> tuple[int, ...]:
    return tuple(canonical_weight(x, p) for x in weights)


# ---------------------------------------------------------------------------
# Weight data containers and their JSON forms.
# ---------------------------------------------------------------------------


def _json_loads(text: str):
    """json.loads, with BadParams for text that is not JSON."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise BadParams(f"bad JSON: {exc}") from exc


class _Record:
    """A frozen record whose fields are its constructor's parameters, with the
    ==, hash and repr of a frozen dataclass over them, so that a query loads
    no ``dataclasses`` (nor the ``inspect`` and ``ast`` it imports)."""

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]

    def _fill(self, values: dict) -> None:
        """Set every field from the constructor's ``locals()``."""
        self.__dict__.update((f, values[f]) for f in self._fields)

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class WeightSet(_Record):
    """Fixed-point data: q points, each carrying n weights in [1, p-1]."""

    def __init__(self, p: int, n: int, points: tuple[tuple[int, ...], ...]):
        require_odd_prime(p)
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise BadParams(f"n must be an int >= 0, got {n!r}")
        pts = []
        for pt in points:
            pt = canonical_weights(pt, p)
            if len(pt) != n:
                raise BadParams(
                    f"each fixed point needs exactly n = {n} weights, got {len(pt)}"
                )
            pts.append(pt)
        self.__dict__.update(p=p, n=n, points=tuple(pts))

    @property
    def q(self) -> int:
        return len(self.points)

    @cached_property
    def distinct_points(self) -> dict:
        """Multiplicity per distinct fixed point, keyed by the point as given.
        Reorderings of one point's weights count apart: every route value is
        symmetric in them, so a sort per point would buy nothing.  Built once
        per set, read-only.  A plain dict counted with get, not a Counter, skips
        a __missing__ call per point.
        """
        counts = {}
        for pt in self.points:
            counts[pt] = counts.get(pt, 0) + 1
        return counts

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "fixed_points": [list(pt) for pt in self.points],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "WeightSet":
        try:
            p = d["p"]
            n = d["n"]
            pts = d["fixed_points"]
        except (KeyError, TypeError) as exc:
            raise BadParams(f"weight-set JSON needs keys p, n, fixed_points: {exc}") from exc
        if not isinstance(pts, list) or not all(isinstance(pt, list) for pt in pts):
            raise BadParams("fixed_points must be a list of lists of ints")
        return cls(p=p, n=n, points=tuple(tuple(pt) for pt in pts))

    @classmethod
    def from_json(cls, text: str) -> "WeightSet":
        return cls.from_json_dict(_json_loads(text))


class ResidueTuple(_Record):
    """Residues y_0..y_n, ints distinct mod p, defining a linear Z/p action on CP^n."""

    def __init__(self, p: int, residues: tuple[int, ...]):
        require_odd_prime(p)
        res = tuple(residues)
        if not res:
            raise BadParams("need at least one residue")
        seen = set()
        for y in res:
            if not isinstance(y, int) or isinstance(y, bool):
                raise BadParams(f"residues must be ints, got {y!r}")
            if y % p in seen:
                raise DuplicateResidues(f"residues must be distinct mod {p}; {y} repeats")
            seen.add(y % p)
        self.__dict__.update(p=p, residues=res)

    @property
    def n(self) -> int:
        return len(self.residues) - 1


def cpn_weight_set(rt: ResidueTuple) -> WeightSet:
    """The fixed-point weight set of the linear action: point j gets
    weights (y_i - y_j) mod p for i != j."""
    p = rt.p
    points = []
    for j, yj in enumerate(rt.residues):
        points.append(
            tuple((yi - yj) % p for i, yi in enumerate(rt.residues) if i != j)
        )
    return WeightSet(p=p, n=rt.n, points=tuple(points))


def canonical_residues(p: int, n: int) -> ResidueTuple:
    """The standard action with residues (0, 1, ..., n); needs n < p."""
    require_odd_prime(p)
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise BadParams(f"n must be an int >= 0, got {n!r}")
    if n >= p:
        raise BadParams(f"CP^{n} admits no effective linear Z/{p} action: n >= p")
    return ResidueTuple(p, tuple(range(n + 1)))


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


class SubmanifoldComponent(_Record):
    def __init__(self, normal_weights: tuple[int, ...], genus_value: Fraction):
        self._fill(locals())


class SubmanifoldData(_Record):
    """Fixed submanifold data: per component, normal weights and the genus value."""

    def __init__(self, p: int, components: tuple[SubmanifoldComponent, ...]):
        require_odd_prime(p)
        comps = tuple(
            SubmanifoldComponent(
                canonical_weights(c.normal_weights, p), _genus_value(c.genus_value)
            )
            for c in components
        )
        self.__dict__.update(p=p, components=comps)

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


# ---------------------------------------------------------------------------
# The series building blocks shared by the routes.
# ---------------------------------------------------------------------------


def a_series(g: GenusSpec, weights: Sequence[int], order: int) -> Series:
    """A(u) = prod_k u/[u]_{x_k} at the given order; empty product is 1.

    Each factor comes from the genus's cache (:func:`power_factor`), so a
    weight costs one product.  Weights are used literally as power-system
    indices (positive integers); congruent representatives give mod-p
    congruent final answers, which the tests pin against the trace route.
    """
    g = ensure_order(g, order + 1)
    acc = Series.one(g.ring, order)
    for x in weights:
        if not isinstance(x, int) or x < 1:
            raise BadParams(f"a_series weights must be ints >= 1, got {x!r}")
        acc = acc * power_factor(g, x, order)
    return acc


def p_power_factor(g: GenusSpec, p: int, order: int) -> Series:
    """p*u/[u]_p at the given order; its constant term is 1."""
    require_odd_prime(p)
    g = ensure_order(g, order + 1)
    return power_factor(g, p, order).scale(p)


_B_CACHE: dict = {}


def b_series(
    kind: str, p: int, order: int, y: Rational | int | None = None
) -> Series:
    """The trace generating series B(u) = sum_s Tr(theta^{-s}) u^s, over Q.

    B is the sum over the conjugates theta_i of 1/(1 - u/theta_i), which is
    ((p-1)P - uP')/P for the minimal polynomial P of theta; the coefficient
    of u^k in the numerator is (p-1-k) P_k, so P is read only through u^order.
    Euler's theta is 1, so its B is (p-1)/(1-u); elliptic and custom have no
    theta in Q(zeta_p) at all.
    """
    require_odd_prime(p)
    if kind not in TRACE_KINDS:
        raise UnsupportedKind(f"no B-series for genus kind {kind!r}")
    y = _kind_param(kind, p, y)
    key = (kind, y, p, order)
    cached = _B_CACHE.get(key)
    if cached is None:
        poly = Series(QQ, _theta_polynomial(kind, p, y, order), order)
        num = Series(QQ, [(p - 1 - k) * c for k, c in enumerate(poly.coeffs)])
        cached = _B_CACHE[key] = num.divide(poly)
    return cached


def ab_coefficient(g: GenusSpec, p: int, weights: Sequence[int]) -> Fraction:
    """Per-point coefficient-route value -<A(u) B(u)>_d, d = len(weights).

    Exact over Q; its residue mod p equals the trace-route value.  Read from
    :func:`_point_sums` on a one-point weight set, so A and B go to order d.
    For euler A has degree d and A(1) = 1, so the value is -(p-1) for any weights.
    """
    require_odd_prime(p)
    if g.kind not in TRACE_KINDS:
        raise UnsupportedKind(f"no coefficient route for genus kind {g.kind!r}")
    weights = canonical_weights(weights, p)
    return _point_sums(g, WeightSet(p, len(weights), (weights,)), "ab", [len(weights)])[0]


def p_series_term(g: GenusSpec, p: int, weights: Sequence[int], m: int):
    """<(p u/[u]_p) prod_k u/[u]_{x_k}>_m, exact in the coefficient ring."""
    require_odd_prime(p)
    if not isinstance(m, int) or m < 0:
        raise BadParams(f"coefficient index must be an int >= 0, got {m!r}")
    g = ensure_order(g, m + 1)
    prod = p_power_factor(g, p, m) * a_series(g, weights, m)
    return prod[m]


# ---------------------------------------------------------------------------
# The three routes and the Conner-Floyd residuals.
# ---------------------------------------------------------------------------


def _lead(g: GenusSpec, p: int, n: int, route: str) -> Series:
    """F, by which a series route multiplies each point's A: p u/[u]_p or -B;
    UnsupportedKind for -B of a kind without theta."""
    if route == "pseries":
        return p_power_factor(g, p, n)
    if g.kind not in TRACE_KINDS:
        raise UnsupportedKind(f"no coefficient route for genus kind {g.kind!r}")
    return b_series(g.kind, p, n, g.y).scale(-1)


def _point_sums(g: GenusSpec, w: WeightSet, route: str, ms: Iterable[int]) -> list:
    """sum_j k_j <F A_j>_m for m in ms, exact in the coefficient ring; j runs over
    ``w.distinct_points``, k_j is its multiplicity, A_j = prod u/[u]_x over its
    weights and F = :func:`_lead`.  Order n holds every coefficient read."""
    n = w.n
    lead = _lead(g, w.p, n, route)
    g = ensure_order(g, n + 1)
    prods = [(k, lead * a_series(g, pt, n)) for pt, k in w.distinct_points.items()]
    return [sum((a[m] * k for k, a in prods), g.ring.zero) for m in ms]


def _packed_residues(series: Series, t: SimpleNamespace) -> tuple:
    """(p^v series mod M, v), v = v_p of the series' denominator, packed by the
    ring map u -> 2^width of Z[u]/(u^(n+1)) onto Z with each slot in [0, M)."""
    nums, d = integer_numerators(series.coeffs)
    v = 0
    while not d % t.p:
        d, v = d // t.p, v + 1
    inv = pow(d, -1, t.M)
    return sum(c * inv % t.M << t.width * i for i, c in enumerate(nums)), v


def _residue_table(g: GenusSpec, p: int, n: int, route: str, points) -> SimpleNamespace:
    """g._tables[p, n], shared by pseries and ab, now with route's lead and the
    weights of points, through u^n mod M = p^e, e = 1 + n // (p - 1):
    packed[x] = u/[u]_x and leads[r] = (p^v F, v), F = :func:`_lead`; None
    where a factor is not p-integral or v >= e.  The width holds an n + 1 fold
    product of slots, so it is fixed by (p, n) and last, one set's
    :func:`_products`, outlives any packing."""
    t = g._tables.get((p, n))
    if t is None:
        M = p ** (1 + n // (p - 1))
        width = ((n + 1) ** n * (M - 1) ** (n + 1)).bit_length()
        t = g._tables[p, n] = SimpleNamespace(p=p, M=M, width=width, slot=(1 << width) - 1,
                                              mask=(1 << width * (n + 1)) - 1, packed={},
                                              leads={}, last=None)
    for x in {x for pt, _ in points for x in pt} - t.packed.keys():
        f, v = _packed_residues(power_factor(g, x, n), t)
        t.packed[x] = None if v else f
    if route not in t.leads:
        lead = _packed_residues(_lead(g, p, n, route), t)
        t.leads[route] = lead if p ** lead[1] < t.M else None
    return t


def _products(t: SimpleNamespace, points) -> list | None:
    """[(A_j mod M, k_j)] over points, A_j a point's packed factor product; None
    if a factor is not p-integral, KeyError on a weight the table t lacks."""
    packed, mask, prods = t.packed, t.mask, []
    for pt, k in points:
        acc = 1
        for x in pt:
            f = packed[x]
            if f is None:
                return None
            acc = acc * f & mask
        prods.append((acc, k))
    return prods


def _residues(g: GenusSpec, w: WeightSet, route: str, ms: Sequence[int]) -> list:
    """Each sum S of :func:`_point_sums` mod p, or the NonIntegralAtP it raises.
    Over QQ, s = sum_j k_j <p^v F A_j>_m mod M from the table is p^v S mod M:
    S is p-integral exactly when p^v divides s, and S ≡ s / p^v.  Where the
    table cannot tell (S or a factor not p-integral, or v >= e), and over
    other rings, the exact sum is reduced; so is ab of a kind without theta,
    for :func:`_lead` to refuse it before any order is checked."""
    n, p = w.n, w.p
    out = [None] * len(ms)
    if g.ring is QQ and (route == "pseries" or g.kind in TRACE_KINDS):
        g = ensure_order(g, n + 1)
        points = w.distinct_points.items()
        t = g._tables.get((p, n))
        if t is None or route not in t.leads:
            t = _residue_table(g, p, n, route, points)
        if t.last is None or t.last[0] is not w:
            try:
                t.last = (w, _products(t, points))
            except KeyError:
                t.last = (w, _products(_residue_table(g, p, n, route, points), points))
        lead, prods = t.leads[route], t.last[1]
        if lead is not None and prods is not None:
            (F, v), slot = lead, t.slot
            pv = p**v
            for i, m in enumerate(ms):  # one m on every genus_mod_p call
                shift = t.width * m
                s = sum(k * (F * acc >> shift & slot) for acc, k in prods) % t.M
                if not s % pv:
                    out[i] = ModP._of(s // pv, p)
    if None in out:
        exact = _point_sums(g, w, route, ms)
        for i, r in enumerate(out):
            if r is None:
                try:
                    out[i] = reduce_value(exact[i], p)
                except NonIntegralAtP as exc:
                    out[i] = exc
    return out


def _trace_sum(g: GenusSpec, w: WeightSet) -> tuple[int, int]:
    """The trace route's sum over fixed points as (num, den) ints, from the
    genus's trace table for (p, n), built on first use."""
    key = (w.p, w.n, "trace")
    if key not in g._tables:
        g._tables[key] = _trace_table(*_trace_preimage(g.kind, w.p, g.y), w.n)
    return _trace_total(w.p, g._tables[key], w.distinct_points.items())


def _route_total(g: GenusSpec, w: WeightSet, route: str):
    """The exact sum over fixed points of the chosen route's per-point value."""
    if route == "trace":
        return Fraction(*_trace_sum(g, w))
    return _point_sums(g, w, route, [w.n])[0]


def genus_mod_p(g: GenusSpec, w: WeightSet, route: str = "pseries") -> ModP | GradedPolyModP:
    """The genus of the ambient manifold mod p, by the chosen route.

    The per-point values are summed, each distinct point once times its
    multiplicity, and only the total is reduced: from residues mod p^e on the
    pseries and ab routes (:func:`_residues`), from (num, den) on the trace
    route (:func:`reduce_value`).  A non-p-integral total raises
    NonIntegralAtP, which for the pseries route flags non-realizable input data.
    """
    if route not in ROUTES:
        raise BadParams(f"route must be one of {ROUTES}, got {route!r}")
    if route == "trace":
        return reduce_value(_trace_sum(g, w), w.p)
    (r,) = _residues(g, w, route, [w.n])
    if isinstance(r, NonIntegralAtP):
        raise r
    return r


def cf_residuals(g: GenusSpec, w: WeightSet) -> list:
    """Summed p-series coefficients at m = 0..n-1, reduced mod p per slot.

    For weight data coming from an actual Z/p action these all vanish.  A
    slot whose exact sum is not p-integral carries the NonIntegralAtP
    exception instance instead of a residue, so one bad slot does not hide
    the others.
    """
    if w.n < 1:
        raise BadParams("cf_residuals needs n >= 1")
    return _residues(g, w, "pseries", range(w.n))


# ---------------------------------------------------------------------------
# The h-series and the combined congruence check.
# ---------------------------------------------------------------------------

def h_series(
    kind: str, p: int, order: int, y: Rational | int | None = None
) -> Series:
    """h(u) = p([u]_p - u)/(B(u)[u]_p) = p(1 - u/[u]_p)/B(u); h(0) = 1 and h is p-integral.

    u/[u]_p is the genus's cached :func:`power_factor`, so h costs one
    division by B.  Known closed forms: (1-u)(1+yu) for chi_y, so 1-u (todd),
    1-u^2 (l_genus) and (1-u)^2 (euler), and for a_hat
    cosh(((p+1)/2)t) cosh(t)/cosh(((p-1)/2)t), t = arcsinh(u/2).
    """
    require_odd_prime(p)
    if kind not in TRACE_KINDS:
        raise UnsupportedKind(f"no h-series for genus kind {kind!r}")
    yk = Fraction(y) if y is not None else None
    g = make_genus(kind, max(order + 1, 2), yk)
    num = (Series.one(QQ, order) - power_factor(g, p, order)).scale(p)
    return num.divide(b_series(kind, p, order, yk))


class Thm71Report(_Record):
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

    H_i are the coefficients of 1/h(u).  The congruence is guaranteed for
    n <= p-2; beyond that a GuardViolation is raised unless force=True, in
    which case the reduction itself may legitimately fail NonIntegralAtP.
    """
    if g.kind not in TRACE_KINDS:
        raise UnsupportedKind(f"thm71_check needs a B-series kind, got {g.kind!r}")
    n, p, q = w.n, w.p, w.q
    if n < 1:
        raise BadParams("thm71_check needs n >= 1")
    if n > p - 2 and not force:
        raise GuardViolation(
            f"n = {n} exceeds p-2 = {p - 2}; pass force=True to check anyway"
        )

    ab_sum = _route_total(g, w, "ab")
    sums = _point_sums(g, w, "pseries", range(n + 1))

    h_inv = h_series(g.kind, p, n, g.y).invert()
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


def submanifold_genus(g: GenusSpec, data: SubmanifoldData) -> ModP | GradedPolyModP:
    """phi(M) ≡ sum_nu ab_coefficient(normal weights of nu) * phi(M_nu) (mod p).

    Isolated fixed points have n normal weights and genus value 1, recovering
    the ab route; a trivial action (one component, no normal weights, value
    phi(M)) returns phi(M) mod p since ab(empty) = -(p-1) ≡ 1.
    """
    if g.kind not in TRACE_KINDS:
        raise UnsupportedKind(
            f"submanifold reduction needs the coefficient route; kind {g.kind!r} has none"
        )
    total = Fraction(0)
    for comp in data.components:
        total += ab_coefficient(g, data.p, comp.normal_weights) * comp.genus_value
    return rational_reduce_mod_p(total, data.p)
