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

pseries and ab are read, exactly, in the coordinate u = f(z), as Res_u F du =
Res_z F(f(z)) f'(z) dz: with q(z) = z/f(z), u/[u]_x is q(xz)/(x q(z)), so for
S = sum_j k_j A_j over the distinct points, A_j = prod_k q(x_k z)/x_k, pseries
slot m is [z^m] f'(z) q(pz) (f(z)/z)^(n-m) S and ab is -[z^n] B(f(z)) f'(z) q(z) S.
Over Q the sums mod p are read from a memoized table of residues mod p per
(genus, p, n), which also keeps the last set's products; the exact sums (a lead
times S, all through :func:`_point_sums`) serve the rest.

Realizable weight sets also satisfy the vanishing of the lower p-series
coefficients (m = 0..n-1), exposed by :func:`cf_residuals`, and the exact
congruence of :func:`~zpgenus.checks.thm71_check` ties all of it together.
That and the other exact checks live in :mod:`zpgenus.checks`.
"""
from __future__ import annotations

import json
from functools import lru_cache
from fractions import Fraction
from types import SimpleNamespace

from .cyclotomic import _kind_param, _route_table, _theta_polynomial, _trace_total
from .errors import BadParams, DuplicateResidues, NonIntegralAtP
from .genus import TRACE_KINDS, GenusSpec, ensure_order, require_theta
from .rings import (MEMO_SIZE, QQ, ModP, Rational, _Frozen, canonical_weights, keep_factor,
                    rational_reduce_mod_p, require_int, require_odd_prime)
from .series import Series, integer_numerators


ROUTES = ("pseries", "ab", "trace")
_last_set = None  # (w, w.distinct_points) of the last set asked, by identity: a one-entry memo


def reduce_value(x, p: int) -> _Frozen:
    """Reduce an exact route value mod p, a Fraction to a ModP and a GradedPoly to a
    GradedPolyModP (annotated by their base, as this module does not load graded), or a sum given
    as ints (num, den): p is cancelled from both as far as it goes, and only if
    it still divides den is a Fraction built, to raise NonIntegralAtP on it."""
    if isinstance(x, (int, Fraction)):
        return rational_reduce_mod_p(x, p)
    if not isinstance(x, tuple):
        from .graded import poly_reduce_mod_p

        return poly_reduce_mod_p(x, p)
    num, den = x
    while not den % p:
        if num % p:
            return rational_reduce_mod_p(Fraction(num, den), p)
        num, den = num // p, den // p
    return ModP._of(num * pow(den, -1, p), p)


# ---------------------------------------------------------------------------
# Weight data containers and their JSON forms.
# ---------------------------------------------------------------------------


def _json_loads(text: str):
    """json.loads, with BadParams for text that is not JSON."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise BadParams(f"bad JSON: {exc}") from exc


class WeightSet(_Frozen):
    """Fixed-point data: q points, each carrying n weights in [1, p-1].

    The set keeps ``weights``, one flat tuple of the q*n canonical weights in
    point order, and no tuple per point: a point that is a plain tuple of n plain
    ints in [1, p-1] is taken as given, any other is canonicalized.  Its fields
    (==, hash, repr, pickle) are p, n and ``points``, which is rebuilt on each read.
    """

    __slots__ = ("p", "n", "q", "weights")

    def __init__(self, p: int, n: int, points: tuple[tuple[int, ...], ...]):
        require_odd_prime(p)
        require_int(n, "n", 0)
        weights, q = [], 0
        for q, pt in enumerate(points, 1):
            if not (type(pt) is tuple and len(pt) == n
                    and all(type(x) is int and 0 < x < p for x in pt)):
                pt = canonical_weights(pt, p)
                if len(pt) != n:
                    raise BadParams(
                        f"each fixed point needs exactly n = {n} weights, got {len(pt)}"
                    )
            weights += pt
        weights = tuple(weights)
        self._fill(locals(), self.__slots__)

    @property
    def points(self) -> tuple:
        """The q points, each the next n of ``weights``."""
        n = self.n
        return tuple(zip(*[iter(self.weights)] * n)) if n else ((),) * self.q

    @property
    def distinct_points(self) -> dict:
        """Multiplicity per distinct fixed point, keyed by its n-slice of ``weights``,
        in the order given (every route value is symmetric in a point's weights, so a
        sort would buy nothing).  Read-only, kept for the last set asked only
        (``_last_set``): a set's routes count its points once and the set keeps nothing.
        A plain dict counted with get, not a Counter, skips a __missing__ call per point."""
        global _last_set
        last = _last_set
        if last is None or last[0] is not self:
            counts, n = {}, self.n
            for pt in zip(*[iter(self.weights)] * n) if n else self.points:
                counts[pt] = counts.get(pt, 0) + 1
            last = _last_set = (self, counts)
        return last[1]

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


class ResidueTuple(_Frozen):
    """Residues y_0..y_n, ints distinct mod p, defining a linear Z/p action on CP^n."""

    def __init__(self, p: int, residues: tuple[int, ...]):
        require_odd_prime(p)
        residues = tuple(residues)
        if not residues:
            raise BadParams("need at least one residue")
        seen = set()
        for y in residues:
            if require_int(y, "residue") % p in seen:
                raise DuplicateResidues(f"residues must be distinct mod {p}; {y} repeats")
            seen.add(y % p)
        self._fill(locals())

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
    if require_int(n, "n", 0) >= p:
        raise BadParams(f"CP^{n} admits no effective linear Z/{p} action: n >= p")
    return ResidueTuple(p, tuple(range(n + 1)))


# ---------------------------------------------------------------------------
# The series building blocks shared by the routes.
# ---------------------------------------------------------------------------


def b_series(
    kind: str, p: int, order: int, y: Rational | int | None = None
) -> Series:
    """The trace generating series B(u) = sum_s Tr(theta^{-s}) u^s, over Q.

    B is the sum over the conjugates theta_i of 1/(1 - u/theta_i), which is
    ((p-1)P - uP')/P for the minimal polynomial P of theta; the coefficient
    of u^k in the numerator is (p-1-k) P_k, so P is read only through u^order.
    Euler's theta is 1, so its B is (p-1)/(1-u); elliptic and custom have no
    theta in Q(zeta_p) at all (``require_theta``).  The order must be an int >= 0.
    Memoized in an lru_cache of MEMO_SIZE entries.
    """
    require_odd_prime(p)
    require_theta(kind)
    return _b_series(kind, _kind_param(kind, p, y), p, require_int(order, "order", 0))


@lru_cache(maxsize=MEMO_SIZE)
def _b_series(kind: str, y: Fraction | None, p: int, order: int) -> Series:
    poly = Series(QQ, _theta_polynomial(kind, p, y, order), order)
    num = Series(QQ, [(p - 1 - k) * c for k, c in enumerate(poly.coeffs)])
    return num.divide(poly)


@lru_cache(maxsize=MEMO_SIZE)
def _q(g: GenusSpec, n: int) -> Series:
    """q(z) = z/f(z) through z^n, from g at order n + 1, memoized per (g, n)."""
    return ensure_order(g, n + 1).f_series.truncate(n + 1).shift_down(1).invert()


def _factor(q: Series, x: int) -> Series:
    """q(xz)/x, which is q(z) u/[u]_x at u = f(z): coefficient j is q_j x^(j-1)."""
    c0, *rest = q.coeffs
    return Series(q.ring, [c0 * Fraction(1, x)] + [c * x**j for j, c in enumerate(rest)])


# ---------------------------------------------------------------------------
# The three routes and the Conner-Floyd residuals.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=MEMO_SIZE)
def _leads(g: GenusSpec, p: int, n: int, route: str, ms: tuple | range) -> tuple:
    """(L_m for m in ms), m <= n, through z^max(ms), memoized: slot m of a series
    route is [z^m] L_m S, S of :func:`_a_sum`, with L_m = base f'(z) (f(z)/z)^(n-m)
    and base q(pz) for pseries, -B(f(z)) q(z) for ab (one compose).
    UnsupportedKind for ab of a kind without theta, before any order is checked."""
    if route != "pseries":
        require_theta(g.kind)
    order = max(ms, default=0)
    f = ensure_order(g, order + 1).f_series.truncate(order + 1)
    f_z = f.shift_down(1)
    q = _q(g, order)
    if route == "pseries":
        base = _factor(q, p).scale(p)
    else:
        base = -(b_series(g.kind, p, order, g.y).compose(f) * q)
    leads = {n: base * f.differentiate()}
    for m in range(n - 1, min(ms, default=n) - 1, -1):
        leads[m] = leads[m + 1] * f_z
    return tuple(leads[m] for m in ms)


def _a_sum(g: GenusSpec, points, n: int) -> Series:
    """S = sum_j k_j A_j through z^n over ``points``, pairs of a point j (its
    weights, used literally) and its multiplicity k_j: A_j = prod q(xz)/x over
    its weights, started from its first factor; each factor is built once."""
    q = _q(g, n)
    factors = {x: _factor(q, x) for x in {x for pt, _ in points for x in pt}}
    total = Series.zero(q.ring, n)
    for pt, k in points:
        acc = factors[pt[0]] if pt else Series.one(q.ring, n)
        for x in pt[1:]:
            acc = acc * factors[x]
        total = total + acc.scale(k)
    return total


def _point_sums(g: GenusSpec, p: int, n: int, route: str, ms: tuple | range, points, total=None):
    """The one exact entry point: each slot m <= n in ms of a series route, [z^m] L_m S
    exact, with L_m of :func:`_leads` and S = ``total`` or :func:`_a_sum` of ``points``."""
    leads = _leads(g, p, n, route, ms)
    total = _a_sum(g, points, max(ms, default=0)) if total is None else total
    return [(lead * total)[m] for lead, m in zip(leads, ms)]


def _packed(series: Series, t: SimpleNamespace, x: int = 1) -> int | None:
    """series(xz)/x over QQ mod p as one int, by the ring map z -> 2^width with
    each slot in [0, p); None if a coefficient is not p-integral."""
    nums, d = integer_numerators(series.coeffs)
    if not d % t.p:
        return None
    inv = pow(d * x, -1, t.p)
    return sum(c * inv * pow(x, j, t.p) % t.p << t.width * j for j, c in enumerate(nums))


@lru_cache(maxsize=MEMO_SIZE)
def _residue_table(g: GenusSpec, p: int, n: int) -> SimpleNamespace:
    """The residues mod p through z^n of pseries and ab, memoized: packed[x] = q(xz)/x
    on first use of x that fits (:func:`_products`) and leads[route] = [L_0, ..., L_n] on first
    use of route (:func:`_residues`), None where not p-integral (n >= p - 1, or p in
    y's denominator).  The width holds an n + 1 fold product of slots, so it is
    fixed by (p, n) and last, one set's :func:`_products`, outlives any packing."""
    width = ((n + 1) ** n * (p - 1) ** (n + 1)).bit_length()
    return SimpleNamespace(p=p, width=width, slot=(1 << width) - 1, mask=(1 << width * (n + 1)) - 1,
                           q=_q(g, n), packed={}, leads={}, last=None)


def _products(t: SimpleNamespace, points) -> list | None:
    """[(A_j mod p, k_j)] over points, A_j a point's packed factor product, with
    a weight t lacks packed first (:func:`~zpgenus.rings.keep_factor` keeps it); None
    if a factor is not p-integral."""
    packed, mask, prods = t.packed, t.mask, []
    for pt, k in points:
        acc = 1
        for x in pt:
            try:
                f = packed[x]
            except KeyError:
                f = keep_factor(packed, x, _packed(t.q, t, x))
            if f is None:
                return None
            acc = acc * f & mask
        prods.append((acc, k))
    return prods


def _residues(g: GenusSpec, w: WeightSet, route: str, ms: tuple | range) -> list:
    """Each sum of :func:`_point_sums` mod p, or the NonIntegralAtP it raises:
    over QQ read off the table where its entries are p-integral; elsewhere,
    over other rings, and for ab of a kind without theta (for :func:`_leads`
    to refuse it before any order is checked) the exact sum is reduced."""
    n, p = w.n, w.p
    out = [None] * len(ms)
    if g.ring is QQ and (route == "pseries" or g.kind in TRACE_KINDS):
        t = _residue_table(g, p, n)
        leads = t.leads.get(route)
        if leads is None:
            leads = t.leads[route] = [_packed(s, t) for s in _leads(g, p, n, route, range(n + 1))]
        if t.last is None or t.last[0] is not w:
            t.last = (w, _products(t, w.distinct_points.items()))
        prods, slot = t.last[1], t.slot
        if prods is not None:
            for i, m in enumerate(ms):  # one m on every genus_mod_p call
                lead, shift = leads[m], t.width * m
                if lead is not None:
                    out[i] = ModP._of(sum(k * (lead * acc >> shift & slot)
                                          for acc, k in prods), p)
    if None in out:
        exact = _point_sums(g, p, n, route, ms, w.distinct_points.items())
        for i, r in enumerate(out):
            if r is None:
                try:
                    out[i] = reduce_value(exact[i], p)
                except NonIntegralAtP as exc:
                    out[i] = exc
    return out


def _trace_sum(g: GenusSpec, w: WeightSet) -> tuple[int, int]:
    """The trace route's sum over fixed points as (num, den) ints, off its memoized table."""
    return _trace_total(w.p, _route_table(g.kind, g.y, w.p, w.n), w.distinct_points.items())


def _route_total(g: GenusSpec, w: WeightSet, route: str):
    """The exact sum over fixed points of the chosen route's per-point value."""
    if route == "trace":
        return Fraction(*_trace_sum(g, w))
    return _point_sums(g, w.p, w.n, route, (w.n,), w.distinct_points.items())[0]


def genus_mod_p(g: GenusSpec, w: WeightSet, route: str = "pseries") -> _Frozen:
    """The genus of the ambient manifold mod p, by the chosen route: a ModP, a
    GradedPolyModP over Q[delta, eps].

    The per-point values are summed, each distinct point once times its
    multiplicity, and only the total is reduced: from residues mod p on the
    pseries and ab routes (:func:`_residues`), from (num, den) on the trace
    route (:func:`reduce_value`).  A non-p-integral total raises
    NonIntegralAtP, which for the pseries route flags non-realizable input data.
    """
    if route not in ROUTES:
        raise BadParams(f"route must be one of {ROUTES}, got {route!r}")
    if route == "trace":
        return reduce_value(_trace_sum(g, w), w.p)
    (r,) = _residues(g, w, route, (w.n,))
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

