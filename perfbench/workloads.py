"""Workload inputs and output oracles for the zpgenus benchmark.

Two workloads:

* ``cold_cli``: a CLI user asking one question per process.  Every op is a
  fresh ``python -m zpgenus <verb> ... --format json`` interpreter; children
  run one at a time.  Genus construction and series revert/compose dominate.
* ``sweep_warm``: a library user in one long-lived process running many
  realizable weight sets through all three routes for four fixed (genus, p)
  pairs.  Construction sits in set-up, so timed ops measure per-point route
  cost with warm caches.

The *shape* of each op (verb, genus, p, n, route; or the component
structure of a weight set) comes from fixed tables, so that every seed asks
for the same amount of work; the seed draws the residues, the chi_y
parameters and hence every weight.  Expected values come from closed forms
computed here in Fractions, never from the route code.
"""
from __future__ import annotations

import json
import random
from fractions import Fraction
from math import comb

ROUTES = ("pseries", "ab", "trace")

# chi_y parameters: p-integral with 1 + y a unit for every p >= 5, and of
# similar height so that the draw does not change the cost of a run much.
Y_CHOICES = tuple(Fraction(y) for y in ("2", "-2", "3", "-3", "1/2", "-1/2", "1/3", "-1/3"))

CLI_NAME = {"todd": "td", "euler": "euler", "l_genus": "L", "a_hat": "ahat"}


# ---------------------------------------------------------------------------
# Closed forms (README catalog table), in Fractions.
# ---------------------------------------------------------------------------


def cpn_value(kind: str, n: int, y: Fraction | None = None) -> Fraction:
    """The genus of CP^n."""
    if kind == "todd":
        return Fraction(1)
    if kind == "euler":
        return Fraction(n + 1)
    if kind == "l_genus":
        return Fraction(1 - n % 2)
    if kind == "chi_y":
        return (1 + (-1) ** n * y ** (n + 1)) / (1 + y)
    if kind == "a_hat":
        # <(1 + u^2/4)^{-1/2}>_n = binom(-1/2, n/2) / 4^(n/2) for even n
        if n % 2:
            return Fraction(0)
        value = Fraction(1)
        for i in range(n // 2):
            value *= (Fraction(-1, 2) - i) / (i + 1) / 4
        return value
    raise ValueError(f"no closed form for {kind!r}")


def mod_p(x: Fraction, p: int) -> int:
    return x.numerator * pow(x.denominator, -1, p) % p


def legendre_text(m: int, p: int) -> str:
    """P_m(t), homogenized (t^a -> delta^a eps^((m-a)/2)), mod p, as the CLI prints it.

    P_m(t) = 2^-m sum_k (-1)^k C(m,k) C(2m-2k,m) t^(m-2k).  All terms have the
    same weighted degree, so they print by descending delta exponent.
    """
    terms = []
    for k in range(m // 2 + 1):
        c = mod_p(Fraction((-1) ** k * comb(m, k) * comb(2 * m - 2 * k, m), 2**m), p)
        if c:
            a = m - 2 * k
            parts = [str(c)]
            if a:
                parts.append("delta" if a == 1 else f"delta^{a}")
            if k:
                parts.append("eps" if k == 1 else f"eps^{k}")
            terms.append("*".join(parts))
    return " + ".join(terms) if terms else "0"


def cpn_points(residues, p: int):
    """Fixed-point weights of the linear action on CP^n with these residues."""
    return [
        tuple((yi - yj) % p for i, yi in enumerate(residues) if i != j)
        for j, yj in enumerate(residues)
    ]


def repeated_points(points) -> int:
    """How many points repeat the weight multiset of an earlier point."""
    return len(points) - len({tuple(sorted(pt)) for pt in points})


# ---------------------------------------------------------------------------
# cold_cli
# ---------------------------------------------------------------------------

# (verb, route, kind, p, n).  HEAD runs once at the start of every run: the
# p = 31 and p = 47 tail, placed where a run always reaches it so that each
# run holds the same tail.  LIGHT is cycled until the run's time is up, in
# this fixed interleaved order so that any prefix has a similar mix.
COLD_HEAD = (
    ("compute", "trace", "todd", 47, 1),
    ("compute", "all", "chi_y", 31, 1),
)
COLD_LIGHT = (
    ("compute", "all", "todd", 7, 2),
    ("compute", "all", "chi_y", 11, 3),
    ("cf-check", None, "todd", 13, 2),
    ("compute", "all", "l_genus", 7, 4),
    ("compute", "trace", "a_hat", 17, 3),
    ("compute", "all", "euler", 11, 1),
    ("thm71", None, "chi_y", 7, 3),
    ("compute", "all", "a_hat", 13, 4),
    ("legendre45", None, "elliptic", 7, 2),
    ("compute", "all", "todd", 19, 2),
    ("compute", "pseries", "l_genus", 11, 3),
    ("compute", "all", "chi_y", 7, 1),
    ("cf-check", None, "a_hat", 11, 4),
    ("compute", "all", "l_genus", 13, 2),
    ("compute", "ab", "todd", 7, 3),
    ("compute", "all", "euler", 17, 2),
    ("thm71", None, "todd", 11, 2),
    ("compute", "all", "chi_y", 13, 2),
    ("legendre46", None, "elliptic", 11, 10),
    ("compute", "all", "a_hat", 7, 2),
    ("compute", "trace", "chi_y", 11, 2),
    ("compute", "all", "todd", 11, 4),
    ("cf-check", None, "l_genus", 7, 3),
    ("compute", "all", "l_genus", 23, 1),
    ("compute", "all", "todd", 13, 3),
    ("compute", "pseries", "euler", 7, 4),
    ("thm71", None, "a_hat", 13, 2),
    ("compute", "all", "chi_y", 17, 1),
    ("compute", "all", "euler", 7, 3),
    ("legendre45", None, "elliptic", 7, 4),
    ("compute", "all", "a_hat", 11, 1),
    ("compute", "trace", "todd", 13, 4),
    ("cf-check", None, "chi_y", 11, 2),
    ("compute", "all", "l_genus", 11, 2),
    ("compute", "all", "todd", 7, 1),
    ("thm71", None, "l_genus", 19, 1),
    ("compute", "all", "chi_y", 7, 4),
    ("compute", "ab", "a_hat", 19, 2),
    ("compute", "all", "euler", 13, 1),
    ("legendre46", None, "elliptic", 7, 6),
    ("compute", "all", "a_hat", 17, 3),
    ("compute", "all", "todd", 11, 1),
    ("cf-check", None, "euler", 11, 2),
    ("compute", "all", "l_genus", 17, 4),
    ("compute", "pseries", "chi_y", 13, 1),
    ("compute", "all", "todd", 23, 1),
    ("legendre45", None, "elliptic", 13, 2),
    ("compute", "all", "chi_y", 11, 2),
)


def cold_ops(seed: int, count: int):
    """HEAD, then LIGHT cycled, to ``count`` ops; each op is a dict with its argv."""
    rng = random.Random(seed)
    ops = []
    for i in range(count):
        row = COLD_HEAD[i] if i < len(COLD_HEAD) else COLD_LIGHT[(i - len(COLD_HEAD)) % len(COLD_LIGHT)]
        ops.append(_cold_op(rng, *row))
    return ops


def _cold_op(rng, verb, route, kind, p, n):
    op = {"verb": verb, "route": route, "kind": kind, "p": p, "n": n, "y": None}
    if verb == "legendre45":
        op["argv"] = ["legendre", "--p", str(p), "--n", str(n)]
        op["q"] = n + 1
    elif verb == "legendre46":
        op["argv"] = ["legendre", "--p", str(p)]
        op["q"] = 1  # one point with weights 1..p-1, so n is p-1
    else:
        if kind == "chi_y":
            op["y"] = rng.choice(Y_CHOICES)
            name = f"chi_y:{op['y']}"
        else:
            name = CLI_NAME[kind]
        residues = rng.sample(range(p), n + 1)
        op["argv"] = [verb, "--genus", name, "--p", str(p),
                      "--residues", ",".join(map(str, residues))]
        if route is not None:
            op["argv"] += ["--route", route]
        op["q"] = n + 1
        op["repeats"] = repeated_points(cpn_points(residues, p))
    op["argv"] += ["--format", "json"]
    return op


def check_cold(op, returncode: int, stdout: str, stderr: str):
    """Failure messages for one CLI op (empty when the output is right)."""
    if returncode != 0:
        return [f"exit code {returncode}: {stderr.strip()[-300:]}"]
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON ({exc})"]
    verb, p, n = op["verb"], op["p"], op["n"]
    bad = []

    def want(key, value):
        if out.get(key) != value:
            bad.append(f"{key} = {out.get(key)!r}, expected {value!r}")

    if verb in ("legendre45", "legendre46"):
        m = n // 2 if verb == "legendre45" else (p - 1) // 2
        leg = legendre_text(m, p)
        want("legendre_value", leg)
        if verb == "legendre45":
            want("check", "projective")
            want("pseries_value", leg)
            for flag in ("equal", "cpn_matches"):
                want(flag, True)
        else:
            want("check", "power-system")
            want("scaled_term", leg)
            for flag in ("equal", "power_system_matches", "low_coeffs_vanish", "eps_one_equal"):
                want(flag, True)
        return bad

    expected = mod_p(cpn_value(op["kind"], n, op["y"]), p)
    if verb == "compute":
        want("result", str(expected))
        if op["route"] == "all":
            want("results", {r: str(expected) for r in ROUTES})
            want("agree", True)
    elif verb == "cf-check":
        want("all_zero", True)
        residuals = [slot.get("residual") for slot in out.get("residuals", [])]
        if residuals != ["0"] * n:
            bad.append(f"residuals {residuals}, expected {n} zeros")
    elif verb == "thm71":
        # realizable data with n <= p-2: both sides are the genus mod p
        want("equal", True)
        want("lhs_mod_p", expected)
        want("rhs_mod_p", expected)
    return bad


# ---------------------------------------------------------------------------
# sweep_warm
# ---------------------------------------------------------------------------

SWEEP_PAIRS = (("todd", 17), ("chi_y", 13), ("l_genus", 23), ("a_hat", 11))
SWEEP_NS = (2, 3, 4, 5)
SWEEP_MAX_N = max(SWEEP_NS)
# One cycle of the shape table: 4 pairs x 4 dimensions x 4 draws.  A run times
# whole cycles, so every run sees the same shapes in the same proportions
# whatever its speed; only the residues change between cycles and seeds.
SWEEP_SHAPES = 64
# Every shape's estimated cost (see sweep_cost) lies in this band, so that op
# times are of one order and p50/p90 move little with the residues a seed
# draws.  Smaller n gets more or repeated components; n = 1 cannot reach the
# band within three components and is left out.
SWEEP_COST_BAND = (6000, 28000)
# weight sets made in set-up (60 cycles); a run that uses them all ends early
SWEEP_INPUTS = 60 * SWEEP_SHAPES


def sweep_cost(p: int, n: int, comps) -> int:
    """Estimated op cost: points x n x (series order)^2."""
    q = sum(k * (a + 1) * (b + 1) for a, b, k in comps)
    return q * n * (n + p + 2) ** 2


def sweep_shapes():
    """The fixed shape table: (pair index, n, [(a, b, k), ...]).

    Each component is CP^a x CP^b (a + b = n) repeated k times; shapes cycle
    through the pairs and through SWEEP_NS.  A union of 1-3 components is
    drawn until its cost lies in SWEEP_COST_BAND.  Drawn once from a
    constant, not from the run's seed.
    """
    rng = random.Random(20260917)
    shapes = []
    for i in range(SWEEP_SHAPES):
        pair = i % len(SWEEP_PAIRS)
        n = SWEEP_NS[(i // len(SWEEP_PAIRS)) % len(SWEEP_NS)]
        p = SWEEP_PAIRS[pair][1]
        while True:
            comps = []
            for _ in range(rng.choice((1, 2, 3))):
                b = rng.randint(0, n // 2)
                comps.append((n - b, b, rng.choice((1, 1, 2, 3))))
            if SWEEP_COST_BAND[0] <= sweep_cost(p, n, comps) <= SWEEP_COST_BAND[1]:
                break
        shapes.append((pair, n, comps))
    return shapes


def sweep_manifold(rng, p: int, n: int, comps):
    """Points of a disjoint union of products CP^a x CP^b, each taken k times.

    A point of CP^a x CP^b is a pair of points; its weights are theirs,
    concatenated.
    """
    points = []
    for a, b, k in comps:
        left = cpn_points(rng.sample(range(p), a + 1), p)
        right = cpn_points(rng.sample(range(p), b + 1), p)
        prod = [pa + pb for pa in left for pb in right]
        points += prod * k
    return points


def sweep_expected(kind: str, y, p: int, comps) -> int:
    """Additivity over the union, multiplicativity over each product."""
    total = sum(k * cpn_value(kind, a, y) * cpn_value(kind, b, y) for a, b, k in comps)
    return mod_p(total, p)


class Sweep:
    """The sweep_warm state: genera, inputs, and the op that is timed."""

    def __init__(self, zp, seed: int, count: int):
        self.zp = zp
        self.seed = seed
        self.count = count
        self.genera = []
        self.ops = []
        self.failures = []  # of the warm-up pass

    def setup(self):
        """Make the inputs, build every genus, and run one warm-up pass."""
        zp = self.zp
        rng = random.Random(self.seed)
        ys = {kind: rng.choice(Y_CHOICES) if kind == "chi_y" else None for kind, _ in SWEEP_PAIRS}
        shapes = sweep_shapes()
        self.ops = []
        for i in range(self.count):
            pair, n, comps = shapes[i % len(shapes)]
            kind, p = SWEEP_PAIRS[pair]
            points = sweep_manifold(rng, p, n, comps)
            self.ops.append({
                "pair": pair, "p": p, "n": n, "q": len(points),
                "repeats": repeated_points(points),
                "w": zp.WeightSet(p=p, n=n, points=tuple(points)),
                "expected": str(sweep_expected(kind, ys[kind], p, comps)),
            })
        # the order the CLI builds for the largest n in the mix
        self.genera = [
            zp.make_genus(kind, SWEEP_MAX_N + p + 3, ys[kind]) for kind, p in SWEEP_PAIRS
        ]
        # Power systems are built lazily: warm every weight 1..p-1 and each route.
        wrng = random.Random(f"warm-up-{self.seed}")
        n = SWEEP_MAX_N
        comps = [(n, 0, 1)]
        for pair, (kind, p) in enumerate(SWEEP_PAIRS):
            seen = set()
            while len(seen) < p - 1:
                points = sweep_manifold(wrng, p, n, comps)
                seen.update(x for pt in points for x in pt)
                op = {"pair": pair, "p": p, "n": n, "w": zp.WeightSet(p=p, n=n, points=tuple(points)),
                      "expected": str(sweep_expected(kind, ys[kind], p, comps))}
                self.failures += self.check(op, self.run(op))

    def run(self, op):
        g = self.genera[op["pair"]]
        return [self.zp.genus_mod_p(g, op["w"], route) for route in ROUTES]

    def check(self, op, values):
        """Failure messages for one op's three route values (empty when right)."""
        values = [str(v) for v in values]
        bad = []
        if values[1] != values[2]:
            bad.append(f"ab {values[1]} != trace {values[2]}")
        for route, v in zip(ROUTES, values):
            if v != op["expected"]:
                bad.append(f"{route} = {v}, expected {op['expected']}")
        return bad
