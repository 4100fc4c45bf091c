"""Exhaustive small worlds: every weight multiset of a few small (p, n, q) grids.

At small p, n and q the input space is finite: every multiset of at most q
points, each a multiset of n weights in [1, p - 1].  On all of it, a set that
passes the Conner-Floyd check (every residual 0 and a p-integral pseries total)
gets three routes that answer and agree, and the thm71 congruence holds for
n <= p - 2.  The counts of sets, of cf-passing sets and of sets whose three
routes answer and agree are pinned per grid, so a change that moves any verdict
shows.  The (5, 4) grid has n = p - 1, where the sums mod p are read off the
exact sums and not off the residue table.  Each grid's largest q keeps the file
near 2 s, most of it in the exact sums of thm71_check.
"""
from fractions import Fraction as F
from itertools import combinations_with_replacement

import pytest

from zpgenus import WeightSet, cf_residuals, genus_mod_p, make_genus, thm71_check
from zpgenus.engine import ROUTES
from zpgenus.errors import EngineError

# (kind, y, p, n, largest q): (sets, cf-passing sets, sets whose routes agree)
GRIDS = {
    ("todd", None, 5, 2, 4): (1000, 36, 195),
    ("l_genus", None, 5, 2, 3): (285, 55, 55),
    ("chi_y", F(2), 5, 2, 3): (285, 7, 52),
    ("todd", None, 5, 3, 2): (230, 2, 51),
    ("todd", None, 7, 2, 3): (2023, 37, 284),
    ("todd", None, 5, 4, 2): (665, 8, 48),
    ("a_hat", None, 7, 3, 2): (1652, 82, 1652),
}


def _answer(g, w, route):
    try:
        return genus_mod_p(g, w, route)
    except EngineError:
        return None


@pytest.mark.parametrize("grid", GRIDS, ids=lambda grid: "-".join(map(str, grid)))
def test_every_cf_passing_set_has_three_agreeing_routes(grid):
    kind, y, p, n, largest_q = grid
    g = make_genus(kind, n + 1, y)
    points = list(combinations_with_replacement(range(1, p), n))
    sets = cf_passing = agreeing = 0
    for q in range(1, largest_q + 1):
        for pts in combinations_with_replacement(points, q):
            w = WeightSet(p, n, pts)
            values = [_answer(g, w, route) for route in ROUTES]
            agree = None not in values and len(set(values)) == 1
            passes = values[0] is not None and all(
                not isinstance(r, EngineError) and r.is_zero() for r in cf_residuals(g, w))
            if passes:
                assert agree, (grid, pts, values)
            if n <= p - 2:
                assert thm71_check(g, w).equal, (grid, pts)
            sets += 1
            cf_passing += passes
            agreeing += agree
    assert (sets, cf_passing, agreeing) == GRIDS[grid]
