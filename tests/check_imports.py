"""Check that a CLI query imports only what it runs.

``import zpgenus.cli`` must load no ``dataclasses``, ``inspect`` or ``typing``,
and a ``compute`` query neither the graded ring ``zpgenus.graded``, the exact
checks ``zpgenus.checks``, the ``zpgenus.selftest`` battery nor the Legendre
checks of ``zpgenus.cpn``: those load on first use of their names, which
resolve to the same objects from every module that used to hold them.  Run it
with ``python -S``, since a site hook may import ``typing`` before any user
code, and with the package on PYTHONPATH: the ``src`` directory of a checkout,
or the site-packages of an installed copy::

    PYTHONPATH=src python -S tests/check_imports.py

It prints ``ok`` and the file of the package it checked, or exits non-zero.
"""
import contextlib
import io
import sys

import zpgenus.cli

loaded = [m for m in ("dataclasses", "inspect", "typing", "zpgenus.cpn") if m in sys.modules]
if loaded:
    sys.exit(f"import zpgenus.cli loaded {loaded}")

with contextlib.redirect_stdout(io.StringIO()) as out:
    code = zpgenus.cli.main(["compute", "--genus", "td", "--p", "5", "--residues", "0,1,2"])
if code != 0 or "result: 1" not in out.getvalue():
    sys.exit(f"the compute query exited {code}: {out.getvalue()!r}")
ON_DEMAND = ("graded", "checks", "selftest", "cpn")
loaded = [m for m in ON_DEMAND if f"zpgenus.{m}" in sys.modules]
if loaded:
    sys.exit(f"a compute query loaded {loaded}")

import zpgenus  # noqa: E402
from zpgenus import engine, rings  # noqa: E402

if not {"check_eq45", "Eq46Report", "legendre_value"} <= set(dir(zpgenus)):
    sys.exit("dir(zpgenus) misses the Legendre names")
check = zpgenus.check_eq45
if "zpgenus.cpn" not in sys.modules or vars(zpgenus).get("check_eq45") is not check:
    sys.exit("zpgenus.check_eq45 did not load zpgenus.cpn into a plain package attribute")

from zpgenus.cpn import ResidueTuple, canonical_residues, cpn_weight_set  # noqa: E402

if (ResidueTuple, canonical_residues, cpn_weight_set) != (
    engine.ResidueTuple, engine.canonical_residues, engine.cpn_weight_set
):
    sys.exit("zpgenus.cpn does not re-export the engine's CP^n builder")

# every moved name, from the module that holds it now and from each old path
from zpgenus import checks, graded  # noqa: E402

MOVED = {
    graded: (("DE", "GradedPoly", "GradedPolyModP", "poly_reduce_mod_p", "poly_to_text"),
             (zpgenus, rings)),
    checks: (("SubmanifoldComponent", "SubmanifoldData", "Thm71Report", "ab_coefficient",
              "h_series", "p_series_term", "submanifold_genus", "thm71_check"),
             (zpgenus, engine)),
}
for home, (names, old_paths) in MOVED.items():
    for name in names:
        for old in old_paths:
            if getattr(old, name) is not getattr(home, name):
                sys.exit(f"{old.__name__}.{name} is not {home.__name__}.{name}")
if any(hasattr(m, "no_such_name") for m in (zpgenus, rings, engine)) or hasattr(rings, "__path__"):
    sys.exit("an on-demand lookup answered a name that is not on demand")
print(f"ok {zpgenus.__file__}")
