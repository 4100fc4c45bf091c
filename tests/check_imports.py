"""Check that a CLI query imports only what it runs.

``import zpgenus.cli`` must load no ``dataclasses``, ``inspect`` or ``typing``,
and a ``compute`` query neither the graded ring ``zpgenus.graded``, the exact
checks ``zpgenus.checks``, the ``zpgenus.selftest`` battery nor the Legendre
checks of ``zpgenus.cpn``: those load on first use of their names from
``zpgenus``, and each name is one object from ``zpgenus`` and from the module
that defines it, while ``zpgenus.rings`` and ``zpgenus.engine`` serve none of
them and load nothing when asked.  A fresh interpreter's ``import zpgenus``
loads no ``json``, which only the CLI and the JSON readers need.  Run it
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

before = set(sys.modules)
for module, name in ((rings, "DE"), (engine, "thm71_check")):
    try:
        getattr(module, name)
    except AttributeError:
        continue
    sys.exit(f"{module.__name__}.{name} is served outside its home")
if set(sys.modules) != before:
    sys.exit(f"an absent name loaded {sorted(set(sys.modules) - before)}")
if hasattr(zpgenus, "no_such_name"):
    sys.exit("zpgenus answered a name that is not on demand")

if not {"check_eq45", "Eq46Report", "legendre_value"} <= set(dir(zpgenus)):
    sys.exit("dir(zpgenus) misses the Legendre names")
check = zpgenus.check_eq45
if "zpgenus.cpn" not in sys.modules or vars(zpgenus).get("check_eq45") is not check:
    sys.exit("zpgenus.check_eq45 did not load zpgenus.cpn into a plain package attribute")

# every on-demand name, from the package and from the module that defines it
from importlib import import_module  # noqa: E402

for name, home in zpgenus._ON_DEMAND.items():
    if getattr(zpgenus, name) is not getattr(import_module(f"zpgenus.{home}"), name):
        sys.exit(f"zpgenus.{name} is not zpgenus.{home}.{name}")

# a fresh interpreter, since the CLI above loaded json, on the same copy of the package
import os  # noqa: E402
import subprocess  # noqa: E402

child = subprocess.run(
    [sys.executable, "-S", "-c", "import sys, zpgenus; print(zpgenus.__file__, 'json' in sys.modules)"],
    env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(zpgenus.__file__))},
    capture_output=True, text=True)
if child.stdout != f"{zpgenus.__file__} False\n":
    sys.exit(f"import zpgenus in a fresh interpreter printed {child.stdout!r} {child.stderr!r}")
print(f"ok {zpgenus.__file__}")
