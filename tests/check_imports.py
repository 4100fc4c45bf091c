"""Check that a CLI query imports only what it runs.

``import zpgenus.cli`` must load no ``dataclasses``, ``inspect`` or ``typing``,
and not the Legendre checks of ``zpgenus.cpn``, which load on first use of
their names.  Run it with ``python -S``, since a site hook may import
``typing`` before any user code, and with the package on PYTHONPATH: the
``src`` directory of a checkout, or the site-packages of an installed copy::

    PYTHONPATH=src python -S tests/check_imports.py

It prints ``ok`` and the file of the package it checked, or exits non-zero.
"""
import sys

import zpgenus.cli

loaded = [m for m in ("dataclasses", "inspect", "typing", "zpgenus.cpn") if m in sys.modules]
if loaded:
    sys.exit(f"import zpgenus.cli loaded {loaded}")

import zpgenus  # noqa: E402
from zpgenus import engine  # noqa: E402

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
print(f"ok {zpgenus.__file__}")
