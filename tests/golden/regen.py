"""Rewrite the golden corpus: what the CLI prints and the routes' exact sums.

* ``cli.jsonl``: for each argv of ``cases.txt``, run through ``zpgenus.cli.main``
  from this directory, its exit code, stdout and stderr.
* ``exact.jsonl``: for each weight set of a derandomized grid (every kind over
  Q, chi_y at 7/3, p 5..13, n from 1 to p, so that both n >= p - 1 and sums that are
  not p-integral occur), every slot m = 0..n of ``engine._point_sums`` on the
  pseries and ab routes and ``engine._trace_sum``, as exact fractions in text,
  or the error a route raises (the ab and trace routes refuse chi_y at 7/3 at
  p = 5, where 1 + y = 10/3 vanishes mod p).

``tests/test_golden.py`` checks the program against both files.  A change that
means to alter an output regenerates them, with the package on the path::

    PYTHONPATH=src python tests/golden/regen.py
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shlex
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent

KINDS = (("todd", None), ("euler", None), ("l_genus", None), ("a_hat", None), ("chi_y", "7/3"))
PRIMES = (5, 7, 11, 13)


def cases() -> list[list[str]]:
    lines = (HERE / "cases.txt").read_text(encoding="utf-8").splitlines()
    return [shlex.split(line) for line in lines if line.strip() and not line.startswith("#")]


def run_case(argv: list[str]) -> dict:
    """The exit code, stdout and stderr of one CLI run; the caller is in HERE."""
    from zpgenus.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # --version, and argparse's own refusals
            code = exc.code
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def exact_grid() -> list[dict]:
    """The weight sets of exact.jsonl: per kind, p and n (1, 2, 3, p // 2 and
    p - 2 to p) one set of up to four points, drawn from a generator seeded by
    (kind, p, n), with a repeated point in every third set."""
    grid = []
    for kind, y in KINDS:
        for p in PRIMES:
            for n in sorted({1, 2, 3, p // 2, p - 2, p - 1, p}):
                rng = random.Random(f"{kind}:{p}:{n}")
                points = [[rng.randrange(1, p) for _ in range(n)] for _ in range(rng.randint(1, 4))]
                if n % 3 == 0:
                    points.append(list(points[0]))
                grid.append({"kind": kind, "y": y, "p": p, "n": n, "points": points})
    return grid


def exact_sums(case: dict) -> dict:
    """The exact route sums of one grid set, each as the text of a Fraction, or
    the class and message of the error that the route raises."""
    from zpgenus.engine import WeightSet, _point_sums, _trace_sum
    from zpgenus.errors import EngineError
    from zpgenus.genus import make_genus

    p, n = case["p"], case["n"]
    g = make_genus(case["kind"], 2, None if case["y"] is None else Fraction(case["y"]))
    w = WeightSet(p, n, tuple(tuple(pt) for pt in case["points"]))
    points = w.distinct_points.items()
    routes = {
        "pseries": lambda: [str(v) for v in _point_sums(g, p, n, "pseries", range(n + 1), points)],
        "ab": lambda: [str(v) for v in _point_sums(g, p, n, "ab", range(n + 1), points)],
        "trace": lambda: str(Fraction(*_trace_sum(g, w))),
    }
    sums = {}
    for route, run in routes.items():
        try:
            sums[route] = run()
        except EngineError as exc:
            sums[route] = f"{type(exc).__name__}: {exc}"
    return {**case, **sums}


def _write(name: str, records) -> None:
    with open(HERE / name, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def main() -> None:
    os.chdir(HERE)
    _write("cli.jsonl", (run_case(argv) for argv in cases()))
    _write("exact.jsonl", (exact_sums(case) for case in exact_grid()))


if __name__ == "__main__":
    main()
