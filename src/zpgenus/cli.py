"""Command-line interface.

Verbs:

* ``compute``      genus of a weight set mod p, by one route or all of them
* ``cf-check``     Conner-Floyd style vanishing of the low p-series coefficients
* ``ab``           per-point coefficient-route vs cyclotomic-trace values
* ``cpn``          emit the weight set of a linear Z/p action on CP^n
* ``legendre``     elliptic-genus Legendre congruence checks
* ``thm71``        the combined ab/pseries/residual congruence
* ``submanifold``  genus mod p from fixed-submanifold data
* ``selftest``     a quick internal cross-validation battery

Exit codes: 0 success (and all requested checks passed), 1 a computation ran
but a check or cross-route agreement failed, 2 bad input or usage.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .cyclotomic import ab_trace
from .engine import (ROUTES, ResidueTuple, WeightSet, canonical_residues, cf_residuals,
                     cpn_weight_set, genus_mod_p)
from .errors import BadParams, EngineError
from .genus import make_genus, parse_genus_name
from .rings import rational_reduce_mod_p


def _parse_int_list(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip() != "")
    except ValueError as exc:
        raise BadParams(f"bad integer list {text!r}") from exc


def _read_weights_file(path: str, record):
    """record.from_json of the --weights file; BadParams if it cannot be read."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return record.from_json(fh.read())
    except OSError as exc:
        raise BadParams(f"cannot read weights file: {exc}") from exc


def _load_weight_set(args) -> WeightSet:
    if args.weights:
        w = _read_weights_file(args.weights, WeightSet)
        if args.p is not None and args.p != w.p:
            raise BadParams(f"--p {args.p} contradicts p = {w.p} in the weights file")
        return w
    if args.residues:
        if args.p is None:
            raise BadParams("--residues needs --p")
        return cpn_weight_set(ResidueTuple(args.p, _parse_int_list(args.residues)))
    raise BadParams("need --weights FILE or --residues LIST")


def _genus_for(args):
    """The genus named by --genus, at the minimum order; routes grow it as needed."""
    kind, y = parse_genus_name(args.genus)
    return make_genus(kind, 2, y)


def _emit(args, payload: dict) -> None:
    if getattr(args, "format", "json") == "json":  # cpn has no --format and prints JSON
        print(json.dumps(payload, indent=2))
        return
    for key, val in _flatten(payload):
        print(f"{key}: {val}")


def _flatten(payload: dict, prefix: str = ""):
    for key, val in payload.items():
        name = f"{prefix}{key}"
        if isinstance(val, dict):
            yield from _flatten(val, f"{name}.")
        elif isinstance(val, list):
            yield name, json.dumps(val)
        else:
            yield name, val


# ---------------------------------------------------------------------------
# Verb handlers; each returns its report and whether every check in it passed.
# ---------------------------------------------------------------------------


def _run_compute(args) -> tuple[dict, bool]:
    w = _load_weight_set(args)
    g = _genus_for(args)
    base = {
        "verb": "compute",
        "genus": args.genus,
        "p": w.p,
        "n": w.n,
        "q": w.q,
    }
    if args.route != "all":
        value = genus_mod_p(g, w, route=args.route)
        base["route"] = args.route
        base["result"] = str(value)
        return base, True
    results = {}
    values = []
    for route in ROUTES:
        try:
            value = genus_mod_p(g, w, route=route)
        except EngineError as exc:
            results[route] = f"unavailable ({type(exc).__name__})"
        else:
            results[route] = str(value)
            values.append(str(value))
    agree = len(set(values)) == 1  # one answer, or several that agree
    base["route"] = "all"
    base["results"] = results
    if len(values) > 1:
        base["agree"] = agree
    if agree:
        base["result"] = values[0]
    return base, agree


def _run_cf_check(args) -> tuple[dict, bool]:
    w = _load_weight_set(args)
    residuals = cf_residuals(_genus_for(args), w)
    slots = []
    all_zero = True
    for m, r in enumerate(residuals):
        if isinstance(r, EngineError):
            slots.append({"m": m, "residual": f"non-integral ({r})"})
            all_zero = False
        else:
            slots.append({"m": m, "residual": str(r)})
            all_zero = all_zero and r.is_zero()
    return {
        "verb": "cf-check",
        "genus": args.genus,
        "p": w.p,
        "n": w.n,
        "q": w.q,
        "residuals": slots,
        "all_zero": all_zero,
    }, all_zero


def _run_ab(args) -> tuple[dict, bool]:
    from .checks import ab_coefficient

    if args.p is None:
        raise BadParams("ab needs --p")
    if args.residues is None:
        raise BadParams("ab needs --residues with the weight tuple")
    g = _genus_for(args)
    weights = _parse_int_list(args.residues)
    payload = {
        "verb": "ab",
        "genus": args.genus,
        "p": args.p,
        "weights": list(weights),
    }
    coeff = ab_coefficient(g, args.p, weights)
    trace = ab_trace(g.kind, args.p, weights, g.y)
    mods = [rational_reduce_mod_p(v, args.p) for v in (coeff, trace)]
    payload["coefficient_route"] = {"exact": str(coeff), "mod_p": str(mods[0])}
    payload["trace_route"] = {"exact": str(trace), "mod_p": str(mods[1])}
    agree = payload["agree"] = mods[0] == mods[1]
    return payload, agree


def _run_cpn(args) -> tuple[dict, bool]:
    if args.p is None:
        raise BadParams("cpn needs --p")
    if args.residues is None:
        if args.n is None:
            raise BadParams("cpn needs --residues or --n")
        rt = canonical_residues(args.p, args.n)
    else:
        rt = ResidueTuple(args.p, _parse_int_list(args.residues))
        if args.n is not None and args.n != rt.n:
            raise BadParams(f"--n {args.n} contradicts n = {rt.n} of the residues")
    payload = cpn_weight_set(rt).to_json_dict()
    if args.emit:
        try:
            with open(args.emit, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(payload, indent=2) + "\n")
        except OSError as exc:
            raise BadParams(f"cannot write emit file: {exc}") from exc
    return payload, True


def _run_legendre(args) -> tuple[dict, bool]:
    from .cpn import check_eq45, check_eq46

    if args.p is None:
        raise BadParams("legendre needs --p")
    if args.residues is None and args.n is None:
        report46 = check_eq46(args.p)
        ok = (
            report46.equal
            and report46.power_system_matches
            and report46.low_coeffs_vanish
            and report46.eps_one_equal
        )
        return {"verb": "legendre", "check": "power-system", **report46.to_json_dict()}, ok
    if args.n is not None and args.n % 2:
        raise BadParams("the projective check needs even n")
    residues = None if args.residues is None else _parse_int_list(args.residues)
    report = check_eq45(args.p, residues, None if args.n is None else args.n // 2)
    return ({"verb": "legendre", "check": "projective", **report.to_json_dict()},
            report.equal and report.cpn_matches)


def _run_thm71(args) -> tuple[dict, bool]:
    from .checks import thm71_check

    w = _load_weight_set(args)
    report = thm71_check(_genus_for(args), w, force=args.force)
    return {"verb": "thm71", "genus": args.genus, **report.to_json_dict()}, report.equal


def _run_submanifold(args) -> tuple[dict, bool]:
    from .checks import SubmanifoldData, submanifold_genus

    if not args.weights:
        raise BadParams("submanifold needs --weights FILE with submanifold data")
    data = _read_weights_file(args.weights, SubmanifoldData)
    value = submanifold_genus(_genus_for(args), data)
    return {
        "verb": "submanifold",
        "genus": args.genus,
        "p": data.p,
        "components": len(data.components),
        "result": str(value),
    }, True


def _run_selftest(args) -> tuple[dict, bool]:
    from .selftest import battery

    results = []
    for name, check in battery():
        try:
            results.append({"check": name, "ok": bool(check())})
        except EngineError as exc:
            results.append({"check": name, "ok": False, "error": str(exc)})
    all_ok = all(r["ok"] for r in results)
    return {"verb": "selftest", "checks": results, "all_ok": all_ok}, all_ok


# ---------------------------------------------------------------------------
# Argument plumbing.
# ---------------------------------------------------------------------------


_FLAGS = {
    "genus": dict(required=True, help="td, euler, L, chi_y:<rational>, ahat or elliptic"),
    "weights": dict(type=str, default=None, help="JSON input file"),
    "p": dict(type=int, default=None, help="the odd prime p"),
    "residues": dict(type=str, default=None, help="comma-separated integers"),
    "n": dict(type=int, default=None, help="dimension parameter"),
    "route": dict(choices=ROUTES + ("all",), default="all"),
    "force": dict(action="store_true", help="ignore the n <= p-2 guard"),
    "emit": dict(type=str, default=None, help="also write the JSON here"),
    "format": dict(choices=("text", "json"), default="text"),
}

# verb, handler, help, and the flags the handler reads
_VERBS = (
    ("compute", _run_compute, "genus of a weight set mod p",
     ("genus", "weights", "p", "residues", "route", "format")),
    ("cf-check", _run_cf_check, "low p-series coefficients must vanish",
     ("genus", "weights", "p", "residues", "format")),
    ("ab", _run_ab, "coefficient route vs trace route, one point",
     ("genus", "p", "residues", "format")),
    ("cpn", _run_cpn, "weight set of a linear action on CP^n (printed as JSON)",
     ("p", "residues", "n", "emit")),
    ("legendre", _run_legendre, "elliptic Legendre congruence checks",
     ("p", "residues", "n", "format")),
    ("thm71", _run_thm71, "ab vs pseries + weighted residuals",
     ("genus", "weights", "p", "residues", "force", "format")),
    ("submanifold", _run_submanifold, "genus from fixed-submanifold data; assumes "
     "equivariantly trivial normal bundles", ("genus", "weights", "format")),
    ("selftest", _run_selftest, "internal cross-validation battery", ("format",)),
)


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser, with only the subparser of the verb argv starts with, if any;
    the metavar keeps the usage line that all of them give."""
    parser = argparse.ArgumentParser(
        prog="zpgenus",
        description="Exact genera of Z/p fixed-point data, three ways.",
    )
    parser.add_argument("--version", action="version", version=f"zpgenus {__version__}")
    verbs = [v for v in _VERBS if argv and v[0] == argv[0]] or _VERBS
    metavar = "{" + ",".join(v[0] for v in _VERBS) + "}" if len(verbs) == 1 else None
    subs = parser.add_subparsers(dest="verb", required=True, metavar=metavar)
    for verb, handler, help_text, flags in verbs:
        sub = subs.add_parser(verb, help=help_text, description=help_text)
        for flag in flags:
            sub.add_argument(f"--{flag}", **_FLAGS[flag])
        sub.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        payload, ok = args.handler(args)
    except EngineError as exc:
        diagnostic = {"error": type(exc).__name__, "detail": str(exc)}
        if getattr(args, "format", "text") == "json":  # cpn has no --format
            print(json.dumps(diagnostic, indent=2), file=sys.stderr)
        else:
            print(f"error: {diagnostic['error']}", file=sys.stderr)
            print(f"detail: {diagnostic['detail']}", file=sys.stderr)
        return 2
    _emit(args, payload)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
