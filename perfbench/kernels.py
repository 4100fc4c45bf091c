"""Fixed-size kernels, one sample each, timed in a fresh interpreter.

Run as ``python3 perfbench/kernels.py`` with PYTHONPATH naming the checkout's
``src``; prints one JSON object: seconds per kernel, the kernels whose names
are missing at this commit, and failed self-checks.  Genus construction runs
first, so make_genus starts from empty caches.  Every kernel checks its own
result: products against a convolution written out here, inverses by
x * x^-1 = 1, reversion by g(f(u)) = u.
"""
from __future__ import annotations

import json
import time
from fractions import Fraction

GENUS_KERNELS = (
    ("genus.kernel.make_genus.todd.o32_s", "todd", 32, None),
    ("genus.kernel.make_genus.l_genus.o32_s", "l_genus", 32, None),
    ("genus.kernel.make_genus.chi_y.o32_s", "chi_y", 32, Fraction(2)),
    ("genus.kernel.make_genus.a_hat.o32_s", "a_hat", 32, None),
    ("genus.kernel.make_genus.elliptic.o16_s", "elliptic", 16, None),
)
SERIES_KERNELS = (
    "series.kernel.mul.QQ.o32_s",
    "series.kernel.invert.QQ.o32_s",
    "series.kernel.compose.QQ.o32_s",
    "series.kernel.revert.QQ.o32_s",
    "series.kernel.mul.DE.o16_s",
    "series.kernel.revert.DE.o16_s",
)
CYCLO_KERNELS = ("cyclotomic.kernel.mul.p31_s", "cyclotomic.kernel.invert.p31_s")


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def convolve(a, b, zero, order):
    out = [zero] * (order + 1)
    for i in range(order + 1):
        for j in range(order + 1 - i):
            out[i + j] = out[i + j] + a[i] * b[j]
    return out


def is_identity(s, zero, one):
    return list(s.coeffs) == [zero, one] + [zero] * (s.order - 1)


def genus_kernels(zp, times, failures):
    genera = {}
    for name, kind, order, y in GENUS_KERNELS:
        g, times[name] = timed(zp.make_genus, kind, order, y)
        ring = g.logarithm.ring
        if not is_identity(g.logarithm.compose(g.f_series), ring.zero, ring.one):
            failures.append(f"{name}: logarithm(f(u)) != u")
        genera[kind] = g
    return genera


def series_kernels(zp, genera, times, failures):
    Series, QQ, DE = zp.Series, zp.QQ, zp.DE
    n = 32
    a = Series.from_fractions(QQ, [Fraction(1, k + 1) for k in range(n + 1)], n)
    b = Series.from_fractions(QQ, [Fraction((-1) ** k * (k + 2), (k + 1) ** 2) for k in range(n + 1)], n)
    c, times["series.kernel.mul.QQ.o32_s"] = timed(a.__mul__, b)
    if list(c.coeffs) != convolve(a.coeffs, b.coeffs, Fraction(0), n):
        failures.append("series mul QQ: product != convolution")
    inv, times["series.kernel.invert.QQ.o32_s"] = timed(a.invert)
    if list((a * inv).coeffs) != [1] + [0] * n:
        failures.append("series invert QQ: s * s^-1 != 1")
    # the todd logarithm -ln(1-u), built here rather than taken from make_genus
    log = Series.from_fractions(QQ, [0] + [Fraction(1, k) for k in range(1, n + 1)], n)
    f, times["series.kernel.revert.QQ.o32_s"] = timed(log.revert)
    u, times["series.kernel.compose.QQ.o32_s"] = timed(log.compose, f)
    if not is_identity(u, QQ.zero, QQ.one):
        failures.append("series revert/compose QQ: g(f(u)) != u")

    ell = genera["elliptic"].logarithm
    ell = Series(DE, list(ell.coeffs))  # a fresh object with the same value
    d = ell.differentiate()
    sq, times["series.kernel.mul.DE.o16_s"] = timed(d.__mul__, d)
    if list(sq.coeffs) != convolve(d.coeffs, d.coeffs, DE.zero, d.order):
        failures.append("series mul DE: product != convolution")
    f, times["series.kernel.revert.DE.o16_s"] = timed(ell.revert)
    if not is_identity(ell.compose(f), DE.zero, DE.one):
        failures.append("series revert DE: g(f(u)) != u")


def cyclo_kernels(zp, times, failures):
    p = 31
    x = zp.CycloElem(p, [Fraction((-1) ** k * (k * k + 1), k + 2) for k in range(p - 1)])
    y = zp.CycloElem(p, [Fraction(3 * k + 1, 2 ** (k % 5) + 1) for k in range(p - 1)])
    z, times["cyclotomic.kernel.mul.p31_s"] = timed(x.__mul__, y)
    # the product mod 1 + t + ... + t^(p-1), written out here
    full = [Fraction(0)] * p
    for i, a in enumerate(x.coords):
        for j, b in enumerate(y.coords):
            full[(i + j) % p] += a * b
    if list(z.coords) != [c - full[p - 1] for c in full[: p - 1]]:
        failures.append("cyclotomic mul p31: product != reduced convolution")
    xi, times["cyclotomic.kernel.invert.p31_s"] = timed(x.invert)
    if list((x * xi).coords) != [1] + [0] * (p - 2):
        failures.append("cyclotomic invert p31: x * x^-1 != 1")


def main():
    import zpgenus

    times, failures, absent = {}, [], []

    def have(*names):
        return all(hasattr(zpgenus, n) for n in names)

    genera = {}
    groups = (
        ([k[0] for k in GENUS_KERNELS], have("make_genus"),
         lambda: genera.update(genus_kernels(zpgenus, times, failures))),
        (SERIES_KERNELS, have("make_genus", "Series", "QQ", "DE"),
         lambda: series_kernels(zpgenus, genera, times, failures)),
        (CYCLO_KERNELS, have("CycloElem"), lambda: cyclo_kernels(zpgenus, times, failures)),
    )
    for names, present, run in groups:
        if not present:
            absent += names
            continue
        try:
            run()
        except Exception as exc:  # report it and go on with the other kernels
            failures.append(f"{names[0]}: {type(exc).__name__}: {exc}")
    print(json.dumps({"times": times, "absent": absent, "failures": failures}))


if __name__ == "__main__":
    main()
