"""The zpgenus benchmark.

    python3 perfbench/run.py --workload cold_cli|sweep_warm --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from ``src/``
there, never from an installed copy.  The load is closed-loop with one
client and no threads; a ``cold_cli`` op is one child interpreter, and the
parent waits for it.  The run goes on for about S seconds and at least
MIN_OPS ops, so that the 90th percentile has ten samples beyond it;
``sweep_warm`` stops only between whole cycles of its shape table.  Every output is checked (see workloads.py).

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics.  With ``--trace 1`` the run measures a fixed prefix of
the ops twice, untraced and then traced, in fresh interpreters (see
child.py), so per-layer counts repeat exactly for a seed; the last line then
holds the per-layer metrics, including the fixed-size kernels and the
tracing overhead.  Spans go to ``perfbench/out/spans-<workload>.json``.
Lines before the last are for people: every metric with its unit and sample
count, the input description, and every failure.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from tracer import summarize  # noqa: E402
import workloads as W  # noqa: E402

MIN_OPS = 100
IMPORT_SAMPLES = 7  # cold_cli set-up: fresh interpreters timing `import zpgenus`
SETUP_SAMPLES = 3  # sweep_warm set-up: this process plus two fresh ones
COLD_INPUTS = 2000
# traced prefix: the cold_cli head and 40 light queries; one sweep cycle
TRACE_OPS = {"cold_cli": 42, "sweep_warm": W.SWEEP_SHAPES}
CHILD_TIMEOUT_S = 150

PER_LAYER = (
    ("cli.import_s", "s"),
    ("cli.main.self_s", "s"),
    ("genus.make_genus.s", "s"),
    ("genus.make_genus.calls", "count"),
    ("genus.make_genus.hit_ratio", "ratio"),
    ("genus.power_system.s", "s"),
    ("genus.power_system.calls", "count"),
    ("genus.power_system.hit_ratio", "ratio"),
    ("series.Series.revert.self_s", "s"),
    ("series.Series.revert.calls", "count"),
    ("series.Series.compose.self_s", "s"),
    ("series.Series.compose.calls", "count"),
    ("series.Series.__mul__.self_s", "s"),
    ("series.Series.__mul__.calls", "count"),
    ("series.Series.invert.self_s", "s"),
    ("series.Series.invert.calls", "count"),
    ("engine.genus_mod_p.pseries.s", "s"),
    ("engine.genus_mod_p.ab.s", "s"),
    ("engine.genus_mod_p.trace.s", "s"),
    ("engine.a_series.s", "s"),
    ("engine.a_series.calls", "count"),
    ("engine.a_series.order_per_degree", "ratio"),
    ("engine.b_series.s", "s"),
    ("engine.b_series.hit_ratio", "ratio"),
    ("engine.cf_residuals.s", "s"),
    ("engine.thm71_check.s", "s"),
    ("engine.h_series.s", "s"),
    ("cyclotomic.ab_trace.s", "s"),
    ("cyclotomic.ab_trace.calls", "count"),
    ("cyclotomic.CycloElem.invert.self_s", "s"),
    ("cyclotomic.CycloElem.invert.calls", "count"),
    ("cyclotomic.CycloElem.__mul__.self_s", "s"),
    ("cyclotomic.CycloElem.__mul__.calls", "count"),
    ("cpn.check_eq45.s", "s"),
    ("cpn.check_eq46.s", "s"),
    ("rings.coeff_bits.max", "bits"),
    ("rings.graded_terms.max", "count"),
    ("series.kernel.mul.QQ.o32_s", "s"),
    ("series.kernel.invert.QQ.o32_s", "s"),
    ("series.kernel.compose.QQ.o32_s", "s"),
    ("series.kernel.revert.QQ.o32_s", "s"),
    ("series.kernel.mul.DE.o16_s", "s"),
    ("series.kernel.revert.DE.o16_s", "s"),
    ("cyclotomic.kernel.mul.p31_s", "s"),
    ("cyclotomic.kernel.invert.p31_s", "s"),
    ("genus.kernel.make_genus.todd.o32_s", "s"),
    ("genus.kernel.make_genus.l_genus.o32_s", "s"),
    ("genus.kernel.make_genus.chi_y.o32_s", "s"),
    ("genus.kernel.make_genus.a_hat.o32_s", "s"),
    ("genus.kernel.make_genus.elliptic.o16_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.ops", "count"),
    ("input.repeat_point_frac", "ratio"),
    ("input.q.mean", "count"),
    ("input.n.mean", "count"),
    ("input.p.mean", "count"),
)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_child(args):
    """Run a fresh interpreter in the checkout; returns (seconds, CompletedProcess)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=child_env(), capture_output=True,
        text=True, timeout=CHILD_TIMEOUT_S,
    )
    return time.perf_counter() - t0, proc


def child_json(args):
    """Run a child that prints one JSON object as its last line."""
    _, proc = run_child(args)
    if proc.returncode != 0:
        raise RuntimeError(f"{args[0]} {args[1:2]} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def timing_metrics(times):
    return {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.p90": (statistics.quantiles(times, n=10, method="inclusive")[-1], "s"),
    }


def input_description(ops):
    q = sum(op["q"] for op in ops)
    primes = sorted({op["p"] for op in ops})
    mix = {p: sum(op["p"] == p for op in ops) / len(ops) for p in primes}
    return {
        "input.repeat_point_frac": sum(op.get("repeats", 0) for op in ops) / q,
        "input.q.mean": q / len(ops),
        "input.n.mean": sum(op["n"] for op in ops) / len(ops),
        "input.p.mean": sum(op["p"] for op in ops) / len(ops),
    }, mix


# ---------------------------------------------------------------------------
# cold_cli
# ---------------------------------------------------------------------------


def cold_setup_s():
    code = "import time; t = time.perf_counter(); import zpgenus; print(time.perf_counter() - t)"
    samples = []
    for _ in range(IMPORT_SAMPLES):
        _, proc = run_child(["-c", code])
        if proc.returncode != 0:
            raise RuntimeError(f"import zpgenus failed: {proc.stderr[-500:]}")
        samples.append(float(proc.stdout))
    return statistics.median(samples)


def cold_op(op, spans_path=None):
    """One CLI query; returns (seconds, failure messages)."""
    if spans_path is None:
        args = ["-m", "zpgenus", *op["argv"]]
    else:
        args = [str(HERE / "child.py"), "cli", str(spans_path), *op["argv"]]
    try:
        seconds, proc = run_child(args)
    except subprocess.TimeoutExpired:
        return CHILD_TIMEOUT_S, [f"no answer within {CHILD_TIMEOUT_S} s"]
    return seconds, W.check_cold(op, proc.returncode, proc.stdout, proc.stderr)


def run_cold(seed, seconds, report):
    t0 = time.perf_counter()
    ops = W.cold_ops(seed, COLD_INPUTS)
    setup_s = time.perf_counter() - t0 + cold_setup_s()
    times = loop(ops, seconds, cold_op, report)
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return times, setup_s, rss, ops[: len(times)]


def trace_cold(seed, report):
    """Each traced query runs untraced and traced, alternating which goes first."""
    ops = W.cold_ops(seed, TRACE_OPS["cold_cli"])
    OUT.mkdir(exist_ok=True)
    tmp = OUT / "cli-spans.json"
    spans, states, import_s, plain, traced = [], [], [], [], []
    for i, op in enumerate(ops):
        for with_spans in ((False, True) if i % 2 == 0 else (True, False)):
            dt, bad = cold_op(op, tmp if with_spans else None)
            (traced if with_spans else plain).append(dt)
            report.op(i, op, bad)
        try:
            doc = json.loads(tmp.read_text())
            tmp.unlink()
        except (OSError, json.JSONDecodeError) as exc:
            report.fail(f"traced op {i}: no spans ({exc})")
            continue
        offset = len(spans)
        for name, start, end, parent, _ in doc["spans"]:
            spans.append([name, start, end, parent + offset if parent >= 0 else -1, i])
        states.append(doc["state"])
        import_s.append(doc["import_s"])
    layers, absent = layer_metrics(spans, states, plain, traced)
    layers["cli.import_s"] = statistics.median(import_s) if import_s else 0.0
    return layers, absent, spans, ops


# ---------------------------------------------------------------------------
# sweep_warm
# ---------------------------------------------------------------------------


def run_sweep(zp, seed, seconds, report):
    samples = []
    for i in range(SETUP_SAMPLES):
        if i == 0:
            t0 = time.perf_counter()
            sweep = W.Sweep(zp, seed, W.SWEEP_INPUTS)
            sweep.setup()
            samples.append(time.perf_counter() - t0)
            failures = sweep.failures
        else:
            doc = child_json([str(HERE / "child.py"), "setup", str(seed)])
            samples.append(doc["setup_s"])
            failures = doc["failures"]
        for msg in failures:
            report.fail(f"warm-up: {msg}")

    def op_fn(op):
        t0 = time.perf_counter()
        values = sweep.run(op)
        return time.perf_counter() - t0, sweep.check(op, values)

    times = loop(sweep.ops, seconds, op_fn, report, cycle=W.SWEEP_SHAPES)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return times, statistics.median(samples), rss, sweep.ops[: len(times)]


def trace_sweep(seed, report):
    """Set-up and ops traced in a fresh interpreter (see child.py)."""
    OUT.mkdir(exist_ok=True)
    tmp = OUT / "sweep-trace.json"
    k = TRACE_OPS["sweep_warm"]
    _, proc = run_child([str(HERE / "child.py"), "trace", str(seed), str(k), str(tmp)])
    if proc.returncode != 0:
        raise RuntimeError(f"traced sweep exited {proc.returncode}: {proc.stderr[-500:]}")
    doc = json.loads(tmp.read_text())
    tmp.unlink()
    report.attempted += 2 * k
    report.failed += doc["failed"]
    for msg in doc["failures"]:
        report.fail(f"traced sweep: {msg}")
    layers, absent = layer_metrics(doc["spans"], [doc["state"]], doc["plain"], doc["traced"])
    return layers, absent, doc["spans"], doc["ops"]


# ---------------------------------------------------------------------------
# shared
# ---------------------------------------------------------------------------


def loop(ops, seconds, op_fn, report, cycle=1):
    """Closed loop, one op at a time, for about `seconds` and at least MIN_OPS ops.

    The run stops only between whole cycles of `cycle` ops, at the boundary
    nearest to `seconds`.
    """
    times = []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if i % cycle == 0 and len(times) >= MIN_OPS:
            elapsed = time.perf_counter() - start
            if elapsed * (1 + cycle / (2 * i)) >= seconds:
                break
        dt, bad = op_fn(op)
        times.append(dt)
        report.op(i, op, bad)
    return times


def layer_metrics(spans, states, plain_times, traced_times):
    agg = summarize(spans)
    absent = {name for st in states for name in st["absent"]}
    hits, counters = {}, {}
    for st in states:
        for key, val in st["hits"].items():
            hits[key] = hits.get(key, 0) + val
        for key, val in st["counters"].items():
            counters[key] = counters.get(key, 0) + val

    def get(name, field):
        return agg.get(name, {}).get(field, 0)

    out = {}
    for name, _unit in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field in ("s", "self_s", "calls"):
            out[name] = get(base, field)
        elif field == "hit_ratio":
            calls = get(base, "calls")
            out[name] = hits.get(base, 0) / calls if calls else 0.0
    weights = counters.get("a_series.weights", 0)
    out["engine.a_series.order_per_degree"] = (
        counters.get("a_series.order", 0) / weights if weights else 0.0)
    out["rings.coeff_bits.max"] = max((st["max_bits"] for st in states), default=0)
    out["rings.graded_terms.max"] = max((st["max_terms"] for st in states), default=0)
    out["trace.overhead_frac"] = sum(traced_times) / sum(plain_times) - 1
    out["trace.ops"] = len(traced_times)
    return out, absent


class Report:
    """Counts ops and failures, and prints each failure once."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.other = []

    def op(self, i, op, bad):
        self.attempted += 1
        if bad:
            self.failed += 1
            what = " ".join(op["argv"]) if "argv" in op else f"{W.SWEEP_PAIRS[op['pair']]} n={op['n']} q={op['q']}"
            print(f"FAIL op {i} [{what}]: {'; '.join(bad)}")

    def fail(self, msg):
        self.other.append(msg)
        print(f"FAIL {msg}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("cold_cli", "sweep_warm"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "zpgenus" / "__init__.py").is_file():
        print(f"error: no zpgenus sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import zpgenus

    if Path(zpgenus.__file__).resolve().parent != SRC / "zpgenus":
        print(f"error: imported zpgenus from {zpgenus.__file__}, not {SRC}", file=sys.stderr)
        return 2

    report = Report()
    metrics = {}
    if args.trace:
        if args.workload == "cold_cli":
            layers, absent, spans, ops = trace_cold(args.seed, report)
        else:
            layers, absent, spans, ops = trace_sweep(args.seed, report)
        kernels = child_json([str(HERE / "kernels.py")])
        for msg in kernels["failures"]:
            report.fail(f"kernel {msg}")
        layers.update(kernels["times"])
        absent |= set(kernels["absent"])
        desc, mix = input_description(ops)
        layers.update(desc)
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"spans-{args.workload}.json", "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "spans": spans}, fh)
        for name, unit in PER_LAYER:
            metrics[name] = {"value": layers.get(name, 0), "unit": unit}
            # a traced function or kernel missing at this commit reads "absent"
            missing = any(name.startswith(a + ".") or name == a for a in absent)
            if missing:
                note = "absent"
            elif ".kernel." in name:
                note = "one sample, fresh interpreter"
            else:
                note = f"over {layers['trace.ops']} ops"
            print(f"{name:44s} {layers.get(name, 0):14.6g} {unit:6s} {note}")
    else:
        if args.workload == "cold_cli":
            times, setup_s, rss, ops = run_cold(args.seed, args.seconds, report)
        else:
            times, setup_s, rss, ops = run_sweep(zpgenus, args.seed, args.seconds, report)
        rows = timing_metrics(times)
        rows["setup_s"] = (setup_s, "s")
        rows["peak_rss_mb"] = (rss, "MB")
        desc, mix = input_description(ops)
        for name, (value, unit) in rows.items():
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:24s} {value:12.6g} {unit:4s} (n={len(times)} ops)")
        print(f"{'failed_frac':24s} {report.failed / max(report.attempted, 1):12.6g} ratio"
              f" ({report.failed} of {report.attempted} ops)")
        for name, value in desc.items():
            print(f"{name:24s} {value:12.6g}")
    print("input.p.mix " + " ".join(f"{p}:{share:.3f}" for p, share in mix.items()))
    correct = report.failed == 0 and not report.other
    print(json.dumps({"correct": correct, "attempted": max(report.attempted, 1),
                      "failed": report.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
