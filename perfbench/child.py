"""Fresh-interpreter helpers started by run.py; each mode prints or writes JSON.

  child.py cli OUT ARGV...        one traced CLI query (the cold_cli shim): time
                                  ``import zpgenus.cli``, install the tracer,
                                  run ``zpgenus.cli.main(ARGV)``, write spans
                                  to OUT and exit with main's exit code
  child.py setup SEED             sweep_warm set-up from a fresh state; prints
                                  its seconds
  child.py trace SEED COUNT OUT   traced sweep_warm set-up, then the first
                                  COUNT ops each untraced and traced; writes
                                  spans and op times to OUT

PYTHONPATH must name the checkout's ``src``.
"""
from __future__ import annotations

import json
import sys
import time


def _write(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def cli(out, argv):
    t0 = time.perf_counter()
    import zpgenus.cli

    import_s = time.perf_counter() - t0
    from tracer import Tracer

    tracer = Tracer().install()
    tracer.op_id = 0
    try:
        code = zpgenus.cli.main(argv)
    finally:
        sys.stdout.flush()
        _write(out, {"import_s": import_s, "spans": tracer.spans, "state": tracer.state()})
    return code


def setup(seed):
    import zpgenus
    from workloads import SWEEP_INPUTS, Sweep

    t0 = time.perf_counter()
    sweep = Sweep(zpgenus, seed, SWEEP_INPUTS)
    sweep.setup()
    print(json.dumps({"setup_s": time.perf_counter() - t0, "failures": sweep.failures}))
    return 0


def trace(seed, count, out):
    """Traced set-up, then each op untraced and traced, alternating which goes first."""
    import zpgenus
    from tracer import Tracer
    from workloads import SWEEP_INPUTS, Sweep

    tracer = Tracer().install()
    sweep = Sweep(zpgenus, seed, SWEEP_INPUTS)
    sweep.setup()
    failures = list(sweep.failures)
    times = {False: [], True: []}
    failed = 0
    ops = sweep.ops[:count]
    for i, op in enumerate(ops):
        tracer.op_id = i
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            tracer.install() if traced else tracer.uninstall()
            t0 = time.perf_counter()
            values = sweep.run(op)
            times[traced].append(time.perf_counter() - t0)
            bad = sweep.check(op, values)
            failed += bool(bad)
            failures += [f"op {i}: {msg}" for msg in bad]
    tracer.uninstall()
    _write(out, {
        "spans": tracer.spans, "state": tracer.state(),
        "plain": times[False], "traced": times[True], "failed": failed, "failures": failures,
        "ops": [{key: op[key] for key in ("p", "n", "q", "repeats")} for op in ops],
    })
    return 0


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "cli":
        sys.exit(cli(rest[0], rest[1:]))
    if mode == "setup":
        sys.exit(setup(int(rest[0])))
    if mode == "trace":
        sys.exit(trace(int(rest[0]), int(rest[1]), rest[2]))
    sys.exit(f"unknown mode {mode!r}")
