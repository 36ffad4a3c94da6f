"""Child processes the benchmark starts, one per call, in a fresh interpreter.

    probe.py ceiling SEED [MAX_N]   strand-ceiling sweep; prints one JSON line
    probe.py cli ARGV_JSON          traced ``gyblink.cli.main(argv)``; prints
                                    one JSON envelope with the exit code, the
                                    captured stdout, import and main times and
                                    the spans

Both expect ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import signal
import statistics
import sys
import time

#: Per-evaluation budget of the strand-ceiling sweep, in seconds.
CEILING_BUDGET_S = 1.0
CEILING_LENGTH = 20
CEILING_REPEATS = 3


class OverBudget(BaseException):
    """Raised by the timer when an evaluation has used up its budget; not an
    ``Exception``, so nothing in the evaluator can swallow it."""


def _over_budget(signum, frame):
    raise OverBudget


def ceiling(seed: int, max_n: int = 64) -> dict:
    """Largest ``n <= max_n`` whose seeded 20-letter type1 word evaluates in
    at most one second (median of three), stopping at the first ``n`` over.

    An evaluation still running when its budget is spent is stopped there:
    it is over budget whatever it would have taken, and finishing it would
    only lengthen every run.
    """
    import numpy as np

    from gyblink.braids import BraidWord
    from gyblink.enhancement import catalog_enhancement
    from gyblink.invariant import trace_invariant

    rng = random.Random(f"ceiling-{seed}")
    s = catalog_enhancement("type1", float(rng.choice(np.linspace(0.0, np.pi, 16))))
    log = []
    best = 1
    signal.signal(signal.SIGALRM, _over_budget)
    for n in range(2, max_n + 1):
        b = BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(CEILING_LENGTH)))
        times, stopped = [], 0
        # two evaluations over budget fix the median of three, so stop there
        while len(times) < CEILING_REPEATS and sum(t > CEILING_BUDGET_S for t in times) < 2:
            t0 = time.perf_counter()
            try:
                try:
                    signal.setitimer(signal.ITIMER_REAL, CEILING_BUDGET_S)
                    trace_invariant(s, b, allow_large=True)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except OverBudget:
                stopped += 1
            times.append(time.perf_counter() - t0)
        median = statistics.median(times + [float("inf")] * (CEILING_REPEATS - len(times)))
        log.append({"n": n, "times_s": times, "stopped": stopped, "median_s": median})
        if median > CEILING_BUDGET_S:
            break
        best = n
    return {"strand_ceiling": best, "log": log}


def traced_cli(argv: list[str]) -> dict:
    t0 = time.perf_counter()
    import gyblink.cli

    import_s = time.perf_counter() - t0
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    main = tracer.wrap("cli.main", gyblink.cli.main)
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    main_s = time.perf_counter() - t0
    return {
        "code": code,
        "stdout": out.getvalue(),
        "import_ms": import_s * 1e3,
        "main_ms": main_s * 1e3,
        "spans": tracer.spans,
    }


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "ceiling":
        print(json.dumps(ceiling(int(sys.argv[2]), *(int(x) for x in sys.argv[3:]))))
    elif mode == "cli":
        print(json.dumps(traced_cli(json.loads(sys.argv[2]))))
    else:
        raise SystemExit(f"unknown probe mode {mode!r}")
