#!/usr/bin/env python3
"""gyblink benchmark: three seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload wide-trace --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --self-test

Workloads (see ``perfbench/README.md`` for why each was chosen):

* ``wide-trace``: in-process ``trace_invariant`` over the 22-cell grid of
  operator x strands x word length.
* ``relation-sweep``: in-process relation checks, the ``suite`` mix.
* ``cli``: ``python -m gyblink.cli`` subprocesses, one at a time.

Each workload is a closed loop with one caller. A run is split into
``SEGMENTS`` equal shares of ``--seconds``; each share repeats whole rounds
(a fixed multiset of op kinds, seeded contents, seeded order) while another
round still fits and until at least ``MIN_SAMPLES`` ops are done overall,
so the latency quantiles of every run come from the same mix. The
in-process workloads run each share in a fresh worker process. Every output is
checked against ``perfbench/reference.json`` (an evaluator that shares no
code with ``gyblink.rep``) or against the documented CLI contract.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones: it runs each op untraced and again traced (spans installed by
``perfbench/tracer.py``) and reports the overhead between the two. The last
stdout line is the result object; the full record, environment included,
is written to ``.perfbench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import resource
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from tracer import END, LAYERS, NAME, OP, PARENT, START, Tracer, quantile, summarize  # noqa: E402

WORKLOADS = ("wide-trace", "relation-sweep", "cli")
OPERATORS = ("type1", "type2", "type3", "r232")
THETA_STEPS = 16
#: Enough samples that at least ten lie beyond p90.
MIN_SAMPLES = 110
#: An end-to-end run is split into this many segments. Each in-process
#: segment runs in a fresh worker: per-process start-up state (BLAS threads,
#: memory layout) moves op times by up to ~20 %, so one process per run
#: would make the run-to-run spread mostly a coin toss between those states.
SEGMENTS = 4
#: Set-up is sampled in a fresh child this often between ops. Set-up time
#: moves between a fast and a slow state every few seconds on a shared
#: host, so samples spread over the run give a steadier median than a burst.
PROBE_EVERY_S = 3.0
CHILD_TIMEOUT_S = 150
TOL = 1e-9


def close(got: complex, want: complex) -> bool:
    return abs(got - want) <= TOL * max(1.0, abs(want))


def theta_grid():
    import numpy as np

    return [float(t) for t in np.linspace(0.0, np.pi, THETA_STEPS)]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class Child(NamedTuple):
    code: int
    out: str
    err: str
    wall_s: float
    maxrss_mb: float


def run_child(argv, timeout=CHILD_TIMEOUT_S) -> Child:
    """Run one child to completion; returns its output, wall time and peak RSS.

    Reads both pipes with a selector (no helper threads) and reaps the child
    with ``wait4`` to get its own resource usage.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(), cwd=ROOT)
    chunks = {proc.stdout: [], proc.stderr: []}
    killed = False
    with selectors.DefaultSelector() as sel:
        for f in chunks:
            sel.register(f, selectors.EVENT_READ)
        while sel.get_map():
            if not killed and time.perf_counter() - t0 > timeout:
                proc.kill()
                killed = True
            for key, _ in sel.select(timeout=1.0):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        proc.returncode,
        b"".join(chunks[proc.stdout]).decode(),
        b"".join(chunks[proc.stderr]).decode(),
        wall,
        usage.ru_maxrss / 1024.0,
    )


class Op:
    """One op of a round: ``kind`` groups ops of equal cost."""

    def __init__(self, kind: str, **params):
        self.kind = kind
        self.params = params


# --------------------------------------------------------------- workloads


class InProcess:
    """Shared set-up of the two in-process workloads: every catalog
    enhancement on the theta grid, built once before timing."""

    setup_code = (
        "import time, numpy as np, gyblink\n"
        "from gyblink.enhancement import catalog_enhancement\n"
        "[catalog_enhancement(n, float(t)) for n in ('type1','type2','type3') for t in np.linspace(0, np.pi, {steps})]\n"
        "catalog_enhancement('r232')\n"
        "print(time.time(), flush=True)\n"
    ).format(steps=THETA_STEPS)

    def __init__(self, ref):
        import gyblink.braids
        import gyblink.enhancement
        import gyblink.invariant

        self.ref = ref
        self.braids = gyblink.braids
        self.enhancement = gyblink.enhancement
        self.invariant = gyblink.invariant
        self.thetas = theta_grid()
        self.build()

    def build(self):
        """(Re)build the enhancements through the module attribute, so a
        traced rebuild records the operator and tensorops layers."""
        cat = self.enhancement.catalog_enhancement
        self.enh = {(name, i): cat(name, t) for name in OPERATORS[:3] for i, t in enumerate(self.thetas)}
        r232 = cat("r232")
        self.enh.update({("r232", i): r232 for i in range(len(self.thetas))})

    def word(self, n: int, letters) -> object:
        return self.braids.BraidWord(n, tuple(letters))


class WideTrace(InProcess):
    """``trace_invariant`` over the operator x strands x length grid.

    Cells of one cost class form one latency cluster; the per-round repeat
    counts (59 ops) put p50 inside the 1024-dim, 20-letter cluster and p90
    inside the 2048-dim, 20-letter cluster rather than on a gap between two.
    """

    name = "wide-trace"

    @staticmethod
    def repeats(name: str, n: int, length: int) -> int:
        dim = 2 ** (3 + (2 if name == "r232" else 1) * (n - 2))
        return {512: 3, 1024: 5 if length == 20 else 4, 2048: 1}[dim]

    def cells(self):
        return [
            (name, n, length)
            for name, strands in reference.WIDE_STRANDS.items()
            for n in strands
            for length in reference.WIDE_LENGTHS
        ]

    def round(self, rng: random.Random, index: int, quick: bool = False) -> list[Op]:
        ops = []
        for name, n, length in self.cells():
            if quick and n >= 10 or quick and name == "r232" and n >= 6:
                continue
            pool = self.ref["wide"][f"{name}.n{n}.L{length}"]
            for _ in range(1 if quick else self.repeats(name, n, length)):
                letters, value = pool[rng.randrange(len(pool))]
                cut = rng.randrange(length)  # a cyclic rotation conjugates: same link
                ops.append(
                    Op(
                        f"{name}.n{n}.L{length}",
                        name=name,
                        n=n,
                        letters=letters[cut:] + letters[:cut],
                        theta=rng.randrange(len(self.thetas)),
                        want=complex(*value),
                    )
                )
        rng.shuffle(ops)
        return ops

    def run(self, op: Op):
        p = op.params
        s = self.enh[(p["name"], p["theta"])]
        b = self.word(p["n"], p["letters"])
        t0 = time.perf_counter()
        value = self.invariant.trace_invariant(s, b).value
        lat = time.perf_counter() - t0
        if not close(value, p["want"]):
            return lat, f"value {value} != reference {p['want']}"
        return lat, None


class RelationSweep(InProcess):
    """The five relation checks with the ``suite`` and acceptance-test mix.

    Strand counts and word lengths are fixed per op kind, letters and seeds
    are drawn per round; r232 Markov words reach 6 strands (dim 2048) after
    stabilization.
    """

    name = "relation-sweep"
    LENGTHS = (6, 12)
    SKEIN = {"type1": (1.0, 1.0), "type3": (1.0, 2.0**0.5), "r232": (1.0, 2.0**0.5)}

    def kinds(self):
        for name in OPERATORS:
            for n in (2, 3, 4, 5):
                for length in self.LENGTHS:
                    yield "markov", name, (n, length)
        for name in self.SKEIN:
            for n in (2, 3, 4):
                for length in self.LENGTHS:
                    yield "skein", name, (n, length)
        for n in (2, 3, 4):
            for length in self.LENGTHS:
                yield "quartic", "type2", (n, length)
        for name in OPERATORS:
            for n1, n2 in ((1, 2), (2, 2), (3, 3)):
                yield "multiplicativity", name, (n1, n2)
        for n in (2, 3, 4):
            for length in self.LENGTHS:
                yield "cross", "type3/r232", (n, length)

    def round(self, rng: random.Random, index: int, quick: bool = False) -> list[Op]:
        ops = []
        for kind, name, shape in self.kinds():
            if quick and max(shape) > 3:
                continue
            theta = rng.randrange(len(self.thetas))
            if kind == "multiplicativity":
                words = [(n, reference.random_letters(rng, n, 8)) for n in shape]
            else:
                n, length = shape
                words = [(n, reference.random_letters(rng, n, length))]
            ops.append(Op(f"{kind}.{name}.{shape[0]}x{shape[1]}", check=kind, name=name, theta=theta,
                          words=words, seed=rng.randrange(1 << 31)))
        rng.shuffle(ops)
        return ops

    def run(self, op: Op):
        p = op.params
        inv = self.invariant
        words = [self.word(n, letters) for n, letters in p["words"]]
        check = p["check"]
        if check == "cross":
            s3, s232 = self.enh[("type3", p["theta"])], self.enh[("r232", 0)]
        else:
            s = self.enh[(p["name"], p["theta"])]
        t0 = time.perf_counter()
        if check == "markov":
            residual = inv.markov_check(s, words[0], trials=2, seed=p["seed"])
        elif check == "skein":
            residual = inv.skein_check(s, words[0], *self.SKEIN[p["name"]])
        elif check == "quartic":
            residual = inv.quartic_check_type2(s, words[0])
        elif check == "multiplicativity":
            residual = inv.multiplicativity_check(s, words[0], words[1])
        else:
            residual = inv.cross_operator_check(words[0], s3=s3, s232=s232)
        lat = time.perf_counter() - t0
        if not residual <= TOL:
            return lat, f"residual {residual} > {TOL}"
        return lat, None


class Cli:
    """``python -m gyblink.cli`` calls, one subprocess at a time.

    A round is 16 ``compute`` calls (each operator on two catalog links, one
    seeded word on fewer strands and one on the most its cap allows), 3
    ``verify`` calls (operators in rotation, so four rounds verify each
    operator three times) and one malformed braid.
    """

    name = "cli"
    setup_code = "import time, gyblink.cli\nprint(time.time(), flush=True)\n"
    MALFORMED = ("{a} x{b}", "{a} 0 {b}", "{a}.5", "{a},{b}", "{a} --{b}", "0")
    FLOAT = r"(?:[\d.]+(?:e[+-]?\d+)?|nan|inf)"
    VALUE_RE = re.compile(rf"^value \((\w+)\): (-?{FLOAT})([+-]{FLOAT})i$")

    def __init__(self, ref):
        self.ref = ref
        self.thetas = theta_grid()
        self.peak_rss_mb = 0.0

    def round(self, rng: random.Random, index: int, quick: bool = False) -> list[Op]:
        ops = []
        for name in OPERATORS:
            norms = ("raw", "tilde") if name == "type2" else ("raw", "P", "tilde")
            top = reference.CLI_STRANDS[name]
            for source in ("link", "link", "small", "large"):
                if source == "link":
                    link = rng.choice(sorted(reference.LINKS))
                    n, letters = reference.LINKS[link]
                    braid, strands = link, None
                    raw = self.ref["links"][name][link]
                else:
                    pool = [w for w in self.ref["cli_words"][name] if (w[0] == top) == (source == "large")]
                    n, letters, raw = rng.choice(pool)
                    cut = rng.randrange(len(letters))
                    letters = letters[cut:] + letters[:cut]
                    braid, strands = " ".join(map(str, letters)), n
                ops.append(Op("compute", name=name, braid=braid, strands=strands, n=n, letters=tuple(letters),
                              raw=complex(*raw), norm=rng.choice(norms), output=rng.choice(("text", "json")),
                              theta=rng.choice(self.thetas)))
        for i in range(1 if quick else 3):
            name = OPERATORS[(3 * index + i) % len(OPERATORS)]
            ops.append(Op(f"verify.{name}", name=name, output=rng.choice(("text", "json")),
                          theta=rng.choice(self.thetas)))
        form = rng.choice(self.MALFORMED)
        ops.append(Op("malformed", braid=form.format(a=rng.randint(1, 5), b=rng.randint(1, 5)),
                      name=rng.choice(OPERATORS)))
        if quick:
            ops = ops[:16:4] + ops[16:]
        rng.shuffle(ops)
        return ops

    @staticmethod
    def argv(op: Op) -> list[str]:
        p = op.params
        if op.kind == "malformed":
            return ["compute", "--operator", p["name"], "--braid", p["braid"]]
        args = ["compute" if op.kind == "compute" else "verify", "--operator", p["name"], "--output", p["output"]]
        if p["name"] != "r232":
            args += ["--theta", repr(p["theta"])]
        if op.kind == "compute":
            args += ["--braid", p["braid"], "--normalization", p["norm"]]
            if p["strands"] is not None:
                args += ["--strands", str(p["strands"])]
        return args

    def run(self, op: Op, tracer_out: list | None = None):
        argv = self.argv(op)
        if tracer_out is None:
            child = run_child([sys.executable, "-m", "gyblink.cli"] + argv)
            code, out = child.code, child.out
        else:
            child = run_child([sys.executable, str(HERE / "probe.py"), "cli", json.dumps(argv)])
            env = json.loads(child.out) if child.code == 0 else {"code": child.code, "stdout": ""}
            code, out = env["code"], env["stdout"]
            tracer_out.append((child, env))
        self.peak_rss_mb = max(self.peak_rss_mb, child.maxrss_mb)
        return child.wall_s, self.check(op, code, out, child.err)

    def check(self, op: Op, code, out: str, err: str):
        if "Traceback" in err:
            return "traceback on stderr"
        if op.kind == "malformed":
            if code != 2 or out or not err.startswith("error: ") or err.count("\n") != 1:
                return f"malformed braid gave exit {code}, stderr {err!r}"
            return None
        if code != 0:
            return f"exit {code}, stderr {err.strip()!r}"
        p = op.params
        if op.kind == "compute":
            return self.check_compute(p, out)
        return self.check_verify(p, out)

    def expected_value(self, p) -> complex:
        raw = p["raw"]
        if p["norm"] == "P":
            return raw / complex(*self.ref["links"][p["name"]]["unknot"])
        if p["norm"] == "tilde":
            return raw * reference.tilde_factor(p["name"])
        return raw

    def check_compute(self, p, out: str):
        want = self.expected_value(p)
        writhe = sum(1 if g > 0 else -1 for g in p["letters"])
        components = closure_components(p["n"], p["letters"])
        if p["output"] == "json":
            try:
                doc = strict_json(out)
            except ValueError as exc:
                return f"unparsable JSON: {exc}"
            got = complex(doc["value"]["re"], doc["value"]["im"])
            fields = (doc["schema_version"], doc["operator"], doc["strands"], doc["writhe"],
                      doc["components"], doc["normalization"], doc["braid"])
            expect = (1, p["name"], p["n"], writhe, components, p["norm"], " ".join(map(str, p["letters"])))
            if fields != expect:
                return f"fields {fields} != {expect}"
        else:
            lines = out.splitlines()
            m = self.VALUE_RE.match(lines[-1]) if len(lines) == 3 else None
            if m is None or m.group(1) != p["norm"]:
                return f"unexpected text output {out!r}"
            got = complex(float(m.group(2)), float(m.group(3)))
            if f"writhe: {writhe}  components: {components}" not in lines[1]:
                return f"writhe/components line {lines[1]!r}"
        if not close(got, want):
            return f"value {got} != reference {want}"
        return None

    def check_verify(self, p, out: str):
        if p["output"] == "json":
            try:
                doc = strict_json(out)
            except ValueError as exc:
                return f"unparsable JSON: {exc}"
            worst = max(doc["residuals"].values())
            if not (doc["pass"] is True and worst <= TOL and doc["enhancement"]["verdict"] != "failed"):
                return f"verify report {doc}"
        elif not out.splitlines() or not out.splitlines()[-1].startswith("PASS"):
            return f"verify text {out!r}"
        return None


def strict_json(text: str):
    """``json.loads`` that rejects NaN and infinities."""
    def reject(name):
        raise ValueError(f"non-finite constant {name}")

    return json.loads(text, parse_constant=reject)


def closure_components(n: int, letters) -> int:
    """Cycles of the braid's permutation, computed here rather than taken
    from ``gyblink.braids`` so the CLI's ``components`` field is checked."""
    perm = list(range(n))
    for g in letters:
        i = abs(g) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    seen, cycles = set(), 0
    for start in range(n):
        if start not in seen:
            cycles += 1
            j = start
            while j not in seen:
                seen.add(j)
                j = perm[j]
    return cycles


# ------------------------------------------------------------ measurement


def segment(workload, seed: int, index: int, seconds: float, quick: bool) -> dict:
    """One share of an end-to-end run, measured in this process.

    Runs whole rounds while another round of the last one's length still
    fits in ``seconds``, and until this segment's share of MIN_SAMPLES ops
    is done. Set-up is sampled between ops every PROBE_EVERY_S; that time is
    left out of the segment's wall and round times.
    """
    rng = random.Random(f"{workload.name}-{seed}-{index}")
    min_samples = -(-MIN_SAMPLES // SEGMENTS)
    lat, kinds, failures, round_walls, setup = [], [], [], [], []
    warmup = None if isinstance(workload, Cli) else warm_up(workload, seed)
    t0 = last_probe = time.perf_counter()
    paused = 0.0
    while True:
        ops = workload.round(rng, len(round_walls), quick)
        round_start, round_paused = time.perf_counter(), paused
        for op in ops:
            if not quick and time.perf_counter() - last_probe >= PROBE_EVERY_S:
                p0 = time.perf_counter()
                setup.append(setup_seconds(workload))
                last_probe = time.perf_counter()
                paused += last_probe - p0
            try:
                latency, problem = workload.run(op)
            except Exception as exc:  # an unexpected exception is a failed op
                latency, problem = 0.0, f"{type(exc).__name__}: {exc}"
            lat.append(latency)
            kinds.append(op.kind)
            if problem:
                failures.append({"kind": op.kind, "problem": problem, "params": repr(op.params)[:300]})
        round_walls.append(time.perf_counter() - round_start - (paused - round_paused))
        elapsed = time.perf_counter() - t0 - paused
        if quick or (elapsed + round_walls[-1] > seconds and len(lat) >= min_samples):
            break
    return {
        "setup": setup,
        "warmup_ms": warmup,
        "lat": lat,
        "kinds": kinds,
        "failures": failures,
        "wall": elapsed,
        "round_walls": round_walls,
        "peak_rss_mb": workload.peak_rss_mb if isinstance(workload, Cli) else
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def warm_up(workload, seed: int) -> float:
    """One untimed evaluation before a worker's timed loop; returns its
    latency in ms for the record.

    The first BLAS-threaded evaluation in a fresh process sometimes takes
    ~1 s instead of tens of ms (thread start-up). A user of the library pays
    that once per process, not per op; left in the loop it lands on a random
    op of a random segment and moves a run's throughput by a few per cent.
    The ``cli`` workload, where every call is a fresh process, keeps paying it.
    """
    op = workload.round(random.Random(f"warm-up-{seed}"), 0, quick=True)[0]
    t0 = time.perf_counter()
    workload.run(op)
    return (time.perf_counter() - t0) * 1e3


def worker_segment(workload, seed: int, index: int, seconds: float, quick: bool) -> dict:
    """``segment`` in a fresh worker process: every in-process segment gets
    its own interpreter, so a run samples several process start-ups."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload.name, "--seed", str(seed),
            "--seconds", repr(seconds), "--segment", str(index)] + (["--quick"] if quick else [])
    child = run_child(argv)
    if child.code != 0:
        raise RuntimeError(f"worker {index} failed: {child.err.strip()[-2000:]}")
    out = json.loads(child.out.splitlines()[-1])
    out["peak_rss_mb"] = child.maxrss_mb
    return out


def setup_seconds(workload) -> float:
    """One fresh interpreter from spawn to ready (it prints its clock)."""
    t0 = time.time()
    child = run_child([sys.executable, "-c", workload.setup_code])
    if child.code != 0:
        raise RuntimeError(f"set-up child failed: {child.err.strip()}")
    return float(child.out.split()[0]) - t0


def strand_ceiling(seed: int, quick: bool) -> dict:
    argv = [sys.executable, str(HERE / "probe.py"), "ceiling", str(seed)] + (["8"] if quick else [])
    child = run_child(argv)
    if child.code != 0:
        raise RuntimeError(f"strand-ceiling child failed: {child.err.strip()}")
    return json.loads(child.out)


def end_to_end(workload, seed: int, seconds: float, quick: bool):
    """SEGMENTS shares of ``seconds``; set-up is sampled once before them and
    then between ops every PROBE_EVERY_S, so its median spans the run."""
    ceiling = strand_ceiling(seed, quick)
    segments = 1 if quick else SEGMENTS
    run_segment = segment if isinstance(workload, Cli) else worker_segment
    setup = [setup_seconds(workload)]
    parts = [run_segment(workload, seed, index, seconds / segments, quick) for index in range(segments)]
    setup += [x for part in parts for x in part["setup"]]
    lat = [x for part in parts for x in part["lat"]]
    failures = [f for part in parts for f in part["failures"]]
    wall = sum(part["wall"] for part in parts)
    ms = sorted(x * 1e3 for x in lat)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(lat) / wall, "1/s"),
        "op_p50_ms": (quantile(ms, 0.5), "ms"),
        "op_p90_ms": (quantile(ms, 0.9), "ms"),
        "ok_frac": ((len(lat) - len(failures)) / len(lat), "ratio"),
        "peak_rss_mb": (max(part["peak_rss_mb"] for part in parts), "MB"),
        "strand_ceiling": (ceiling["strand_ceiling"], "strands"),
    }
    detail = {
        "samples": len(lat),
        "beyond_p90": sum(1 for x in ms if x > metrics["op_p90_ms"][0]),
        "segments": [{k: part[k] for k in ("wall", "round_walls", "warmup_ms", "peak_rss_mb")} for part in parts],
        "kind_p50_ms": kind_medians([k for part in parts for k in part["kinds"]], lat),
        "setup_samples_s": setup,
        "strand_ceiling_log": ceiling["log"],
    }
    return len(lat), failures, metrics, detail, None


def kind_medians(kinds, lat) -> dict[str, float]:
    """Median latency in ms per op kind."""
    by_kind: dict[str, list] = {}
    for kind, x in zip(kinds, lat):
        by_kind.setdefault(kind, []).append(x * 1e3)
    return {kind: statistics.median(v) for kind, v in sorted(by_kind.items())}


# -------------------------------------------------------------- tracing

def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit; README.md says which end-to-end
    metric each one should move."""
    names = [(f"rep.trace_with_weight.{k}", u) for k, u in
             (("calls", "count"), ("self_ms", "ms"), ("p50_ms", "ms"), ("p90_ms", "ms"), ("self_frac", "ratio"))]
    names += [(f"rep.trace_ms.{cell}", "ms") for cell in wide_cells()]
    names += [("rep.make_context.calls", "count"), ("rep.make_context.refused", "count")]
    names += [("invariant.trace_invariant.calls", "count"), ("invariant.trace_invariant.self_ms", "ms")]
    for check in LAYERS["invariant"][1:]:  # the five relation checks
        names += [(f"invariant.{check}.calls", "count"), (f"invariant.{check}.p50_ms", "ms"),
                  (f"invariant.{check}.self_ms", "ms")]
    names += [(f"braids.{f}.self_ms", "ms") for f in
              ("random_braid", "conjugate", "stabilize", "juxtapose", "resolve_braid")]
    for layer in ("operators", "enhancement", "tensorops"):
        for f in LAYERS[layer]:
            names += [(f"{layer}.{f}.calls", "count"), (f"{layer}.{f}.self_ms", "ms")]
    names += [("cli.import_ms", "ms"), ("cli.main.self_ms", "ms"), ("cli.process_ms", "ms")]
    names += [("traced_wall_ms", "ms"), ("trace_overhead_frac", "ratio")]
    return names


def wide_cells() -> list[str]:
    return [f"{name}.n{n}.L{length}" for name, strands in reference.WIDE_STRANDS.items()
            for n in strands for length in reference.WIDE_LENGTHS]


def traced(workload, seed: int, seconds: float, quick: bool):
    """Each op runs untraced and then again traced, round after round while
    another round fits in ``seconds``; per-layer metrics come from the
    traced calls. Pairing per op, with the order flipped every op, keeps
    drift and the second call's warm allocator from landing on one side."""
    rng = random.Random(f"{workload.name}-{seed}")
    tracer = Tracer()
    kinds, children, failures = {}, [], []
    if isinstance(workload, Cli):
        def run(op, on):
            if not on:
                return workload.run(op)
            index = len(children)
            out = workload.run(op, children)
            base = len(tracer.spans)
            for s in children[-1][1].get("spans", []):
                tracer.spans.append(s[:PARENT] + [s[PARENT] + base if s[PARENT] >= 0 else -1, index] + s[OP + 1:])
            kinds[index] = op.kind
            return out
    else:
        tracer.install()
        counter = iter(range(1 << 62))

        def run(op, on):
            tracer.enabled = on
            if not on:
                return workload.run(op)
            index = next(counter)
            kinds[index] = op.kind
            return tracer.run_op(index, workload.run, op)

        tracer.enabled = True
        tracer.run_op(-1, workload.build)
        # The first evaluation in a process pays BLAS thread start-up; run one
        # untimed so that cost is not booked as tracing overhead.
        tracer.enabled = False
        workload.run(workload.round(random.Random(seed), 0, quick=True)[0])
    walls = {False: 0.0, True: 0.0}
    attempted = rounds = 0
    t_start = time.perf_counter()
    while True:
        ops = workload.round(rng, rounds, quick)
        round_start = time.perf_counter()
        for i, op in enumerate(ops):
            for on in ((False, True), (True, False))[i % 2]:
                t0 = time.perf_counter()
                try:
                    _, problem = run(op, on)
                except Exception as exc:  # an unexpected exception is a failed op
                    problem = f"{type(exc).__name__}: {exc}"
                walls[on] += time.perf_counter() - t0
                if problem:
                    failures.append({"kind": op.kind, "problem": problem, "traced": on})
        attempted += 2 * len(ops)
        rounds += 1
        now = time.perf_counter()
        if quick or now - t_start + (now - round_start) > seconds:
            break
    plain_wall, traced_wall = walls[False], walls[True]
    summary = summarize(tracer.spans)

    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    def q(name, p):
        return quantile(summary.get(name, {}).get("durations_ms", []), p)

    metrics = {}
    units = dict(per_layer_names())
    for name in units:
        base, _, key = name.rpartition(".")
        if name.startswith("rep.trace_ms."):
            cell = name[len("rep.trace_ms."):]
            durs = [(s[END] - s[START]) * 1e3 for s in tracer.spans
                    if s[NAME] == "rep.trace_with_weight" and kinds.get(s[OP]) == cell]
            value = statistics.median(durs) if durs else 0.0
        elif key in ("calls", "self_ms"):
            value = get(base, key)
        elif key == "p50_ms":
            value = q(base, 0.5)
        elif key == "p90_ms":
            value = q(base, 0.9)
        elif name == "rep.make_context.refused":
            value = summary.get("rep.make_context", {}).get("errors", {}).get("ResourceCapError", 0)
        elif name == "rep.trace_with_weight.self_frac":
            value = get("rep.trace_with_weight", "self_ms") / (traced_wall * 1e3)
        elif name == "cli.import_ms":
            value = statistics.median(env["import_ms"] for _, env in children) if children else 0.0
        elif name == "cli.process_ms":
            value = statistics.median(c.wall_s * 1e3 - env["main_ms"] for c, env in children) if children else 0.0
        elif name == "traced_wall_ms":
            value = traced_wall * 1e3
        elif name == "trace_overhead_frac":
            value = traced_wall / plain_wall - 1.0
        metrics[name] = (value, units[name])
    detail = {
        "rounds": rounds,
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "spans": len(tracer.spans),
    }
    return attempted, failures, metrics, detail, tracer.spans


# ------------------------------------------------------------------ output


def environment(seed: int) -> dict:
    import numpy as np

    config = np.show_config(mode="dicts")
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref
        else:
            commit = ref
    return {
        "python": sys.version,
        "numpy": np.__version__,
        "blas": config.get("Build Dependencies", {}),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "seed": seed,
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def cpu_times() -> list[int]:
    """Aggregate CPU jiffies from /proc/stat (empty where it is missing)."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except OSError:
        return []


def steal_frac(before: list[int], after: list[int]) -> float | None:
    """Share of CPU time the hypervisor gave to other guests in between: a
    host-contention reading kept in the record to explain noisy runs."""
    if len(before) < 8 or len(after) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def make_workload(name: str, ref: dict):
    return {"wide-trace": WideTrace, "relation-sweep": RelationSweep, "cli": Cli}[name](ref)


def run_workload(name: str, seed: int, seconds: float, trace: int, quick: bool = False) -> dict:
    workload = make_workload(name, reference.load())
    fn = traced if trace else end_to_end
    cpu_before = cpu_times()
    attempted, failures, metrics, detail, spans = fn(workload, seed, seconds, quick)
    detail["cpu_steal_frac"] = steal_frac(cpu_before, cpu_times())
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{name}-seed{seed}-trace{trace}{'-quick' if quick else ''}"
    record = {"workload": name, "seconds": seconds, "trace": trace, "quick": quick,
              "env": environment(seed), "detail": detail, "failures": failures[:50], "result": result}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if spans is not None:
        Path(f"{stem}-spans.json").write_text(json.dumps(spans))
    return result


def self_test() -> int:
    """Every workload at tiny size, both modes: emitted names must match
    BENCHMARK.json exactly and no op may fail."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    declared_workloads = {w["name"] for w in spec["workloads"]}
    ok = declared_workloads == set(WORKLOADS)
    if not ok:
        print(f"self-test: BENCHMARK.json workloads {sorted(declared_workloads)} != {WORKLOADS}")
    for name in WORKLOADS:
        for trace in (0, 1):
            result = run_workload(name, seed=0, seconds=0, trace=trace, quick=True)
            emitted = set(result["metrics"])
            problems = []
            if emitted != declared[trace]:
                problems.append(f"undeclared {sorted(emitted - declared[trace])}, "
                                f"missing {sorted(declared[trace] - emitted)}")
            if result["failed"] or not result["correct"]:
                problems.append(f"{result['failed']} of {result['attempted']} ops failed")
            print(f"self-test {name} trace={trace}: {'ok' if not problems else 'FAIL ' + '; '.join(problems)}")
            ok = ok and not problems
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="tiny run of every workload and mode")
    parser.add_argument("--segment", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--quick", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "gyblink" / "__init__.py").is_file():
        print(f"error: no gyblink sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.segment is not None:
        workload = make_workload(args.workload, reference.load())
        print(json.dumps(segment(workload, args.seed, args.segment, args.seconds, args.quick)))
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
