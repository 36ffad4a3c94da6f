"""Command-line interface.

Three commands: ``compute`` evaluates an invariant of one closed braid,
``verify`` checks an operator (and, for catalog entries, its enhancement
evidence), ``suite`` sweeps the algebraic relations over seeded random
braids. Exit codes: 0 success, 1 verification failure, 2 usage or parse
error, 3 resource cap.

Each command returns its exit code, a JSON payload and the lines of its
text report; ``main`` alone prints, adding ``schema_version`` to the
payload, and maps a ``GybError`` to exit 2 (exit 3 for a resource cap).
JSON output is canonical (sorted keys, no spaces), so identical inputs
with identical seeds produce byte-identical bytes.
``verify`` and ``suite`` read their default tolerance from
``GYBLINK_TOLERANCE`` when set.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import warnings

import numpy as np

from .braids import LINKS, closure_components, format_braid, integer, load_catalog_file, random_braid, resolve_braid
from .enhancement import catalog_enhancement, enhancement_report, make_enhancement
from .errors import GybError, ResourceCapError
from .invariant import (
    cross_operator_check,
    markov_check,
    multiplicative_invariant,
    multiplicativity_check,
    normalized_invariant,
    quartic_check_type2,
    skein_check,
    trace_invariant,
)
from .operators import (
    CATALOG,
    build_operator,
    check_outer_diagonal,
    parse_scalar,
    unitarity_residual,
    verify_far_commutativity,
    verify_gybe,
)
from .tensorops import DEFAULT_TOL, max_abs

SCHEMA_VERSION = 1


def _resolve_tolerance(args) -> float:
    # --tolerance wins over GYBLINK_TOLERANCE; an error quotes the text given
    source, text = "--tolerance", args.tolerance
    if text is None:
        source, text = "GYBLINK_TOLERANCE", os.environ.get("GYBLINK_TOLERANCE", DEFAULT_TOL)
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol >= 0):
        raise GybError(f"{source} must be a finite non-negative number, got {text!r}")
    return tol


def _seed(text: str) -> int:
    # numpy's generators take only non-negative integer seeds
    try:
        if (seed := integer(text)) >= 0:
            return seed
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")


def _dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _fmt_value(z: complex) -> str:
    return f"{z.real:.10g}{z.imag:+.10g}i"


def _ignored(options, what: str) -> None:
    for option in options:
        print(f"warning: {option} is ignored for {what}", file=sys.stderr)


def _operator_line(payload) -> str:
    theta = "-" if payload["theta"] is None else f"{payload['theta']:.10g}"
    return f"operator: {payload['operator']}  theta: {theta}"


def _verdict(payload, lines, tol: float, ok: bool):
    """Close a ``verify`` or ``suite`` result with its tolerance and pass line."""
    payload.update({"tolerance": tol, "pass": ok})
    lines.append(f"{'PASS' if ok else 'FAIL'} (tolerance {tol:g})")
    return (0 if ok else 1), payload, lines


def _resolve(name: str, theta: float | None, alpha: str | None, beta: str | None):
    """Build operator ``name`` at ``theta`` (None means 0) and enhance it.

    A catalog id takes its published weights, any other operator the given
    ``alpha`` and ``beta``; without weights the enhancement is None.
    Warns once for each given value that the result does not read.
    """
    if theta is not None and not math.isfinite(theta):
        raise GybError(f"--theta must be a finite number, got {theta}")
    at = 0.0 if theta is None else theta
    given = [key for key, value in (("alpha", alpha), ("beta", beta)) if value is not None]
    if name in CATALOG:
        s = catalog_enhancement(name, at)
        op, unread = s.op, ["/".join(given)] if given else []
    else:
        op = build_operator(name, at)
        s = make_enhancement(op, None, parse_scalar(alpha), parse_scalar(beta)) if len(given) == 2 else None
        unread = []
    if theta is not None and op.theta is None:
        unread.insert(0, "theta")
    _ignored(unread, f"operator {name}")
    return op, s


def cmd_compute(args):
    _, s = _resolve(args.operator, args.theta, args.alpha, args.beta)
    if s is None:
        raise GybError("custom operators need explicit --alpha and --beta weights")
    catalog = dict(LINKS)
    if args.catalog_file:
        catalog.update(load_catalog_file(args.catalog_file))
    b = resolve_braid(args.braid, args.strands, catalog)
    if args.strands not in (None, b.strands):
        _ignored(["strands"], f"catalog link {args.braid.strip()} on {b.strands} strands")
    invariant = {"raw": trace_invariant, "P": normalized_invariant, "tilde": multiplicative_invariant}
    result = invariant[args.normalization](s, b, args.allow_large)
    payload = {
        "operator": result.operator_id,
        "theta": result.theta,
        "braid": format_braid(b),
        "strands": b.strands,
        "writhe": result.writhe,
        "components": closure_components(b),
        "value": {"re": result.value.real, "im": result.value.imag},
        "normalization": result.normalization,
    }
    lines = [
        _operator_line(payload),
        f"braid: {format_braid(b) or '(identity)'}  strands: {b.strands}"
        f"  writhe: {result.writhe}  components: {payload['components']}",
        f"value ({result.normalization}): {_fmt_value(result.value)}",
    ]
    return 0, payload, lines


def cmd_verify(args):
    tol = _resolve_tolerance(args)
    op, s = _resolve(args.operator, args.theta, None, None)
    g = op.gtype
    checks = {
        "unitarity": unitarity_residual(op),
        "braid_relation": verify_gybe(op),
        "far_commutation": verify_far_commutativity(op),
    }
    for key, value in checks.items():
        if not math.isfinite(value):
            raise GybError(f"the {key} residual is {value}: the operator's entries overflow a float")
    outer = check_outer_diagonal(op, tol)
    report = None if s is None else enhancement_report(s, tol, seed=args.seed)
    ok = checks["braid_relation"] <= tol and checks["far_commutation"] <= tol
    if report is not None:
        ok = ok and checks["unitarity"] <= tol and report.verdict != "failed"
    payload = {
        "operator": op.op_id,
        "theta": op.theta,
        "gtype": [g.d, g.k, g.m],
        "residuals": checks,
        "outer_diagonal": outer,
    }
    lines = [f"{_operator_line(payload)}  type: ({g.d},{g.k},{g.m})"]
    lines += [f"{key} residual: {value:.3e}" for key, value in checks.items()]
    if outer is not None:
        lines.append(f"outer diagonal: {'yes' if outer else 'no'}")
    if report is not None:
        payload["enhancement"] = {
            "commutation_residual": report.condition_i_residual,
            "defect_plus_norm": report.defect_plus_norm,
            "defect_minus_norm": report.defect_minus_norm,
            "defects_offdiagonal": report.offdiagonal_ok,
            "sampled_trace_max": report.sampled_perp_max,
            "verdict": report.verdict,
        }
        lines += [
            f"defect norms: {report.defect_plus_norm:.3e} / {report.defect_minus_norm:.3e}",
            f"defects off-diagonal on last factor: {'yes' if report.offdiagonal_ok else 'no'}",
            f"sampled trace max: {report.sampled_perp_max:.3e}",
            f"verdict: {report.verdict}",
        ]
    return _verdict(payload, lines, tol, ok)


def _suite_rows(names, trials: int, seed: int):
    rng = np.random.default_rng(seed)
    rows, enhanced = [], {}

    def row(label: str, relation: str, check) -> None:
        # each trial draws its words from rng as it runs; the row keeps the largest residual
        rows.append((label, relation, max_abs([check() for _ in range(trials)])))

    for name in names:
        s = enhanced[name] = catalog_enhancement(name, 0.4)
        row(name, "markov",
            lambda: markov_check(s, _random_word(rng, 2, 4, 8), trials=2, seed=int(rng.integers(1 << 31))))
        y = CATALOG[name].skein_y
        if y is None:
            row(name, "quartic", lambda: quartic_check_type2(s, _random_word(rng, 2, 4, 8)))
        else:
            row(name, "skein", lambda: skein_check(s, _random_word(rng, 2, 4, 8), 1.0, y))
        row(name, "multiplicativity",
            lambda: multiplicativity_check(s, _random_word(rng, 1, 3, 6), _random_word(rng, 1, 3, 6)))
    if "type3" in enhanced and "r232" in enhanced:
        s3, s232 = enhanced["type3"], enhanced["r232"]
        row("type3/r232", "cross_operator", lambda: cross_operator_check(_random_word(rng, 2, 4, 8), s3=s3, s232=s232))
    return rows


def _random_word(rng, n_lo: int, n_hi: int, max_len: int):
    n = int(rng.integers(n_lo, n_hi + 1))
    return random_braid(n, int(rng.integers(1, max_len + 1)), rng)


def cmd_suite(args):
    tol = _resolve_tolerance(args)
    if args.trials < 1:
        raise GybError(f"--trials must be at least 1, got {args.trials}")
    names = [args.operator] if args.operator else list(CATALOG)
    for name in names:
        if name not in CATALOG:
            raise GybError(f"suite runs on catalog operators only, got {name!r}")
    rows = _suite_rows(names, args.trials, args.seed)
    payload = {
        "trials": args.trials,
        "seed": args.seed,
        "relations": [{"operator": op, "relation": rel, "residual": res} for op, rel, res in rows],
    }
    lines = [f"{op:12s} {rel:18s} max residual {res:.3e}" for op, rel, res in rows]
    return _verdict(payload, lines, tol, all(residual <= tol for _, _, residual in rows))


class _Parser(argparse.ArgumentParser):
    # A bad option ends in one "error:" line, as every other bad input does,
    # not argparse's usage block; subparsers are made of this class too.
    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gyblink",
        description="Link invariants from enhanced generalized Yang-Baxter operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    compute = sub.add_parser("compute", help="evaluate an invariant of one closed braid")
    verify = sub.add_parser("verify", help="check operator identities and enhancement evidence")
    suite = sub.add_parser("suite", help="sweep the invariant relations over random braids")

    for p in (compute, verify, suite):
        p.add_argument("--operator", required=p is not suite,
                       help=f"catalog id ({', '.join(CATALOG)}) or custom:<path>")
        p.add_argument("--output", choices=("text", "json"), default="text")
    for p in (compute, verify):
        p.add_argument("--theta", type=float, default=None, help="family parameter, default 0")
    for p in (verify, suite):
        p.add_argument("--tolerance", default=None,
                       help=f"absolute tolerance (default from GYBLINK_TOLERANCE or {DEFAULT_TOL:g})")
        p.add_argument("--seed", type=_seed, default=0)

    compute.add_argument("--braid", required=True, help="braid word text or a catalog link name")
    compute.add_argument("--strands", type=integer, default=None)
    compute.add_argument("--normalization", choices=("raw", "P", "tilde"), default="raw")
    compute.add_argument("--catalog-file", default=None, help="extra links, one name<TAB>strands<TAB>word per line")
    compute.add_argument("--alpha", default=None, help="writhe weight for custom operators, e.g. '0.707+0.707i'")
    compute.add_argument("--beta", default=None, help="strand weight for custom operators")
    compute.add_argument("--allow-large", action="store_true", help="when no evaluator fits the array cap, run the "
                         "one with the smallest largest array instead of refusing; a dimension that overflows a "
                         "float is still refused")
    suite.add_argument("--trials", type=integer, default=25, help="random braids per relation")

    compute.set_defaults(func=cmd_compute)
    verify.set_defaults(func=cmd_verify)
    suite.set_defaults(func=cmd_suite)
    return parser


def _join_values(argv: list[str]) -> list[str]:
    # "--theta -2e-1" as "--theta=-2e-1": argparse takes "-2e-1" for an option.
    # A prefix of a name ("--thet") is joined too; argparse resolves it, or
    # names it ambiguous, in the joined form as it would in the split one.
    out, valued = [], ("--theta", "--tolerance", "--alpha", "--beta")
    for token in argv:
        prev = out[-1] if out else ""
        if len(prev) > 2 and any(name.startswith(prev) for name in valued) \
                and token.startswith("-") and not token.startswith("--"):
            token = out.pop() + "=" + token
        out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_values(sys.argv[1:] if argv is None else list(argv)))
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        # one line per warning, without the library's file and source line;
        # numpy's floating-point warnings stay off: a non-finite result is an error
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            code, payload, lines = args.func(args)
        except GybError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3 if isinstance(exc, ResourceCapError) else 2
    print(_dumps({"schema_version": SCHEMA_VERSION, **payload}) if args.output == "json" else "\n".join(lines))
    return code


def run() -> None:
    code = main()
    # the full collections at interpreter exit skip frozen objects, and walking
    # all that numpy and gyblink made took about a tenth of a short call
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    run()
