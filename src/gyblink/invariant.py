"""Link invariants of closed braids and checkers for their relations.

The raw invariant of a braid ``b`` on ``n`` strands under an enhancement
``s`` is

    alpha^(-writhe(b)) beta^(-n) tr(rho(b) . mu^(x)N)

with ``N`` the number of represented factors. Its value depends only on
the link the closure of ``b`` presents, which is what ``markov_check``
probes numerically. Two derived normalizations are available: ``P``
rescales so the unknot maps to 1 (catalog entries with a ``p_factor``),
and ``tilde`` rescales by a power of ``tr(mu)`` so split unions multiply.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .braids import BraidWord, compose, conjugate, juxtapose, random_braid, stabilize, writhe
from .enhancement import Enhancement, catalog_enhancement
from .errors import GybError, ShapeError
from .operators import CATALOG
from .rep import make_context, trace_with_weight, traces
from .tensorops import max_abs


@dataclass(frozen=True)
class InvariantResult:
    """One evaluated invariant with enough context to reproduce it."""

    value: complex
    operator_id: str
    theta: float | None
    braid: BraidWord
    writhe: int
    normalization: str


def _power(z: complex, n: int, name: str) -> complex:
    # Python's complex power raises ZeroDivisionError or OverflowError, or
    # returns NaN, once z**|n| leaves the float range
    try:
        p = z**n
    except (ZeroDivisionError, OverflowError):
        p = complex("nan")
    if not cmath.isfinite(p):
        raise GybError(f"{name}^{n} is not a finite number for {name} = {z}")
    return p


def _finite(value: complex) -> complex:
    value = complex(value)
    if not cmath.isfinite(value):
        raise GybError(f"the invariant {value} is not a finite number")
    return value


def _weight(s: Enhancement, ctx) -> list | None:
    # the weight blocks of mu on every factor, None for the identity
    return None if s.mu_is_identity else [(s.mu, 1)] * ctx.factors


def _value(s: Enhancement, b: BraidWord, w: int, tr: complex) -> complex:
    # the raw invariant of b, of writhe w, from its weighted trace
    return _finite(_power(s.alpha, -w, "alpha") * _power(s.beta, -b.strands, "beta") * complex(tr))


def trace_invariant(s: Enhancement, b: BraidWord, allow_large: bool = False) -> InvariantResult:
    """Evaluate the raw invariant of the closure of ``b``.

    The weighted trace comes from ``rep.trace_with_weight``; the ``rep``
    module docstring describes its two evaluators, the size cap, the
    ResourceCapError raised past it and what ``allow_large`` runs instead.
    """
    ctx = make_context(s.op, b.strands)
    tr = trace_with_weight(ctx, b, _weight(s, ctx), allow_large)
    w = writhe(b)
    return InvariantResult(_value(s, b, w, tr), s.op.op_id, s.op.theta, b, w, "raw")


def _invariant_values(s: Enhancement, words) -> list[complex]:
    # The raw invariant of each word, all on one strand count, from one call
    # of rep.traces. If that call raises, the words are taken one at a time,
    # so the error is the one evaluating them in turn raises first.
    ctx = make_context(s.op, words[0].strands)
    try:
        trs = traces(ctx, words, _weight(s, ctx))
    except GybError:
        return [trace_invariant(s, b).value for b in words]
    return [_value(s, b, writhe(b), tr) for b, tr in zip(words, trs)]


def normalized_invariant(s: Enhancement, b: BraidWord, allow_large: bool = False) -> InvariantResult:
    """Unknot-normalized value; only defined where ``CATALOG`` has a ``p_factor``."""
    factor = CATALOG[s.op.op_id].p_factor if s.op.op_id in CATALOG else None
    if factor is None:
        raise GybError(f"no unknot normalization is known for operator {s.op.op_id!r}")
    raw = trace_invariant(s, b, allow_large)
    return InvariantResult(raw.value * factor, raw.operator_id, raw.theta, b, raw.writhe, "P")


def _split_factor(s: Enhancement) -> complex:
    # tr(mu)^(2m - k), the factor a split union picks up
    g = s.op.gtype
    if s.mu_trace == 0 and g.k > 2 * g.m:
        raise GybError(f"tr(mu) is 0, so its power {2 * g.m - g.k} in the tilde normalization is undefined")
    return _power(s.mu_trace, 2 * g.m - g.k, "tr(mu)")


def multiplicative_invariant(s: Enhancement, b: BraidWord, allow_large: bool = False) -> InvariantResult:
    """Rescaling by tr(mu)^(2m - k); multiplicative under split union."""
    factor = _split_factor(s)
    raw = trace_invariant(s, b, allow_large)
    return InvariantResult(_finite(raw.value * factor), raw.operator_id, raw.theta, b, raw.writhe, "tilde")


def _with_front_letter(b: BraidWord, g: int) -> BraidWord:
    return compose(BraidWord(b.strands, (g,)), b)


def skein_check(s: Enhancement, b: BraidWord, x: complex = 1.0, y: complex = 1.0) -> float:
    """Residual of ``x T(+crossing) + x^-1 T(-crossing) - y T(bare)``.

    The three braids differ by a first-generator letter put in front of
    ``b``, so their closures form a crossing triple at that site.
    """
    if b.strands < 2:
        raise ShapeError("a crossing triple needs at least 2 strands")
    tp, tm, t0 = _invariant_values(s, [_with_front_letter(b, 1), _with_front_letter(b, -1), b])
    return abs(x * tp + tm / x - y * t0)


def quartic_check_type2(s: Enhancement, b: BraidWord) -> float:
    """Residual of the four-term crossing relation of the type2 family:
    T(++) - T(+) + T(bare) - T(-) with crossings stacked in front of ``b``.
    """
    if s.op.op_id != "type2":
        raise GybError(f"the four-term crossing relation is specific to type2, got {s.op.op_id!r}")
    if b.strands < 2:
        raise ShapeError("the crossing relation needs at least 2 strands")
    plus = _with_front_letter(b, 1)
    t2, t1, t0, tm = _invariant_values(s, [_with_front_letter(plus, 1), plus, b, _with_front_letter(b, -1)])
    return abs(t2 - t1 + t0 - tm)


def markov_check(s: Enhancement, b: BraidWord, trials: int = 10, seed: int = 0) -> float:
    """Largest deviation of the invariant under moves that fix the closure.

    Conjugates ``b`` by ``trials`` seeded random words and applies both
    stabilizations; returns the largest absolute difference from the base
    value, NaN if any difference is NaN.
    """
    rng = np.random.default_rng(seed)
    conjugates = [conjugate(b, random_braid(b.strands, int(rng.integers(0, 7)), rng)) for _ in range(trials)]
    # the conjugates share the base's strand count, the stabilizations one more
    base, *moved = _invariant_values(s, [b, *conjugates])
    moved += _invariant_values(s, [stabilize(b, sign) for sign in (1, -1)])
    return max_abs([abs(value - base) for value in moved])


def multiplicativity_check(s: Enhancement, b1: BraidWord, b2: BraidWord) -> float:
    """Residual of T(split union) = tr(mu)^(2m - k) T(b1) T(b2)."""
    factor = _split_factor(s)
    t12 = trace_invariant(s, juxtapose(b1, b2)).value
    t1 = trace_invariant(s, b1).value
    t2 = trace_invariant(s, b2).value
    return abs(t12 - factor * t1 * t2)


def cross_operator_check(b: BraidWord, s3: Enhancement | None = None, s232: Enhancement | None = None) -> float:
    """Residual of the identity (1/4) T_type3 = T_r232 on the same closure.

    Prebuilt enhancements can be passed to avoid rebuilding in loops; the
    defaults are ``type3`` at theta 0 and ``r232``.
    """
    s3 = catalog_enhancement("type3") if s3 is None else s3
    s232 = catalog_enhancement("r232") if s232 is None else s232
    v3 = trace_invariant(s3, b).value
    v232 = trace_invariant(s232, b).value
    return abs(0.25 * v3 - v232)
