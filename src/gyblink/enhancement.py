"""Enhancement data for an operator and the evidence grades behind it.

An enhancement adds a single-factor scaling matrix ``mu`` and two nonzero
scalars ``alpha`` (writhe weight) and ``beta`` (strand weight) to an
operator. Two things make the resulting closed-braid functional a link
invariant: ``mu``'s Kronecker power must commute with the operator, and
the partial-trace defects

    defect(+1) = ptr_m(r  mu^(x)k) - alpha  beta mu^(x)(k-m)
    defect(-1) = ptr_m(r^-1 mu^(x)k) - alpha^-1 beta mu^(x)(k-m)

must be orthogonal, in the trace inner product and suitably padded, to
everything the braid representations produce. The commutation condition
is enforced at construction; the orthogonality evidence is graded by
``enhancement_report`` into one of four verdicts:

* ``strong``: both defects vanish, orthogonality is trivial.
* ``structural``: the operator acts diagonally on its outer factors and
  both defects act off-diagonally on the last factor, which forces every
  paired trace to vanish identically.
* ``sampled-only``: no structural certificate, but sampled braid traces
  against the padded defects all vanish within tolerance.
* ``failed``: a sampled trace is visibly nonzero.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import rep
from .braids import random_braid
from .errors import EnhancementError, ShapeError, SingularMatrixError
from .operators import CATALOG, GybOperator, build_operator, check_outer_diagonal
from .tensorops import (
    DEFAULT_TOL,
    TensorShape,
    as_matrix,
    identity,
    kron_power,
    label_changes,
    mat_inverse,
    max_abs,
    partial_trace_last,
)


@dataclass(frozen=True, eq=False)
class Enhancement:
    """Operator plus ``(mu, alpha, beta)`` with both defects, the trace of ``mu``
    and whether ``mu`` is the identity cached."""

    op: GybOperator
    mu: np.ndarray
    alpha: complex
    beta: complex
    defect_plus: np.ndarray
    defect_minus: np.ndarray

    @cached_property
    def mu_trace(self) -> complex:
        return complex(np.trace(self.mu))

    @cached_property
    def mu_is_identity(self) -> bool:
        return bool(np.array_equal(self.mu, identity(self.op.gtype.d)))


@dataclass(frozen=True)
class EnhancementReport:
    """Evidence summary; ``verdict`` is one of strong, structural,
    sampled-only, failed. ``outer_diagonal_ok`` is None when the operator
    type admits no outer-diagonality notion."""

    condition_i_residual: float
    defect_plus_norm: float
    defect_minus_norm: float
    offdiagonal_ok: bool
    outer_diagonal_ok: bool | None
    sampled_perp_max: float
    verdict: str


def condition_i_residual(op: GybOperator, mu) -> float:
    """Commutator residual of ``mu``'s k-fold Kronecker power with the operator."""
    mk = kron_power(mu, op.gtype.k)
    return max_abs(mk @ op.r - op.r @ mk)


def make_enhancement(op: GybOperator, mu=None, alpha: complex = 1.0, beta: complex = 1.0) -> Enhancement:
    """Validate enhancement data and cache the two defects.

    ``mu`` defaults to the identity. Raises EnhancementError when ``mu`` is
    not finite or not invertible, a scalar is zero or not finite, or the
    commutation residual is not within ``DEFAULT_TOL`` (``1e-9``).
    """
    g = op.gtype
    mu = identity(g.d) if mu is None else as_matrix(mu, g.d)
    try:
        mat_inverse(mu, DEFAULT_TOL)
    except SingularMatrixError as exc:
        raise EnhancementError("the scaling matrix must be finite and invertible") from exc
    alpha, beta = complex(alpha), complex(beta)
    if not (alpha and beta and cmath.isfinite(alpha) and cmath.isfinite(beta)):
        raise EnhancementError(f"the scalar weights must be finite and nonzero, got {alpha} and {beta}")
    res = condition_i_residual(op, mu)
    if not res <= DEFAULT_TOL:
        raise EnhancementError(
            f"the scaling matrix does not commute with the operator (residual {res:.3e})"
        )
    mk = kron_power(mu, g.k)
    rest = kron_power(mu, g.k - g.m)
    shape = TensorShape(g.d, g.k)
    plus = partial_trace_last(op.r @ mk, shape, g.m) - alpha * beta * rest
    minus = partial_trace_last(op.r_inv @ mk, shape, g.m) - beta / alpha * rest
    return Enhancement(op, mu, alpha, beta, plus, minus)


def acts_offdiagonally_on_last(g, shape: TensorShape, tol: float = DEFAULT_TOL) -> bool:
    """Whether every entry of ``g`` with equal last-factor indices vanishes."""
    g = as_matrix(g)
    shape.check(g)
    _, keeps = label_changes(shape.d, tol, g)
    return not keeps[-1]


def sampled_perpendicularity(s: Enhancement, n: int, seed: int = 0) -> float:
    """Largest sampled trace against the padded defects on ``n`` strands.

    Pads each defect with ``mu`` factors to the full representation space,
    then measures ``|tr(rho(b) . pad)|`` over 100 seeded random braid words
    of length 1..12 for both defect signs. A NaN trace makes the result NaN.
    """
    if n < 2:
        raise ShapeError(f"sampling needs at least 2 strands, got {n}")
    g = s.op.gtype
    ctx = rep.make_context(s.op, n)
    pads = [
        [(s.mu, 1)] * (g.m * (n - 1)) + [(dft, g.k - g.m)]
        for dft in (s.defect_plus, s.defect_minus)
    ]
    rng = np.random.default_rng(seed)
    words = [random_braid(n, int(rng.integers(1, 13)), rng) for _ in range(100)]
    return max_abs([abs(tr) for blocks in pads for tr in rep.traces(ctx, words, blocks)])


def enhancement_report(s: Enhancement, tol: float = DEFAULT_TOL, seed: int = 0) -> EnhancementReport:
    """Grade the orthogonality evidence for an enhancement.

    Runs the structural checks and the sampled check (100 words on each of
    2, 3 and 4 strands) and combines them into a verdict; see the module
    docstring for the grading order.
    """
    g = s.op.gtype
    cond = condition_i_residual(s.op, s.mu)
    plus_norm = max_abs(s.defect_plus)
    minus_norm = max_abs(s.defect_minus)
    dshape = TensorShape(g.d, g.k - g.m)
    offdiag = acts_offdiagonally_on_last(s.defect_plus, dshape, tol) and acts_offdiagonally_on_last(
        s.defect_minus, dshape, tol
    )
    outer = check_outer_diagonal(s.op, tol)
    sampled = max_abs([sampled_perpendicularity(s, n, seed=seed) for n in (2, 3, 4)])
    if plus_norm <= tol and minus_norm <= tol:
        verdict = "strong"
    elif outer is True and offdiag:
        verdict = "structural"
    elif sampled <= tol:
        verdict = "sampled-only"
    else:
        verdict = "failed"
    return EnhancementReport(cond, plus_norm, minus_norm, offdiag, outer, sampled, verdict)


def catalog_enhancement(name: str, theta: float = 0.0) -> Enhancement:
    """Build a catalog operator together with its published weights."""
    if name not in CATALOG:
        raise EnhancementError(f"no catalog enhancement named {name!r}")
    entry = CATALOG[name]
    return make_enhancement(build_operator(name, theta), None, entry.alpha, entry.beta)
