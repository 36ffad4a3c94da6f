"""Dense complex linear algebra on tensor-product spaces.

Matrices are numpy ``complex128`` arrays of shape ``(dim, dim)`` acting on
a space of ``n`` factors, each of dimension ``d`` (so ``dim == d**n``).
Basis ordering is lexicographic, first factor most significant, as from
``numpy.kron``; ``label_changes`` reads which factor labels entries change.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PartialTraceError, ShapeError, SingularMatrixError

#: Default absolute tolerance for approximate matrix comparisons.
DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class TensorShape:
    """A tensor-product space: ``n`` factors of dimension ``d``."""

    d: int
    n: int

    def __post_init__(self):
        if self.d < 2 or self.n < 1:
            raise ShapeError(f"factor dimension must be at least 2 and count positive, got {self}")

    @property
    def dim(self) -> int:
        return self.d**self.n

    def check(self, f: np.ndarray) -> None:
        """Raise ShapeError unless ``f`` is square of dimension ``d**n``."""
        if f.ndim != 2 or f.shape != (self.dim, self.dim):
            raise ShapeError(f"expected a {self.dim}x{self.dim} matrix for {self}, got shape {f.shape}")


def as_matrix(entries, dim: int | None = None) -> np.ndarray:
    """Coerce the 2-d array-like ``entries`` to a square complex matrix.

    Non-square input, a flat sequence included, raises ShapeError, and so
    does a side other than ``dim`` when ``dim`` is given.
    """
    a = np.asarray(entries, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    if dim is not None and a.shape[0] != dim:
        raise ShapeError(f"expected dimension {dim}, got {a.shape[0]}")
    return a


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=np.complex128)


def max_abs(a) -> float:
    """Largest absolute entry; the residual norm used throughout.

    A NaN entry anywhere makes the result NaN, and an empty input gives 0.0.
    """
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def num_factors(dim: int, d: int) -> int:
    """Exact log base ``d``; ShapeError if ``dim`` is not a power of ``d``.

    ``d`` is a ``TensorShape`` factor dimension, so at least 2.
    """
    n, x = 0, 1
    while x < dim:
        x *= d
        n += 1
    if x != dim:
        raise ShapeError(f"dimension {dim} is not a power of {d}")
    return n


def label_changes(d: int, tol: float, *mats) -> tuple[np.ndarray, np.ndarray]:
    """Per factor of the ``d**k``-dimensional ``mats``: does an entry above ``tol``
    in magnitude (NaN counts) change its label, and does one keep it? Returns
    ``changes`` and ``keeps``, two boolean arrays of length ``k``."""
    labels = (d,) * num_factors(len(mats[0]), d)
    rows, cols = np.nonzero(~(np.abs(mats) <= tol).all(axis=0))
    same = np.array(np.unravel_index(rows, labels)) == np.array(np.unravel_index(cols, labels))
    return ~same.all(axis=1), same.any(axis=1)


def kron_power(a, p: int) -> np.ndarray:
    """``p``-fold Kronecker power; ``p == 0`` gives the 1x1 identity."""
    if p < 0:
        raise ShapeError(f"Kronecker power wants a nonnegative exponent, got {p}")
    out = identity(1)
    a = as_matrix(a)
    for _ in range(p):
        out = np.kron(out, a)
    return out


def dagger(f) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(f).conj().T.copy()


def mat_inverse(a, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Inverse with a residual check on ``a @ inv - I``; a NaN residual fails.

    Non-finite entries are refused before numpy sees them.
    """
    a = as_matrix(a)
    if not np.isfinite(a).all():
        raise SingularMatrixError("matrix entries must be finite")
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"matrix of dimension {a.shape[0]} is singular") from exc
    if not max_abs(a @ inv - identity(a.shape[0])) <= tol:
        raise SingularMatrixError("inverse residual exceeds tolerance; matrix is numerically singular")
    return inv


def partial_trace_last(f, shape: TensorShape, m: int) -> np.ndarray:
    """Trace out the last ``m`` tensor factors of an operator.

    Args:
        f: square matrix on the space described by ``shape``.
        shape: the factorization ``d**n`` of the domain of ``f``.
        m: number of trailing factors to contract, ``1 <= m < shape.n``.

    Returns:
        A matrix of dimension ``d**(n - m)``.
    """
    f = as_matrix(f)
    shape.check(f)
    if not 1 <= m < shape.n:
        raise PartialTraceError(f"can trace out 1..{shape.n - 1} trailing factors, got m={m}")
    keep = shape.d ** (shape.n - m)
    traced = shape.d**m
    t = f.reshape(keep, traced, keep, traced)
    return np.einsum("albl->ab", t)


def tensor_embed(f, start: int, shape: TensorShape) -> np.ndarray:
    """Embed ``f`` on contiguous factors ``start .. start + span - 1`` (1-based).

    Identity acts on every other factor. The dimension of ``f`` must be a
    power of ``shape.d``; the result has dimension ``shape.dim``.
    """
    f = as_matrix(f)
    span = num_factors(f.shape[0], shape.d)
    if start < 1 or start + span - 1 > shape.n:
        raise ShapeError(f"cannot place a {span}-factor block at position {start} in {shape.n} factors")
    left = identity(shape.d ** (start - 1))
    right = identity(shape.d ** (shape.n - start + 1 - span))
    return np.kron(np.kron(left, f), right)
