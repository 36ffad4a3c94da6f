"""The built-in generalized Yang-Baxter operator catalog and validity checks.

An operator of type ``(d, k, m)`` is an invertible matrix on ``k`` factors
of dimension ``d``. It induces braid-group representations by acting on
``k`` contiguous factors at strides of ``m``, which is consistent exactly
when the braid relation and far commutativity hold for those embeddings;
``verify_gybe`` and ``verify_far_commutativity`` measure both residuals.

Catalog entries: three one-parameter unitary families of type (2, 3, 1),
``type1``/``type2``/``type3``, each a direct sum of two 4x4 blocks scaled
by 1/sqrt(2), and one fixed type (2, 3, 2) operator ``r232``. ``CATALOG``
states each entry's builder and published invariant data once.
"""

from __future__ import annotations

import cmath
import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .braids import integer, read_lines
from .errors import GybError, OperatorFileError, ShapeError
from .tensorops import (
    DEFAULT_TOL,
    TensorShape,
    as_matrix,
    dagger,
    identity,
    label_changes,
    mat_inverse,
    max_abs,
    tensor_embed,
)

_SQ2 = np.sqrt(2.0)


@dataclass(frozen=True)
class GybType:
    """Shape data ``(d, k, m)``: factor dimension, span, and stride."""

    d: int
    k: int
    m: int

    def __post_init__(self):
        if self.d < 2 or self.k < 1 or self.m < 1:
            raise ShapeError(f"type parameters must be positive with d >= 2, got {self}")
        if self.m >= self.k:
            raise ShapeError(f"stride must be smaller than span, got {self}")

    @property
    def dim(self) -> int:
        return self.d**self.k


@dataclass(frozen=True, eq=False)
class GybOperator:
    """An invertible operator together with its cached inverse.

    ``theta``: the catalog families' parameter, else None. ``moved``: the offsets
    among the ``k`` factors whose label a nonzero entry of ``r`` or ``r_inv``
    changes (``label_changes`` at tolerance 0).
    """

    gtype: GybType
    r: np.ndarray
    r_inv: np.ndarray
    op_id: str
    theta: float | None = None
    moved: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        changes, _ = label_changes(self.gtype.d, 0.0, self.r, self.r_inv)
        object.__setattr__(self, "moved", tuple(int(j) for j in np.flatnonzero(changes)))


def _checked_theta(theta: float) -> float:
    theta = float(theta)
    # the matrices hold exp(2i theta), which is NaN once 2 theta overflows
    if not math.isfinite(2 * theta):
        raise GybError(f"theta must be a finite number below 2**1023 in magnitude, got {theta}")
    if not 0.0 <= theta <= np.pi:
        warnings.warn(
            f"theta={theta} lies outside [0, pi]; the matrices stay well defined",
            RuntimeWarning,
            stacklevel=4,  # the caller of build_type1/2/3, past _family
        )
    return theta


def _finish(op_id: str, theta: float | None, gtype: GybType, r: np.ndarray) -> GybOperator:
    return GybOperator(gtype, r, mat_inverse(r, tol=1e-12), op_id, theta)


def _family(op_id: str, theta: float, blocks: Callable[[complex, complex], tuple]) -> GybOperator:
    # 8x8 direct sum over 1/sqrt(2): the first 4x4 block of blocks(e^{i theta},
    # e^{2i theta}) on the first four lexicographic basis vectors (first
    # factor fixed to its first state), the second block on the rest
    t = _checked_theta(theta)
    a, b = blocks(np.exp(1j * t), np.exp(2j * t))
    r = np.zeros((8, 8), dtype=np.complex128)
    r[:4, :4] = a
    r[4:, 4:] = b
    return _finish(op_id, t, GybType(2, 3, 1), r / _SQ2)


def build_type1(theta: float = 0.0) -> GybOperator:
    """First (2, 3, 1) family; unitary for every theta."""
    return _family("type1", theta, lambda e1, e2: (
        [[1, 0, 1, 0],
         [0, 1j, 0, e1],
         [-1j, 0, 1j, 0],
         [0, -1j / e1, 0, 1]],
        [[1j, 0, e1, 0],
         [0, 1, 0, -e2],
         [-1j / e1, 0, 1, 0],
         [0, 1j / e2, 0, 1j]],
    ))


def build_type2(theta: float = 0.0) -> GybOperator:
    """Second (2, 3, 1) family."""
    return _family("type2", theta, lambda e1, e2: (
        [[1, 0, 1, 0],
         [0, 1j, 0, e1],
         [-1, 0, 1, 0],
         [0, 1 / e1, 0, 1j]],
        [[1j, 0, e1, 0],
         [0, 1, 0, -e2],
         [1 / e1, 0, 1j, 0],
         [0, 1 / e2, 0, 1]],
    ))


def build_type3(theta: float = 0.0) -> GybOperator:
    """Third (2, 3, 1) family; satisfies r + r^-1 = sqrt(2) id."""
    return _family("type3", theta, lambda e1, e2: (
        [[1, 0, 1, 0],
         [0, 1, 0, e1],
         [-1, 0, 1, 0],
         [0, -1 / e1, 0, 1]],
        [[1, 0, -e1, 0],
         [0, 1, 0, -e2],
         [1 / e1, 0, 1, 0],
         [0, 1 / e2, 0, 1]],
    ))


def build_r232() -> GybOperator:
    """The fixed (2, 3, 2) operator; no family parameter."""
    j = np.zeros((4, 4), dtype=np.complex128)
    j[0, 3] = j[1, 2] = j[2, 1] = j[3, 0] = 1
    eye4 = identity(4)
    r = np.block([[eye4, j], [-j, eye4]]) / _SQ2
    return _finish("r232", None, GybType(2, 3, 2), r)


@dataclass(frozen=True)
class CatalogEntry:
    """The published data of one catalog operator: its builder (of theta),
    the enhancement weights with the identity ``mu``, the factor that maps
    the unknot to 1 (None: no such normalization) and the ``y`` of
    ``T(+) + T(-) = y T(0)`` (None: ``type2``'s four-term relation)."""

    build: Callable[[float], GybOperator]
    alpha: complex
    beta: complex
    p_factor: complex | None
    skein_y: complex | None


CATALOG: dict[str, CatalogEntry] = {
    "type1": CatalogEntry(build_type1, np.exp(1j * np.pi / 4), 1.0, 0.25, 1.0),
    "type2": CatalogEntry(build_type2, np.exp(1j * np.pi / 4), 1.0, None, None),
    "type3": CatalogEntry(build_type3, 1.0, np.sqrt(2.0), 1.0 / (2.0 * _SQ2), _SQ2),
    "r232": CatalogEntry(lambda theta: build_r232(), 1.0, 2.0 * np.sqrt(2.0), _SQ2, _SQ2),
}


def load_custom(matrix, gtype: GybType, op_id: str = "custom") -> GybOperator:
    """Wrap a user matrix as an operator of the given type.

    Only squareness against ``gtype.dim`` and invertibility are enforced
    here; whether the matrix actually satisfies the braid-consistency
    identities is up to the verification functions.
    """
    r = as_matrix(matrix)
    if r.shape[0] != gtype.dim:
        raise ShapeError(f"matrix dimension {r.shape[0]} does not match {gtype} (wants {gtype.dim})")
    return GybOperator(gtype, r, mat_inverse(r), op_id, None)


def parse_scalar(text: str) -> complex:
    """Parse ``a+bi`` style complex scalars; plain reals also accepted."""
    tok = text.strip().replace(" ", "")
    try:
        return complex(tok.replace("i", "j"))
    except ValueError:
        raise OperatorFileError(f"bad complex scalar {tok!r}") from None


def format_scalar(z: complex) -> str:
    z = complex(z)
    return f"{z.real:.17g}{z.imag:+.17g}i"


def read_operator_file(path) -> GybOperator:
    """Read an operator file.

    Layout: first non-blank line is ``d k m``; the next ``d**k`` lines each
    hold ``d**k`` whitespace-separated finite complex entries in ``a+bi``
    form, one matrix row per line; ``d k m`` are ASCII integers. Text from ``#``
    to the end of a line is a comment. A file that cannot be read or is not
    UTF-8 (a leading byte-order mark is dropped) raises OperatorFileError.
    """
    numbered = enumerate(read_lines(path, OperatorFileError, "operator files"), start=1)
    lines = [(n, toks) for n, ln in numbered if (toks := ln.split("#", 1)[0].split())]
    if not lines:
        raise OperatorFileError(f"{path}: empty operator file")
    lineno, head = lines[0]
    try:
        d, k, m = (integer(x) for x in head)
    except ValueError:
        raise OperatorFileError(f"{path}:{lineno}: first line must be 'd k m', got {' '.join(head)!r}") from None
    try:
        gtype = GybType(d, k, m)
    except ShapeError as exc:
        raise OperatorFileError(f"{path}:{lineno}: {exc}") from None
    # d^k >= 2^((bits of d - 1) k): past 2^64 no file holds that many rows,
    # and d^k may take long to build and be too long to print
    if (d.bit_length() - 1) * k >= 64:
        raise OperatorFileError(f"{path}: expected {d}^{k} matrix rows, found {len(lines) - 1}")
    dim = gtype.dim
    if len(lines) - 1 != dim:
        raise OperatorFileError(f"{path}: expected {dim} matrix rows, found {len(lines) - 1}")
    rows = []
    for lineno, toks in lines[1:]:
        if len(toks) != dim:
            raise OperatorFileError(f"{path}:{lineno}: expected {dim} entries, found {len(toks)}")
        try:
            row = [parse_scalar(t) for t in toks]
        except OperatorFileError as exc:
            raise OperatorFileError(f"{path}:{lineno}: {exc}") from None
        if not all(map(cmath.isfinite, row)):
            raise OperatorFileError(f"{path}:{lineno}: matrix entries must be finite")
        rows.append(row)
    return load_custom(np.array(rows, dtype=np.complex128), gtype)


def write_operator_file(path, op: GybOperator) -> None:
    """Inverse of read_operator_file."""
    g = op.gtype
    lines = [f"{g.d} {g.k} {g.m}"]
    for row in op.r:
        lines.append(" ".join(format_scalar(z) for z in row))
    Path(path).write_text("\n".join(lines) + "\n")


def build_operator(name: str, theta: float = 0.0) -> GybOperator:
    """Dispatch on a catalog id or ``custom:<path>``.

    ``theta`` only reaches the one-parameter families; ``r232`` and custom
    operators have no parameter and ignore it.
    """
    if name in CATALOG:
        return CATALOG[name].build(theta)
    if name.startswith("custom:"):
        return read_operator_file(name.split(":", 1)[1])
    raise GybError(f"unknown operator {name!r}; expected one of {tuple(CATALOG)} or custom:<path>")


def unitarity_residual(op: GybOperator) -> float:
    """Max-entry residual of ``dagger(r) r - id``."""
    return max_abs(dagger(op.r) @ op.r - identity(op.gtype.dim))


def verify_gybe(op: GybOperator) -> float:
    """Braid-relation residual on ``k + m`` factors.

    Embeds the operator at positions 1 and ``m + 1`` and compares the two
    alternating triple products.
    """
    g = op.gtype
    shape = TensorShape(g.d, g.k + g.m)
    lo = tensor_embed(op.r, 1, shape)
    hi = tensor_embed(op.r, g.m + 1, shape)
    return max_abs(lo @ hi @ lo - hi @ lo @ hi)


def verify_far_commutativity(op: GybOperator) -> float:
    """Largest commutator residual over all overlapping distant embeddings.

    Generators ``1`` and ``1 + t`` must commute for every distance ``t >= 2``;
    their blocks overlap while ``t m < k``, and disjoint blocks commute
    automatically, so the distances checked are ``2 <= t < ceil(k / m)``.
    A NaN residual makes the result NaN; with no overlapping case it is 0.0.
    """
    g = op.gtype
    residuals = []
    for t in range(2, math.ceil(g.k / g.m)):
        shape = TensorShape(g.d, g.k + t * g.m)
        lo = tensor_embed(op.r, 1, shape)
        hi = tensor_embed(op.r, t * g.m + 1, shape)
        residuals.append(max_abs(lo @ hi - hi @ lo))
    return max_abs(residuals)


def check_outer_diagonal(op: GybOperator, tol: float = DEFAULT_TOL) -> bool | None:
    """Whether the operator and its inverse act diagonally on the first and
    last factor, i.e. every entry with mismatched outer indices vanishes.

    Defined for type ``(d, 3, 1)`` operators only; None for any other type.
    """
    if (op.gtype.k, op.gtype.m) != (3, 1):
        return None
    changes, _ = label_changes(op.gtype.d, tol, op.r, op.r_inv)
    return not (changes[0] or changes[-1])
