from functools import reduce

import numpy as np
import pytest

from gyblink.errors import PartialTraceError, ShapeError, SingularMatrixError
from gyblink.operators import build_type1, build_type3
from gyblink.tensorops import (
    TensorShape,
    as_matrix,
    dagger,
    identity,
    kron_power,
    label_changes,
    mat_inverse,
    max_abs,
    partial_trace_last,
    tensor_embed,
)


def random_matrix(rng, dim):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def random_unitary(rng, dim):
    q, _ = np.linalg.qr(random_matrix(rng, dim))
    return q


def test_kron_power():
    a = np.diag([1.0, 2.0])
    assert kron_power(a, 0).shape == (1, 1)
    assert max_abs(kron_power(a, 3) - np.kron(a, np.kron(a, a))) == 0
    with pytest.raises(ShapeError):
        kron_power(a, -1)


def test_partial_trace_identity():
    shape = TensorShape(2, 3)
    assert max_abs(partial_trace_last(identity(8), shape, 1) - 2 * identity(4)) == 0
    assert max_abs(partial_trace_last(identity(8), shape, 2) - 4 * identity(2)) == 0


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(2)
    f = random_matrix(rng, 8)
    for m in (1, 2):
        got = partial_trace_last(f, TensorShape(2, 3), m)
        assert abs(np.trace(got) - np.trace(f)) < 1e-12


def test_partial_trace_composes():
    rng = np.random.default_rng(3)
    f = random_matrix(rng, 16)
    two_at_once = partial_trace_last(f, TensorShape(2, 4), 2)
    one_by_one = partial_trace_last(partial_trace_last(f, TensorShape(2, 4), 1), TensorShape(2, 3), 1)
    assert max_abs(two_at_once - one_by_one) <= 1e-12


@pytest.mark.parametrize("m", [1, 2])
def test_partial_trace_slides_past_untraced_factors(m):
    # tracing the last m factors commutes with composition by anything
    # acting only on the kept factors
    rng = np.random.default_rng(4)
    shape = TensorShape(2, 3)
    f = random_matrix(rng, 8)
    g = random_matrix(rng, 2 ** (3 - m))
    g_padded = np.kron(g, identity(2**m))
    lhs = partial_trace_last(f @ g_padded, shape, m)
    assert max_abs(lhs - partial_trace_last(f, shape, m) @ g) <= 1e-12
    rhs = partial_trace_last(g_padded @ f, shape, m)
    assert max_abs(rhs - g @ partial_trace_last(f, shape, m)) <= 1e-12


def test_partial_trace_respects_leading_tensor_factor():
    rng = np.random.default_rng(5)
    f = random_matrix(rng, 8)
    h = random_matrix(rng, 2)
    lhs = partial_trace_last(np.kron(identity(2), f), TensorShape(2, 4), 1)
    assert max_abs(lhs - np.kron(identity(2), partial_trace_last(f, TensorShape(2, 3), 1))) <= 1e-12
    lhs = partial_trace_last(np.kron(h, f), TensorShape(2, 4), 1)
    assert max_abs(lhs - np.kron(h, partial_trace_last(f, TensorShape(2, 3), 1))) <= 1e-12


def test_partial_trace_basis_independent():
    # conjugating every factor by the same unitary commutes with tracing
    rng = np.random.default_rng(6)
    f = random_matrix(rng, 8)
    u = random_unitary(rng, 2)
    u3, u2 = kron_power(u, 3), kron_power(u, 2)
    lhs = partial_trace_last(u3 @ f @ dagger(u3), TensorShape(2, 3), 1)
    rhs = u2 @ partial_trace_last(f, TensorShape(2, 3), 1) @ dagger(u2)
    assert max_abs(lhs - rhs) <= 1e-12


def test_partial_trace_errors():
    f = identity(8)
    with pytest.raises(PartialTraceError):
        partial_trace_last(f, TensorShape(2, 3), 3)
    with pytest.raises(PartialTraceError):
        partial_trace_last(f, TensorShape(2, 3), 0)
    with pytest.raises(ShapeError):
        partial_trace_last(identity(4), TensorShape(2, 3), 1)


def test_partial_trace_of_type1_block():
    # tracing the last factor leaves a scalar plus a strictly off-diagonal part;
    # at theta=0 the first off-diagonal entry is 2/sqrt(2)
    got = partial_trace_last(build_type1(0.0).r, TensorShape(2, 3), 1)
    assert abs(got[0, 1] - np.sqrt(2)) < 1e-12
    scalar = np.exp(1j * np.pi / 4)
    assert abs(got[0, 0] - scalar) < 1e-12
    assert abs(got[3, 3] - scalar) < 1e-12


def test_dagger():
    rng = np.random.default_rng(7)
    f, g = random_matrix(rng, 4), random_matrix(rng, 4)
    assert max_abs(dagger(dagger(f)) - f) == 0
    assert max_abs(dagger(f @ g) - dagger(g) @ dagger(f)) <= 1e-12


@pytest.mark.parametrize("theta", [0.0, 0.7, np.pi])
def test_dagger_inverts_unitary_family(theta):
    r = build_type1(theta).r
    assert max_abs(r @ dagger(r) - identity(8)) <= 1e-12


def test_mat_inverse_of_unitary_is_dagger():
    op = build_type3(1.2)
    assert max_abs(mat_inverse(op.r) - dagger(op.r)) <= 1e-12


def test_mat_inverse_singular():
    with pytest.raises(SingularMatrixError):
        mat_inverse(np.zeros((3, 3)))
    # rank deficient after float rounding: 1 + 1e-16 == 1
    almost = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-16]])
    with pytest.raises(SingularMatrixError):
        mat_inverse(almost)


def test_mat_inverse_refuses_a_large_residual():
    # numpy inverts the 10x10 Hilbert matrix without complaint, but
    # a @ inv is far from the identity at its condition number (~1e13)
    i = np.arange(10)
    hilbert = 1.0 / (i[:, None] + i[None, :] + 1)
    with pytest.raises(SingularMatrixError, match="inverse residual exceeds tolerance"):
        mat_inverse(hilbert)


def test_mat_inverse_rejects_nan():
    # the residual of a NaN "inverse" is NaN, which must count as a failure
    with pytest.raises(SingularMatrixError):
        mat_inverse(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_tensor_embed_positions():
    rng = np.random.default_rng(9)
    f = random_matrix(rng, 2)
    shape = TensorShape(2, 3)
    assert max_abs(tensor_embed(f, 1, shape) - np.kron(np.kron(f, identity(2)), identity(2))) == 0
    assert max_abs(tensor_embed(f, 2, shape) - np.kron(np.kron(identity(2), f), identity(2))) == 0
    assert max_abs(tensor_embed(f, 3, shape) - np.kron(identity(4), f)) == 0
    g = random_matrix(rng, 4)
    assert max_abs(tensor_embed(g, 2, shape) - np.kron(identity(2), g)) == 0


def test_tensor_shape_needs_two_states_per_factor():
    with pytest.raises(ShapeError):
        TensorShape(1, 3)
    with pytest.raises(ShapeError):
        TensorShape(2, 0)


def test_tensor_embed_errors():
    shape = TensorShape(2, 3)
    with pytest.raises(ShapeError):
        tensor_embed(identity(4), 3, shape)
    with pytest.raises(ShapeError):
        tensor_embed(identity(2), 0, shape)
    with pytest.raises(ShapeError):
        tensor_embed(identity(3), 1, shape)


def test_as_matrix_and_shape():
    a = as_matrix([[1, 2], [3, 4]])
    assert a.shape == (2, 2) and a.dtype == np.complex128
    for flat in ([1, 2, 3, 4], [1, 2, 3]):
        with pytest.raises(ShapeError):
            as_matrix(flat)
    with pytest.raises(ShapeError):
        as_matrix(np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        TensorShape(2, 3).check(identity(4))
    with pytest.raises(ShapeError):
        TensorShape(2, 0)


def test_max_abs_and_close():
    assert max_abs(np.array([])) == 0.0
    assert max_abs(np.array([1, -3j])) == 3.0
    assert max_abs(identity(2) - (identity(2) + 1e-12)) <= 1e-9
    assert not max_abs(identity(2) - (identity(2) + 1e-6)) <= 1e-9


@pytest.mark.parametrize("where", [0, 2, 4])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_max_abs_keeps_nan_anywhere(where, dtype):
    # the checks fold their residuals with max_abs, so a NaN must never be dropped
    a = np.array([1.0, -7.0, 2.5, 0.0, 3.0], dtype=dtype)
    a[where] = np.nan
    assert np.isnan(max_abs(a))
    assert np.isnan(max_abs(list(a)))


def test_max_abs_of_empty_input_is_zero():
    assert max_abs([]) == 0.0
    assert max_abs(np.zeros((0, 3), dtype=np.complex128)) == 0.0


def _label_facts(d, k, tol, mats):
    # per entry: an entry counts unless its magnitude is at most tol (so NaN
    # counts); compare the base-d digits of its row and its column
    changes, keeps = [False] * k, [False] * k
    for m in mats:
        for row, col in np.ndindex(m.shape):
            if abs(m[row, col]) <= tol:
                continue
            for j, (a, b) in enumerate(zip(np.unravel_index(row, (d,) * k), np.unravel_index(col, (d,) * k))):
                changes[j] |= bool(a != b)
                keeps[j] |= bool(a == b)
    return changes, keeps


def test_label_changes_matches_per_entry_definition():
    rng = np.random.default_rng(15)
    for _ in range(300):
        d, k = int(rng.integers(2, 4)), int(rng.integers(2, 5))
        tol = float(rng.choice([0.0, 1e-12, 1e-9, 1e-3]))
        mats = []
        for _ in range(int(rng.integers(1, 3))):
            m = 10.0 ** rng.uniform(-300, -5, size=(d**k,) * 2) * np.exp(2j * np.pi * rng.random((d**k,) * 2))
            m[rng.random(m.shape) < rng.random()] = 0
            # per factor, all entries, only label-keeping or only label-changing ones
            masks = [np.ones((d, d)), identity(d), 1 - identity(d)]
            m = m * reduce(np.kron, [masks[i] for i in rng.integers(0, 3, size=k)])
            m[rng.random(m.shape) < 0.01] = np.nan
            mats.append(m)
        changes, keeps = label_changes(d, tol, *mats)
        assert (changes.tolist(), keeps.tolist()) == _label_facts(d, k, tol, mats)


def test_label_changes_examples():
    # factor 1 of 3 is swapped, the outer two are kept
    swap = np.array([[0, 1], [1, 0]])
    changes, keeps = label_changes(2, 0.0, np.kron(np.kron(identity(2), swap), identity(2)))
    assert changes.tolist() == [False, True, False] and keeps.tolist() == [True, False, True]
    # a 1e-300 entry counts at tolerance 0 and not at 1e-9; NaN always counts
    leak = identity(81)
    leak[0, 80] = 1e-300
    assert label_changes(3, 0.0, leak)[0].tolist() == [True] * 4
    assert label_changes(3, 1e-9, leak)[0].tolist() == [False] * 4
    leak[0, 80] = np.nan
    assert label_changes(3, 1e-3, leak)[0].tolist() == [True] * 4
    # the facts of several matrices are the union of each one's
    assert label_changes(2, 0.0, identity(4), np.kron(identity(2), swap))[0].tolist() == [False, True]
    assert label_changes(2, 0.0, np.zeros((8, 8)))[1].tolist() == [False] * 3
    with pytest.raises(ShapeError):
        label_changes(2, 0.0, identity(6))
