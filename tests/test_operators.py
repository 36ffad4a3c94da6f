import hashlib
import re
import warnings

import numpy as np
import pytest

from gyblink.errors import GybError, OperatorFileError, ShapeError, SingularMatrixError
from gyblink.operators import (
    GybOperator,
    GybType,
    build_operator,
    build_r232,
    build_type1,
    build_type2,
    build_type3,
    check_outer_diagonal,
    format_scalar,
    load_custom,
    parse_scalar,
    read_operator_file,
    unitarity_residual,
    verify_far_commutativity,
    verify_gybe,
    write_operator_file,
)
from gyblink.tensorops import dagger, identity, max_abs

SQ2 = np.sqrt(2.0)
ALPHA = np.exp(1j * np.pi / 4)
FAMILIES = [build_type1, build_type2, build_type3]
THETAS = np.linspace(0.0, np.pi, 16)


def test_gybtype_validation():
    t = GybType(2, 3, 1)
    assert t.dim == 8
    assert GybType(2, 3, 2).dim == 8
    with pytest.raises(ShapeError):
        GybType(2, 3, 3)
    with pytest.raises(ShapeError):
        GybType(2, 0, 1)
    with pytest.raises(ShapeError):
        GybType(1, 2, 1)


def test_type1_entries_at_zero():
    r = build_type1(0.0).r
    assert r[0, 0] == pytest.approx(1 / SQ2)
    assert r[1, 3] == pytest.approx(1 / SQ2)
    assert r[2, 0] == pytest.approx(-1j / SQ2)
    assert r[1, 1] == pytest.approx(1j / SQ2)
    # direct sum: no coupling between the two 4x4 blocks
    assert max_abs(r[:4, 4:]) == 0 and max_abs(r[4:, :4]) == 0


# sha256 of the concatenated r.tobytes() over PIN_THETAS (IEEE doubles,
# little-endian complex128); any change to a single entry bit shows here
PIN_THETAS = [*np.linspace(-1.0, 4.0, 21), np.pi, 1e-300, 1e10]
PINNED = {
    build_type1: "edbd63aeea669033a2ab94e1a9b484e7bdc9fb3b792ca2aebba1329468769286",
    build_type2: "432a75b02072026f16b2aa5c2d0e4409f2fb9afbfecfff092a16629db814a866",
    build_type3: "28e877613fdf0ef5212a5a55161d6451ba17bae93ab4d72faa35dfbfe52a9c59",
}


@pytest.mark.parametrize("build", FAMILIES, ids=lambda build: build.__name__)
def test_family_entries_are_pinned(build):
    digest = hashlib.sha256()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for theta in PIN_THETAS:
            digest.update(build(theta).r.tobytes())
    assert digest.hexdigest() == PINNED[build]
    # the out-of-range warning points at the caller of the builder
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        build(4.0)
    assert len(record) == 1 and record[0].category is RuntimeWarning
    assert record[0].filename == __file__


def test_r232_entries():
    r = build_r232().r
    assert r[0, 7] == pytest.approx(1 / SQ2)
    assert r[4, 3] == pytest.approx(-1 / SQ2)
    assert r[0, 0] == pytest.approx(1 / SQ2)
    assert max_abs(r) == pytest.approx(1 / SQ2)


def test_r232_square_swaps_blocks():
    # r^2 has zero diagonal blocks and the antidiagonal permutation off it
    r = build_r232().r
    sq = r @ r
    assert max_abs(sq[:4, :4]) < 1e-15
    assert sq[0, 7] == pytest.approx(1)
    assert sq[4, 3] == pytest.approx(-1)
    assert abs(np.trace(sq)) < 1e-15


@pytest.mark.parametrize("build", FAMILIES)
def test_family_validity_over_theta_grid(build):
    for theta in THETAS:
        op = build(theta)
        assert unitarity_residual(op) < 1e-12
        assert verify_gybe(op) < 1e-12
        assert verify_far_commutativity(op) < 1e-12


def test_r232_validity():
    op = build_r232()
    assert unitarity_residual(op) < 1e-12
    assert verify_gybe(op) < 1e-12
    # blocks three-or-more positions apart never overlap a (2,3,2) embedding
    assert verify_far_commutativity(op) == 0.0


@pytest.mark.parametrize("build", FAMILIES)
def test_family_outer_index_sparsity(build):
    # entries vanish unless the first and third factor indices pass through
    op = build(0.9)
    t = op.r.reshape(2, 2, 2, 2, 2, 2)
    for j1 in range(2):
        for j3 in range(2):
            for i1 in range(2):
                for i3 in range(2):
                    if j1 != i1 or j3 != i3:
                        assert max_abs(t[j1, :, j3, i1, :, i3]) == 0
    assert check_outer_diagonal(op)


def test_outer_diagonal_counterexamples():
    assert check_outer_diagonal(load_custom(identity(8), GybType(2, 3, 1)))
    mislabeled = load_custom(build_r232().r, GybType(2, 3, 1), "mislabeled")
    assert not check_outer_diagonal(mislabeled)
    assert check_outer_diagonal(build_r232()) is None


def test_outer_diagonal_rejects_nan():
    # a NaN where the outer indices differ is not a vanishing entry
    r = identity(8)
    r[0, 7] = np.nan
    op = GybOperator(GybType(2, 3, 1), r, identity(8), "nan")
    assert not check_outer_diagonal(op)


def test_mislabeled_r232_fails_far_commutativity():
    # its braid-relation residual is ~1e-16, so the distant-commutation
    # axiom is what actually rejects the (2,3,1) labeling
    mislabeled = load_custom(build_r232().r, GybType(2, 3, 1), "mislabeled")
    assert verify_gybe(mislabeled) < 1e-12
    assert verify_far_commutativity(mislabeled) > 0.1


def test_far_commutativity_keeps_a_nan_residual():
    # 1e200 squared overflows, so the commutator of the scaled identity is inf - inf
    op = load_custom(1e200 * np.eye(8), GybType(2, 3, 1))
    with np.errstate(all="ignore"):
        assert np.isnan(verify_far_commutativity(op))


def test_random_unitary_is_not_gyb():
    rng = np.random.default_rng(7)
    z = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    q, _ = np.linalg.qr(z)
    op = load_custom(q, GybType(2, 3, 1), "randu")
    assert verify_gybe(op) > 0.1


@pytest.mark.parametrize("theta", [0.0, 0.4, 1.3, np.pi])
def test_minimal_polynomials(theta):
    op = build_type1(theta)
    assert max_abs(op.r / ALPHA + ALPHA * op.r_inv - identity(8)) < 1e-12
    op = build_type2(theta)
    assert max_abs(op.r @ op.r / ALPHA**2 - op.r / ALPHA + identity(8) - ALPHA * op.r_inv) < 1e-12
    op = build_type3(theta)
    assert max_abs(op.r + op.r_inv - SQ2 * identity(8)) < 1e-12
    op = build_r232()
    assert max_abs(op.r + op.r_inv - SQ2 * identity(8)) < 1e-12


def test_traces_do_not_depend_on_theta():
    for theta in THETAS:
        assert np.trace(build_type1(theta).r) == pytest.approx(4 * ALPHA, abs=1e-12)
        assert np.trace(build_type2(theta).r) == pytest.approx(4 * ALPHA, abs=1e-12)
        assert np.trace(build_type3(theta).r) == pytest.approx(4 * SQ2, abs=1e-12)
    assert np.trace(build_r232().r) == pytest.approx(4 * SQ2, abs=1e-12)


def test_inverse_is_cached_and_consistent():
    for build in FAMILIES:
        op = build(2.0)
        assert max_abs(op.r @ op.r_inv - identity(8)) <= 1e-12
        assert max_abs(op.r_inv - dagger(op.r)) <= 1e-12


def test_theta_outside_range_warns():
    with pytest.warns(RuntimeWarning):
        op = build_type2(4.0)
    assert unitarity_residual(op) < 1e-12
    with pytest.warns(RuntimeWarning):
        build_type3(-0.1)


@pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf])
def test_nonfinite_theta_is_rejected(theta):
    for build in FAMILIES:
        with pytest.raises(GybError, match="finite"):
            build(theta)


def test_build_operator_dispatch():
    assert build_operator("type1", 0.5).op_id == "type1"
    assert build_operator("r232").op_id == "r232"
    assert build_operator("r232", theta=1.0).theta is None
    with pytest.raises(GybError):
        build_operator("type9")


def test_load_custom_validation():
    with pytest.raises(ShapeError):
        load_custom(identity(4), GybType(2, 3, 1))
    with pytest.raises(SingularMatrixError):
        load_custom(np.zeros((8, 8)), GybType(2, 3, 1))


def test_scalar_round_trip():
    for z in (0j, 1 + 0j, -2.5 + 0.125j, 0.5j, complex(1 / 3, -1 / 7)):
        assert parse_scalar(format_scalar(z)) == z
    assert parse_scalar("2") == 2
    assert parse_scalar("-1.5i") == -1.5j
    with pytest.raises(OperatorFileError):
        parse_scalar("one+two-i")


def test_operator_file_round_trip(tmp_path):
    path = tmp_path / "op.mat"
    original = build_type2(0.8)
    write_operator_file(path, original)
    loaded = read_operator_file(path)
    assert isinstance(loaded, GybOperator)
    assert loaded.gtype == GybType(2, 3, 1)
    assert loaded.theta is None
    assert max_abs(loaded.r - original.r) == 0
    assert build_operator(f"custom:{path}").op_id == "custom"


def test_operator_file_errors(tmp_path):
    path = tmp_path / "bad.mat"
    path.write_text("")
    with pytest.raises(OperatorFileError):
        read_operator_file(path)
    path.write_text("2 3\n")
    with pytest.raises(OperatorFileError):
        read_operator_file(path)
    path.write_text("2 2 1\n1+0i 0+0i\n0+0i 1+0i\n")
    with pytest.raises(OperatorFileError):
        read_operator_file(path)  # 2 rows given, dimension is 4
    rows = "\n".join("1+0i " * 3 for _ in range(4))
    path.write_text("2 2 1\n" + rows + "\n")
    with pytest.raises(OperatorFileError):
        read_operator_file(path)  # short rows
    # d^k past what any file holds is refused without building it
    for header, count in [("10 5000 1", "10^5000"), ("2 100000 1", "2^100000")]:
        path.write_text(header + "\n1\n")
        with pytest.raises(OperatorFileError, match=re.escape(f"{path}: expected {count} matrix rows, found 1")):
            read_operator_file(path)


def test_operator_file_comments(tmp_path):
    path = tmp_path / "op.mat"
    original = build_type3(0.5)
    write_operator_file(path, original)
    head, *rows = path.read_text().splitlines()
    rows[3] += "  # fourth row"
    path.write_text("\n".join(["# type3 at theta 0.5", "", head + " # d k m", "#", *rows]) + "\n")
    assert max_abs(read_operator_file(path).r - original.r) == 0


@pytest.mark.parametrize("entry, reason", [
    ("nan", "must be finite"), ("1e999+0i", "must be finite"), ("0-1e400i", "must be finite"),
    ("inf", "bad complex scalar"),
])
def test_operator_file_entry_errors_name_the_line(tmp_path, entry, reason):
    path = tmp_path / "op.mat"
    rows = ["1+0i 0+0i 0+0i 0+0i", "0+0i 1+0i 0+0i 0+0i", f"0+0i 0+0i {entry} 0+0i", "0+0i 0+0i 0+0i 1+0i"]
    path.write_text("# identity with one bad entry\n2 2 1\n\n" + "\n".join(rows) + "\n")
    with pytest.raises(OperatorFileError, match=re.escape(f"{path}:6: ") + f".*{reason}"):
        read_operator_file(path)
