import warnings

import numpy as np
import pytest

from gyblink.enhancement import (
    acts_offdiagonally_on_last,
    catalog_enhancement,
    condition_i_residual,
    enhancement_report,
    make_enhancement,
    sampled_perpendicularity,
)
from gyblink.errors import EnhancementError, ShapeError, SingularMatrixError
from gyblink.operators import (
    CATALOG,
    GybOperator,
    GybType,
    build_r232,
    build_type1,
    build_type2,
    build_type3,
    load_custom,
)
from gyblink.tensorops import TensorShape, dagger, identity, max_abs

SQ2 = np.sqrt(2.0)
ALPHA = np.exp(1j * np.pi / 4)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_weights(name):
    entry = CATALOG[name]
    s = catalog_enhancement(name, theta=0.6)
    assert s.alpha == entry.alpha and s.beta == entry.beta
    assert s.mu_is_identity
    assert s.mu_trace == pytest.approx(2.0)


def test_catalog_weight_values():
    # (alpha, beta, unknot factor, skein y) as published, in catalog order
    assert list(CATALOG) == ["type1", "type2", "type3", "r232"]
    assert {name: (e.alpha, e.beta, e.p_factor, e.skein_y) for name, e in CATALOG.items()} == {
        "type1": (ALPHA, 1.0, 0.25, 1.0),
        "type2": (ALPHA, 1.0, None, None),
        "type3": (1.0, SQ2, 1.0 / (2.0 * np.sqrt(2.0)), SQ2),
        "r232": (1.0, 2 * SQ2, SQ2, SQ2),
    }
    assert [CATALOG[name].build for name in ("type1", "type2", "type3")] == [build_type1, build_type2, build_type3]
    r232 = CATALOG["r232"].build(0.7)
    assert r232.theta is None and np.array_equal(r232.r, build_r232().r)


def test_unknown_catalog_enhancement():
    with pytest.raises(EnhancementError, match="no catalog enhancement named 'nope'"):
        catalog_enhancement("nope")


def test_condition_i_exact_for_identity_weight():
    # identity tensor power commutes with anything, so exactly zero
    for name in CATALOG:
        s = catalog_enhancement(name, theta=1.1)
        assert condition_i_residual(s.op, s.mu) == 0.0


@pytest.mark.parametrize("theta", [0.0, 0.7, np.pi])
def test_defect_shapes_and_adjoint_pairing(theta):
    for name in ("type1", "type2", "type3"):
        s = catalog_enhancement(name, theta)
        assert s.defect_plus.shape == (4, 4)
        assert max_abs(s.defect_minus - dagger(s.defect_plus)) <= 1e-12


def test_defect_support_is_last_factor_offdiagonal():
    # nonzero entries only where the first factor index is fixed and the
    # last factor index flips
    live = {(0, 1), (1, 0), (2, 3), (3, 2)}
    s = catalog_enhancement("type1", 0.3)
    for a in range(4):
        for b in range(4):
            if (a, b) not in live:
                assert abs(s.defect_plus[a, b]) < 1e-12
    assert abs(s.defect_plus[0, 1]) > 0.1


def test_type2_defect_entry_vanishes_at_pi():
    d0 = catalog_enhancement("type2", 0.0).defect_plus
    dpi = catalog_enhancement("type2", np.pi).defect_plus
    assert abs(d0[0, 1]) == pytest.approx(SQ2, abs=1e-12)
    assert abs(dpi[0, 1]) < 1e-12
    assert abs(dpi[1, 0]) > 0.1


def test_r232_defects_vanish():
    s = catalog_enhancement("r232")
    assert s.defect_plus.shape == (2, 2)
    assert max_abs(s.defect_plus) < 1e-12
    assert max_abs(s.defect_minus) < 1e-12


def test_acts_offdiagonally_on_last():
    pair = TensorShape(2, 2)
    for name in ("type1", "type2", "type3"):
        s = catalog_enhancement(name, 0.5)
        assert acts_offdiagonally_on_last(s.defect_plus, pair)
        assert acts_offdiagonally_on_last(s.defect_minus, pair)
    assert not acts_offdiagonally_on_last(identity(4), pair)
    # lives entirely on the last factor yet touches its diagonal
    diag_last = np.kron(identity(2), np.diag([1.0, -1.0]))
    assert not acts_offdiagonally_on_last(diag_last, pair)
    with pytest.raises(ShapeError):
        acts_offdiagonally_on_last(identity(6), TensorShape(2, 4))


def test_make_enhancement_rejects_bad_inputs():
    op = build_type1(0.4)
    with pytest.raises(EnhancementError):
        make_enhancement(op, np.zeros((2, 2)), ALPHA, 1.0)
    with pytest.raises(EnhancementError):
        make_enhancement(op, None, 0.0, 1.0)
    with pytest.raises(EnhancementError):
        make_enhancement(op, None, ALPHA, 0.0)
    with pytest.raises(ShapeError):
        make_enhancement(op, identity(3), ALPHA, 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, np.nan)])
def test_make_enhancement_rejects_nonfinite_data(bad):
    op = build_type1(0.4)
    with pytest.raises(EnhancementError):
        make_enhancement(op, None, bad, 1.0)
    with pytest.raises(EnhancementError):
        make_enhancement(op, None, ALPHA, bad)
    with pytest.raises(EnhancementError):
        make_enhancement(op, np.diag([bad, 1.0]), ALPHA, 1.0)


def test_nonfinite_matrices_are_refused_before_numpy_warns():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EnhancementError, match="finite"):
            make_enhancement(build_type1(0.4), np.diag([np.inf, 1.0]), ALPHA, 1.0)
        r = identity(8)
        r[3, 5] = np.nan
        with pytest.raises(SingularMatrixError):
            load_custom(r, GybType(2, 3, 1))


def test_make_enhancement_rejects_nan_commutator():
    # a NaN commutation residual is a failure, not a pass
    r = identity(8)
    r[0, 7] = np.nan
    op = GybOperator(GybType(2, 3, 1), r, identity(8), "nan")
    with pytest.raises(EnhancementError, match="commute"):
        make_enhancement(op)


def test_make_enhancement_rejects_noncommuting_weight():
    op = build_type1(0.4)
    with pytest.raises(EnhancementError):
        make_enhancement(op, np.diag([1.0, 2.0]), ALPHA, 1.0)


def test_scaled_identity_weight_accepted():
    # mu = 2I with beta doubled keeps the defect proportional: the traced
    # side picks up 2^k = 8 and the subtracted side 4*beta
    op = build_type2(0.9)
    s = make_enhancement(op, 2 * identity(2), ALPHA, 2.0)
    assert s.mu_trace == pytest.approx(4.0)
    assert not s.mu_is_identity
    base = catalog_enhancement("type2", 0.9)
    assert max_abs(s.defect_plus - 8 * base.defect_plus) <= 1e-12
    assert enhancement_report(s).verdict == "structural"


def test_report_verdicts():
    strong = enhancement_report(catalog_enhancement("r232"))
    assert strong.verdict == "strong"
    assert strong.defect_plus_norm < 1e-12
    assert strong.outer_diagonal_ok is None

    structural = enhancement_report(catalog_enhancement("type1", 0.3))
    assert structural.verdict == "structural"
    assert structural.offdiagonal_ok
    assert structural.outer_diagonal_ok
    assert structural.condition_i_residual == 0.0
    assert structural.sampled_perp_max < 1e-9


def test_report_sampled_only_verdict():
    # type1 conjugated by H (x) H (x) H is still braided with the type1
    # weights, but neither it nor its defects keep the structural shape
    h = np.array([[1, 1], [1, -1]]) / SQ2
    u3 = np.kron(np.kron(h, h), h)
    op = load_custom(u3 @ build_type1(0.4).r @ u3.conj().T, GybType(2, 3, 1))
    report = enhancement_report(make_enhancement(op, None, ALPHA, 1.0))
    assert report.verdict == "sampled-only"
    assert report.outer_diagonal_ok is False and report.offdiagonal_ok is False
    assert report.defect_plus_norm > 0.1 and report.defect_minus_norm > 0.1
    assert report.sampled_perp_max < 1e-12


def test_report_flags_wrong_weights():
    op = build_type2(0.3)
    bad = make_enhancement(op, None, ALPHA, 3.0)
    report = enhancement_report(bad)
    assert report.verdict == "failed"
    assert report.sampled_perp_max > 1.0


def test_sampled_perpendicularity_catalog_small():
    for name in sorted(CATALOG):
        s = catalog_enhancement(name, theta=0.8)
        assert sampled_perpendicularity(s, 3, seed=3) < 1e-9


def test_sampled_perpendicularity_detects_corruption():
    s = catalog_enhancement("type1", 0.8)
    bad = make_enhancement(s.op, None, s.alpha * 1j, s.beta)
    assert sampled_perpendicularity(bad, 3, seed=3) > 0.5


def test_sampled_nan_traces_fail_the_report():
    # products of a 1e200-scaled unitary overflow, so some sampled traces are NaN
    q, _ = np.linalg.qr(np.random.default_rng(7).normal(size=(8, 8)) + 0j)
    s = make_enhancement(load_custom(1e200 * q, GybType(2, 3, 1)), None, 1, 1)
    with np.errstate(all="ignore"):
        assert np.isnan(sampled_perpendicularity(s, 3))
        report = enhancement_report(s)
    assert np.isnan(report.sampled_perp_max)
    assert report.verdict == "failed"


def test_sampled_perpendicularity_needs_two_strands():
    s = catalog_enhancement("type1", 0.8)
    with pytest.raises(ShapeError):
        sampled_perpendicularity(s, 1)


def test_custom_operator_report_path():
    # identity R is trivially braided; weights (1, 2) zero out both defects
    op = load_custom(identity(8), GybType(2, 3, 1), "flat")
    s = make_enhancement(op, None, 1.0, 2.0)
    assert max_abs(s.defect_plus) < 1e-12
    assert enhancement_report(s).verdict == "strong"
