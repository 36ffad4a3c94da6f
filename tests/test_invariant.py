import numpy as np
import pytest

from gyblink.braids import BraidWord, LINKS, compose, conjugate, juxtapose, parse_braid, random_braid, stabilize
from gyblink.enhancement import catalog_enhancement, make_enhancement
from gyblink.errors import GybError, ResourceCapError, ShapeError
from gyblink.invariant import (
    _invariant_values,
    cross_operator_check,
    markov_check,
    multiplicative_invariant,
    multiplicativity_check,
    normalized_invariant,
    quartic_check_type2,
    skein_check,
    trace_invariant,
)
from gyblink.operators import CATALOG, GybType, build_type1, load_custom
from gyblink.tensorops import max_abs

SQ2 = np.sqrt(2.0)

HOPF_P = LINKS["hopf+"].braid
HOPF_M = LINKS["hopf-"].braid
TREFOIL = LINKS["trefoil"].braid
FIGURE8 = LINKS["figure8"].braid

# value of the n-component trivial link, indexed by catalog name
TRIVIAL = {
    "type1": lambda n: 2.0 ** (n + 1),
    "type2": lambda n: 2.0 ** (n + 1),
    "type3": lambda n: SQ2 ** (-n) * 2.0 ** (n + 1),
    "r232": lambda n: SQ2 ** (-n) * 2.0 ** (n - 1),
}

# raw values on the small catalog links
KNOWN = {
    "type1": {"hopf": -4.0, "trefoil": -8.0, "figure8": -8.0},
    "type2": {"hopf": 0.0, "trefoil": 4.0, "figure8": 4.0},
    "type3": {"hopf": 0.0, "trefoil": -2 * SQ2, "figure8": -2 * SQ2},
    "r232": {"hopf": 0.0, "trefoil": -SQ2 / 2, "figure8": -SQ2 / 2},
}


def unlink(n):
    return BraidWord(n, ())


@pytest.mark.parametrize("name", sorted(TRIVIAL))
def test_trivial_links(name):
    s = catalog_enhancement(name, theta=0.4)
    for n in range(1, 7):
        got = trace_invariant(s, unlink(n)).value
        assert got == pytest.approx(TRIVIAL[name](n), abs=1e-9), f"{name} n={n}"


@pytest.mark.parametrize("name", sorted(KNOWN))
def test_known_link_values(name):
    s = catalog_enhancement(name, theta=0.0)
    expect = KNOWN[name]
    assert trace_invariant(s, HOPF_P).value == pytest.approx(expect["hopf"], abs=1e-9)
    assert trace_invariant(s, HOPF_M).value == pytest.approx(expect["hopf"], abs=1e-9)
    assert trace_invariant(s, TREFOIL).value == pytest.approx(expect["trefoil"], abs=1e-9)
    assert trace_invariant(s, FIGURE8).value == pytest.approx(expect["figure8"], abs=1e-9)


@pytest.mark.parametrize("name", ["type1", "type2", "type3"])
def test_link_values_ignore_theta(name):
    base = catalog_enhancement(name, 0.0)
    for theta in (0.7, 2.1):
        s = catalog_enhancement(name, theta)
        for b in (HOPF_P, TREFOIL, FIGURE8):
            assert trace_invariant(s, b).value == pytest.approx(
                trace_invariant(base, b).value, abs=1e-9
            )


def test_unknot_normalization():
    for name in [name for name, entry in CATALOG.items() if entry.p_factor is not None]:
        s = catalog_enhancement(name, 0.3)
        r = normalized_invariant(s, unlink(1))
        assert r.value == pytest.approx(1.0, abs=1e-12)
        assert r.normalization == "P"
    # trefoil lands on -1 for both skein-related operators
    assert normalized_invariant(catalog_enhancement("type3", 0.3), TREFOIL).value == pytest.approx(-1.0)
    assert normalized_invariant(catalog_enhancement("r232"), TREFOIL).value == pytest.approx(-1.0)
    assert normalized_invariant(catalog_enhancement("type1", 0.3), TREFOIL).value == pytest.approx(-2.0)


def test_no_unknot_normalization_for_type2():
    s = catalog_enhancement("type2", 0.3)
    with pytest.raises(GybError):
        normalized_invariant(s, unlink(1))


def test_multiplicative_rescaling():
    s = catalog_enhancement("type1", 0.2)
    raw = trace_invariant(s, TREFOIL).value
    tilde = multiplicative_invariant(s, TREFOIL)
    assert tilde.value == pytest.approx(raw / 2)  # tr(mu)^(2m-k) = 2^-1
    assert tilde.normalization == "tilde"
    wide = catalog_enhancement("r232")
    raw = trace_invariant(wide, TREFOIL).value
    assert multiplicative_invariant(wide, TREFOIL).value == pytest.approx(2 * raw)


def test_tilde_multiplies_over_split_union():
    for name in ("type1", "type3", "r232"):
        s = catalog_enhancement(name, 0.5)
        a, b = TREFOIL, HOPF_P
        both = multiplicative_invariant(s, juxtapose(a, b)).value
        assert both == pytest.approx(
            multiplicative_invariant(s, a).value * multiplicative_invariant(s, b).value,
            abs=1e-9,
        )


def test_traceless_weight_has_no_tilde_normalization():
    # tr(mu) = 0 and 2m - k = -1: the split-union factor is undefined
    s = make_enhancement(load_custom(np.eye(8), GybType(2, 3, 1)), np.diag([1, -1]))
    with pytest.raises(GybError, match="tr\\(mu\\) is 0"):
        multiplicative_invariant(s, TREFOIL)
    with pytest.raises(GybError, match="tr\\(mu\\) is 0"):
        multiplicativity_check(s, TREFOIL, HOPF_P)
    # the raw invariant is still defined
    assert trace_invariant(s, TREFOIL).value == 0


def test_weighted_values_past_the_float_range_are_refused():
    # tr(mu)^(2m - k) = (2e-160)^-2 and alpha^-2 beta^-2 = 1e400 both overflow
    s = make_enhancement(load_custom(np.eye(16), GybType(2, 4, 1)), 1e-160 * np.eye(2))
    with pytest.raises(GybError, match="tr\\(mu\\)\\^-2 is not a finite number"):
        multiplicative_invariant(s, TREFOIL)
    s = make_enhancement(load_custom(np.eye(8), GybType(2, 3, 1)), None, 1e-100, 1e-100)
    with pytest.raises(GybError, match="is not a finite number"):
        trace_invariant(s, HOPF_P)


def test_multiplicativity_check_residuals():
    for name in ("type1", "type2", "type3", "r232"):
        s = catalog_enhancement(name, 0.8)
        assert multiplicativity_check(s, TREFOIL, FIGURE8) < 1e-9
        assert multiplicativity_check(s, unlink(1), HOPF_M) < 1e-9


@pytest.mark.parametrize(
    "name,x,y",
    [("type1", 1.0, 1.0), ("type3", 1.0, SQ2), ("r232", 1.0, SQ2)],
)
def test_skein_relations(name, x, y):
    s = catalog_enhancement(name, 0.6)
    for b in (parse_braid("1", 2), TREFOIL, FIGURE8, random_braid(3, 7, seed=2)):
        assert skein_check(s, b, x, y) < 1e-9


def test_skein_rejects_wrong_coefficients():
    s = catalog_enhancement("type1", 0.6)
    assert skein_check(s, parse_braid("1", 2), 1.0, SQ2) > 0.1


def test_skein_needs_two_strands():
    s = catalog_enhancement("type1", 0.0)
    with pytest.raises(ShapeError):
        skein_check(s, unlink(1))


def test_quartic_relation_type2():
    s = catalog_enhancement("type2", 0.9)
    for b in (parse_braid("1", 2), TREFOIL, FIGURE8, random_braid(4, 6, seed=4)):
        assert quartic_check_type2(s, b) < 1e-9
    with pytest.raises(GybError):
        quartic_check_type2(catalog_enhancement("type1", 0.9), TREFOIL)
    with pytest.raises(ShapeError):
        quartic_check_type2(s, unlink(1))


def test_markov_moves_fix_the_value():
    for name in ("type1", "type2", "type3", "r232"):
        s = catalog_enhancement(name, 1.0)
        assert markov_check(s, TREFOIL, trials=4, seed=1) < 1e-9
        assert markov_check(s, FIGURE8, trials=4, seed=1) < 1e-9


def test_markov_detects_wrong_writhe_weight():
    s = catalog_enhancement("type1", 1.0)
    bad = make_enhancement(s.op, None, s.alpha * 1j, s.beta)
    assert markov_check(bad, TREFOIL, trials=4, seed=1) > 0.1


def test_cross_operator_identity():
    s3 = catalog_enhancement("type3", 0.0)
    s232 = catalog_enhancement("r232")
    for b in (unlink(1), HOPF_P, TREFOIL, FIGURE8, random_braid(3, 8, seed=6)):
        assert cross_operator_check(b, s3=s3, s232=s232) < 1e-9
    # defaults build the same catalog enhancements
    assert cross_operator_check(TREFOIL) < 1e-9


def test_dimension_cap_propagates(monkeypatch):
    s = catalog_enhancement("type1", 0.0)
    assert trace_invariant(s, unlink(11)).value == pytest.approx(2.0**12, abs=1e-6)
    b = random_braid(11, 20, seed=5)
    want = trace_invariant(s, b).value
    monkeypatch.setattr("gyblink.rep.PEAK_CAP", 64)
    for evaluate in (trace_invariant, normalized_invariant, multiplicative_invariant):
        with pytest.raises(ResourceCapError):
            evaluate(s, b)
    assert trace_invariant(s, b, allow_large=True).value == want
    assert normalized_invariant(s, b, allow_large=True).value == want * CATALOG["type1"].p_factor
    assert multiplicative_invariant(s, b, allow_large=True).value == want / 2
    # the float-range refusal holds whatever allow_large says
    with pytest.raises(ResourceCapError):
        trace_invariant(s, unlink(1100), allow_large=True)


def test_result_fields():
    s = catalog_enhancement("type2", 0.25)
    r = trace_invariant(s, FIGURE8)
    assert r.operator_id == "type2"
    assert r.theta == 0.25
    assert r.braid is FIGURE8
    assert r.writhe == 0
    assert r.normalization == "raw"


@pytest.mark.parametrize("name", ["type1", "type2", "type3", "r232"])
def test_relation_checks_match_each_word_alone(name):
    # each check traces its words in one call; its residual equals, to the
    # bit, the one built here from trace_invariant of each word alone, on
    # 200 seeded words per operator, from 1 to 6 strands (r232: 5)
    rng = np.random.default_rng(sum(map(ord, name)))
    enhancements = [catalog_enhancement(name, theta) for theta in (0.0, 0.7, 2.1)]

    def value(s, b, *front):
        return trace_invariant(s, compose(BraidWord(b.strands, front), b)).value

    for case in range(200):
        s = enhancements[case % 3]
        n = int(rng.integers(1, 6 if name == "r232" else 7))
        b = random_braid(n, int(rng.integers(0, 15)), rng)
        trials, seed = int(rng.integers(1, 5)), int(rng.integers(0, 1000))
        moves = np.random.default_rng(seed)
        moved = [conjugate(b, random_braid(n, int(moves.integers(0, 7)), moves)) for _ in range(trials)]
        moved += [stabilize(b, sign) for sign in (1, -1)]
        base = value(s, b)
        assert markov_check(s, b, trials, seed) == max_abs([abs(value(s, c) - base) for c in moved])
        if n < 2:
            continue
        if name == "type2":
            want = abs(value(s, b, 1, 1) - value(s, b, 1) + base - value(s, b, -1))
            assert quartic_check_type2(s, b) == want
        else:
            y = CATALOG[name].skein_y
            assert skein_check(s, b, 1.0, y) == abs(value(s, b, 1) + value(s, b, -1) / 1.0 - y * base)


def test_a_family_raises_the_error_its_words_raise_in_turn(monkeypatch):
    # under a cap of 2^10 on 6 strands the 36-letter word is refused, while
    # sigma_1^8 evaluates and then fails on alpha^-8 for alpha = 1e-40. The
    # error is the one the words raise taken one at a time, whichever comes first
    monkeypatch.setattr("gyblink.rep.PEAK_CAP", 1024)
    s = make_enhancement(build_type1(0.3), None, 1e-40, 1.0)
    power, refused = BraidWord(6, (1,) * 8), random_braid(6, 36, seed=0)
    with pytest.raises(GybError, match=r"alpha\^-8 is not a finite number"):
        _invariant_values(s, [power, refused])
    with pytest.raises(ResourceCapError):
        _invariant_values(s, [refused, power])
