"""The evaluator against oracles that share no code with it."""

import ast
import cmath
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import bracket, homfly, jones, markov_ratios, type1_closed_form, type2_closed_form

from gyblink.braids import LINKS, BraidWord, closure_components, random_braid, stabilize
from gyblink.enhancement import catalog_enhancement
from gyblink.errors import ResourceCapError
from gyblink.invariant import normalized_invariant, trace_invariant
from gyblink.operators import CATALOG

#: the bracket variable at which type3 and r232 give the Jones value
A = cmath.exp(3j * cmath.pi / 8)
TYPE2 = catalog_enhancement("type2", 0.4)


def test_oracles_import_only_braids_from_the_package():
    # the oracles stay independent of the evaluator: of the package they may
    # read only the braid words themselves
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add("." * node.level + (node.module or ""))
    assert {m for m in modules if m.split(".")[0] in ("gyblink", "")} == {"gyblink.braids"}


def test_bracket_of_small_closures():
    a = 0.7 + 0.2j
    d = -a * a - a**-2
    assert bracket(LINKS["unknot"].braid, a) == 1
    assert bracket(LINKS["unlink3"].braid, a) == pytest.approx(d * d)
    # the Hopf link: A^2 d + 2 + A^-2 d = -A^4 - A^-4
    assert bracket(LINKS["hopf+"].braid, a) == pytest.approx(-(a**4) - a**-4)
    # a stabilization only moves the framing, which jones undoes
    trefoil = LINKS["trefoil"].braid
    assert jones(stabilize(trefoil, -1), a) == pytest.approx(jones(trefoil, a))
    # the mirror image swaps A and A^-1
    assert jones(LINKS["hopf+"].braid, a) == pytest.approx(jones(LINKS["hopf-"].braid, 1 / a))


@pytest.mark.parametrize("name, theta", [("type3", 0.4), ("r232", 0.0)])
def test_p_normalization_is_the_jones_value(name, theta):
    s = catalog_enhancement(name, theta)
    rng = np.random.default_rng(2012)
    for _ in range(40):
        b = random_braid(int(rng.integers(1, 5)), int(rng.integers(0, 11)), rng)
        assert abs(normalized_invariant(s, b).value - jones(b, A)) <= 1e-10, b


def test_homfly_of_small_closures():
    # at (a, z) = (i, i) an unlink of c components gives ((a - 1/a)/z)^(c-1)
    # = 2^(c-1), both Hopf links -1, the trefoil and the figure eight -2
    want = {"hopf+": -1, "hopf-": -1, "trefoil": -2, "figure8": -2}
    want.update({name: 2 ** (link.braid.strands - 1) for name, link in LINKS.items() if "unlink" in name})
    want["unknot"] = 1
    assert {name: homfly(link.braid, 1j, 1j) for name, link in LINKS.items()} == pytest.approx(want, abs=1e-12)
    # the right-handed trefoil in this convention
    a, z = 1.3, 0.7
    assert homfly(LINKS["trefoil"].braid, a, z) == pytest.approx(2 / a**2 - 1 / a**4 + z**2 / a**2)


def test_homfly_skein_relation_and_markov_moves():
    a, z = 0.7 + 0.3j, 0.4 - 0.9j
    rng = np.random.default_rng(15)
    for _ in range(60):
        b = random_braid(int(rng.integers(2, 5)), int(rng.integers(0, 8)), rng)
        i = int(rng.integers(1, b.strands))
        plus, minus = (BraidWord(b.strands, b.letters + (g,)) for g in (i, -i))
        p = homfly(b, a, z)
        assert abs(a * homfly(plus, a, z) - homfly(minus, a, z) / a - z * p) <= 1e-12, b
        assert abs(homfly(BraidWord(b.strands, (i,) + b.letters + (-i,)), a, z) - p) <= 1e-12, b
        for sign in (1, -1):
            assert abs(homfly(stabilize(b, sign), a, z) - p) <= 1e-12, b


@pytest.mark.parametrize("name, z", [("type1", 1j), ("type3", 1j * np.sqrt(2)), ("r232", 1j * np.sqrt(2))])
def test_p_normalization_is_a_homfly_specialization(name, z):
    # the paper's invariants are specializations of P: at a = i, z = i for
    # type1 and z = i sqrt(2) for type3 and r232
    s = catalog_enhancement(name, 0.4)
    rng = np.random.default_rng(2012)
    words = [link.braid for link in LINKS.values()]
    words += [random_braid(int(rng.integers(2, 5)), int(rng.integers(0, 9)), rng) for _ in range(60)]
    for b in words:
        want = homfly(b, 1j, z)
        assert abs(normalized_invariant(s, b).value - want) <= 1e-12 * max(1.0, abs(want)), b


def test_type2_closed_form_of_small_closures():
    # the Hopf links link once, an odd number; the (2, 4) torus link
    # "1 1 1 1" links twice
    names = ("unknot", "hopf+", "hopf-", "trefoil", "unlink3")
    values = {name: type2_closed_form(LINKS[name].braid) for name in names}
    assert values == {"unknot": 4, "hopf+": 0, "hopf-": 0, "trefoil": 4, "unlink3": 16}
    assert type2_closed_form(BraidWord(2, (1, 1, 1, 1))) == 8


def test_type1_closed_form_is_homfly_at_i_i():
    # P(i, i) from the Burau matrix over GF(4) against the Hecke algebra
    rng = np.random.default_rng(30)
    words = [link.braid for link in LINKS.values()]
    words += [random_braid(int(rng.integers(1, 7)), int(rng.integers(0, 9)), rng) for _ in range(300)]
    for b in words:
        want = homfly(b, 1j, 1j)
        assert abs(type1_closed_form(b) - want) <= 1e-12 * max(1.0, abs(want)), b


def test_type1_invariant_is_the_closed_form_on_wide_words():
    # sizes homfly cannot reach; every one of these words evaluates under
    # the cap, so a refusal fails the test
    s = catalog_enhancement("type1", 0.9)
    rng = np.random.default_rng(30)
    for _ in range(500):
        b = random_braid(int(rng.integers(8, 65)), int(rng.integers(10, 41)), rng)
        got = normalized_invariant(s, b).value
        assert abs(got - type1_closed_form(b)) <= 1e-12 * max(1.0, abs(got)), b


def _words(max_strands, max_len):
    # the length is drawn first: lists alone stay a few letters long
    def word(n, length):
        letter = st.integers(1, n - 1).flatmap(lambda i: st.sampled_from([i, -i]))
        return st.lists(letter, min_size=length, max_size=length).map(lambda ls: BraidWord(n, tuple(ls)))

    return st.integers(2, max_strands).flatmap(lambda n: st.integers(0, max_len).flatmap(lambda length: word(n, length)))


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.just(BraidWord(1, ())), _words(64, 120)))
def test_type2_raw_value_is_the_linking_closed_form(b):
    # sizes the dense oracle cannot reach; the error scales with 2^(c+1).
    # Layered words on a dozen or more strands can outgrow PEAK_CAP: a
    # refused word has no value to check
    try:
        got = trace_invariant(TYPE2, b).value
    except ResourceCapError:
        assume(False)
    assert abs(got - type2_closed_form(b)) <= 1e-12 * 2 ** (closure_components(b) + 1), b


def test_type2_word_over_the_fused_plan_cap_is_evaluated():
    # the sweep cannot hold this word and the greedy plan of its fused blocks
    # peaks over PEAK_CAP; the plan of one tensor per letter fits, so it
    # must be evaluated, not refused
    b = random_braid(14, 140, seed=1043)
    assert type2_closed_form(b) == 8
    assert abs(trace_invariant(TYPE2, b).value - 8) <= 1e-12 * 2 ** (closure_components(b) + 1)


@pytest.mark.parametrize("name", list(CATALOG))
def test_markov_ratios_are_the_catalog_weights(name):
    # with the identity mu, T(b sigma_n) = alpha beta T(b) and
    # T(b sigma_n^-1) = beta / alpha T(b): the dense traces pin the published
    # weights up to a common sign at every theta (r232 has none). Words whose
    # trace vanishes fix nothing and are skipped
    entry = CATALOG[name]
    want = (entry.alpha * entry.beta, entry.beta / entry.alpha)
    for theta in (0.4, 1.1, 2.5) if name != "r232" else (None,):
        op = entry.build(theta)
        g = op.gtype
        rng = np.random.default_rng(29)
        checked = 0
        for i in range(30):
            b = random_braid(1 + i % 3, int(rng.integers(0, 7)), rng)
            ratios = markov_ratios(op.r, g.d, g.k, g.m, b)
            if ratios is None:
                continue
            checked += 1
            for got, w in zip(ratios, want):
                assert abs(got - w) <= 1e-12 * abs(w), (name, theta, b)
        assert checked >= 20
