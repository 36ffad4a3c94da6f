"""The evaluator against oracles that share no code with it."""

import cmath

import numpy as np
import pytest
from oracles import bracket, jones

from gyblink.braids import LINKS, random_braid, stabilize
from gyblink.enhancement import catalog_enhancement
from gyblink.invariant import normalized_invariant

#: the bracket variable at which type3 and r232 give the Jones value
A = cmath.exp(3j * cmath.pi / 8)


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
