"""Test-only oracles.

``jones`` evaluates the Jones polynomial of a closed braid through the
Kauffman bracket, summing over all ``2^L`` smoothings of an ``L``-letter
word. It reads nothing from the package but the braid word itself.

``type2_closed_form`` gives the raw ``type2`` value of a closure from its
components and linking numbers alone.

``tensordot_contract`` is the reference for ``rep._contract``: it runs the
same network and plan, but each pairwise step through ``np.tensordot``. It
takes the network as ``rep._network`` leaves it, every label on two tensors.

None of them imports from the package but ``gyblink.braids``.
"""

from __future__ import annotations

import itertools

import numpy as np

from gyblink.braids import BraidWord, writhe


def bracket(b: BraidWord, a: complex) -> complex:
    """Kauffman bracket of the closure of ``b``.

    Each letter smooths two ways: ``<sigma_i> = A id + A^-1 e_i`` and
    ``<sigma_i^-1> = A^-1 id + A e_i``, where ``e_i`` caps strands ``i``
    and ``i + 1`` below the letter and cups them above. Each smoothing of
    the whole word closes into loops, each worth ``d = -A^2 - A^-2``, and
    the unknot is normalized to ``<O> = 1``.
    """
    n, letters = b.strands, b.letters
    levels = max(len(letters), 1)
    d = -a * a - a**-2
    total = 0j
    for cups in itertools.product((False, True), repeat=len(letters)):
        # node t * n + j is strand j between letters t - 1 and t; the level
        # above the last letter is level 0 again, which closes the braid
        parent = list(range(levels * n))

        def find(x):
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            return x

        def join(x, y):
            parent[find(x)] = find(y)

        weight = 1
        for t, (g, cup) in enumerate(zip(letters, cups)):
            i, below, above = abs(g) - 1, t * n, (t + 1) % levels * n
            weight *= a if (g > 0) != cup else 1 / a
            for j in range(n):
                if not (cup and j in (i, i + 1)):
                    join(below + j, above + j)
            if cup:
                join(below + i, below + i + 1)
                join(above + i, above + i + 1)
        loops = len({find(x) for x in range(levels * n)})
        total += weight * d ** (loops - 1)
    return total


def jones(b: BraidWord, a: complex) -> complex:
    """``V = (-A^3)^(-writhe) <closure>``, the bracket's framing-corrected form."""
    return (-(a**3)) ** -writhe(b) * bracket(b, a)


def type2_closed_form(b: BraidWord) -> int:
    """Raw ``type2`` value of the closure of ``b``: ``2^(c+1)`` for its ``c``
    components when each component's linking number with all the others is
    even, and 0 otherwise.

    Letter ``g`` crosses the strands at positions ``|g|`` and ``|g| + 1``
    with sign ``g / |g|``; a crossing of two components adds half its sign
    to the linking number of each. The closure joins the strand that ends
    at a position to the strand that starts there.
    """
    at = list(range(b.strands))  # the strand, named by its start, at each position
    crossings = []
    for g in b.letters:
        i = abs(g) - 1
        crossings.append((at[i], at[i + 1], 1 if g > 0 else -1))
        at[i], at[i + 1] = at[i + 1], at[i]
    component = list(range(b.strands))

    def find(x):
        while component[x] != x:
            component[x] = x = component[component[x]]
        return x

    for position, strand in enumerate(at):
        component[find(strand)] = find(position)
    twice_linking = {find(x): 0 for x in range(b.strands)}
    for x, y, sign in crossings:
        if find(x) != find(y):
            twice_linking[find(x)] += sign
            twice_linking[find(y)] += sign
    if any(total % 4 for total in twice_linking.values()):
        return 0
    return 2 ** (len(twice_linking) + 1)


def tensordot_contract(network, steps) -> complex:
    """Execute a plan from ``rep._greedy_plan`` with one ``np.tensordot`` per step."""
    tensors, legs, loop_factor = network
    tensors, legs = list(tensors), list(legs)
    for i, j in steps:
        la, lb = legs[i], legs[j]
        shared = [x for x in la if x in lb]
        axes = ([la.index(x) for x in shared], [lb.index(x) for x in shared])
        tensors.append(np.tensordot(tensors[i], tensors[j], axes))
        legs.append([x for x in la + lb if x not in shared])
        tensors[i] = tensors[j] = None
    value = complex(loop_factor)
    for arr in tensors:
        if arr is not None:
            value *= complex(arr)
    return value
