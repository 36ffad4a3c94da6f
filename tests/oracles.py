"""Test-only oracles.

``jones`` evaluates the Jones polynomial of a closed braid through the
Kauffman bracket, summing over all ``2^L`` smoothings of an ``L``-letter
word. It reads nothing from the package but the braid word itself.

``type2_closed_form`` gives the raw ``type2`` value of a closure from its
components and linking numbers alone. ``type1_closed_form`` gives the
unknot-normalized ``type1`` value, the HOMFLY-PT polynomial at
``(a, z) = (i, i)``, from its components and the Burau matrix over GF(4).

``homfly`` evaluates the HOMFLY-PT polynomial of a closed braid at one
point through the Hecke algebra and Ocneanu's trace.

``kron_representation`` is the dense matrix of a braid for an operator
given as a matrix, its inverse and its type, each letter embedded with
``np.kron``. ``markov_ratios`` gives ``T(b sigma_n) / T(b)`` and
``T(b sigma_n^-1) / T(b)``, ``T`` its plain trace: with the identity ``mu``,
the Markov move fixes them to the enhancement weights' ``alpha beta`` and
``beta / alpha``.

``tensordot_contract`` is the reference for ``rep._contract``: it runs the
same network and plan, but each pairwise step through ``np.tensordot``. It
takes the network as ``rep._network`` leaves it, every label on two tensors.

None of them imports from the package but ``gyblink.braids``.
"""

from __future__ import annotations

import itertools

import numpy as np

from gyblink.braids import BraidWord, closure_components, writhe


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


# GF(4) = {0, 1, w, w^2} as 0, 1, 2, 3: addition is XOR, w^2 = w + 1
_GF4_TIMES = np.array([[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]], dtype=np.uint8)
_GF4_INVERSE = np.array([0, 1, 3, 2], dtype=np.uint8)


def _gf4_rank(m: np.ndarray) -> int:
    m = m.copy()
    rank = 0
    for col in range(m.shape[1]):
        pivots = np.flatnonzero(m[rank:, col]) + rank
        if not pivots.size:
            continue
        m[[rank, pivots[0]]] = m[[pivots[0], rank]]
        m[rank] = _GF4_TIMES[_GF4_INVERSE[m[rank, col]], m[rank]]
        below = pivots[1:]
        m[below] ^= _GF4_TIMES[m[below, col][:, None], m[rank]]
        rank += 1
    return rank


def type1_closed_form(b: BraidWord) -> int:
    """Unknot-normalized ``type1`` value of the closure of ``b``, the
    HOMFLY-PT polynomial at ``(a, z) = (i, i)``: ``(-1)^(c-1) (-2)^(k-1)``
    for its ``c`` components, where ``k = n - rank(B - I)`` over GF(4).

    ``B`` is the product of the word's unreduced Burau matrices at
    ``t = w``, ``w^2 = w + 1``: ``sigma_i`` acts on rows ``i`` and ``i + 1``
    as ``[[w^2, w], [1, 0]]`` and ``sigma_i^-1`` as ``[[0, 1], [w^2, w]]``.
    In characteristic 2, ``B - I`` is ``B + I``.
    """
    w, w2 = 2, 3
    burau = np.eye(b.strands, dtype=np.uint8)
    for g in b.letters:
        i = abs(g) - 1
        top, bottom = burau[i].copy(), burau[i + 1].copy()
        mixed = _GF4_TIMES[w2, top] ^ _GF4_TIMES[w, bottom]
        burau[i], burau[i + 1] = (mixed, top) if g > 0 else (bottom, mixed)
    k = b.strands - _gf4_rank(burau ^ np.eye(b.strands, dtype=np.uint8))
    return (-1) ** (closure_components(b) - 1) * (-2) ** (k - 1)


def _times_t(element: dict, i: int, z: complex) -> dict:
    # right multiplication by T_i. A permutation w is its one-line tuple, so
    # w s_i swaps the entries at positions i - 1 and i; T_w T_i is T_{w s_i}
    # when that adds an inversion and z T_w + T_{w s_i} when it removes one
    out: dict = {}
    for w, c in element.items():
        ws = w[: i - 1] + (w[i], w[i - 1]) + w[i + 1 :]
        out[ws] = out.get(ws, 0) + c
        if w[i - 1] > w[i]:
            out[w] = out.get(w, 0) + z * c
    return out


def _ocneanu(w: tuple, z: complex, tau: complex) -> complex:
    # tr(T_w). A fixed last strand drops out (the trace on H_n restricts to
    # the one on H_{n-1}); otherwise moving the largest entry, at position p,
    # to the end is a reduced word, T_w = T_u T_{n-1} T_{n-2} ... T_{p+1}
    # with u fixing the last strand, and tr(x T_{n-1} y) = tau tr(x y)
    while w and w[-1] == len(w) - 1:
        w = w[:-1]
    if not w:
        return 1
    n, p = len(w), w.index(len(w) - 1)
    element = {w[:p] + w[p + 1 :]: 1}
    for i in range(n - 2, p, -1):
        element = _times_t(element, i, z)
    return tau * sum(c * _ocneanu(u, z, tau) for u, c in element.items())


def homfly(b: BraidWord, a: complex, z: complex) -> complex:
    """HOMFLY-PT polynomial of the closure of ``b`` at ``(a, z)``, normalized
    by ``a P(L+) - a^-1 P(L-) = z P(L0)`` and ``P(unknot) = 1``.

    The word maps to the Hecke algebra ``H_n`` in the ``T_w`` basis, where
    ``T_i^2 = z T_i + 1`` and so ``T_i^-1 = T_i - z``. Ocneanu's trace has
    ``tr(1) = 1`` and ``tr(x T_{n-1} y) = tau tr(x y)`` for ``x, y`` in
    ``H_{n-1}``, with ``tau = z a^2 / (a^2 - 1)``; then
    ``P = ((a - 1/a) / z)^(n-1) a^(-writhe) tr``.
    """
    element = {tuple(range(b.strands)): 1}
    for g in b.letters:
        product = _times_t(element, abs(g), z)
        if g < 0:
            for w, c in element.items():
                product[w] = product.get(w, 0) - z * c
        element = product
    tau = z * a * a / (a * a - 1)
    trace = sum(c * _ocneanu(w, z, tau) for w, c in element.items())
    return ((a - 1 / a) / z) ** (b.strands - 1) * a ** -writhe(b) * trace


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


def kron_representation(r: np.ndarray, inv: np.ndarray, d: int, k: int, m: int, b: BraidWord) -> np.ndarray:
    """Dense matrix of ``b`` for the type ``(d, k, m)`` operator ``r`` with
    inverse ``inv``. Generator ``i`` acts on the ``k`` factors from
    ``m (i - 1)`` of ``k + m (n - 2)``, ``n`` the strand count; the first
    letter acts first, so the word maps to its letters' product read right
    to left."""
    factors = k + m * (b.strands - 2)
    out = np.eye(d**factors, dtype=complex)
    for g in b.letters:
        first = m * (abs(g) - 1)
        mat = np.kron(np.kron(np.eye(d**first), r if g > 0 else inv), np.eye(d ** (factors - first - k)))
        out = mat @ out
    return out


def _dense_trace(r: np.ndarray, inv: np.ndarray, d: int, k: int, m: int, b: BraidWord) -> complex:
    return complex(np.trace(kron_representation(r, inv, d, k, m, b)))


def markov_ratios(r, d: int, k: int, m: int, b: BraidWord, floor: float = 1e-9):
    """``(T(b sigma_n) / T(b), T(b sigma_n^-1) / T(b))`` for the type
    ``(d, k, m)`` operator ``r`` and the ``n``-strand word ``b``, whose
    stabilizations live on ``n + 1`` strands; None when ``|T(b)|`` is below
    ``floor``, where the ratios would be rounding noise."""
    r = np.asarray(r, dtype=complex)
    inv = np.linalg.inv(r)
    n = b.strands
    base = _dense_trace(r, inv, d, k, m, b)
    if abs(base) < floor:
        return None
    return tuple(_dense_trace(r, inv, d, k, m, BraidWord(n + 1, b.letters + (s * n,))) / base for s in (1, -1))
