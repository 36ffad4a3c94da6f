"""Matrix-free evaluation of the braid representations an operator induces.

A braid on ``n`` strands acts on ``N = k + m (n - 2)`` factors of
dimension ``d``, ``k - m`` for the one-strand identity braid. Generator
``i`` applies the operator to the ``k`` contiguous factors starting at
``m (i - 1) + 1``; inverse letters apply the cached inverse. The full
representation matrix is never materialized.

The weighted trace of a closed braid first compresses the word. Two
letters commute exactly when their windows share only factors both
conserve (whose label neither can change, ``GybOperator.moved``): disjoint
windows, and for outer-diagonal ``(2,3,1)`` operators also windows two
apart. So each letter joins the latest earlier group on its own window
when every group after that one lets it pass, and starts a new group
otherwise (the trace-monoid rearrangement of Cartier and Foata). A group
holds letters of one generator, so its block is the exact power ``r^e``,
``e`` its positive letters less its negative ones: ``r`` or ``r_inv``
itself for ``|e| = 1``, and no block at all for ``e = 0``, the identity.
A group that vanishes no longer parts the groups on either side of it: a
later letter can join the group before it. Under the identity weight the
trace is cyclic in the word, so the word is read as its closure: a group
that commutes with every earlier group also joins the latest group on its
window, which commutes with every later one, across the end of the word.
When the two cancel, the groups they parted can meet in turn, so the
letters of ``w`` in a conjugate ``w b w^-1`` all cancel. A non-identity
weight need not commute with the word, so a weighted trace reads the word
open. A word with nothing to fuse keeps one block per letter. Both
evaluators take one list, the non-identity weight blocks and then these,
chosen per call from the list and the context alone:

* the column sweep pushes one column per label of the ``M`` factors the
  blocks move (whose label a letter can change or a weight block covers)
  through every block in one pass. Each column carries all labels of the
  conserved factors at once in its rows; the trace sums the entries whose
  moved labels are their column's, in row order. It costs ``d^s dim d^M``
  multiply-adds per block of span ``s``; two ``dim d^M`` arrays live at
  once. Words under ``SWEEP_GATE`` always take it.
* the network path treats each block as a tensor, closes each factor's
  wire onto itself (a block alone on a factor is traced over it) and
  contracts the network pairwise in a greedy order.
  Each pairwise step is one ``np.dot`` of both tensors as matrices, the
  arrays ``np.tensordot`` makes by transposing and reshaping them, so it
  runs in its floating-point order: a tensor in dot order is reshaped, one
  whose axes are only rotated is read as a transposed view, a permuted one
  of up to ``_GATHER`` elements is gathered through a kept index, and a
  larger one is transposed and copied. Products stay matrices. Its cost
  follows the plan's largest intermediates, not ``dim^2``, so it reaches
  words on dozens of strands. Under the identity weight the trace is
  cyclic in the blocks too, so their network is planned from the least
  rotation of their positions (a two-pointer scan): every rotation of a
  word that fuses to a rotation of one layout shares that layout's plan and
  gives its bits. The value moves only by rounding, against the blocks
  planned as given.

``traces`` alone decides size, word by word: its docstring states which
evaluators a word may plan, which one runs and when the word is refused
against ``PEAK_CAP``, the size of the largest single array. The cap bounds
one array, not the sum of those alive together, so the sweep's peak memory
can reach twice the cap, and three times it in a family of sweep words,
whose shared state stays alive beside each word's own. A strand count whose
dimension overflows a float, and a word whose smallest largest array no
array can hold (``_HOLDABLE``), are refused whatever ``allow_large`` says;
an evaluation that runs out of memory raises ResourceCapError too.

Both are deterministic: the sweep is one fixed sequence of array
operations and the plan breaks cost ties on tensor ids, so one word
always takes the same path with the same floating-point order.

``traces`` takes the words of one relation check (a word and its
conjugates, two stabilizations, a crossing triple) on one context under one
weight, and does what they share once, exactly: words whose fused block
lists match block for block are evaluated once; of the lists that move the
same factors, the sweep applies the leading blocks all of them start with
once and runs the rest of each from that state. Every word still meets the
same operations on the same data in the same order, so each value is the
bits ``trace_with_weight``, its one-word case, gives.

Networks are compiled once per block layout and kept for the life of the
process, across calls: the legs of a network, the blocks it traces alone
over their factors, its greedy plan and each step's axis orders follow from
``d``, the factor count and the position and span of each block alone,
which is all ``_network`` is given. The plan's axis orders are decoded once
into the steps ``_contract`` runs: per step, the two tensors and, for each,
the numpy call that makes it a matrix with that call's argument, a shape or
a gather index, from ``_fetch``. A layout found kept skips ``_network``,
``_greedy_plan`` and the decoding: its tensors come from the blocks, an
operator power's (and its forms traced alone over factors) kept with the
power, and the kept steps hand ``np.dot`` the arrays a fresh plan would, in
the same order, so values do not change. The ``_PLANS_KEPT`` most recently
used layouts are kept, and as many of ``_fetch``'s most recently used
results, so kept plans that fetch an operand alike share one argument: a
gather index lives while ``_fetch``'s cache or a kept plan holds it, and a
layout compiled again finds the indices its dropped plan had, unless the
cache has dropped them too.

Word order: the first letter of a word acts first on states, so a word
maps to the composition of its letters read right to left.
"""

from __future__ import annotations

import heapq
import weakref
from array import array
from bisect import bisect_right
from collections import deque
from itertools import count
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .braids import BraidWord
from .errors import ResourceCapError, ShapeError
from .operators import GybOperator
from .tensorops import TensorShape, identity, tensor_embed

#: Column-sweep cost, in multiply-adds, below which a trace never plans a
#: network: planning and per-step overhead, tens of microseconds per tensor,
#: outweigh the sweep on small words. On a 2-CPU x86-64 host (median of 5 per
#: word; 264 words: type1/2/3 on 2-9 strands, r232 on 2-6, 3-60 letters) the
#: network was faster on 9 of 146 words of cost under 2^18, 1 of 8 in [2^18,
#: 2^19), 7 of 19 in [2^19, 2^20), 30 of 33 in [2^20, 2^22) and all 58 above;
#: 2^19 ties 2^20 there (1.3 %) and cuts the p90 of ``suite`` checks by 14 %.
SWEEP_GATE = 1 << 19

#: Largest single array, in complex elements, a trace may create without
#: ``allow_large``: the sweep's ``dim * d^M`` (64 MiB) at dimension 2048, or
#: 4096 for identity-weight (2, 3, 1) family words (11 strands), so all such
#: words evaluate. The sweep keeps two such arrays alive, a 128 MiB peak, and
#: a family of sweep words three.
PEAK_CAP = 1 << 22

#: Block layouts whose compiled networks are kept, the least recently used
#: dropped first. Replaying 11033 ``wide-trace`` benchmark ops (16-word pool
#: per cell, random rotation and theta) met 690-693 distinct layouts, each
#: word's rotations planned at one least rotation; keeping 256, 512, 1024
#: and 4096 of them served 62-63, 91, 94 and 94 % of their plans (two
#: seeds). Planned as given, the same ops met about 3950 layouts, and 4096
#: served 63-64 %. An entry (key, traced blocks, decoded steps, loop factor,
#: multiply-adds, peak and the cache's own link) holds about 3270 bytes with
#: its share of ``_fetch``'s cache, which keeps as many results: clearing both
#: after 11800 ops (688 entries) freed 2.25 MB (tracemalloc), 1.33 MB of it
#: ``_fetch``'s.
_PLANS_KEPT = 4096

# per operator, its powers r^e and their tensors (_powers), filled as words
# need them
_POWERS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

#: Operands of at most this many elements that a step permutes into a copy
#: are gathered through a kept flat index (``_fetch``) instead of transposed
#: and copied. On a 2-CPU x86-64 host ``take`` cost 0.46, 0.43 and 0.66 us at
#: 16, 64 and 256 elements against 0.81, 1.49 and 2.04 us, and 1.55 against
#: 4.0 us at 1024. The indices are kept, by ``_fetch``'s cache and the plans
#: that use them, so memory sets the bound: after 28000 ``wide-trace``
#: benchmark ops (747 kept plans sharing their indices) the process held
#: 1.65 MB more than with plans kept as byte programs, with intp indices up
#: to 64 elements and uint8 ones above, 2.84 MB with intp for all and 1.50 MB
#: with uint8 for all (tracemalloc), for a mean op 16, 19 and 14 % faster
#: (``take`` casts a uint8 index on every call). Gathering nothing held
#: 2.34 MB more, as each copied operand keeps its own axis order, and was 8 %
#: faster.
_GATHER = 256

# complex elements of the largest array numpy can hold, 2^63 bytes
_HOLDABLE = 1 << 59


@dataclass(frozen=True, eq=False)
class RepContext:
    """Size data for one representation: operator, strand count, factors."""

    op: GybOperator
    n: int
    factors: int
    dim: int


def make_context(op: GybOperator, n: int) -> RepContext:
    """Build the context for braids on ``n`` strands.

    Raises ResourceCapError, before ``d`` is raised to any power, when the
    dimension ``d^N`` overflows a float: no value could be reported.
    """
    if n < 1:
        raise ShapeError(f"strand count must be positive, got {n}")
    g = op.gtype
    factors = g.k + g.m * (n - 2)
    try:
        float(g.d) ** factors
    except OverflowError:
        raise ResourceCapError(f"the dimension {g.d}^{factors} for {n} strands overflows a float") from None
    return RepContext(op, n, factors, g.d**factors)


def _apply_block(mat: np.ndarray, start: int, state: np.ndarray, d: int) -> np.ndarray:
    # state holds one column per basis vector of the batch; reshape so the
    # acted-on factors form the middle axis, batch folded into the last.
    shape = state.shape
    state3 = state.reshape(d ** (start - 1), len(mat), -1)
    return np.matmul(mat, state3).reshape(shape)


def rep_apply(ctx: RepContext, b: BraidWord, v) -> np.ndarray:
    """Apply the represented braid to a state vector of length ``ctx.dim``."""
    if b.strands != ctx.n:
        raise ShapeError(f"braid has {b.strands} strands, context expects {ctx.n}")
    v = np.asarray(v, dtype=np.complex128)
    if v.shape != (ctx.dim,):
        raise ShapeError(f"state must have length {ctx.dim}, got shape {v.shape}")
    state, d = v.reshape(ctx.dim, 1), ctx.op.gtype.d
    for mat, pos, _, _ in _letters(ctx, b):
        state = _apply_block(mat, pos, state, d)
    return state.ravel()


def dense_representation(ctx: RepContext, b: BraidWord) -> np.ndarray:
    """Dense matrix of the represented braid, assembled with Kronecker
    embeddings. Cross-check oracle for the matrix-free path; dimension
    grows as ``d**N``, keep ``n`` small.
    """
    if b.strands != ctx.n:
        raise ShapeError(f"braid has {b.strands} strands, context expects {ctx.n}")
    t = ctx.op.gtype
    shape = TensorShape(t.d, ctx.factors)
    out = identity(ctx.dim)
    for g in b.letters:
        mat = ctx.op.r if g > 0 else ctx.op.r_inv
        out = tensor_embed(mat, t.m * (abs(g) - 1) + 1, shape) @ out
    return out


def _place_blocks(ctx: RepContext, blocks) -> list[list]:
    # The validated non-identity weight blocks, which lead a trace's block list and move all they cover.
    # known: per id and span of a block object, the object (held, so its id stays its own) and its
    # array, None for the identity: a weight that repeats one object is checked once
    d = ctx.op.gtype.d
    placed = []
    if blocks is not None:
        pos, known = 1, {}
        for mat, span in blocks:
            if (id(mat), span) not in known:
                arr = np.asarray(mat, dtype=np.complex128)
                span_dim = d**span
                if arr.shape != (span_dim, span_dim):
                    raise ShapeError(f"weight block spanning {span} factors must be {span_dim}x{span_dim}")
                known[id(mat), span] = mat, None if np.array_equal(arr, identity(span_dim)) else arr
            arr = known[id(mat), span][1]
            if arr is not None:
                placed.append([arr, pos, span, range(span)])
            pos += span
        if pos - 1 != ctx.factors:
            raise ShapeError(f"weight blocks cover {pos - 1} factors, context has {ctx.factors}")
    return placed


def _letters(ctx: RepContext, b: BraidWord) -> list[list]:
    # One [matrix, first factor, span, moved offsets] block per letter, as they act.
    t, op = ctx.op.gtype, ctx.op
    return [[op.r if g > 0 else op.r_inv, t.m * (abs(g) - 1) + 1, t.k, op.moved] for g in b.letters]


def _powers(op: GybOperator) -> tuple[dict, dict]:
    # op's powers r^e by exponent e, and per power's id its tensor and a dict
    # of that tensor traced alone over factors, by the subscripts it is
    # traced with
    kept = _POWERS.get(op)
    if kept is None:
        kept = _POWERS[op] = {}, {}
        for e in (1, -1):
            _power(op, kept, e)
    return kept


def _power(op: GybOperator, kept, e: int) -> np.ndarray:
    # r^e from kept, made and kept first if it is not there yet. The dict of
    # powers holds each one for the life of op, so its id names it in the
    # dict of forms; a power two threads made at once is kept once
    powers, forms = kept
    mat = powers.get(e)
    if mat is None:
        mat = op.r if e == 1 else op.r_inv if e == -1 else np.linalg.matrix_power(op.r if e > 0 else op.r_inv, abs(e))
        mat = powers.setdefault(e, mat)
        forms[id(mat)] = np.ascontiguousarray(mat).reshape((op.gtype.d,) * 2 * op.gtype.k), {}
    return mat


def _fuse(ctx: RepContext, b: BraidWord, cyclic: bool = False) -> list[list]:
    # The letters of _letters grouped into fewer blocks in the order they act,
    # by the rule of the module docstring. Two generators clash (their windows
    # share a factor one of them moves) when they lie at most ``reach`` apart:
    # ``m`` times their distance is at most the furthest any offset lies from
    # a moved one. A group is [e, generator + reach], shifted so that the
    # generators within reach of any one start at index 0 or above; e = 0
    # marks a vanished group. stacks: per generator, the groups on it and on
    # those it clashes with, in the order they start. A letter joins the last
    # live group on its stack if that is on its own generator, else starts
    # one. Vanished groups are skipped, so they part nothing, and each is
    # pushed and popped once per stack, so the walk is linear. With cyclic,
    # the first live group on a stack commutes with all before it and the
    # last with all after it: when both are on the stack's generator the
    # first joins the last across the closure, and if they cancel, the stacks
    # within reach are looked at again.
    t, op = ctx.op.gtype, ctx.op
    reach = max((max(a, t.k - 1 - a) for a in op.moved), default=0) // t.m
    stacks = [deque() for _ in range(ctx.n + 2 * reach)]
    groups = []
    for g in b.letters:
        e, i = (1, g + reach) if g > 0 else (-1, reach - g)
        stack = stacks[i]
        while stack and not stack[-1][0]:
            stack.pop()
        if stack and stack[-1][1] == i:
            stack[-1][0] += e
            continue
        groups.append(group := [e, i])
        for near in stacks[i - reach:i + reach + 1]:
            near.append(group)
    if cyclic:
        todo = list(range(reach + 1, ctx.n + reach))
        while todo:
            stack = stacks[i := todo.pop()]
            while stack and not stack[0][0]:
                stack.popleft()
            while stack and not stack[-1][0]:
                stack.pop()
            if len(stack) > 1 and stack[0][1] == stack[-1][1] == i:
                first = stack.popleft()
                stack[-1][0] += first[0]
                first[0] = 0
                if not stack[-1][0]:
                    todo += range(i - reach, i + reach + 1)
    kept = _powers(op)
    powers = kept[0]
    blocks = []
    for e, i in groups:
        if e:
            mat = powers.get(e)
            if mat is None:
                mat = _power(op, kept, e)
            blocks.append([mat, t.m * (i - reach - 1) + 1, t.k, op.moved])
    return blocks


def _moved_factors(blocks) -> set[int]:
    return {first - 1 + j for _, first, _, offsets in blocks for j in offsets}


def _sweep(ctx: RepContext, lists, moved) -> list[complex]:
    # The trace of each block list, all of which move the factors ``moved``.
    # One column per label of those factors, summing the basis vectors with
    # those labels; diag: each row's flat position in its moved labels' column.
    # The blocks every list starts with (by object and position) run once, and
    # each list runs the rest of its own from that shared state, so at most
    # three states are alive: the shared one, a list's and the one it makes.
    # A lone list is all shared run.
    d = ctx.op.gtype.d
    cols = d ** len(moved)
    if len(moved) == ctx.factors:
        diag = np.arange(0, ctx.dim * cols, cols + 1)
    else:
        label = np.arange(cols).reshape([d if f in moved else 1 for f in range(ctx.factors)])
        diag = (np.arange(0, ctx.dim * cols, cols).reshape((d,) * ctx.factors) + label).reshape(-1)
    state = np.zeros((ctx.dim, cols), dtype=np.complex128)
    state.put(diag, 1)
    first = lists[0]
    common = min(map(len, lists))  # the number of blocks every list starts with
    for blocks in lists[1:]:
        for i in range(common):
            if blocks[i][0] is not first[i][0] or blocks[i][1] != first[i][1]:
                common = i
                break
    for mat, pos, _, _ in first[:common]:
        state = _apply_block(mat, pos, state, d)
    values = []
    for blocks in lists:
        own = state
        for mat, pos, _, _ in blocks[common:]:
            own = _apply_block(mat, pos, own, d)
        values.append(_closed(own, diag))
    return values


def _closed(state: np.ndarray, diag: np.ndarray) -> complex:
    # adding to +0 turns a -0.0 trace into 0.0, as values have always read
    return complex(0.0 + 0.0j + state.take(diag).sum())


def _network(d: int, factors: int, layout):
    """The closed network of ``tr(rho(b) . W)`` over ``factors`` factors of
    dimension ``d`` for one block layout, the ``(position, span)`` of each
    block, the weight blocks of ``W`` first and then those of the word.

    Returns ``(traced, legs, loop_factor)``: per block alone on a factor,
    its index with the einsum subscripts that trace it over those factors,
    packed as bytes; the integer label of each tensor axis, one tensor per
    block in the order they act, output legs first; and ``d`` to the number
    of factors nothing acts on, each of which closes into a loop. Factor
    ``j`` enters with label ``j`` and its last output label is renamed to
    ``j``, which closes the wire without an identity tensor. A block alone
    on a factor would carry that label twice, so ``_tensors`` traces it
    over those factors: every returned label sits on exactly two tensors.
    """
    fresh = factors  # the next unused label
    wires = list(range(factors))
    legs, firsts = [], []  # firsts: each tensor's first output label
    for pos, span in layout:
        ins = wires[pos - 1:pos - 1 + span]
        wires[pos - 1:pos - 1 + span] = out = list(range(fresh, fresh + span))
        firsts.append(fresh)
        fresh += span
        legs.append(out + ins)
    # a last output label is renamed on the tensor whose outputs hold it; a
    # tensor that also took that factor's first input label is lone there
    loops, lone = 0, set()
    for j, w in enumerate(wires):
        if w == j:
            loops += 1
            continue
        i = bisect_right(firsts, w) - 1
        ls = legs[i]
        ls[w - firsts[i]] = j
        if ls.count(j) > 1:
            lone.add(i)
    traced = []
    for i in sorted(lone):
        ls = legs[i]
        legs[i] = once = [x for x in ls if ls.count(x) == 1]
        axis = {x: n for n, x in enumerate(dict.fromkeys(ls))}
        traced.append((i, bytes(axis[x] for x in ls), bytes(axis[x] for x in once)))
    return tuple(traced), legs, d**loops


def _tensors(d: int, blocks, traced, forms: dict) -> list[np.ndarray]:
    # one tensor per block, output axes first and C-ordered, as _fetch
    # assumes, traced as _network says; an operator power's tensor and its
    # traced forms come from forms (_powers), made once and kept with it
    tensors = [np.ascontiguousarray(mat).reshape((d,) * 2 * span) if (form := forms.get(id(mat))) is None else form[0]
               for mat, _, span, _ in blocks]
    for i, ins, once in traced:
        form = forms.get(id(blocks[i][0]))
        lone = None if form is None else form[1].get(ins)
        if lone is None:
            lone = np.einsum(tensors[i], list(ins), list(once))
            if form is not None:
                form[1][ins] = lone
        tensors[i] = lone
    return tensors


def _greedy_plan(legs, d: int) -> tuple[list[tuple[int, int]], int, int, list[tuple]]:
    """Pairwise contraction order for a network with the given leg labels.

    Every label sits on two tensors, as ``_network`` leaves them, so a
    tensor's open legs are a bitmask and merging two tensors keeps the
    symmetric difference. One table, ``ends``, holds the ids of the two
    tensors each label joins. A merge drops its shared labels from it and
    moves the ends of its free legs to the merged tensor, whose neighbours
    are their far ends; planning stops when no label is left. Only tensors
    that share a leg are candidates; the greedy cost is
    ``size(out) - size(a) - size(b)`` with ties broken on the smaller, then
    the larger tensor id, so the order, and with it the floating-point
    result, is fixed. Merged tensors take the next id after the inputs, with
    ``a``'s free legs and then ``b``'s, each in its order; the inputs' legs
    become ``None``, and a heap entry naming either is stale and skipped.
    Returns the steps as id pairs, the multiply-add count of the whole
    contraction, the element count of its largest tensor and, per step, the
    ``(shared, order_a, order_b)`` that ``_decode`` reads: the number of
    shared legs, the axis order that puts ``a`` in dot order (its free legs,
    then the shared ones) and the one for ``b`` (the shared legs in ``a``'s
    order, then its free ones), each None when the axes are in that order
    already.
    """
    ends, masks = {}, []  # ends: per label, the ids of the two tensors it joins
    for i, ls in enumerate(legs):
        mask = 0
        for x in ls:
            mask |= 1 << x
            ends.setdefault(x, []).append(i)
        masks.append(mask)

    # no mask, nor the union of two, has more bits than there are labels
    power = [d**e for e in range(len(ends) + 1)]
    sizes = [power[mask.bit_count()] for mask in masks]
    flops, peak = 0, max(sizes, default=1)
    heap = [(power[(masks[i] ^ masks[j]).bit_count()] - sizes[i] - sizes[j], i, j)
            for i, j in {tuple(pair) for pair in ends.values()}]
    heapq.heapify(heap)
    legs = list(legs)  # a merged tensor's legs become None
    steps, orders = [], []
    pop, push = heapq.heappop, heapq.heappush
    while ends:  # a label not yet contracted joins two live tensors
        _, i, j = pop(heap)
        if legs[i] is None or legs[j] is None:
            continue
        flops += power[(masks[i] | masks[j]).bit_count()]
        mask = masks[i] ^ masks[j]
        size = power[mask.bit_count()]
        if size > peak:
            peak = size
        c = len(masks)
        steps.append((i, j))
        rest = dict(zip(legs[j], count()))
        order_a, shared, order_b, free = [], [], [], []
        for n, x in enumerate(legs[i]):
            m = rest.pop(x, None)
            if m is None:
                order_a.append(n)
                free.append(x)
            else:
                del ends[x]
                shared.append(n)
                order_b.append(m)
        # a's axes are in dot order when its shared legs come last, b's when
        # they come first in a's order
        orders.append((len(shared), None if shared[0] == len(order_a) else (*order_a, *shared),
                       None if order_b == list(range(len(shared))) else (*order_b, *rest.values())))
        free += rest
        legs[i] = legs[j] = None
        legs.append(free)
        masks.append(mask)
        sizes.append(size)
        # each free leg's end on a or b moves to c; the far ends are c's neighbours
        near = set()
        for x in free:
            pair = ends[x]
            pair.remove(i if i in pair else j)
            near.add(pair[0])
            pair.append(c)
        for k in near:
            push(heap, (power[(masks[k] ^ mask).bit_count()] - sizes[k] - size, k, c))
    return steps, flops, peak, orders


def _permuted(a: np.ndarray, how) -> np.ndarray:
    # a's axes put in dot order and folded to a matrix, as np.tensordot does
    shape, order, matrix = how
    return a.reshape(shape).transpose(order).reshape(matrix)


def _transposed(a: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    # the transpose of a read as a matrix of the given shape, a view
    return a.reshape(shape).T


@lru_cache(maxsize=_PLANS_KEPT)
def _fetch(d: int, rank: int, order: tuple | None, matrix: tuple[int, int]):
    # How _contract gets one operand, a C-ordered tensor of ``rank`` axes, as
    # the matrix ``matrix``: (function, argument), run as function(tensor,
    # argument). Each gives the array np.tensordot's transpose and reshape
    # give, the same values in the same strides, so np.dot runs as it would:
    # * axes in dot order (no ``order``): a reshape, a view;
    # * axes rotated, the last ``rank - c`` first (c the first axis of
    #   ``order``), split where they meet: a view, the transpose of the
    #   tensor read as a d^c by d^(rank - c) matrix. For a C-ordered tensor
    #   no other order folds to a view;
    # * any other order of at most _GATHER elements: a copy, gathered through
    #   the flat index of the permuted copy;
    # * larger: a copy made by transposing and reshaping.
    # The size is checked before anything is allocated, so decoding a plan
    # over the cap makes no large array. Kept plans that make the same call
    # share its result, gather index included, through the cache
    if order is None:
        return np.ndarray.reshape, matrix
    c, size = order[0], d**rank
    if d ** (rank - c) == matrix[0] and order == (*range(c, rank), *range(c)):
        return _transposed, matrix[::-1]
    how = (d,) * rank, order, matrix
    if size > _GATHER:
        return _permuted, how
    # take casts an index of another dtype than intp on every call, about
    # 0.3 us, so only the larger ones are narrowed to uint8
    flat = np.arange(size, dtype=np.intp if size <= _GATHER // 4 else np.uint8)
    return np.ndarray.take, _permuted(flat, how).copy()


def _decode(d: int, legs, steps, orders) -> tuple:
    """The steps ``_contract`` runs for a plan from ``_greedy_plan`` over a
    network with the given legs, flat: per step, the ids of its tensors and,
    for each, the function and argument ``_fetch`` gives."""
    ranks = [len(ls) for ls in legs]
    decoded = []
    for (i, j), (shared, order_a, order_b) in zip(steps, orders):
        k = d**shared
        decoded += (i, j)
        decoded += _fetch(d, ranks[i], order_a, (d ** (ranks[i] - shared), k))
        decoded += _fetch(d, ranks[j], order_b, (k, d ** (ranks[j] - shared)))
        ranks.append(ranks[i] + ranks[j] - 2 * shared)
    return tuple(decoded)


def _contract(tensors, steps, loop_factor) -> complex:
    # Run steps from _decode on tensors from _tensors. Each step is one
    # np.dot of its two operands as matrices, as np.tensordot would run on
    # the shared legs, in the same floating-point order, without its
    # overhead; the ndarray.dot method skips np.dot's dispatcher. Products
    # stay matrices. What no step merges is a tensor with no legs left, a
    # factor of the value.
    tensors = list(tensors)
    it = iter(steps)
    for i, j, fetch_a, a, fetch_b, b in zip(it, it, it, it, it, it):
        tensors.append(fetch_a(tensors[i], a).dot(fetch_b(tensors[j], b)))
        tensors[i] = tensors[j] = None
    value = complex(loop_factor)
    for arr in tensors:
        if arr is not None:
            value *= complex(arr.reshape(()))
    return value


@lru_cache(maxsize=_PLANS_KEPT)
def _compiled(key: bytes) -> tuple[tuple, tuple, int, int, int]:
    # The network of one block layout compiled by _network, _greedy_plan and
    # _decode, as (traced blocks, decoded steps, loop factor, multiply-adds,
    # largest array). key: array("I") bytes of d, the factor count and each
    # block's position and span. array("I") raises rather than truncate a
    # value of 2^32 or more; positions stay far below it, since a float
    # overflows at d^1024 and every word's letters are in memory. lru_cache
    # keeps its entries coherent when threads trace at once
    d, factors, *layout = array("I", key)
    traced, legs, loop_factor = _network(d, factors, zip(layout[::2], layout[1::2]))
    steps, flops, peak, orders = _greedy_plan(legs, d)
    return traced, _decode(d, legs, steps, orders), loop_factor, flops, peak


def _planned(ctx: RepContext, blocks):
    # (multiply-adds, largest array, evaluation) of the greedy network over
    # blocks. Its layout is compiled once and kept by _compiled; every
    # evaluation builds the tensors from the blocks and runs the kept steps
    d = ctx.op.gtype.d
    key = array("I", [d, ctx.factors, *(x for _, pos, span, _ in blocks for x in (pos, span))]).tobytes()
    traced, steps, loop_factor, flops, peak = _compiled(key)
    forms = _powers(ctx.op)[1]

    def evaluate():
        return _contract(_tensors(d, blocks, traced, forms), steps, loop_factor)

    return flops, peak, evaluate


def _least_rotation(seq) -> int:
    # The least r for which seq[r:] + seq[:r] is the least rotation of seq, by
    # a two-pointer scan of fewer than 3 len(seq) steps: every start before j
    # but i is ruled out, and the rotations from i and j agree on their first
    # k elements. Where they first differ, the larger rotation rules out its
    # own start and the k after it. Where they agree on all n, seq repeats
    # with period j - i, so no later start is less than i
    n = len(seq)
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = seq[(i + k) % n], seq[(j + k) % n]
        if a != b:
            if b < a:
                i, j = j, max(j + 1, i + k + 1)
            else:
                j += k + 1
            k = 0
        else:
            k += 1
    return i


def _in_memory(evaluate, peak: int):
    # evaluate(), refusing as too large, not failing, one that runs out of
    # memory, as an allow_large evaluation past the machine's memory does
    try:
        return evaluate()
    except MemoryError:
        raise ResourceCapError(
            f"ran out of memory evaluating a trace whose largest array holds about 2^{peak.bit_length() - 1} elements"
        ) from None


def traces(ctx: RepContext, words, blocks=None, allow_large: bool = False) -> list[complex]:
    """Weighted traces of several braids on one context under one weight.

    Each value is, to the bit, ``trace_with_weight(ctx, b, blocks,
    allow_large)`` of its word. A word the cap refuses raises the error it
    raises alone, the first such word in order; the sweeps run after every
    word is placed, so a sweep that runs out of memory is raised after any
    refusal, whatever its word's place. What the words share is done once,
    as the module docstring describes. Network plans come from the
    per-layout plans kept across calls, so a family and its words alone
    share them too.

    Each word runs the column sweep or one of a chain of networks, planned
    in this order: the fused blocks from the least rotation of their
    layout, the fused blocks as given, and one tensor per letter. The first
    is planned when the sweep costs ``SWEEP_GATE`` multiply-adds or more or
    is over ``PEAK_CAP``, and each later one only while every candidate so
    far is over the cap, since the greedy plan of a rotation or of the
    letters can peak lower but planning them for every word costs too
    much. Under the identity weight the rotations of a word share the first
    plan; a weighted trace is not cyclic, so its first network is its
    blocks as given, and the second repeats that kept plan. Of the
    candidates, the one with the fewest multiply-adds whose largest array
    fits the cap runs, ties to the earlier. When none fits, the word is
    refused with ResourceCapError naming the smallest largest array among
    them, or with ``allow_large`` that candidate runs, so that option never
    changes the path of a word that fits. The letters are a word's own
    network: a later word that fuses alike is evaluated anew.
    """
    for b in words:
        if b.strands != ctx.n:
            raise ShapeError(f"braid has {b.strands} strands, context expects {ctx.n}")
    placed = _place_blocks(ctx, blocks)
    d = ctx.op.gtype.d
    values = [None] * len(words)
    same = {}  # per fused list, the position of the word evaluated and those of its repeats
    sweeps = {}  # per moved factors, the lists the sweep runs and their positions
    for n, b in enumerate(words):
        fused = placed + _fuse(ctx, b, cyclic=not placed)
        # from a list: tuple() of a generator grows its tuple by resizing, and
        # the resized tuples pile up in the interpreter's tuple free lists
        key = tuple([(id(mat), pos) for mat, pos, _, _ in fused])
        if key in same:
            same[key].append(n)
            continue
        same[key] = [n]
        moved = _moved_factors(fused)
        sweep_peak = ctx.dim * d ** len(moved)
        sweep_cost = sweep_peak * (1 + sum(d**span for _, _, span, _ in fused))
        # (multiply-adds, largest array, evaluation): the sweep, whose evaluation is None, then the
        # networks of the chain in the docstring, the letters' blocks named by None
        candidates = [(sweep_cost, sweep_peak, None)]
        if sweep_cost >= SWEEP_GATE or sweep_peak > PEAK_CAP:
            r = 0 if placed else _least_rotation([pos for _, pos, _, _ in fused])
            for net in (fused[r:] + fused[:r], fused, None):
                if len(candidates) > 1 and any(peak <= PEAK_CAP for _, peak, _ in candidates):
                    break
                candidates.append(_planned(ctx, placed + _letters(ctx, b) if net is None else net))
            else:
                # the letters are this word's own: a later word that fuses alike evaluates its own
                del same[key]
        # under the cap the fewest multiply-adds; over it the smallest largest array; ties to the first
        _, peak, evaluate = min(candidates, key=lambda c: (max(c[1], PEAK_CAP), c[0]))
        if peak > PEAK_CAP and (not allow_large or peak >= _HOLDABLE):
            raise ResourceCapError(
                f"a {len(b)}-letter word on {ctx.n} strands needs an array of about "
                f"2^{peak.bit_length() - 1} elements, " + (
                    "more than any array can hold" if peak >= _HOLDABLE else
                    f"over the cap of 2^{PEAK_CAP.bit_length() - 1}; "
                    "pass allow_large=True (CLI: --allow-large) to override")
            )
        if evaluate is not None:
            values[n] = _in_memory(evaluate, peak)
        else:
            lists, positions = sweeps.setdefault(frozenset(moved), ([], []))
            lists.append(fused)
            positions.append(n)
    for moved, (lists, positions) in sweeps.items():
        for n, value in zip(positions, _in_memory(partial(_sweep, ctx, lists, moved), ctx.dim * d ** len(moved))):
            values[n] = value
    for n, *repeats in same.values():
        for m in repeats:
            values[m] = values[n]
    return values


def trace_with_weight(ctx: RepContext, b: BraidWord, blocks=None, allow_large: bool = False) -> complex:
    """Trace of the represented braid composed with a product weight.

    Args:
        ctx: representation context matching ``b``.
        b: braid word to represent.
        blocks: optional sequence of ``(matrix, span)`` pairs laid out left
            to right; their spans must cover all ``ctx.factors`` factors.
            None means the identity weight. Blocks that equal the identity
            are skipped.
        allow_large: where no evaluator fits ``PEAK_CAP``, run the one
            the refusal names instead of raising ResourceCapError, as
            ``traces`` states.

    Returns:
        ``tr(rho(b) . W)`` where ``W`` is the Kronecker product of the blocks.
        It is the one-word case of ``traces``.
    """
    return traces(ctx, [b], blocks, allow_large)[0]
