import gc
import hashlib
import math
import sys
import threading
import tracemalloc
import weakref
from collections import Counter
from functools import lru_cache, partial, reduce

import numpy as np
import pytest
from oracles import kron_representation, tensordot_contract

from gyblink.braids import BraidWord, conjugate, juxtapose, parse_braid, random_braid, stabilize
from gyblink.enhancement import catalog_enhancement
from gyblink.errors import ResourceCapError, ShapeError
from gyblink.invariant import markov_check, trace_invariant
from gyblink.operators import GybType, build_operator, build_r232, build_type1, check_outer_diagonal, load_custom
from gyblink import rep
from gyblink.rep import (
    PEAK_CAP,
    SWEEP_GATE,
    _apply_block,
    _compiled,
    _contract,
    _decode,
    _fuse,
    _greedy_plan,
    _least_rotation,
    _letters,
    _moved_factors,
    _network,
    _place_blocks,
    _sweep,
    _tensors,
    dense_representation,
    make_context,
    rep_apply,
    trace_with_weight,
    traces,
)
from gyblink.tensorops import max_abs

OPS = [build_operator(name, 0.3) for name in ("type1", "type2", "type3")] + [build_r232()]


def test_context_dimensions():
    op = build_type1(0.0)
    assert make_context(op, 1).factors == 2
    assert make_context(op, 2).factors == 3
    assert make_context(op, 5).dim == 2**6
    wide = build_r232()
    assert make_context(wide, 1).dim == 2
    assert make_context(wide, 2).dim == 8
    assert make_context(wide, 6).dim == 2048
    with pytest.raises(ShapeError):
        make_context(op, 0)


def test_dimension_cap(monkeypatch):
    # the cap bounds the largest array a trace holds, not the dimension
    op = build_type1(0.0)
    ctx = make_context(op, 11)
    assert ctx.dim == 4096
    assert trace_with_weight(ctx, BraidWord(11, ())) == 4096
    b = random_braid(11, 20, seed=3)
    want = trace_with_weight(ctx, b)
    monkeypatch.setattr("gyblink.rep.PEAK_CAP", 64)
    with pytest.raises(ResourceCapError, match="allow_large"):
        trace_with_weight(ctx, b)
    assert trace_with_weight(ctx, b, allow_large=True) == want
    # no word on these strand counts has a finite dimension to report
    for n, wide in ((1100, op), (300000000, op), (600, build_r232())):
        with pytest.raises(ResourceCapError, match="overflows a float"):
            make_context(wide, n)
    assert make_context(op, 1021).dim == 2**1022


def test_plan_over_the_cap_takes_the_sweep(monkeypatch):
    # a plan whose largest tensor exceeds PEAK_CAP is not run when the
    # sweep fits, even though it needs fewer multiply-adds
    ctx = make_context(build_type1(0.6), 9)
    b = random_braid(9, 30, seed=23)

    def wide_plan(legs, d):
        steps, flops, _, orders = _greedy_plan(legs, d)
        return steps, flops, PEAK_CAP + 1, orders

    def refuse(*args):
        raise AssertionError("the network path ran")

    monkeypatch.setattr("gyblink.rep._greedy_plan", wide_plan)
    monkeypatch.setattr("gyblink.rep._contract", refuse)
    word = _fuse(ctx, b, cyclic=True)
    assert trace_with_weight(ctx, b) == _sweep(ctx, [word], _moved_factors(word))[0]


def test_words_under_the_gate_plan_no_network(monkeypatch):
    # small words, a third with a non-identity weight on every factor, return
    # from the sweep before any network is built; r232 stays on 3 strands,
    # where no word of up to 12 letters reaches SWEEP_GATE. A long word on 9
    # strands builds exactly one network, the fused one
    built = []

    def counting(*args):
        built.append(args)
        return _network(*args)

    monkeypatch.setattr("gyblink.rep._network", counting)
    rng = np.random.default_rng(67)
    for case in range(120):
        op = OPS[case % 4]
        n = int(rng.integers(2, 4 if op.op_id == "r232" else 5))
        ctx = make_context(op, n)
        b = random_braid(n, int(rng.integers(0, 13)), rng)
        trace_with_weight(ctx, b, [(np.diag([1.0, 2.0]), 1)] * ctx.factors if case % 3 == 2 else None)
    assert built == []
    trace_with_weight(make_context(build_type1(0.3), 9), random_braid(9, 40, seed=5))
    assert len(built) == 1


def _sweep_words(n, rng):
    # the empty word, a random word, a word of sigma_1 alone, a split union,
    # which has no generator at the junction, and words whose letters fuse
    # across blocks at distance two or more: two generators two apart,
    # interleaved, and odd generators with even ones between
    yield BraidWord(n, ())
    if n >= 2:
        yield random_braid(n, 8, rng)
        yield BraidWord(n, tuple(int(g) for g in rng.choice([1, -1], size=5)))
    if n >= 3:
        yield juxtapose(random_braid(n // 2, 4, rng), random_braid(n - n // 2, 4, rng))
        odd = [int(g) * int(rng.choice([1, -1])) for g in rng.choice(range(1, n, 2), size=10)]
        yield BraidWord(n, tuple(odd[:4] + [2, -2] + odd[4:7] + [int(rng.integers(1, n))] + odd[7:]))
    if n >= 4:
        i = int(rng.integers(1, n - 2))
        yield BraidWord(n, (i, i + 2, -i, i + 2, i, -(i + 2), i))


def _dense(ctx, b):
    # the np.kron oracle for the context's operator, with its stored inverse
    g = ctx.op.gtype
    return kron_representation(ctx.op.r, ctx.op.r_inv, g.d, g.k, g.m, b)


def _dense_trace(ctx, b, blocks):
    dense = _dense(ctx, b)
    return np.trace(dense if blocks is None else dense @ reduce(np.kron, [mat for mat, _ in blocks]))


def _sweep_cases(op, strands, seed):
    # every word of _sweep_words under the identity weight, a mu on every
    # factor, and the defect pad sampled_perpendicularity builds, with the
    # identity or a mu on the factors before the defect
    rng = np.random.default_rng(seed)
    g = op.gtype
    pad = g.k - g.m
    for n in strands:
        ctx = make_context(op, n)
        mu = rng.normal(size=(g.d, g.d)) + 1j * rng.normal(size=(g.d, g.d))
        weights = [None, [(mu, 1)] * ctx.factors]
        if n >= 2:
            defect = rng.normal(size=(g.d**pad,) * 2) + 1j * rng.normal(size=(g.d**pad,) * 2)
            for front in (np.eye(g.d), mu):
                weights.append([(front, 1)] * (ctx.factors - pad) + [(defect, pad)])
        for b in _sweep_words(n, rng):
            for blocks in weights:
                yield ctx, b, blocks


@pytest.mark.parametrize("theta", ["0.4", "clifford"])
@pytest.mark.parametrize("name", ["type1", "type2", "type3", "r232"])
def test_sweep_matches_dense_trace(name, theta):
    # the Clifford points: theta = pi/2 for type1 and type2, 0 for type3;
    # r232 has no parameter
    op = build_operator(name, 0.4 if theta == "0.4" else {"type3": 0.0}.get(name, np.pi / 2))
    cases = 0
    for ctx, b, blocks in _sweep_cases(op, range(1, 5 if name == "r232" else 7), seed=3):
        want = _dense_trace(ctx, b, blocks)
        for got in (trace_with_weight(ctx, b, blocks), *_forced_traces(ctx, b, blocks)):
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (ctx.n, b, blocks is None)
        cases += 1
    assert cases >= 40


def test_raw_traces_do_not_depend_on_theta(monkeypatch):
    # under the identity weight the raw type1, type2 and type3 traces are the
    # same at every theta: 5 seeded words on each of 3 x 6, 8 x 20, 10 x 40
    # and 16 x 60 strands x letters, which take both the sweep and the
    # network. Many of the values are exact zeros, so the tolerance has an
    # absolute floor. The worst deviation is 2.6e-13 of max(1, |value|) (type3)
    calls = _counting(monkeypatch, "_sweep", "_contract")
    thetas = (0.4, 1.1, 2.5, np.pi / 2)
    ops = {name: [build_operator(name, theta) for theta in thetas] for name in ("type1", "type2", "type3")}
    rng = np.random.default_rng(47)
    for n, length in ((3, 6), (8, 20), (10, 40), (16, 60)):
        words = [random_braid(n, length, rng) for _ in range(5)]
        for name, family in ops.items():
            first, *rest = [traces(make_context(op, n), words) for op in family]
            for values in rest:
                for got, want in zip(values, first):
                    assert abs(got - want) <= 1e-11 * max(1.0, abs(want)), (name, n, length)
    assert calls["_sweep"] and calls["_contract"]


def _custom_ops():
    # an outer-diagonal (3, 3, 1) operator; type1 with an outer off-diagonal
    # entry of 1e-300; a dense (2, 3, 1) operator
    rng = np.random.default_rng(17)
    r = np.zeros((27, 27), dtype=np.complex128)
    for a in range(3):
        for c in range(3):
            block = [9 * a + 3 * m + c for m in range(3)]
            r[np.ix_(block, block)] = rng.normal(size=(3, 3)) + 3 * np.eye(3)
    tiny = build_type1(0.4).r.copy()
    tiny[0, 5] = 1e-300  # rows 000 and columns 101: both outer labels differ
    return (load_custom(r, GybType(3, 3, 1)), load_custom(tiny, GybType(2, 3, 1)),
            load_custom(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)), GybType(2, 3, 1)))


CUSTOM = _custom_ops()


def _extended_trace(ctx, b, blocks):
    # tr(rho(b) . W) in np.clongdouble, with r_inv the inverse of r to that
    # precision (two Newton steps from the stored one) and each letter
    # applied by a reshape: on an ill-conditioned operator the float64 dense
    # oracle, which multiplies r by the stored r_inv, is the less exact side
    op, d = ctx.op, ctx.op.gtype.d
    r, inv = op.r.astype(np.clongdouble), op.r_inv.astype(np.clongdouble)
    for _ in range(2):
        inv = inv @ (2 * np.eye(len(r)) - r @ inv)
    rho = np.eye(ctx.dim, dtype=np.clongdouble)
    for g in b.letters:
        mat = r if g > 0 else inv
        rho = np.matmul(mat, rho.reshape(d ** (op.gtype.m * (abs(g) - 1)), len(mat), -1)).reshape(rho.shape)
    if blocks is None:
        return complex(np.trace(rho))
    weight = reduce(np.kron, [np.asarray(mat, dtype=np.clongdouble) for mat, _ in blocks])
    return complex(np.sum(rho * weight.T))


def test_moved_offsets_count_exact_zeros():
    # a factor is conserved only where every entry that changes its label is
    # exactly zero: an outer off-diagonal entry of 1e-300 passes the
    # tolerance of check_outer_diagonal but moves every factor
    outer_diagonal, barely, dense = CUSTOM
    assert outer_diagonal.moved == (1,)
    assert check_outer_diagonal(barely) and barely.moved == (0, 1, 2)
    assert dense.moved == (0, 1, 2)
    # the dense operator has condition number 62: the float64 dense oracle is
    # off by up to about 1e-12 from the extended-precision value, so that
    # operator is held to the extended one
    assert 50 < np.linalg.cond(dense.r) < 100
    for op in (outer_diagonal, barely, dense):
        oracle = _extended_trace if op is dense else _dense_trace
        for ctx, b, blocks in _sweep_cases(op, range(1, 5 if op.gtype.d == 3 else 7), seed=19):
            want = oracle(ctx, b, blocks)
            for got in (trace_with_weight(ctx, b, blocks), *_forced_traces(ctx, b, blocks)):
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("op, n, word, count", [
    (build_type1(0.3), 5, "1 3 1", 2),  # windows two apart share a factor both conserve
    (build_type1(0.3), 5, "1 2 1", 3),
    (build_r232(), 5, "1 3 1", 2),  # disjoint windows
    (build_r232(), 5, "1 2 1", 3),
    (build_type1(0.3), 2, "1 1 -1 1", 1),
    (CUSTOM[2], 5, "1 3 1", 3),  # a dense operator moves the shared factor
    (CUSTOM[2], 5, "1 4 -1 4", 1),  # sigma_1 sigma_1^-1 is the identity and leaves no block
    (CUSTOM[2], 5, "1 4 1 4", 2),  # disjoint windows fuse across each other
])
def test_fused_block_counts(op, n, word, count):
    blocks = _fuse(make_context(op, n), parse_braid(word, n))
    assert len(blocks) == count
    assert all(span == op.gtype.k for _, _, span, _ in blocks)


def test_fused_blocks_are_exact_powers():
    # a group of letters on one generator is r^e, e its positive letters
    # less its negative ones: r or r_inv itself for |e| = 1, no block at all
    # for e = 0, and a power within rounding of the letter-by-letter product,
    # relative to its largest entry
    for op in (build_type1(0.3), build_r232(), CUSTOM[2]):
        ctx = make_context(op, 3)

        def mats(word):
            return [mat for mat, _, _, _ in _fuse(ctx, parse_braid(word, 3))]

        assert [m is op.r for m in mats("1") + mats("1 1 -1") + mats("-2 2 2")] == [True] * 3
        assert [m is op.r_inv for m in mats("-1") + mats("-1 1 -1")] == [True] * 2
        assert mats("1 -1") == mats("2 -2 -2 2") == []
        for e in range(2, 6):
            for g, mat in ((1, op.r), (-1, op.r_inv)):
                (block,) = mats(" ".join([str(g)] * e))
                want = reduce(np.matmul, [mat] * e)
                assert np.max(np.abs(block - want)) <= 1e-15 * np.max(np.abs(want))


def test_cancelled_group_no_longer_parts_its_neighbours():
    # sigma_2 sigma_2^-1 leaves no block, so the sigma_1 on either side of it
    # fuse into r^2, read open or closed, with or without a weight: the word
    # has the block of "1 1" and traces to the same bits
    for op in (build_type1(0.3), build_r232(), CUSTOM[2]):
        ctx = make_context(op, 3)
        b, want = parse_braid("1 2 -2 1", 3), parse_braid("1 1", 3)
        for cyclic in (False, True):
            (block,) = _fuse(ctx, b, cyclic=cyclic)
            (power,) = _fuse(ctx, want, cyclic=cyclic)
            assert np.array_equal(block[0], power[0]) and block[1:] == power[1:]
        mu = [(np.diag([1.0, 2.0]), 1)] * ctx.factors
        for blocks in (None, mu):
            assert trace_with_weight(ctx, b, blocks) == trace_with_weight(ctx, want, blocks)


def test_closed_words_match_dense():
    # under the identity weight a group no earlier group clashes with joins the
    # last group on its window across the closure. Every earlier group counts,
    # not only those open at the start themselves: counting only those would
    # trace this type1 word to three times its value
    ctx = make_context(OPS[0], 5)
    b = parse_braid("3 2 -1 2 2 -2 -3 1", 5)
    assert len(_fuse(ctx, b, cyclic=True)) < len(_fuse(ctx, b))
    want = _dense_trace(ctx, b, None)
    for got in (trace_with_weight(ctx, b), *_forced_traces(ctx, b, None)):
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
    # every cyclic rotation of 200 seeded words, a conjugate of the word
    # with its trace; both evaluators run on each
    rng = np.random.default_rng(71)
    fused = 0
    for case in range(200):
        op = OPS[case % 4]
        n = int(rng.integers(2, 5 if op.op_id == "r232" else 7))
        ctx = make_context(op, n)
        b = random_braid(n, int(rng.integers(1, 13)), rng)
        want = _dense_trace(ctx, b, None)
        for cut in range(len(b)):
            c = BraidWord(n, b.letters[cut:] + b.letters[:cut])
            fused += len(_fuse(ctx, c, cyclic=True)) < len(_fuse(ctx, c))
            for got in (trace_with_weight(ctx, c), *_forced_traces(ctx, c, None)):
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (op.op_id, c)
    assert fused >= 300


def test_weighted_trace_is_not_fused_across_the_closure():
    # a weight that does not commute with the operator breaks the cyclic
    # symmetry of the word: these words' end groups, which fuse under the
    # identity weight, stay apart, and the trace matches the dense oracle
    rng = np.random.default_rng(73)
    for op in OPS + [CUSTOM[2]]:
        ctx = make_context(op, 3)
        mu = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert max_abs(np.kron(mu, np.kron(mu, mu)) @ op.r - op.r @ np.kron(mu, np.kron(mu, mu))) > 0.1
        for word in ("1 2 1", "-2 1 1 -2 -2", "1 2 -1 -2 1"):
            b = parse_braid(word, 3)
            assert len(_fuse(ctx, b, cyclic=True)) < len(_fuse(ctx, b))
            for blocks in ([(mu, 1)] * ctx.factors, [(mu, 1)] * (ctx.factors - 2) + [(np.kron(mu, mu), 2)]):
                want = _dense_trace(ctx, b, blocks)
                assert len(_traced_blocks(ctx, b, blocks)) == len(_place_blocks(ctx, blocks)) + len(_fuse(ctx, b))
                for got in (trace_with_weight(ctx, b, blocks), *_forced_traces(ctx, b, blocks)):
                    assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (op.op_id, word)


def test_conjugate_fuses_back_to_the_word():
    # read closed, w b w^-1 loses w group by group: its first group cancels
    # against the last across the closure, which lets the next pair meet.
    # With a conjugating word of 20,000 letters, each clashing with the next,
    # that takes one walk: walking the word again per cancelled pair would
    # take minutes
    w = [2 + k % 2 for k in range(20000)]
    for op in (OPS[0], OPS[3], CUSTOM[2]):
        ctx = make_context(op, 4)
        (power,) = _fuse(ctx, parse_braid("1 1", 4), cyclic=True)
        for word in ([2, 3, 1, 1, -3, -2], w + [1, 1] + [-g for g in reversed(w)]):
            (block,) = _fuse(ctx, BraidWord(4, tuple(word)), cyclic=True)
            assert np.array_equal(block[0], power[0]) and block[1:] == power[1:]
    # seeded conjugates have the blocks of their word, up to order
    rng = np.random.default_rng(79)
    for case in range(300):
        op = (OPS + [CUSTOM[2]])[case % 5]
        n = int(rng.integers(2, 8))
        ctx = make_context(op, n)
        b = random_braid(n, int(rng.integers(0, 16)), rng)
        conj = conjugate(b, random_braid(n, int(rng.integers(0, 8)), rng))

        def blocks(word):
            return Counter((first, mat.tobytes()) for mat, first, _, _ in _fuse(ctx, word, cyclic=True))

        assert blocks(conj) == blocks(b), (op.op_id, b, conj)


def test_cancelled_letters_trace_to_the_same_bits():
    # sigma_1 sigma_1^-1 is exactly the identity, so on a random unitary (the
    # custom operator the CLI is checked with) a word and the word with such
    # a pair inserted trace to the same floating-point value
    rng = np.random.default_rng(7)
    z = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    ctx = make_context(load_custom(np.linalg.qr(z)[0], GybType(2, 3, 1)), 3)
    assert trace_with_weight(ctx, parse_braid("1 -1 1 1 1", 3)) == trace_with_weight(ctx, parse_braid("1 1 1", 3))


def test_sweep_arrays_hold_dim_times_moved_labels(monkeypatch):
    # a type1 word using every generator moves all but the outer factors:
    # its sweep arrays are dim x dim/4, so it fits a cap of dim^2/4 and runs
    # there when the plan is over the cap; each block of the closed word is
    # applied once
    ctx = make_context(build_type1(0.6), 6)
    b = random_braid(6, 30, seed=5)
    assert {abs(g) for g in b.letters} == {1, 2, 3, 4, 5}
    blocks = len(_fuse(ctx, b, cyclic=True))
    assert blocks < 30
    want = _dense_trace(ctx, b, None)
    shapes = []

    def record(mat, start, state, d):
        shapes.append(state.shape)
        return _apply_block(mat, start, state, d)

    def wide_plan(legs, d):
        steps, flops, _, orders = _greedy_plan(legs, d)
        return steps, flops, PEAK_CAP + 1, orders

    def refuse(*args):
        raise AssertionError("the network path ran")

    monkeypatch.setattr("gyblink.rep._apply_block", record)
    monkeypatch.setattr("gyblink.rep._greedy_plan", wide_plan)
    monkeypatch.setattr("gyblink.rep._contract", refuse)
    monkeypatch.setattr("gyblink.rep.PEAK_CAP", ctx.dim**2 // 4)
    got = trace_with_weight(ctx, b)
    assert shapes == [(128, 32)] * blocks
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
    # a weight block on every factor moves them all: dim x dim is over the cap
    with pytest.raises(ResourceCapError):
        trace_with_weight(ctx, b, [(np.diag([1.0, 2.0]), 1)] * ctx.factors)


def test_sweep_that_moves_every_factor_keeps_the_trace_order():
    # with every factor moved the sweep is the identity pushed through the
    # fused blocks and summed along the diagonal in row order, as np.trace sums
    rng = np.random.default_rng(23)
    for n, length in ((2, 5), (3, 9), (4, 14), (5, 20)):
        ctx = make_context(build_r232(), n)
        b = random_braid(n, length, rng)
        word = _fuse(ctx, b)
        state = np.eye(ctx.dim, dtype=np.complex128)
        for mat, first, _, _ in word:
            state = _apply_block(mat, first, state, 2)
        assert _sweep(ctx, [word], _moved_factors(word))[0] == complex(0.0 + 0.0j + np.trace(state))


def test_rep_apply_identity_and_cancellation():
    rng = np.random.default_rng(5)
    for op in OPS:
        ctx = make_context(op, 3)
        v = rng.normal(size=ctx.dim) + 1j * rng.normal(size=ctx.dim)
        assert np.allclose(rep_apply(ctx, BraidWord(3, ()), v), v)
        out = rep_apply(ctx, parse_braid("1 -1 2 -2", 3), v)
        assert np.allclose(out, v, atol=1e-12)


def test_rep_apply_validation():
    ctx = make_context(build_type1(0.0), 3)
    with pytest.raises(ShapeError):
        rep_apply(ctx, parse_braid("1", 2), np.zeros(ctx.dim))
    with pytest.raises(ShapeError):
        rep_apply(ctx, parse_braid("1", 3), np.zeros(4))
    with pytest.raises(ShapeError):
        dense_representation(ctx, parse_braid("1", 2))


def test_braid_relation_on_states():
    rng = np.random.default_rng(6)
    left = parse_braid("1 2 1", 3)
    right = parse_braid("2 1 2", 3)
    for op in OPS:
        ctx = make_context(op, 3)
        v = rng.normal(size=ctx.dim) + 1j * rng.normal(size=ctx.dim)
        assert np.allclose(rep_apply(ctx, left, v), rep_apply(ctx, right, v), atol=1e-12)


def test_distant_letters_commute_on_states():
    # spans of letters 1 and 3 overlap for (2,3,1) operators, so this
    # exercises the distant-commutation axiom rather than disjointness
    rng = np.random.default_rng(7)
    for op in OPS[:3]:
        ctx = make_context(op, 4)
        v = rng.normal(size=ctx.dim) + 1j * rng.normal(size=ctx.dim)
        ab = rep_apply(ctx, parse_braid("1 3", 4), v)
        ba = rep_apply(ctx, parse_braid("3 1", 4), v)
        assert np.allclose(ab, ba, atol=1e-12)


def test_word_order_is_first_letter_first():
    op = build_type1(0.9)
    ctx = make_context(op, 3)
    b = parse_braid("1 2", 3)
    dense = _dense(ctx, b)
    # letter 1 acts first, so the matrix is rho(2) @ rho(1)
    first = _dense(ctx, parse_braid("1", 3))
    second = _dense(ctx, parse_braid("2", 3))
    assert np.allclose(dense, second @ first, atol=1e-13)


@pytest.mark.parametrize("op", OPS, ids=lambda op: op.op_id)
def test_dense_matches_matrix_free(op):
    for n in (2, 3):
        ctx = make_context(op, n)
        b = random_braid(n, 6, seed=11)
        dense = _dense(ctx, b)
        for col in range(ctx.dim):
            e = np.zeros(ctx.dim)
            e[col] = 1.0
            assert np.allclose(rep_apply(ctx, b, e), dense[:, col], atol=1e-12)


def test_trace_identity_braid_counts_dimension():
    for op in OPS:
        ctx = make_context(op, 2)
        assert trace_with_weight(ctx, BraidWord(2, ())) == pytest.approx(ctx.dim)


def test_trace_factors_over_blocks():
    # weight on the identity braid traces blockwise
    rng = np.random.default_rng(8)
    op = build_type1(0.4)
    ctx = make_context(op, 2)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b4 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    got = trace_with_weight(ctx, BraidWord(2, ()), [(a, 1), (b4, 2)])
    assert got == pytest.approx(np.trace(a) * np.trace(b4))


def test_trace_matches_dense():
    rng = np.random.default_rng(9)
    for op in OPS:
        ctx = make_context(op, 3)
        b = random_braid(3, 5, seed=13)
        w = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        blocks = [(w, 1)] * ctx.factors
        dense = _dense(ctx, b)
        full = np.eye(1, dtype=np.complex128)
        for _ in range(ctx.factors):
            full = np.kron(full, w)
        assert trace_with_weight(ctx, b, blocks) == pytest.approx(np.trace(dense @ full), abs=1e-10)


def test_trace_block_validation():
    op = build_type1(0.0)
    ctx = make_context(op, 3)
    b = BraidWord(3, ())
    with pytest.raises(ShapeError):
        trace_with_weight(ctx, b, [(np.eye(2), 1)])  # covers 1 of 4 factors
    with pytest.raises(ShapeError):
        trace_with_weight(ctx, b, [(np.eye(3), 1)] * 4)  # wrong block shape
    with pytest.raises(ShapeError):
        trace_with_weight(ctx, parse_braid("1", 2), None)


def _traced_blocks(ctx, b, blocks):
    # The block list trace_with_weight builds: the weight blocks, then the
    # word's, fused as a closed word under the identity weight
    placed = _place_blocks(ctx, blocks)
    return placed + _fuse(ctx, b, cyclic=not placed)


def test_weight_block_objects_are_checked_once_a_call(monkeypatch):
    # a weight that repeats one block object on every factor, as
    # trace_invariant and sampled_perpendicularity pass mu, is compared with
    # the identity once a call, and traces to the same bits as distinct copies
    ctx = make_context(OPS[0], 4)
    b = random_braid(4, 10, seed=83)
    mu = np.diag([1.0, 2.0])
    copies = trace_with_weight(ctx, b, [(mu.copy(), 1) for _ in range(ctx.factors)])
    checked = []
    monkeypatch.setattr("gyblink.rep.identity", lambda dim: checked.append(dim) or np.eye(dim, dtype=np.complex128))
    assert trace_with_weight(ctx, b, [(mu, 1)] * ctx.factors) == copies
    assert checked == [2]
    # an identity object on the first factors, mu on the rest: two checks
    blocks = [(np.eye(2), 1)] * 3 + [(mu, 1)] * (ctx.factors - 3)
    assert len(_place_blocks(ctx, blocks)) == ctx.factors - 3 and checked == [2] * 3


def _layout(blocks):
    # the position and span of each block, all _network reads of a block list
    return [(pos, span) for _, pos, span, _ in blocks]


def _rotated(blocks):
    # the fused blocks of a closed word in the order traces plans them: from
    # the least rotation of their positions
    r = _least_rotation([pos for _, pos, _, _ in blocks])
    return blocks[r:] + blocks[:r]


def _contracted(ctx, blocks):
    # the greedy network over blocks, planned afresh, bypassing the kept plans
    d = ctx.op.gtype.d
    traced, legs, loop_factor = _network(d, ctx.factors, _layout(blocks))
    steps, _, _, orders = _greedy_plan(legs, d)
    return _contract(_tensors(d, blocks, traced, {}), _decode(d, legs, steps, orders), loop_factor)


def _forced_traces(ctx, b, blocks):
    # Both evaluators on the same word, bypassing the cost-based choice.
    fused = _traced_blocks(ctx, b, blocks)
    return _sweep(ctx, [fused], _moved_factors(fused))[0], _contracted(ctx, fused)


@pytest.mark.parametrize("op", OPS, ids=lambda op: op.op_id)
def test_sweep_and_network_match_dense(op):
    rng = np.random.default_rng(21)
    g = op.gtype
    for n in (2, 3, 4, 5):
        ctx = make_context(op, n)
        b = random_braid(n, 6, seed=n)
        dense = _dense(ctx, b)
        mu = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        defect = rng.normal(size=(2 ** (g.k - g.m),) * 2) + 1j * rng.normal(size=(2 ** (g.k - g.m),) * 2)
        for blocks in (None, [(mu, 1)] * ctx.factors, [(mu, 1)] * (g.m * (n - 1)) + [(defect, g.k - g.m)]):
            weight = np.eye(ctx.dim) if blocks is None else reduce(np.kron, [mat for mat, _ in blocks])
            want = np.trace(dense @ weight)
            for got in _forced_traces(ctx, b, blocks):
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_network_path_is_deterministic(monkeypatch):
    ctx = make_context(build_type1(0.6), 9)
    b = random_braid(9, 30, seed=23)
    word = _fuse(ctx, b)
    swept = _sweep(ctx, [word], _moved_factors(word))[0]

    def refuse(*args):
        raise AssertionError("the column sweep ran")

    monkeypatch.setattr("gyblink.rep._sweep", refuse)
    first = trace_with_weight(ctx, b)
    assert trace_with_weight(ctx, b) == first
    assert abs(first - swept) <= 1e-12 * abs(swept)


def test_plan_at_the_cap_stays_on_the_network(monkeypatch):
    # a 77-letter r232 word at dimension 2048 whose greedy plan peaks at
    # exactly PEAK_CAP: the plan runs, not the ten times slower sweep
    ctx = make_context(build_r232(), 6)
    b = random_braid(6, 77, seed=1)
    assert _greedy_plan(_network(2, ctx.factors, _layout(_fuse(ctx, b, cyclic=True)))[1], 2)[2] == PEAK_CAP

    def refuse(*args):
        raise AssertionError("the column sweep ran")

    monkeypatch.setattr("gyblink.rep._sweep", refuse)
    # the swept value, pinned because the sweep takes about 3 s on this word
    assert abs(trace_with_weight(ctx, b) - 362.03867196751173) <= 1e-10


def test_costly_plan_falls_back_to_sweep(monkeypatch):
    # a long word on few factors: the greedy plan of its fused blocks, from
    # their least rotation, needs more multiply-adds than the column sweep
    # over them, so the sweep must run
    ctx = make_context(build_r232(), 4)
    b = random_braid(4, 40, seed=344)
    word = _fuse(ctx, b, cyclic=True)
    sweep_cost = ctx.dim**2 * (1 + len(word) * ctx.op.gtype.dim)
    flops = _greedy_plan(_network(2, ctx.factors, _layout(_rotated(word)))[1], 2)[1]
    assert len(word) < len(b) and sweep_cost >= SWEEP_GATE and flops >= sweep_cost

    def refuse(*args):
        raise AssertionError("the network path ran")

    monkeypatch.setattr("gyblink.rep._contract", refuse)
    want = _sweep(ctx, [word], _moved_factors(word))[0]
    assert trace_with_weight(ctx, b) == want
    # with nothing under the cap, allow_large runs the smallest largest array:
    # the letter network ties the sweep and the rotated plan at 16,384
    # elements and needs fewer multiply-adds, 2,865,920 against 3,293,184 and
    # 3,377,408; the blocks as given peak at 65,536
    monkeypatch.setattr("gyblink.rep.PEAK_CAP", 64)
    with pytest.raises(ResourceCapError):
        trace_with_weight(ctx, b)
    _, letter_flops, letter_peak, _ = _greedy_plan(_network(2, ctx.factors, _layout(_letters(ctx, b)))[1], 2)
    assert letter_peak == ctx.dim**2 and letter_flops < sweep_cost
    want = _contracted(ctx, _letters(ctx, b))
    seen = _recording_contract(monkeypatch)
    assert trace_with_weight(ctx, b, allow_large=True) == want
    assert seen == [len(b)]


def _recording_contract(monkeypatch):
    # route _contract through a wrapper; the list it returns collects the
    # tensor count of every network a trace contracts
    seen = []

    def record(tensors, *rest):
        seen.append(len(tensors))
        return _contract(tensors, *rest)

    monkeypatch.setattr("gyblink.rep._contract", record)
    return seen


def test_allow_large_runs_the_array_the_refusal_names(monkeypatch):
    # a type1 word none of whose evaluators fits: the sweep holds 2^32
    # elements with 2^42.5 multiply-adds, the fused plan from the least
    # rotation peaks at 2^28 with 2^40.4, and the blocks as given at 2^30 with
    # 2^44.0. The refusal names 2^28, and allow_large runs that rotated plan,
    # not the cheaper sweep; both evaluators are stubbed, so nothing large runs
    ctx = make_context(build_type1(0.4), 16)
    b = random_braid(16, 320, seed=52)
    word = _fuse(ctx, b, cyclic=True)
    assert ctx.dim * 2 ** len(_moved_factors(word)) == 2**32
    assert _greedy_plan(_network(2, ctx.factors, _layout(_rotated(word)))[1], 2)[2] == 2**28
    assert _greedy_plan(_network(2, ctx.factors, _layout(word))[1], 2)[2] == 2**30
    seen = []
    monkeypatch.setattr("gyblink.rep._sweep", lambda *args: seen.append("sweep"))
    monkeypatch.setattr("gyblink.rep._contract", lambda tensors, *rest: seen.append(len(tensors)))
    with pytest.raises(ResourceCapError, match=r"about 2\^28 elements, over the cap of 2\^22"):
        trace_with_weight(ctx, b)
    trace_with_weight(ctx, b, allow_large=True)
    assert seen == [len(word)]


def test_decoding_a_plan_over_the_cap_allocates_nothing_large():
    # the two layouts of the word above, whose plans peak at 2^28 and 2^30
    # elements, are compiled and their steps decoded with under 1 MB
    # allocated at any time: _fetch checks an operand's size before it makes
    # any array for it
    ctx = make_context(build_type1(0.4), 16)
    word = _fuse(ctx, random_braid(16, 320, seed=52), cyclic=True)
    for blocks, want in ((_rotated(word), 2**28), (word, 2**30)):
        tracemalloc.start()
        try:
            _, peak, _ = rep._planned(ctx, blocks)
            used = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak == want and used < 2**20
    assert rep._compiled.cache_info().currsize == 2


def test_gather_indices_are_shared_and_dropped_with_their_plans(monkeypatch):
    # the kept plans of four 40-letter words on 9 strands gather some
    # operands through one index per axis order and matrix shape: an index
    # two plans use is one object, and once neither a plan nor _fetch's cache
    # keeps it, it is freed
    gc.collect()  # what earlier tests left in reference cycles
    compiled = _recording_compiles(monkeypatch, 8)
    ctx = make_context(OPS[0], 9)
    for seed in range(4):
        rep._planned(ctx, _fuse(ctx, random_braid(9, 40, seed=seed), cyclic=True))
    held = [{id(x): x for x in rep._compiled(key)[1] if isinstance(x, np.ndarray)} for key in compiled]
    assert len(held) == 4 and all(held)
    assert any(a.keys() & b.keys() for n, a in enumerate(held) for b in held[n + 1:])
    distinct = {(x.shape, x.tobytes()) for h in held for x in h.values()}
    assert len(distinct) == len({k for h in held for k in h})
    refs = [weakref.ref(x) for h in held for x in h.values()]
    del held
    rep._compiled.cache_clear()
    rep._fetch.cache_clear()
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_a_layout_compiled_again_finds_its_gather_indices(monkeypatch):
    # a layout whose plan was dropped is compiled again with the gather
    # indices it had, not new ones: _fetch's cache keeps them though no plan
    # holds them
    gc.collect()
    compiled = _recording_compiles(monkeypatch, 8)
    ctx = make_context(OPS[0], 9)
    rep._planned(ctx, _fuse(ctx, random_braid(9, 40, seed=0), cyclic=True))
    refs = [weakref.ref(x) for x in rep._compiled(compiled[0])[1] if isinstance(x, np.ndarray)]
    assert refs
    rep._compiled.cache_clear()
    gc.collect()
    again = [x for x in rep._compiled(compiled[0])[1] if isinstance(x, np.ndarray)]
    assert len(compiled) == 2 and len(again) == len(refs)
    assert all(ref() is x for ref, x in zip(refs, again))


def test_allow_large_keeps_the_path_of_a_word_that_fits(monkeypatch):
    # under a cap of 1024 neither the sweep nor the 14-block fused network of
    # this word fits, from the least rotation or as given, but its 21-letter
    # network does. allow_large only replaces a refusal, so it runs that same
    # network, not a fused one
    ctx = make_context(build_type1(0.3), 6)
    b = random_braid(6, 21, seed=2696)
    word = _fuse(ctx, b, cyclic=True)
    assert len(word) == 14 and _layout(_rotated(word)) != _layout(word)
    for blocks in (_rotated(word), word):
        assert _greedy_plan(_network(2, ctx.factors, _layout(blocks))[1], 2)[2] > 1024
    monkeypatch.setattr("gyblink.rep.PEAK_CAP", 1024)
    seen = _recording_contract(monkeypatch)
    capped = trace_with_weight(ctx, b)
    assert trace_with_weight(ctx, b, allow_large=True) == capped
    assert seen == [21, 21]


@pytest.mark.parametrize("cap", [PEAK_CAP, 2**10])
def test_allow_large_changes_no_value_that_fits(monkeypatch, cap):
    # seeded words on all four operators, a third with a mu on every factor:
    # each that evaluates under the cap has the same value with allow_large.
    # The small cap sends words down every branch of the rule, refusals too
    monkeypatch.setattr("gyblink.rep.PEAK_CAP", cap)
    rng = np.random.default_rng(53)
    refused = 0
    for case in range(96):
        op = OPS[case % 4]
        n = int(rng.integers(1, 7 if op.op_id == "r232" else 11))
        ctx = make_context(op, n)
        b = random_braid(n, int(rng.integers(0, 41)), rng)
        blocks = None
        if case % 3 == 2:
            mu = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            blocks = [(mu, 1)] * ctx.factors
        try:
            capped = trace_with_weight(ctx, b, blocks)
        except ResourceCapError:
            refused += 1
            continue
        assert trace_with_weight(ctx, b, blocks, allow_large=True) == capped
    assert (refused > 0) == (cap < PEAK_CAP)


def test_fused_plan_over_the_cap_falls_back_to_the_letter_network(monkeypatch):
    # an r232 word the sweep cannot hold whose greedy plan peaks at 2^24
    # elements over its fused blocks, from their least rotation or as given,
    # but at 2^22, the cap, over one tensor per letter: the letter network
    # runs, as it did before words were fused
    ctx = make_context(build_r232(), 8)
    b = random_braid(8, 138, seed=636)
    word = _fuse(ctx, b, cyclic=True)
    assert ctx.dim * 2 ** len(_moved_factors(word)) > PEAK_CAP
    for blocks in (_rotated(word), word):
        assert _greedy_plan(_network(2, ctx.factors, _layout(blocks))[1], 2)[2] == 2**24
    assert _greedy_plan(_network(2, ctx.factors, _layout(_letters(ctx, b)))[1], 2)[2] == PEAK_CAP
    assert trace_with_weight(ctx, b) == _contracted(ctx, _letters(ctx, b))
    # refused once the letter network is over the cap too, naming its peak
    monkeypatch.setattr("gyblink.rep.PEAK_CAP", 2**21)
    with pytest.raises(ResourceCapError, match=r"about 2\^22 elements, over the cap of 2\^21"):
        trace_with_weight(ctx, b)


class _Compared:
    # a sequence element that counts the comparisons made on it in calls[0]
    def __init__(self, value, calls):
        self.value, self.calls = value, calls

    def __ne__(self, other):
        self.calls[0] += 1
        return self.value != other.value

    def __lt__(self, other):
        self.calls[0] += 1
        return self.value < other.value


def test_least_rotation_matches_brute_force():
    # the least r whose rotation seq[r:] + seq[:r] is least, as min over all
    # rotations finds it: random, periodic, length-1 and all-equal sequences.
    # On 8001 elements the two-pointer scan makes at most 6 comparisons per
    # element (1.0-1.5 on these), where a quadratic search would make millions
    def least(seq):
        return min(range(len(seq)), key=lambda r: seq[r:] + seq[:r])

    rng = np.random.default_rng(91)
    cases = [[1, 2, 1, 2], [2, 1, 2, 1], [7], [5] * 9, [1, 1, 2, 1, 1, 2], [3, 1, 3, 1, 3]]
    cases += [[int(x) for x in rng.integers(0, high, size=size)] for high in (2, 3, 30) for size in range(1, 40)]
    for seq in cases:
        assert _least_rotation(seq) == least(seq), seq
    wide = [int(x) for x in rng.integers(0, 2, size=8001)]
    for seq, want in ((wide, least(wide)), ([1] * 8000 + [0], 8000), ([4] * 8001, 0), ([0, 1] * 4000 + [0], 8000)):
        calls = [0]
        assert _least_rotation([_Compared(x, calls) for x in seq]) == want
        assert calls[0] <= 6 * len(seq)


def test_rotations_of_a_word_share_one_plan(monkeypatch):
    # a 40-letter word on 9 strands takes the network; most of its rotations
    # fuse to rotations of its blocks, whose least rotation is one layout.
    # They compile one plan and give one set of bits, within rounding of the
    # blocks contracted as given
    ctx = make_context(build_type1(0.3), 9)
    b = random_braid(9, 40, seed=5)
    keys = _keys(ctx, b)
    rotations = []
    for r in range(len(b)):
        w = BraidWord(9, b.letters[r:] + b.letters[:r])
        if any(_keys(ctx, w) == keys[s:] + keys[:s] for s in range(len(keys))):
            rotations.append(w)
    assert len(rotations) == 31
    monkeypatch.setattr("gyblink.rep._sweep", lambda *args: pytest.fail("the column sweep ran"))
    values = [trace_with_weight(ctx, w) for w in rotations]
    assert rep._compiled.cache_info().currsize == 1
    assert len({repr(v) for v in values}) == 1
    want = _contracted(ctx, _fuse(ctx, b, cyclic=True))
    assert abs(values[0] - want) <= 1e-13 * max(1.0, abs(want))


def test_weighted_trace_is_not_rotated():
    # a weight need not commute with the word, so a weighted trace plans its
    # blocks in the order they act, though their least rotation starts
    # elsewhere (the identity on the first factor leaves no weight block
    # there): its bits are the plan of the blocks as given
    ctx = make_context(OPS[1], 8)
    b = random_braid(8, 30, seed=11)
    blocks = [(np.eye(2), 1)] + [(np.diag([1.0, 1.5j]), 1)] * (ctx.factors - 1)
    fused = _traced_blocks(ctx, b, blocks)
    assert _least_rotation([pos for _, pos, _, _ in fused]) != 0
    assert repr(trace_with_weight(ctx, b, blocks)) == repr(_contracted(ctx, fused))


def test_rotated_plan_over_the_cap_falls_back_to_the_blocks_as_given(monkeypatch):
    # a type1 word on 16 strands the sweep cannot hold, whose fused blocks
    # from their least rotation plan a peak of 2^26 but as given one of 2^22,
    # the cap: the blocks as given run, and the word is not refused. _sweep
    # and _contract are stubbed, so nothing large runs
    ctx = make_context(build_type1(0.3), 16)
    b = random_braid(16, 320, seed=7)
    word = _fuse(ctx, b, cyclic=True)
    assert ctx.dim * 2 ** len(_moved_factors(word)) > PEAK_CAP
    legs = [_network(2, ctx.factors, _layout(blocks))[1] for blocks in (_rotated(word), word)]
    plans = [_greedy_plan(ls, 2) for ls in legs]
    assert [peak for _, _, peak, _ in plans] == [2**26, PEAK_CAP]
    seen = []
    monkeypatch.setattr("gyblink.rep._sweep", lambda *args: seen.append("sweep"))
    monkeypatch.setattr("gyblink.rep._contract", lambda tensors, steps, loops: seen.append(_plain(steps)))
    trace_with_weight(ctx, b)
    decoded = [_plain(_decode(2, ls, steps, orders)) for ls, (steps, _, _, orders) in zip(legs, plans)]
    assert seen == [decoded[1]] and decoded[0] != decoded[1]


def test_networks_are_planned_only_while_every_candidate_is_over_the_cap(monkeypatch):
    # the fused network from its least rotation is planned only for a word
    # whose sweep is gated or over the cap, and each later network (the fused
    # blocks as given, then one tensor per letter) only while every candidate
    # so far is over PEAK_CAP. _sweep and _contract are stubbed, so nothing
    # large runs; _network counts the layouts each word compiles: none under
    # SWEEP_GATE, one where the first plan fits, two where only the blocks as
    # given fit (2^26, then 2^22), three where only the letters do (2^24,
    # 2^24, then 2^22), and two for a weighted word over a lowered cap, whose
    # blocks as given repeat the first layout and compile nothing
    monkeypatch.setattr("gyblink.rep._sweep", lambda ctx, lists, moved: [0j] * len(lists))
    monkeypatch.setattr("gyblink.rep._contract", lambda *args: 0j)
    calls = _counting(monkeypatch, "_network")
    type1 = build_type1(0.3)
    cases = [
        (make_context(type1, 4), random_braid(4, 10, seed=1), None, 0),
        (make_context(type1, 9), random_braid(9, 40, seed=5), None, 1),
        (make_context(type1, 16), random_braid(16, 320, seed=7), None, 2),
        (make_context(build_r232(), 8), random_braid(8, 138, seed=636), None, 3),
    ]
    for ctx, b, blocks, want in cases:
        rep._compiled.cache_clear()
        calls.clear()
        trace_with_weight(ctx, b, blocks)
        assert calls["_network"] == want, (ctx.n, len(b))
    ctx = make_context(type1, 4)
    monkeypatch.setattr("gyblink.rep.PEAK_CAP", 16)
    rep._compiled.cache_clear()
    calls.clear()
    trace_with_weight(ctx, random_braid(4, 10, seed=1), [(np.diag([1.0, 2.0]), 1)] * ctx.factors, allow_large=True)
    assert calls["_network"] == 2


def _plain(steps):
    # decoded steps with each gather index as its shape and values, so two
    # decodings compare by value
    return [(x.shape, x.tolist()) if isinstance(x, np.ndarray) else x for x in steps]


@pytest.mark.parametrize("name", ["type1", "type2", "type3", "r232"])
def test_wide_words_past_the_cap(name):
    s = catalog_enhancement(name, 0.3)
    unknot = trace_invariant(s, BraidWord(1, ())).value
    for n in (24, 40):
        got = trace_invariant(s, BraidWord(n, tuple(range(1, n)))).value
        assert abs(got - unknot) <= 1e-9 * abs(unknot)
    b = random_braid(24, 20, seed=29)
    assert markov_check(s, b, trials=3, seed=31) <= 1e-9


def _seeded_networks(count, seed, blocks_of=_fuse):
    # the contexts and block lists of ``count`` networks: the four
    # operators, 1-12 strands (r232: 1-7), 0-60 letters, every other group
    # of four with non-identity weight blocks, spanning one factor each or
    # two at the right end
    rng = np.random.default_rng(seed)
    for case in range(count):
        op = OPS[case % 4]
        n = int(rng.integers(1, 8 if op.op_id == "r232" else 13))
        ctx = make_context(op, n)
        b = random_braid(n, int(rng.integers(0, 61)), rng)
        mu = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        blocks = None
        if case % 8 >= 6 and ctx.factors >= 2:
            blocks = [(mu, 1)] * (ctx.factors - 2) + [(np.kron(mu, mu), 2)]
        elif case % 8 >= 4:
            blocks = [(mu, 1)] * ctx.factors
        yield ctx, _place_blocks(ctx, blocks) + blocks_of(ctx, b)


def test_greedy_plans_are_pinned():
    # the plan fixes the floating-point order of every network trace, so any
    # change to it moves values; plans are integers, so the digest is the
    # same on every platform. The unfused networks, one tensor per letter,
    # pin the planner itself; the fused ones pin the networks traces run,
    # the word read open (weighted traces) and closed (the identity weight).
    # The second digest of each takes the whole output, each step's axis
    # orders that _decode reads included
    digests, wholes = {}, {}
    for name, blocks_of in (("_letters", _letters), ("_fuse", _fuse), ("cyclic _fuse", partial(_fuse, cyclic=True))):
        outputs = [_greedy_plan(_network(ctx.op.gtype.d, ctx.factors, _layout(blocks))[1], ctx.op.gtype.d)
                   for ctx, blocks in _seeded_networks(300, 41, blocks_of)]
        assert sum(len(steps) for steps, *_ in outputs) > 3000
        digests[name] = hashlib.sha256(repr([out[:3] for out in outputs]).encode()).hexdigest()
        wholes[name] = hashlib.sha256(repr(outputs).encode()).hexdigest()
    assert digests == {
        "_letters": "cd5f2010c4e1e81ac86411a47ae56ff49e377bd1cab8b369fe3a726c7aa0f0f3",
        "_fuse": "3dfa99b35ac1f780bb29595c577b3ab4b32754ffb0795e28a9e96ae9fc0936d8",
        "cyclic _fuse": "065d6d6d74537bae61381984e3363388f6742afe0a85bc76608d8813d5aa72b5",
    }
    assert wholes == {
        "_letters": "2a8abfd838e1e344492da625b674498e26f5847a6df3df29c45bc4b627c2dae1",
        "_fuse": "e426bd67715307c3d204c876514e3388b425998eaf7dff891831373ef42db050",
        "cyclic _fuse": "339cf4b192701589c8cbe9acfebd5e227afc24be7ca594fff0adac749d93dd61",
    }


def test_network_labels_join_two_tensors():
    # _network traces a block alone on a factor over it, so no tensor repeats
    # a label and every label joins two tensors, as _greedy_plan and
    # _contract assume
    for blocks_of in (_letters, _fuse):
        for ctx, blocks in _seeded_networks(300, 41, blocks_of):
            legs = _network(ctx.op.gtype.d, ctx.factors, _layout(blocks))[1]
            assert all(len(set(ls)) == len(ls) for ls in legs)
            counts = Counter(x for ls in legs for x in ls)
            assert set(counts.values()) <= {2}


def _traced_wires(ctx, network):
    # factors one tensor alone opened and closed, so _network traced them:
    # factor j's wire closes on label j, so these are the factors neither
    # closed into a loop nor on a label two tensors share
    _, legs, loop_factor = network
    shared = {x for ls in legs for x in ls if x < ctx.factors}
    return ctx.factors - len(shared) - round(math.log(loop_factor, ctx.op.gtype.d))


def test_lone_blocks_match_dense(monkeypatch):
    # words that leave a block alone on a factor: one letter, split unions,
    # whose windows overlap only where the halves meet, and a mu on every
    # factor, alone where no letter acts. The network path runs every one
    rng = np.random.default_rng(61)
    monkeypatch.setattr("gyblink.rep.SWEEP_GATE", 0)
    monkeypatch.setattr("gyblink.rep._sweep", lambda *args: pytest.fail("the column sweep ran"))
    traced = 0
    for op in OPS:
        for n in range(2, 6 if op.op_id == "r232" else 8):
            ctx = make_context(op, n)
            mu = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            half = random_braid(n // 2, 3, rng), random_braid(n - n // 2, 3, rng)
            for b in (BraidWord(n, (int(rng.integers(1, n)),)), BraidWord(n, (-1,)), juxtapose(*half)):
                for blocks in (None, [(mu, 1)] * ctx.factors):
                    network = _network(ctx.op.gtype.d, ctx.factors, _layout(_traced_blocks(ctx, b, blocks)))
                    traced += _traced_wires(ctx, network) > 0
                    want = _dense_trace(ctx, b, blocks)
                    assert abs(trace_with_weight(ctx, b, blocks) - want) <= 1e-12 * max(1.0, abs(want)), (op, b)
    assert traced >= 100


def test_contract_matches_tensordot_exactly():
    # each step hands np.dot the arrays np.tensordot's transposes and
    # reshapes make, the same values in the same strides, so the values are
    # equal, not merely close. The networks take every way _fetch has of
    # getting an operand: a reshape, a transposed view, a gathered copy and a
    # transposed copy, of a d = 2 and a d = 3 operator
    op = OPS[0]
    mu = np.array([[0.3, 1.1j], [-0.7, 2.0]])
    two = make_context(op, 2)
    z = np.random.default_rng(43).normal(size=(27, 27, 2)) @ [1, 1j]
    qutrit = make_context(load_custom(np.linalg.qr(z)[0], GybType(3, 3, 1)), 4)
    six = make_context(build_r232(), 6)
    cases = list(_seeded_networks(60, 43)) + [
        (two, []),  # no tensor at all
        (two, _place_blocks(two, [(mu, 1)] * 3)),
        (two, _fuse(two, parse_braid("1", 2))),  # one letter, closed onto itself
        # a weight block in Fortran order, which _tensors copies to C order
        (two, _place_blocks(two, [(np.asfortranarray(np.kron(mu, mu)), 2), (mu, 1)])
         + _fuse(two, parse_braid("1 1", 2))),
        (qutrit, _fuse(qutrit, random_braid(4, 8, seed=43), cyclic=True)),
        # a wide-trace pool word whose value (512.0000000000007) moves by an
        # ulp if an operand np.tensordot reads as a view is copied instead
        (six, _rotated(_fuse(six, BraidWord(6, (-1, -3, -5, 4, -5, -2, -3, -2, -4, 4, 1, -5, -5, 5, -3, -1, 3,
                                                -2, -5, -2)), cyclic=True))),
    ]
    traced, fetched = 0, Counter()
    for ctx, blocks in cases:
        d = ctx.op.gtype.d
        network = _network(d, ctx.factors, _layout(blocks))
        traced += _traced_wires(ctx, network) > 0
        steps, _, _, orders = _greedy_plan(network[1], d)
        tensors = _tensors(d, blocks, network[0], {})
        assert all(t.flags.c_contiguous for t in tensors)  # as _fetch assumes
        want = tensordot_contract((tensors, *network[1:]), steps)
        decoded = _decode(d, network[1], steps, orders)
        fetched.update((d, fetch) for fetch in decoded[2::6] + decoded[4::6])
        assert _contract(tensors, decoded, network[2]) == want
    assert traced >= 3
    ways = (np.ndarray.reshape, rep._transposed, np.ndarray.take, rep._permuted)
    assert all(fetched[d, fetch] for d in (2, 3) for fetch in ways), fetched


@pytest.mark.parametrize("d", [2, 3])
def test_fetch_gives_the_arrays_tensordot_makes(d):
    # every order of up to 6 axes (d = 3: 5), split at every point: the
    # matrix _fetch gives holds the values np.tensordot's transpose and
    # reshape give a C-ordered tensor, and it is a view, with the same
    # strides, exactly when theirs is. Only a rotated order folds to a view,
    # so an operand that is gathered is one they copy
    import itertools

    for rank in range(1, 7 if d == 2 else 6):
        tensor = (np.arange(d**rank) * (1 - 2j)).reshape((d,) * rank)
        for order in itertools.permutations(range(rank)):
            for cut in range(1, rank + 1):
                matrix = (d**cut, d ** (rank - cut))
                want = tensor.transpose(order).reshape(matrix)
                fetch, arg = rep._fetch(d, rank, None if order == tuple(range(rank)) else order, matrix)
                got = fetch(tensor, arg)
                assert np.array_equal(got, want) and got.shape == want.shape
                view = np.shares_memory(want, tensor)
                assert np.shares_memory(got, tensor) == view
                if view:
                    assert got.strides == want.strides
                else:
                    assert got.flags.c_contiguous and fetch in (np.ndarray.take, rep._permuted)


def _counting(monkeypatch, *names):
    # route the named rep functions through wrappers; the Counter returned
    # counts their calls, and _sweep's by the block lists it runs
    calls = Counter()
    for name in names:
        def counted(*args, name=name, fn=getattr(rep, name)):
            calls[name] += len(args[1]) if name == "_sweep" else 1
            return fn(*args)

        monkeypatch.setattr(f"gyblink.rep.{name}", counted)
    return calls


def _keys(ctx, b):
    # the fused blocks of the closed word by matrix object and first factor
    return [(id(mat), first) for mat, first, _, _ in _fuse(ctx, b, cyclic=True)]


def test_traces_match_each_word_alone(monkeypatch):
    # one call gives each word's trace_with_weight to the bit. On 8 strands:
    # a long type1 word, three conjugates, two of which fuse to its blocks in
    # the same order and the third to a rotation of its layout, its mirror
    # image (the same block layout), another long word, a short word on the
    # sweep and repeats. Under the identity weight those two conjugates and
    # the repeats are evaluated once, and the mirror image and the third
    # conjugate share the word's plan. A weight reads every word open and
    # moves every factor: all take the network, only the repeats coincide,
    # and the mirror image still shares the plan
    ctx = make_context(build_type1(0.3), 8)
    rng = np.random.default_rng(5)
    b, short = random_braid(8, 40, rng), random_braid(8, 4, rng)
    conjugates = [conjugate(b, random_braid(8, k, rng)) for k in (1, 3, 5)]
    mirror = BraidWord(8, tuple(-g for g in b.letters))
    words = [b, short, *conjugates, short, mirror, random_braid(8, 30, rng), b]
    assert [_keys(ctx, c) == _keys(ctx, b) for c in conjugates] == [True, True, False]
    word, other = (_fuse(ctx, w, cyclic=True) for w in (b, conjugates[2]))
    assert _layout(other) != _layout(word) and _layout(_rotated(other)) == _layout(_rotated(word))
    weight = [(np.diag([1.0, 1.5]), 1)] * ctx.factors
    for blocks, plans, contracts, swept in ((None, 2, 4, 1), (weight, 6, 7, 0)):
        alone = [trace_with_weight(ctx, w, blocks) for w in words]
        rep._compiled.cache_clear()  # count the family's own plans, not those its words left alone
        calls = _counting(monkeypatch, "_greedy_plan", "_contract", "_sweep")
        assert traces(ctx, words, blocks) == alone
        assert calls == Counter(_greedy_plan=plans, _contract=contracts, _sweep=swept)
        monkeypatch.undo()
    # a weighted family that mixes both paths, and a stabilization pair,
    # which differs only in its last block: one plan on the network path
    rng = np.random.default_rng(6)
    for op in OPS:
        ctx = make_context(op, 4)
        mu = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        words = [random_braid(4, length, rng) for length in (0, 3, 8, 8, 30, 40)]
        words += [words[2], words[4]]
        for blocks in (None, [(mu, 1)] * ctx.factors):
            assert traces(ctx, words, blocks) == [trace_with_weight(ctx, w, blocks) for w in words]
    ctx = make_context(build_type1(0.3), 9)
    pair = [stabilize(b, sign) for sign in (1, -1)]
    alone = [trace_with_weight(ctx, w) for w in pair]
    rep._compiled.cache_clear()
    calls = _counting(monkeypatch, "_greedy_plan", "_contract")
    assert traces(ctx, pair) == alone
    assert calls == Counter(_greedy_plan=1, _contract=2)


def test_a_layout_is_planned_once_per_process(monkeypatch):
    # a 40-letter word on 9 strands takes the network: at three theta its
    # fused blocks keep one layout, planned by the first trace alone, and a
    # later call plans nothing more; every value is the bits a fresh plan
    # gives. On 300 strands positions and tensor ids pass 255, and a plan
    # read back from the kept steps still gives the same bits
    b = random_braid(9, 40, seed=5)
    cases = [(make_context(build_type1(theta), 9), b) for theta in (0.3, 0.7, 1.1)]
    wide = (make_context(build_type1(0.3), 300), random_braid(300, 300, seed=2))
    cold = []
    for ctx, w in cases + [wide]:
        rep._compiled.cache_clear()
        cold.append(trace_with_weight(ctx, w))
    assert len(_fuse(*wide, cyclic=True)) > 128
    rep._compiled.cache_clear()
    calls = _counting(monkeypatch, "_greedy_plan", "_network")
    assert [trace_with_weight(ctx, w) for ctx, w in cases] == cold[:3]
    assert traces(cases[0][0], [b, b]) == [cold[0]] * 2
    assert calls == Counter(_greedy_plan=1, _network=1) and rep._compiled.cache_info().currsize == 1
    assert [trace_with_weight(*wide) for _ in range(2)] == [cold[3]] * 2
    assert calls == Counter(_greedy_plan=2, _network=2)


def test_plans_are_kept_per_d_factor_count_and_span():
    # layouts with the same block positions but another d, factor count or
    # weight block span each get their own plan, the one a fresh planner
    # gives: type1 and a random (3,3,1) operator on 5 strands, type1 on 6,
    # and a two-factor weight block against a one-factor block beside an
    # identity one, which leaves no block
    z = np.random.default_rng(3).normal(size=(27, 27, 2)) @ [1, 1j]
    qutrit = load_custom(np.linalg.qr(z)[0], GybType(3, 3, 1))
    letters = random_braid(5, 12, seed=7).letters
    mu = np.diag([1.0, 2.0])
    five, six = make_context(OPS[0], 5), make_context(OPS[0], 6)
    cases = [(five, None), (make_context(qutrit, 5), None), (six, None),
             (five, [(np.kron(mu, mu), 2)] + [(mu, 1)] * 4),
             (five, [(mu, 1), (np.eye(2), 1)] + [(mu, 1)] * 4)]
    layouts = [(ctx, _place_blocks(ctx, w) + _letters(ctx, BraidWord(ctx.n, letters))) for ctx, w in cases]
    assert len({tuple(pos for _, pos, _, _ in blocks) for _, blocks in layouts}) == 2
    for n, (ctx, blocks) in enumerate(layouts * 2):
        flops, peak, evaluate = rep._planned(ctx, blocks)
        assert rep._compiled.cache_info().currsize == min(n + 1, len(cases))
        fresh = _greedy_plan(_network(ctx.op.gtype.d, ctx.factors, _layout(blocks))[1], ctx.op.gtype.d)[1:3]
        assert (flops, peak) == fresh and evaluate() == _contracted(ctx, blocks)


def _recording_compiles(monkeypatch, kept):
    # keep at most ``kept`` compiled layouts; the list returned collects the
    # key of every layout compiled, in order
    compiled = []

    def compile_(key):
        compiled.append(key)
        return _compiled.__wrapped__(key)

    monkeypatch.setattr("gyblink.rep._compiled", lru_cache(maxsize=kept)(compile_))
    return compiled


def test_plans_past_the_bound_drop_the_least_recently_used(monkeypatch):
    # with room for three layouts, the fourth and fifth drop the first two;
    # an evicted layout is compiled again, to the entry it had, and drops the
    # least recently used left. A layout found kept after later ones were
    # compiled counts as used then, so it outlives the next eviction
    compiled = _recording_compiles(monkeypatch, 3)
    ctx = make_context(OPS[0], 6)
    layouts = [_letters(ctx, random_braid(6, 10, seed=s)) for s in range(5)]
    for n, blocks in enumerate(layouts):
        rep._planned(ctx, blocks)
        assert rep._compiled.cache_info().currsize == min(n + 1, 3)
    assert len(set(compiled)) == 5
    for i in (0, 0):  # kept, least recently used first: 2 3 4, then 3 4 0
        rep._planned(ctx, layouts[i])
    assert compiled[5:] == compiled[:1]
    assert rep._compiled(compiled[0]) == _compiled.__wrapped__(compiled[0])
    for i in (3, 1, 3, 0):  # 4 0 3, then 0 3 1; 3 and 0 are found kept
        rep._planned(ctx, layouts[i])
    assert compiled[6:] == compiled[1:2]
    assert rep._compiled.cache_info().currsize == 3


def test_threads_share_the_kept_plans(monkeypatch):
    # more threads than CPUs plan more layouts than are kept, switching
    # often: evictions do not race, the bound holds, and each kept entry and
    # each evaluation is the one its layout gets alone
    compiled = _recording_compiles(monkeypatch, 2)
    ctx = make_context(OPS[0], 6)
    layouts = [_letters(ctx, random_braid(6, 8, seed=s)) for s in range(5)]
    want = []
    for blocks in layouts:
        rep._compiled.cache_clear()
        flops, peak, evaluate = rep._planned(ctx, blocks)
        want.append((flops, peak, evaluate()))
    # per layout, its key and the entry its compile alone keeps
    entries = [(key, _compiled.__wrapped__(key)) for key in compiled]
    failures, sizes = [], []

    def work(k):
        try:
            for n in range(1000):
                i = (n + k) % len(layouts)
                flops, peak, evaluate = rep._planned(ctx, layouts[i])
                key, entry = entries[i]
                if (flops, peak, evaluate()) != want[i] or rep._compiled(key) != entry:
                    failures.append(i)
                sizes.append(rep._compiled.cache_info().currsize)
        except Exception as exc:  # a race surfaces here, in any thread
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == [] and len(sizes) == 6 * 1000 and max(sizes) <= 2


def test_sweep_runs_shared_leading_blocks_once(monkeypatch):
    # the two stabilizations of a word fuse to its blocks and one more,
    # r or r^-1 on the new strand: the sweep applies the shared blocks once
    ctx = make_context(OPS[1], 5)
    b = random_braid(4, 12, seed=31)
    pair = [stabilize(b, sign) for sign in (1, -1)]
    first, second = (_keys(ctx, w) for w in pair)
    assert first[:-1] == second[:-1] == _keys(ctx, BraidWord(5, b.letters)) and first[-1] != second[-1]
    alone = [trace_with_weight(ctx, w) for w in pair]
    calls = _counting(monkeypatch, "_apply_block", "_sweep")
    assert traces(ctx, pair) == alone
    assert calls == Counter(_apply_block=len(first) + 1, _sweep=2)
    # the identity on every factor but a defect on the last k - m, as
    # sampled_perpendicularity pads it, leaves one weight block, which leads
    # each list: words that start on different generators share only that
    # block, and the sweep applies it once
    g = ctx.op.gtype
    defect = np.random.default_rng(31).normal(size=(g.d ** (g.k - g.m),) * 2)
    pad = [(np.eye(g.d), 1)] * (ctx.factors - g.k + g.m) + [(defect, g.k - g.m)]
    words = [BraidWord(5, letters) for letters in ((1, 2, 3, 4), (2, 1, 4, 3), (-4, 3, -2, 1))]
    placed = _place_blocks(ctx, pad)
    lists = [placed + _fuse(ctx, w) for w in words]
    assert len(placed) == 1 and len({(id(blocks[1][0]), blocks[1][1]) for blocks in lists}) == len(words)
    assert len({frozenset(_moved_factors(blocks)) for blocks in lists}) == 1
    alone = [trace_with_weight(ctx, w, pad) for w in words]
    calls.clear()
    assert traces(ctx, words, pad) == alone
    assert calls == Counter(_apply_block=1 + sum(len(blocks) - 1 for blocks in lists), _sweep=len(words))


def test_refusals_in_a_family_come_in_word_order(monkeypatch):
    # under a cap of 2^10 on 6 strands: words that fit, a 21-letter word that
    # fits only through its letter network, its conjugate (the same fused
    # blocks, its own letters and value) and words refused at 2^12. The call
    # raises the refusal of the first refused word, word for word as it
    # raises alone, and allow_large still only replaces refusals
    monkeypatch.setattr("gyblink.rep.PEAK_CAP", 1024)
    ctx = make_context(build_type1(0.3), 6)
    b = random_braid(6, 21, seed=2696)
    conj = conjugate(b, random_braid(6, 2, seed=0))
    assert _keys(ctx, conj) == _keys(ctx, b)
    fits = [random_braid(6, 10, seed=0), b, conj, random_braid(6, 3, seed=1)]
    refused = [random_braid(6, 36, seed=0), random_braid(6, 30, seed=1)]
    values = traces(ctx, fits)
    assert values == [trace_with_weight(ctx, w) for w in fits] and values[1] != values[2]
    for w in refused:
        with pytest.raises(ResourceCapError):
            trace_with_weight(ctx, w)
    for words in (fits[:2] + refused + fits[2:], refused[::-1] + fits):
        with pytest.raises(ResourceCapError) as alone:
            trace_with_weight(ctx, words[[w in refused for w in words].index(True)])
        with pytest.raises(ResourceCapError) as family:
            traces(ctx, words)
        assert str(family.value) == str(alone.value)
        large = traces(ctx, words, allow_large=True)
        assert large == [trace_with_weight(ctx, w, allow_large=True) for w in words]
        assert [v for v, w in zip(large, words) if w in fits] == [trace_with_weight(ctx, w) for w in fits]
    with pytest.raises(ShapeError):
        traces(ctx, fits + [random_braid(5, 3, seed=0)])
    assert traces(ctx, []) == []
    # the sweeps run once every word is placed, so a sweep that runs out of
    # memory is raised after the refusals: sigma_1^8 alone runs out, but
    # before a refused word the call raises that word's refusal
    def no_memory(*args):
        raise MemoryError("stub")

    monkeypatch.setattr("gyblink.rep._sweep", no_memory)
    power = BraidWord(6, (1,) * 8)
    with pytest.raises(ResourceCapError, match="^ran out of memory"):
        trace_with_weight(ctx, power)
    with pytest.raises(ResourceCapError) as alone:
        trace_with_weight(ctx, refused[0])
    with pytest.raises(ResourceCapError) as family:
        traces(ctx, [power, refused[0]])
    assert str(family.value) == str(alone.value)


def test_sweep_keeps_at_most_two_states(monkeypatch):
    # the states _apply_block returns, followed through weak references: at
    # each call at most two are alive, the shared leading run's and one
    # list's own, however many words the family has; a family that shares a
    # leading run and then runs a list's own blocks keeps both
    rng = np.random.default_rng(41)
    states, peak = [], 0

    def tracked(mat, start, state, d):
        nonlocal peak
        peak = max(peak, sum(ref() is not None for ref in states))
        out = _apply_block(mat, start, state, d)
        states.append(weakref.ref(out))
        return out

    monkeypatch.setattr("gyblink.rep._apply_block", tracked)
    most = 0
    for case in range(40):
        op = OPS[case % 4]
        ctx = make_context(op, 4)
        b = random_braid(4, int(rng.integers(4, 13)), rng)
        words = [b] + [conjugate(b, random_braid(4, int(rng.integers(1, 4)), rng)) for _ in range(3)]
        words += [BraidWord(4, b.letters + (g,)) for g in (1, -1, 2, 3)]
        for blocks in (None, [(np.diag([1.0, 1.5]), 1)] * ctx.factors):
            states.clear()
            peak = 0
            traces(ctx, words, blocks)
            assert peak <= 2
            most = max(most, peak)
    assert most == 2


def _lone_split_union(ctx):
    # a split union whose halves overlap only at the junction: the network
    # traces the blocks alone on their factors
    rng = np.random.default_rng(71)
    half = random_braid(ctx.n // 2, 3, rng), random_braid(ctx.n - ctx.n // 2, 3, rng)
    return _fuse(ctx, juxtapose(*half), cyclic=True)


def _program_cases():
    # (ctx, block list) per kind of kept plan: blocks alone on factors,
    # a non-identity mu on every factor, a random d = 3 operator, the letter
    # network the fallback plans and a word whose tensor ids pass 255
    rng = np.random.default_rng(73)
    lone = make_context(OPS[1], 7)
    weighted = make_context(OPS[1], 8)
    mu = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    z = rng.normal(size=(27, 27, 2)) @ [1, 1j]
    qutrit = make_context(load_custom(np.linalg.qr(z)[0], GybType(3, 3, 1)), 5)
    letters = make_context(build_r232(), 8)
    wide = make_context(build_type1(0.3), 300)
    return {
        "lone": (lone, _lone_split_union(lone)),
        "mu": (weighted, _traced_blocks(weighted, random_braid(8, 30, rng), [(mu, 1)] * weighted.factors)),
        "d3": (qutrit, _fuse(qutrit, random_braid(5, 24, rng), cyclic=True)),
        "letters": (letters, _letters(letters, random_braid(8, 138, seed=1457))),
        "ids": (wide, _fuse(wide, random_braid(300, 300, seed=2), cyclic=True)),
    }


@pytest.mark.parametrize("case", ["lone", "mu", "d3", "letters", "ids"])
def test_a_kept_program_gives_the_bits_of_a_cold_one(monkeypatch, case):
    # the first evaluation of a layout compiles it; a second reads the kept
    # steps back without _network or _greedy_plan and gives the same bits,
    # those of a plan made afresh and contracted
    ctx, blocks = _program_cases()[case]
    traced, legs, _ = _network(ctx.op.gtype.d, ctx.factors, _layout(blocks))
    if case == "lone":
        assert traced
    if case == "ids":
        assert len(blocks) + len(_greedy_plan(legs, 2)[0]) > 256
    calls = _counting(monkeypatch, "_network", "_greedy_plan", "_contract")
    cold = rep._planned(ctx, blocks)
    assert calls == Counter(_network=1, _greedy_plan=1)
    warm = rep._planned(ctx, blocks)
    assert calls == Counter(_network=1, _greedy_plan=1) and warm[:2] == cold[:2]
    values = [cold[2](), warm[2]()]
    assert calls["_contract"] == 2
    monkeypatch.undo()
    assert [repr(v) for v in values] == [repr(_contracted(ctx, blocks))] * 2


def test_kept_programs_of_the_fallback_and_a_weight_trace_alike(monkeypatch):
    # through trace_with_weight: the letter-network fallback and a weighted
    # trace on the network path give the bits of their cold calls when a
    # later call finds their plans kept
    mu = np.diag([1.0, 1.5j])
    cases = [(make_context(build_r232(), 8), random_braid(8, 138, seed=636), None),
             (make_context(OPS[1], 8), random_braid(8, 30, seed=9), [(mu, 1)] * 9)]
    for ctx, b, blocks in cases:
        rep._compiled.cache_clear()
        cold = trace_with_weight(ctx, b, blocks)
        calls = _counting(monkeypatch, "_network", "_contract")
        assert repr(trace_with_weight(ctx, b, blocks)) == repr(cold)
        assert calls == Counter(_contract=1)
        monkeypatch.undo()


def test_identity_orders_are_not_packed():
    # a step whose operand's axes are already in dot order has no order for
    # it, so _contract skips its transpose; a plan with an array no array can
    # hold has its orders too, and decodes to steps that gather nothing
    steps, _, peak, orders = _greedy_plan([[0, 1, 2], [1, 2, 3], [3, 0]], 2)
    assert steps == [(0, 1), (2, 3)] and peak == 8
    # (0, 1): a keeps label 0 first, b shares 1 and 2 first; (2, 3): a = [3, 0]
    # shares both legs of b = [0, 3], whose order must be permuted
    assert orders == [(2, None, None), (2, None, (1, 0))]
    wide = list(range(70))
    plan = _greedy_plan([wide, wide], 2)
    assert plan[2] == 2**70 and plan[3]
    assert not any(isinstance(x, np.ndarray) for x in _decode(2, [wide, wide], plan[0], plan[3]))


def test_evaluations_past_memory_are_refused(monkeypatch):
    # an evaluation whose arrays do not fit in memory raises ResourceCapError
    # naming its largest array, on the network path and on the sweep; nothing
    # large is allocated, _contract and np.matmul are stubbed to fail
    def no_memory(*args):
        raise MemoryError("stub")

    network = make_context(build_type1(0.3), 9), random_braid(9, 40, seed=5)
    monkeypatch.setattr("gyblink.rep._contract", no_memory)
    with pytest.raises(ResourceCapError, match=r"^ran out of memory .* about 2\^\d+ elements$"):
        trace_with_weight(*network)
    monkeypatch.undo()
    sweep = make_context(build_type1(0.3), 4), random_braid(4, 6, seed=5)
    monkeypatch.setattr("gyblink.rep.np.matmul", no_memory)
    for words in ([sweep[1]], [sweep[1], random_braid(4, 6, seed=6)]):
        with pytest.raises(ResourceCapError, match=r"about 2\^\d+ elements"):
            traces(sweep[0], words)


def test_allow_large_refuses_an_array_no_array_can_hold(monkeypatch):
    # with every candidate's largest array past 2^59 complex elements (2^63
    # bytes), allow_large cannot run one: the refusal says so, not "pass
    # allow_large". The plan is faked; nothing is evaluated
    def huge_plan(legs, d):
        steps, flops, _, orders = _greedy_plan(legs, d)
        return steps, flops, rep._HOLDABLE, orders

    monkeypatch.setattr("gyblink.rep._greedy_plan", huge_plan)
    ctx = make_context(build_type1(0.3), 40)
    b = random_braid(40, 60, seed=3)
    for allow_large in (False, True):
        with pytest.raises(ResourceCapError, match=r"about 2\^59 elements, more than any array can hold$"):
            trace_with_weight(ctx, b, allow_large=allow_large)
