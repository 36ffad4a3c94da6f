import hashlib
import math
from collections import Counter
from functools import reduce

import numpy as np
import pytest
from oracles import tensordot_contract

from gyblink.braids import BraidWord, juxtapose, parse_braid, random_braid
from gyblink.enhancement import catalog_enhancement
from gyblink.errors import ResourceCapError, ShapeError
from gyblink.invariant import markov_check, trace_invariant
from gyblink.operators import GybType, build_operator, build_r232, build_type1, check_outer_diagonal, load_custom
from gyblink.rep import (
    PEAK_CAP,
    SWEEP_GATE,
    _apply_block,
    _contract,
    _fuse,
    _greedy_plan,
    _letters,
    _moved_factors,
    _network,
    _place_blocks,
    _sweep,
    dense_representation,
    make_context,
    rep_apply,
    trace_with_weight,
)

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
        steps, flops, _ = _greedy_plan(legs, d)
        return steps, flops, PEAK_CAP + 1

    def refuse(*args):
        raise AssertionError("the network path ran")

    monkeypatch.setattr("gyblink.rep._greedy_plan", wide_plan)
    monkeypatch.setattr("gyblink.rep._contract", refuse)
    word = _fuse(ctx, b)
    assert trace_with_weight(ctx, b) == _sweep(ctx, word, _moved_factors(word))


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


def _dense_trace(ctx, b, blocks):
    dense = dense_representation(ctx, b)
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
    # there when the plan is over the cap; each fused block is applied once
    ctx = make_context(build_type1(0.6), 6)
    b = random_braid(6, 30, seed=5)
    assert {abs(g) for g in b.letters} == {1, 2, 3, 4, 5}
    blocks = len(_fuse(ctx, b))
    assert blocks < 30
    want = _dense_trace(ctx, b, None)
    shapes = []

    def record(mat, start, state, d):
        shapes.append(state.shape)
        return _apply_block(mat, start, state, d)

    def wide_plan(legs, d):
        steps, flops, _ = _greedy_plan(legs, d)
        return steps, flops, PEAK_CAP + 1

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
        assert _sweep(ctx, word, _moved_factors(word)) == complex(0.0 + 0.0j + np.trace(state))


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
    dense = dense_representation(ctx, b)
    # letter 1 acts first, so the matrix is rho(2) @ rho(1)
    first = dense_representation(ctx, parse_braid("1", 3))
    second = dense_representation(ctx, parse_braid("2", 3))
    assert np.allclose(dense, second @ first, atol=1e-13)


@pytest.mark.parametrize("op", OPS, ids=lambda op: op.op_id)
def test_dense_matches_matrix_free(op):
    for n in (2, 3):
        ctx = make_context(op, n)
        b = random_braid(n, 6, seed=11)
        dense = dense_representation(ctx, b)
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
        dense = dense_representation(ctx, b)
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


def _forced_traces(ctx, b, blocks):
    # Both evaluators on the same word, bypassing the cost-based choice.
    fused = _place_blocks(ctx, blocks) + _fuse(ctx, b)
    network = _network(ctx, fused)
    steps, _, _ = _greedy_plan(network[1], ctx.op.gtype.d)
    return _sweep(ctx, fused, _moved_factors(fused)), _contract(network, steps)


@pytest.mark.parametrize("op", OPS, ids=lambda op: op.op_id)
def test_sweep_and_network_match_dense(op):
    rng = np.random.default_rng(21)
    g = op.gtype
    for n in (2, 3, 4, 5):
        ctx = make_context(op, n)
        b = random_braid(n, 6, seed=n)
        dense = dense_representation(ctx, b)
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
    swept = _sweep(ctx, word, _moved_factors(word))

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
    assert _greedy_plan(_network(ctx, _fuse(ctx, b))[1], 2)[2] == PEAK_CAP

    def refuse(*args):
        raise AssertionError("the column sweep ran")

    monkeypatch.setattr("gyblink.rep._sweep", refuse)
    # the swept value, pinned because the sweep takes about 3 s on this word
    assert abs(trace_with_weight(ctx, b) - 362.03867196751173) <= 1e-10


def test_costly_plan_falls_back_to_sweep(monkeypatch):
    # a long word on few factors: the greedy plan of its fused blocks needs
    # more multiply-adds than the column sweep over them, so the sweep must run
    ctx = make_context(build_r232(), 4)
    b = random_braid(4, 40, seed=56)
    word = _fuse(ctx, b)
    sweep_cost = ctx.dim**2 * (1 + len(word) * ctx.op.gtype.dim)
    _, flops, _ = _greedy_plan(_network(ctx, word)[1], 2)
    assert len(word) < len(b) and sweep_cost >= SWEEP_GATE and flops >= sweep_cost

    def refuse(*args):
        raise AssertionError("the network path ran")

    monkeypatch.setattr("gyblink.rep._contract", refuse)
    want = _sweep(ctx, word, _moved_factors(word))
    assert trace_with_weight(ctx, b) == want
    # with nothing under the cap, allow_large runs the smallest largest array:
    # the letter network ties the sweep at 16,384 elements and needs fewer
    # multiply-adds, 1,938,944 against 3,424,256
    monkeypatch.setattr("gyblink.rep.PEAK_CAP", 64)
    with pytest.raises(ResourceCapError):
        trace_with_weight(ctx, b)
    letters = _network(ctx, _letters(ctx, b))
    steps, letter_flops, letter_peak = _greedy_plan(letters[1], 2)
    assert letter_peak == ctx.dim**2 and letter_flops < sweep_cost
    seen = _recording_contract(monkeypatch)
    assert trace_with_weight(ctx, b, allow_large=True) == _contract(letters, steps)
    assert seen == [len(b)]


def _recording_contract(monkeypatch):
    # route _contract through a wrapper; the list it returns collects the
    # tensor count of every network a trace contracts
    seen = []

    def record(network, steps):
        seen.append(len(network[0]))
        return _contract(network, steps)

    monkeypatch.setattr("gyblink.rep._contract", record)
    return seen


def test_allow_large_runs_the_array_the_refusal_names(monkeypatch):
    # a type1 word none of whose evaluators fits: the sweep holds 2^32
    # elements with 2^42.5 multiply-adds, the fused plan peaks at 2^30 with
    # 2^43.1. The refusal names 2^30, and allow_large runs that fused plan, not
    # the cheaper sweep; both evaluators are stubbed, so nothing large runs
    ctx = make_context(build_type1(0.4), 16)
    b = random_braid(16, 320, seed=21)
    word = _fuse(ctx, b)
    assert ctx.dim * 2 ** len(_moved_factors(word)) == 2**32
    assert _greedy_plan(_network(ctx, word)[1], 2)[2] == 2**30
    seen = []
    monkeypatch.setattr("gyblink.rep._sweep", lambda *args: seen.append("sweep"))
    monkeypatch.setattr("gyblink.rep._contract", lambda network, steps: seen.append(len(network[0])))
    with pytest.raises(ResourceCapError, match=r"about 2\^30 elements, over the cap of 2\^22"):
        trace_with_weight(ctx, b)
    trace_with_weight(ctx, b, allow_large=True)
    assert seen == [len(word)]


def test_allow_large_keeps_the_path_of_a_word_that_fits(monkeypatch):
    # under a cap of 1024 neither the sweep nor the 15-block fused network of
    # this word fits, but its 21-letter network does. allow_large only
    # replaces a refusal, so it runs that same network, not the fused one
    ctx = make_context(build_type1(0.3), 6)
    b = random_braid(6, 21, seed=223)
    assert len(_fuse(ctx, b)) == 15
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
    # elements over its fused blocks but at 2^20 over one tensor per letter:
    # the letter network runs, as it did before words were fused
    ctx = make_context(build_r232(), 8)
    b = random_braid(8, 138, seed=26)
    word = _fuse(ctx, b)
    assert ctx.dim * 2 ** len(_moved_factors(word)) > PEAK_CAP
    assert _greedy_plan(_network(ctx, word)[1], 2)[2] == 2**24
    network = _network(ctx, _letters(ctx, b))
    steps, _, peak = _greedy_plan(network[1], 2)
    assert peak == 2**20
    assert trace_with_weight(ctx, b) == _contract(network, steps)
    # refused once the letter network is over the cap too, naming its peak
    monkeypatch.setattr("gyblink.rep.PEAK_CAP", 2**19)
    with pytest.raises(ResourceCapError, match=r"about 2\^20 elements, over the cap of 2\^19"):
        trace_with_weight(ctx, b)


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
    # ``count`` networks: the four operators, 1-12 strands (r232: 1-7),
    # 0-60 letters, every other group of four with non-identity weight
    # blocks, spanning one factor each or two at the right end
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
        yield ctx, _network(ctx, _place_blocks(ctx, blocks) + blocks_of(ctx, b))


def test_greedy_plans_are_pinned():
    # the plan fixes the floating-point order of every network trace, so any
    # change to it moves values; plans are integers, so the digest is the
    # same on every platform. The unfused networks, one tensor per letter,
    # pin the planner itself; the fused ones pin the networks traces run
    digests = {}
    for blocks_of in (_letters, _fuse):
        plans = [_greedy_plan(network[1], ctx.op.gtype.d) for ctx, network in _seeded_networks(300, 41, blocks_of)]
        assert sum(len(steps) for steps, _, _ in plans) > 3000
        digests[blocks_of.__name__] = hashlib.sha256(repr(plans).encode()).hexdigest()
    assert digests == {
        "_letters": "cd5f2010c4e1e81ac86411a47ae56ff49e377bd1cab8b369fe3a726c7aa0f0f3",
        "_fuse": "72fccd9dca9676f6e8ac46555394011afa383a65a62a134661ad696862c998a9",
    }


def test_network_labels_join_two_tensors():
    # _network traces a block alone on a factor over it, so no tensor repeats
    # a label and every label joins two tensors, as _greedy_plan and
    # _contract assume
    for blocks_of in (_letters, _fuse):
        for _, (_, legs, _) in _seeded_networks(300, 41, blocks_of):
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
                    network = _network(ctx, _place_blocks(ctx, blocks) + _fuse(ctx, b))
                    traced += _traced_wires(ctx, network) > 0
                    want = _dense_trace(ctx, b, blocks)
                    assert abs(trace_with_weight(ctx, b, blocks) - want) <= 1e-12 * max(1.0, abs(want)), (op, b)
    assert traced >= 100


def test_contract_matches_tensordot_exactly():
    # each step runs the transposes, reshapes and dot np.tensordot would
    # run, so the values are equal, not merely close
    op = OPS[0]
    mu = np.array([[0.3, 1.1j], [-0.7, 2.0]])
    two = make_context(op, 2)
    cases = [(ctx, network) for ctx, network in _seeded_networks(60, 43)] + [
        (two, _network(two, [])),  # no tensor at all
        (two, _network(two, _place_blocks(two, [(mu, 1)] * 3))),
        (two, _network(two, _fuse(two, parse_braid("1", 2)))),  # one letter, closed onto itself
    ]
    traced = 0
    for ctx, network in cases:
        traced += _traced_wires(ctx, network) > 0
        steps, _, _ = _greedy_plan(network[1], ctx.op.gtype.d)
        assert _contract(network, steps) == tensordot_contract(network, steps)
    assert traced >= 3
