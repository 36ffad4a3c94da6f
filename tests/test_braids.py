import pytest
from hypothesis import given
from hypothesis import strategies as st

from gyblink.braids import (
    LINKS,
    BraidWord,
    closure_components,
    compose,
    conjugate,
    format_braid,
    inverse,
    juxtapose,
    load_catalog_file,
    parse_braid,
    random_braid,
    resolve_braid,
    stabilize,
    writhe,
)
from gyblink.errors import BraidParseError, ShapeError


def letters(n, max_len=8):
    return st.lists(
        st.integers(1, n - 1).flatmap(lambda i: st.sampled_from([i, -i])),
        max_size=max_len,
    )


def words(max_strands=5, max_len=8):
    return st.integers(2, max_strands).flatmap(
        lambda n: letters(n, max_len).map(lambda ls: BraidWord(n, tuple(ls)))
    )


def word_pairs_same_strands(max_strands=5, max_len=8):
    return st.integers(2, max_strands).flatmap(
        lambda n: st.tuples(letters(n, max_len), letters(n, max_len)).map(
            lambda pair: (BraidWord(n, tuple(pair[0])), BraidWord(n, tuple(pair[1])))
        )
    )


def test_parse_examples():
    b = parse_braid("1 -2 1")
    assert b.strands == 3 and b.letters == (1, -2, 1)
    assert parse_braid("", None) == BraidWord(1)
    assert parse_braid("1 1", 4).strands == 4
    assert parse_braid("  1\t-1 ").letters == (1, -1)


def test_parse_errors():
    with pytest.raises(BraidParseError):
        parse_braid("1 0 2")
    with pytest.raises(BraidParseError):
        parse_braid("1 x")
    # int() reads these; a braid letter is ASCII digits with an optional sign
    for text in ("1_0", "\u0661", "1 \uff12"):
        with pytest.raises(BraidParseError, match="bad braid token"):
            parse_braid(text)
    with pytest.raises(BraidParseError):
        parse_braid("3", strands=2)
    with pytest.raises(BraidParseError):
        BraidWord(0)
    with pytest.raises(BraidParseError):
        BraidWord(2, (2,))


@given(words())
def test_parse_format_round_trip(b):
    assert parse_braid(format_braid(b), b.strands) == b


def test_writhe():
    assert writhe(parse_braid("1 -2 1")) == 1
    assert writhe(BraidWord(3)) == 0
    assert writhe(LINKS["hopf-"].braid) == -2


@given(words(), words())
def test_writhe_adds_under_juxtaposition(a, b):
    assert writhe(juxtapose(a, b)) == writhe(a) + writhe(b)


def test_compose_and_inverse():
    a, b = parse_braid("1 2", 3), parse_braid("-1", 3)
    assert compose(a, b).letters == (1, 2, -1)
    assert inverse(a).letters == (-2, -1)
    with pytest.raises(ShapeError):
        compose(a, parse_braid("1", 2))


@given(words())
def test_inverse_cancels_writhe(b):
    assert writhe(compose(b, inverse(b))) == 0


def test_conjugate():
    b = parse_braid("1 1 1", 3)
    eta = parse_braid("2 -1", 3)
    got = conjugate(b, eta)
    assert got.letters == (1, -2, 1, 1, 1, 2, -1)
    with pytest.raises(ShapeError):
        conjugate(b, parse_braid("1", 2))


@given(word_pairs_same_strands())
def test_conjugation_preserves_components(pair):
    b, eta = pair
    assert closure_components(conjugate(b, eta)) == closure_components(b)


def test_stabilize():
    b = parse_braid("1 1", 2)
    up = stabilize(b, 1)
    assert up.strands == 3 and up.letters == (1, 1, 2)
    down = stabilize(b, -1)
    assert down.letters == (1, 1, -2)
    with pytest.raises(BraidParseError):
        stabilize(b, 2)


@given(words(), st.sampled_from([1, -1]))
def test_stabilization_preserves_components(b, sign):
    assert closure_components(stabilize(b, sign)) == closure_components(b)


def test_juxtapose_letters_shift():
    a = parse_braid("1 -1", 2)
    b = parse_braid("1 -2", 3)
    j = juxtapose(a, b)
    assert j.strands == 5 and j.letters == (1, -1, 3, -4)


@given(words(), words())
def test_juxtaposition_adds_components(a, b):
    assert closure_components(juxtapose(a, b)) == closure_components(a) + closure_components(b)


def test_closure_components_examples():
    assert closure_components(BraidWord(1)) == 1
    assert closure_components(BraidWord(4)) == 4
    assert closure_components(LINKS["hopf+"].braid) == 2
    assert closure_components(LINKS["trefoil"].braid) == 1
    assert closure_components(LINKS["figure8"].braid) == 1
    # strands past the highest letter are counted, not walked
    assert closure_components(BraidWord(10**9, (1, 2, 1))) == 10**9 - 1


def test_random_braid_regression_anchors():
    # frozen draws; any change here means the documented generator moved
    assert random_braid(4, 6, 0).letters == (-3, -2, -2, 1, 1, 1)
    assert random_braid(4, 6, 1).letters == (2, 2, -3, -3, 1, -1)
    assert random_braid(4, 6, 42).letters == (-1, 3, -2, -2, 2, 3)


def test_random_braid_properties():
    assert random_braid(4, 6, 5) == random_braid(4, 6, 5)
    assert random_braid(1, 10, 0) == BraidWord(1)
    assert random_braid(3, 0, 0) == BraidWord(3)
    for seed in range(20):
        b = random_braid(5, 12, seed)
        assert len(b) == 12
        assert all(1 <= abs(g) <= 4 for g in b.letters)
    with pytest.raises(BraidParseError):
        random_braid(0, 3, 1)
    with pytest.raises(BraidParseError):
        random_braid(3, -1, 1)


def test_catalog_links():
    assert set(LINKS) == {
        "unknot", "unlink2", "unlink3", "unlink4", "unlink5", "unlink6",
        "hopf+", "hopf-", "trefoil", "figure8",
    }
    assert LINKS["unknot"].components == 1
    assert LINKS["unlink5"].braid == BraidWord(5)
    assert LINKS["hopf+"].components == 2


def test_resolve_braid_prefers_names():
    assert resolve_braid("trefoil") == LINKS["trefoil"].braid
    assert resolve_braid("1 1 1") == parse_braid("1 1 1")
    assert resolve_braid(" hopf+ ") == LINKS["hopf+"].braid


def test_catalog_file(tmp_path):
    path = tmp_path / "links.tsv"
    path.write_text("# comment\nsolomon\t2\t1 1 1 1\n\nids\t3\t1 -2\n")
    table = load_catalog_file(path)
    assert set(table) == {"solomon", "ids"}
    assert table["solomon"].braid == parse_braid("1 1 1 1", 2)
    assert table["solomon"].components == 2
    assert resolve_braid("ids", catalog=table) == parse_braid("1 -2", 3)


def test_catalog_file_errors(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("only-two-fields\t2\n")
    with pytest.raises(BraidParseError):
        load_catalog_file(bad)
    bad.write_text("name\ttwo\t1 1\n")
    with pytest.raises(BraidParseError):
        load_catalog_file(bad)
    for strands in ("2_0", "\u0662", "\uff13"):
        bad.write_text(f"x\t{strands}\t1\n", encoding="utf-8")
        with pytest.raises(BraidParseError, match="bad strand count"):
            load_catalog_file(bad)
    bad.write_text("x\t2\t1_0\n")
    with pytest.raises(BraidParseError, match="bad braid token"):
        load_catalog_file(bad)
