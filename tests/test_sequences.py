from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gandyhyland import (
    EMPTY,
    FinSeq,
    IndexOutOfRange,
    Point,
    code,
    concat,
    constant_point,
    decode,
    extend,
    is_prefix,
    pad,
    take,
)
from oracles import CODE_ANCHORS

seqs = st.builds(FinSeq, st.lists(st.integers(min_value=0, max_value=6), max_size=6))


def test_finseq_rejects_non_naturals():
    with pytest.raises(ValueError):
        FinSeq((1, -1))
    with pytest.raises(ValueError):
        FinSeq((True,))
    with pytest.raises(ValueError):
        FinSeq(("2",))
    for bad in (-1, True, "2"):
        with pytest.raises(ValueError):
            extend(FinSeq((1,)), bad)


def test_finseq_indexing_and_bounds():
    s = FinSeq((3, 0, 1))
    assert len(s) == 3
    assert s[0] == 3 and s[2] == 1
    with pytest.raises(IndexOutOfRange):
        s[3]
    with pytest.raises(IndexOutOfRange):
        s[-1]


def test_finseq_equality_and_hash():
    assert FinSeq((1, 2)) == FinSeq((1, 2))
    assert FinSeq((1, 2)) != FinSeq((1, 2, 0))
    assert hash(FinSeq(())) == hash(EMPTY)
    assert len({FinSeq((1,)), FinSeq((1,)), FinSeq((2,))}) == 2


@given(seqs, seqs, seqs)
def test_concat_associative(a, b, c):
    assert concat(concat(a, b), c) == concat(a, concat(b, c))


@given(seqs)
def test_concat_empty_is_identity(s):
    assert concat(s, EMPTY) == s
    assert concat(EMPTY, s) == s


@given(seqs, st.integers(min_value=0, max_value=5))
def test_take_of_pad_recovers_prefix(s, c):
    assert take(pad(s, c), len(s)) == s


@given(seqs, st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=12))
def test_pad_reads_constant_past_the_end(s, c, extra):
    assert pad(s, c).value_at(len(s) + extra) == c


def test_take_from_finseq_cannot_overrun():
    with pytest.raises(IndexOutOfRange):
        take(FinSeq((1, 2)), 3)
    assert take(FinSeq((1, 2)), 2) == FinSeq((1, 2))
    assert take(FinSeq((1, 2)), 0) == EMPTY


@given(seqs, st.integers(min_value=0, max_value=9))
def test_extend_appends_one_entry(s, v):
    e = extend(s, v)
    assert len(e) == len(s) + 1
    assert e[len(s)] == v
    assert is_prefix(s, e)


@given(seqs, seqs)
def test_is_prefix_agrees_with_concat(a, b):
    assert is_prefix(a, concat(a, b))
    # a proper extension is never a prefix of its base
    if len(b) > 0:
        assert not is_prefix(concat(a, b), a)


def test_code_anchors():
    for items, expected in CODE_ANCHORS.items():
        assert code(FinSeq(items)) == expected, items


@given(seqs)
def test_decode_inverts_code(s):
    assert decode(code(s)) == s


@given(st.integers(min_value=0, max_value=3000))
def test_code_inverts_decode(n):
    assert code(decode(n)) == n


@given(seqs, st.integers(min_value=0, max_value=6))
def test_code_grows_under_extension(s, v):
    assert code(extend(s, v)) > code(s)


def test_point_caches_and_validates():
    calls = []

    def gen(n):
        calls.append(n)
        return n + 1

    p = Point(gen, name="counter")
    assert p.value_at(4) == 5
    assert p.value_at(4) == 5
    assert calls == [4]
    with pytest.raises(IndexOutOfRange):
        p.value_at(-1)


def test_point_rejects_bad_generator_output():
    p = Point(lambda n: -2, name="bad")
    with pytest.raises(ValueError):
        p.value_at(0)


def test_constant_point():
    p = constant_point(7)
    assert [p.value_at(i) for i in range(4)] == [7, 7, 7, 7]
    assert take(p, 3) == FinSeq((7, 7, 7))
