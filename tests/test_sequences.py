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
    constant_point,
    decode,
    extend,
    pad,
    take,
)
from gandyhyland.cli.dsl import functional_from_ast, parse_spec
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
    assert take(e, len(s)) == s


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


def test_point_reads_come_back_once_each_in_first_read_order():
    p = Point(lambda n: n + 1, name="counter")
    assert p.reads() == ()
    for n in (4, 1, 4, 7, 1):
        p.value_at(n)
    assert p.reads() == ((4, 5), (1, 2), (7, 8))


def test_a_views_reads_land_at_the_outer_points_positions():
    # least(2, f(1)) reads f(1) through views shifted by 0 and then 1, so
    # the outer point is read at 1 and then 2; it stops at the zero there.
    y = functional_from_ast(parse_spec("least(2, f(1))"))
    p = Point(lambda n: 0 if n == 2 else 3, name="zero at 2")
    assert y.apply(p) == 1
    assert p.reads() == ((1, 3), (2, 0))


def test_point_rejects_bad_generator_output():
    p = Point(lambda n: -2, name="bad")
    with pytest.raises(ValueError):
        p.value_at(0)


def test_pad_names_its_point_on_demand():
    p = pad(FinSeq([1, 2]), 0)
    assert repr(p) == "Point([1, 2]*0..)"
    assert p.name == "[1, 2]*0.."
    assert repr(Point(lambda n: n, lambda: "late")) == "Point(late)"


def test_constant_point():
    p = constant_point(7)
    assert [p.value_at(i) for i in range(4)] == [7, 7, 7, 7]
    assert take(p, 3) == FinSeq((7, 7, 7))
