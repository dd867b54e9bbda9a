from __future__ import annotations

from collections import Counter
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gandyhyland import (
    EMPTY,
    Associate,
    FinSeq,
    Fuel,
    FuelExhausted,
    Point,
    associate_apply,
    associate_from_functional,
    check_neighbourhood,
    constant_point,
    enumerate_sequences,
    epsilon_flag,
    functional_from_associate,
    gamma_flag,
    modulus_from_associate,
    mu,
    pad,
    settled,
    take,
)
from gandyhyland.cli.fixtures import (
    beta_point,
    catalog_functionals,
    flag_stream,
    functional_fixture,
    sample_points,
)
from oracles import (
    CONST2_ASSOC_EMPTY_QUERY,
    EXT_WITNESS_FLAGS3,
    FLAG3_FIRST_DIFF_CODE,
    GAMMA_FLAG3_QUERY_0000,
    SUM01_ASSOC_QUERIES,
)


def twenty_points() -> list[Point]:
    extra = [
        pad(FinSeq(items), v)
        for items, v in (
            ((0, 0, 2), 0),
            ((1, 2), 1),
            ((2,), 2),
            ((0, 1, 0, 1), 0),
            ((2, 0, 0, 1), 1),
            ((1, 1, 1, 1, 1), 0),
            ((0, 2, 2), 2),
            ((1,), 0),
            ((2, 1), 0),
            ((0, 0, 0, 0, 1), 1),
        )
    ]
    return sample_points() + extra


def test_fuel_spend_and_exhaustion():
    fuel = Fuel(2)
    fuel.spend("a")
    assert fuel.try_spend()
    assert not fuel.try_spend()
    with pytest.raises(FuelExhausted):
        fuel.spend("b")


def test_constant_associate_applies_to_its_constant():
    gamma = Associate(query=lambda s: 5, name="const4")
    for alpha in (constant_point(0), constant_point(9), pad(FinSeq((1, 2, 3)), 7)):
        assert associate_apply(gamma, alpha, Fuel(10)) == 4


def test_derived_associate_of_constant_decides_immediately():
    assoc = associate_from_functional(functional_fixture("const2"))
    assert assoc.query(EMPTY) == CONST2_ASSOC_EMPTY_QUERY


def test_derived_associate_of_sum():
    assoc = associate_from_functional(functional_fixture("sum01"))
    for items, expected in SUM01_ASSOC_QUERIES.items():
        assert assoc.query(FinSeq(items)) == expected, items


def test_functional_round_trips_through_its_associate():
    # going Y -> associate -> functional must preserve values pointwise
    for y in catalog_functionals():
        back = functional_from_associate(associate_from_functional(y), 10_000)
        for f in twenty_points():
            assert back.apply(f) == y.apply(f), (y.name, f.name)


def test_modulus_really_is_a_modulus():
    # once a prefix of f settles y, f and every point agreeing with f on
    # that prefix give the settled value, exhaustively over variations at
    # the next three positions
    for y in catalog_functionals():
        for f in sample_points():
            m = 0
            while (base := settled(y, take(f, m))) is None:
                m += 1
            assert y.apply(f) == base, (y.name, f.name)
            for values in product(range(3), repeat=3):
                overrides = {m + j: values[j] for j in range(3)}
                g = Point(
                    lambda n, _o=overrides, _f=f: _o.get(n, _f.value_at(n)),
                    name=f"{f.name} varied at {m}..{m + 2}",
                )
                assert y.apply(g) == base, (y.name, f.name, values)


def test_gamma_flag_fires_just_past_the_threshold():
    gamma = gamma_flag(flag_stream(3))
    assert gamma.query(FinSeq((0, 0, 0))) == 0
    assert gamma.query(FinSeq((0, 0, 0, 0))) == GAMMA_FLAG3_QUERY_0000
    assert gamma.query(FinSeq((0, 0, 0, 2))) == 3  # 1 + entry at the threshold


def test_flag_values_at_beta_points():
    for m0 in (3, 4, 5):
        gamma = gamma_flag(flag_stream(m0))
        assert associate_apply(gamma, beta_point(0), Fuel(1000)) == 0
        assert associate_apply(gamma, beta_point(m0), Fuel(1000)) == m0


def test_epsilon_flag_sits_one_above_gamma_when_decided():
    gamma = gamma_flag(flag_stream(4))
    eps = epsilon_flag(flag_stream(4))
    for items in ((0, 0, 0, 0, 0), (0, 1, 2, 0, 1), (1, 1, 1, 1, 1, 1)):
        s = FinSeq(items)
        if gamma.query(s) > 0:
            assert eps.query(s) == gamma.query(s) + 1
        else:
            assert eps.query(s) == 0


def test_flags_first_differ_at_the_frozen_code():
    from gandyhyland import decode

    gamma = gamma_flag(flag_stream(3))
    eps = epsilon_flag(flag_stream(3))
    for c in range(FLAG3_FIRST_DIFF_CODE):
        assert gamma.query(decode(c)) == eps.query(decode(c)), c
    d = decode(FLAG3_FIRST_DIFF_CODE)
    assert gamma.query(d) != eps.query(d)


def test_ext_witness_brackets_the_flag_difference():
    from gandyhyland import ext_witness

    gamma = gamma_flag(flag_stream(3))
    eps = epsilon_flag(flag_stream(3))
    assert ext_witness(gamma, eps, Fuel(100)) == EXT_WITNESS_FLAGS3


def test_neighbourhood_law_for_flag_and_derived_associates():
    for assoc in (
        gamma_flag(flag_stream(3)),
        epsilon_flag(flag_stream(5)),
        associate_from_functional(functional_fixture("sum01")),
        associate_from_functional(functional_fixture("nest")),
    ):
        assert check_neighbourhood(assoc, depth=5, width=3)


def test_neighbourhood_law_catches_a_flip_flopping_associate():
    # decides 1 on the empty sequence but 2 on every extension
    bad = Associate(query=lambda s: 1 if len(s) == 0 else 2, name="fickle")
    assert not check_neighbourhood(bad, depth=2, width=2)


def test_modulus_from_associate_is_the_flag_depth():
    gamma = gamma_flag(flag_stream(3))
    for alpha in (constant_point(0), constant_point(2), beta_point(3)):
        assert modulus_from_associate(gamma, alpha, Fuel(100)) == 4


def _dry(op: str, budget: int) -> str:
    return rf"^{op}\(undecided\): no steps left of {budget}$"


def test_undecided_associate_exhausts_fuel():
    never = Associate(query=lambda s: 0, name="undecided")
    with pytest.raises(FuelExhausted, match=_dry("associate_apply", 50)):
        associate_apply(never, constant_point(0), Fuel(50))
    with pytest.raises(FuelExhausted, match=_dry("modulus_from_associate", 50)):
        modulus_from_associate(never, constant_point(0), Fuel(50))
    # An associate-backed functional spends its own budget on every call.
    y = functional_from_associate(never, 7)
    for _ in range(2):
        with pytest.raises(FuelExhausted, match=_dry("associate_apply", 7)):
            y.apply(constant_point(0))
        with pytest.raises(FuelExhausted, match=_dry("associate_apply", 7)):
            settled(y, EMPTY)


class _CountingPoint(Point):
    """A point that counts every read, cached or not."""

    def __init__(self, gen) -> None:
        super().__init__(gen, name="counting")
        self.reads = 0

    def value_at(self, n: int) -> int:
        self.reads += 1
        return super().value_at(n)


def test_scan_reads_the_point_once_per_level_walked():
    # Decides at length 4, so a scan walks the levels 0..4 and reads the
    # point at the four it passes, whether the trie answers or the
    # associate is asked.
    gamma = Associate(query=lambda s: 0 if len(s) < 4 else 1 + s[3], name="fourth")
    for scan in (associate_apply, modulus_from_associate):
        fuel = Fuel(100)
        alpha = _CountingPoint(lambda n: n % 3)
        scan(gamma, alpha, fuel)
        assert alpha.reads == fuel.budget - fuel.remaining - 1 == 4
    # The same holds for an associate-backed functional, whose trie the
    # settled calls between its applies fill along the same path: the
    # prefix of length 4 settles it and the one of length 3 does not.
    y = functional_from_associate(gamma, 100)
    for _ in range(2):
        alpha = _CountingPoint(lambda n: n % 3)
        assert y.apply(alpha) == 0
        assert alpha.reads == 4
        assert settled(y, FinSeq((0, 1, 2))) is None
        assert settled(y, FinSeq((0, 1, 2, 0))) == 0


_PREFIX = st.lists(st.integers(min_value=0, max_value=2), max_size=3).map(tuple)
_PADDED_POINT = st.tuples(_PREFIX, st.integers(min_value=0, max_value=2))


def _outcome(scan) -> int | str | None:
    try:
        return scan()
    except FuelExhausted:
        return "dry"


@given(
    table=st.dictionaries(_PREFIX, st.integers(min_value=0, max_value=5), max_size=6),
    calls=st.lists(st.tuples(st.booleans(), _PADDED_POINT), min_size=1, max_size=6),
    budget=st.integers(min_value=1, max_value=6),
)
def test_functional_from_associate_answers_each_prefix_once(table, calls, budget):
    # A prefix decides with the value of its shortest prefix in the table,
    # which keeps decisions stable along extensions.
    def decide(sigma: FinSeq) -> int:
        for n in range(len(sigma) + 1):
            if sigma.items[:n] in table:
                return table[sigma.items[:n]] + 1
        return 0

    asked: Counter = Counter()

    def counting(sigma: FinSeq) -> int:
        asked[sigma.items] += 1
        return decide(sigma)

    plain = Associate(decide, name="table")
    # The functional's calls spend one budget between them, as one scan
    # each of the plain associate, on one fuel, spends it.
    fuel = Fuel(budget)

    def settled_directly(sigma: FinSeq) -> int | None:
        depth = modulus_from_associate(plain, pad(sigma, 0), fuel)
        return decide(FinSeq(sigma.items[:depth])) - 1 if depth <= len(sigma) else None

    y = functional_from_associate(Associate(counting, name="counted table"), budget)
    # Every call twice, applies and settled calls interleaved, so later
    # calls walk prefixes already answered.
    for use_settled, (items, tail) in calls + calls[::-1]:
        if use_settled:
            sigma = FinSeq(items)
            got = _outcome(lambda: settled(y, sigma))
            expected = _outcome(lambda: settled_directly(sigma))
        else:
            alpha = pad(FinSeq(items), tail)
            got = _outcome(lambda: y.apply(alpha))
            expected = _outcome(lambda: associate_apply(plain, alpha, fuel))
        assert got == expected
    assert all(n == 1 for n in asked.values())


def test_mu_finds_the_first_zero():
    assert mu(pad(FinSeq((1, 1, 0)), 0), Fuel(100)) == 2
    assert mu(constant_point(0), Fuel(100)) == 0
    with pytest.raises(FuelExhausted):
        mu(constant_point(1), Fuel(40))


def test_enumerate_sequences_counts():
    assert len(enumerate_sequences(0, 3)) == 1
    assert len(enumerate_sequences(2, 3)) == 1 + 3 + 9
    assert len(enumerate_sequences(3, 2)) == 1 + 2 + 4 + 8
