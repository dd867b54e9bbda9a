from __future__ import annotations

from itertools import product

import pytest

from gandyhyland import (
    BinTree,
    DepthExceeded,
    FinSeq,
    Fuel,
    FuelExhausted,
    constant_point,
    enumerate_trees,
    fan_modulus,
    full_fan_modulus,
    pad,
    pwc_bound,
    scf_check,
    special_fan,
    ThetaResult,
)
from gandyhyland.cli.fixtures import (
    catalog_functionals,
    expr_functional,
    functional_fixture,
    tree_fixture,
)
from oracles import (
    FAN_MODULI,
    FULL_FAN_PROJ3_H5,
    PWC_CONST0_ZEROS_H1,
    PWC_CONST5_ZEROS_H1,
    PWC_PROJ1_ZEROS_H1,
    SPECIAL_FAN_CONST0,
    SPECIAL_FAN_CONST2,
    SPECIAL_FAN_PLUS1,
    TREE_COUNTS,
    brute_fan_bound,
    tree_count_recurrence,
)


def omega(fn):
    return fan_modulus(fn, Fuel(500_000))


def test_fan_modulus_frozen_values():
    names = ["const2", "proj0", "proj2", "sum01", "nest"]
    for name in names:
        assert omega(functional_fixture(name)) == FAN_MODULI[name], name
    assert omega(functional_fixture("flag-gamma", m0=3)) == FAN_MODULI["flag-gamma3"]


def test_fan_modulus_matches_brute_search():
    for y in catalog_functionals():
        assert omega(y) == brute_fan_bound(y), y.name


def test_full_fan_with_unit_height_is_the_binary_bound():
    ones = constant_point(1)
    for y in catalog_functionals():
        assert full_fan_modulus(y, ones, Fuel(500_000)) == omega(y), y.name


def test_full_fan_with_taller_points():
    y = functional_fixture("proj3")
    assert full_fan_modulus(y, constant_point(5), Fuel(500_000)) == FULL_FAN_PROJ3_H5


def test_fan_search_runs_out_of_fuel_when_starved():
    with pytest.raises(FuelExhausted):
        fan_modulus(functional_fixture("flag-gamma", m0=3), Fuel(5))


@pytest.mark.parametrize(
    "search, fuel, message",
    [
        # the root node spends the only step; its first child runs dry
        (lambda y, fuel: fan_modulus(y, fuel), 1, "bar search(f(2)): no steps left of 1"),
        (lambda y, fuel: pwc_bound(y, constant_point(0), constant_point(1), fuel), 0,
         "pwc_bound(f(2)): no steps left of 0"),
        # pwc's first step and the 15 nodes of its first bar search use all 16
        (lambda y, fuel: pwc_bound(y, constant_point(0), constant_point(1), fuel), 16,
         "pwc_bound(f(2)): no steps left of 16"),
    ],
)
def test_a_search_that_runs_dry_names_itself_and_the_functional(search, fuel, message):
    with pytest.raises(FuelExhausted) as exc:
        search(expr_functional("f(2)"), Fuel(fuel))
    assert str(exc.value) == message


def test_special_fan_shapes():
    for name, (bound, count) in (
        ("const2", SPECIAL_FAN_CONST2),
        ("plus1", SPECIAL_FAN_PLUS1),
        ("const0", SPECIAL_FAN_CONST0),
    ):
        theta = special_fan(omega, functional_fixture(name))
        assert theta.bound == bound, name
        assert len(theta.points) == count, name


def test_special_fan_points_enumerate_binary_prefixes():
    theta = special_fan(omega, functional_fixture("plus1"))
    seen = {tuple(p.value_at(i) for i in range(theta.bound)) for p in theta.points}
    assert seen == set(product((0, 1), repeat=theta.bound))
    # and the points are zero beyond the bound
    for p in theta.points:
        assert p.value_at(theta.bound) == 0
        assert p.value_at(theta.bound + 5) == 0


def test_scf_against_the_full_depth_three_tree():
    g = expr_functional("4")
    theta = special_fan(omega, g)
    assert scf_check(theta, g, tree_fixture("full-3"), depth=16)


def test_scf_vacuous_when_prefixes_stay_inside_the_tree():
    g = functional_fixture("const2")
    theta = special_fan(omega, g)
    # every length-2 binary prefix of a theta point lies in the full tree,
    # so the antecedent fails pointwise and the check passes vacuously
    assert scf_check(theta, g, tree_fixture("full-3"), depth=16)


def test_scf_empty_tree_passes_with_positive_bound():
    g = functional_fixture("plus1")
    theta = special_fan(omega, g)
    assert theta.bound >= 1
    assert scf_check(theta, g, tree_fixture("empty"), depth=16)


def test_scf_refuses_bounds_beyond_its_depth_cap():
    g = functional_fixture("const2")
    theta = special_fan(omega, g)
    with pytest.raises(DepthExceeded):
        scf_check(theta, g, tree_fixture("full-3"), depth=theta.bound - 1)


def test_scf_refuses_a_huge_bound_before_building_any_point():
    # listing the points of this bound would take 2^1000000 of them
    g = functional_fixture("const2")
    with pytest.raises(DepthExceeded, match="^theta bound 1000000 exceeds depth cap 16$"):
        scf_check(ThetaResult(bound=10**6), g, tree_fixture("full-3"), depth=16)


def test_scf_holds_across_every_small_tree():
    # for honestly constructed theta the implication is a theorem, so no
    # prefix-closed tree can refute it
    g = functional_fixture("plus1")
    theta = special_fan(omega, g)
    for tree in enumerate_trees(2):
        assert scf_check(theta, g, tree, depth=16), tree.name


def test_scf_flags_an_underselling_bound():
    # fabricate a theta whose bound is smaller than g's reach; against a
    # tree keeping every short prefix the implication fails and the
    # checker must say so
    g = functional_fixture("const2")
    theta = ThetaResult(bound=1)
    tree = BinTree(member=lambda s: len(s) <= 1 and all(x <= 1 for x in s), name="stubby")
    assert not scf_check(theta, g, tree, depth=16)


def test_pwc_frozen_values():
    zeros = constant_point(0)
    ones = constant_point(1)
    assert pwc_bound(functional_fixture("proj1"), zeros, ones, Fuel(10_000)) == PWC_PROJ1_ZEROS_H1
    assert pwc_bound(functional_fixture("const0"), zeros, ones, Fuel(10_000)) == PWC_CONST0_ZEROS_H1
    assert pwc_bound(expr_functional("5"), zeros, ones, Fuel(10_000)) == PWC_CONST5_ZEROS_H1


def test_pwc_vacuous_when_f_breaks_the_height():
    f = pad(FinSeq((9,)), 0)
    ones = constant_point(1)
    y = functional_fixture("proj2")
    b = pwc_bound(y, f, ones, Fuel(10_000))
    # f(0)=9 > 1, so the condition can only hold vacuously, from n=1 on
    assert b == 1


def _pwc_works(y, f, h, n, lookahead=8) -> bool:
    if any(f.value_at(i) > h.value_at(i) for i in range(n)):
        return True
    head = tuple(f.value_at(i) for i in range(n))
    ranges = [range(h.value_at(i) + 1) for i in range(n, n + lookahead)]
    return all(
        y.apply(pad(FinSeq(head + tail), 0)) <= n for tail in product(*ranges)
    )


def test_pwc_contract_exact():
    # the reported bound satisfies the covering property and its
    # predecessor does not, checked by exhaustive enumeration under h
    ones = constant_point(1)
    cases = [
        (functional_fixture("proj1"), constant_point(0), ones),
        (functional_fixture("sum01"), constant_point(1), ones),
        (expr_functional("5"), constant_point(0), ones),
        (functional_fixture("nest"), constant_point(0), constant_point(2)),
    ]
    for y, f, h in cases:
        b = pwc_bound(y, f, h, Fuel(100_000))
        assert _pwc_works(y, f, h, b), (y.name, b)
        if b > 0:
            assert not _pwc_works(y, f, h, b - 1), (y.name, b)


def test_tree_enumeration_counts():
    counts = [len(enumerate_trees(d)) for d in range(4)]
    assert counts == TREE_COUNTS
    assert counts == [tree_count_recurrence(d) for d in range(4)]


def test_enumerated_trees_are_prefix_closed():
    for tree in enumerate_trees(2):
        for items in product((0, 1), repeat=2):
            s = FinSeq(items)
            if tree.member(s):
                assert tree.member(FinSeq(items[:1]))
                assert tree.member(FinSeq(()))


def test_tree_fixtures():
    full = tree_fixture("full-2")
    assert full.member(FinSeq((1, 0)))
    assert not full.member(FinSeq((1, 0, 1)))
    assert not full.member(FinSeq((2,)))
    sparse = tree_fixture("no-consecutive-ones")
    assert sparse.member(FinSeq((1, 0, 1)))
    assert not sparse.member(FinSeq((1, 1)))
    assert not tree_fixture("empty").member(FinSeq(()))
    with pytest.raises(ValueError):
        tree_fixture("full-9")
