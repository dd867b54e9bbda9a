"""Depth-bounded evaluation, stabilization, tracing, derived searches."""

from __future__ import annotations

import json
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gandyhyland import (
    EMPTY,
    BoundExceeded,
    EvalSession,
    FinSeq,
    Fuel,
    FuelExhausted,
    HerbrandWitness,
    InvariantViolation,
    OutOfTableQuery,
    Point,
    StabilizationFailed,
    certified_depth_bounded,
    constant_point,
    epsilon_flag,
    ext_witness,
    functional_from_associate,
    g_eval,
    gamma_eval,
    gamma_flag,
    gh_check,
    ghs_witness,
    h_eval,
    h_hat_eval,
    herbrand_trace,
    make_session,
    modulus_from_associate,
    modulus_from_ghs,
    modulus_from_mu,
    mu,
    mu_from_gh_ext,
    mu_from_modulus,
    pad,
    replay_check,
    stabilize,
)
from gandyhyland.cli.dsl import Add, Ifz, Least, Lit, Mul, Probe, functional_from_ast
from gandyhyland.cli.fixtures import (
    catalog_functionals,
    crafted_mu_points,
    expr_functional,
    flag_associate,
    functional_fixture,
)
from gandyhyland.evaluator import _stub_operation
from oracles import (
    CERTIFIED_PROJ2_EMPTY_H1,
    GHS_FLAG3_AT_ONES,
    GHS_FLAG5_AT_ONES,
    GHS_NEST_AT_ZEROS,
    GHS_PROJ2_AT_TWOS,
    GHS_SUM01_AT_ONES,
    H_SUM01_AT_57,
    HHAT_PROJ0_AT_57_DEPTH1,
    HHAT_SUM01_AT_57_DEPTH1,
    STABILIZE_EPSILON3_EMPTY,
    STABILIZE_SUM01_EMPTY,
    ZERO_AT_20_EXT_WITNESS,
    brute_gamma,
    brute_longest_prefix_answer,
)

S57 = FinSeq((5, 7))


def grid(max_len: int, width: int) -> list[FinSeq]:
    out = [EMPTY]
    for length in range(1, max_len + 1):
        out.extend(FinSeq(items) for items in product(range(width), repeat=length))
    return out


def test_truncating_approximation_frozen_values():
    session = make_session()
    y = functional_fixture("sum01")
    for depth, expected in H_SUM01_AT_57.items():
        assert h_eval(y, S57, depth, session) == expected


def test_one_padding_reaches_both_cases():
    s1 = make_session()
    assert h_hat_eval(functional_fixture("sum01"), S57, 1, s1) == HHAT_SUM01_AT_57_DEPTH1
    s2 = make_session()
    assert h_hat_eval(functional_fixture("proj0"), S57, 1, s2) == HHAT_PROJ0_AT_57_DEPTH1
    # below the cutoff the lazy block also pads ones past its children
    s3 = make_session()
    assert h_hat_eval(functional_fixture("sum01"), EMPTY, 0, s3) == 2
    s4 = make_session()
    assert h_eval(functional_fixture("sum01"), EMPTY, 0, s4) == 0


def test_stabilize_frozen_values():
    assert stabilize(functional_fixture("sum01"), EMPTY, make_session()) == STABILIZE_SUM01_EMPTY
    y = functional_fixture("flag-epsilon", m0=3)
    assert stabilize(y, EMPTY, make_session()) == STABILIZE_EPSILON3_EMPTY


def test_stabilize_covers_both_approximations_over_the_window():
    for y in catalog_functionals():
        session = make_session()
        for s in grid(2, 2):
            n0, v = stabilize(y, s, session)
            for n in range(n0, n0 + session.window + 1):
                assert h_eval(y, s, n, session) == v, (y.name, s.items, n)
                assert g_eval(y, s, n, session) == v, (y.name, s.items, n)


def test_gamma_matches_literal_unfolding():
    # the independent oracle: unfold the defining equation directly, with
    # no memo, no stabilization search, no depth cutoff
    for y in catalog_functionals():
        session = make_session()
        for s in grid(3, 3):
            assert gamma_eval(y, s, session) == brute_gamma(y, s), (y.name, s.items)


def test_fixed_point_equation_holds_on_the_grid():
    for y in catalog_functionals():
        session = make_session()
        for s in grid(2, 2):
            assert gh_check(lambda t: gamma_eval(y, t, session), y, s), (y.name, s.items)


def test_stable_approximants_agree_and_solve_the_equation():
    # any solution assembled from settled approximations coincides with
    # gamma_eval; h and g settle to the same function
    for y in catalog_functionals():
        session = make_session()

        def via_h(t: FinSeq) -> int:
            return h_eval(y, t, stabilize(y, t, session)[0], session)

        def via_g(t: FinSeq) -> int:
            return g_eval(y, t, stabilize(y, t, session)[0], session)

        for s in grid(2, 2):
            assert via_h(s) == via_g(s) == gamma_eval(y, s, session)
            assert gh_check(via_h, y, s), (y.name, s.items)
            assert gh_check(via_g, y, s), (y.name, s.items)


def test_uniform_depth_frozen_values():
    ones = constant_point(1, name="ones")
    twos = constant_point(2, name="twos")
    zeros = constant_point(0, name="zeros")
    cases = [
        (functional_fixture("flag-gamma", m0=3), ones, GHS_FLAG3_AT_ONES),
        (functional_fixture("flag-gamma", m0=5), ones, GHS_FLAG5_AT_ONES),
        (functional_fixture("proj2"), twos, GHS_PROJ2_AT_TWOS),
        (functional_fixture("sum01"), ones, GHS_SUM01_AT_ONES),
        (functional_fixture("nest"), zeros, GHS_NEST_AT_ZEROS),
    ]
    for y, f, expected in cases:
        session = make_session(fuel_steps=2_000_000, window=6)
        assert ghs_witness(y, f, session) == expected, y.name


def test_uniform_depth_weakly_increases_with_the_window():
    y = functional_fixture("sum01")
    ones = constant_point(1, name="ones")
    ks = [
        ghs_witness(y, ones, make_session(window=w)) for w in (2, 4, 6)
    ]
    assert ks[0] <= ks[1] <= ks[2]


def test_uniform_depth_is_a_sampling_modulus():
    # values may vary freely past the witness without moving the output
    points = [constant_point(1, name="ones"), Point(lambda n: n % 2, name="alt01")]
    for name in ("proj2", "sum01", "nest"):
        y = functional_fixture(name)
        for f in points:
            session = make_session(fuel_steps=2_000_000, window=6)
            k = modulus_from_ghs(y, f, session)
            base = y.apply(f)
            for pos in range(k, k + 3):
                for val in range(3):
                    varied = Point(
                        lambda i, _p=pos, _v=val: _v if i == _p else f.value_at(i),
                        name=f"{f.name}[{pos}:={val}]",
                    )
                    assert y.apply(varied) == base, (name, f.name, pos, val)


def test_modulus_routes_agree():
    assoc = flag_associate("flag-gamma", 3)
    y = functional_from_associate(assoc, 100_000)
    ones = constant_point(1, name="ones")
    via_assoc = modulus_from_associate(assoc, ones, Fuel(200_000))
    via_mu = modulus_from_mu(mu, assoc, ones, Fuel(200_000))
    via_ghs = modulus_from_ghs(y, ones, make_session(fuel_steps=2_000_000, window=6))
    assert via_assoc == via_mu == via_ghs


def test_trace_structure():
    y = functional_fixture("sum01")
    s = FinSeq((0, 2))
    w = herbrand_trace(y, s, make_session())
    assert set(w.probes) == {"apply", "modulus", "theta"}
    # the evaluation path only ever applies the functional
    assert w.probes["modulus"] == []
    assert w.probes["theta"] == []
    prefixes = [p for p, _ in w.probes["apply"]]
    assert len(prefixes) == len(set(prefixes))
    fresh = make_session()
    assert w.result == gamma_eval(y, s, fresh)
    assert w.depth == fresh.gamma_depth(s)
    assert len(w.trajectory) == w.depth + fresh.window + 1
    for n, hv, gv in w.trajectory:
        assert hv == h_eval(y, s, n, fresh)
        assert gv == g_eval(y, s, n, fresh)
    assert [t[0] for t in w.trajectory] == list(range(len(w.trajectory)))


def test_trace_replays_cleanly():
    for name in ("const2", "sum01", "nest"):
        y = functional_fixture(name)
        for s in (EMPTY, FinSeq((1,))):
            w = herbrand_trace(y, s, make_session())
            assert replay_check(w, s, make_session()), (name, s.items)


def _with_mutated_answer(w: HerbrandWitness, index: int) -> HerbrandWitness:
    entries = list(w.probes["apply"])
    prefix, answer = entries[index]
    entries[index] = (prefix, answer + 1)
    probes = dict(w.probes)
    probes["apply"] = entries
    return HerbrandWitness(
        probes=probes, depth=w.depth, result=w.result, trajectory=list(w.trajectory)
    )


def test_replay_rejects_every_single_answer_mutation():
    y = functional_fixture("sum01")
    for s in (EMPTY, FinSeq((0, 2))):
        w = herbrand_trace(y, s, make_session())
        assert replay_check(w, s, make_session())
        for i in range(len(w.probes["apply"])):
            bad = _with_mutated_answer(w, i)
            try:
                assert not replay_check(bad, s, make_session()), (s.items, i)
            except (OutOfTableQuery, FuelExhausted):
                pass


def test_replay_ignores_unreachable_extra_rows():
    y = functional_fixture("nest")
    w = herbrand_trace(y, EMPTY, make_session())
    probes = dict(w.probes)
    probes["apply"] = list(probes["apply"]) + [((9,) * 10, 42)]
    padded = HerbrandWitness(
        probes=probes, depth=w.depth, result=w.result, trajectory=list(w.trajectory)
    )
    assert replay_check(padded, EMPTY, make_session())


def test_witness_survives_json():
    y = functional_fixture("sum01")
    w = herbrand_trace(y, FinSeq((1,)), make_session())
    back = HerbrandWitness.from_dict(json.loads(json.dumps(w.as_dict())))
    assert back == w
    assert replay_check(back, FinSeq((1,)), make_session())


def _stub_answer_and_reads(entries, values: list[int], tail: int):
    """Ask the stub at values padded with tail; return (answer or None,
    the set of positions it read)."""
    reads: set[int] = set()

    def gen(i: int) -> int:
        reads.add(i)
        return values[i] if i < len(values) else tail

    try:
        answer = _stub_operation(entries, "apply")(Point(gen, name="counting"))
    except OutOfTableQuery:
        answer = None
    return answer, reads


_PREFIXES = st.lists(st.integers(min_value=0, max_value=2), max_size=4).map(tuple)


@given(
    entries=st.lists(st.tuples(_PREFIXES, st.integers(min_value=0, max_value=9)), max_size=8),
    start=st.lists(st.integers(min_value=0, max_value=2), max_size=6),
    tail=st.integers(min_value=0, max_value=2),
)
def test_stub_answers_by_longest_prefix_and_reads_only_what_decides(entries, start, tail):
    values = start + [tail] * 4
    answer, reads = _stub_answer_and_reads(entries, start, tail)
    assert answer == brute_longest_prefix_answer(entries, values)
    assert reads == {
        i
        for i in range(len(values))
        if any(len(p) > i and list(p[:i]) == values[:i] for p, _ in entries)
    }


def test_stub_edge_cases():
    # The empty prefix answers every point without a read.
    assert _stub_answer_and_reads([((), 7)], [], 0) == (7, set())
    # It stays the fallback once a longer row stops matching.
    assert _stub_answer_and_reads([((), 7), ((1, 2), 3)], [1, 0], 0) == (7, {0, 1})
    assert _stub_answer_and_reads([((), 7), ((1, 2), 3)], [1, 2], 0) == (3, {0, 1})
    # Of two equal prefixes the later row wins.
    assert _stub_answer_and_reads([((0, 1), 4), ((0, 1), 5)], [0, 1], 0) == (5, {0, 1})
    assert _stub_answer_and_reads([((), 4), ((), 5)], [], 0) == (5, set())
    # No matching prefix is an out-of-table query.
    assert _stub_answer_and_reads([((1,), 3)], [0], 0) == (None, {0})
    assert _stub_answer_and_reads([], [], 0) == (None, set())


def _gamma_closure(assoc):
    fn = functional_from_associate(assoc, 2_000)
    return gamma_eval(fn, EMPTY, make_session(fuel_steps=500_000))


def test_least_zero_via_both_routes():
    for point, z in crafted_mu_points()[:8]:
        assert mu_from_modulus(modulus_from_associate, point, Fuel(200_000)) == z
        assert mu_from_gh_ext(_gamma_closure, ext_witness, point, Fuel(200_000)) == z


def test_least_zero_far_out():
    f = Point(lambda n: 0 if n == 20 else 1, name="zero at 20")
    indicator = Point(lambda n: 1 if n == 20 else 0, name="onehot20")
    w = ext_witness(gamma_flag(indicator), epsilon_flag(indicator), Fuel(500))
    assert w == ZERO_AT_20_EXT_WITNESS
    assert mu_from_gh_ext(_gamma_closure, ext_witness, f, Fuel(500)) == 20
    assert mu_from_modulus(modulus_from_associate, f, Fuel(200_000)) == 20


def test_zero_free_point_starves_one_route_and_zeroes_the_other():
    ones = constant_point(1, name="ones")
    with pytest.raises(FuelExhausted):
        mu_from_modulus(modulus_from_associate, ones, Fuel(300))
    assert mu_from_gh_ext(_gamma_closure, ext_witness, ones, Fuel(300)) == 0


def test_certified_depth_frozen_value():
    y = functional_fixture("proj2")
    ones = constant_point(1, name="ones")
    assert certified_depth_bounded(y, EMPTY, ones, make_session()) == CERTIFIED_PROJ2_EMPTY_H1


def test_certified_depth_dominates_stabilization():
    h = constant_point(2, name="h2")
    for name in ("const2", "sum01", "nest"):
        y = functional_fixture(name)
        for s in (EMPTY, FinSeq((1,)), FinSeq((0, 1))):
            cert = certified_depth_bounded(y, s, h, make_session())
            n0, _ = stabilize(y, s, make_session())
            assert cert >= n0, (name, s.items)


def test_bound_checking_trips_on_a_tall_child():
    y = functional_fixture("sum01")
    low, high = make_session(), make_session()
    low.bound, high.bound = constant_point(0), constant_point(9)
    with pytest.raises(BoundExceeded):
        g_eval(y, EMPTY, 1, low)
    assert g_eval(y, EMPTY, 1, high) == 1


def test_memo_is_observationally_transparent():
    for name in ("sum01", "nest", "flag-gamma"):
        y1 = functional_fixture(name)
        y2 = functional_fixture(name)
        with_memo = make_session()
        without = make_session(fuel_steps=5_000_000, memo_enabled=False)
        for s in (EMPTY, FinSeq((1,)), FinSeq((0, 2))):
            assert gamma_eval(y1, s, with_memo) == gamma_eval(y2, s, without), (name, s.items)


# Expressions that probe only literal positions: the recursion they start
# stays a few levels deep, so memo-free evaluation finishes quickly.
_SHALLOW_AST = st.recursive(
    st.builds(Lit, st.integers(min_value=0, max_value=3))
    | st.builds(Probe, st.builds(Lit, st.integers(min_value=0, max_value=4))),
    lambda node: st.one_of(
        st.builds(Add, node, node),
        st.builds(Mul, node, node),
        st.builds(Ifz, node, node, node),
        st.builds(Least, st.integers(min_value=0, max_value=2), node),
    ),
    max_leaves=6,
)


@given(
    tree=_SHALLOW_AST,
    start=st.lists(st.integers(min_value=0, max_value=2), max_size=3).map(FinSeq),
    depth=st.integers(min_value=0, max_value=6),
)
def test_memo_keys_are_observationally_transparent(tree, start, depth):
    # Memo-free evaluation never builds a key, so it checks the keys from
    # outside: leaves that share a key must have shared their value.
    y = functional_from_ast(tree)
    with_memo = make_session()
    without = make_session(memo_enabled=False)
    for evaluate in (h_eval, h_hat_eval, g_eval):
        for n in range(depth + 1):
            assert evaluate(y, start, n, with_memo) == evaluate(y, start, n, without), n
    assert gamma_eval(y, start, with_memo) == gamma_eval(y, start, without)


def test_memo_is_write_once():
    session = make_session()
    session.memo_put(("h", (5,), 1), 3)
    session.memo_put(("h", (5,), 1), 3)
    with pytest.raises(InvariantViolation):
        session.memo_put(("h", (5,), 1), 4)


def _work(session: EvalSession) -> tuple[int, int]:
    return session.fuel.budget - session.fuel.remaining, len(session._values)


@pytest.mark.parametrize(
    "expr, start, window, value, fuel, memo",
    [
        ("f(12)+1", (), 14, 13, 546, 546),
        ("f(0)+f(16)*2", (1, 0), 18, 32767, 782, 782),
        ("f(f(0))", (), 4, 0, 10, 10),
    ],
)
def test_gamma_eval_work_counts_are_frozen(expr, start, window, value, fuel, memo):
    # Counts are deterministic: a change in the work done fails here,
    # without the noise of a timing gate.
    session = make_session(window=window)
    assert gamma_eval(expr_functional(expr), FinSeq(start), session) == value
    assert _work(session) == (fuel, memo)


def test_ghs_witness_work_counts_are_frozen():
    y = functional_from_associate(flag_associate("flag-gamma", 5))
    session = make_session(fuel_steps=2_000_000, window=6)
    assert modulus_from_ghs(y, constant_point(0, name="zeros"), session) == 6
    assert _work(session) == (5930, 5930)


def test_leaves_are_keyed_by_the_point_they_evaluate():
    # At or past its cutoff h_eval applies Y to the first m entries padded,
    # and g_eval at any depth n <= len(s) to s padded: one node each.
    y = expr_functional("f(0)+f(1)*3")
    session = make_session()
    for tail in ((), (0,), (5, 3), (1, 1, 1)):
        assert h_eval(y, FinSeq((2, 1) + tail), 2, session) == 5
    assert _work(session) == (1, 1)
    session = make_session()
    s = FinSeq((3, 0, 4))
    assert [g_eval(y, s, n, session) for n in range(len(s) + 1)] == [3] * 4
    assert _work(session) == (1, 1)


def test_session_serves_one_functional():
    session = make_session()
    h_eval(functional_fixture("sum01"), EMPTY, 0, session)
    with pytest.raises(InvariantViolation):
        h_eval(functional_fixture("nest"), EMPTY, 0, session)


def test_stabilization_gives_up_at_the_depth_cap():
    with pytest.raises(StabilizationFailed):
        stabilize(functional_fixture("sum01"), EMPTY, make_session(nmax=0))


def test_evaluation_is_fuel_bounded():
    with pytest.raises(FuelExhausted):
        gamma_eval(functional_fixture("sum01"), EMPTY, make_session(fuel_steps=3))
