"""Depth-bounded evaluation, stabilization, tracing, derived searches."""

from __future__ import annotations

from dataclasses import replace
from itertools import count, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gandyhyland import (
    EMPTY,
    BoundExceeded,
    EvalSession,
    FinSeq,
    Fuel,
    FuelExhausted,
    Functional,
    GhEquationViolated,
    HerbrandWitness,
    InvariantViolation,
    OutOfTableQuery,
    Point,
    StabilizationFailed,
    certified_depth_bounded,
    constant_point,
    enumerate_sequences,
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
    modulus_from_mu,
    mu,
    mu_from_gh_ext,
    mu_from_modulus,
    pad,
    replay_check,
    stabilize,
)
from gandyhyland.cli.dsl import Add, Ifz, Least, Lit, Mul, Probe, functional_from_ast, parse_spec
from gandyhyland.cli.fixtures import (
    catalog_functionals,
    crafted_mu_points,
    expr_functional,
    flag_associate,
    functional_fixture,
)
from gandyhyland.cli.main import read_trace, write_trace
from gandyhyland.evaluator import _ghs_candidates, _level, _stub_operation
from oracles import (
    CERTIFIED_H2_MODULI,
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
    brute_dialogue_answer,
    brute_gamma,
    brute_ghs_witness,
)

S57 = FinSeq((5, 7))


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
        for s in enumerate_sequences(2, 2):
            n0, v = stabilize(y, s, session)
            for n in range(n0, n0 + session.window + 1):
                assert h_eval(y, s, n, session) == v, (y.name, s.items, n)
                assert g_eval(y, s, n, session) == v, (y.name, s.items, n)


def test_gamma_matches_literal_unfolding():
    # the independent oracle: unfold the defining equation directly, with
    # no memo, no stabilization search, no depth cutoff
    for y in catalog_functionals():
        session = make_session()
        for s in enumerate_sequences(3, 3):
            assert gamma_eval(y, s, session) == brute_gamma(y, s), (y.name, s.items)


def test_fixed_point_equation_holds_on_the_grid():
    for y in catalog_functionals():
        session = make_session()
        for s in enumerate_sequences(2, 2):
            assert gh_check(lambda t: gamma_eval(y, t, session), y, s), (y.name, s.items)


def test_a_failed_certification_is_not_kept():
    # At window 4 stabilization settles on a false plateau at [6, 5, 4, 3, 2]
    # (window 12 certifies the true value 2), so the check fails there. No
    # later call on the session may serve that value or an ancestor's.
    y = expr_functional("f(6)+1")
    deep = FinSeq((6, 5, 4, 3, 2))
    session = make_session(window=4)
    for s in (EMPTY, deep, EMPTY):
        with pytest.raises(GhEquationViolated) as exc:
            gamma_eval(y, s, session)
        assert str(exc.value) == "f(6)+1 at [6, 5, 4, 3, 2]: stable value 1 fails the equation"
    assert gamma_eval(y, deep, make_session(window=12)) == 2


def test_stable_approximants_agree_and_solve_the_equation():
    # any solution assembled from settled approximations coincides with
    # gamma_eval; h and g settle to the same function
    for y in catalog_functionals():
        session = make_session()

        def via_h(t: FinSeq) -> int:
            return h_eval(y, t, stabilize(y, t, session)[0], session)

        def via_g(t: FinSeq) -> int:
            return g_eval(y, t, stabilize(y, t, session)[0], session)

        for s in enumerate_sequences(2, 2):
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
            k = ghs_witness(y, f, session)
            base = y.apply(f)
            for pos in range(k, k + 3):
                for val in range(3):
                    varied = Point(
                        lambda i, _p=pos, _v=val: _v if i == _p else f.value_at(i),
                        name=f"{f.name}[{pos}:={val}]",
                    )
                    assert y.apply(varied) == base, (name, f.name, pos, val)


@given(
    values=st.lists(st.integers(min_value=0, max_value=3), min_size=4, max_size=4),
    m=st.integers(min_value=0, max_value=4),
    value_cap=st.integers(min_value=0, max_value=2),
    tail_cap=st.integers(min_value=0, max_value=2),
)
def test_ghs_candidates_are_each_capped_sequence_agreeing_with_alpha_once(
    values, m, value_cap, tail_cap
):
    alpha = pad(FinSeq(tuple(values)), 0)
    got = [s.items for s in _ghs_candidates(alpha, m, value_cap, tail_cap)]
    assert len(got) == len(set(got))
    # Every sequence up to m + tail_cap long, entries capped, whose
    # zero-padding agrees with alpha on the first m values.
    assert set(got) == {
        items
        for length in range(m + tail_cap + 1)
        for items in product(range(value_cap + 1), repeat=length)
        if all((items[i] if i < length else 0) == values[i] for i in range(m))
    }


def test_modulus_routes_agree():
    assoc = flag_associate("flag-gamma", 3)
    y = functional_from_associate(assoc, 100_000)
    ones = constant_point(1, name="ones")
    via_assoc = modulus_from_associate(assoc, ones, Fuel(200_000))
    via_mu = modulus_from_mu(mu, assoc, ones, Fuel(200_000))
    via_ghs = ghs_witness(y, ones, make_session(fuel_steps=2_000_000, window=6))
    assert via_assoc == via_mu == via_ghs


def test_trace_structure():
    y = functional_fixture("sum01")
    s = FinSeq((0, 2))
    w = herbrand_trace(y, s, make_session())
    # the evaluation path only ever applies the functional
    assert set(w.probes) == {"apply"}
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
    assert (w.seq, w.window, w.nmax) == (s, fresh.window, fresh.nmax)


def test_trace_refuses_an_apply_that_answers_equal_reads_differently():
    ticks = count()
    y = Functional(apply=lambda p: p.value_at(0) + next(ticks) % 2, name="flicker")
    with pytest.raises(InvariantViolation) as exc:
        herbrand_trace(y, EMPTY, make_session())
    assert str(exc.value) == "apply answered 0 then 1 on equal reads ((0, 0),)"


def test_trace_replays_cleanly():
    for name in ("const2", "sum01", "nest"):
        y = functional_fixture(name)
        for s in (EMPTY, FinSeq((1,))):
            w = herbrand_trace(y, s, make_session())
            assert replay_check(w), (name, s.items)



@pytest.mark.parametrize(
    "expr, start, window, work",
    [
        ("f(12)+1", (), 14, (153, 13, 27, 12, 13)),
        ("f(0)+f(1)", (0, 2), 4, (3, 2, 7, 2, 2)),
    ],
)
def test_trace_path_work_counts_are_frozen(expr, start, window, work):
    # (applies of Y, trace rows, trajectory rows, depth, result): the
    # trajectory reads back levels the stabilization search already made,
    # so it must cost no apply of its own. f(0)+f(1) settles at (0, 2), so
    # there its three applies are the prefix leaves and no equation check.
    y = expr_functional(expr)
    applies = 0

    def apply(point: Point) -> int:
        nonlocal applies
        applies += 1
        return y.apply(point)

    counted = Functional(apply=apply, name=y.name)
    w = herbrand_trace(counted, FinSeq(start), make_session(window=window))
    assert (applies, len(w.probes["apply"]), len(w.trajectory), w.depth, w.result) == work
    assert replay_check(w)

def _with_mutated_answer(w: HerbrandWitness, index: int) -> HerbrandWitness:
    entries = list(w.probes["apply"])
    prefix, answer = entries[index]
    entries[index] = (prefix, answer + 1)
    return replace(w, probes={"apply": entries})


def test_replay_rejects_every_single_answer_mutation():
    y = functional_fixture("sum01")
    for s in (EMPTY, FinSeq((0, 2))):
        w = herbrand_trace(y, s, make_session())
        assert replay_check(w)
        for i in range(len(w.probes["apply"])):
            bad = _with_mutated_answer(w, i)
            try:
                assert not replay_check(bad), (s.items, i)
            except (OutOfTableQuery, FuelExhausted):
                pass


def test_replay_ignores_unreachable_extra_rows():
    y = functional_fixture("nest")
    w = herbrand_trace(y, EMPTY, make_session())
    spare = (tuple((i, 9) for i in range(10)), 42)
    assert replay_check(replace(w, probes={"apply": w.probes["apply"] + [spare]}))


def test_witness_survives_json(tmp_path):
    y = functional_fixture("sum01")
    w = herbrand_trace(y, FinSeq((1,)), make_session())
    path = str(tmp_path / "trace.json")
    write_trace(w, path)
    assert read_trace(path) == w
    assert replay_check(read_trace(path))


def _ask_stub(dialogues, values: list[int], tail: int):
    """Ask the stub at values padded with tail; return (answer or None,
    the set of positions it read)."""
    reads: set[int] = set()

    def gen(i: int) -> int:
        reads.add(i)
        return values[i] if i < len(values) else tail

    try:
        answer = _stub_operation(dialogues)(Point(gen, name="counting"))
    except OutOfTableQuery:
        answer = None
    return answer, reads


def test_stub_edge_cases():
    # The empty dialogue answers every point without a read.
    assert _ask_stub([((), 7)], [], 0) == (7, set())
    # A row whose dialogue ends where another's continues answers at its
    # own end and reads nothing further.
    nested = [(((0, 1),), 7), (((0, 1), (1, 2)), 3)]
    assert _ask_stub(nested, [1, 2], 0) == (7, {0})
    assert _ask_stub([((), 7), (((1, 2),), 3)], [0, 2], 0) == (7, set())
    # Of two equal dialogues the later row wins.
    assert _ask_stub([(((0, 0), (1, 1)), 4), (((0, 0), (1, 1)), 5)], [0, 1], 0) == (5, {0, 1})
    assert _ask_stub([((), 4), ((), 5)], [], 0) == (5, set())
    # A point that leaves the tree before an answer is an out-of-table
    # query, also where a row stops short of the answer.
    assert _ask_stub([(((0, 1),), 3)], [0], 0) == (None, {0})
    assert _ask_stub([(((0, 1), (1, 2)), 3)], [1, 0], 0) == (None, {0, 1})
    assert _ask_stub([], [], 0) == (None, set())
    # A row asking another position where an earlier row read is ignored,
    # at the root and further down.
    assert _ask_stub([(((0, 1),), 4), (((1, 1),), 5)], [1, 1], 0) == (4, {0})
    assert _ask_stub([(((0, 1),), 4), (((1, 1),), 5)], [0, 1], 0) == (None, {0})
    clash = [(((2, 1), (0, 3)), 4), (((2, 1), (1, 3)), 5)]
    assert _ask_stub(clash, [3, 3, 1], 0) == (4, {0, 2})
    assert _ask_stub(clash, [0, 3, 1], 0) == (None, {0, 2})


@st.composite
def _decision_tables(draw):
    """The rows of a random decision tree over positions 0..5 and values
    0..2, in random order, then a few rows repeated with new answers.
    Each inner node reads a position its path has not read yet, so the
    read order differs from branch to branch, as an adaptive Y's does."""
    rows = []

    def grow(reads):
        if len(reads) == 3 or draw(st.booleans()):
            rows.append((tuple(reads), draw(st.integers(min_value=0, max_value=9))))
            return
        read = {position for position, _ in reads}
        position = draw(st.sampled_from([p for p in range(6) if p not in read]))
        for value in sorted(draw(st.sets(st.integers(min_value=0, max_value=2), min_size=1))):
            grow(reads + [(position, value)])

    grow([])
    repeats = draw(st.lists(
        st.tuples(st.sampled_from(rows), st.integers(min_value=0, max_value=9)), max_size=3
    ))
    return draw(st.permutations(rows)) + [(row[0], answer) for row, answer in repeats]


@given(
    entries=_decision_tables(),
    values=st.lists(st.integers(min_value=0, max_value=2), min_size=6, max_size=6),
)
def test_stub_follows_the_dialogue_the_point_agrees_with(entries, values):
    answer, reads = _ask_stub(entries, values, 0)
    assert answer == brute_dialogue_answer(entries, values)
    # Every row is read up to its first disagreement with the point: the
    # rows share the point's path through the tree until they leave it,
    # so this is exactly the matching dialogue's positions when one matches.
    expected: set[int] = set()
    for dialogue, _ in entries:
        for position, value in dialogue:
            expected.add(position)
            if values[position] != value:
                break
    assert reads == expected


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


@pytest.mark.parametrize("bracket", [0, 2])
def test_a_modulus_bracketing_no_zero_is_refused(bracket):
    only_zero_at_3 = Point(lambda n: 0 if n == 3 else 1, name="zero at 3")
    with pytest.raises(InvariantViolation) as exc:
        mu_from_modulus(lambda gamma, alpha, fuel: bracket, only_zero_at_3, Fuel(100))
    assert str(exc.value) == f"modulus bracket [0, {bracket}) holds no zero of zero at 3"


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
    # The check session audits its own memo, so the caller's memo setting
    # changes nothing.
    y = expr_functional("f(0)+f(3)")
    h2 = constant_point(2, name="h2")
    for memo_enabled in (True, False):
        with pytest.raises(BoundExceeded) as exc:
            certified_depth_bounded(y, EMPTY, h2, make_session(memo_enabled=memo_enabled))
        assert str(exc.value) == (
            "child value 3 at position 3 exceeds bound 2 (sequence [3, 2], depth 4)"
        )


def test_a_bound_violation_wins_over_running_dry():
    # With 11 steps the check runs dry after reading the tall child; the
    # violation came first, so it is what the certificate reports.
    y = expr_functional("f(0)+f(3)")
    with pytest.raises(BoundExceeded) as exc:
        certified_depth_bounded(y, EMPTY, constant_point(0), make_session(fuel_steps=11))
    assert str(exc.value) == (
        "child value 3 at position 3 exceeds bound 0 (sequence [], depth 1)"
    )


def test_certified_depths_under_h2_are_frozen():
    h2 = constant_point(2, name="h2")
    exprs = ("f(0)+f(3)", "ifz(f(2), 1, f(4))", "least(2, f(1))")
    outcomes = {}
    for y in catalog_functionals() + [expr_functional(e) for e in exprs]:
        session = make_session(fuel_steps=2_000_000)
        for s in enumerate_sequences(2, 3):
            try:
                outcomes[y.name, s.items] = certified_depth_bounded(y, s, h2, session)
            except BoundExceeded as exc:
                outcomes[y.name, s.items] = str(exc)
    assert outcomes.pop(("f(0)+f(3)", ())) == (
        "child value 3 at position 3 exceeds bound 2 (sequence [3, 2], depth 4)"
    )
    assert len(outcomes) == 116
    assert outcomes == {
        (name, items): len(items) + CERTIFIED_H2_MODULI[name] for name, items in outcomes
    }


def test_memo_is_observationally_transparent():
    for name in ("sum01", "nest", "flag-gamma"):
        y1 = functional_fixture(name)
        y2 = functional_fixture(name)
        with_memo = make_session()
        without = make_session(fuel_steps=5_000_000, memo_enabled=False)
        for s in (EMPTY, FinSeq((1,)), FinSeq((0, 2))):
            assert gamma_eval(y1, s, with_memo) == gamma_eval(y2, s, without), (name, s.items)


def test_memo_marks_hold_at_any_depth():
    # At depth 2**64 the block at [1] reads a child past its depth and one
    # below it, both beyond 2**63: h pads the first, g reads it, so the
    # node holds for its own kind only, however large the depth.
    y = expr_functional("ifz(f(1), f(18446744073709551626)+f(9223372036854775818), 3)")
    start, depth = FinSeq((1,)), 2**64
    for session in (make_session(), make_session(memo_enabled=False)):
        assert [h_eval(y, start, depth, session), g_eval(y, start, depth, session)] == [3, 6]


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


@settings(deadline=None)
@given(tree=_SHALLOW_AST, start=st.sampled_from(enumerate_sequences(2, 3)))
def test_the_certified_depth_gives_the_value_unless_the_bound_fails(tree, start):
    # The paper's route: a depth from the fan and pointwise bounds alone, no
    # settling search. Under h = 2 either some child value exceeds the
    # bound, and the certificate says so, or g there is the literal value.
    # The dense bar search may also run dry where the lifted bound is wide,
    # e.g. (ifz(f(2), f(1), 1)+3)*(f(4)+3) at [0, 2]; it never gives a value.
    y = functional_from_ast(tree)
    session = make_session()
    try:
        depth = certified_depth_bounded(y, start, constant_point(2, name="h2"), session)
    except BoundExceeded:
        return
    except FuelExhausted as exc:
        assert str(exc).startswith("bar search("), str(exc)
        return
    assert g_eval(y, start, depth, session) == brute_gamma(y, start)


@settings(deadline=None)
# At (1) and depth 2 both nodes read position 4 past the depth (h its pad,
# g the child (1, 3)), so h gives 1 and g gives 2, each under its own key.
# The nodes at () read (1) warm from the memo, and must not share a value.
@example(tree=parse_spec("ifz(f(0), f(1), f(4)+1)"), starts=[(1,), ()], depth=2, g_first=False)
@example(tree=parse_spec("ifz(f(0), f(1), f(4)+1)"), starts=[(1,), ()], depth=2, g_first=True)
@given(
    tree=_SHALLOW_AST,
    starts=st.permutations([s.items for s in enumerate_sequences(2, 3)]),
    depth=st.integers(min_value=0, max_value=5),
    g_first=st.booleans(),
)
def test_h_and_g_sharing_nodes_is_observationally_transparent(tree, starts, depth, g_first):
    # An h or g node serves its twin only when its subtree read nothing
    # past its depth; warm entries of one kind must not leak into the
    # other, whichever kind and start come first.
    y = functional_from_ast(tree)
    with_memo = make_session()
    without = make_session(memo_enabled=False)
    kinds = (g_eval, h_eval) if g_first else (h_eval, g_eval)
    for items in starts:
        start = FinSeq(items)
        for n in range(depth + 1):
            for evaluate in kinds:
                expected = evaluate(y, start, n, without)
                assert evaluate(y, start, n, with_memo) == expected, (items, n, evaluate.__name__)


@settings(deadline=None)
# At () the block reads position 4, the child (4), whose own floor is 2:
# the floor is 4, since at depths 2 and 3 h pads that position instead.
@example(tree=parse_spec("ifz(f(0), f(4), 3)"), starts=[()], shuffled=list(range(7)))
# (1) is free with floor 5; () then reads it from the memo at j = 1 and
# takes its floor 5 too, as h at () below depth 5 reaches a leaf.
@example(tree=parse_spec("ifz(f(0), f(1), f(4)+1)"), starts=[(1,), ()], shuffled=list(range(7)))
@given(
    tree=_SHALLOW_AST,
    starts=st.permutations([s.items for s in enumerate_sequences(1, 5)]),
    shuffled=st.permutations(range(7)),
)
def test_floor_entries_are_observationally_transparent(tree, starts, shuffled):
    # A node that met no leaf and read nothing past its depth is written
    # once, at its floor, and read back at every depth from there up, by
    # all three kinds. Memo-free evaluation writes no floor, so it checks
    # them from outside, whichever order the depths come in.
    y = functional_from_ast(tree)
    without = make_session(memo_enabled=False)
    kinds = (h_eval, h_hat_eval, g_eval)
    expected = {
        (items, n, evaluate): evaluate(y, FinSeq(items), n, without)
        for items in starts
        for n in shuffled
        for evaluate in kinds
    }
    for depths in (range(7), range(6, -1, -1), shuffled):
        with_memo = make_session()
        for n in depths:
            for items in starts:
                for evaluate in kinds:
                    value = evaluate(y, FinSeq(items), n, with_memo)
                    assert value == expected[items, n, evaluate], (items, n, evaluate.__name__)


@settings(deadline=None)
# The chain (), (6), (6, 5), .. is free from depth 7 on, and h and g first
# agree at 6: the run that starts there never breaks, but starts past nmax.
@example(tree=parse_spec("f(6)+1"), starts=[()], window=4, nmax=5)
# Stabilizing () leaves (2) a floor of 3, but at (2) the value moves from
# 1 to 2 at depth 2: a floor above n must not end the search at n.
@example(tree=parse_spec("f(2)+1"), starts=[(), (2,)], window=2, nmax=1)
@given(
    tree=_SHALLOW_AST,
    starts=st.permutations([s.items for s in enumerate_sequences(2, 3)]),
    window=st.integers(min_value=0, max_value=4),
    nmax=st.integers(min_value=0, max_value=6),
)
def test_stabilize_ends_at_a_floor_as_the_full_scan_ends(tree, starts, window, nmax):
    # With the memo, the search ends at a start's floor, where every later
    # depth reads one entry; without it, it scans every depth up to
    # nmax+window. Warm floors left by earlier starts must not end it early.
    y = functional_from_ast(tree)
    sessions = [make_session(window=window, nmax=nmax, memo_enabled=m) for m in (True, False)]
    for items in starts:
        outcomes = []
        for session in sessions:
            try:
                outcomes.append(stabilize(y, FinSeq(items), session))
            except Exception as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1], items


def _outcome(run):
    try:
        return run()
    except Exception as exc:
        return type(exc)


@settings(deadline=None)
@given(
    y=st.just("flag-gamma").map(functional_fixture) | _SHALLOW_AST.map(functional_from_ast),
    window=st.sampled_from([1, 2, 4, 6]),
    starts=st.permutations(enumerate_sequences(3, 3)),
    period=st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=3),
)
def test_settled_leaves_and_inherited_levels_are_observationally_transparent(
    y, window, starts, period
):
    # With the memo, a leaf that reads nothing at or past its length is
    # free, a start settled that way skips its equation check, and a start
    # reads the levels below its length from its parent's. Memo-free
    # sessions do none of that, so they check all three from outside,
    # whichever order the starts share one memo session in.
    with_memo = make_session(window=window)

    def settle(s: FinSeq, session: EvalSession):
        return lambda: (gamma_eval(y, s, session), session.gamma_depth(s))

    for s in starts:
        without = make_session(window=window, memo_enabled=False)
        assert _outcome(settle(s, with_memo)) == _outcome(settle(s, without)), s.items
        assert without._prefix == without._floors == {}
    alpha = Point(lambda i: period[i % len(period)], name=f"periodic {period}")
    assert _outcome(
        lambda: ghs_witness(y, alpha, with_memo, value_cap=1, tail_cap=1)
    ) == _outcome(
        lambda: ghs_witness(
            y, alpha, make_session(window=window, memo_enabled=False), value_cap=1, tail_cap=1
        )
    )


def test_a_settled_start_certifies_itself():
    # f(0)+f(1) reads nothing past (0, 2): its leaf there is free with
    # floor 2, so the search reads no block at depth 3 and the equation
    # check applies nothing. The three applies are the leaves at (), (0)
    # and (0, 2), each read once.
    y = expr_functional("f(0)+f(1)")
    applies: list[str] = []

    def apply(point: Point) -> int:
        applies.append(point.name)
        return y.apply(point)

    session = make_session(window=4)
    assert gamma_eval(Functional(apply=apply, name=y.name), FinSeq((0, 2)), session) == 2
    assert applies == ["[0, 2]*0..", "[]*0..", "[0]*0.."]
    assert not any(key[2] == 3 for key in session._values)
    assert session._floors[(0, 2)] == 2


@given(
    tree=_SHALLOW_AST,
    start=st.lists(st.integers(min_value=0, max_value=2), max_size=3).map(FinSeq),
)
def test_trace_then_replay_certifies(tmp_path_factory, tree, start):
    y = functional_from_ast(tree)
    w = herbrand_trace(y, start, make_session())
    assert w.result == gamma_eval(y, start, make_session())
    path = str(tmp_path_factory.getbasetemp() / "trace-then-replay.json")
    write_trace(w, path)
    back = read_trace(path)
    assert back == w
    assert replay_check(back)


def _reach(tree) -> int:
    """One past the deepest position a _SHALLOW_AST expression can read."""
    if isinstance(tree, Lit):
        return 0
    if isinstance(tree, Probe):
        return tree.arg.value + 1
    if isinstance(tree, Least):
        return _reach(tree.body) + tree.bound - 1 if tree.bound else 0
    return max(_reach(child) for child in vars(tree).values())


@settings(deadline=None)
# At zeros, K = 0 finds the candidate (0, 1) agreeing at depths 0 and 1
# but not at 2, so K = 1 must fail on it too without comparing again.
@example(tree=parse_spec("f(1)*3*ifz(f(4), 3, f(2))"), period=[0])
@given(
    tree=_SHALLOW_AST,
    period=st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=3),
)
def test_ghs_witness_is_the_least_uniform_depth(tree, period):
    # From depth _reach on, both approximations are exact, so a window and
    # an nmax that wide make every stabilization land on the true value and
    # some K at or below nmax pass: neither side can fail. A narrower
    # window lets stabilization settle on a short false plateau, which the
    # equation check rejects while the oracle still has an answer.
    # A memo-free session reads nothing back, so it checks the level reads
    # in stabilize and ghs_witness from outside.
    reach = _reach(tree)
    y = functional_from_ast(tree)
    alpha = Point(lambda i: period[i % len(period)], name=f"periodic {period}")
    expected = brute_ghs_witness(y, alpha, reach, reach, value_cap=1, tail_cap=1)
    for memo_enabled in (True, False):
        session = make_session(window=reach, nmax=reach, memo_enabled=memo_enabled)
        assert ghs_witness(y, alpha, session, value_cap=1, tail_cap=1) == expected, memo_enabled


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
        ("f(12)+1", (), 14, 13, 140, 140),
        ("f(0)+f(16)*2", (1, 0), 18, 32767, 173, 173),
        ("f(f(0))", (), 4, 0, 2, 2),
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
    assert ghs_witness(y, constant_point(0, name="zeros"), session) == 6
    assert _work(session) == (1613, 1613)


@pytest.mark.parametrize(
    "name, m0, point, work",
    [
        ("flag-gamma", 3, 1, (247, 247)),
        ("flag-gamma", 5, 1, (1615, 1615)),
        ("proj2", 3, 2, (170, 170)),
        ("sum01", 3, 1, (123, 123)),
        ("nest", 3, 0, (137, 137)),
    ],
)
def test_uniform_depth_work_counts_are_frozen(name, m0, point, work):
    # The cases of test_uniform_depth_frozen_values: each candidate's
    # stable value and each (candidate, depth) comparison costs its nodes
    # once, and no depth below the window is ever compared.
    session = make_session(fuel_steps=2_000_000, window=6)
    ghs_witness(functional_fixture(name, m0=m0), constant_point(point), session)
    assert _work(session) == work


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


def test_levels_above_a_floor_are_free():
    # f(12)+1 at depth 13 forces the chain (), (12), (12, 11), .., whose
    # last node is a block reading the zero at its own length: all 13 nodes
    # are free with floor 13 and serve every kind at every depth above.
    # At depth 12 the last node is a leaf, so the chain is forced again.
    y = expr_functional("f(12)+1")
    session = make_session()
    assert h_eval(y, EMPTY, 13, session) == 13
    assert _work(session) == (13, 13)
    for n in range(14, 41):
        for approx in (h_eval, h_hat_eval, g_eval):
            assert approx(y, EMPTY, n, session) == 13
    assert _work(session) == (13, 13)
    assert h_eval(y, EMPTY, 12, session) == 13
    assert _work(session) == (26, 26)


@pytest.mark.parametrize(
    "expr, start, window, evaluate, reads, fuel",
    [
        ("f(12)+1", (), 14, stabilize, 28, 115),
        ("f(12)+1", (), 1_000_000, stabilize, 28, 115),
        ("f(12)+1", (), 14, gamma_eval, 208, 140),
        ("f(0)+f(16)*2", (1, 0), 18, stabilize, 34, 148),
        ("f(0)+f(16)*2", (1, 0), 18, gamma_eval, 272, 173),
    ],
)
def test_stabilize_reads_no_level_above_a_floor(
    monkeypatch, expr, start, window, evaluate, reads, fuel
):
    # Every depth above a start's floor reads one entry, so the search ends
    # there, however wide the window. The reads it skips were memo hits:
    # the fuel is what a scan of every depth up to N0+window spends. A
    # block's child reads go through _level too; only outermost calls,
    # the level reads, are counted.
    outermost = nesting = 0

    def counting(*args):
        nonlocal outermost, nesting
        outermost += nesting == 0
        nesting += 1
        try:
            return _level(*args)
        finally:
            nesting -= 1

    monkeypatch.setattr("gandyhyland.evaluator._level", counting)
    session = make_session(window=window)
    evaluate(expr_functional(expr), FinSeq(start), session)
    assert (outermost, session.fuel.budget - session.fuel.remaining) == (reads, fuel)


def test_session_serves_one_functional():
    session = make_session()
    h_eval(functional_fixture("sum01"), EMPTY, 0, session)
    with pytest.raises(InvariantViolation):
        h_eval(functional_fixture("nest"), EMPTY, 0, session)


def test_a_warm_memo_is_not_read_for_another_functional():
    # stabilize and ghs_witness read warm levels without entering h_eval or
    # g_eval; the session must still refuse a second functional before any read.
    y, other = functional_fixture("sum01"), functional_fixture("nest")
    session = make_session()
    stabilize(y, EMPTY, session)
    ghs_witness(y, constant_point(0), session)
    with pytest.raises(InvariantViolation):
        stabilize(other, EMPTY, session)
    with pytest.raises(InvariantViolation):
        ghs_witness(other, constant_point(0), session)


@pytest.mark.parametrize(
    "fuel, tlen, entries",
    [
        (100, 3, 228),  # counting stops at the first tail length past the fuel
        (1000, 4, 1252),
    ],
)
def test_ghs_refuses_candidate_tails_that_fuel_cannot_cover(fuel, tlen, entries):
    # Tails of length t hold t*(value_cap+1)^t entries; their sum is checked
    # against the fuel left before anything is listed or evaluated.
    session = make_session(fuel_steps=fuel)
    with pytest.raises(FuelExhausted) as exc:
        ghs_witness(
            functional_fixture("sum01"), constant_point(0), session, value_cap=3, tail_cap=4
        )
    assert str(exc.value) == (
        f"ghs_witness(f(0)+f(1)): candidate tails up to length {tlen} hold {entries} "
        f"entries, more than the {fuel} fuel steps left"
    )
    assert session.fuel.remaining == fuel


def test_trace_refuses_a_trajectory_longer_than_its_fuel_budget():
    # The trajectory's depth+window+1 rows are memo hits that spend no fuel,
    # so their count is held to the budget, not to the fuel left: here the
    # run spends 16 of 60 steps and 60 rows are still read.
    y = expr_functional("f(3)+1")
    witness = herbrand_trace(y, EMPTY, make_session(60, window=56))
    assert (witness.depth, len(witness.trajectory), witness.result) == (3, 60, 4)
    with pytest.raises(FuelExhausted) as exc:
        herbrand_trace(y, EMPTY, make_session(60, window=57))
    assert str(exc.value) == (
        "herbrand_trace(f(3)+1): the trajectory holds 61 rows, "
        "more than the fuel budget of 60 steps"
    )


@pytest.mark.parametrize("approx, kind", [(h_eval, "h"), (g_eval, "g")])
def test_a_block_meeting_a_non_natural_child_names_the_block(approx, kind):
    # The block at [2] reads its child at [2, 1], a leaf whose value is not
    # a natural; the child names itself, as every node does.
    y = Functional(apply=lambda p: p.value_at(2) - 1, name="dips")
    with pytest.raises(ValueError) as exc:
        approx(y, FinSeq((2,)), 2, make_session())
    assert str(exc.value) == f"{kind}-node [2, 1]@2 produced non-natural -1"


@pytest.mark.parametrize("approx, kind", [(h_eval, "h"), (h_hat_eval, "hhat"), (g_eval, "g")])
def test_a_non_natural_node_value_is_refused_and_not_kept(approx, kind):
    # The node asked for is a leaf here, read by no block point; its value
    # is checked before the memo takes it, so asking again raises again.
    y = Functional(apply=lambda p: p.value_at(0) - 3, name="dips")
    session = make_session()
    for _ in range(2):
        with pytest.raises(ValueError) as exc:
            approx(y, FinSeq((2, 1)), 2, session)
        assert str(exc.value) == f"{kind}-node [2, 1]@2 produced non-natural -1"
    assert session._values == {}


@pytest.mark.parametrize("approx, kind", [(h_eval, "h"), (h_hat_eval, "hhat"), (g_eval, "g")])
def test_a_node_that_runs_dry_names_its_kind_and_functional(approx, kind):
    # The first node spends the only step, and its first child runs dry.
    with pytest.raises(FuelExhausted) as exc:
        approx(expr_functional("f(1)+f(2)"), EMPTY, 3, make_session(fuel_steps=1))
    assert str(exc.value) == f"{kind}_eval(f(1)+f(2)): no steps left of 1"


@pytest.mark.parametrize("memo_enabled", [True, False])
def test_child_keeps_the_knobs_with_fresh_fuel_and_tables(memo_enabled):
    y = functional_fixture("sum01")
    session = make_session(window=3, nmax=20, memo_enabled=memo_enabled)
    gamma_eval(y, FinSeq((0, 2)), session)
    child = session.child()
    assert (child.window, child.nmax, child.memo_enabled) == (3, 20, memo_enabled)
    assert child.fuel is not session.fuel
    assert child.fuel.remaining == child.fuel.budget == session.fuel.budget
    # Nothing carried over: the child pays for the whole evaluation again,
    # and a second child takes another functional.
    gamma_eval(y, FinSeq((0, 2)), child)
    assert child.fuel.remaining == session.fuel.remaining
    gamma_eval(functional_fixture("nest"), EMPTY, session.child())


def test_stabilization_gives_up_at_the_depth_cap():
    with pytest.raises(StabilizationFailed):
        stabilize(functional_fixture("sum01"), EMPTY, make_session(nmax=0))


def test_evaluation_is_fuel_bounded():
    with pytest.raises(FuelExhausted):
        gamma_eval(functional_fixture("sum01"), EMPTY, make_session(fuel_steps=3))
