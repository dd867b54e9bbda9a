"""Self-contained correctness checks, runnable from the CLI or pytest.

Each check returns a CheckResult rather than asserting, so the CLI can
report every property and the acceptance tests can print one line per
check. Expected values that have an independent derivation live in the
test suite's oracle module; here the checks recompute everything from
the public API.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterator

from ..errors import FuelExhausted, OutOfTableQuery
from ..evaluator import (
    HerbrandWitness,
    certified_depth_bounded,
    ext_witness,
    g_eval,
    gamma_eval,
    gh_check,
    h_eval,
    h_hat_eval,
    herbrand_trace,
    make_session,
    modulus_from_ghs,
    modulus_from_mu,
    mu_from_gh_ext,
    mu_from_modulus,
    replay_check,
    stabilize,
)
from ..fan import enumerate_trees, fan_modulus, scf_check, special_fan
from ..functionals import (
    Fuel,
    associate_apply,
    check_neighbourhood,
    functional_from_associate,
    modulus_from_associate,
    mu,
)
from ..sequences import EMPTY, FinSeq, code, constant_point, decode, pad
from .fixtures import (
    beta_point,
    catalog_associates,
    catalog_fan_functionals,
    catalog_functionals,
    crafted_mu_points,
    flag_associate,
    functional_fixture,
    sample_points,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


ALL_CHECKS: list[Callable[[], CheckResult]] = []


def _check(name: str, passing_detail: str):
    """Register a check body in ALL_CHECKS, in definition order.

    The body yields the problems it finds. The registered function runs it
    to the end under a timer and returns a CheckResult that passes when
    there are none, with passing_detail as its detail, and otherwise the
    first four problems.
    """

    def register(body: Callable[[], Iterator[str]]) -> Callable[[], CheckResult]:
        @functools.wraps(body)
        def check() -> CheckResult:
            start = time.perf_counter()
            problems = list(body())
            return CheckResult(
                name=name,
                passed=not problems,
                detail="; ".join(problems[:4]) or passing_detail,
                seconds=time.perf_counter() - start,
            )

        ALL_CHECKS.append(check)
        return check

    return register


def _grid(max_len: int = 3, width: int = 3) -> list[FinSeq]:
    out = [FinSeq(())]
    for length in range(1, max_len + 1):
        out.extend(FinSeq(items) for items in product(range(width), repeat=length))
    return out


@_check(
    "golden-values",
    "empty-start value 0, one-padded depth m0-2 value 1, associate 0 and m0 at the beta points",
)
def check_golden_values() -> Iterator[str]:
    """Flag functional landmarks at thresholds 3, 4, 5."""
    for m0 in (3, 4, 5):
        y = functional_fixture("flag-gamma", m0=m0)
        session = make_session()
        got = gamma_eval(y, EMPTY, session)
        if got != 0:
            yield f"m0={m0}: empty-start value {got}, wanted 0"
        hat = h_hat_eval(y, EMPTY, m0 - 2, make_session())
        if hat != 1:
            yield f"m0={m0}: one-padded eval at depth {m0 - 2} gave {hat}, wanted 1"
        assoc = flag_associate("flag-gamma", m0)
        at_zero = associate_apply(assoc, beta_point(0), Fuel(50_000))
        at_m0 = associate_apply(assoc, beta_point(m0), Fuel(50_000))
        if at_zero != 0:
            yield f"m0={m0}: associate at beta(0) gave {at_zero}, wanted 0"
        if at_m0 != m0:
            yield f"m0={m0}: associate at beta({m0}) gave {at_m0}, wanted {m0}"


@_check(
    "gh-fixed-point",
    "6 functionals x 40 starts: both limits settle by 32, agree over the window, equation holds",
)
def check_gh_fixed_point() -> Iterator[str]:
    """Depth limits agree across a window and satisfy the defining equation."""
    grid = _grid()
    for y in catalog_functionals():
        session = make_session()
        for s in grid:
            n0, value = stabilize(y, s, session)
            if n0 > 32:
                yield f"{y.name} at {s}: settled only at {n0}"
                continue
            for n in range(n0, n0 + session.window + 1):
                hv = h_eval(y, s, n, session)
                gv = g_eval(y, s, n, session)
                if hv != value or gv != value:
                    yield f"{y.name} at {s}: depth {n} gave {hv}/{gv}, not {value}"
            final = gamma_eval(y, s, session)
            if final != value:
                yield f"{y.name} at {s}: checked value {final} != window value {value}"
            if not gh_check(lambda t: gamma_eval(y, t, session), y, s):
                yield f"{y.name} at {s}: defining equation fails"


@_check(
    "scf-exhaustive",
    "677 trees of height <= 3 x 4 functionals, covering check passes everywhere",
)
def check_scf() -> Iterator[str]:
    """Covering data from special_fan survives every small tree."""
    counts = [len(enumerate_trees(d)) for d in range(4)]
    expected = [2]
    for _ in range(3):
        expected.append(1 + expected[-1] ** 2)
    if counts != expected:
        yield f"tree counts {counts}, recurrence wants {expected}"
    trees = enumerate_trees(3)
    omega = lambda fn: fan_modulus(fn, Fuel(500_000))
    for g in catalog_fan_functionals():
        theta = special_fan(omega, g)
        for tree in trees:
            if not scf_check(theta, g, tree, depth=16):
                yield f"{g.name} vs {tree.name}"
                break


@_check("fan-soundness", "binary prefixes at the bound pin each value, one shorter never does")
def check_fan_soundness() -> Iterator[str]:
    """fan_modulus bounds are exact: sound at N, refutable at N-1."""
    for y in catalog_functionals():
        n = fan_modulus(y, Fuel(500_000))

        def spread(prefix_len: int) -> bool:
            # True when some shared prefix of that length still allows
            # two different outputs within the next three positions.
            for bits in product((0, 1), repeat=prefix_len):
                seen = {
                    y.apply(pad(FinSeq(bits + tail), 0))
                    for tail in product((0, 1), repeat=3)
                }
                if len(seen) > 1:
                    return True
            return False

        if spread(n):
            yield f"{y.name}: prefixes of length {n} do not pin the value"
        if n > 0 and not spread(n - 1):
            yield f"{y.name}: length {n - 1} already pins the value, bound not least"


@_check(
    "mu-round-trips",
    "50 crafted points: both routes match the linear scan; zero-free input exhausts fuel",
)
def check_mu_round_trips() -> Iterator[str]:
    """Both derived searches find the true least zero; fuel runs dry on zero-free input."""

    def gamma_closure(assoc):
        # Small per-apply budget: on a deciding associate the scan stops
        # within a couple dozen steps, and on an undecided one we want the
        # failure promptly.
        fn = functional_from_associate(assoc, 2_000)
        return gamma_eval(fn, EMPTY, make_session(fuel_steps=500_000))

    for point, z in crafted_mu_points():
        oracle = next(n for n in range(200) if point.value_at(n) == 0)
        if oracle != z:
            yield f"{point.name}: fixture says {z}, scan says {oracle}"
            continue
        via_modulus = mu_from_modulus(modulus_from_associate, point, Fuel(200_000))
        if via_modulus != oracle:
            yield f"{point.name}: modulus route gave {via_modulus}, wanted {oracle}"
        via_ext = mu_from_gh_ext(gamma_closure, ext_witness, point, Fuel(200_000))
        if via_ext != oracle:
            yield f"{point.name}: witness route gave {via_ext}, wanted {oracle}"
    ones = constant_point(1, name="ones")
    try:
        mu_from_modulus(modulus_from_associate, ones, Fuel(300))
        yield "modulus route terminated on a zero-free point"
    except FuelExhausted:
        pass
    if mu_from_gh_ext(gamma_closure, ext_witness, ones, Fuel(300)) != 0:
        yield "witness route did not fall back to 0 on a zero-free point"


def _mutated(witness, group: str, index: int) -> HerbrandWitness:
    probes = {name: list(entries) for name, entries in witness.probes.items()}
    prefix, answer = probes[group][index]
    probes[group][index] = (prefix, answer + 1)
    return HerbrandWitness(
        probes=probes,
        depth=witness.depth,
        result=witness.result,
        trajectory=list(witness.trajectory),
    )


@_check(
    "herbrand-replay",
    "18 traces replay clean; every single-answer corruption is detected; spare rows are ignored",
)
def check_herbrand_replay() -> Iterator[str]:
    """Faithful traces replay; any single corrupted answer is caught."""
    starts = [EMPTY, FinSeq((1,)), FinSeq((0, 2))]
    traces = []
    for y in catalog_functionals():
        for s in starts:
            witness = herbrand_trace(y, s, make_session())
            if not replay_check(witness, s, make_session()):
                yield f"{y.name} at {s}: clean replay fails"
                continue
            traces.append((witness, s, y.name))
    for witness, s, name in traces:
        for group, entries in witness.probes.items():
            for index in range(len(entries)):
                bad = _mutated(witness, group, index)
                try:
                    clean = replay_check(bad, s, make_session())
                except (OutOfTableQuery, FuelExhausted):
                    clean = False
                if clean:
                    yield f"{name} at {s}: {group}[{index}] mutation slipped through"
    if traces:
        witness, s, _ = traces[0]
        padded = {k: list(v) for k, v in witness.probes.items()}
        padded["apply"] = padded["apply"] + [((9, 9, 9, 9, 9, 9, 9, 9, 9, 9), 42)]
        extra = HerbrandWitness(
            probes=padded,
            depth=witness.depth,
            result=witness.result,
            trajectory=list(witness.trajectory),
        )
        if not replay_check(extra, s, make_session()):
            yield "an unused extra table row broke replay"


@_check(
    "cross-coherence",
    "11 associates x 10 points: three modulus routes agree; certified depth dominates observed",
)
def check_cross_coherence() -> Iterator[str]:
    """Three modulus constructions agree; certified bounds dominate observed ones."""
    points = sample_points()
    for assoc in catalog_associates():
        y = functional_from_associate(assoc, 100_000)
        # A flag functional reads up to position m0; at starts shorter than
        # that, the first m0+1 depths agree on a padded value that the true
        # limit leaves behind. The window must outlast that false run.
        session = make_session(fuel_steps=2_000_000, window=6)
        for f in points:
            via_ghs = modulus_from_ghs(y, f, session)
            via_assoc = modulus_from_associate(assoc, f, Fuel(200_000))
            try:
                via_mu = modulus_from_mu(mu, assoc, f, Fuel(200_000))
            except FuelExhausted:
                yield f"{assoc.name} at {f.name}: mu route ran out of fuel"
                continue
            if not (via_ghs == via_assoc == via_mu):
                yield (
                    f"{assoc.name} at {f.name}: ghs {via_ghs}, associate {via_assoc}, mu {via_mu}"
                )
    h2 = constant_point(2, name="h2")
    for y in catalog_functionals():
        session = make_session(fuel_steps=2_000_000)
        for s in _grid(max_len=2):
            n0, _ = stabilize(y, s, session)
            n_cert = certified_depth_bounded(y, s, h2, session)
            if n_cert < n0:
                yield f"{y.name} at {s}: certified {n_cert} below observed {n0}"


@_check(
    "foundation-laws",
    "neighbourhood law exhaustive to depth 5; codes below 10^4 bijective; memoisation invisible",
)
def check_foundation_laws() -> Iterator[str]:
    """Neighbourhood law, coding bijectivity, memo transparency."""
    for assoc in catalog_associates():
        if not check_neighbourhood(assoc, depth=5, width=3):
            yield f"{assoc.name}: decided value not inherited by extensions"
    for n in range(10_000):
        if code(decode(n)) != n:
            yield f"coding: decode/code round trip breaks at {n}"
            break
    for s in _grid(max_len=4):
        if decode(code(s)) != s:
            yield f"coding: code/decode round trip breaks at {s}"
            break
    grid = _grid()
    for name in ("const2", "proj0", "proj2", "sum01", "nest", "flag-gamma"):
        y = functional_fixture(name)
        with_memo = make_session(memo_enabled=True)
        without = make_session(memo_enabled=False, fuel_steps=5_000_000)
        for s in grid:
            a = stabilize(y, s, with_memo)
            b = stabilize(y, s, without)
            if a != b:
                yield f"{name} at {s}: memo changes stabilize {a} vs {b}"
                break
            if gamma_eval(y, s, with_memo) != gamma_eval(y, s, without):
                yield f"{name} at {s}: memo changes the checked value"
                break


def run_all() -> list[CheckResult]:
    return [fn() for fn in ALL_CHECKS]
