"""Depth-bounded evaluation of the Gandy-Hyland functional.

The object computed here, written gamma_eval, satisfies the fixed-point
equation

    value(Y, s) = Y( s * 0 * (n -> value(Y, s * <n+1>)) )

for a total continuous Y. Direct recursion on that equation never grounds
out, so everything goes through depth-bounded approximations:

* h_eval cuts off at depth M by truncating long sequences to their first
  M values and padding zeros (h_hat_eval is the same shape padding ones),
* g_eval cuts off by applying Y to the zero-padded sequence itself once
  the sequence is at least N long, with no truncation.

Depth-invariance is rendered as stabilization: the least N0 at which
g_eval stays constant across a window of consecutive depths. gamma_eval
returns the stable value and then checks the fixed-point equation at it.

Recursive occurrences inside an application are provided as lazily
evaluated points: Y only forces the child values it actually reads, which
keeps the work proportional to Y's continuity instead of the full
branching tree. Every forced node costs one fuel step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Callable

from .errors import (
    BoundExceeded,
    FuelExhausted,
    GhEquationViolated,
    InvariantViolation,
    IoError,
    OutOfTableQuery,
    StabilizationFailed,
)
from .fan import full_fan_modulus, pwc_bound
from .functionals import (
    Associate,
    Fuel,
    Functional,
    epsilon_flag,
    gamma_flag,
    indexed_value,
)
from .sequences import FinSeq, Point, concat, constant_point, decode, extend, pad, take

DEFAULT_SESSION_FUEL = 1_000_000

# (evaluator kind, sequence items, depth)
MemoKey = tuple[str, tuple[int, ...], int]


@dataclass
class EvalSession:
    """Shared state for one functional's evaluations.

    The memo maps (evaluator kind, sequence items, depth) to a value and
    is write-once. A leaf, where Y is applied to a padded sequence without
    recursion, is keyed by the point it evaluates, so leaves that evaluate
    the same point share one entry and one fuel step. Computed gamma
    values live in their own table together with the depth at which they
    stabilized. A session serves exactly one functional: mixing two would
    silently cross-contaminate the memo, so the first functional seen
    claims the session.

    bound, when set, caps every child value g_eval reads in this session
    at the position carrying it (BoundExceeded otherwise). Set it before
    the session's first evaluation and leave it: a memo entry is checked
    once, when it is written, under the bound in force then.
    """

    fuel: Fuel = field(default_factory=lambda: Fuel(DEFAULT_SESSION_FUEL))
    window: int = 4
    nmax: int = 64
    memo_enabled: bool = True
    bound: Point | None = None
    _values: dict[MemoKey, int] = field(default_factory=dict, repr=False)
    _gamma: dict[tuple[int, ...], tuple[int, int]] = field(default_factory=dict, repr=False)
    _gamma_checked: set[tuple[int, ...]] = field(default_factory=set, repr=False)
    _owner: Functional | None = field(default=None, repr=False)

    def child(self) -> EvalSession:
        """Same knobs, fresh fuel and fresh tables."""
        return EvalSession(
            fuel=Fuel(self.fuel.budget),
            window=self.window,
            nmax=self.nmax,
            memo_enabled=self.memo_enabled,
            bound=self.bound,
        )

    def claim(self, y: Functional) -> None:
        if self._owner is None:
            self._owner = y
        elif self._owner is not y:
            raise InvariantViolation(
                f"session already serves {self._owner.name}, refused {y.name}"
            )

    def memo_get(self, key: MemoKey) -> int | None:
        if not self.memo_enabled:
            return None
        return self._values.get(key)

    def memo_put(self, key: MemoKey, value: int) -> None:
        if not self.memo_enabled:
            return
        prev = self._values.setdefault(key, value)
        if prev != value:
            raise InvariantViolation(f"memo overwrite at {key}: {prev} then {value}")

    def gamma_depth(self, s: FinSeq) -> int:
        return self._gamma[s.items][0]


def make_session(
    fuel_steps: int = DEFAULT_SESSION_FUEL,
    window: int = 4,
    nmax: int = 64,
    memo_enabled: bool = True,
) -> EvalSession:
    return EvalSession(
        fuel=Fuel(fuel_steps), window=window, nmax=nmax, memo_enabled=memo_enabled
    )


def _depth_eval(
    y: Functional,
    s: FinSeq,
    m: int,
    session: EvalSession,
    kind: str,
    pad_value: int,
) -> int:
    """Shared body of the truncating approximations.

    Below the cutoff the argument point starts with s, then a zero, then
    positions s+1 .. s+m carry the values at the one-step extensions of s,
    computed on demand; beyond that the point is constantly pad_value. At
    or past the cutoff the sequence is truncated to its first m values and
    padded with pad_value; that leaf is keyed by those first m values, so
    every sequence sharing them hits one memo entry.
    """
    session.claim(y)
    key = (kind, s.items[:m], m)
    cached = session.memo_get(key)
    if cached is not None:
        return cached
    session.fuel.spend(f"{kind}_eval({y.name})")
    if len(s) >= m:
        value = y.apply(pad(take(s, m), pad_value))
    else:
        items = s.items
        k = len(items)

        def gen(i: int) -> int:
            if i < k:
                return items[i]
            if i == k:
                return 0
            j = i - k
            if j <= m:
                return _depth_eval(y, extend(s, j), m, session, kind, pad_value)
            return pad_value

        value = y.apply(Point(gen, name=f"{kind}-block {list(items)}@{m}"))
    session.memo_put(key, value)
    return value


def h_eval(y: Functional, s: FinSeq, m: int, session: EvalSession) -> int:
    """Zero-padded depth-M approximation."""
    return _depth_eval(y, s, m, session, "h", 0)


def h_hat_eval(y: Functional, s: FinSeq, m: int, session: EvalSession) -> int:
    """One-padded depth-M approximation; pads ones in both cases."""
    return _depth_eval(y, s, m, session, "hhat", 1)


def g_eval(y: Functional, s: FinSeq, n: int, session: EvalSession) -> int:
    """Non-truncating depth-N approximation.

    Sequences of length at least N are evaluated at their zero-padding
    unchanged, whatever N is, so that leaf is keyed at depth len(s);
    shorter ones get the lazily-extended block with unbounded child
    indices. When the session has a bound, every child value is checked
    against the bound at the position carrying it, on every read path,
    and BoundExceeded is raised on a violation; a memo entry is written
    only after its own reads passed, so a hit needs no second check.
    """
    session.claim(y)
    n = max(n, len(s))
    key = ("g", s.items, n)
    cached = session.memo_get(key)
    if cached is not None:
        return cached
    session.fuel.spend(f"g_eval({y.name})")
    if len(s) >= n:
        value = y.apply(pad(s, 0))
    else:
        items = s.items
        k = len(items)
        bound = session.bound

        def gen(i: int) -> int:
            if i < k:
                return items[i]
            if i == k:
                return 0
            child = g_eval(y, extend(s, i - k), n, session)
            if bound is not None and child > bound.value_at(i):
                raise BoundExceeded(
                    f"child value {child} at position {i} exceeds bound "
                    f"{bound.value_at(i)} (sequence {list(items)}, depth {n})"
                )
            return child

        value = y.apply(Point(gen, name=f"g-block {list(items)}@{n}"))
    session.memo_put(key, value)
    return value


def stabilize(y: Functional, s: FinSeq, session: EvalSession) -> tuple[int, int]:
    """Least depth N0 <= nmax at which both approximations settle.

    Returns (N0, value) with h_eval(Y,s,N) = g_eval(Y,s,N) = value for
    every N in [N0, N0+window]. Depth-invariance holds for the truncating
    and the non-truncating approximation alike, so the witness depth is
    required to work for both; the truncating one typically needs a few
    extra levels to stop cutting into s.
    """
    run_start = 0
    last: int | None = None
    for n in range(session.nmax + session.window + 1):
        gv = g_eval(y, s, n, session)
        hv = h_eval(y, s, n, session)
        if hv != gv:
            run_start = n + 1
            last = None
            continue
        if last is not None and gv != last:
            run_start = n
        last = gv
        if n - run_start >= session.window:
            return run_start, gv
    raise StabilizationFailed(
        f"no stable window of width {session.window + 1} below depth {session.nmax} "
        f"for {y.name} at {list(s.items)}"
    )


def gh_check(gamma: Callable[[FinSeq], int], y: Functional, s: FinSeq) -> bool:
    """Does gamma satisfy the defining equation at s?

    The right side applies y to the point that starts with s, then 0, then
    carries gamma at the one-step extensions of s. Continuity of y grounds
    the recursion when gamma is gamma_eval itself.
    """
    lhs = gamma(s)
    items = s.items
    k = len(items)

    def gen(i: int) -> int:
        if i < k:
            return items[i]
        if i == k:
            return 0
        return gamma(extend(s, i - k))

    rhs = y.apply(Point(gen, name=f"gh-block {list(items)}"))
    return lhs == rhs


def gamma_eval(y: Functional, s: FinSeq, session: EvalSession) -> int:
    """Stable value at s, verified against the defining equation.

    Stabilizes g_eval, then checks the fixed-point equation with the
    computed values standing in for the recursive occurrences; the check
    recurses through the children it reads, each verified once per
    session. Raises GhEquationViolated if the equation fails.
    """
    session.claim(y)
    entry = session._gamma.get(s.items)
    if entry is None:
        entry = stabilize(y, s, session)
        session._gamma[s.items] = entry
    if s.items not in session._gamma_checked:
        session._gamma_checked.add(s.items)
        if not gh_check(lambda t: gamma_eval(y, t, session), y, s):
            raise GhEquationViolated(
                f"{y.name} at {list(s.items)}: stable value {entry[1]} fails the equation"
            )
    return entry[1]


# Bounded verification that one depth works uniformly near a point.

def _ghs_candidates(
    alpha: Point, m: int, value_cap: int, tail_cap: int
) -> list[FinSeq]:
    """Sequences whose zero-padding agrees with alpha on the first m values.

    Exactly the prefixes of alpha (where the dropped part of alpha is zero)
    and the length-m prefix extended by every short tail; the tail length
    is capped, all entries are capped.
    """
    out: list[FinSeq] = []
    for j in range(m + 1):
        if all(alpha.value_at(i) == 0 for i in range(j, m)):
            out.append(take(alpha, j))
    prefix = take(alpha, m)
    for tlen in range(1, tail_cap + 1):
        for tail in product(range(value_cap + 1), repeat=tlen):
            out.append(concat(prefix, FinSeq(tail)))
    seen: set[tuple[int, ...]] = set()
    kept: list[FinSeq] = []
    for s in out:
        if any(x > value_cap for x in s.items):
            continue
        if s.items in seen:
            continue
        seen.add(s.items)
        kept.append(s)
    return kept


def ghs_witness(
    y: Functional,
    alpha: Point,
    session: EvalSession,
    value_cap: int = 3,
    tail_cap: int = 2,
) -> int:
    """Least K such that, across the whole window above K, the truncating
    approximation already equals the stable value on every candidate
    sequence compatible with alpha's first values.

    Candidates are bounded (entry cap, tail cap); StabilizationFailed if
    no K at or below nmax passes.
    """
    candidates: dict[int, list[FinSeq]] = {}
    for k0 in range(session.nmax + 1):
        ok = True
        for m in range(k0, k0 + session.window + 1):
            if m not in candidates:
                candidates[m] = _ghs_candidates(alpha, m, value_cap, tail_cap)
            for s in candidates[m]:
                gv = gamma_eval(y, s, session)
                if any(
                    h_eval(y, s, n, session) != gv
                    for n in range(k0, k0 + session.window + 1)
                ):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return k0
    raise StabilizationFailed(
        f"no uniform depth below {session.nmax} for {y.name} near {alpha.name}"
    )


def modulus_from_ghs(
    y: Functional,
    f: Point,
    session: EvalSession,
    value_cap: int = 3,
    tail_cap: int = 2,
) -> int:
    """The uniform depth witness doubles as a modulus of continuity at f."""
    return ghs_witness(y, f, session, value_cap=value_cap, tail_cap=tail_cap)


# Herbrand-style tracing: record every oracle answer a run consumed, then
# replay the run against the record alone.

@dataclass
class HerbrandWitness:
    """Finite record of one gamma_eval run.

    probes maps a group name (apply, modulus, theta) to the list of
    (consumed prefix, answer) pairs in first-seen order; depth and result
    are the stabilization depth and stable value of the traced run;
    trajectory holds (depth, truncating value, non-truncating value) for
    every depth the stabilization search visited. The trajectory matters
    for tamper detection: an answer consumed only below the settling depth
    leaves depth and result alone but shows up as a changed entry here.
    """

    probes: dict[str, list[tuple[tuple[int, ...], int]]]
    depth: int
    result: int
    trajectory: list[tuple[int, int, int]]

    def as_dict(self) -> dict:
        return {
            "probes": {
                group: [[list(prefix), answer] for prefix, answer in entries]
                for group, entries in self.probes.items()
            },
            "depth": self.depth,
            "result": self.result,
            "trajectory": [list(step) for step in self.trajectory],
        }

    @staticmethod
    def from_dict(d: object) -> "HerbrandWitness":
        """Inverse of as_dict; IoError if d does not have its shape."""
        if not isinstance(d, dict) or not isinstance(d.get("probes"), dict):
            raise IoError("malformed witness: expected an object whose probes map groups to rows")
        for group, entries in d["probes"].items():
            if not isinstance(entries, list) or not all(
                isinstance(row, list)
                and len(row) == 2
                and isinstance(row[0], list)
                and all(map(_is_natural, row[0]))
                and _is_natural(row[1])
                for row in entries
            ):
                raise IoError(
                    f"malformed witness: probes.{group} rows must be "
                    "[list of naturals, natural]"
                )
        for name in ("depth", "result"):
            if not _is_natural(d.get(name)):
                raise IoError(f"malformed witness: {name} must be a natural")
        trajectory = d.get("trajectory")
        if not isinstance(trajectory, list) or not all(
            isinstance(step, list) and len(step) == 3 and all(map(_is_natural, step))
            for step in trajectory
        ):
            raise IoError("malformed witness: trajectory rows must be three naturals")
        return HerbrandWitness(
            probes={
                group: [(tuple(prefix), answer) for prefix, answer in entries]
                for group, entries in d["probes"].items()
            },
            depth=d["depth"],
            result=d["result"],
            trajectory=[tuple(step) for step in trajectory],
        )


def _is_natural(x: object) -> bool:
    return type(x) is int and x >= 0


class _Recorder:
    """Wraps a functional's operations to log consumed prefixes.

    The recorded prefix of a call is everything up to the deepest position
    the operation read; snapshotting it forces any skipped positions in
    between, which keeps trace and replay forcing the same child values.
    Repeated prefixes must repeat their answer (the operations are
    deterministic) and are stored once.
    """

    def __init__(self) -> None:
        self.tables: dict[str, dict[tuple[int, ...], int]] = {
            "apply": {},
            "modulus": {},
            "theta": {},
        }

    def wrap(self, group: str, inner: Callable[[Point], int]) -> Callable[[Point], int]:
        table = self.tables[group]

        def wrapped(point: Point) -> int:
            deepest = {"i": -1}

            def gen(i: int) -> int:
                if i > deepest["i"]:
                    deepest["i"] = i
                return point.value_at(i)

            answer = inner(Point(gen, name=f"traced {point.name}"))
            prefix = tuple(point.value_at(i) for i in range(deepest["i"] + 1))
            prev = table.setdefault(prefix, answer)
            if prev != answer:
                raise InvariantViolation(
                    f"{group} answered {prev} then {answer} on equal prefix {prefix}"
                )
            return answer

        return wrapped

    def witness_tables(self) -> dict[str, list[tuple[tuple[int, ...], int]]]:
        return {group: list(table.items()) for group, table in self.tables.items()}


def herbrand_trace(y: Functional, s: FinSeq, session: EvalSession) -> HerbrandWitness:
    """Run gamma_eval at s on a fresh session, recording every oracle call."""
    recorder = _Recorder()
    wrapped = Functional(
        apply=recorder.wrap("apply", y.apply),
        modulus=recorder.wrap("modulus", y.modulus) if y.modulus is not None else None,
        name=f"traced {y.name}",
    )
    fresh = session.child()
    result = gamma_eval(wrapped, s, fresh)
    depth = fresh.gamma_depth(s)
    # Memo hits only: the stabilization search already visited every depth
    # in this range, so reading the values back consumes no new probes.
    trajectory = [
        (n, h_eval(wrapped, s, n, fresh), g_eval(wrapped, s, n, fresh))
        for n in range(depth + fresh.window + 1)
    ]
    return HerbrandWitness(
        probes=recorder.witness_tables(),
        depth=depth,
        result=result,
        trajectory=trajectory,
    )


def _stub_operation(
    entries: list[tuple[tuple[int, ...], int]], group: str
) -> Callable[[Point], int]:
    """Answer by longest recorded prefix matching the argument point.

    The entries are built once into a prefix trie: a node is [answer,
    children], where answer is the last recorded answer for the prefix
    spelled by the path to it (None if that prefix was not recorded) and
    children maps the next value to the next node. A lookup walks the trie
    along the point, remembering the deepest answer it has passed, and
    reads position i only while the node at depth i has children, that is,
    while some strictly longer recorded prefix still agrees with the point.
    A run that mirrors the traced one therefore forces exactly the
    positions the trace forced. A point matching no recorded prefix raises
    OutOfTableQuery.
    """
    root: list = [None, {}]
    for prefix, answer in entries:
        node = root
        for v in prefix:
            node = node[1].setdefault(v, [None, {}])
        node[0] = answer

    def lookup(point: Point) -> int:
        best, children = root
        i = 0
        while children:
            node = children.get(point.value_at(i))
            if node is None:
                break
            if node[0] is not None:
                best = node[0]
            children = node[1]
            i += 1
        if best is None:
            raise OutOfTableQuery(f"no recorded {group} answer matches the argument")
        return best

    return lookup


def replay_check(w: HerbrandWitness, s: FinSeq, session: EvalSession) -> bool:
    """Re-run gamma_eval at s with the witness standing in for Y.

    True iff the replayed run reproduces the recorded stable value, the
    recorded stabilization depth, and the whole per-depth trajectory. A
    witness whose answers were tampered with changes one of those, trips
    the equation check (reported as False), or runs off its own table
    (OutOfTableQuery propagates).
    """
    apply_entries = w.probes.get("apply", [])
    modulus_entries = w.probes.get("modulus", [])
    stub = Functional(
        apply=_stub_operation(apply_entries, "apply"),
        modulus=_stub_operation(modulus_entries, "modulus") if modulus_entries else None,
        name="replay stub",
    )
    fresh = session.child()
    try:
        result = gamma_eval(stub, s, fresh)
    except (GhEquationViolated, StabilizationFailed):
        return False
    if result != w.result or fresh.gamma_depth(s) != w.depth:
        return False
    replayed = [
        (n, h_eval(stub, s, n, fresh), g_eval(stub, s, n, fresh))
        for n in range(len(w.trajectory))
    ]
    return replayed == w.trajectory


# Search operators derived from one another.

def _zero_indicator(f: Point) -> Point:
    return Point(lambda n: 1 if f.value_at(n) == 0 else 0, name=f"zeros of {f.name}")


def mu_from_modulus(
    psi: Callable[[Associate, Point, Fuel], int], f: Point, fuel: Fuel
) -> int:
    """Least zero of f recovered from a modulus operator.

    The flag associate of f's zero indicator first decides at prefix
    length (least zero)+1, so the modulus at the all-zero point brackets
    the answer. Zero-free f leaves the flag undecided everywhere and the
    modulus search runs out of fuel.
    """
    gamma = gamma_flag(_zero_indicator(f))
    k = psi(gamma, constant_point(0), fuel)
    for n in range(k):
        if f.value_at(n) == 0:
            return n
    return 0


def modulus_from_mu(
    mu_op: Callable[[Point, Fuel], int], gamma: Associate, f: Point, fuel: Fuel
) -> int:
    """Modulus of an associate along a point, recovered from a search
    operator: the least prefix length whose query decides."""
    indicator = Point(
        lambda k: 0 if gamma.query(take(f, k)) > 0 else 1,
        name=f"decided({gamma.name})",
    )
    return mu_op(indicator, fuel)


def ext_witness(
    a: Point | Associate, b: Point | Associate, fuel: Fuel
) -> int:
    """One past the first index where a and b differ, 0 if none found.

    Points are compared position by position, associates query by query in
    code order. The scan is fuel-bounded and running dry counts as "no
    difference found", so this never raises.
    """
    i = 0
    while fuel.try_spend():
        if indexed_value(a, i) != indexed_value(b, i):
            return i + 1
        i += 1
    return 0


def mu_from_gh_ext(
    gamma: Callable[[Associate], int],
    xi: Callable[[Associate, Associate, Fuel], int],
    f: Point,
    fuel: Fuel,
) -> int:
    """Least zero of f recovered from gamma evaluation plus extensionality.

    Two flag associates of f's zero indicator, differing only in their
    decision offset, agree exactly on undecided prefixes. An
    extensionality witness for them brackets the first decided prefix,
    hence the first zero. The witness is audited: if no query below it
    differs, the two gamma values must agree (a fuel-undefined side counts
    as agreement); a defined disagreement means the witness lied, which is
    an invariant violation.
    """
    indicator = _zero_indicator(f)
    low = gamma_flag(indicator)
    high = epsilon_flag(indicator)
    k = xi(low, high, fuel)
    if not any(low.query(decode(c)) != high.query(decode(c)) for c in range(k)):
        try:
            va = gamma(low)
        except FuelExhausted:
            va = None
        try:
            vb = gamma(high)
        except FuelExhausted:
            vb = None
        if va is not None and vb is not None and va != vb:
            raise InvariantViolation(
                "extensionality witness found no difference, yet the gamma "
                f"values differ ({va} vs {vb})"
            )
    scan = max((len(decode(c)) for c in range(k)), default=0)
    for n in range(scan):
        if f.value_at(n) == 0:
            return n
    return 0


def certified_depth_bounded(
    y: Functional, s: FinSeq, h: Point, session: EvalSession
) -> int:
    """Depth certificate for evaluating at s under the value bound h.

    The certificate is len(s) plus the uniform modulus of y over points
    bounded by h', where h' lifts h by the pointwise bound at s's
    zero-padding. It is then verified: g_eval runs over the whole window
    above the certificate with every recursive value checked against h'
    at its position (BoundExceeded on violation), and the window must be
    constant (InvariantViolation otherwise; with honest bounds it cannot
    happen).
    """
    w = pwc_bound(y, pad(s, 0), h, session.fuel)
    lifted = Point(lambda i: max(h.value_at(i), w), name=f"lifted {h.name}")
    n_cert = len(s) + full_fan_modulus(y, lifted, session.fuel)
    check = session.child()
    check.bound = lifted
    values = [g_eval(y, s, n, check) for n in range(n_cert, n_cert + session.window + 1)]
    if any(v != values[0] for v in values):
        raise InvariantViolation(
            f"certified depth {n_cert} for {y.name} at {list(s.items)} is not stable"
        )
    return n_cert
