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

Depth-invariance is rendered as stabilization: the least N0 from which
h_eval and g_eval agree and stay constant across a window of consecutive
depths, a search that ends at the start's floor. gamma_eval returns the
stable value and then checks the fixed-point equation at it.

Recursive occurrences inside an application are provided as lazily
evaluated points: Y only forces the child values it actually reads, which
keeps the work proportional to Y's continuity instead of the full
branching tree. Every forced node costs one fuel step.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import product
from typing import Callable

from .errors import (
    BoundExceeded,
    FuelExhausted,
    GhEquationViolated,
    InvariantViolation,
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
)
from .sequences import FinSeq, Point, _from_trusted_tuple, constant_point, decode, pad, take

DEFAULT_SESSION_FUEL = 1_000_000

# (key kind, sequence items, depth). _force says which key kind a node is
# written under: "hg", "hhat" or its evaluator kind.
MemoKey = tuple[str, tuple[int, ...], int]

# The key kind of a clean node (see _force): h and g answer every block read
# up to the depth alike, hhat pads ones.
_SHARED = {"h": "hg", "g": "hg", "hhat": "hhat"}


@dataclass
class EvalSession:
    """Shared state for one functional's evaluations.

    _values, the memo, maps a MemoKey to a node's value and is write-once.
    memo_put is its only writer, so with memo_enabled off it stays empty
    and every read misses. _floors maps the items of each free node (see
    _force) to its floor, the depth its one entry is keyed at; with
    memo_enabled off it stays empty too. _gamma holds computed gamma
    values together with the depth at which they stabilized, only while
    certified or being certified. _prefix maps each stabilized sequence s
    to its prefix levels, h at s for the depths 0 .. len(s) that stabilize
    has read, each the leaf at s's prefix of that length. It is filled
    only with memo_enabled on, where each of its reads stands in for a
    memo hit.

    A session serves exactly one functional: mixing two would silently
    cross-contaminate the memo, so the first functional seen claims the
    session. The claim also fixes _contexts, the fuel context of each kind
    of node, the text a FuelExhausted raised at that node names, so it is
    formatted once.

    _floor tells the node being forced, at depth d, what its subtree did
    (every node forced under one outermost read has that read's depth). A
    value at most d is a free floor: the node holds at every depth from
    there up, for every kind. d + 1 says it holds at d only, for h and g
    alike; d + 2 that it holds at d only, for its own kind. _level and
    _force raise it, and _force reads it.
    """

    fuel: Fuel = field(default_factory=lambda: Fuel(DEFAULT_SESSION_FUEL))
    window: int = 4
    nmax: int = 64
    memo_enabled: bool = True
    _values: dict[MemoKey, int] = field(default_factory=dict, init=False, repr=False)
    _gamma: dict[tuple[int, ...], tuple[int, int]] = field(
        default_factory=dict, init=False, repr=False
    )
    _owner: Functional | None = field(default=None, init=False, repr=False)
    _contexts: dict[str, str] = field(default_factory=dict, init=False, repr=False)
    _floor: int = field(default=0, init=False, repr=False)
    _floors: dict[tuple[int, ...], int] = field(default_factory=dict, init=False, repr=False)
    _prefix: dict[tuple[int, ...], list[int]] = field(
        default_factory=dict, init=False, repr=False
    )

    def child(self) -> EvalSession:
        """Same knobs, fresh fuel and fresh tables."""
        return replace(self, fuel=Fuel(self.fuel.budget))

    def claim(self, y: Functional) -> None:
        if self._owner is not y:
            if self._owner is not None:
                raise InvariantViolation(
                    f"session already serves {self._owner.name}, refused {y.name}"
                )
            self._owner = y
            self._contexts = {kind: f"{kind}_eval({y.name})" for kind in ("h", "hhat", "g")}

    # No caller in the package: kept only while perfbench/tracer.py patches it.
    def memo_get(self, key: MemoKey) -> int | None:
        return self._values.get(key)

    def memo_put(self, key: MemoKey, value: int) -> None:
        if not self.memo_enabled:
            return
        prev = self._values.setdefault(key, value)
        if prev != value:
            raise InvariantViolation(f"memo overwrite at {key}: {prev} then {value}")

    def gamma_depth(self, s: FinSeq) -> int:
        return self._gamma[s.items][0]


def make_session(fuel_steps: int = DEFAULT_SESSION_FUEL, **knobs) -> EvalSession:
    """A session with fuel_steps of fresh fuel. The keyword knobs (window,
    nmax, memo_enabled) go to EvalSession; any left out keeps the
    default its field declares."""
    return EvalSession(fuel=Fuel(fuel_steps), **knobs)


def _level(
    y: Functional, items: tuple[int, ...], n: int, session: EvalSession, kind: str
) -> int:
    """Value of the kind approximation at items and depth n, read from the
    memo at the floor of a free node if n is at or above it, else under
    the shared key kind, then under the kind's own, and forced only on a
    miss. The caller has claimed the session for y. Every level request
    and every child read of a block comes here.

    The truncating kinds (h pads zeros, hhat ones) keep the first n values:
    past the cutoff the leaf is Y at those values padded, so every sequence
    sharing them hits one entry. g never truncates: a sequence at least n
    long is evaluated at its own zero-padding whatever n is, so its depth
    rises to len(items).

    A hit raises session._floor to the entry's mark (see EvalSession): a
    floor hit to its floor, a shared-key hit to n + 1, an own-kind hit to
    n + 2. A miss leaves the bookkeeping to _force.
    """
    if kind == "g":
        n = max(n, len(items))
    else:
        items = items[:n]
    memo = session._values
    if (mark := session._floors.get(items, n + 1)) <= n:
        value = memo[("hg", items, mark)]
    elif (value := memo.get((_SHARED[kind], items, n))) is not None:
        mark = n + 1
    elif (value := memo.get((kind, items, n))) is not None:
        mark = n + 2
    else:
        return _force(y, items, n, session, kind)
    if mark > session._floor:
        session._floor = mark
    return value


def h_eval(y: Functional, s: FinSeq, m: int, session: EvalSession) -> int:
    """Zero-padded depth-M approximation."""
    session.claim(y)
    return _level(y, s.items, m, session, "h")


def h_hat_eval(y: Functional, s: FinSeq, m: int, session: EvalSession) -> int:
    """One-padded depth-M approximation; pads ones in both cases."""
    session.claim(y)
    return _level(y, s.items, m, session, "hhat")


def g_eval(y: Functional, s: FinSeq, n: int, session: EvalSession) -> int:
    """Non-truncating depth-N approximation.

    Sequences shorter than N get the lazily-extended block with unbounded
    child indices.
    """
    session.claim(y)
    return _level(y, s.items, n, session, "g")


def _force(
    y: Functional, items: tuple[int, ...], depth: int, session: EvalSession, kind: str
) -> int:
    """Value of the kind node at items and depth, which is not in the memo;
    items is at most depth long. It spends one fuel step under the kind's
    context, and its value must be a natural before it is written.

    At length depth the node is a leaf, Y at items padded with the kind's
    pad value (one for hhat, else zero). Shorter items get a block: items, a
    zero, then the child at items+(j,) at position len(items)+j for j = 1
    .. depth (for every j in g, which does not truncate), then the pad
    value. A child is read through _level.

    session._floor gathers the node's mark (see EvalSession). A leaf starts
    at len(items): Y read items alone, which the leaf and the block at
    items share at every depth. A block starts at len(items)+1, and each j
    it reads raises the mark to at least j: from there up it is still a
    block whose reads land on the same children. A leaf's pad read marks
    depth + 1, since past depth the node is a block; a block's read at
    j > depth marks depth + 2, the only place where h pads and g reads on.
    A node marked depth + 2 is written at its depth under its own kind, one
    marked depth + 1 under the shared key kind, so it serves h and g alike
    (an h and a g node that disagree there are a memo overwrite). Any other
    node is free: one value at every depth from its floor up, whatever its
    kind. It is written once, under ("hg", items, floor), and indexed in
    session._floors. Every node passes its mark on to its reader, where
    the largest mark wins.
    """
    session.fuel.spend(session._contexts[kind])
    k = len(items)
    pad_value = 1 if kind == "hhat" else 0
    outer = session._floor
    try:
        if k >= depth:
            session._floor = k

            def leaf(i: int) -> int:
                if i < k:
                    return items[i]
                session._floor = depth + 1
                return pad_value

            value = y.apply(Point(leaf, lambda: f"{list(items)}*{pad_value}.."))
        else:
            session._floor = k + 1
            truncating = kind != "g"

            def gen(i: int) -> int:
                if i < k:
                    return items[i]
                if i == k:
                    return 0
                j = i - k
                if j > depth:
                    session._floor = depth + 2
                    if truncating:
                        return pad_value
                elif j > session._floor:
                    session._floor = j
                return _level(y, items + (j,), depth, session, kind)

            value = y.apply(Point(gen, lambda: f"{kind}-block {list(items)}@{depth}"))
    finally:
        floor, session._floor = session._floor, outer
    if not isinstance(value, int) or value < 0:
        raise ValueError(f"{kind}-node {list(items)}@{depth} produced non-natural {value!r}")
    if floor > depth + 1:
        session.memo_put((kind, items, depth), value)
    elif floor > depth:
        session.memo_put((_SHARED[kind], items, depth), value)
    else:
        session.memo_put(("hg", items, floor), value)
        if session.memo_enabled:
            session._floors[items] = floor
    if floor > outer:
        session._floor = floor
    return value


def stabilize(y: Functional, s: FinSeq, session: EvalSession) -> tuple[int, int]:
    """Least depth N0 <= nmax at which both approximations settle.

    Returns (N0, value) with h_eval(Y,s,N) = g_eval(Y,s,N) = value for
    every N in [N0, N0+window]. Depth-invariance holds for the truncating
    and the non-truncating approximation alike, so the witness depth is
    required to work for both; the truncating one typically needs a few
    extra levels to stop cutting into s.

    At every N <= len(s), g_eval is the one leaf at s, applied once before
    the search (which also claims the session), and h_eval is the leaf at
    s's length-N prefix. The parent s[:-1], if stabilized, has read those
    leaves for every N < len(s): s's list in session._prefix starts as a
    copy of the parent's cut to len(s), and the search reads the depths it
    holds from there and appends the next ones up to len(s). Each read it
    skips would have been a memo hit: no node, fuel step or apply moves.

    The search ends at the start's floor: once s has a floor entry at or
    below n, h and g read that one entry at every depth from n up, so the
    run holding at n never breaks. It is the answer if it starts at or
    below nmax; otherwise no window can, and the search fails as a scan of
    every depth up to nmax+window would. A start with no floor entry reads
    as n + 1, not free at n (see EvalSession). A floor of s is at least
    len(s), so it is looked up only from there: each lookup hashes all of s.
    """
    leaf = g_eval(y, s, 0, session)
    items = s.items
    k = len(items)
    levels = session._prefix.get(items[:-1], [])[:k]
    if session.memo_enabled:
        levels = session._prefix.setdefault(items, levels)
    run_start = 0
    last: int | None = None
    for n in range(session.nmax + session.window + 1):
        if n > k:
            gv = _level(y, items, n, session, "g")
            hv = _level(y, items, n, session, "h")
        else:
            gv = leaf
            if n < len(levels):
                hv = levels[n]
            else:
                hv = _level(y, items, n, session, "h")
                levels.append(hv)
        if hv != gv:
            run_start = n + 1
            last = None
            continue
        if last is not None and gv != last:
            run_start = n
        last = gv
        if n - run_start >= session.window or (n >= k and session._floors.get(items, n + 1) <= n):
            if run_start > session.nmax:
                break
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
        return gamma(_from_trusted_tuple(items + (i - k,)))

    rhs = y.apply(Point(gen, lambda: f"gh-block {list(items)}"))
    return lhs == rhs


def gamma_eval(y: Functional, s: FinSeq, session: EvalSession) -> int:
    """Stable value at s, verified against the defining equation.

    Stabilizes g_eval, then checks the fixed-point equation with the
    computed values standing in for the recursive occurrences; the check
    recurses through the children it reads, each verified once per
    session. Raises GhEquationViolated if the equation fails. A value whose
    check fails or is cut short is dropped, so asking again fails again.

    A start whose leaf is free (floor len(s), see _force) certifies itself
    and skips the check, which cannot fail there: the leaf read nothing at
    or past len(s), so it is the stable value at every depth from len(s)
    up, and the check's point agrees with the leaf's on every position
    below len(s), so Y reads the same positions there and gives the same
    value.
    """
    session.claim(y)
    entry = session._gamma.get(s.items)
    if entry is None:
        entry = session._gamma[s.items] = stabilize(y, s, session)
        try:
            if session._floors.get(s.items) != len(s.items) and not gh_check(
                lambda t: gamma_eval(y, t, session), y, s
            ):
                raise GhEquationViolated(
                    f"{y.name} at {list(s.items)}: stable value {entry[1]} fails the equation"
                )
        except BaseException:
            del session._gamma[s.items]
            raise
    return entry[1]


# Bounded verification that one depth works uniformly near a point.

def _ghs_candidates(
    alpha: Point, m: int, value_cap: int, tail_cap: int
) -> list[FinSeq]:
    """Sequences whose zero-padding agrees with alpha on the first m values
    and whose entries are all at most value_cap.

    Exactly the prefixes of alpha whose dropped part of the first m values
    is zero, then the length-m prefix extended by every tail of length 1 to
    tail_cap. No sequence comes twice: the prefixes have distinct lengths
    up to m, and the extensions are longer than m and distinct by tail.
    Every candidate starts with alpha's first m values, read once here; if
    one of them exceeds value_cap, there is no candidate.
    """
    head = take(alpha, m).items
    if any(x > value_cap for x in head):
        return []
    kept = m
    while kept and not head[kept - 1]:
        kept -= 1
    tails = (
        tail
        for tlen in range(1, tail_cap + 1)
        for tail in product(range(value_cap + 1), repeat=tlen)
    )
    return [_from_trusted_tuple(head[:j]) for j in range(kept, m + 1)] + [
        _from_trusted_tuple(head + tail) for tail in tails
    ]


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
    no K at or below nmax passes. K is tried upwards, and at each K the
    candidates of m = K .. K+window in order, stopping at the first that
    disagrees somewhere in the window. Each candidate keeps [sequence,
    stable value, next depth to compare, first disagreeing depth found or -1],
    shared by every m that lists it: all depths from K up to the next one
    were compared, and agree except the disagreeing one if that is at or
    above K. So each gamma_eval and each h_eval comparison is made once,
    and a K whose window holds a known disagreement fails at once.

    A candidate's comparisons stop at its floor: once h at depth n equals
    the stable value and the floor is at or below n, every depth above n
    reads the same entry, so the window agrees through its top; as in
    stabilize, the floor is looked up only from n = len(s) on. Depths up
    to len(s) are read from the candidate's list of prefix levels (see
    stabilize), which gamma_eval has filled.

    The tails of one depth's listing hold sum t*(value_cap+1)^t entries
    over t = 1 .. tail_cap. If that exceeds the fuel left, FuelExhausted
    is raised before any listing; counting stops once it does, and spends
    no fuel.
    """
    left = session.fuel.remaining
    count = 0
    for tlen in range(1, tail_cap + 1):
        count += tlen * (value_cap + 1) ** tlen
        if count > left:
            raise FuelExhausted(
                f"ghs_witness({y.name}): candidate tails up to length {tlen} hold "
                f"{count} entries, more than the {left} fuel steps left"
            )
    session.claim(y)
    window = session.window
    floors, prefix = session._floors, session._prefix
    known: dict[tuple[int, ...], list] = {}
    candidates: dict[int, list[list]] = {}
    for k0 in range(session.nmax + 1):
        top = k0 + window
        for m in range(k0, top + 1):
            row = candidates.get(m)
            if row is None:
                row = candidates[m] = [
                    known.setdefault(s.items, [s, None, 0, -1])
                    for s in _ghs_candidates(alpha, m, value_cap, tail_cap)
                ]
            for state in row:
                s, value, n, bad = state
                if bad >= k0:
                    break
                if value is None:
                    value = state[1] = gamma_eval(y, s, session)
                items = s.items
                levels = prefix.get(items, ())
                n = max(n, k0)
                while n <= top:
                    hv = levels[n] if n < len(levels) else _level(y, items, n, session, "h")
                    if hv != value:
                        break
                    n = top + 1 if n >= len(items) and floors.get(items, n + 1) <= n else n + 1
                if n <= top:
                    state[2:] = n + 1, n
                    break
                state[2] = n
            else:
                continue
            break
        else:
            return k0
    raise StabilizationFailed(
        f"no uniform depth below {session.nmax} for {y.name} near {alpha.name}"
    )


# The uniform depth witness doubles as a modulus of continuity at alpha.
modulus_from_ghs = ghs_witness


# Herbrand-style tracing: record what every oracle call of a run read and
# answered, then replay the run against the record alone. A dialogue is
# the (position, value) reads of one call, in the order it made them.
Dialogue = tuple[tuple[int, int], ...]


@dataclass
class HerbrandWitness:
    """Finite record of one gamma_eval run.

    probes holds one answer table, under "apply": the (dialogue, answer)
    rows of Y's calls in first-seen order. gamma_eval only ever applies Y,
    so no other group exists; the key keeps the trace file's shape
    probes.apply. depth and result are the stabilization depth and stable
    value of the traced run; trajectory holds (depth, truncating value,
    non-truncating value) for every depth the stabilization search
    visited. The trajectory matters for tamper detection: an answer
    consumed only below the settling depth leaves depth and result alone
    but shows up as a changed entry here. seq, window and nmax are the run:
    the start sequence and the settling knobs the trace was made under,
    which its replay uses, since the same answers replay false under others.
    """

    probes: dict[str, list[tuple[Dialogue, int]]]
    depth: int
    result: int
    trajectory: list[tuple[int, int, int]]
    seq: FinSeq
    window: int
    nmax: int


class _Recorder:
    """Wraps a functional's apply to log the dialogue of each call in one
    table, which maps each dialogue to its answer.

    A call's dialogue is the (position, value) pairs apply read, in the
    order it read them. The wrapper point caches, so each position is
    logged once; positions apply skipped are never forced. Equal dialogues
    must repeat their answer (apply is deterministic) and are stored once.
    """

    def __init__(self) -> None:
        self.table: dict[Dialogue, int] = {}

    def wrap(self, inner: Callable[[Point], int]) -> Callable[[Point], int]:
        table = self.table

        def wrapped(point: Point) -> int:
            reads: list[tuple[int, int]] = []

            def gen(i: int) -> int:
                v = point.value_at(i)
                reads.append((i, v))
                return v

            answer = inner(Point(gen, lambda: f"traced {point.name}"))
            dialogue = tuple(reads)
            prev = table.setdefault(dialogue, answer)
            if prev != answer:
                raise InvariantViolation(
                    f"apply answered {prev} then {answer} on equal reads {dialogue}"
                )
            return answer

        return wrapped


def herbrand_trace(y: Functional, s: FinSeq, session: EvalSession) -> HerbrandWitness:
    """Run gamma_eval at s on a fresh session, recording every oracle call.

    The trajectory holds depth+window+1 rows. They are memo hits, so fuel
    does not bound them: if there are more rows than the session's fuel
    budget, FuelExhausted is raised before any row is read.
    """
    recorder = _Recorder()
    wrapped = Functional(apply=recorder.wrap(y.apply), name=f"traced {y.name}")
    fresh = session.child()
    result = gamma_eval(wrapped, s, fresh)
    depth = fresh.gamma_depth(s)
    rows = depth + fresh.window + 1
    if rows > fresh.fuel.budget:
        raise FuelExhausted(
            f"herbrand_trace({y.name}): the trajectory holds {rows} rows, "
            f"more than the fuel budget of {fresh.fuel.budget} steps"
        )
    # Memo hits only: the stabilization search visited every depth in this
    # range below the start's floor, those up to the start's length as the
    # leaves of its prefixes, and every depth above it reads the floor
    # entry, so reading the values back consumes no new probes.
    trajectory = _trajectory(wrapped, s, fresh, rows)
    return HerbrandWitness(
        probes={"apply": list(recorder.table.items())},
        depth=depth,
        result=result,
        trajectory=trajectory,
        seq=s,
        window=fresh.window,
        nmax=fresh.nmax,
    )


def _trajectory(
    y: Functional, s: FinSeq, session: EvalSession, length: int
) -> list[tuple[int, int, int]]:
    """(depth, truncating value, non-truncating value) at s for the depths
    below length: what a trace records and what its replay must match. The
    caller has claimed the session for y."""
    items = s.items
    return [
        (n, _level(y, items, n, session, "h"), _level(y, items, n, session, "g"))
        for n in range(length)
    ]


def _stub_operation(entries: list[tuple[Dialogue, int]]) -> Callable[[Point], int]:
    """Answer by the recorded dialogue the argument point follows.

    The entries are built once into a decision tree: a node is [answer,
    position, children], where answer is the last recorded answer for the
    reads spelled by the path to it (None if no row ends there), position
    is the one read next and children maps the value read to the next
    node. The first row through a node fixes its position; a later row
    asking another position there is ignored, so replay fails closed. A
    lookup follows the point down the tree to the first node that holds
    an answer and returns it; a deterministic Y never records a dialogue
    that is a strict prefix of another, so a run that mirrors the traced
    one reads exactly the positions the trace read. A point that leaves
    the tree first raises OutOfTableQuery.
    """
    root: list = [None, None, {}]
    for reads, answer in entries:
        node = root
        for position, value in reads:
            if node[1] is None:
                node[1] = position
            elif node[1] != position:
                break
            node = node[2].setdefault(value, [None, None, {}])
        else:
            node[0] = answer

    def lookup(point: Point) -> int:
        answer, position, children = root
        while answer is None:
            if position is None or (node := children.get(point.value_at(position))) is None:
                raise OutOfTableQuery("no recorded apply answer matches the argument")
            answer, position, children = node
        return answer

    return lookup


def replay_check(w: HerbrandWitness, fuel_steps: int = DEFAULT_SESSION_FUEL) -> bool:
    """Re-run gamma_eval under the witness's run, with the witness standing
    in for Y, on a session of fuel_steps fresh fuel.

    True iff the replayed run reproduces the recorded stable value, the
    recorded stabilization depth, and the whole per-depth trajectory. A
    witness whose answers were tampered with changes one of those, trips
    the equation check (reported as False), or runs off its own table
    (OutOfTableQuery propagates).
    """
    stub = Functional(apply=_stub_operation(w.probes["apply"]), name="replay stub")
    session = make_session(fuel_steps, window=w.window, nmax=w.nmax)
    try:
        result = gamma_eval(stub, w.seq, session)
    except (GhEquationViolated, StabilizationFailed):
        return False
    if result != w.result or session.gamma_depth(w.seq) != w.depth:
        return False
    return _trajectory(stub, w.seq, session, len(w.trajectory)) == w.trajectory


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
    modulus search runs out of fuel. A modulus that brackets no zero of f
    is wrong, which is an invariant violation.
    """
    gamma = gamma_flag(_zero_indicator(f))
    k = psi(gamma, constant_point(0), fuel)
    for n in range(k):
        if f.value_at(n) == 0:
            return n
    raise InvariantViolation(f"modulus bracket [0, {k}) holds no zero of {f.name}")


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


def ext_witness(a: Associate, b: Associate, fuel: Fuel) -> int:
    """One past the first sequence code where a and b answer differently, 0
    if none found.

    The associates are compared query by query in code order. The scan is
    fuel-bounded and running dry counts as "no difference found", so this
    never raises.
    """
    i = 0
    while fuel.try_spend():
        if a.query(decode(i)) != b.query(decode(i)):
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
    zero-padding. It is then verified on a child session: g_eval runs over
    the whole window above the certificate, every child value a g block
    read there must be at most h' at its position (BoundExceeded
    otherwise), and the window must be constant (InvariantViolation
    otherwise; with honest bounds it cannot happen). The bound is audited
    on the check session's memo, kept on for that, which holds g nodes
    alone, under either key kind: an entry longer than s is a child read
    at position len(child)-1+child[-1], and entries come in the order they
    were first read. An entry's depth is the least depth at which it
    holds: a free node's is its floor. The audit runs even when the
    evaluation fails, so a violation wins over any error it led to.
    """
    w = pwc_bound(y, pad(s, 0), h, session.fuel)
    lifted = Point(lambda i: max(h.value_at(i), w), name=f"lifted {h.name}")
    n_cert = len(s) + full_fan_modulus(y, lifted, session.fuel)
    check = replace(session.child(), memo_enabled=True)
    try:
        values = [g_eval(y, s, n, check) for n in range(n_cert, n_cert + session.window + 1)]
    finally:
        for (_, child, depth), v in check._values.items():
            if len(child) <= len(s):
                continue
            i = len(child) - 1 + child[-1]
            if v > lifted.value_at(i):
                raise BoundExceeded(
                    f"child value {v} at position {i} exceeds bound {lifted.value_at(i)} "
                    f"(sequence {list(child[:-1])}, depth {depth})"
                )
    if any(v != values[0] for v in values):
        raise InvariantViolation(
            f"certified depth {n_cert} for {y.name} at {list(s.items)} is not stable"
        )
    return n_cert
