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
depths, a search that ends at the start's floor. gamma_eval takes the
stable value if the search ended on a free node, which holds at every
depth from its floor up, so at any nonstandard depth. Otherwise the
fixed-point equation, its children certified, names the value, and a
plateau that differs is searched past: the window only decides how many
depths must agree before the equation is asked.

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
    IndexOutOfRange,
    InvariantViolation,
    OutOfTableQuery,
    StabilizationFailed,
)
from .fan import full_fan_modulus, pwc_bound
from .functionals import (
    Associate,
    Fuel,
    Functional,
    _apply_padded,
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
    memo_enabled off it stays empty too. _gamma holds the gamma values
    certified so far, together with the depth at which they stabilized
    (see gamma_eval). _prefix maps each sequence s the settling search has
    met to the levels it read from depth 0 up, at most to len(s), so the
    list may stop short of len(s): h at s, each the leaf at s's prefix of
    that length (see stabilize). It is filled only with memo_enabled on,
    where each of its reads stands in for a memo hit.

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
    _force raise it. _force reads it, and so does the settling search (see
    stabilize), which zeroes it before a read and takes what it holds
    after as that read's mark.
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
        if len(items) > n:
            n = len(items)
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
    if m < 0:
        raise IndexOutOfRange(f"no approximation at depth {m}")
    session.claim(y)
    return _level(y, s.items, m, session, "h")


def h_hat_eval(y: Functional, s: FinSeq, m: int, session: EvalSession) -> int:
    """One-padded depth-M approximation; pads ones in both cases."""
    if m < 0:
        raise IndexOutOfRange(f"no approximation at depth {m}")
    session.claim(y)
    return _level(y, s.items, m, session, "hhat")


def g_eval(y: Functional, s: FinSeq, n: int, session: EvalSession) -> int:
    """Non-truncating depth-N approximation.

    Sequences shorter than N get the lazily-extended block with unbounded
    child indices.
    """
    if n < 0:
        raise IndexOutOfRange(f"no approximation at depth {n}")
    session.claim(y)
    return _level(y, s.items, n, session, "g")


class _Block(Point):
    """The point a block node applies Y to (see _force): items, a zero,
    then the child at items+(j,) at position len(items)+j for j = 1 ..
    depth (for every j in g, which does not truncate), then the kind's pad
    value. A child is read through _level, and each read raises
    session._floor to the block's mark. One object per block holds the
    node; _gen is its generator and name is formatted only when asked.
    It does not override Point.value_at, the one read path, so every read
    is cached, checked to be a natural, and seen by reads() and by a
    counter patched onto the class.
    """

    __slots__ = ("y", "items", "depth", "session", "kind")

    def __init__(
        self, y: Functional, items: tuple[int, ...], depth: int, session: EvalSession, kind: str
    ):
        self._cache = {}
        self.y, self.items, self.depth, self.session, self.kind = y, items, depth, session, kind

    @property
    def name(self) -> str:
        return f"{self.kind}-block {list(self.items)}@{self.depth}"

    def _gen(self, i: int) -> int:
        items = self.items
        k = len(items)
        if i < k:
            return items[i]
        if i == k:
            return 0
        j = i - k
        session, depth = self.session, self.depth
        if j > depth:
            session._floor = depth + 2
            if self.kind != "g":
                return 1 if self.kind == "hhat" else 0
        elif j > session._floor:
            session._floor = j
        return _level(self.y, items + (j,), depth, session, self.kind)


def _force(
    y: Functional, items: tuple[int, ...], depth: int, session: EvalSession, kind: str
) -> int:
    """Value of the kind node at items and depth, which is not in the memo;
    items is at most depth long. It spends one fuel step under the kind's
    context, and its value must be a natural before it is written.

    At length depth the node is a leaf, Y at items padded with the kind's
    pad value (one for hhat, else zero), applied through the padded read
    that settled makes. Shorter items get a block: Y is applied to one
    _Block, the point that holds the node, so no closure is made per node.

    A leaf's mark (see EvalSession) is len(items) if Y read items alone,
    which the leaf and the block at items share at every depth, so the
    leaf is free exactly where settled holds; it is depth + 1 if Y read
    past them, since past depth the node is a block. session._floor
    gathers a block's mark. It starts at len(items)+1, and each j it reads
    raises the mark to at least j: from there up it is still a block whose
    reads land on the same children. A read at j > depth marks depth + 2,
    the only place where h pads and g reads on.
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
    outer = session._floor
    if k >= depth:
        value, past = _apply_padded(y, items, 1 if kind == "hhat" else 0)
        floor = depth + 1 if past else k
    else:
        session._floor = k + 1
        try:
            value = y.apply(_Block(y, items, depth, session, kind))
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

    The search reads the top of a window first. With run_start the least
    depth where a run could still start, every run starting from there to
    p = run_start+window holds at p. If h and g disagree at p (or, given
    want, miss it), none of them is the answer: the depths below p are
    never read, and run_start moves to p+1. If they agree, the search walks
    down from p to the start of the run holding p, the new run_start. So N0
    is the least start, as a scan of every depth finds it. One rule orders
    the reads: no top above len(s) is read before depth len(s).

    At every N <= len(s), g is the one leaf at s, applied before the search
    (which also claims the session), and h the leaf at s's length-N prefix,
    read in order into s's list in session._prefix. That list starts as a
    copy of the parent's (s[:-1]) cut to len(s), each entry a memo hit
    saved. Above len(s) g is a block, whose read of a far position forces
    a fresh chain of nodes: that is the work a skipped depth saves.

    The search ends at the start's floor: once the node at s read at a
    depth n >= len(s) is free, its mark (session._floor after the read,
    see EvalSession) being at most n, h and g take its one value at every
    depth from n up, so the run holding at n never breaks. At n = len(s)
    that node is the leaf at s. The run is the answer if it starts at or
    below nmax; otherwise no window can, and the search fails as a scan of
    every depth up to nmax+window would. The mark is the read's own, with
    the memo on or off, so both end at the same depth.
    """
    return _settle(y, s, session)[:2]


def _settle(
    y: Functional, s: FinSeq, session: EvalSession, want: int | None = None
) -> tuple[int, int, bool]:
    """stabilize's (N0, value), and whether the read that ended the search
    was a free node. Given want, a run not worth want is a mismatch, so N0
    starts the first plateau holding want; StabilizationFailed names want.

    A top p above k = len(s) reads g first, since the mark of that read
    decides whether the search ends; h is read only if g is not free. At
    or below k, h_at reads the prefix levels and g is the leaf, whose mark
    is the leaf's at k and p + 1 below. n is the least depth not read, and
    last the value h and g hold from run_start to n - 1. A walk down stops
    at n, and if it gets there and last is the top's value, the run goes
    on below, so run_start stays; with run_start = n, last is stale but
    unused, as the run starts at n either way. A free top has every depth
    from its mark up read one entry, so the walk starts below that mark.

    The walk down reads h first at each depth: where h misses the top's
    value the run breaks whatever g is, so g there is never read, nor the
    fresh chain of g nodes it would force. Where h holds the top's value,
    g is read unless that h read was free, as a free node makes no read
    past its depth, so g's would be the same. So the walk stops exactly
    where h != g or g != the top's value, and N0 is still the least start.
    """
    session._floor = 0
    leaf = g_eval(y, s, 0, session)
    leaf_mark = session._floor
    items = s.items
    k = len(items)
    levels = session._prefix.get(items[:-1], [])[:k]
    if session.memo_enabled:
        levels = session._prefix.setdefault(items, levels)

    def h_at(d: int) -> int:
        if d > k:
            return _level(y, items, d, session, "h")
        while len(levels) <= d:
            levels.append(_level(y, items, len(levels), session, "h"))
        return levels[d]

    window, nmax = session.window, session.nmax
    run_start = n = 0
    last = None
    while run_start <= nmax:
        p = run_start + window
        if p < n:
            return run_start, last, False
        if n <= k < p:
            p = k
        if p > k:
            session._floor = 0
            gv = _level(y, items, p, session, "g")
            mark = session._floor
            # A free g node reads no pad or child past p: h reads the same.
            hv = gv if mark <= p else h_at(p)
        else:
            hv, gv, mark = h_at(p), leaf, leaf_mark if p == k else p + 1
        if hv != gv or (want is not None and gv != want):
            run_start = n = p + 1
            continue
        d = (max(mark, n) if mark <= p else p) - 1
        while d >= n:
            session._floor = 0
            if h_at(d) != gv:
                break
            if d > k:
                # A free h node reads no pad or child past d: g reads the same.
                if session._floor > d and _level(y, items, d, session, "g") != gv:
                    break
            elif leaf != gv:
                break
            d -= 1
        if d >= n or last != gv:
            run_start = d + 1
        if mark <= p:
            if run_start <= nmax:
                return run_start, gv, True
            break
        last, n = gv, p + 1
    raise StabilizationFailed(
        f"no stable window of width {window + 1} below depth {nmax} "
        f"for {y.name} at {list(s.items)}" + ("" if want is None else f" with value {want}")
    )


def _rhs(gamma: Callable[[FinSeq], int], y: Functional, s: FinSeq) -> int:
    """The right side of the defining equation at s: y applied to the point
    that starts with s, then 0, then carries gamma at the one-step
    extensions of s."""
    items = s.items
    k = len(items)

    def gen(i: int) -> int:
        if i < k:
            return items[i]
        if i == k:
            return 0
        return gamma(_from_trusted_tuple(items + (i - k,)))

    return y.apply(Point(gen, lambda: f"gh-block {list(items)}"))


def gh_check(gamma: Callable[[FinSeq], int], y: Functional, s: FinSeq) -> bool:
    """Does gamma satisfy the defining equation at s? Continuity of y
    grounds the recursion when gamma is gamma_eval itself."""
    return gamma(s) == _rhs(gamma, y, s)


def gamma_eval(y: Functional, s: FinSeq, session: EvalSession) -> int:
    """Stable value at s, certified by the defining equation.

    A start whose settling search ends on a free node (see stabilize)
    certifies itself: a free value holds at every depth from its floor up,
    so it is the approximation at any nonstandard depth, which is
    Gamma(s). Otherwise the equation's right side, with gamma_eval at the
    children it reads (each certified once per session), is Gamma(s); a
    plateau worth another value is searched past (see _settle), and the
    reported depth is the start of the first plateau that holds it.
    StabilizationFailed if none starts at or below nmax; nothing failed is
    kept, so asking again fails again.
    """
    session.claim(y)
    entry = session._gamma.get(s.items)
    if entry is None:
        n0, value, free = _settle(y, s, session)
        if not free:
            rhs = _rhs(lambda t: gamma_eval(y, t, session), y, s)
            if rhs != value:
                n0, value, _ = _settle(y, s, session, rhs)
        entry = session._gamma[s.items] = n0, value
    return entry[1]


# Bounded verification that one depth works uniformly near a point.

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

    Row m holds the candidates whose zero-padding agrees with alpha's first
    m values and whose entries are at most value_cap: alpha's prefixes whose
    dropped part of those values is zero, shortest first, then the length-m
    prefix extended by every tail of length 1 to tail_cap. Rows are built in
    order of m when the search first reaches them, each from the values the
    last one read and alpha's value at m - 1. A row's tails are listed only
    when its loop first reaches them, and only if its base alpha[:m] is then
    neither skipped nor a free leaf; otherwise all are skipped (see below).

    StabilizationFailed if no K at or below nmax passes. K is tried
    upwards, and at each K the rows m = K .. K+window in order, stopping at
    the first candidate that disagrees somewhere in the window. Each
    candidate keeps [items, stable value, next depth to compare], shared by
    every row that lists it: every depth from K up to below the next one
    was compared and agrees. A comparison that fails leaves the next depth
    at the failing one, so a later K compares it again, a memo hit with the
    memo on. So each gamma_eval is made once, and each comparison that
    agrees once.

    A candidate's comparisons stop at its floor: once h at depth n equals
    the stable value and the floor is at or below n, every depth above n
    reads the same entry, so every later window agrees through its top. A
    candidate so compared, or skipped (below), is done for good: its next
    depth is set past every top, to nmax + window + 1, and it leaves every
    row that lists it, so no later K visits it. A floor of s is at least
    len(s), so it is looked up only from there: each lookup hashes all of
    s. The depths that the candidate's list of prefix levels holds (see
    EvalSession), filled by its settling search, are read from that list.

    One rule skips work: a candidate is skipped when its parent (its items
    less the last) is a free leaf, floors[p] == len(p) (see _force), or was
    skipped itself. A skipped t so extends a free leaf p, and passes exactly
    where p passes: Y at t's leaf, and at t's block at any depth, agrees
    with p's zero-padding below len(p), so it reads what p's leaf read and
    gives p's value v from depth len(p) up; below, h at t is the leaf at
    t's prefix, which is p's; and t's gamma_eval, being free, raises only
    where p's does. p itself is checked for the same K: it is listed before
    t in t's row, or it is alpha's prefix of a length j below the row's
    first candidate, listed (or a free prefix of it) in row j if j >= K,
    and agreeing throughout the window if j < K, as its g is v at every
    depth. A row's later candidates extend each prefix listed before them,
    so its listing ends at its first free prefix. A skip holds for good: a
    free leaf keeps its floor, and the skipped set only grows. A candidate
    that left its rows at its floor does not enter the set if its parent
    turns out free later: it then extends a free leaf, so its own leaf,
    forced by its gamma_eval, is free too, and skips its extensions alike.
    A base that is skipped or a free leaf skips all its tails, as the
    parent of a tail of length one is the base and that of a longer one a
    shorter tail. The tails still enter the skipped set, where a later row
    reads them as parents: a tail of length one may be alpha's next prefix.
    With memo_enabled off there are no floors, and nothing is skipped.

    The tails of one depth's listing hold sum t*(value_cap+1)^t entries
    over t = 1 .. tail_cap. If that exceeds the fuel left, FuelExhausted
    is raised before any listing; counting stops once it does, and spends
    no fuel. It is raised too if the window's window+1 rows exceed the fuel
    left, as neither listing a row nor a comparison that hits the memo
    spends any.
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
    window = session.window
    if window + 1 > left:
        raise FuelExhausted(
            f"ghs_witness({y.name}): a window holds {window + 1} rows, "
            f"more than the {left} fuel steps left"
        )
    session.claim(y)
    floors, prefix = session._floors, session._prefix
    tails = [
        tail
        for tlen in range(1, tail_cap + 1)
        for tail in product(range(value_cap + 1), repeat=tlen)
    ]
    last = session.nmax + window
    known: dict[tuple[int, ...], list] = {}
    skipped: set[tuple[int, ...]] = set()
    rows: list[list[list]] = []
    head: list[int] = []
    kept, capped = 0, False
    for k0 in range(session.nmax + 1):
        top = k0 + window
        for m in range(k0, top + 1):
            if m == len(rows):
                if m:
                    v = alpha.value_at(m - 1)
                    head.append(v)
                    kept = m if v else kept
                    capped = capped or v > value_cap
                row = []
                if not capped:
                    for j in range(kept, m + 1):
                        items = tuple(head[:j])
                        row.append(known.setdefault(items, [items, None, 0]))
                        if floors.get(items) == j:
                            break
                    else:
                        # The tails, listed when the loop first reaches this entry.
                        row.append([items, None, -1])
                rows.append(row)
            row = rows[m]
            dropped = failed = False
            for state in row:
                items, value, n = state
                if n < 0:
                    state[2] = last + 1
                    dropped = True
                    listed = [items + tail for tail in tails]
                    if items in skipped or floors.get(items) == m:
                        skipped.update(listed)
                    else:
                        row += [known.setdefault(t, [t, None, 0]) for t in listed]
                    continue
                if n > last:
                    dropped = True
                    continue
                parent = items[:-1]
                if parent in skipped or floors.get(parent) == len(parent):
                    skipped.add(items)
                    state[2] = last + 1
                    dropped = True
                    continue
                if value is None:
                    value = state[1] = gamma_eval(y, _from_trusted_tuple(items), session)
                levels = prefix.get(items, ())
                n = max(n, k0)
                while n <= top:
                    hv = levels[n] if n < len(levels) else _level(y, items, n, session, "h")
                    if hv != value:
                        break
                    if n >= len(items) and floors.get(items, n + 1) <= n:
                        n = last + 1
                        dropped = True
                    else:
                        n += 1
                state[2] = n
                if n <= top:
                    failed = True
                    break
            if dropped:
                rows[m] = [s for s in row if s[2] <= last]
            if failed:
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
    rows of Y's calls in first-seen order, each dialogue read off the point
    Y was applied to (see herbrand_trace). gamma_eval only ever applies Y,
    so no other group exists; the key keeps the trace file's shape
    probes.apply. depth and result are the stabilization depth and stable
    value of the traced run; trajectory holds (depth, truncating value,
    non-truncating value) for every depth up to depth+window, those the
    settling search skipped included, which herbrand_trace forces (see
    _trajectory). The trajectory matters for tamper detection: an answer
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


def herbrand_trace(y: Functional, s: FinSeq, session: EvalSession) -> HerbrandWitness:
    """Run gamma_eval at s on a fresh session, recording every oracle call.

    Every point the run applies Y to is made for that one call, so when Y
    returns, the point's reads (Point.reads) are the call's dialogue:
    positions Y skipped were never forced, and one read twice is logged
    once. The table maps each dialogue to its answer; equal dialogues must
    repeat their answer (Y is deterministic) and are stored once.

    The trajectory holds depth+window+1 rows. The rows the settling search
    read are memo hits, which spend no fuel; the ones it skipped (see
    stabilize) are forced for the trajectory, on the session's fuel, and
    their calls are recorded too. As the hits alone are not bounded by
    fuel, FuelExhausted is raised before any row is read if there are more
    rows than the session's fuel budget.
    """
    table: dict[Dialogue, int] = {}

    def apply(point: Point) -> int:
        answer = y.apply(point)
        dialogue = point.reads()
        prev = table.setdefault(dialogue, answer)
        if prev != answer:
            raise InvariantViolation(
                f"apply answered {prev} then {answer} on equal reads {dialogue}"
            )
        return answer

    wrapped = Functional(apply=apply, name=f"traced {y.name}")
    fresh = session.child()
    result = gamma_eval(wrapped, s, fresh)
    depth = fresh.gamma_depth(s)
    rows = depth + fresh.window + 1
    if rows > fresh.fuel.budget:
        raise FuelExhausted(
            f"herbrand_trace({y.name}): the trajectory holds {rows} rows, "
            f"more than the fuel budget of {fresh.fuel.budget} steps"
        )
    # The search read every row up to the start's length, in order, as the
    # leaves of its prefixes, and every depth from the start's floor up
    # reads the floor entry. A row between that it skipped is forced here,
    # and its calls recorded, so the replay meets every dialogue it reads.
    trajectory = _trajectory(wrapped, s, fresh, rows)
    return HerbrandWitness(
        probes={"apply": list(table.items())},
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
    witness whose answers were tampered with changes one of those, leaves
    no plateau that the equation certifies (reported as False), or runs
    off its own table (OutOfTableQuery propagates).
    """
    stub = Functional(apply=_stub_operation(w.probes["apply"]), name="replay stub")
    session = make_session(fuel_steps, window=w.window, nmax=w.nmax)
    try:
        result = gamma_eval(stub, w.seq, session)
    except StabilizationFailed:
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
