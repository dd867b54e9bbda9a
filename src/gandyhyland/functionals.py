"""Type-two functionals, their countable associates, and bounded search.

A Functional wraps a total continuous operation on points; settled reads
its continuity off what it reads, through the one padded read that the
bar search and the evaluator's leaves make too. An Associate is the
countable face of the same thing: a query on finite prefixes answering 0
for "not yet decided" and v+1 for "decided, value v". The two directions
of the correspondence are associate_from_functional and
functional_from_associate.

All possibly-unbounded scans take a Fuel budget and raise FuelExhausted
instead of diverging.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Callable

from .errors import FuelExhausted
from .sequences import EMPTY, FinSeq, Point, _from_trusted_tuple, extend

DEFAULT_FUEL = 100_000


class Fuel:
    """Step budget for a bounded search. Strictly decreases; never refills."""

    __slots__ = ("budget", "remaining")

    def __init__(self, max_steps: int = DEFAULT_FUEL):
        if max_steps < 0:
            raise ValueError("fuel budget must be a natural")
        self.budget = max_steps
        self.remaining = max_steps

    def spend(self, context: str = "search") -> None:
        if self.remaining <= 0:
            raise FuelExhausted(f"{context}: no steps left of {self.budget}")
        self.remaining -= 1

    def try_spend(self) -> bool:
        """Non-raising variant for scans where running dry is an answer."""
        if self.remaining <= 0:
            return False
        self.remaining -= 1
        return True


@dataclass(frozen=True)
class Associate:
    """Prefix-indexed description of a continuous functional.

    query(sigma) = 0 when sigma is too short to decide the value, and
    v + 1 once decided. Deciding prefixes must stay decided with the same
    answer along every extension; check_neighbourhood tests that law on a
    bounded grid.
    """

    query: Callable[[FinSeq], int]
    name: str = "associate"

    def __repr__(self) -> str:
        return f"Associate({self.name})"


@dataclass
class Functional:
    """Total continuous operation on points.

    Only apply is used: where the package needs continuity, settled reads
    it off what apply reads. Nothing in the package sets or reads modulus;
    the field stays so that code passing the three fields by position,
    such as perfbench/tracer.py, keeps working. _bar is the functional's
    bar table, which only fan's bar search reads and writes: finished
    walks by prefix, each valid while h agrees on the bound values it read.
    """

    apply: Callable[[Point], int]
    modulus: Callable[[Point], int] | None = None
    name: str = "functional"
    _bar: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __repr__(self) -> str:
        return f"Functional({self.name})"


def _scan(
    gamma: Associate, alpha: Point, fuel: Fuel, context: str, node: list
) -> tuple[int, int]:
    """(value, deciding prefix length) of gamma along alpha, one fuel step per
    level spent under context; gamma is queried only at trie nodes [answer,
    children] not yet answered, and alpha is read once per level walked."""
    spend, read = fuel.spend, alpha.value_at
    reads: list[int] = []
    depth = 0
    while True:
        spend(context)
        answer = node[0]
        if answer is None:
            answer = node[0] = gamma.query(_from_trusted_tuple(tuple(reads)))
        if answer > 0:
            return answer - 1, depth
        value = read(depth)
        reads.append(value)
        depth += 1
        children = node[1]
        node = children.get(value)
        if node is None:
            node = children[value] = [None, {}]


def associate_apply(gamma: Associate, alpha: Point, fuel: Fuel) -> int:
    """Value of the functional described by gamma at the point alpha."""
    return _scan(gamma, alpha, fuel, f"associate_apply({gamma.name})", [None, {}])[0]


def modulus_from_associate(gamma: Associate, alpha: Point, fuel: Fuel) -> int:
    """Length of the first deciding prefix of alpha under gamma."""
    return _scan(gamma, alpha, fuel, f"modulus_from_associate({gamma.name})", [None, {}])[1]


def check_neighbourhood(gamma: Associate, depth: int, width: int) -> bool:
    """Exhaustively test the associate law on bounded sequences.

    Once a prefix decides, every extension must report the same decision.
    Checks all sequences with entries below width and length up to depth;
    only comparable pairs (a prefix and its extensions) matter, so a DFS
    carrying the first decision down each path covers them all.
    """

    def walk(sigma: FinSeq, decided: int) -> bool:
        q = gamma.query(sigma)
        if decided > 0 and q != decided:
            return False
        if decided == 0 and q > 0:
            decided = q
        if len(sigma) == depth:
            return True
        return all(walk(extend(sigma, v), decided) for v in range(width))

    return walk(EMPTY, 0)


def _apply_padded(y: Functional, items: tuple[int, ...], pad: int) -> tuple[int, bool]:
    """y applied once to items padded with pad, and whether that apply read
    past items."""
    k = len(items)
    past = False

    def gen(n: int) -> int:
        nonlocal past
        if n < k:
            return items[n]
        past = True
        return pad

    value = y.apply(Point(gen, lambda: f"{list(items)}*{pad}.."))
    return value, past


def settled(y: Functional, sigma: FinSeq) -> int | None:
    """y's value at sigma's zero-padding if no read of that one apply went
    past sigma, so that every extension of sigma has it too; None otherwise.
    An evaluator leaf makes the same read with its kind's pad, so it is free
    exactly where settled holds."""
    value, past = _apply_padded(y, sigma.items, 0)
    return None if past else value


def associate_from_functional(y: Functional) -> Associate:
    """Canonical associate of a functional: a prefix decides once it
    settles y, and then reports the value at its zero-padding."""

    def query(sigma: FinSeq) -> int:
        value = settled(y, sigma)
        return 0 if value is None else value + 1

    return Associate(query, name=f"assoc({y.name})")


def functional_from_associate(gamma: Associate, fuel_budget: int = DEFAULT_FUEL) -> Functional:
    """Functional evaluating gamma along its argument, named after gamma;
    its calls share one trie of per-prefix answers and one
    Fuel(fuel_budget).

    Fuel is split. The functional's applies spend its one budget, one step
    per trie level walked, trie hits included, and raise FuelExhausted
    naming associate_apply and gamma when it runs dry; the budget never
    refills, so it bounds all the scans the functional ever makes, bar
    searches' settled calls included. None of it is charged to an
    evaluation session that applies this functional: the session's fuel
    (the CLI's --fuel) bounds the session's own evaluation steps only. The
    CLI passes --fuel as fuel_budget too.
    """
    trie: list = [None, {}]
    fuel = Fuel(fuel_budget)
    context = f"associate_apply({gamma.name})"
    return Functional(
        apply=lambda alpha: _scan(gamma, alpha, fuel, context, trie)[0], name=gamma.name
    )


def mu(f: Point, fuel: Fuel) -> int:
    """Least n with f(n) = 0, by fuel-bounded linear scan."""
    n = 0
    while True:
        fuel.spend("mu")
        if f.value_at(n) == 0:
            return n
        n += 1


def _flag_associate(h: Point, offset: int, name: str) -> Associate:
    """Shared body of the two flag associates.

    A prefix sigma decides once h fires strictly below |sigma|, i.e. there
    is a least n < |sigma| with h(n) != 0; the decision is offset + sigma(n).
    h's values read so far are kept in one list, which a query extends up
    to |sigma| but not past a nonzero, so each position is read once."""
    read: list[int] = []

    def query(sigma: FinSeq) -> int:
        m = len(sigma)
        while len(read) < m and not (read and read[-1]):
            read.append(h.value_at(len(read)))
        if read and read[-1] and len(read) <= m:
            return offset + sigma[len(read) - 1]
        return 0

    return Associate(query, name=name)


def gamma_flag(h: Point) -> Associate:
    """Flag associate of h: report 1 + sigma(n0) at the first firing index."""
    return _flag_associate(h, 1, name=f"flag({h.name})")


def epsilon_flag(h: Point) -> Associate:
    """Sibling flag reporting 2 + sigma(n0); differs from gamma_flag only
    in the offset, which is what makes the pair useful as an
    extensionality probe."""
    return _flag_associate(h, 2, name=f"flag+1({h.name})")


def enumerate_sequences(depth: int, width: int) -> list[FinSeq]:
    """Every sequence with length <= depth and entries < width.

    Test-sized helper; the count is sum of width^k, so keep the grid small.
    """
    out: list[FinSeq] = [EMPTY]
    for k in range(1, depth + 1):
        out.extend(FinSeq(p) for p in product(range(width), repeat=k))
    return out
