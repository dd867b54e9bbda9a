"""Uniform moduli over bounded trees of points, and the fan checks.

The bar search underlying everything here walks the tree of finite
sequences bounded pointwise by a stream h, pruning a branch as soon as it
settles the functional (functionals.settled). Continuity makes every
branch prune eventually; Fuel guards against functionals that never do.

Each functional remembers its bar. The walk below a prefix depends only
on the functional, the prefix and h at the positions from the prefix's
length down to its deepest unsettled extension walked, so a finished
walk of a prefix is kept under the prefix's items with those bound values,
its value set and its deepest conflict. A later walk reaching the prefix
reads h at those positions: if every value matches it takes the entry and
spends no fuel, otherwise it walks again and overwrites the entry. A walk
that runs dry writes no entry for the subtrees it did not finish. A
search keeps the entries of the prefix it starts at and of that prefix's
children, where pwc_bound's next round starts, and none deeper: the
table then grows with the number of searches, not with their size, which
on a dense walk of a million steps would be hundreds of megabytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Callable

from .errors import DepthExceeded
from .functionals import Fuel, Functional, _apply_padded
from .sequences import FinSeq, Point, constant_point, pad, take


@dataclass(frozen=True)
class BinTree:
    """A set of binary sequences closed under prefixes, given by membership."""

    member: Callable[[FinSeq], bool]
    name: str = "tree"

    def __repr__(self) -> str:
        return f"BinTree({self.name})"


@dataclass(frozen=True)
class ThetaResult:
    """Outcome of the special fan construction.

    bound is the uniform value bound. The points witnessing it, all
    zero-padded binary prefixes of that length, follow from the bound and
    are built on first use.
    """

    bound: int

    def within(self, depth: int) -> ThetaResult:
        """This result, if its bound is at most depth; DepthExceeded
        otherwise. Guards every listing of the 2^bound points."""
        if self.bound > depth:
            raise DepthExceeded(f"theta bound {self.bound} exceeds depth cap {depth}")
        return self

    @cached_property
    def points(self) -> list[Point]:
        return [pad(FinSeq(bits), 0) for bits in product((0, 1), repeat=self.bound)]


def _bar_values(
    y: Functional, h: Point, prefix: tuple[int, ...], fuel: Fuel
) -> tuple[frozenset[int], int]:
    """Value set of y over h-bounded extensions of prefix, plus the deepest
    node below which values still disagree (-1 when none does)."""
    context = f"bar search({y.name})"
    bar, bound = y._bar, h.value_at
    kept = len(prefix) + 1

    def walk(items: tuple[int, ...]) -> tuple[tuple[int, ...], frozenset[int], int]:
        # (h's values from len(items) on that the walk read, value set, conflict)
        entry = bar.get(items)
        if entry is not None:
            k = len(items)
            if all(bound(k + i) == b for i, b in enumerate(entry[0])):
                return entry
        fuel.spend(context)
        value, past = _apply_padded(y, items, 0)
        if not past:
            entry = ((), frozenset((value,)), -1)
        else:
            top = bound(len(items))
            below: tuple[int, ...] = ()
            vals: set[int] = set()
            conflict = -1
            for v in range(top + 1):
                child_bounds, child_vals, child_conflict = walk(items + (v,))
                if len(child_bounds) > len(below):
                    below = child_bounds
                vals |= child_vals
                conflict = max(conflict, child_conflict)
            if len(vals) > 1:
                conflict = max(conflict, len(items))
            entry = ((top, *below), frozenset(vals), conflict)
        if len(items) <= kept:
            bar[items] = entry
        return entry

    _, vals, conflict = walk(prefix)
    return vals, conflict


def full_fan_modulus(y: Functional, h: Point, fuel: Fuel) -> int:
    """Least N such that y is constant on {g <= h pointwise} once the first
    N values are fixed. Computed as one past the deepest disagreement in
    the bar-search tree."""
    _, conflict = _bar_values(y, h, (), fuel)
    return conflict + 1


def fan_modulus(y: Functional, fuel: Fuel) -> int:
    """Uniform modulus of y over binary points."""
    return full_fan_modulus(y, constant_point(1, "binary bound"), fuel)


def special_fan(omega: Callable[[Functional], int], g: Functional) -> ThetaResult:
    """Uniform bound on g over binary points.

    omega supplies the uniform modulus; the bound is the maximum of g over
    the zero-padded binary prefixes of that length.
    """
    n = omega(g)
    bound = max(
        g.apply(pad(FinSeq(bits), 0)) for bits in product((0, 1), repeat=n)
    )
    return ThetaResult(bound=bound)


def scf_check(theta: ThetaResult, g: Functional, tree: BinTree, depth: int) -> bool:
    """Bounded fan implication for one tree.

    If every theta point leaves the tree within g's value there, then every
    binary sequence of the bound's length must leave the tree by the bound.
    Vacuously true when some theta point stays inside. DepthExceeded guards
    both enumerations and is raised before any theta point is built.
    """
    points = theta.within(depth).points
    antecedent = all(not tree.member(take(alpha, g.apply(alpha))) for alpha in points)
    if not antecedent:
        return True
    for bits in product((0, 1), repeat=theta.bound):
        tau = FinSeq(bits)
        if not any(not tree.member(take(tau, i)) for i in range(theta.bound + 1)):
            return False
    return True


def pwc_bound(y: Functional, f: Point, h: Point, fuel: Fuel) -> int:
    """Least n such that every g bounded by h and agreeing with f on the
    first n values satisfies y(g) <= n.

    When the first n values of f already break the h bound the condition
    holds vacuously. Otherwise the maximum of y over the agreeing bar is
    compared against n; the maximum only shrinks as n grows, so the scan
    terminates at the latest when n passes the unconstrained maximum.
    """
    context = f"pwc_bound({y.name})"
    prefix: tuple[int, ...] = ()
    while True:
        fuel.spend(context)
        n = len(prefix)
        if n and prefix[-1] > h.value_at(n - 1):
            return n
        vals, _ = _bar_values(y, h, prefix, fuel)
        if max(vals) <= n:
            return n
        prefix += (f.value_at(n),)


def enumerate_trees(height: int) -> list[BinTree]:
    """All prefix-closed sets of binary sequences of length <= height.

    Built recursively: a tree is empty or a root with two subtrees one
    shorter. Counts follow t(d) = 1 + t(d-1)^2 with t(0) = 2. Materialized
    as frozensets behind membership predicates; meant for small heights.
    """

    def build(d: int) -> list[frozenset[tuple[int, ...]]]:
        if d == 0:
            return [frozenset(), frozenset({()})]
        out = [frozenset()]
        smaller = build(d - 1)
        for left in smaller:
            for right in smaller:
                members = {()}
                members.update((0,) + m for m in left)
                members.update((1,) + m for m in right)
                out.append(frozenset(members))
        return out

    trees = []
    for i, fs in enumerate(build(height)):
        trees.append(
            BinTree(
                member=lambda s, _fs=fs: s.items in _fs,
                name=f"enum{height}#{i}",
            )
        )
    return trees
