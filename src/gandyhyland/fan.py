"""Uniform moduli over bounded trees of points, and the fan checks.

The bar search underlying everything here walks the tree of finite
sequences bounded pointwise by a stream h, pruning a branch as soon as it
settles the functional (functionals.settled). Continuity makes every
branch prune eventually; Fuel guards against functionals that never do.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Callable

from .errors import DepthExceeded
from .functionals import Fuel, Functional, settled
from .sequences import EMPTY, FinSeq, Point, constant_point, extend, pad, take


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


def _bar_values(y: Functional, h: Point, sigma: FinSeq, fuel: Fuel) -> tuple[set[int], int]:
    """Value set of y over h-bounded extensions of sigma, plus the deepest
    node below which values still disagree (-1 when none does)."""
    context = f"bar search({y.name})"

    def walk(sigma: FinSeq) -> tuple[set[int], int]:
        fuel.spend(context)
        value = settled(y, sigma)
        if value is not None:
            return {value}, -1
        vals: set[int] = set()
        conflict = -1
        for v in range(h.value_at(len(sigma)) + 1):
            child_vals, child_conflict = walk(extend(sigma, v))
            vals |= child_vals
            conflict = max(conflict, child_conflict)
        if len(vals) > 1:
            conflict = max(conflict, len(sigma))
        return vals, conflict

    return walk(sigma)


def full_fan_modulus(y: Functional, h: Point, fuel: Fuel) -> int:
    """Least N such that y is constant on {g <= h pointwise} once the first
    N values are fixed. Computed as one past the deepest disagreement in
    the bar-search tree."""
    _, conflict = _bar_values(y, h, EMPTY, fuel)
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
    n = 0
    while True:
        fuel.spend(context)
        if any(f.value_at(i) > h.value_at(i) for i in range(n)):
            return n
        vals, _ = _bar_values(y, h, take(f, n), fuel)
        if max(vals) <= n:
            return n
        n += 1


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
