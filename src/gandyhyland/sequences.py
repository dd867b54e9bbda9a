"""Finite sequences of naturals, lazy infinite points, and sequence codes.

Everything downstream manipulates two kinds of object:

* FinSeq, an immutable finite sequence of naturals, and
* Point, a total function from naturals to naturals evaluated lazily with
  a per-instance memo, standing in for an infinite input stream.

The module also fixes a bijective coding of finite sequences onto the
naturals (code/decode) built from the Cantor pairing function. The coding
is strictly monotone along prefix extension: code(s + <x>) > code(s). That
monotonicity is what makes code-indexed scans over associates terminate as
soon as a deciding prefix has been passed.

Codes serve associate indexing only (and the laws that check the coding
itself). A code's bit length roughly doubles with each entry, so nothing
keys a table by code: the evaluator's memo keys are FinSeq.items tuples.
"""

from __future__ import annotations

from math import isqrt
from typing import Callable, Iterable, Iterator

from .errors import IndexOutOfRange


def _check_natural(x: object) -> None:
    if not isinstance(x, int) or isinstance(x, bool) or x < 0:
        raise ValueError(f"sequence entries must be naturals, got {x!r}")


class FinSeq:
    """Immutable finite sequence of natural numbers."""

    __slots__ = ("_items",)

    def __init__(self, items: Iterable[int] = ()):
        data = tuple(items)
        for x in data:
            _check_natural(x)
        self._items = data

    @property
    def items(self) -> tuple[int, ...]:
        return self._items

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < len(self._items):
            raise IndexOutOfRange(f"index {i} out of range for length {len(self._items)}")
        return self._items[i]

    def __iter__(self) -> Iterator[int]:
        return iter(self._items)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FinSeq) and self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        return f"FinSeq({list(self._items)!r})"


EMPTY = FinSeq()


class Point:
    """Total lazy stream of naturals with per-instance memoisation.

    The generator must be deterministic; values are cached on first read,
    so a point is also a record of which positions have been forced. Points
    are session-confined: nothing here is safe against concurrent mutation
    from several threads, and nothing in the package needs it to be.
    """

    __slots__ = ("_gen", "_cache", "name")

    def __init__(self, gen: Callable[[int], int], name: str = "point"):
        self._gen = gen
        self._cache: dict[int, int] = {}
        self.name = name

    def value_at(self, n: int) -> int:
        if n < 0:
            raise IndexOutOfRange(f"points have no value at {n}")
        v = self._cache.get(n)
        if v is None:
            v = self._gen(n)
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"point {self.name} produced non-natural {v!r} at {n}")
            self._cache[n] = v
        return v

    __getitem__ = value_at

    def __repr__(self) -> str:
        return f"Point({self.name})"


def constant_point(c: int, name: str | None = None) -> Point:
    return Point(lambda _n: c, name or f"const {c}")


def pad(s: FinSeq, c: int) -> Point:
    """The point that starts with s and is constantly c afterwards."""
    items = s.items
    k = len(items)
    return Point(lambda n: items[n] if n < k else c, name=f"{list(items)}*{c}..")


def _from_trusted_tuple(items: tuple[int, ...]) -> FinSeq:
    # Bypasses entry validation for values that were already validated,
    # e.g. read back out of a Point. Keeps hot scan loops off the O(n)
    # re-validation path.
    s = object.__new__(FinSeq)
    s._items = items
    return s


def take(x: FinSeq | Point, n: int) -> FinSeq:
    """First n values of x as a FinSeq.

    For finite x this requires n <= len(x) and raises IndexOutOfRange
    otherwise; points are total, so any n is fine (and forces the cache).
    """
    if n < 0:
        raise IndexOutOfRange(f"cannot take {n} values")
    if isinstance(x, FinSeq):
        if n > len(x):
            raise IndexOutOfRange(f"take({n}) from sequence of length {len(x)}")
        return FinSeq(x.items[:n])
    return FinSeq(x.value_at(i) for i in range(n))


def concat(s: FinSeq, t: FinSeq) -> FinSeq:
    return FinSeq(s.items + t.items)


def extend(s: FinSeq, v: int) -> FinSeq:
    """s with one value appended; the workhorse of every tree walk here.

    Only the new entry is validated: s's own entries already were.
    """
    _check_natural(v)
    return _from_trusted_tuple(s.items + (v,))


def is_prefix(s: FinSeq, t: FinSeq) -> bool:
    return len(s) <= len(t) and t.items[: len(s)] == s.items


# Cantor pairing. pair is a bijection N x N -> N; both halves recoverable.

def _pair(a: int, b: int) -> int:
    t = a + b
    return t * (t + 1) // 2 + b


def _unpair(n: int) -> tuple[int, int]:
    w = (isqrt(8 * n + 1) - 1) // 2
    t = w * (w + 1) // 2
    b = n - t
    return w - b, b


def code(s: FinSeq) -> int:
    """Bijective sequence code.

    code(<>) = 0; a nonempty sequence is coded as 1 + pair(len-1, fold)
    where fold left-folds the entries through pair. Strictly monotone in
    prefix extension: appending any value strictly increases the code.
    """
    if len(s) == 0:
        return 0
    acc = s.items[0]
    for x in s.items[1:]:
        acc = _pair(acc, x)
    return 1 + _pair(len(s) - 1, acc)


def decode(n: int) -> FinSeq:
    """Inverse of code."""
    if n < 0:
        raise IndexOutOfRange(f"codes are naturals, got {n}")
    if n == 0:
        return EMPTY
    length_minus_1, acc = _unpair(n - 1)
    rev: list[int] = []
    for _ in range(length_minus_1):
        acc, x = _unpair(acc)
        rev.append(x)
    rev.append(acc)
    return FinSeq(reversed(rev))
