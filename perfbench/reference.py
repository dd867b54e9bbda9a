"""Reference values computed without the gandyhyland package.

Everything here works over plain tuples and Python functions, so a defect
in the package's evaluator, memo, coding or fan search cannot hide in its
own reference. Functionals are small expression trees made of nested
tuples:

    ("lit", v)  ("f", e)  ("add", a, b)  ("mul", a, b)  ("ifz", c, a, b)

with the same meaning as in the command line's expression language:
f(e) reads the argument at index e, and ifz(c, a, b) is a when c is zero
and b otherwise.
The flag functionals of the fixture catalog are expressions too: the flag
associate over the one-hot stream at m0 decides once a prefix is longer
than m0 and answers offset + sigma(m0), where an answer a means the value
a - 1; so the functional is f(m0) + offset - 1.
"""

from __future__ import annotations

from itertools import product
from typing import Callable

Expr = tuple
PointFn = Callable[[int], int]


def lit(v: int) -> Expr:
    return ("lit", v)


def probe(e: Expr | int) -> Expr:
    return ("f", lit(e) if isinstance(e, int) else e)


def add(a: Expr, b: Expr) -> Expr:
    return ("add", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    return ("mul", a, b)


def ifz(c: Expr, a: Expr, b: Expr) -> Expr:
    return ("ifz", c, a, b)


# The fixture catalog by name, as expressions.
CATALOG: dict[str, Expr] = {
    "const2": lit(2),
    "proj0": probe(0),
    "proj2": probe(2),
    "sum01": add(probe(0), probe(1)),
    "nest": probe(probe(0)),
}


def flag(offset: int, m0: int) -> Expr:
    """flag-gamma is flag(1, m0), flag-epsilon is flag(2, m0)."""
    return probe(m0) if offset == 1 else add(probe(m0), lit(offset - 1))


def render(e: Expr) -> str:
    """Expression text the command line's parser accepts."""
    tag = e[0]
    if tag == "lit":
        return str(e[1])
    if tag == "f":
        return f"f({render(e[1])})"
    if tag == "ifz":
        return f"ifz({render(e[1])},{render(e[2])},{render(e[3])})"
    left, right = render(e[1]), render(e[2])
    if tag == "add":
        return f"{left}+({right})" if e[2][0] == "add" else f"{left}+{right}"
    wrap = lambda sub, text: f"({text})" if sub[0] in ("add", "mul") else text
    return f"{wrap(e[1], left)}*{wrap(e[2], right)}"


def evaluate(e: Expr, point: PointFn) -> int:
    tag = e[0]
    if tag == "lit":
        return e[1]
    if tag == "f":
        return point(evaluate(e[1], point))
    if tag == "add":
        return evaluate(e[1], point) + evaluate(e[2], point)
    if tag == "mul":
        return evaluate(e[1], point) * evaluate(e[2], point)
    return evaluate(e[2] if evaluate(e[1], point) == 0 else e[3], point)


def deepest_read(e: Expr, point: PointFn) -> int:
    """One past the largest index e reads on point (0 if it reads none)."""
    deepest = -1

    def tracked(i: int) -> int:
        nonlocal deepest
        deepest = max(deepest, i)
        return point(i)

    evaluate(e, tracked)
    return deepest + 1


def padded(items: tuple[int, ...]) -> PointFn:
    """The zero-padding of a finite sequence."""
    k = len(items)
    return lambda i: items[i] if i < k else 0


def gamma(e: Expr, s: tuple[int, ...], memo: dict) -> int:
    """Literal unfolding of the defining equation

        value(s) = Y(s * 0 * (n -> value(s * <n+1>)))

    with no depth bound and no approximation; memo only remembers values
    already unfolded. Terminates because every expression here reads
    finitely deep.
    """
    key = (e, s)
    if key in memo:
        return memo[key]
    k = len(s)

    def point(i: int) -> int:
        if i < k:
            return s[i]
        if i == k:
            return 0
        return gamma(e, s + (i - k,), memo)

    value = evaluate(e, point)
    memo[key] = value
    return value


def associate_modulus(e: Expr, point: PointFn, limit: int = 64) -> int:
    """Length of the first prefix of point on which the canonical
    associate of e decides: the least n whose zero-padding e reads only
    below n."""
    for n in range(limit):
        prefix = tuple(point(i) for i in range(n))
        if deepest_read(e, padded(prefix)) <= n:
            return n
    raise ValueError(f"{render(e)} reads past {limit} along the point")


def fan_bound(e: Expr, h: int, length: int = 6) -> int:
    """Least n such that every prefix of length n bounded by the constant
    h pins the value of e over every h-bounded continuation to length.

    length must exceed every index e can read on such points; 6 covers
    every catalog functional at h <= 3.
    """
    values = {
        seq: evaluate(e, padded(seq)) for seq in product(range(h + 1), repeat=length)
    }
    for n in range(length + 1):
        seen: dict[tuple[int, ...], int] = {}
        if all(seen.setdefault(seq[:n], v) == v for seq, v in values.items()):
            return n
    raise ValueError(f"{render(e)} reads at or past {length}")


def point_from_spec(spec: dict) -> PointFn:
    """A point given as a finite prefix followed by a repeating period."""
    prefix, period = tuple(spec["prefix"]), tuple(spec["period"])
    k = len(prefix)
    return lambda i: prefix[i] if i < k else period[(i - k) % len(period)]
