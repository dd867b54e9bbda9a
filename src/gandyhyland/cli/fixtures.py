"""Named fixtures shared by the CLI and the acceptance checks.

Functional fixtures come in two flavours: expression-backed ones built
through the DSL, and the flag functionals which are induced by associates
over a one-hot stream and so carry no syntactic form.
"""

from __future__ import annotations

from ..errors import ParseError
from ..fan import BinTree
from ..functionals import (
    Associate,
    DEFAULT_FUEL,
    Functional,
    associate_from_functional,
    epsilon_flag,
    functional_from_associate,
    gamma_flag,
)
from ..sequences import FinSeq, Point, constant_point, pad
from .dsl import functional_from_ast, parse_spec

EXPR_FIXTURES: dict[str, str] = {
    "const0": "0",
    "const2": "2",
    "proj0": "f(0)",
    "proj1": "f(1)",
    "proj2": "f(2)",
    "proj3": "f(3)",
    "sum01": "f(0)+f(1)",
    "nest": "f(f(0))",
    "plus1": "f(0)+1",
}

FLAG_FIXTURES = ("flag-gamma", "flag-epsilon")


def flag_stream(m0: int) -> Point:
    """One-hot stream: 1 at position m0, 0 elsewhere."""
    return Point(lambda n: 1 if n == m0 else 0, name=f"onehot{m0}")


def beta_point(m: int) -> Point:
    """m zeros followed by the constant m."""
    return Point(lambda n: 0 if n < m else m, name=f"beta{m}")


def flag_associate(name: str, m0: int) -> Associate:
    maker = gamma_flag if name == "flag-gamma" else epsilon_flag
    assoc = maker(flag_stream(m0))
    return Associate(query=assoc.query, name=f"{name}[{m0}]")


def functional_fixture(name: str, m0: int = 3, fuel_budget: int = DEFAULT_FUEL) -> Functional:
    """Look up a functional fixture by name.

    Raises ValueError on an unknown name so the CLI can report it as a
    usage problem rather than an evaluation failure.
    """
    if name in FLAG_FIXTURES:
        return functional_from_associate(flag_associate(name, m0), fuel_budget)
    text = EXPR_FIXTURES.get(name)
    if text is None:
        known = ", ".join(sorted(EXPR_FIXTURES) + list(FLAG_FIXTURES))
        raise ValueError(f"unknown functional fixture {name!r} (known: {known})")
    return functional_from_ast(parse_spec(text))


def expr_functional(text: str) -> Functional:
    """Build a functional from raw expression text. ParseError passes through."""
    return functional_from_ast(parse_spec(text))


def _no_consecutive_ones(s: FinSeq) -> bool:
    if any(x > 1 for x in s):
        return False
    return all(not (s[i] == 1 and s[i + 1] == 1) for i in range(len(s) - 1))


TREE_FIXTURES: dict[str, BinTree] = {
    "empty": BinTree(member=lambda s: False, name="empty"),
    **{
        f"full-{k}": BinTree(
            member=lambda s, _k=k: len(s) <= _k and all(x <= 1 for x in s), name=f"full-{k}"
        )
        for k in range(4)
    },
    "no-consecutive-ones": BinTree(member=_no_consecutive_ones, name="no-consecutive-ones"),
}


def tree_fixture(name: str) -> BinTree:
    tree = TREE_FIXTURES.get(name)
    if tree is None:
        raise ValueError(f"unknown tree fixture {name!r} (known: {', '.join(TREE_FIXTURES)})")
    return tree


def catalog_functionals() -> list[Functional]:
    """The six functionals the depth-limit checks sweep over."""
    return [
        functional_fixture("const2"),
        functional_fixture("proj0"),
        functional_fixture("proj2"),
        functional_fixture("sum01"),
        functional_fixture("nest"),
        functional_fixture("flag-gamma", m0=3),
    ]


def catalog_fan_functionals() -> list[Functional]:
    """Type-two maps used on the fan side."""
    return [
        functional_fixture("const2"),
        functional_fixture("plus1"),
        functional_fixture("proj2"),
        functional_fixture("nest"),
    ]


def catalog_associates() -> list[Associate]:
    """Flag associates at three thresholds plus derived catalog associates."""
    out: list[Associate] = []
    for m0 in (3, 4, 5):
        out.append(flag_associate("flag-gamma", m0))
        out.append(flag_associate("flag-epsilon", m0))
    for name in ("const2", "proj0", "proj2", "sum01", "nest"):
        out.append(associate_from_functional(functional_fixture(name)))
    return out


def sample_points() -> list[Point]:
    """Ten probe points, all with entries at most 2."""
    return [
        constant_point(0, name="zeros"),
        constant_point(1, name="ones"),
        constant_point(2, name="twos"),
        Point(lambda n: n % 2, name="alt01"),
        Point(lambda n: (n + 1) % 2, name="alt10"),
        Point(lambda n: n % 3, name="cycle012"),
        Point(lambda n: min(n, 2), name="ramp2"),
        pad(FinSeq((1, 0, 2)), 0),
        pad(FinSeq((2, 2, 2, 2)), 0),
        pad(FinSeq((0, 1, 2, 1)), 1),
    ]


def crafted_mu_points() -> list[tuple[Point, int]]:
    """Fifty points paired with their least zero, which sits at index <= 20.

    Entries below the zero are forced into {1, 2, 3} so the zero really is
    the first one.
    """
    out: list[tuple[Point, int]] = []
    for i in range(50):
        z = i % 21

        def gen(n: int, _i: int = i, _z: int = z) -> int:
            if n < _z:
                return 1 + (n * 7 + _i) % 3
            if n == _z:
                return 0
            return (n + _i) % 3

        out.append((Point(gen, name=f"crafted{i}"), z))
    return out


def parse_seq(text: str) -> FinSeq:
    """Parse "a,b,c" into a finite sequence; empty or blank text is empty.

    Each entry is ASCII digits 0-9, the expression grammar's naturals,
    blanks around it aside; a bad entry is named at its own column.
    """
    if not text.strip():
        return FinSeq(())
    items = []
    offset = 0
    for part in text.split(","):
        entry = part.strip()
        if not (entry.isascii() and entry.isdigit()):
            at = offset + len(part) - len(part.lstrip())
            raise ParseError(f"bad sequence literal: entry {entry!r} is not a natural", at, text)
        items.append(int(entry))
        offset += len(part) + 1
    return FinSeq(tuple(items))
