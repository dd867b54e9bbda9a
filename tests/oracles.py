"""Frozen expected values and independent brute-force oracles.

The constants were worked out by hand before the implementation settled;
tests compare library output against them rather than against other
library calls. The brute functions recompute the same quantities by the
most literal method available, sharing no code with the package's search
or memoisation machinery.
"""

from __future__ import annotations

from itertools import product

from typing import Callable

from gandyhyland import FinSeq, Functional, Point, extend, pad
from gandyhyland.cli.dsl import Add, Ifz, Least, Lit, Mul, Probe

# Sequence coding anchors: empty first, then by pairing. Strictly monotone
# under extension, so a proper extension always has the larger code.
CODE_ANCHORS = {
    (): 0,
    (0,): 1,
    (0, 0): 2,
    (1,): 3,
    (0, 0, 0): 4,
    (1, 0): 5,
    (2,): 6,
    (0, 0, 0, 0): 7,
}

# Depth-limited values for f(0)+f(1) at start 5,7: depth 2 keeps both
# entries, depth 1 truncates to the first.
H_SUM01_AT_57 = {2: 12, 1: 5}

# One-padded variant at the same start, depth 1: the kept prefix is 5 and
# position 1 reads the one-padding, so f(0)+f(1) sees 5+1. A functional
# that never reads past the kept prefix is unaffected by the padding.
HHAT_SUM01_AT_57_DEPTH1 = 6
HHAT_PROJ0_AT_57_DEPTH1 = 5

# Joint settling of f(0)+f(1) at the empty start: depth 0 gives 0 on both
# families, depth 1 onward gives 1 on both.
STABILIZE_SUM01_EMPTY = (1, 1)

# Flag functional with decision offset 2 and threshold 3: the child chain
# under the read position contributes three unfoldings plus the base.
STABILIZE_EPSILON3_EMPTY = (3, 4)

# Associate behaviour landmarks.
CONST2_ASSOC_EMPTY_QUERY = 3
SUM01_ASSOC_QUERIES = {(2, 3): 6, (2,): 0}
GAMMA_FLAG3_QUERY_0000 = 1

# The two flag associates over the same one-hot stream at threshold 3
# agree on every sequence whose code is below the code of 0,0,0,0 and
# differ there, so the first-difference witness is that code plus one.
FLAG3_FIRST_DIFF_CODE = 7
EXT_WITNESS_FLAGS3 = 8

# Uniform bounds over binary points.
FAN_MODULI = {
    "const2": 0,
    "proj0": 1,
    "proj2": 3,
    "sum01": 2,
    "nest": 2,
    "flag-gamma3": 4,
}
FULL_FAN_PROJ3_H5 = 4

# special_fan outputs: (bound, number of points).
SPECIAL_FAN_CONST2 = (2, 4)
SPECIAL_FAN_PLUS1 = (2, 4)
SPECIAL_FAN_CONST0 = (0, 1)

# Pointwise covering bounds at the all-zero point with unit height.
PWC_PROJ1_ZEROS_H1 = 1
PWC_CONST0_ZEROS_H1 = 0
PWC_CONST5_ZEROS_H1 = 5

# Witness-based modulus values at handy points.
GHS_FLAG3_AT_ONES = 4
GHS_FLAG5_AT_ONES = 6
GHS_PROJ2_AT_TWOS = 3
GHS_SUM01_AT_ONES = 2
GHS_NEST_AT_ZEROS = 1

# Certified depth for f(2) at the empty start with unit height.
CERTIFIED_PROJ2_EMPTY_H1 = 3

# Certified depths under the constant bound 2 at the starts of
# enumerate_sequences(2, 3): len(s) plus this modulus of the lifted bound.
# f(0)+f(3) at the empty start reads a child above 2 and has none. Recorded
# while the bound was checked on every child read, before the certificate
# audited it, so they pin that the move changed no outcome.
CERTIFIED_H2_MODULI = {
    "2": 0,
    "f(0)": 1,
    "f(2)": 3,
    "f(0)+f(1)": 2,
    "f(f(0))": 3,
    "flag-gamma[3]": 4,
    "f(0)+f(3)": 4,
    "ifz(f(2),1,f(4))": 5,
    "least(2,f(1))": 3,
}

# A zero at position 20 behind nonzero noise: the flag associates of the
# zero indicator first differ at the code of the all-zero sequence of
# length 21, which is 1 + 20*21/2.
ZERO_AT_20_EXT_WITNESS = 212

TREE_COUNTS = [2, 5, 26, 677]


def tree_count_recurrence(height: int) -> int:
    n = 2
    for _ in range(height):
        n = 1 + n * n
    return n


def brute_least_zero(point: Point, limit: int) -> int | None:
    for n in range(limit):
        if point.value_at(n) == 0:
            return n
    return None


def brute_gamma(y: Functional, s: FinSeq, guard: int = 64) -> int:
    """Literal unfolding of the defining equation.

    No staged approximation, no memo: the argument point computes child
    values straight through the same unfolding. Terminates exactly when y
    only ever reads finitely deep, which holds for every catalog
    functional; the guard turns a runaway into a test failure instead of
    a stack fault.
    """
    if guard == 0:
        raise RecursionError("brute gamma unfolding ran too deep")
    k = len(s)

    def gen(i: int) -> int:
        if i < k:
            return s[i]
        if i == k:
            return 0
        return brute_gamma(y, extend(s, i - k), guard - 1)

    return y.apply(Point(gen, name=f"brute block {list(s)}"))


def brute_h(y: Functional, s: FinSeq, m: int) -> int:
    """Literal depth-m truncating unfolding, no memo.

    A sequence at least m long is cut to its first m values and padded
    with zeros. A shorter one is applied at s, then 0, then the values at
    its one-step extensions by 1 .. m, computed the same way, then zeros.
    """
    k = len(s)
    if k >= m:
        return y.apply(pad(FinSeq(s.items[:m]), 0))

    def gen(i: int) -> int:
        if i < k:
            return s[i]
        if i == k:
            return 0
        if i - k <= m:
            return brute_h(y, extend(s, i - k), m)
        return 0

    return y.apply(Point(gen, name=f"brute h-block {list(s)}@{m}"))


def brute_ghs_witness(
    y: Functional, alpha: Point, window: int, nmax: int, value_cap: int, tail_cap: int
) -> int | None:
    """Least K <= nmax such that brute_h at every depth K .. K+window
    equals brute_gamma on every candidate for every m in K .. K+window;
    None if there is none.

    The candidates at m are found by brute force: every sequence at most
    m + tail_cap long, with entries at most value_cap, whose zero-padding
    agrees with alpha on the first m values.
    """
    for k0 in range(nmax + 1):
        depths = range(k0, k0 + window + 1)
        if all(
            brute_h(y, s, n) == brute_gamma(y, s)
            for m in depths
            for length in range(m + tail_cap + 1)
            for s in map(FinSeq, product(range(value_cap + 1), repeat=length))
            if all((s[i] if i < length else 0) == alpha.value_at(i) for i in range(m))
            for n in depths
        ):
            return k0
    return None


def brute_fan_bound(y: Functional, max_n: int = 10, lookahead: int = 8) -> int:
    """Least prefix length that pins the value over binary points.

    Checks every binary prefix of the candidate length against every
    binary continuation of the lookahead length. The lookahead must cover
    the functional's reads beyond the candidate prefix; 8 is ample for
    every catalog functional, which reads position 5 at the deepest.
    """
    for n in range(max_n):
        if all(
            len(
                {
                    y.apply(pad(FinSeq(bits + tail), 0))
                    for tail in product((0, 1), repeat=lookahead)
                }
            )
            == 1
            for bits in product((0, 1), repeat=n)
        ):
            return n
    raise AssertionError(f"no fan bound for {y.name} below {max_n}")


def bounded_points(h: Point, length: int) -> list[FinSeq]:
    """All sequences of the given length lying under h pointwise."""
    ranges = [range(h.value_at(i) + 1) for i in range(length)]
    return [FinSeq(items) for items in product(*ranges)]


def brute_dialogue_answer(
    entries: list[tuple[tuple[tuple[int, int], ...], int]], values: list[int]
) -> int | None:
    """Answer of the last row whose every (position, value) read agrees
    with values; None when no row agrees. values must cover every
    position a row reads."""
    answer = None
    for dialogue, row_answer in entries:
        if all(values[position] == value for position, value in dialogue):
            answer = row_answer
    return answer


def brute_eval_ast(node, read: Callable[[int], int]) -> int:
    """Value of an expression tree, by plain recursion over its nodes,
    with read(i) giving the argument's value at i. Operands are evaluated
    left to right, ifz evaluates only the branch it picks, and least(k, e)
    evaluates e with reads shifted by j for j = 0 .. k-1."""
    if isinstance(node, Lit):
        return node.value
    if isinstance(node, Probe):
        return read(brute_eval_ast(node.arg, read))
    if isinstance(node, Add):
        left = brute_eval_ast(node.left, read)
        return left + brute_eval_ast(node.right, read)
    if isinstance(node, Mul):
        left = brute_eval_ast(node.left, read)
        return left * brute_eval_ast(node.right, read)
    if isinstance(node, Ifz):
        if brute_eval_ast(node.cond, read) == 0:
            return brute_eval_ast(node.if_zero, read)
        return brute_eval_ast(node.if_nonzero, read)
    if isinstance(node, Least):
        for j in range(node.bound):
            if brute_eval_ast(node.body, lambda i, j=j: read(i + j)) == 0:
                return j
        return node.bound
    raise TypeError(f"not an expression node: {node!r}")
