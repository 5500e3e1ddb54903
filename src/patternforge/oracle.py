"""Independent counting oracles for factor avoidance.

Two routes that share no code with the tree construction:

- exhaustive enumeration: a level-synchronous grid with no recursion,
  where cell (ones, zeros) holds the avoiding words with those step counts
  and each cell is built by prepending a 0 or a 1 to the words of two
  smaller cells, so its cost scales with the avoiding words, not with the
  candidate words.  Each source cell is released in slices as its target
  is built.  The budget guard still counts the candidates, C(n+m, m)
  summed over the fall counts m <= n, so the same requests are refused as
  by a generate-and-filter run;
- an exact dynamic program over (ones, zeros, state) with Python integers,
  driven by the factor's match automaton.  Its transitions come straight
  from their definition: state s has matched the first s letters of the
  factor, and reading c leads to the longest factor prefix that ends
  factor[:s] + c.  The sweep steps once per zero count: a fall from the
  rows of the zero count before, then a rise within the new rows.  It
  yields the counts for every fall count at once; that row is memoised
  per (pattern, ones), so the calls for the labels of one level share it.

A level with fewer than j ones holds no run of j ones, so every word of it
avoids the factor: both routes answer it without building the factor or
its automaton, whose size grows with j and not with the level.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .words import Pattern

__all__ = [
    "BudgetExceeded",
    "FactorAutomaton",
    "build_automaton",
    "brute_force",
    "count_avoiding",
    "level_count",
    "DEFAULT_BUDGET",
]

DEFAULT_BUDGET = 10**7

_SLICE = 4096  # words of a source cell that brute_force releases at a time


class BudgetExceeded(Exception):
    pass


@dataclass(frozen=True, slots=True)
class FactorAutomaton:
    """Match automaton for one factor: state = longest factor prefix that is
    a suffix of the input; the last state is absorbing (factor seen)."""

    factor: str
    transitions: tuple[tuple[int, int], ...]  # state -> (on '0', on '1')

    @property
    def dead(self) -> int:
        return len(self.factor)

    def scan(self, word: str) -> bool:
        """True when word avoids the factor."""
        state = 0
        dead = self.dead
        for bit in word:
            state = self.transitions[state][1 if bit == "1" else 0]
            if state == dead:
                return False
        return True


def build_automaton(pattern: Pattern) -> FactorAutomaton:
    """State s has matched the first s letters of the factor.  Reading c
    leads to the length of the longest factor prefix that ends
    factor[:s] + c; the whole factor is the absorbing dead state."""
    f = pattern.factor

    def delta(s: int, c: str) -> int:
        read = f[:s] + c
        return max(k for k in range(s + 2) if read.endswith(f[:k]))

    rows = [(delta(s, "0"), delta(s, "1")) for s in range(len(f))]
    rows.append((len(f), len(f)))  # absorbing
    return FactorAutomaton(f, tuple(rows))


def _check_budget(ones: int, budget: int) -> None:
    """Raise BudgetExceeded when the candidate words of brute_force(ones),
    C(ones+m, m) summed over the fall counts m <= ones, exceed budget."""
    total = sum(comb(ones + m, m) for m in range(ones + 1))
    if total > budget:
        raise BudgetExceeded(f"{total} candidate words exceed budget {budget}")


def _check_levels(max_ones: int, budget: int) -> None:
    """_check_budget for every level up to max_ones, lowest first, so an
    over-budget request names its first level over budget.  The level
    engine's census needs the same C(2n+1, n) cells per list for level n,
    so generate, verify and trace run this before they build anything."""
    for n in range(max_ones + 1):
        _check_budget(n, budget)


def brute_force(pattern: Pattern, ones: int, budget: int = DEFAULT_BUDGET) -> list[str]:
    """Every avoiding word with exactly `ones` rises and at most that many
    falls, sorted by (length, lexicographic).

    The words are built by prepending, on a grid with no recursion.  Cell
    (o, z) holds the avoiding words with o ones and z zeros in lexicographic
    order: "0" + w for every w of cell (o, z-1), then "1" + w for every w of
    cell (o-1, z) that does not start with the factor less its first 1.  A
    prepended 0 never completes 1^j 0^i, and a prepended 1 completes it
    exactly when the new word starts with it; in a sorted cell the words
    that would do so form one block, found by bisection and dropped.  A
    level with fewer than j ones holds no run of j ones, so it keeps every
    word and never builds the factor, which may be far longer than its
    words.  Row `ones`, joined in z order, is the output with no sort.  Each
    source cell is released a slice at a time as its target is built, so a
    cell and its source never both exist in full.
    """
    _check_budget(ones, budget)
    if ones < 0:
        return []
    tail = pattern.factor[1:] if pattern.j <= ones else None
    row = [["0" * z] for z in range(ones + 1)]  # row 0: only zeros
    for _ in range(ones):
        below: list[str] = []  # cell (o, z-1) of the row being built
        for z, source in enumerate(row):
            cell = ["0" + w for w in below]
            if tail is not None:
                start = bisect_left(source, tail)
                # tail + "2" sorts after every word that starts with tail
                del source[start : bisect_left(source, tail + "2", start)]
            while source:
                cell += ["1" + w for w in source[:_SLICE]]
                del source[:_SLICE]
            row[z] = below = cell
    # Joined onto the last cell, the largest, so the list grows from it
    # and no copy of the whole row is made while the row is still held.
    words = row.pop()
    while row:
        words[:0] = row.pop()
    return words


@lru_cache(maxsize=256)
def _counts_by_zeros(pattern: Pattern, ones: int, width: int) -> tuple[int, ...]:
    """count_avoiding(pattern, ones, z) for every z in 0..width, from one
    sweep of the DP over the zeros.  rows[o][s] counts the avoiding words
    with o ones and the current zero count that end in live state s.  The
    empty word seeds zero count 0; each later zero count is a fall from the
    rows of the one before, and every zero count then rises row by row.
    With fewer than j ones every word avoids the factor, so the counts are
    the binomials C(ones + z, z), and no automaton is built: it has j + i
    states, which may be far more than the words have letters."""
    if pattern.j > ones:
        return tuple(comb(ones + z, z) for z in range(width + 1))
    aut = build_automaton(pattern)
    moves, dead = aut.transitions, aut.dead  # live states 0..dead-1

    def push(source: list[int], target: list[int], bit: int) -> None:
        for s, c in enumerate(source):
            if c:
                s2 = moves[s][bit]
                if s2 != dead:
                    target[s2] += c

    by_zeros = []
    for z in range(width + 1):
        new = [[0] * dead for _ in range(ones + 1)]
        if z:
            for old_row, new_row in zip(rows, new):
                push(old_row, new_row, 0)
        else:
            new[0][0] = 1  # the empty word
        for o in range(ones):
            push(new[o], new[o + 1], 1)
        rows = new
        by_zeros.append(sum(rows[ones]))
    return tuple(by_zeros)


def count_avoiding(pattern: Pattern, ones: int, zeros: int) -> int:
    """Exact number of avoiding words with the given step counts."""
    if ones < 0 or zeros < 0:
        return 0
    return _counts_by_zeros(pattern, ones, max(ones, zeros))[zeros]


def level_count(pattern: Pattern, ones: int) -> int:
    """Total avoiding words with exactly `ones` rises over all legal fall counts."""
    return sum(_counts_by_zeros(pattern, ones, ones)) if ones >= 0 else 0
