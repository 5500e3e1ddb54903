"""Independent counting oracles for factor avoidance.

Two routes that share no code with the tree construction:

- exhaustive enumeration of a level as two half-levels joined at a seam.
  A level-synchronous grid with no recursion, where cell (ones, zeros)
  holds the avoiding words with those step counts, each built by
  prepending a 0 or a 1 to the words of two smaller cells, is built to
  half the level.  A word of the level is a left word, ending in its k-th
  1 for k = ones // 2, followed by a right word; each half avoids the
  factor, so the two can hold it only across the seam, and each right
  cell loses the few sorted blocks that would complete it there.  No left
  word is a prefix of another, so joining the left words in order, each
  with its right cells in order, gives the sorted level with no sort, and
  each output word is built once: at 11 ones, (3,2) and (4,1) build 1.07
  and 1.08 strings per word returned.  The budget guard still counts the
  candidates, C(n+m, m) summed over the fall counts m <= n, so the same
  requests are refused as by a generate-and-filter run;
- an exact dynamic program over (ones, zeros, state) with Python integers,
  driven by the factor's match automaton.  Its transitions come straight
  from their definition: state s has matched the first s letters of the
  factor, and reading c leads to the longest factor prefix that ends
  factor[:s] + c.  Cell (o, z) of its grid is a fall from cell (o, z-1)
  plus a rise from cell (o-1, z).  Each pattern has one square of that
  grid, grown a side at a time across calls: a new column of falls from
  the old one, then a new row of rises from the old one.  Only the
  square's last row and last column are held, and a request is read off
  the edge at its size, so requests that climb level by level, as
  `verify` and the rule census checks make them, build each cell once.
  The sums of the last 256 edges are kept; a smaller request whose edge
  is no longer kept regrows the square from the empty word.

The cluster method (Goulden and Jackson 1979) gives a third count that
shares no code with either route: `cluster_census` sums the marked copies
of the words with given step counts by sign.

A level with fewer than j ones holds no run of j ones, so every word of it
avoids the factor: both routes answer it without building the factor or
its automaton, whose size grows with j and not with the level.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from math import comb
from typing import NamedTuple

from .words import Pattern

__all__ = [
    "BudgetExceeded",
    "FactorAutomaton",
    "build_automaton",
    "brute_force",
    "cluster_census",
    "count_avoiding",
    "level_count",
    "DEFAULT_BUDGET",
]

DEFAULT_BUDGET = 10**7

_Moves = tuple[tuple[int, int], ...]  # (live state, live state it moves to on one bit)


class BudgetExceeded(Exception):
    pass


class FactorAutomaton(NamedTuple):
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
    C(ones+m, m) summed over the fall counts m <= ones, exceed budget.  By
    the hockey-stick identity that sum is C(2 ones + 1, ones), and 0 (the
    empty sum) for ones < 0."""
    total = comb(2 * ones + 1, ones) if ones >= 0 else 0
    if total > budget:
        raise BudgetExceeded(f"{total} candidate words exceed budget {budget}")


def _check_levels(max_ones: int, budget: int) -> None:
    """_check_budget for every level up to max_ones, lowest first, so an
    over-budget request names its first level over budget.  The level
    engine's census needs the same C(2n+1, n) cells per list for level n,
    so generate, verify and trace run this before they build anything."""
    for n in range(max_ones + 1):
        _check_budget(n, budget)


def _drop(cell: list[str], prefix: str) -> list[str]:
    """The sorted cell without its words that start with prefix: one block,
    found by bisection.  prefix + "2" sorts after every word that starts
    with prefix."""
    start = bisect_left(cell, prefix)
    end = bisect_left(cell, prefix + "2", start)
    return cell[:start] + cell[end:] if start < end else cell


def _next_row(row: list[list[str]], tail: str | None) -> list[list[str]]:
    """Row o+1 of the enumeration grid from row o.  Cell z is "0" + w for
    every w of cell z-1 of the new row, then "1" + w for every w of cell z
    of row o that does not start with tail, the factor less its first 1."""
    new: list[list[str]] = []
    below: list[str] = []
    for source in row:
        below = ["0" + w for w in below]
        below += ["1" + w for w in (source if tail is None else _drop(source, tail))]
        new.append(below)
    return new


def brute_force(pattern: Pattern, ones: int, budget: int = DEFAULT_BUDGET) -> list[str]:
    """Every avoiding word with exactly `ones` rises and at most that many
    falls, sorted by (length, lexicographic).

    The words come from two half-levels built by prepending, on a grid with
    no recursion.  Cell (o, z) holds the avoiding words with o ones and z
    zeros in lexicographic order: "0" + w for every w of cell (o, z-1), then
    "1" + w for every w of cell (o-1, z) that does not start with the factor
    less its first 1.  A prepended 0 never completes 1^j 0^i, and a
    prepended 1 completes it exactly when the new word starts with it; in a
    sorted cell those words form one block, found by bisection and dropped.

    A word of the level splits after its k-th 1, k = ones // 2, into l + x:
    l is a word of row k-1 with "1" appended, x a word of row ones-k, the
    last row built.  Each half avoids the factor, so l + x holds it only
    across the seam: when l ends in r ones and x starts with s ones and
    then at least i zeros, with r + s >= j.  So after a left word ending in
    r ones, each right cell loses the blocks of words that start with
    1^s 0^i for s >= j - r, one more block for each r up to j.  Two left
    words are never prefixes of each other, so the left words in
    lexicographic order, each followed by its right cell in order, give
    each zero count's words sorted, and one pass over the zero counts
    joins the output with no sort.

    A level with fewer than j ones holds no run of j ones, so it keeps every
    word and never builds the factor, which may be far longer than its
    words.
    """
    _check_budget(ones, budget)
    if ones < 0:
        return []
    half = ones // 2
    factor = pattern.factor if pattern.j <= ones else None
    tail = None if factor is None else factor[1:]
    row = [["0" * z] for z in range(ones + 1)]  # row 0: only zeros
    lefts = [""]  # the left words: the empty word when half is 0
    for o in range(1, ones - half + 1):
        if o == half:
            lefts = sorted(w + "1" for cell in row for w in cell)
        row = _next_row(row, tail)
    # seams[r]: the right cells that may follow a left word ending in r
    # ones, seams[r-1] less the words that start with 1^(j-r) 0^i, the
    # factor less its first r letters; past r = j no more words go
    seams = [row]
    for r in range(1, half + 1):
        cells = seams[-1]
        seams.append(cells if factor is None or r > pattern.j else [_drop(c, factor[r:]) for c in cells])
    # Parallel lists, not a tuple per left word: thousands of new tuples
    # would set off gen-0 collections, and each of those also traverses any
    # large list the caller has made since the last one.
    zeros = [len(l) - half for l in lefts]
    rights = [seams[len(l) - len(l.rstrip("1"))] for l in lefts]
    return [l + x for z in range(ones + 1) for l, a, cells in zip(lefts, zeros, rights) if a <= z for x in cells[z - a]]


def _line(old: list[list[int]], first: _Moves, along: _Moves, dead: int) -> list[list[int]]:
    """One new edge of the square, a cell per cell of the old edge `old`:
    that cell pushed through the moves `first`, plus the cell built just
    before it pushed through `along`.  A push adds the words of live state
    s to state t for each move (s, t); moves into the dead state are left
    out of both tuples."""
    line: list[list[int]] = []
    prev = None
    for source in old:
        cell = [0] * dead
        for s, t in first:
            cell[t] += source[s]
        if prev is not None:
            for s, t in along:
                cell[t] += prev[s]
        line.append(cell)
        prev = cell
    return line


class _Square:
    """The DP grid of one pattern, grown a square at a time.  Cell (o, z)
    counts the avoiding words with o ones and z zeros by the live state
    they end in; it is cell (o, z-1) with a 0 appended plus cell (o-1, z)
    with a 1 appended.  Only the edge of the square of side `size` is held:
    `row`, the cells (size, z), and `col`, the cells (o, size), for z and o
    in 0..size, so memory grows with the size, not with its square."""

    __slots__ = ("dead", "falls", "rises", "size", "row", "col")

    def __init__(self, pattern: Pattern) -> None:
        aut = build_automaton(pattern)
        self.dead = aut.dead  # live states 0..dead-1
        live = aut.transitions[: aut.dead]
        self.falls, self.rises = (
            tuple((s, moves[bit]) for s, moves in enumerate(live) if moves[bit] != aut.dead) for bit in (0, 1)
        )
        self._seed()

    def _seed(self) -> None:
        cell = [0] * self.dead
        cell[0] = 1  # the empty word
        self.size, self.row, self.col = 0, [cell], [cell]

    def grow_to(self, size: int) -> None:
        """Hold the edge of the square of side `size`.  A smaller square
        than the one held is regrown from the empty word."""
        if size < self.size:
            self._seed()
        while self.size < size:
            # column z = size+1: a fall from the old column, then a rise
            # from the cell below; row o = size+1: a rise from the old row
            # and the new column's top cell, then a fall from the left
            col = _line(self.col, self.falls, self.rises, self.dead)
            self.row = _line(self.row + col[-1:], self.rises, self.falls, self.dead)
            self.col = col + self.row[-1:]
            self.size += 1


@lru_cache(maxsize=16)
def _square(pattern: Pattern) -> _Square:
    return _Square(pattern)


@lru_cache(maxsize=256)
def _edge_sums(pattern: Pattern, size: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The counts on the edge of the square of side `size`: the row,
    count_avoiding(pattern, size, z) for z in 0..size, and the column,
    count_avoiding(pattern, o, size) for o in 0..size."""
    square = _square(pattern)
    square.grow_to(size)
    return tuple(map(sum, square.row)), tuple(map(sum, square.col))


def _clear_counts() -> None:
    """Forget every held square and edge, so the next count starts from the
    empty word."""
    _edge_sums.cache_clear()
    _square.cache_clear()


def count_avoiding(pattern: Pattern, ones: int, zeros: int) -> int:
    """Exact number of avoiding words with the given step counts.

    The count is read off the edge of the pattern's square at side
    max(ones, zeros): its row when ones is the larger, its column
    otherwise.  Requests that climb in size grow one square across calls,
    each cell built once.  With fewer than j ones every word avoids the
    factor, so the count is the binomial C(ones + zeros, zeros), and no
    automaton is built: it has j + i states, which may be far more than
    the words have letters."""
    if ones < 0 or zeros < 0:
        return 0
    if pattern.j > ones:
        return comb(ones + zeros, zeros)
    row, col = _edge_sums(pattern, max(ones, zeros))
    return row[zeros] if ones >= zeros else col[ones]


def level_count(pattern: Pattern, ones: int) -> int:
    """Total avoiding words with exactly `ones` rises over all legal fall counts."""
    return sum(count_avoiding(pattern, ones, z) for z in range(ones + 1))


def cluster_census(j: int, i: int, ones: int, zeros: int) -> tuple[int, int]:
    """(plus, minus) copies of the words with `ones` ones and `zeros` zeros
    by the cluster method (Goulden and Jackson 1979): 1^j 0^i cannot overlap
    itself, so a copy marking m occurrences is a word of a = ones + zeros -
    (j+i-1)m letters, m of them marked factors, with sign (-1)^m.  Their
    difference is the number of words that avoid the factor.  (j, i) is
    checked as Pattern checks it: ValueError unless 0 < i < j."""
    Pattern(j, i)
    plus = minus = 0
    for m in range(min(ones // j, zeros // i) + 1):
        a = ones + zeros - (j + i - 1) * m
        copies = comb(a, m) * comb(a - m, ones - j * m)
        if m % 2:
            minus += copies
        else:
            plus += copies
    return plus, minus
