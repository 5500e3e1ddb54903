"""Independent counting oracles for factor avoidance.

Two routes that share no code with the tree construction:

- exhaustive enumeration: grows words depth-first and drops a prefix as
  soon as it ends with the factor, so its cost scales with the avoiding
  prefixes, not with the candidate words.  The budget guard still counts
  the candidates, C(n+m, m) summed over the fall counts m <= n, so the
  same requests are refused as by a generate-and-filter run;
- a failure-function automaton driving an exact dynamic program over
  (ones, zeros, state) with Python integers.  One sweep over the zeros
  yields the counts for every fall count at once; that row is memoised
  per (pattern, ones), so the calls for the labels of one level share it.
"""

from __future__ import annotations

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

    def step(self, state: int, bit: str) -> int:
        return self.transitions[state][1 if bit == "1" else 0]

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
    f = pattern.factor
    n = len(f)
    # classic prefix-function table
    pi = [0] * n
    for t in range(1, n):
        q = pi[t - 1]
        while q and f[t] != f[q]:
            q = pi[q - 1]
        pi[t] = q + 1 if f[t] == f[q] else 0

    def delta(s: int, c: str) -> int:
        while True:
            if s < n and f[s] == c:
                return s + 1
            if s == 0:
                return 0
            s = pi[s - 1]

    rows = [(delta(s, "0"), delta(s, "1")) for s in range(n)]
    rows.append((n, n))  # absorbing
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
    engine's census needs the same C(2n+1, n) cells per sign for level n,
    so generate, verify and trace run this before they build anything."""
    for n in range(max_ones + 1):
        _check_budget(n, budget)


def brute_force(pattern: Pattern, ones: int, budget: int = DEFAULT_BUDGET) -> list[str]:
    """Every avoiding word with exactly `ones` rises and at most that many
    falls, sorted by (length, lexicographic).

    A word contains the factor exactly when one of its prefixes ends with
    it, and only a fall can complete it, so the walk tests each fall it
    appends and never extends a prefix that holds the factor.  Trying `0`
    before `1` meets the words of each fall count in lexicographic order.
    """
    _check_budget(ones, budget)
    factor = pattern.factor
    by_falls: list[list[str]] = [[] for _ in range(ones + 1)]

    def grow(prefix: str, o: int, z: int) -> None:
        if o == ones:  # only falls are left to append
            while True:
                by_falls[z].append(prefix)
                if z == ones:
                    return
                prefix += "0"
                if prefix.endswith(factor):
                    return
                z += 1
        if z < ones:
            fell = prefix + "0"
            if not fell.endswith(factor):
                grow(fell, o, z + 1)
        grow(prefix + "1", o + 1, z)

    if ones >= 0:
        grow("", 0, 0)
    return [word for words in by_falls for word in words]


@lru_cache(maxsize=256)
def _counts_by_zeros(pattern: Pattern, ones: int, width: int) -> tuple[int, ...]:
    """count_avoiding(pattern, ones, z) for every z in 0..width, from one
    sweep of the DP over the zeros."""
    aut = build_automaton(pattern)
    dead = aut.dead
    live = dead  # live states 0..dead-1
    # dp[o][s] for the current zero count; zeros iterate in the outer loop
    dp = [[0] * live for _ in range(ones + 1)]
    dp[0][0] = 1
    for o in range(ones):
        for s, c in enumerate(dp[o]):
            if c:
                s2 = aut.transitions[s][1]
                if s2 != dead:
                    dp[o + 1][s2] += c
    by_zeros = [sum(dp[ones])]
    for _z in range(width):
        nxt = [[0] * live for _ in range(ones + 1)]
        for o in range(ones + 1):
            row = dp[o]
            for s, c in enumerate(row):
                if c:
                    s2 = aut.transitions[s][0]
                    if s2 != dead:
                        nxt[o][s2] += c
            if o < ones:
                for s, c in enumerate(nxt[o]):
                    if c:
                        s2 = aut.transitions[s][1]
                        if s2 != dead:
                            nxt[o + 1][s2] += c
        dp = nxt
        by_zeros.append(sum(dp[ones]))
    return tuple(by_zeros)


def count_avoiding(pattern: Pattern, ones: int, zeros: int) -> int:
    """Exact number of avoiding words with the given step counts."""
    if ones < 0 or zeros < 0:
        return 0
    return _counts_by_zeros(pattern, ones, max(ones, zeros))[zeros]


def level_count(pattern: Pattern, ones: int) -> int:
    """Total avoiding words with exactly `ones` rises over all legal fall counts."""
    return sum(_counts_by_zeros(pattern, ones, ones)) if ones >= 0 else 0
