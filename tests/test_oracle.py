"""Counting oracles: factor automaton, exhaustive enumeration, exact DP."""

from __future__ import annotations

import random
import re
import resource
import tracemalloc
from contextlib import contextmanager
from itertools import product
from math import comb

import pytest
from hypothesis import given, strategies as st

from conftest import DIFFERENTIAL_PATTERNS
from patternforge import oracle
from patternforge.oracle import (
    BudgetExceeded,
    brute_force,
    build_automaton,
    cluster_census,
    count_avoiding,
    level_count,
)
from patternforge.words import Pattern

P21 = Pattern(2, 1)
P31 = Pattern(3, 1)
P32 = Pattern(3, 2)
P41 = Pattern(4, 1)
P42 = Pattern(4, 2)


class TestAutomaton:
    def test_shape(self):
        aut = build_automaton(P21)
        assert aut.factor == "110"
        assert len(aut.transitions) == 4  # prefix states 0..2 plus dead
        assert aut.dead == 3

    def test_dead_state_absorbs(self):
        aut = build_automaton(P31)
        assert aut.transitions[aut.dead] == (aut.dead, aut.dead)

    def test_scan_goldens(self):
        aut = build_automaton(P21)
        assert aut.scan("")
        assert aut.scan("101010")
        assert not aut.scan("110")
        assert not aut.scan("0110")

    @pytest.mark.parametrize("pattern", [P21, P31, P32])
    def test_scan_equals_substring_search_exhaustively(self, pattern):
        aut = build_automaton(pattern)
        for length in range(12):
            for bits in product("01", repeat=length):
                w = "".join(bits)
                assert aut.scan(w) == (pattern.factor not in w)

    @given(st.text(alphabet="01", max_size=60), st.sampled_from([(2, 1), (3, 1), (4, 2), (4, 3), (5, 2)]))
    def test_scan_equals_substring_search_random(self, w, ji):
        pattern = Pattern(*ji)
        assert build_automaton(pattern).scan(w) == (pattern.factor not in w)


class TestBruteForce:
    def test_goldens(self):
        assert brute_force(P21, 0) == [""]
        assert brute_force(P21, 1) == ["1", "01", "10"]
        assert brute_force(P21, 2) == ["11", "011", "101", "0011", "0101", "1001", "1010"]

    def test_output_is_sorted_and_avoiding(self):
        words = brute_force(P31, 4)
        assert words == sorted(words, key=lambda w: (len(w), w))
        assert len(set(words)) == len(words)
        for w in words:
            assert "1110" not in w
            assert w.count("1") == 4
            assert w.count("0") <= 4

    def test_budget_guard(self):
        with pytest.raises(BudgetExceeded):
            brute_force(P21, 3, budget=10)
        # candidate count for two rises is exactly 1 + 3 + 6 = 10
        assert len(brute_force(P21, 2, budget=10)) == 7

    @pytest.mark.parametrize("ones", [0, 1, 4, 9])
    def test_budget_counts_candidates_not_survivors(self, ones):
        candidates = sum(comb(ones + m, m) for m in range(ones + 1))
        with pytest.raises(BudgetExceeded):
            brute_force(P21, ones, budget=candidates - 1)
        assert brute_force(P21, ones, budget=candidates) == brute_force(P21, ones)

    @pytest.mark.parametrize("ji", DIFFERENTIAL_PATTERNS)
    def test_equals_naive_filter(self, ji):
        """Generate every candidate, filter by substring search, sort."""
        pattern = Pattern(*ji)
        for n in range(8):
            naive = sorted(
                (
                    word
                    for length in range(n, 2 * n + 1)
                    for word in map("".join, product("01", repeat=length))
                    if word.count("1") == n and pattern.factor not in word
                ),
                key=lambda w: (len(w), w),
            )
            assert brute_force(pattern, n) == naive, (ji, n)

    def test_negative_ones_has_no_words(self):
        assert brute_force(P21, -1) == []
        assert level_count(P21, -1) == 0

    @pytest.mark.parametrize(
        "ji", [(j, i) for j in range(2, 7) for i in range(1, j)], ids=lambda ji: f"{ji[0]}-{ji[1]}"
    )
    def test_equals_the_depth_first_walk(self, ji):
        pattern = Pattern(*ji)
        for n in range(-1, 10):
            assert brute_force(pattern, n) == depth_first(pattern, n), (ji, n)

    @pytest.mark.parametrize(
        "ji, n",
        [((2, 1), 10), ((2, 1), 11), ((3, 2), 11), ((4, 1), 10), ((6, 1), 11), ((6, 5), 10)],
        ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else str(v),
    )
    def test_equals_the_depth_first_walk_across_the_seam(self, ji, n):
        """Levels past the sweep above, odd and even.  With j = 6 above the
        left half's 5 ones, every occurrence crosses the seam."""
        pattern = Pattern(*ji)
        assert brute_force(pattern, n) == depth_first(pattern, n)

    def test_builds_no_grid_row_above_half_the_level(self, monkeypatch):
        rows = []
        next_row = oracle._next_row

        def spy(row, tail):
            new = next_row(row, tail)
            rows.append(max(w.count("1") for cell in new for w in cell))
            return new

        monkeypatch.setattr(oracle, "_next_row", spy)
        for n in range(11):
            rows.clear()
            brute_force(P32, n)
            assert rows == list(range(1, (n + 1) // 2 + 1)), n

    @pytest.mark.parametrize("ones", [7, 8])
    def test_allocates_nothing_sized_by_j(self, ones):
        """With j = 10**9 the enumeration peaks where it does at j = ones + 1,
        within a megabyte; a table with j entries would need gigabytes."""
        with address_space_cap(2**29):
            _, peak = traced_peak(lambda: brute_force(Pattern(10**9, 1), ones))
        assert peak < traced_peak(lambda: brute_force(Pattern(ones + 1, 1), ones))[1] + 2**20

    def test_peak_memory_stays_near_the_output(self):
        """The half-levels and their seam cells are small next to the
        output, whose words are each built once.  Measured: 1.067 (the
        depth-first walk: 1.00)."""
        (words, held), peak = traced_peak(lambda: brute_force(P41, 10))
        assert len(words) == level_count(P41, 10)
        assert peak <= 1.2 * held


@contextmanager
def address_space_cap(extra: int):
    """Cap this process's address space at its current size plus extra
    bytes, so that an allocation far beyond what the work needs raises
    MemoryError instead of exhausting the machine."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/statm") as f:
        cap = int(f.read().split()[0]) * resource.getpagesize() + extra
    resource.setrlimit(resource.RLIMIT_AS, (cap if hard == resource.RLIM_INFINITY else min(cap, hard), hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def traced_peak(call):
    """((result, bytes it holds), peak bytes while it was built), both
    counted from the traced memory before the call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (result, held - base), peak - base


def depth_first(pattern: Pattern, ones: int) -> list[str]:
    """Reference: the enumeration as it ran before the grid, growing
    prefixes depth-first, 0 before 1, and testing each fall it appends."""
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


def per_call_count(pattern: Pattern, ones: int, zeros: int) -> int:
    """Reference: the DP as it ran before the sweep was shared, one full
    pass over (ones, zeros, state) per queried cell."""
    aut = build_automaton(pattern)
    dead = aut.dead
    width = dead  # live states 0..dead-1
    dp = [[0] * width for _ in range(ones + 1)]
    dp[0][0] = 1
    for o in range(ones):
        for s, c in enumerate(dp[o]):
            if c:
                s2 = aut.transitions[s][1]
                if s2 != dead:
                    dp[o + 1][s2] += c
    for _z in range(zeros):
        nxt = [[0] * width for _ in range(ones + 1)]
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
    return sum(dp[ones])


SWEEP_PATTERNS = [(2, 1), (3, 1), (3, 2), (4, 1), (4, 3), (5, 2)]


class TestCountAvoiding:
    def test_goldens(self):
        assert count_avoiding(P21, 0, 0) == 1
        assert count_avoiding(P21, 2, 1) == 2
        assert count_avoiding(P21, 2, 2) == 4

    @pytest.mark.parametrize("order", ["shuffled", "reversed"])
    def test_shared_sweep_equals_per_call_dp(self, order):
        """Every cell, zeros > ones included, whatever the cache holds when
        it is asked for."""
        cells = [
            (Pattern(*ji), n, z) for ji in SWEEP_PATTERNS for n in range(9) for z in range(n + 4)
        ]
        want = {cell: per_call_count(*cell) for cell in cells}
        if order == "shuffled":
            random.Random(4).shuffle(cells)
        else:
            cells.reverse()
        oracle._clear_counts()
        assert {cell: count_avoiding(*cell) for cell in cells} == want

    def test_ascending_levels_build_each_cell_once(self, monkeypatch):
        """Every label of levels 0..40, lowest level first, builds one
        square of side 40: 41 * 41 cells, the empty word's seed included.
        A lower level asked for afterwards comes from the held edge sums,
        or, once those are forgotten, from a square regrown from the seed."""
        built = []
        line, seed = oracle._line, oracle._Square._seed

        def counted_line(*args):
            cells = line(*args)
            built.append(len(cells))
            return cells

        def counted_seed(square):
            built.append(1)
            seed(square)

        monkeypatch.setattr(oracle, "_line", counted_line)
        monkeypatch.setattr(oracle._Square, "_seed", counted_seed)
        oracle._clear_counts()
        counts = {(n, z): count_avoiding(P32, n, z) for n in range(41) for z in range(n + 1)}
        assert sum(built) == 41 * 41
        assert counts[(40, 17)] == per_call_count(P32, 40, 17)
        want = [per_call_count(P32, 17, z) for z in range(18)]
        built.clear()
        assert [count_avoiding(P32, 17, z) for z in range(18)] == want
        assert sum(built) == 0
        oracle._edge_sums.cache_clear()
        assert [count_avoiding(P32, 17, z) for z in range(18)] == want
        assert sum(built) == 18 * 18

    @pytest.mark.parametrize("ji", SWEEP_PATTERNS)
    def test_level_count_is_the_sum_of_its_row(self, ji):
        pattern = Pattern(*ji)
        for n in range(12):
            assert level_count(pattern, n) == sum(count_avoiding(pattern, n, m) for m in range(n + 1))

    def test_negative_step_counts_have_no_words(self):
        assert count_avoiding(P21, -1, 0) == 0
        assert count_avoiding(P21, 2, -1) == 0

    @pytest.mark.parametrize("pattern", [P21, P31, P32, P42])
    def test_matches_enumeration_by_fall_count(self, pattern):
        for n in range(7):
            words = brute_force(pattern, n)
            by_zeros = {m: 0 for m in range(n + 1)}
            for w in words:
                by_zeros[w.count("0")] += 1
            for m in range(n + 1):
                assert count_avoiding(pattern, n, m) == by_zeros[m]
            assert level_count(pattern, n) == len(words)

    @pytest.mark.parametrize("ji", DIFFERENTIAL_PATTERNS + [(5, 1)], ids=lambda ji: f"{ji[0]}-{ji[1]}")
    def test_equals_the_cluster_method(self, ji):
        """A third route that shares no code with the DP: plus - minus of
        the cluster method, zeros > ones included."""
        pattern = Pattern(*ji)
        for n in range(25):
            for z in range(25):
                plus, minus = cluster_census(*ji, n, z)
                assert count_avoiding(pattern, n, z) == plus - minus, (ji, n, z)

    @pytest.mark.parametrize("ji", [(2, 1), (3, 2), (4, 3)], ids=lambda ji: f"{ji[0]}-{ji[1]}")
    def test_equals_the_cluster_method_to_40_ones(self, ji):
        """The range the rule censuses are checked over: every fall count
        of every level to 40 ones."""
        pattern = Pattern(*ji)
        for n in range(41):
            for z in range(n + 1):
                plus, minus = cluster_census(*ji, n, z)
                assert count_avoiding(pattern, n, z) == plus - minus, (ji, n, z)

    @pytest.mark.parametrize("j,i", [(2, 0), (0, 1), (-2, 1), (1, 1), (2, 2), (2, 3), (1, 2)])
    def test_the_cluster_method_refuses_a_pair_that_is_no_pattern(self, j, i):
        """Not a ZeroDivisionError, nor a silent (0, 0): the pair is refused
        as Pattern refuses it."""
        with pytest.raises(ValueError, match=re.escape(f"need 0 < i < j, got j={j} i={i}")):
            cluster_census(j, i, 3, 3)

    def test_longer_factors_leave_more_words(self):
        for n in range(7):
            for m in range(n + 1):
                assert count_avoiding(Pattern(2, 1), n, m) <= count_avoiding(Pattern(3, 1), n, m)
                assert count_avoiding(Pattern(3, 1), n, m) <= count_avoiding(Pattern(4, 1), n, m)
                assert count_avoiding(Pattern(3, 1), n, m) <= count_avoiding(Pattern(3, 2), n, m)


def holds_the_factor(word: str, j: int, i: int) -> bool:
    """Whether word holds 1^j 0^i, read off its maximal runs of ones and the
    zeros right after each: no factor string is built, however large j."""
    return any(len(ones) >= j and len(zeros) >= i for ones, zeros in re.findall("(1+)(0*)", word))


class TestFactorLongerThanTheLevel:
    """A level with n ones holds no run of j > n ones, so every word of it
    avoids the factor.  Both oracles answer it without the factor and
    without the automaton, whose size grows with j, not with the level."""

    @pytest.mark.parametrize("ones", range(1, 7))
    @pytest.mark.parametrize("far", [False, True], ids=["j=ones+1", "j=10**9"])
    def test_every_word_of_the_level_avoids_the_factor(self, monkeypatch, ones, far):
        pattern = Pattern(10**9 if far else ones + 1, 1)
        words = [
            word
            for length in range(ones, 2 * ones + 1)
            for word in map("".join, product("01", repeat=length))
            if word.count("1") == ones and not holds_the_factor(word, pattern.j, pattern.i)
        ]

        def refuse(*args):
            raise AssertionError("built the factor or its automaton")

        oracle._clear_counts()
        monkeypatch.setattr(Pattern, "factor", property(refuse))
        monkeypatch.setattr(oracle, "build_automaton", refuse)
        assert brute_force(pattern, ones) == sorted(words, key=lambda w: (len(w), w))
        assert [count_avoiding(pattern, ones, z) for z in range(ones + 1)] == [
            sum(w.count("0") == z for w in words) for z in range(ones + 1)
        ]
        assert level_count(pattern, ones) == len(words) == sum(comb(ones + z, z) for z in range(ones + 1))
