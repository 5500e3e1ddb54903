"""Dense census: rank arithmetic, the read-only word census view, the
level checks it answers."""

from __future__ import annotations

import random
import subprocess
import sys
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from conftest import cached_run
from patternforge import census
from patternforge.census import WordCensus, build_census, rank_prefix, unrank


def class_words(ones: int, zeros: int) -> list[str]:
    """Every word with `ones` ones and `zeros` zeros, in lexicographic order."""
    length = ones + zeros
    words = []
    for zero_pos in combinations(range(length), zeros):
        bits = ["1"] * length
        for p in zero_pos:
            bits[p] = "0"
        words.append("".join(bits))
    return sorted(words)


CLASSES = [(ones, zeros) for ones in range(8) for zeros in range(ones + 1)]


class TestRank:
    @pytest.mark.parametrize("ones,zeros", CLASSES)
    def test_rank_and_unrank_round_trip(self, ones, zeros):
        words = class_words(ones, zeros)
        assert len(words) == comb(ones + zeros, zeros)
        for rank, word in enumerate(words):
            assert rank_prefix(word, ones, zeros) == rank
            assert unrank(rank, ones, zeros) == word

    @pytest.mark.parametrize("ones,zeros", [(n, z) for n, z in CLASSES if n <= 6])
    def test_a_prefix_fills_one_block_in_its_suffixes_rank_order(self, ones, zeros):
        words = class_words(ones, zeros)
        prefixes = {w[:cut] for w in words for cut in range(len(w) + 1)}
        for q in prefixes:
            rest_ones, rest_zeros = ones - q.count("1"), zeros - q.count("0")
            start = rank_prefix(q, ones, zeros)
            block = [w for w in words if w.startswith(q)]
            assert len(block) == comb(rest_ones + rest_zeros, rest_zeros)
            assert words[start : start + len(block)] == block
            assert [rank_prefix(w[len(q) :], rest_ones, rest_zeros) for w in block] == list(range(len(block)))


def reference_rank(word: str, ones: int, zeros: int) -> int:
    """The rank of word in its class: for each 1, the words that put a 0
    there instead, C(letters left - 1, zeros left - 1) of them."""
    rank = 0
    for bit in word:
        if bit == "1":
            if zeros:
                rank += comb(ones + zeros - 1, zeros - 1)
            ones -= 1
        else:
            zeros -= 1
    return rank


def sample_words(ones: int, zeros: int, rng: random.Random, size: int = 6) -> list[str]:
    """The first and last words of a class and a few drawn by rng."""
    words = ["0" * zeros + "1" * ones, "1" * ones + "0" * zeros]
    for _ in range(size):
        bits = ["1"] * ones + ["0"] * zeros
        rng.shuffle(bits)
        words.append("".join(bits))
    return words


# every class up to 34 ones and 34 zeros: its last ranks pass 2**63
BIG_CLASSES = [(ones, zeros) for ones in range(35) for zeros in range(35)]


class TestRankTable:
    """rank_prefix and unrank read one table of binomials, grown on demand;
    they must equal the binomials themselves, in any order of growth."""

    def check_classes(self, classes: list[tuple[int, int]]) -> None:
        rng = random.Random(19)
        for ones, zeros in classes:
            for word in sample_words(ones, zeros, rng):
                rank = reference_rank(word, ones, zeros)
                assert rank_prefix(word, ones, zeros) == rank, (word, ones, zeros)
                assert unrank(rank, ones, zeros) == word, (rank, ones, zeros)
                for cut in (1, len(word) // 2):  # a prefix starts the block of its words
                    assert rank_prefix(word[:cut], ones, zeros) == reference_rank(word[:cut], ones, zeros)

    def test_ranks_equal_the_binomials_past_2_to_the_63(self):
        assert comb(68, 34) - 1 > 2**63  # the last rank of class (34, 34)
        self.check_classes(BIG_CLASSES)

    @pytest.mark.parametrize("large_first", [True, False])
    def test_ranks_do_not_depend_on_the_order_the_table_grows_in(self, monkeypatch, large_first):
        monkeypatch.setattr(census, "_SKIPS", [])
        order = sorted(BIG_CLASSES, key=lambda c: sum(c), reverse=large_first)
        self.check_classes(order)
        assert len(census._SKIPS) == 69  # rows for 0 .. 68 letters left

    def test_the_table_is_built_on_first_use_not_at_import(self):
        script = "from patternforge import census; assert census._SKIPS == [], census._SKIPS"
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, cwd=src, timeout=60)
        assert proc.returncode == 0, proc.stderr


def census_of(ones: int, cells: dict[str, tuple[int, int]]) -> WordCensus:
    return build_census(ones, {w: list(cell) for w, cell in cells.items()})


class TestWordCensusView:
    CELLS = {"0011": (1, 1), "110": (1, 0), "0101": (0, 2), "11": (3, 1), "1100": (2, 2)}

    def test_iterates_in_ascending_word_order(self):
        census = census_of(2, self.CELLS)
        assert list(census) == sorted(self.CELLS)
        assert list(census.items()) == sorted(self.CELLS.items())
        assert list(census.values()) == [cell for _, cell in sorted(self.CELLS.items())]

    def test_reads_like_the_plain_dict(self):
        census = census_of(2, self.CELLS)
        assert len(census) == len(self.CELLS)
        assert census == self.CELLS and self.CELLS == census
        assert census != {**self.CELLS, "11": (3, 0)}
        for word, cell in self.CELLS.items():
            assert word in census
            assert census[word] == census.get(word) == cell

    @pytest.mark.parametrize(
        "word",
        [
            "1",  # too few ones
            "111",  # too many ones
            "00011",  # more zeros than ones
            "01x1",  # not binary
            "1010",  # a cell with no copies
            "",
        ],
    )
    def test_a_word_outside_the_census_is_a_key_error(self, word):
        census = census_of(2, self.CELLS)
        assert word not in census
        assert census.get(word) is None
        with pytest.raises(KeyError):
            census[word]

    def test_a_run_reports_every_word_once_in_string_order(self):
        rep = cached_run(2, 1, 5).levels[5]
        words = list(rep.word_census)
        assert words == sorted(words) and len(words) == len(rep.word_census) == comb(11, 5)


class TestLevelChecks:
    def test_labels_survivors_and_nets_come_from_the_cells(self):
        census = census_of(2, {"11": (1, 0), "110": (2, 1), "011": (1, 1), "1100": (0, 0), "0011": (1, 0)})
        assert census.labels() == {0: (1, 0), 1: (3, 2), 2: (1, 0)}
        assert census.survivors() == ("11", "110", "0011")
        assert census.off_net() is None

    def test_the_smallest_offending_word_is_named_across_zero_counts(self):
        # "110" (one zero) is met first by zero count and rank, but "0011"
        # (two zeros) is the smaller string
        census = census_of(2, {"110": (3, 0), "0011": (0, 1), "1100": (2, 0)})
        assert census.off_net() == ("0011", -1)
        assert census_of(2, {"110": (3, 0), "1100": (2, 0)}).off_net() == ("110", 3)

    def test_a_return_in_front_of_a_lower_level_is_one_block_per_zero_count(self):
        below = census_of(1, {"1": (1, 0), "10": (1, 1), "01": (0, 1)})
        # "10" + w gets qp*wp + qm*wm plus and qp*wm + qm*wp minus copies
        for cell, expected in [
            ([1, 2], {"101": (1, 2), "1001": (2, 1), "1010": (3, 3)}),
            ([2, 2], {"101": (2, 2), "1001": (2, 2), "1010": (4, 4)}),  # net 0
            ([1, 3], {"101": (1, 3), "1001": (3, 1), "1010": (4, 4)}),  # net -2
        ]:
            census = build_census(2, {}, [({"10": cell}, below)])
            assert dict(census.items()) == expected
