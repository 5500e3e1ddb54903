"""Dense census: rank arithmetic, the rank -> word speller, the read-only
word census view, the level checks it answers."""

from __future__ import annotations

import random
import subprocess
import sys
from itertools import compress, product, repeat
from math import comb
from pathlib import Path

import pytest

from conftest import cached_run
from patternforge import census
from patternforge.census import WordCensus, _words, build_census, rank_prefix


def class_words(ones: int, zeros: int) -> list[str]:
    """Every word with `ones` ones and `zeros` zeros, in lexicographic order:
    product yields every binary word of that length in that order, and the
    class is those with the right count of ones."""
    return ["".join(bits) for bits in product("01", repeat=ones + zeros) if bits.count("1") == ones]


CLASSES = [(ones, zeros) for ones in range(8) for zeros in range(ones + 1)]


class TestRank:
    @pytest.mark.parametrize("ones,zeros", CLASSES)
    def test_a_words_rank_is_its_place_in_lexicographic_order(self, ones, zeros):
        words = class_words(ones, zeros)
        assert len(words) == comb(ones + zeros, zeros)
        for rank, word in enumerate(words):
            assert rank_prefix(word, ones, zeros) == rank

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
    """rank_prefix reads one table of binomials, grown on demand; its ranks
    must equal the binomials themselves, in any order of growth."""

    def check_classes(self, classes: list[tuple[int, int]]) -> None:
        rng = random.Random(19)
        for ones, zeros in classes:
            for word in sample_words(ones, zeros, rng):
                assert rank_prefix(word, ones, zeros) == reference_rank(word, ones, zeros), (word, ones, zeros)
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


class TestWords:
    """_words spells the words of a class whose ranks a mask selects, in
    rank order; class_words shares no idea with it."""

    @pytest.mark.parametrize("ones", range(9))
    def test_every_word_of_every_class_in_rank_order(self, ones):
        for zeros in range(ones + 1):
            assert list(_words(ones, zeros, repeat(True))) == class_words(ones, zeros), (ones, zeros)

    @pytest.mark.parametrize("ones,zeros", [(0, 0), (5, 0), (0, 1), (0, 4)])
    def test_classes_without_ones_or_without_zeros(self, ones, zeros):
        assert list(_words(ones, zeros, repeat(True))) == class_words(ones, zeros)

    @pytest.mark.parametrize("ones", range(9))
    def test_a_mask_picks_its_ranks(self, ones):
        rng = random.Random(ones)
        for zeros in range(ones + 1):
            words = class_words(ones, zeros)
            assert list(_words(ones, zeros, [False] * len(words))) == []
            for density in (0.05, 0.5, 0.95):
                mask = [rng.random() < density for _ in words]
                assert list(_words(ones, zeros, mask)) == list(compress(words, mask)), (ones, zeros, density)


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


class TestTwoSpellers:
    """survivors and off_net spell words with _words; items spells them by
    walking the trie.  On random censuses the two must name the same words."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("nets", [range(-2, 3), range(2)], ids=["nets-2..2", "nets0..1"])
    def test_survivors_and_off_net_equal_the_trie_walk(self, seed, nets):
        rng = random.Random(seed)
        ones = rng.randint(1, 6)
        cells = {}
        for zeros in rng.sample(range(ones + 1), rng.randint(2, ones + 1)):
            words = class_words(ones, zeros)
            for word in rng.sample(words, rng.randint(1, len(words))):
                net, both = rng.choice(nets), rng.randint(0, 2)
                cells[word] = [max(net, 0) + both, max(-net, 0) + both]
        census = build_census(ones, cells)
        nets_read = {word: p - m for word, (p, m) in census.items()}
        survivors = sorted((w for w, d in nets_read.items() if d == 1), key=lambda w: (len(w), w))
        assert census.survivors() == tuple(survivors)
        assert census.off_net() == min(((w, d) for w, d in nets_read.items() if d not in (0, 1)), default=None)
        assert (census.off_net() is None) == (nets == range(2))
