"""Word primitives: patterns, profiles, marked spans, suffix split, classes."""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given, strategies as st

from patternforge.words import (
    MarkedWord,
    PathKind,
    Pattern,
    UnclassifiablePath,
    classify,
    complement,
    height,
    occurrences,
    profile,
    rightmost_suffix,
)

P21 = Pattern(2, 1)
P31 = Pattern(3, 1)
P32 = Pattern(3, 2)
P42 = Pattern(4, 2)

words_st = st.text(alphabet="01", max_size=40)


def all_words(max_len: int):
    for length in range(max_len + 1):
        for bits in product("01", repeat=length):
            yield "".join(bits)


class TestPattern:
    def test_factor_and_length(self):
        assert P21.factor == "110"
        assert P21.length == 3
        assert Pattern(5, 2).factor == "1111100"
        assert Pattern(5, 2).length == 7

    @pytest.mark.parametrize(
        "j,i", [(1, 1), (2, 2), (2, 0), (0, 1), (1, 2), (-1, -2), (2.5, 1), (2.0, 1.0), ("3", "1"), (3, True)]
    )
    def test_rejects_degenerate_shapes(self, j, i):
        with pytest.raises(ValueError):
            Pattern(j, i)


class TestProfileAndHeight:
    def test_profile_goldens(self):
        assert profile("") == [0]
        assert profile("110") == [0, 1, 2, 1]
        assert profile("01") == [0, -1, 0]

    def test_height_goldens(self):
        assert height("") == 0
        assert height("110") == 1
        assert height("0011") == 0

    @given(words_st)
    def test_profile_ends_at_height(self, w):
        prof = profile(w)
        assert len(prof) == len(w) + 1
        assert prof[-1] == height(w)
        assert all(b - a in (-1, 1) for a, b in zip(prof, prof[1:]))


class TestOccurrences:
    def test_goldens(self):
        assert occurrences("0110110", P21) == [1, 4]
        assert occurrences("11101110", P31) == [0, 4]
        assert occurrences("101", P21) == []

    @pytest.mark.parametrize("pattern", [P21, P31, P32, P42])
    def test_matches_sliding_window_exhaustively(self, pattern):
        f = pattern.factor
        for w in all_words(11):
            want = [t for t in range(len(w) - len(f) + 1) if w[t : t + len(f)] == f]
            assert occurrences(w, pattern) == want

    @given(words_st, st.sampled_from([(2, 1), (3, 1), (3, 2), (4, 2), (4, 3)]))
    def test_matches_sliding_window_random(self, w, ji):
        pattern = Pattern(*ji)
        f = pattern.factor
        want = [t for t in range(len(w) - len(f) + 1) if w[t : t + len(f)] == f]
        assert occurrences(w, pattern) == want


class TestComplement:
    def test_goldens(self):
        assert complement("110") == "001"
        assert complement("") == ""

    @given(words_st)
    def test_involution_and_height_flip(self, w):
        assert complement(complement(w)) == w
        assert height(complement(w)) == -height(w)


class TestMarkedWord:
    def test_validate_accepts_well_formed(self):
        MarkedWord("0110", (1,)).validate(P21)
        MarkedWord("110110", (0, 3)).validate(P21)

    def test_validate_rejects_out_of_bounds(self):
        with pytest.raises(ValueError, match="out of bounds"):
            MarkedWord("110", (1,)).validate(P21)

    def test_validate_rejects_wrong_bits(self):
        with pytest.raises(ValueError, match="does not cover"):
            MarkedWord("0110", (0,)).validate(P21)

    def test_validate_rejects_overlap(self):
        # both spans cover the factor, so only the overlap check can refuse them
        with pytest.raises(ValueError, match="overlapping"):
            MarkedWord("110110", (3, 3)).validate(P21)

    def test_strictly_inside(self):
        mw = MarkedWord("0110", (1,))
        assert not mw.strictly_inside(1, P21)  # span start
        assert mw.strictly_inside(2, P21)
        assert mw.strictly_inside(3, P21)
        assert not mw.strictly_inside(4, P21)  # span end

    def test_span_peak(self):
        assert MarkedWord("0110", (1,)).span_peak(1, P21) == 1
        assert MarkedWord("110", (0,)).span_peak(0, P21) == 2

    @pytest.mark.parametrize(
        "text,word,spans",
        [("110", "110", ()), ("0110@1", "0110", (1,)), ("110110@0,3", "110110", (0, 3))],
    )
    def test_text_round_trip(self, text, word, spans):
        mw = MarkedWord.from_text(text)
        assert (mw.word, mw.spans) == (word, spans)
        assert mw.to_text() == text

    def test_from_text_rejects_junk(self):
        with pytest.raises(ValueError):
            MarkedWord.from_text("110@x")


class TestRightmostSuffix:
    def test_goldens(self):
        assert rightmost_suffix(MarkedWord("1101"), P21) == ("", "1101", 0)
        assert rightmost_suffix(MarkedWord("101"), P21) == ("10", "1", 2)
        # the axis point at position 2 sits strictly inside the span, so the
        # split happens at the word start instead
        assert rightmost_suffix(MarkedWord("01110", (1,)), P31) == ("", "01110", 0)

    @given(words_st)
    def test_split_reassembles_and_starts_on_axis(self, w):
        mw = MarkedWord(w)
        prefix, suffix, start = rightmost_suffix(mw, P21)
        assert prefix + suffix == w
        assert profile(w)[start] == 0
        # rightmost: no later axis point except the endpoint
        assert all(v != 0 for v in profile(w)[start + 1 : len(w)])


class TestClassify:
    def test_axis_words(self):
        assert classify(MarkedWord(""), P21).kind is PathKind.DELTA_ON_AXIS
        assert classify(MarkedWord("0101"), P21).kind is PathKind.DELTA_ON_AXIS

    def test_rise_start_suffix(self):
        pc = classify(MarkedWord("110"), P21)
        assert pc.kind is PathKind.DELTA_ABOVE
        assert pc.is_delta

    def test_fall_start_suffix_with_qualifying_span(self):
        pc = classify(MarkedWord("01110", (1,)), P31)
        assert pc.kind is PathKind.GAMMA
        assert not pc.is_delta
        assert pc.suffix_start == 0
        assert pc.qualifying_span == 1

    def test_fall_start_suffix_without_qualifying_span(self):
        # span bits inconsistent with the factor: geometry puts the span peak
        # at ordinate 0, outside the open interval (i, j)
        with pytest.raises(UnclassifiablePath):
            classify(MarkedWord("011", (0,)), P21)

    def test_negative_endpoint_rejected(self):
        with pytest.raises(ValueError):
            classify(MarkedWord("0"), P21)

    @given(words_st)
    def test_unmarked_class_members_always_classify_as_delta(self, w):
        if height(w) < 0:
            return
        pc = classify(MarkedWord(w), P21)
        assert pc.is_delta
