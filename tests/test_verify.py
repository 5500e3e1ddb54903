"""verify_pattern on a run the caller made."""

from __future__ import annotations

import pytest

from patternforge import verify
from patternforge.construction import run_levels
from patternforge.verify import verify_pattern
from patternforge.words import Pattern

P21 = Pattern(2, 1)


class TestGivenResult:
    def test_a_matching_result_is_checked_as_a_fresh_run(self):
        report = verify_pattern(P21, 5, result=run_levels(P21, 5))
        assert report == verify_pattern(P21, 5)
        assert report.ok and len(report.levels) == 6

    @pytest.mark.parametrize("pattern,max_ones", [(P21, 3), (Pattern(3, 2), 8)])
    def test_a_result_of_another_run_is_refused(self, pattern, max_ones):
        # a run to 3 ones once passed as a check of 8 levels after checking 4
        with pytest.raises(ValueError, match="not of"):
            verify_pattern(P21, 8, result=run_levels(pattern, max_ones))


class TestDivergences:
    @staticmethod
    def with_level_3_survivors(survivors):
        """verify_pattern on a run of P21 to 4 ones whose level 3 reports
        survivors(those of the real run) instead."""
        result = run_levels(P21, 4)
        levels = list(result.levels)
        levels[3] = levels[3]._replace(survivors=survivors(levels[3].survivors))
        return verify_pattern(P21, 4, result=result._replace(levels=levels))

    def test_a_missing_survivor_is_named(self):
        report = self.with_level_3_survivors(lambda words: words[1:])
        assert not report.ok
        assert report.divergences() == ["level 3: missing survivor '111'"]

    def test_survivors_out_of_order_are_reported(self):
        report = self.with_level_3_survivors(lambda words: words[::-1])
        assert not report.ok
        assert report.divergences() == ["level 3: survivor ordering differs"]


def test_survivor_sets_are_built_only_for_a_level_whose_tuples_differ(monkeypatch):
    built = []

    def spy(items=()):
        built.append(items)
        return set(items)

    monkeypatch.setattr(verify, "set", spy, raising=False)
    assert verify_pattern(P21, 6).ok
    assert built == []  # a passing run builds no set
    report = TestDivergences.with_level_3_survivors(lambda words: words[1:])
    assert report.divergences() == ["level 3: missing survivor '111'"]
    assert len(built) == 2  # level 3's survivors and brute_force's
