"""verify_pattern on a run the caller made."""

from __future__ import annotations

import pytest

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
