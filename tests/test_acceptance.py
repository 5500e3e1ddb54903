"""End-to-end acceptance gate.

One test per criterion row; each row appends a PASS/FAIL line to the summary
block printed at the end of the session (see conftest).  Rows that cannot
pass — the level engine does not make certain minus copies when
j - i >= 2 — assert their exact frozen failure signature first, log FAIL,
then xfail, so that any behavior change (regression or fix) turns the row
into a hard test failure instead of silently shifting.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import pytest

from conftest import (
    CLEAN_PATTERNS,
    DIFFERENTIAL_PATTERNS,
    INCOMPLETE_PATTERNS,
    expected_word_census,
)
from patternforge.construction import NetOutOfRange, TreeNode, delta_jumpj, run_levels
from patternforge.oracle import brute_force, level_count
from patternforge.succession import census_equal, expand_census, parse_rule
from patternforge.words import MarkedWord, Pattern

PKG_DIR = os.path.join(os.path.dirname(__file__), os.pardir)

# first divergence every broken pattern shows, frozen from the runs that
# established the limitation
FIRST_DIVERGENCE = {
    (4, 1): "level 5: extra survivor '001011110'",
    (4, 2): "level 6: extra survivor '00101111100'",
    (5, 2): "level 6: extra survivor '00101111100'",
}
INCOMPLETENESS_NOTE = (
    "the tree misses minus copies that mark a word's single occurrence, which "
    "starts below the axis; see README, 'Verification status and a known limitation'"
)


def _log(acceptance_log, line):
    acceptance_log.append(line)
    print(line)


def test_criterion_1_oracles_agree_with_each_other(acceptance_log):
    """Enumeration and the automaton DP must agree for every pattern with
    j + i <= 7 at every level up to 8 ones, within 30 seconds."""
    patterns = [(j, i) for j in range(2, 7) for i in range(1, j) if j + i <= 7]
    assert patterns == [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 1), (5, 2), (6, 1)]
    t0 = time.perf_counter()
    for j, i in patterns:
        pattern = Pattern(j, i)
        for n in range(9):
            assert len(brute_force(pattern, n)) == level_count(pattern, n)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    _log(acceptance_log, f"criterion 1: PASS — both oracles agree for 9 patterns, levels 0..8 ({elapsed:.1f}s)")


def test_criterion_2_first_two_levels_golden(acceptance_log):
    result = run_levels(Pattern(2, 1), 2)
    assert set(result.levels[1].survivors) == {"1", "01", "10"}
    assert set(result.levels[2].survivors) == {"11", "101", "011", "1010", "1001", "0101", "0011"}
    for word in ["110", "1100", "0110"]:
        assert result.levels[2].word_census[word] == (1, 1)
    _log(acceptance_log, "criterion 2: PASS — level 1/2 survivors and annihilated pairs match the goldens")


@pytest.mark.parametrize("j,i", DIFFERENTIAL_PATTERNS)
def test_criterion_3_construction_matches_oracles(j, i, differential_runs, acceptance_log):
    entry = differential_runs[(j, i)]
    secs = entry["seconds"]
    assert secs < 60
    if (j, i) in CLEAN_PATTERNS:
        assert entry["error"] is None
        report = entry["report"]
        assert report.ok, report.divergences()[:5]
        # patterns with j - i = 1 admit no gamma nodes at all
        assert report.gamma_total == 0
        _log(acceptance_log, f"criterion 3 [{j},{i}]: PASS — verified against both oracles to 8 ones ({secs:.1f}s)")
        return
    if (j, i) == (3, 1):
        err = entry["error"]
        assert isinstance(err, NetOutOfRange)
        assert (err.word, err.level, err.net) == ("0001011101110", 7, -1)
        _log(
            acceptance_log,
            "criterion 3 [3,1]: FAIL — two level-5 minus copies are unreachable; "
            "the cascade trips the sign alarm at level 7 (word '0001011101110', net -1)",
        )
        pytest.xfail(INCOMPLETENESS_NOTE)
    # (4,1), (4,2), (5,2): the run completes but verification finds the
    # missing minus copies as extra survivors
    assert entry["error"] is None
    report = entry["report"]
    assert not report.ok
    assert report.gamma_total > 0
    divergences = report.divergences()
    assert divergences[0] == FIRST_DIVERGENCE[(j, i)]
    assert all("missing survivor" not in d for d in divergences)
    _log(
        acceptance_log,
        f"criterion 3 [{j},{i}]: FAIL — first divergence: {divergences[0]} "
        f"(minus copy never produced; {secs:.1f}s)",
    )
    pytest.xfail(INCOMPLETENESS_NOTE)


@pytest.mark.parametrize("j,i", [(2, 1), (3, 1), (3, 2)])
def test_criterion_4_copy_counts_double_per_occurrence(j, i, acceptance_log):
    """Every word must carry 2^C copies (C = factor occurrences), split
    evenly by sign when C >= 1, through level 6."""
    pattern = Pattern(j, i)
    result = run_levels(pattern, 6)
    bad_levels = {}
    for rep in result.levels:
        expected = expected_word_census(pattern, rep.level)
        diff = {
            w: (rep.word_census.get(w, (0, 0)), expected.get(w, (0, 0)))
            for w in set(expected) | set(rep.word_census)
            if rep.word_census.get(w, (0, 0)) != expected.get(w, (0, 0))
        }
        if diff:
            bad_levels[rep.level] = diff
    if (j, i) != (3, 1):
        assert not bad_levels
        _log(acceptance_log, f"criterion 4 [{j},{i}]: PASS — every word carries 2^C copies through level 6")
        return
    # known shortfall: the first two unreachable minus copies appear at level 5
    assert sorted(bad_levels) == [5, 6]
    assert sorted(bad_levels[5]) == ["001011110", "0010111100"]
    for level_diff in bad_levels.values():
        for got, want in level_diff.values():
            assert got == (want[0], want[1] - 1)  # one minus copy short, never extra
    _log(
        acceptance_log,
        "criterion 4 [3,1]: FAIL — levels 0..4 hold; at level 5 the words "
        "'001011110' and '0010111100' carry 1 copy instead of 2",
    )
    pytest.xfail(INCOMPLETENESS_NOTE)


def test_criterion_5_child_label_multisets_self_check(differential_runs, acceptance_log):
    """The jump-j production verifies its own child label multiset against
    the closed formula on every call; none of the differential runs may
    trip it.  Plus one frozen instance: the five-rise pattern's axiom."""
    for (j, i), entry in differential_runs.items():
        err = entry["error"]
        assert err is None or isinstance(err, NetOutOfRange), (j, i, err)
    root = TreeNode(MarkedWord(""), 0, 1, 0)
    kids = delta_jumpj(root, Pattern(5, 2))
    got = sorted(c.label for c in kids)
    assert got == [0, 0, 0, 0, 1, 1, 1, 2, 2, 3]
    assert all(c.parity == -1 and len(c.mw.spans) == 1 for c in kids)
    _log(
        acceptance_log,
        "criterion 5: PASS — child multiset formula verified on every jump in 7 runs; "
        "axiom of 1^5 0^2 yields labels 0^4 1^3 2^2 3^1",
    )


def test_criterion_6_catalan_engine(acceptance_log):
    t0 = time.perf_counter()
    marked = parse_rule("axiom: 2\njump 1: (2..k+1), (k)\njump 1: (k)~\n")
    plain = parse_rule("axiom: 2\njump 1: (2..k+1)\n")
    censuses = expand_census(marked, 8)
    assert [c.net_total() for c in censuses[:6]] == [1, 2, 5, 14, 42, 132]
    assert census_equal(censuses, expand_census(plain, 8), "net").equal
    assert not census_equal(censuses, expand_census(plain, 8), "exact").equal
    elapsed = time.perf_counter() - t0
    assert elapsed < 5
    _log(acceptance_log, f"criterion 6: PASS — marked rule nets the Catalan numbers, net-equal to the plain rule ({elapsed:.2f}s)")


def test_criterion_7_runs_are_deterministic_across_workers(acceptance_log):
    """Worker processes that hash strings differently print byte-identical
    output: no result depends on set or dict iteration order."""
    for cmd in (
        ["generate", "--j", "3", "--i", "2", "--max-ones", "6"],
        ["verify", "--j", "2", "--i", "1", "--max-ones", "4"],
    ):
        outs = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            proc = subprocess.run(
                [sys.executable, "-m", "patternforge", *cmd],
                capture_output=True,
                cwd=PKG_DIR,
                env=env,
            )
            assert proc.returncode == 0
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
    _log(
        acceptance_log,
        "criterion 7: PASS — CLI generate and verify print byte-identical output under PYTHONHASHSEED 0 and 1",
    )


@pytest.mark.parametrize("j,i", DIFFERENTIAL_PATTERNS)
def test_criterion_8_sign_alarm_stays_silent(j, i, differential_runs, acceptance_log):
    entry = differential_runs[(j, i)]
    if (j, i) != (3, 1):
        assert entry["error"] is None
        _log(acceptance_log, f"criterion 8 [{j},{i}]: PASS — no sign-balance alarm through 8 ones")
        return
    err = entry["error"]
    assert isinstance(err, NetOutOfRange)
    assert (err.word, err.level, err.net) == ("0001011101110", 7, -1)
    assert err.provenances  # the alarm reports the offending lineages
    _log(
        acceptance_log,
        "criterion 8 [3,1]: FAIL — alarm fires at level 7 ('0001011101110' net -1), "
        "a cascade of the level-5 shortfall",
    )
    pytest.xfail(INCOMPLETENESS_NOTE)
