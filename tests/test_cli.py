"""Command line interface: formats and exit codes."""

from __future__ import annotations

import copy
import json
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import drop_last_mark_child, run_cli
from patternforge import construction
from patternforge.construction import NoMarkedPoint, NotDeltaError, NotGammaError, collect_copies, run_levels
from patternforge.succession import RuleParseError
from patternforge.words import Pattern, UnclassifiablePath


def spy_on_walks(monkeypatch) -> list:
    """Record the (pattern, max_ones) of every walk of the tree."""
    walks = []
    real = construction._walk

    def spy(*args):
        walks.append(args[:2])
        return real(*args)

    monkeypatch.setattr(construction, "_walk", spy)
    return walks


class TestGenerate:
    def test_jsonl_records(self):
        code, out, err = run_cli(["generate", "--j", "2", "--i", "1", "--max-ones", "2"])
        assert code == 0 and err == ""
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 1 + 3 + 7
        assert records[0] == {"level": 0, "word": "", "net": 1, "plus": 1, "minus": 0}
        assert all(r["net"] == 1 for r in records)
        assert {r["word"] for r in records if r["level"] == 1} == {"1", "01", "10"}

    def test_tsv_rows(self):
        code, out, _ = run_cli(["generate", "--j", "2", "--i", "1", "--max-ones", "1", "--format", "tsv"])
        assert code == 0
        assert out.splitlines() == ["0\t\t1\t1\t0", "1\t1\t1\t1\t0", "1\t01\t1\t1\t0", "1\t10\t1\t1\t0"]

    def test_over_budget_request_builds_no_tree(self, monkeypatch):
        walks = spy_on_walks(monkeypatch)
        code, out, err = run_cli(["generate", "--j", "2", "--i", "1", "--max-ones", "14", "--budget", "1000"])
        assert (code, out, walks) == (2, "", [])
        # the first level over budget: C(2n+1, n) = 1716 for n = 6
        assert err == "budget exceeded: 1716 candidate words exceed budget 1000\n"

    def test_the_default_budget_stops_at_13_ones(self, monkeypatch):
        walks = spy_on_walks(monkeypatch)
        code, _, err = run_cli(["generate", "--j", "2", "--i", "1", "--max-ones", "13"])
        assert (code, walks) == (2, [])
        assert err == "budget exceeded: 20058300 candidate words exceed budget 10000000\n"

    def test_degenerate_pattern_is_a_usage_error(self):
        code, _, err = run_cli(["generate", "--j", "1", "--i", "1", "--max-ones", "2"])
        assert code == 2
        assert "need 0 < i < j" in err

    @pytest.mark.parametrize("command", ["generate", "verify"])
    def test_negative_max_ones_is_a_usage_error(self, command):
        code, out, err = run_cli([command, "--j", "2", "--i", "1", "--max-ones", "-1"])
        assert (code, out) == (2, "")
        assert "--max-ones: must be >= 0, got -1" in err


class TestVerify:
    def test_clean_pattern_passes(self):
        code, out, _ = run_cli(["verify", "--j", "2", "--i", "1", "--max-ones", "3"])
        assert code == 0
        lines = out.splitlines()
        assert lines[:4] == ["level 0: PASS", "level 1: PASS", "level 2: PASS", "level 3: PASS"]
        assert lines[-1] == "verify 1^2 0^1 to 3 ones: OK (gamma nodes: 0)"

    def test_known_incomplete_pattern_reports_mismatch(self):
        code, out, _ = run_cli(["verify", "--j", "3", "--i", "1", "--max-ones", "5"])
        assert code == 1
        lines = out.splitlines()
        assert "level 4: PASS" in lines
        assert "level 5: FAIL" in lines
        assert any("extra survivor '001011110'" in line for line in lines)
        assert lines[-1].startswith("verify 1^3 0^1 to 5 ones: MISMATCH")

    def test_sign_imbalance_is_a_soundness_error(self):
        code, _, err = run_cli(["verify", "--j", "3", "--i", "1", "--max-ones", "8"])
        assert code == 3
        assert "internal soundness violation" in err
        assert "'0001011101110' at level 7 has net multiplicity -1" in err

    @pytest.mark.parametrize("error", [UnclassifiablePath, NotDeltaError, NotGammaError, NoMarkedPoint])
    def test_production_failure_is_a_soundness_error(self, monkeypatch, error):
        def expand(word, spans, label, parity, level, state, pattern, max_level=None):
            raise error(construction.MarkedWord(word, spans).to_text())

        monkeypatch.setattr(construction, "_expand", expand)  # the walk's seam
        code, out, err = run_cli(["verify", "--j", "2", "--i", "1", "--max-ones", "3"])
        assert (code, out) == (3, "")
        assert "internal soundness violation" in err

    def test_broken_invariant_is_a_soundness_error(self, monkeypatch):
        real_cut = construction._cut

        def cut_one_fall_too_low(word, spans, pattern, t0, state):
            out, out_spans, *points = real_cut(word, spans, pattern, t0, state)
            return (out + "0", out_spans, *points)

        monkeypatch.setattr(construction, "_cut", cut_one_fall_too_low)
        code, out, err = run_cli(["verify", "--j", "2", "--i", "1", "--max-ones", "4"])
        assert (code, out) == (3, "")
        assert "internal soundness violation: label 0 != ordinate of" in err

    def test_a_family_off_its_label_multiset_is_a_soundness_error(self, monkeypatch):
        monkeypatch.setattr(construction, "_appends", drop_last_mark_child(construction._appends))
        code, out, err = run_cli(["verify", "--j", "2", "--i", "1", "--max-ones", "4"])
        assert (code, out) == (3, "")
        assert "internal soundness violation: jump-2 of  (k=0, a=0): {0: 2} != {0: 2, 1: 1}" in err

    def test_broken_invariant_is_caught_under_optimize(self):
        """`python -O` strips asserts; the invariant checks must not be asserts."""
        script = (
            "import sys\n"
            "from patternforge import construction\n"
            "from patternforge.cli import main\n"
            "real_cut = construction._cut\n"
            "def cut(word, spans, pattern, t0, state):\n"
            "    out, out_spans, *points = real_cut(word, spans, pattern, t0, state)\n"
            "    return (out + '0', out_spans, *points)\n"
            "construction._cut = cut\n"
            "sys.exit(main(['verify', '--j', '2', '--i', '1', '--max-ones', '4']))\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, cwd=src, timeout=60
        )
        assert proc.returncode == 3, proc.stderr
        # without the check, the run would fail later on a net of -1
        assert "internal soundness violation: label 0 != ordinate of" in proc.stderr

    def test_a_cut_that_drops_a_span_is_a_soundness_error(self, monkeypatch):
        """The sign check runs on cut children too, and under `python -O`."""
        message = "internal soundness violation: parity -1 != sign of 0 spans in '0110'\n"
        real_cut = construction._cut

        def cut_dropping_a_span(word, spans, pattern, t0, state):
            out, out_spans, *points = real_cut(word, spans, pattern, t0, state)
            return (out, out_spans[:-1], *points)

        monkeypatch.setattr(construction, "_cut", cut_dropping_a_span)
        assert run_cli(["verify", "--j", "2", "--i", "1", "--max-ones", "4"]) == (3, "", message)
        script = (
            "import sys\n"
            "from patternforge import construction\n"
            "from patternforge.cli import main\n"
            "real_cut = construction._cut\n"
            "def cut(word, spans, pattern, t0, state):\n"
            "    out, out_spans, *points = real_cut(word, spans, pattern, t0, state)\n"
            "    return (out, out_spans[:-1], *points)\n"
            "construction._cut = cut\n"
            "sys.exit(main(['verify', '--j', '2', '--i', '1', '--max-ones', '4']))\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, cwd=src, timeout=60
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", message)

    def test_tiny_budget_is_reported(self):
        code, _, err = run_cli(["verify", "--j", "2", "--i", "1", "--max-ones", "5", "--budget", "10"])
        assert code == 2
        assert "budget exceeded" in err

    def test_over_budget_request_builds_no_tree(self, monkeypatch):
        walks = []
        real = construction._walk

        def spy(*args):
            walks.append(args[:2])
            return real(*args)

        monkeypatch.setattr(construction, "_walk", spy)
        code, out, err = run_cli(["verify", "--j", "2", "--i", "1", "--max-ones", "10", "--budget", "10"])
        assert (code, out, walks) == (2, "", [])
        # the first level over budget, as brute_force would report it
        assert err == "budget exceeded: 35 candidate words exceed budget 10\n"

    @pytest.mark.parametrize("budget,message", [("-1", "must be >= 0, got -1"), ("1_000", "invalid int value: '1_000'")])
    def test_a_budget_that_is_not_a_count_is_a_usage_error(self, budget, message):
        # "-1" was taken, and every level was reported over a budget of -1
        code, out, err = run_cli(["verify", "--j", "2", "--i", "1", "--max-ones", "2", "--budget", budget])
        assert (code, out) == (2, "")
        assert err.startswith("usage:") and f"--budget: {message}" in err


class TestCount:
    def test_rows_and_total(self):
        code, out, _ = run_cli(["count", "--j", "2", "--i", "1", "--ones", "2"])
        assert code == 0
        assert out.splitlines() == ["2\t0\t1", "2\t1\t2", "2\t2\t4", "total\t7"]

    def test_negative_ones_is_a_usage_error(self):
        code, out, err = run_cli(["count", "--j", "2", "--i", "1", "--ones", "-1"])
        assert (code, out) == (2, "")
        assert "--ones: must be >= 0, got -1" in err

    @pytest.mark.parametrize("ones", ["0_1", "\u0662", " 2", "+2", "2.0", ""])
    def test_ones_that_are_not_ascii_digits_are_a_usage_error(self, ones):
        # int() read "0_1" as 1 and the Arabic-Indic two as 2
        code, out, err = run_cli(["count", "--j", "2", "--i", "1", "--ones", ones])
        assert (code, out) == (2, "")
        assert err.startswith("usage:") and f"--ones: invalid int value: {ones!r}" in err

    @pytest.mark.parametrize(
        "j,i,message",
        [("0_2", "1", "--j: invalid int value: '0_2'"), ("2", "\u0661", "--i: invalid int value: '\u0661'")],
    )
    def test_a_pattern_flag_that_is_not_an_integer_is_a_usage_error(self, j, i, message):
        code, out, err = run_cli(["count", "--j", j, "--i", i, "--ones", "2"])
        assert (code, out) == (2, "")
        assert err.startswith("usage:") and message in err


class TestRule:
    def test_census_table(self, tmp_path):
        rule = tmp_path / "catalan.rule"
        rule.write_text("axiom: 2\njump 1: (2..k+1), (k)\njump 1: (k)~\n")
        code, out, _ = run_cli(["rule", "--file", str(rule), "--levels", "5"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "0\t2\t1\t0\t1"
        assert lines[1] == "0\ttotal\t1\t0\t1"
        totals = [line.split("\t") for line in lines if line.split("\t")[1] == "total"]
        assert [int(row[4]) for row in totals] == [1, 2, 5, 14, 42, 132]

    def test_parse_error_reports_position(self, tmp_path):
        rule = tmp_path / "broken.rule"
        rule.write_text("axiom: 2\njump 1: (q)\n")
        code, _, err = run_cli(["rule", "--file", str(rule), "--levels", "3"])
        assert code == 2
        assert "unknown variable 'q' at line 2, column 10" in err

    @pytest.mark.parametrize(
        "text,message",
        [
            ("axiom: 0\njump 1: (k-1)\n", "label -1 from atom (k-1..) at k=0"),
            ("axiom: 0\njump 1: (0)^k-1\n", "multiplicity -1 from atom ^k-1 at k=0"),
        ],
        ids=["label", "multiplicity"],
    )
    def test_negative_label_is_a_usage_error(self, tmp_path, text, message):
        rule = tmp_path / "negative.rule"
        rule.write_text(text)
        code, out, err = run_cli(["rule", "--file", str(rule), "--levels", "3"])
        assert (code, out, err) == (2, "", f"{rule}: {message}\n")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("axiom: \u00b2\n", "unexpected character '\u00b2' at line 1, column 8"),
            ("axiom: 2\njump \u0661: (k)\n", "unexpected character '\u0661' at line 2, column 6"),
            ("axiom: 2\njump 1: (" + "1" * 5000 + ")\n", "integer of 5000 digits is too long at line 2, column 10"),
        ],
        ids=["superscript-two", "arabic-indic-one", "5000-digits"],
    )
    def test_bad_integer_is_a_usage_error(self, tmp_path, text, message):
        rule = tmp_path / "integer.rule"
        rule.write_text(text, encoding="utf-8")
        code, out, err = run_cli(["rule", "--file", str(rule), "--levels", "3"])
        assert (code, out, err) == (2, "", f"{rule}: {message}\n")

    def test_file_that_is_not_utf8_is_a_usage_error(self, tmp_path):
        rule = tmp_path / "latin1.rule"
        rule.write_bytes("axiom: 2 # \u00e9\n".encode("latin-1"))
        code, out, err = run_cli(["rule", "--file", str(rule), "--levels", "3"])
        assert (code, out) == (2, "")
        assert err.startswith(f"{rule}: 'utf-8' codec can't decode byte 0xe9")

    def test_missing_file_is_a_usage_error(self):
        code, _, err = run_cli(["rule", "--file", "/nonexistent.rule", "--levels", "3"])
        assert code == 2

    def test_negative_levels_is_a_usage_error(self, tmp_path):
        rule = tmp_path / "catalan.rule"
        rule.write_text("axiom: 2\njump 1: (2..k+1), (k)\njump 1: (k)~\n")
        code, out, err = run_cli(["rule", "--file", str(rule), "--levels", "-1"])
        assert (code, out) == (2, "")
        assert "--levels: must be >= 0, got -1" in err


class TestTrace:
    def test_annihilated_word_shows_both_copies(self):
        code, out, _ = run_cli(["trace", "--j", "2", "--i", "1", "--word", "110"])
        assert code == 0
        assert sorted(out.splitlines()) == ["+\t-\tup:1>up:1", "-\t0\tmark:1"]

    def test_survivor_shows_single_plus_copy(self):
        code, out, _ = run_cli(["trace", "--j", "2", "--i", "1", "--word", "11"])
        assert code == 0
        assert out.splitlines() == ["+\t-\tup:1>up:2"]

    def test_rejects_non_binary_word(self):
        code, _, err = run_cli(["trace", "--j", "2", "--i", "1", "--word", "10x"])
        assert code == 2

    @pytest.mark.parametrize(
        "j,i,word",
        [
            (2, 1, "110110"),
            (2, 1, "0110110"),
            (2, 1, "11011011011"),
            (2, 1, "1000"),  # below the axis: no copy
            (4, 1, "111100"),
            (4, 1, "0111101"),
            (4, 1, "1111011110"),
        ],
    )
    def test_prints_the_copies_of_the_kept_run(self, j, i, word):
        run = run_levels(Pattern(j, i), word.count("1"), keep_nodes=True)
        want = "".join(
            f"{'+' if nd.parity > 0 else '-'}\t{','.join(map(str, nd.mw.spans)) or '-'}\t{'>'.join(nd.provenance) or '-'}\n"
            for nd in collect_copies(run, word)
        )
        assert run_cli(["trace", "--j", str(j), "--i", str(i), "--word", word]) == (0, want, "")

    def test_walks_the_tree_once(self, monkeypatch):
        walks = []
        real = construction._walk

        def spy(*args):
            walks.append(args[:2])
            return real(*args)

        monkeypatch.setattr(construction, "_walk", spy)
        code, out, _ = run_cli(["trace", "--j", "2", "--i", "1", "--word", "0110110"])
        assert (code, len(out.splitlines())) == (0, 4)
        assert walks == [(Pattern(2, 1), 4)]

    def test_over_budget_request_builds_no_tree(self, monkeypatch):
        walks = spy_on_walks(monkeypatch)
        code, out, err = run_cli(["trace", "--j", "2", "--i", "1", "--word", "110110", "--budget", "10"])
        assert (code, out, walks) == (2, "", [])
        assert err == "budget exceeded: 35 candidate words exceed budget 10\n"
        walks.clear()  # the word's level fits: the budget is that of its levels only
        code, out, _ = run_cli(["trace", "--j", "2", "--i", "1", "--word", "110", "--budget", "10"])
        assert (code, walks) == (0, [(Pattern(2, 1), 2)])

    def test_checks_the_levels_up_to_the_word(self):
        # (3,1) raises its sign-balance alarm on this word at level 7
        code, out, err = run_cli(["trace", "--j", "3", "--i", "1", "--word", "0001011101110"])
        assert (code, out) == (3, "")
        assert "net multiplicity -1" in err


class TestRender:
    def test_profile_with_validated_span(self):
        code, out, _ = run_cli(["render", "--word", "110", "--spans", "0", "--j", "2", "--i", "1"])
        assert code == 0
        assert out.splitlines() == [
            "   2 |   *",
            "   1 |  * *",
            "   0 | *",
            "       [--]",
        ]

    def test_profile_dips_below_axis(self):
        code, out, _ = run_cli(["render", "--word", "0110"])
        assert code == 0
        assert out.splitlines() == [
            "   1 |    *",
            "   0 | * * *",
            "  -1 |  *",
        ]

    def test_span_not_covering_factor_is_rejected(self):
        code, _, _ = run_cli(["render", "--word", "0110", "--spans", "0", "--j", "2", "--i", "1"])
        assert code == 2

    def test_span_without_factor_shape_is_rejected(self):
        code, _, _ = run_cli(["render", "--word", "01", "--spans", "1"])
        assert code == 2

    def test_span_start_before_the_word_is_rejected(self):
        code, out, err = run_cli(["render", "--word", "011", "--spans", "-1"])
        assert (code, out) == (2, "")
        assert "no factor shape at span start -1" in err

    @pytest.mark.parametrize("spans,start", [("-5", -5), ("0,-4", -4), ("-3", -3), ("-4,0", -4)])
    def test_span_start_far_before_the_word_is_rejected(self, spans, start):
        # a start below -len(word) indexed past the word and ended in an IndexError, exit 1;
        # a list led by a negative start, passed as its own argument, stopped in argparse
        code, out, err = run_cli(["render", "--word", "110", "--spans", spans])
        assert (code, out) == (2, "")
        assert f"no factor shape at span start {start}" in err

    @pytest.mark.parametrize("flag", ["--j", "--i"])
    def test_one_of_j_and_i_without_the_other_is_a_usage_error(self, flag):
        # the lone flag was ignored: the span was drawn unvalidated, exit 0
        code, out, err = run_cli(["render", "--word", "1100", "--spans", "0", flag, "3"])
        assert (code, out) == (2, "")
        assert "--j and --i must be given together" in err

    @pytest.mark.parametrize("word,spans", [("1100", "0,0"), ("11100", "0,1")])
    def test_overlapping_guessed_spans_are_a_usage_error(self, word, spans):
        # without --j/--i the spans were drawn over each other, exit 0
        code, out, err = run_cli(["render", "--word", word, "--spans", spans])
        assert (code, out) == (2, "")
        assert "overlapping spans" in err

    def test_malformed_span_list_is_a_usage_error(self):
        code, out, err = run_cli(["render", "--word", "110", "--spans", "0,,1"])
        assert (code, out) == (2, "")
        assert "--spans must be comma-separated integers" in err

    @pytest.mark.parametrize("spans", [" +0", "0_0", "+0", "0 ", "\u0660"])
    def test_a_span_that_is_not_an_integer_is_a_usage_error(self, spans):
        # int() read each of these as 0, and a span was drawn at 0
        code, out, err = run_cli(["render", "--word", "110", "--spans", spans])
        assert (code, out) == (2, "")
        assert err.startswith("usage:") and f"--spans must be comma-separated integers, got {spans!r}" in err


class TestTopLevel:
    def test_version(self):
        code, out, _ = run_cli(["--version"])
        assert code == 0
        assert out.strip() == "patternforge 0.1.0"

    def test_package_exports_every_module_name_once(self):
        import patternforge
        from patternforge import census, oracle, succession, verify, words

        modules = (words, census, construction, oracle, succession, verify)
        declared = {name for mod in modules for name in mod.__all__}
        assert sorted(patternforge.__all__) == sorted(declared)
        for mod in modules:
            for name in mod.__all__:
                assert getattr(patternforge, name) is getattr(mod, name)

    def test_every_soundness_error_is_an_invariant_violation(self):
        from patternforge.words import InvariantViolation

        assert construction.InvariantViolation is InvariantViolation
        for error in (
            UnclassifiablePath,
            NotDeltaError,
            NotGammaError,
            NoMarkedPoint,
            construction.SpanSplitError,
            construction.MultiplicityMismatch,
            construction.NetOutOfRange,
        ):
            assert issubclass(error, InvariantViolation)

    @pytest.mark.parametrize(
        "error,fields",
        [
            (construction.NetOutOfRange("110", 2, -1, (("mark",), ())), ("word", "level", "net", "provenances")),
            (RuleParseError("unknown variable 'q'", 2, 10), ("line", "col")),
        ],
        ids=["NetOutOfRange", "RuleParseError"],
    )
    def test_an_error_survives_pickle_and_copy(self, error, fields):
        # each took only its message back from args, so rebuilding it raised TypeError
        for clone in (pickle.loads(pickle.dumps(error)), copy.copy(error)):
            assert type(clone) is type(error) and str(clone) == str(error)
            assert [getattr(clone, f) for f in fields] == [getattr(error, f) for f in fields]
