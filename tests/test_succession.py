"""Succession-rule language: parser, label arithmetic, census engine."""

from __future__ import annotations

import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from patternforge.oracle import cluster_census, count_avoiding
from patternforge.succession import (
    Affine,
    Atom,
    CensusDiff,
    LevelCensus,
    NegativeLabel,
    Production,
    RuleParseError,
    RuleSpec,
    census_equal,
    expand_census,
    parse_rule,
)
from patternforge.words import Pattern

CATALAN_MARKED = "axiom: 2\njump 1: (2..k+1), (k)\njump 1: (k)~\n"
CATALAN_PLAIN = "axiom: 2\njump 1: (2..k+1)\n"
CATALAN = [1, 2, 5, 14, 42, 132]
RULES_DIR = Path(__file__).resolve().parents[1] / "rules"
RULE_FILES = sorted(RULES_DIR.glob("*.rule"))
# the j - i = 1 label rule, whose net census is the (j, j-1) tree's
LABEL_RULE = "axiom: 0\njump 1: (0..k+1), (0)\njump {j}: (0..k+1)~, (0)~\n"


# the grammar's characters, plus two digits outside ASCII that int() reads
_DIGITS = "0123456789\u00b2\u0661"
_RULE_CHARS = "axiomjuk:;\n,()~^+-*. \t\r" + _DIGITS


@st.composite
def _edited_rule_text(draw) -> str:
    """A well-formed rule with each integer redrawn over _DIGITS, then a
    few characters inserted, replaced or cut."""
    seed = draw(st.sampled_from([CATALAN_MARKED, CATALAN_PLAIN, LABEL_RULE.format(j=3), "axiom: 0\njump 1: (k+1)^k+2\n"]))
    text = re.sub("[0-9]+", lambda _: draw(st.text(_DIGITS, min_size=1, max_size=3)), seed)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.text(_RULE_CHARS, max_size=2)) + text[at + draw(st.integers(0, 2)) :]
    return text


class TestAffine:
    @pytest.mark.parametrize(
        "aff,text,at3",
        [
            (Affine(0, 5), "5", 5),
            (Affine(1, 0), "k", 3),
            (Affine(1, 1), "k+1", 4),
            (Affine(2, -1), "2*k-1", 5),
        ],
    )
    def test_render_and_eval(self, aff, text, at3):
        assert aff.render() == text
        assert aff(3) == at3


class TestParser:
    def test_catalan_marked_structure(self):
        rule = parse_rule(CATALAN_MARKED)
        assert rule.axiom == 2
        assert len(rule.productions) == 2
        first, second = rule.productions
        assert first.jump == 1 and len(first.atoms) == 2
        rng, single = first.atoms
        assert (rng.lo(0), rng.hi(0)) == (2, 1)  # empty range at k=0
        assert (rng.lo(4), rng.hi(4)) == (2, 5)
        assert not rng.marked and single.hi is None
        assert second.atoms[0].marked

    def test_separators_and_whitespace_are_flexible(self):
        rule = parse_rule("axiom: 2 ; jump 1: (2..k+1), (k) ; jump 1: (k)~")
        assert rule == parse_rule(CATALAN_MARKED)

    def test_multiplicity_suffix(self):
        rule = parse_rule("axiom: 0\njump 1: (k+1)^k+2\n")
        atom = rule.productions[0].atoms[0]
        assert atom.multiplicity(0) == 2
        assert atom.multiplicity(3) == 5

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("jump 1: (k)", "expected keyword 'axiom'"),
            ("axiom: 2", "at least one production"),
            ("axiom: 2\njump 0: (k)", "jump must be >= 1"),
            ("axiom: 2\njump 1: (q)", "unknown variable 'q'"),
            ("axiom: 2\njump 1: (k*k)", "not affine"),
            ("axiom: 2\njump 1: (k", "expected ')'"),
            ("axiom: 2\njump 1: [k]", "unexpected character"),
        ],
    )
    def test_errors_carry_position(self, text, fragment):
        with pytest.raises(RuleParseError) as err:
            parse_rule(text)
        assert fragment in str(err.value)
        assert err.value.line >= 1 and err.value.col >= 1

    @pytest.mark.parametrize(
        "text,fragment,line,col",
        [
            ("axiom: 2\njump 1: (z)\n", "unknown variable 'z'", 2, 10),
            ("axiom: 2\njump 0: (k)", "jump must be >= 1", 2, 6),
            ("axiom: 2\njump 1: (k*k)", "not affine", 2, 12),
            # digits outside ASCII, which int() would read
            ("axiom: \u00b2", "unexpected character '\u00b2'", 1, 8),
            ("axiom: 2\njump \u0661: (k)", "unexpected character '\u0661'", 2, 6),
            # past int()'s default limit of 4,300 digits
            ("axiom: 2\njump 1: (" + "1" * 5000 + ")", "integer of 5000 digits is too long", 2, 10),
            # each production needs a ';' or a newline in front of it
            ("axiom: 2 jump 1: (k) jump 1: (k)~", "expected ';' or newline", 1, 10),
        ],
        ids=[
            "unknown-variable",
            "jump-0",
            "k-times-k",
            "superscript-two",
            "arabic-indic-one",
            "5000-digits",
            "missing-separator",
        ],
    )
    def test_error_position_points_at_offending_token(self, text, fragment, line, col):
        with pytest.raises(RuleParseError) as err:
            parse_rule(text)
        assert fragment in str(err.value)
        assert (err.value.line, err.value.col) == (line, col)

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(st.text(_RULE_CHARS, max_size=40), _edited_rule_text()))
    def test_every_text_parses_or_raises_rule_parse_error(self, text):
        try:
            rule = parse_rule(text)
        except RuleParseError:
            return
        assert isinstance(rule, RuleSpec)


class TestAtomSemantics:
    def test_single_label_and_range(self):
        assert list(Atom(Affine(0, 3)).labels(7)) == [3]
        assert list(Atom(Affine(0, 2), Affine(1, 1)).labels(4)) == [2, 3, 4, 5]

    def test_descending_range_is_empty(self):
        assert list(Atom(Affine(0, 5), Affine(0, 2)).labels(0)) == []

    def test_negative_label_raises(self):
        with pytest.raises(NegativeLabel):
            Atom(Affine(1, -1), Affine(1, 0)).labels(0)

    def test_negative_multiplicity_raises(self):
        with pytest.raises(NegativeLabel):
            Atom(Affine(0, 0), mult=Affine(1, -2)).multiplicity(1)


class TestCensusEngine:
    def test_classical_catalan_level_two(self):
        censuses = expand_census(parse_rule(CATALAN_PLAIN), 2)
        assert censuses[0].counts == {2: (1, 0)}
        assert censuses[1].counts == {2: (1, 0), 3: (1, 0)}
        assert censuses[2].counts == {2: (2, 0), 3: (2, 0), 4: (1, 0)}

    def test_marked_catalan_level_one(self):
        censuses = expand_census(parse_rule(CATALAN_MARKED), 1)
        assert censuses[1].counts == {2: (2, 1), 3: (1, 0)}

    @pytest.mark.parametrize("text", [CATALAN_PLAIN, CATALAN_MARKED])
    def test_catalan_net_totals(self, text):
        censuses = expand_census(parse_rule(text), 5)
        assert [c.net_total() for c in censuses] == CATALAN

    def test_jump_two_skips_levels(self):
        censuses = expand_census(parse_rule("axiom: 0\njump 2: (k)\n"), 5)
        assert [c.net_total() for c in censuses] == [1, 0, 1, 0, 1, 0]

    @pytest.mark.parametrize("j", [2, 3, 4, 5])
    def test_committed_label_rule_nets_the_avoiding_words(self, j):
        """rules/p-j-i1-J.rule nets, at level n and label k, the words with n
        ones and n - k zeros that avoid 1^J 0^(J-1), and nothing elsewhere."""
        pattern = Pattern(j, j - 1)
        for census in expand_census(parse_rule((RULES_DIR / f"p-j-i1-{j}.rule").read_text()), 60):
            n = census.level
            want = {k: count_avoiding(pattern, n, n - k) for k in range(n + 1)}
            assert {k: census.net(k) for k in want} == want, n
            assert [k for k in census.counts if k not in want and census.net(k)] == [], n

    @pytest.mark.parametrize("j", [2, 3, 4, 5])
    def test_committed_label_rule_carries_the_cluster_census(self, j):
        """Not only the nets: at level n, label k carries exactly the plus and
        minus copies the cluster method gives the words with n ones and n - k
        zeros, and no other label carries a copy."""
        for census in expand_census(parse_rule((RULES_DIR / f"p-j-i1-{j}.rule").read_text()), 120):
            n = census.level
            assert census.counts == {k: cluster_census(j, j - 1, n, n - k) for k in range(n + 1)}, n

    def test_expansion_surfaces_negative_labels(self):
        with pytest.raises(NegativeLabel):
            expand_census(parse_rule("axiom: 0\njump 1: (k-1..k)\n"), 1)

    def test_a_negative_level_count_is_refused(self):
        # it indexed past an empty edge list: IndexError
        with pytest.raises(ValueError, match="levels must be >= 0"):
            expand_census(parse_rule("axiom: 0\njump 1: (0..k+1)"), -1)


class TestCensusEqual:
    def test_net_equal_but_exact_unequal(self):
        a = expand_census(parse_rule(CATALAN_MARKED), 8)
        b = expand_census(parse_rule(CATALAN_PLAIN), 8)
        assert census_equal(a, b, "net").equal
        diff = census_equal(a, b, "exact")
        assert not diff.equal
        assert (diff.level, diff.label) == (1, 2)
        assert diff.message() == "diverge at level 1 label 2: (2, 1) != (1, 0)"

    def test_exact_self_equality(self):
        a = expand_census(parse_rule(CATALAN_MARKED), 4)
        assert census_equal(a, a, "exact").equal
        assert census_equal(a, a).message() == "censuses equal"

    def test_rejects_bad_mode_and_mismatched_levels(self):
        a = expand_census(parse_rule(CATALAN_PLAIN), 2)
        with pytest.raises(ValueError):
            census_equal(a, a, "fuzzy")
        with pytest.raises(ValueError):
            census_equal(a, a[:-1])


# a pool of label expressions that never dip below zero for k >= 0
_nonneg = st.one_of(
    st.builds(Affine, st.just(0), st.integers(0, 3)),
    st.builds(Affine, st.just(1), st.integers(0, 2)),
)
_atom_st = st.builds(
    Atom,
    lo=_nonneg,
    hi=st.one_of(st.none(), _nonneg),
    marked=st.booleans(),
    mult=st.builds(Affine, st.just(0), st.integers(1, 2)),
)
_prod_st = st.builds(
    Production,
    jump=st.integers(1, 2),
    atoms=st.lists(_atom_st, min_size=1, max_size=3).map(tuple),
)
_rule_st = st.builds(
    RuleSpec,
    axiom=st.integers(0, 3),
    productions=st.lists(_prod_st, min_size=1, max_size=2).map(tuple),
)


class TestSignPropagation:
    @settings(max_examples=60, deadline=None)
    @given(_rule_st)
    def test_self_cancelling_pair_preserves_every_net(self, rule):
        """Adding '(k)~, (k)' to a rule spawns opposite-sign twin subtrees
        whose censuses cancel exactly, so per-label nets never move."""
        pair = Production(1, (Atom(Affine(1, 0), marked=True), Atom(Affine(1, 0))))
        padded = RuleSpec(rule.axiom, rule.productions + (pair,))
        assert census_equal(expand_census(rule, 6), expand_census(padded, 6), "net").equal

    def test_double_marking_restores_plus(self):
        # a marked child of a marked child counts as plus again
        censuses = expand_census(parse_rule("axiom: 1\njump 1: (k)~\n"), 3)
        assert [c.counts for c in censuses[1:]] == [
            {1: (0, 1)},
            {1: (1, 0)},
            {1: (0, 1)},
        ]


def per_child_census(rule: RuleSpec, levels: int) -> list[LevelCensus]:
    """Reference: the evaluator as it ran before range edges, one dict cell
    written per child label."""
    table: list[dict[tuple[int, bool], int]] = [dict() for _ in range(levels + 1)]
    table[0][(rule.axiom, False)] = 1
    for level in range(levels + 1):
        for (label, minus), count in table[level].items():
            for prod in rule.productions:
                target = level + prod.jump
                if target > levels:
                    continue
                bucket = table[target]
                for atom in prod.atoms:
                    mult = atom.multiplicity(label)
                    if mult == 0:
                        continue
                    sign = minus ^ atom.marked
                    for child in atom.labels(label):
                        key = (child, sign)
                        bucket[key] = bucket.get(key, 0) + count * mult
    out = []
    for level, cells in enumerate(table):
        counts: dict[int, tuple[int, int]] = {}
        for (label, minus), count in sorted(cells.items()):
            p, m = counts.get(label, (0, 0))
            counts[label] = (p, m + count) if minus else (p + count, m)
        out.append(LevelCensus(level, counts))
    return out


def outcome(evaluate, rule: RuleSpec, levels: int):
    """(evaluate(rule, levels), None), or (None, (the NegativeLabel it
    raised, the locals of its frame)): the frame names the level being
    expanded."""
    try:
        return evaluate(rule, levels), None
    except NegativeLabel as exc:
        tb = exc.__traceback__
        while tb.tb_frame.f_code is not evaluate.__code__:
            tb = tb.tb_next
        return None, (exc, tb.tb_frame.f_locals)


def smallest_failure(rule: RuleSpec, levels: int, level: int, nodes) -> str:
    """The message NegativeLabel carries for the smallest (label, sign) of
    `nodes` at `level` whose productions, within `levels`, yield a negative
    label or multiplicity."""
    for label, _minus in sorted(nodes):
        try:
            for prod in rule.productions:
                if level + prod.jump <= levels:
                    for atom in prod.atoms:
                        if atom.multiplicity(label):
                            atom.labels(label)
        except NegativeLabel as exc:
            return str(exc)
    raise AssertionError(f"no node of level {level} fails")


def assert_matches_per_child(rule: RuleSpec, levels: int) -> None:
    want, failure = outcome(per_child_census, rule, levels)
    have, got = outcome(expand_census, rule, levels)
    if failure is None:
        assert got is None, str(got[0])
        assert [(c.level, c.counts) for c in have] == [(c.level, c.counts) for c in want]
        assert [list(c.counts) for c in have] == [list(c.counts) for c in want]
        return
    level = failure[1]["level"]
    assert got is not None, f"per-child evaluator raised at level {level}, expand_census returned"
    exc, frame = got
    assert frame["level"] == level
    assert str(exc) == smallest_failure(rule, levels, level, failure[1]["table"][level])


# the label pool widened with k-1, k-2 and k-3, negative for small k; a
# range can also come out empty (hi < lo)
_wide_label = st.one_of(_nonneg, st.builds(Affine, st.just(1), st.integers(-3, -1)))
_wide_atom_st = st.builds(
    Atom,
    lo=_wide_label,
    hi=st.one_of(st.none(), _wide_label),
    marked=st.booleans(),
    # multiplicity 0, and k-dependent ones, negative for small k
    mult=st.one_of(
        st.builds(Affine, st.just(0), st.integers(0, 2)),
        st.builds(Affine, st.just(1), st.integers(-2, 1)),
    ),
)
_wide_rule_st = st.builds(
    RuleSpec,
    axiom=st.integers(0, 3),
    productions=st.lists(
        st.builds(
            Production,
            jump=st.integers(1, 3),
            atoms=st.lists(_wide_atom_st, min_size=1, max_size=3).map(tuple),
        ),
        min_size=1,
        max_size=3,
    ).map(tuple),
)


class TestRangeEdges:
    """expand_census adds each child range as two edges; the per-child
    evaluator it replaced is the reference."""

    @pytest.mark.parametrize("path", RULE_FILES, ids=lambda path: path.name)
    def test_committed_rules(self, path):
        assert_matches_per_child(parse_rule(path.read_text()), 60)

    @pytest.mark.parametrize("j", [2, 3, 4, 5])
    def test_label_rule(self, j):
        assert_matches_per_child(parse_rule(LABEL_RULE.format(j=j)), 30)

    @settings(max_examples=300, deadline=None)
    @given(_wide_rule_st, st.integers(0, 8))
    def test_random_rules(self, rule, levels):
        assert_matches_per_child(rule, levels)

    def test_smallest_failing_node_of_the_level_is_named(self):
        # level 1 holds labels 3, 1, 0, 2, ... in the order they were
        # reached; every label below 6 fails (k-6..k), and label 0 is named
        rule = parse_rule("axiom: 6\njump 1: (3), (1), (k-6..k)\n")
        with pytest.raises(NegativeLabel, match=r"^label -6 from atom \(k-6\.\.\) at k=0$"):
            expand_census(rule, 2)
        _, (exc, frame) = outcome(per_child_census, rule, 2)
        assert (frame["level"], str(exc)) == (1, "label -3 from atom (k-6..) at k=3")
        assert_matches_per_child(rule, 2)
