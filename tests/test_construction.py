"""Level engine: productions, cut-and-paste, tree runs, annihilation."""

from __future__ import annotations

import re
import tracemalloc
from collections import Counter
from itertools import accumulate, combinations, compress, product, repeat
from operator import ge

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    CLEAN_PATTERNS,
    DIFFERENTIAL_PATTERNS,
    cached_run,
    drop_last_mark_child,
    expected_word_census,
)
from patternforge.construction import (
    InvariantViolation,
    MultiplicityMismatch,
    NetOutOfRange,
    NoMarkedPoint,
    NotDeltaError,
    NotGammaError,
    SpanSplitError,
    TreeNode,
    _behind,
    collect_copies,
    compute_a,
    copies_of,
    cut_and_paste,
    delta_jump1,
    delta_jumpj,
    expand_node,
    gamma_expand,
    run_levels,
)
from patternforge import construction
from patternforge.census import WordCensus
from patternforge.oracle import BudgetExceeded, brute_force, cluster_census
from patternforge.words import (
    MarkedWord,
    PathClass,
    PathKind,
    Pattern,
    classify,
    height,
    occurrences,
    profile,
    rightmost_suffix,
)

P21 = Pattern(2, 1)
P31 = Pattern(3, 1)
P32 = Pattern(3, 2)
P41 = Pattern(4, 1)
P52 = Pattern(5, 2)


@st.composite
def marked_words(draw, pattern: Pattern) -> MarkedWord:
    """A validly marked word over rises, falls and marked factors."""
    word, spans = "", []
    for step in draw(st.lists(st.sampled_from(["1", "0", "M"]), max_size=12)):
        if step == "M":
            spans.append(len(word))
            word += pattern.factor
        else:
            word += step
    return MarkedWord(word, tuple(spans))


def node_for(word: str, spans: tuple[int, ...] = ()) -> TreeNode:
    parity = 1 if len(spans) % 2 == 0 else -1
    return TreeNode(MarkedWord(word, spans), height(word), parity, word.count("1"))


class TestSlackParameter:
    @pytest.mark.parametrize(
        "word,expected",
        [("1010", 0), ("110", 1), ("111110000", 2), ("11", 0)],
    )
    def test_goldens(self, word, expected):
        assert compute_a(MarkedWord(word), P41) == expected

    def test_clamped_to_pattern_window(self):
        # slack never exceeds j-i-1
        assert compute_a(MarkedWord("111110000"), P31) == 1


class TestCutAndPaste:
    def test_goldens(self):
        out = cut_and_paste(MarkedWord("110", (0,)), P21)
        assert (out.word, out.spans) == ("0110", (1,))
        out = cut_and_paste(MarkedWord("11100", (0,)), P32)
        assert (out.word, out.spans) == ("011100", (1,))

    def test_drops_endpoint_by_one(self):
        for text in ["110", "11011", "110110@3"]:
            mw = MarkedWord.from_text(text)
            mw = MarkedWord(mw.word, mw.spans or (0,))
            out = cut_and_paste(mw, P21)
            assert height(out.word) == height(mw.word) - 1
            assert len(out.spans) == len(mw.spans)

    def test_requires_a_span(self):
        with pytest.raises(NoMarkedPoint):
            cut_and_paste(MarkedWord("11"), P21)

    def test_requires_positive_endpoint(self):
        with pytest.raises(ValueError):
            cut_and_paste(MarkedWord("1100", (0,)), P21)

    @pytest.mark.parametrize(
        "mw",
        [MarkedWord("110", (1,)), MarkedWord("1101", (0, 1)), MarkedWord("1110", (0,))],
        ids=["out-of-bounds", "overlapping", "not-the-factor"],
    )
    @pytest.mark.parametrize("operation", [cut_and_paste, compute_a])
    def test_malformed_spans_are_refused(self, operation, mw):
        with pytest.raises(ValueError):
            operation(mw, P21)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_reads_only_the_rightmost_axis_suffix(self, data):
        """Cut-and-paste and the slack a of v + w, for a marked word w and a
        marked prefix v ending on the axis, are those of w with v in front."""
        pattern = data.draw(st.sampled_from([P21, P31, P32, P41, P52]))
        w = data.draw(marked_words(pattern))
        v = data.draw(marked_words(pattern))
        k = height(v.word)
        v = MarkedWord(v.word + ("0" * k if k > 0 else "1" * -k), v.spans)
        shift = len(v.word)
        vw = MarkedWord(v.word + w.word, v.spans + tuple(s + shift for s in w.spans))

        def outcome(operation, mw):
            try:
                return operation(mw, pattern)
            except Exception as exc:
                return type(exc)

        cut = outcome(cut_and_paste, w)
        if isinstance(cut, MarkedWord):
            cut = MarkedWord(v.word + cut.word, v.spans + tuple(s + shift for s in cut.spans))
        assert outcome(cut_and_paste, vw) == cut
        assert outcome(compute_a, vw) == outcome(compute_a, w)


class TestDeltaJump1:
    @pytest.mark.parametrize(
        "word,expected",
        [
            ("", {("01", 0, "up:axis"), ("1", 1, "up:1"), ("10", 0, "up:0")}),
            (
                "1",
                {
                    ("0011", 0, "up:axis"),
                    ("11", 2, "up:2"),
                    ("110", 1, "up:1"),
                    ("1100", 0, "up:0"),
                },
            ),
            ("01", {("0101", 0, "up:axis"), ("011", 1, "up:1"), ("0110", 0, "up:0")}),
        ],
    )
    def test_goldens(self, word, expected):
        kids = delta_jump1(node_for(word), P21)
        assert {(c.mw.word, c.label, c.provenance[-1]) for c in kids} == expected
        assert all(c.parity == 1 and c.level == word.count("1") + 1 for c in kids)

    def test_rejects_gamma_input(self):
        with pytest.raises(NotDeltaError):
            delta_jump1(node_for("01110", (1,)), P31)


class TestDeltaJumpJ:
    def test_axiom_golden(self):
        kids = delta_jumpj(node_for(""), P21)
        assert {(c.mw.to_text(), c.label) for c in kids} == {
            ("1100@0", 0),
            ("110@0", 1),
            ("0110@1", 0),
        }
        assert all(c.parity == -1 and c.level == 2 for c in kids)

    @pytest.mark.parametrize(
        "pattern,expected",
        [
            (P21, {0: 2, 1: 1}),
            (P31, {0: 3, 1: 2, 2: 1}),
            (P52, {0: 4, 1: 3, 2: 2, 3: 1}),
        ],
    )
    def test_axiom_label_multiset(self, pattern, expected):
        kids = delta_jumpj(node_for(""), pattern)
        assert Counter(c.label for c in kids) == expected
        assert {c.level for c in kids} == {pattern.j}
        assert all(len(c.mw.spans) == 1 for c in kids)

    def test_rejects_gamma_input(self):
        with pytest.raises(NotDeltaError):
            delta_jumpj(node_for("01110", (1,)), P31)

    def test_a_family_off_its_label_multiset_is_refused(self, monkeypatch):
        monkeypatch.setattr(construction, "_appends", drop_last_mark_child(construction._appends))
        with pytest.raises(MultiplicityMismatch, match=re.escape("jump-2 of  (k=0, a=0): {0: 2} != {0: 2, 1: 1}")):
            run_levels(P21, 4)


class TestGammaExpand:
    def test_golden(self):
        node = node_for("01110", (1,))
        out = expand_node(node, P31)
        assert sorted(out) == [4, 6]
        assert {(c.mw.to_text(), c.label, c.parity) for c in out[4]} == {
            ("011101@1", 2, -1),
            ("0111010@1", 1, -1),
            ("01110100@1", 0, -1),
        }
        assert {(c.mw.to_text(), c.label, c.parity) for c in out[6]} == {
            ("011101110@1,5", 3, 1),
            ("0111011100@1,5", 2, 1),
            ("01110111000@1,5", 1, 1),
            ("011101110000@1,5", 0, 1),
        }

    def test_rejects_delta_input(self):
        with pytest.raises(NotGammaError):
            gamma_expand(node_for("110"), P21)


class TestProvenanceTags:
    """Each production family's tags, as `patternforge trace` prints them."""

    @pytest.mark.parametrize(
        "node,pattern,want",
        [
            (
                node_for(""),
                P41,
                {
                    1: {"up:0", "up:1", "up:axis"},
                    4: {f"mark:{y}" for y in range(4)}
                    | {"mark:cut0", "mark:cut0+1", "mark:cut0+2", "mark:cut1", "mark:cut1+1", "mark:cut2"},
                },
            ),
            (
                node_for("01110", (1,)),
                P31,
                {4: {f"gup:{y}" for y in range(3)}, 6: {f"gmark:{y}" for y in range(4)}},
            ),
        ],
        ids=["delta-root", "gamma"],
    )
    def test_every_family_tags_its_children(self, node, pattern, want):
        groups = expand_node(node, pattern)
        assert {level: {kid.provenance[-1] for kid in kids} for level, kids in groups.items()} == want


class TestProductionLaws:
    """Child-count laws checked against live nodes from real runs."""

    @pytest.mark.parametrize("j,i,max_ones", [(2, 1, 5), (3, 1, 4), (3, 2, 5), (4, 2, 5)])
    def test_child_multisets_follow_the_laws(self, j, i, max_ones):
        pattern = Pattern(j, i)
        ji = j - i
        result = cached_run(j, i, max_ones, keep_nodes=True)
        checked_delta = checked_gamma = 0
        for rep in result.levels:
            for node in rep.nodes:
                pc = classify(node.mw, pattern)
                k = node.label
                if pc.is_delta:
                    ones = Counter(c.label for c in delta_jump1(node, pattern))
                    assert ones == Counter({0: 2} | {y: 1 for y in range(1, k + 2)})
                    a = compute_a(node.mw, pattern)
                    js = Counter(c.label for c in delta_jumpj(node, pattern))
                    assert js == {m: 1 + max(0, ji - a - m) for m in range(k + ji + 1)}
                    checked_delta += 1
                else:
                    one, jay = gamma_expand(node, pattern)
                    assert Counter(c.label for c in one) == {y: 1 for y in range(k + 2)}
                    assert Counter(c.label for c in jay) == {y: 1 for y in range(k + ji + 1)}
                    checked_gamma += 1
        assert checked_delta > 0
        if ji >= 2:
            assert checked_gamma > 0

    def test_expand_node_targets_and_order(self):
        node = node_for("1")
        out = expand_node(node, P21)
        assert sorted(out) == [2, 3]
        for kids in out.values():
            assert [c.sort_key for c in kids] == sorted(c.sort_key for c in kids)
        # jump-1 children keep the parent parity, jump-j children flip it
        assert {c.parity for c in out[2]} == {1}
        assert {c.parity for c in out[3]} == {-1}


class TestRunLevels:
    def test_first_levels_golden(self):
        result = cached_run(2, 1, 2)
        assert result.levels[0].survivors == ("",)
        assert set(result.levels[1].survivors) == {"1", "01", "10"}
        assert set(result.levels[2].survivors) == {
            "11",
            "101",
            "011",
            "1010",
            "1001",
            "0101",
            "0011",
        }

    def test_annihilated_words_carry_one_copy_of_each_sign(self):
        census = cached_run(2, 1, 2).levels[2].word_census
        for word in ["110", "1100", "0110"]:
            assert census[word] == (1, 1)

    def test_survivor_order_matches_enumeration(self):
        result = cached_run(2, 1, 5)
        for rep in result.levels:
            assert rep.survivors == tuple(brute_force(P21, rep.level))

    def test_survivors_are_exactly_the_net_one_words(self):
        for rep in cached_run(3, 2, 5).levels:
            nets = {w: p - m for w, (p, m) in rep.word_census.items()}
            assert set(rep.survivors) == {w for w, n in nets.items() if n == 1}
            assert set(nets.values()) <= {0, 1}

    def test_empty_run_and_bad_input(self):
        result = run_levels(P21, 0)
        assert len(result.levels) == 1
        assert result.levels[0].survivors == ("",)
        with pytest.raises(ValueError):
            run_levels(P21, -1)
        with pytest.raises(ValueError):  # before the budget
            run_levels(P21, -1, budget=0)

    @pytest.mark.parametrize(
        "max_ones,budget,message",
        [
            (13, None, "20058300 candidate words exceed budget 10000000"),  # about 1 GB of census by extrapolation
            (3, 10, "35 candidate words exceed budget 10"),  # the first level over budget
        ],
    )
    def test_an_over_budget_run_is_refused_before_the_walk(self, monkeypatch, max_ones, budget, message):
        def no_walk(*args):
            raise AssertionError("walked")

        monkeypatch.setattr(construction, "_walk", no_walk)
        kwargs = {} if budget is None else {"budget": budget}
        for keep_nodes in (False, True):
            with pytest.raises(BudgetExceeded) as err:
                run_levels(P21, max_ones, keep_nodes=keep_nodes, **kwargs)
            assert str(err.value) == message
        monkeypatch.undo()
        assert len(run_levels(P21, 2, budget=10).levels) == 3  # level 2 has 10 candidates

    def test_gamma_nodes_appear_only_when_possible(self):
        # a qualifying span needs i < b < j, impossible when j - i = 1
        assert cached_run(3, 2, 5).gamma_total == 0
        assert cached_run(3, 1, 5).gamma_total > 0


def reference_levels(pattern: Pattern, max_ones: int):
    """Level-synchronous reference engine: whole levels in node order,
    (sort_key, provenance).  Yields (nodes, label census, word census,
    survivors, class counts) per level, with no sign-balance check."""
    buckets = {0: [TreeNode(MarkedWord(""), 0, 1, 0)]}
    for n in range(max_ones + 1):
        nodes = sorted(buckets.pop(n, []), key=lambda nd: (nd.sort_key, nd.provenance))
        labels, words = {}, {}
        for nd in nodes:
            slot = 0 if nd.parity > 0 else 1
            labels.setdefault(nd.label, [0, 0])[slot] += 1
            words.setdefault(nd.mw.word, [0, 0])[slot] += 1
        pcs = [classify(nd.mw, pattern) for nd in nodes]
        yield (
            tuple(nodes),
            {k: tuple(c) for k, c in sorted(labels.items())},
            {w: tuple(c) for w, c in words.items()},
            tuple(sorted((w for w, (p, m) in words.items() if p - m == 1), key=lambda w: (len(w), w))),
            dict(Counter(pc.kind.value for pc in pcs)),
        )
        for nd in nodes if n < max_ones else ():
            for level, kids in expand_node(nd, pattern, max_ones).items():
                buckets.setdefault(level, []).extend(kids)


class Boom(Exception):
    pass


def fail_on(monkeypatch, should_fail):
    """Make construction._expand, the walk's seam under expand_node, raise
    Boom(level, sort_key) on the copies should_fail picks, each seen as a
    node without lineage."""
    real = construction._expand

    def expand(word, spans, label, parity, level, state, pattern, max_level=None):
        node = TreeNode(MarkedWord(word, spans), label, parity, level)
        if should_fail(node):
            raise Boom(level, node.sort_key)
        return real(word, spans, label, parity, level, state, pattern, max_level)

    monkeypatch.setattr(construction, "_expand", expand)


def reference_nodes(pattern: Pattern, max_ones: int) -> list[tuple[TreeNode, ...]]:
    """The nodes of each level of the reference engine."""
    return [nodes for nodes, *_ in reference_levels(pattern, max_ones)]


def walked_nodes(levels: list[tuple[TreeNode, ...]]):
    """The nodes of the reference's levels that run_levels' own walk meets,
    in level and sort_key order: those with no axis return (a label-0 node
    above the root) among their ancestors."""
    by_lineage = {nd.provenance: nd for nodes in levels for nd in nodes}
    return [
        nd
        for nodes in levels
        for nd in nodes
        if all(by_lineage[nd.provenance[:k]].label > 0 for k in range(1, len(nd.provenance)))
    ]


def reference_alarm(levels):
    """(word, level, net, copies) of the NetOutOfRange a run over the
    reference engine's `levels` raises: the smallest word of the first
    level with a net outside {0, 1}, and its copies in node order."""
    for nodes, _, words, _, _ in levels:
        bad = sorted(w for w, (p, m) in words.items() if p - m not in (0, 1))
        if bad:
            copies = [nd for nd in nodes if nd.mw.word == bad[0]]
            p, m = words[bad[0]]
            return bad[0], copies[0].level, p - m, copies
    return None


def report_fields(rep):
    """Every LevelReport field but the nodes, in their order."""
    return (
        rep.level,
        list(rep.label_census.items()),
        list(rep.word_census.items()),
        rep.survivors,
        list(rep.class_counts.items()),
    )


def reference_fields(levels):
    """report_fields of the reference's levels, class counts in PathKind
    order as run_levels gives them."""
    return [
        (
            n,
            list(labels.items()),
            list(words.items()),
            survivors,
            [(kind.value, classes[kind.value]) for kind in PathKind if kind.value in classes],
        )
        for n, (_, labels, words, survivors, classes) in enumerate(levels)
    ]


class TestDepthFirstWalk:
    """run_levels walks the tree depth-first; its reports and its failures
    must be those of a level-by-level run."""

    @pytest.mark.parametrize("j,i", DIFFERENTIAL_PATTERNS)
    def test_reports_equal_the_level_synchronous_reference(self, j, i):
        pattern = Pattern(j, i)
        kept = run_levels(pattern, 6, keep_nodes=True)
        streamed = cached_run(j, i, 6)
        want = list(reference_levels(pattern, 6))
        assert len(kept.levels) == len(streamed.levels) == len(want) == 7
        for rep, plain, (nodes, labels, words, survivors, classes) in zip(kept.levels, streamed.levels, want):
            assert rep.nodes == nodes and plain.nodes is None
            for got in (rep, plain):
                assert got.label_census == labels
                assert list(got.word_census.items()) == list(words.items())  # ascending words
                assert got.survivors == survivors
                assert got.class_counts == classes

    def test_failure_waits_for_lower_levels(self, monkeypatch):
        # the largest expanded level-2 node and every level-4 node fail to
        # expand (axis returns above the root are never expanded)
        top = max(nd.sort_key for nd in walked_nodes(reference_nodes(P21, 2)) if nd.level == 2 and nd.label > 0)
        fail_on(monkeypatch, lambda nd: nd.level == 4 or nd.sort_key == top)
        assert run_levels(P21, 2).levels[2].survivors  # level 2 is never expanded
        with pytest.raises(Boom) as err:
            run_levels(P21, 6)
        assert err.value.args == (2, top)

    def test_smallest_node_of_a_level_fails_first(self, monkeypatch):
        nodes = [nd for nd in walked_nodes(reference_nodes(P21, 3)) if nd.level == 3]
        fail_on(monkeypatch, lambda nd: nd.level == 3)
        with pytest.raises(Boom) as err:
            run_levels(P21, 5)
        assert err.value.args == (3, [nd for nd in nodes if nd.label > 0][0].sort_key)
        # a classification failure on the same level comes before any
        # expansion.  A node that ends on the axis is never rescanned, so
        # take (3,1), whose jump-3 families grow label-1 cut children.
        nodes = [nd for nd in walked_nodes(reference_nodes(P31, 3)) if nd.level == 3]
        last = [nd for nd in nodes if nd.label > 0 and "cut" in nd.provenance[-1]][-1]  # the largest node classify sees
        real_classify = construction.classify

        def classify_or_fail(mw, pattern):
            if mw == last.mw:
                raise Boom(3, last.sort_key)
            return real_classify(mw, pattern)

        monkeypatch.setattr(construction, "classify", classify_or_fail)
        with pytest.raises(Boom) as err:
            run_levels(P31, 5)
        assert err.value.args == (3, last.sort_key)

    @pytest.mark.parametrize("failing_level,raised", [(4, Boom), (5, NetOutOfRange), (6, NetOutOfRange)])
    def test_net_out_of_range_wins_from_its_level_on(self, monkeypatch, failing_level, raised):
        # a sloped cut line breaks the sign balance at level 5 (see TestCutGeometry)
        move_geometry(monkeypatch, slope=1)
        fail_on(monkeypatch, lambda nd: nd.level == failing_level)
        with pytest.raises(raised) as err:
            run_levels(P21, 7)
        if raised is NetOutOfRange:
            assert (err.value.word, err.value.level, err.value.net) == ("0011001101", 5, -1)
        else:
            assert err.value.args[0] == failing_level

    def test_alarm_provenances_are_those_of_the_kept_copies(self, differential_runs):
        err = differential_runs[(3, 1)]["error"]  # criterion 8's alarm
        assert (err.word, err.level) == ("0001011101110", 7)
        # level 7 grows from level 6 by jump 1 and from level 4 by jump 3
        below = run_levels(P31, 6, keep_nodes=True)
        copies = [
            kid
            for level in (6, 4)
            for node in below.levels[level].nodes
            for kid in expand_node(node, P31, max_level=7).get(7, [])
            if kid.mw.word == err.word
        ]
        assert len(copies) >= 2
        assert err.provenances == tuple(c.provenance for c in sorted(copies, key=lambda c: c.sort_key))

    def test_axis_returns_are_never_expanded(self, monkeypatch):
        want = [report_fields(rep) for rep in cached_run(2, 1, 6).levels]
        nodes = reference_nodes(P21, 6)
        fail_on(monkeypatch, lambda nd: nd.label == 0 and nd.level > 0)
        assert [report_fields(rep) for rep in run_levels(P21, 6).levels] == want
        kept = run_levels(P21, 6, keep_nodes=True)  # their subtrees are grown, not walked
        assert [report_fields(rep) for rep in kept.levels] == want
        assert [rep.nodes for rep in kept.levels] == nodes

    @pytest.mark.parametrize("geometry", [{"slope": 1}, {"highest_first": False}], ids=["sloped", "leftmost"])
    @pytest.mark.parametrize("j,i,max_ones", [(3, 1, 8), (4, 1, 9)])
    def test_alarms_equal_those_of_the_full_walk(self, monkeypatch, geometry, j, i, max_ones):
        move_geometry(monkeypatch, **geometry)
        pattern = Pattern(j, i)
        word, level, net, copies = reference_alarm(reference_levels(pattern, max_ones))
        for keep_nodes in (False, True):
            with pytest.raises(NetOutOfRange) as err:
                run_levels(pattern, max_ones, keep_nodes=keep_nodes)
            assert (err.value.word, err.value.level, err.value.net) == (word, level, net)
            # the lineages of the reference's copies, in node order
            assert err.value.provenances == tuple(nd.provenance for nd in copies) and len(copies) >= 2

    @pytest.mark.parametrize("j,i", [(2, 1), (3, 1)])
    def test_copies_keep_node_order_whatever_order_the_walk_meets_them(self, monkeypatch, j, i):
        # a sloped cut line grows copies that tie on sort_key at the alarm level
        move_geometry(monkeypatch, slope=1)
        pattern = Pattern(j, i)
        word, level, net, copies = reference_alarm(reference_levels(pattern, 5))
        assert len({nd.sort_key for nd in copies}) < len(copies)
        real_walk = construction._walk

        def walk_backwards(*args):
            tallies, failure = real_walk(*args)
            for tally in tallies:
                tally.kept.reverse()
            return tallies, failure

        monkeypatch.setattr(construction, "_walk", walk_backwards)
        for keep_nodes in (False, True):
            with pytest.raises(NetOutOfRange) as err:
                run_levels(pattern, 5, keep_nodes=keep_nodes)
            assert (err.value.word, err.value.level) == (word, level)
            assert err.value.provenances == tuple(nd.provenance for nd in copies)
        kept = run_levels(pattern, level - 1, keep_nodes=True)
        assert [rep.nodes for rep in kept.levels] == reference_nodes(pattern, level - 1)

    def test_kept_nodes_that_tie_on_sort_key_are_reported_in_lineage_order(self, monkeypatch):
        # no reported level holds a tie, so twins of one kept node are made:
        # same word, spans and sign, met by the walk out of lineage order
        real_walk = construction._walk
        level = 4
        chosen = []

        def walk_with_twins(*args):
            tallies, failure = real_walk(*args)
            kept = tallies[level].kept
            node = kept[len(kept) // 2]
            chosen.append(node)
            kept.insert(0, node._replace(provenance=node.provenance + ("~",)))  # lineage after the node's
            kept.append(node._replace(provenance=()))  # lineage before it
            return tallies, failure

        monkeypatch.setattr(construction, "_walk", walk_with_twins)
        nodes = run_levels(P21, 5, keep_nodes=True).levels[level].nodes
        (node,) = chosen
        assert node.provenance
        twins = [nd.provenance for nd in nodes if nd.sort_key == node.sort_key]
        assert twins == [(), node.provenance, node.provenance + ("~",)]

    def test_memory_holds_words_not_copies(self):
        def peak(**kwargs):
            tracemalloc.start()
            try:
                run_levels(P21, 6, **kwargs)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # measured ratio: 0.21 (0.63 MB against 3.0 MB)
        assert peak() < 0.5 * peak(keep_nodes=True)


class TestAxisReturns:
    """An axis return q (label 0, level m >= 1) roots the root's tree again
    behind q.word, which lets run_levels build q's subtree from the
    censuses instead of walking it."""

    ROOT = TreeNode(MarkedWord(""), 0, 1, 0)

    @pytest.mark.parametrize("j,i", [(2, 1), (3, 1), (4, 1), (5, 2)])
    def test_an_axis_return_expands_as_the_root_behind_its_word(self, j, i):
        # (3,1) and (4,1) bring in gamma nodes and wide cut families
        pattern = Pattern(j, i)
        returns = [q for nodes in reference_nodes(pattern, 5)[1:5] for q in nodes if q.label == 0]
        cut = 0
        for q in returns:
            for depth in (1, j):
                got = expand_node(q, pattern, max_level=q.level + depth)
                want = expand_node(self.ROOT, pattern, max_level=depth)
                assert list(got) == [q.level + level for level in want]
                for level, kids in want.items():
                    twins = got[q.level + level]
                    assert twins == [_behind(q, kid) for kid in kids], q.mw.to_text()
                    for kid, twin in zip(kids, twins):
                        # the kid's class, its suffix start and qualifying span shifted past q
                        pc, shift = classify(kid.mw, pattern), len(q.mw.word)
                        span = None if pc.qualifying_span is None else pc.qualifying_span + shift
                        assert classify(twin.mw, pattern) == PathClass(pc.kind, pc.suffix_start + shift, span)
                        cut += "cut" in kid.provenance[-1]
        assert returns and cut

    @pytest.mark.parametrize("j,i", [(2, 1), (3, 1), (4, 1), (5, 2)])
    def test_an_axis_return_roots_the_whole_tree_behind_its_word(self, j, i):
        levels = reference_nodes(Pattern(j, i), 5)
        for nodes in levels[1:5]:
            for q in (q for q in nodes if q.label == 0):
                lineage = len(q.provenance)
                for n in range(q.level + 1, 6):
                    below = [nd for nd in levels[n] if nd.provenance[:lineage] == q.provenance]
                    grown = [_behind(q, nd) for nd in levels[n - q.level]]
                    assert below == grown

    def test_the_walk_expands_only_nodes_no_axis_return_lies_above(self, monkeypatch):
        full = list(reference_levels(P21, 8))
        levels = [nodes for nodes, *_ in full]
        assert sum(len(nodes) for nodes in levels[:8]) == 28056  # what a full walk expands
        want = [
            (nd.level, nd.sort_key, nd.label)
            for nd in walked_nodes(levels)
            if nd.level < 8 and (nd.level == 0 or nd.label > 0)
        ]
        real = construction._expand  # the walk's seam under expand_node
        for keep_nodes in (False, True):  # keeping the nodes walks no further
            seen = []

            def spy(word, spans, label, parity, level, *args):
                seen.append((level, (word, spans, parity), label))
                return real(word, spans, label, parity, level, *args)

            monkeypatch.setattr(construction, "_expand", spy)
            spliced = run_levels(P21, 8, keep_nodes=keep_nodes)
            assert sorted(seen) == want
            assert len(seen) == 2286
            assert [report_fields(rep) for rep in spliced.levels] == reference_fields(full)

    @pytest.mark.parametrize(
        "j,i,copies",
        [
            # one axis return in front, several, none, below the axis
            (2, 1, {"0110110": 4, "11011011011": 8, "0101101011": 2, "1000": 0}),
            (3, 1, {"0001011101110": 3}),  # the level-7 alarm word: copies_of raises it
        ],
    )
    def test_copies_of_a_word_equal_the_references(self, j, i, copies):
        pattern = Pattern(j, i)
        full = list(reference_levels(pattern, max(w.count("1") for w in copies)))
        levels = [nodes for nodes, *_ in full]
        alarm = reference_alarm(full)
        for word, count in copies.items():
            want = [nd for nd in levels[word.count("1")] if nd.mw.word == word]
            assert len(want) == count
            if alarm is not None and alarm[1] <= word.count("1"):
                # copies_of checks the levels it walks: a failing level raises
                with pytest.raises(NetOutOfRange) as err:
                    copies_of(pattern, word)
                assert (err.value.word, err.value.level, err.value.net) == alarm[:3]
                assert err.value.provenances == tuple(nd.provenance for nd in alarm[3])
                continue
            got = copies_of(pattern, word)
            assert got == want

    def test_copies_of_walks_the_tree_once(self, monkeypatch):
        walks = []
        real = construction._walk

        def spy(pattern, max_ones, *args):
            walks.append((pattern, max_ones))
            return real(pattern, max_ones, *args)

        monkeypatch.setattr(construction, "_walk", spy)
        assert len(copies_of(P21, "11011011011")) == 8
        assert walks == [(P21, 8)]
        # a failing level adds the lineage walk behind NetOutOfRange
        walks.clear()
        with pytest.raises(NetOutOfRange):
            copies_of(P31, "0001011101110")
        assert walks == [(P31, 7), (P31, 7)]

    def test_copies_of_spells_no_survivors(self, monkeypatch):
        calls = []
        real = WordCensus.survivors

        def spy(census):
            calls.append(census.ones)
            return real(census)

        monkeypatch.setattr(WordCensus, "survivors", spy)
        assert len(copies_of(P21, "11011011011")) == 8
        assert calls == []  # collect_copies never reads a level's survivors
        run_levels(P21, 8)
        assert calls == list(range(9))  # one per level


class TestCarriedState:
    """Children built by plain appends inherit their append start and gamma
    flag from the parent instead of being rescanned; children past max_ones
    are never built."""

    @pytest.mark.parametrize("j,i", DIFFERENTIAL_PATTERNS)
    def test_carried_class_equals_a_rescan(self, monkeypatch, j, i):
        pattern = Pattern(j, i)
        real = construction._expand  # the walk's seam: every copy it expands, with its state
        kinds = Counter()

        def spy(word, spans, label, parity, level, state, *args):
            # checked before the production runs; the walk holds a failed assertion and run_levels raises it
            mw = MarkedWord(word, spans)
            pc = classify(mw, pattern)
            start = len(word) if label == 0 else pc.suffix_start  # the append start
            assert state[4:] == (start, pc.kind is PathKind.GAMMA), mw.to_text()
            assert state == scratch_state(word, spans, label, pattern), mw.to_text()
            kinds[pc.kind] += 1
            return real(word, spans, label, parity, level, state, *args)

        monkeypatch.setattr(construction, "_expand", spy)
        # (3,1) raises its frozen sign-balance alarm at level 7
        run_levels(pattern, 6 if (j, i) == (3, 1) else 7)
        assert kinds[PathKind.DELTA_ABOVE] > 0 and (kinds[PathKind.GAMMA] > 0) == (j - i > 1), kinds

    @pytest.mark.parametrize("j,i,max_ones", [(2, 1, 4), (3, 1, 4), (4, 1, 4), (5, 2, 5)])
    def test_bounded_expansion_is_the_in_range_part_of_the_full_one(self, j, i, max_ones):
        pattern = Pattern(j, i)
        result = cached_run(j, i, max_ones, keep_nodes=True)
        for rep in result.levels:
            for node in rep.nodes:
                full = expand_node(node, pattern)
                for bound in range(node.level, node.level + j + 1):
                    capped = expand_node(node, pattern, bound)
                    assert capped == {lvl: kids for lvl, kids in full.items() if lvl <= bound}

    @pytest.mark.parametrize("node", [TreeNode(MarkedWord("11"), 2, 1, 2), TreeNode(MarkedWord("10"), 0, 1, 1)])
    def test_expand_node_classifies_a_node_without_a_class_once(self, monkeypatch, node):
        seen = []
        real = construction.classify

        def spy(mw, pattern):
            seen.append(mw)
            return real(mw, pattern)

        monkeypatch.setattr(construction, "classify", spy)
        groups = expand_node(node, P21)
        assert seen == [node.mw]
        assert groups and all(kids for kids in groups.values())

    def test_run_levels_builds_no_child_past_max_ones(self, monkeypatch):
        built = []
        real_expand = construction._expand  # the walk's seam under expand_node

        def spy(*args):
            groups = real_expand(*args)
            built.extend(lvl for lvl, kids in groups.items() for _ in kids)
            return groups

        monkeypatch.setattr(construction, "_expand", spy)
        run_levels(P41, 5)
        assert built and max(built) == 5

    def test_nodes_that_end_on_the_axis_are_not_rescanned(self, monkeypatch):
        seen = []
        real = construction.classify

        def spy(mw, pattern):
            seen.append(mw)
            return real(mw, pattern)

        monkeypatch.setattr(construction, "classify", spy)
        run_levels(P21, 8)  # every (2,1) cut child ends on the axis
        assert seen == []  # 2,250 rescans when every cut child was classified
        run_levels(P41, 8)
        assert len(seen) == 39 and all(height(mw.word) > 0 for mw in seen)  # 358 before

    @staticmethod
    def spy_on_nodes(monkeypatch) -> list[TreeNode]:
        built = []
        real = construction.TreeNode

        def spy(*args):
            node = real(*args)
            built.append(node)
            return node

        monkeypatch.setattr(construction, "TreeNode", spy)
        return built

    def test_the_walk_builds_a_node_only_for_a_kept_copy(self, monkeypatch):
        built = self.spy_on_nodes(monkeypatch)
        run_levels(P21, 8)
        assert built == []  # 2,286 when the walk built a node for every copy it expanded
        kept = run_levels(P21, 8, keep_nodes=True)
        copies = sum(p + m for rep in kept.levels for p, m in rep.label_census.values())
        # 130,183 when a copy that was both kept and expanded got two nodes
        assert len(built) == copies == 127_897
        assert {id(nd) for nd in built} == {id(nd) for rep in kept.levels for nd in rep.nodes}

    def test_copies_of_builds_no_node_for_a_word_it_does_not_keep(self, monkeypatch):
        built = self.spy_on_nodes(monkeypatch)
        word = "11011011011"
        copies = copies_of(P21, word)
        last = [nd for nd in built if nd.level == 8]
        # 11,147 level-8 nodes when every walked copy was offered to keep
        assert all(nd.mw.word in word for nd in last)
        assert len(last) == len(copies) == 8


def reference_cut(
    word: str, spans: tuple[int, ...], pattern: Pattern, t0: int, slope: int = 0, highest_first: bool = True
):
    """construction._cut as it read z before every production read the
    suffix state: a scan of the suffix's profile with every point strictly
    inside a span sunk to a floor under any line.  The line through t has
    the given slope, and z is the highest (then leftmost) point on or above
    it, or with highest_first false the leftmost.  The defaults are the
    engine's geometry.  The same checks, messages and result."""
    text = MarkedWord(word, spans).to_text()
    local = [s - t0 for s in spans if s >= t0]
    if not local:
        raise NoMarkedPoint(text)
    phi, length = word[t0:], pattern.length
    t = local[-1] + length
    if any(s < t < s + length for s in local):
        raise SpanSplitError(f"t at {t0 + t} inside a span of {text}")
    prof = profile(phi)
    n = len(prof)
    sunk = prof[:]
    floor = -(abs(slope) + 1) * n - 1
    for s in local:
        sunk[s + 1 : s + length] = [floor] * (length - 1)
    line = accumulate(repeat(slope, n - 1), initial=prof[t] - slope * t)
    above = compress(range(n), map(ge, sunk, line))
    z = max(above, key=prof.__getitem__) if highest_first else next(above)
    alpha = phi[z:]
    moved = [t0 + 1 + s - z for s in local if s >= z] + [t0 + 1 + s + len(alpha) for s in local if s < z]
    out, out_spans = word[:t0] + "0" + alpha + phi[:z], spans[: len(spans) - len(local)] + tuple(moved)
    if height(out) != height(word) - 1:
        raise InvariantViolation(f"cut of {text} gave {MarkedWord(out, out_spans).to_text()}, not one ordinate lower")
    return out, out_spans, t0 + t, t0 + z, prof[z]


def move_geometry(monkeypatch, slope: int = 0, highest_first: bool = True) -> None:
    """Make every cut reference_cut's under the given geometry: the walk's
    jump-1 and jump-j cuts, the node API's and cut_and_paste's all call
    construction._cut."""
    monkeypatch.setattr(
        construction,
        "_cut",
        lambda word, spans, pattern, state: reference_cut(word, spans, pattern, state[4], slope, highest_first),
    )


def scratch_state(word, spans, label, pattern):
    """A copy's whole state read from scratch (construction._scan): its
    class from classify, then its suffix from its append start."""
    return construction._scan(MarkedWord(word, spans), label, pattern)


def cut_state(word, spans, pattern, carried):
    """The state a cut of a marked word must get: the suffix state read
    from scratch from its rightmost eligible axis point t0, which it
    carries, then a false gamma flag when a production carries it
    (cut_and_paste passes the suffix state alone)."""
    t0 = rightmost_suffix(MarkedWord(word, spans), pattern)[2]
    state = construction._suffix_state(word, spans, t0, pattern)
    return (*state, False) if carried else state


class TestCarriedSuffixState:
    """Every production reads a copy's state (z, h, h*, append start t0,
    gamma flag): the walk carries it on its stack, each plain append
    extending its parent's (construction._appends), and the node API and
    compute_a read it from classify and one profile (construction._scan),
    cut_and_paste its suffix part alone.  Every state must equal one read
    from scratch, every cut the reference scan's, and every slack the one
    that a state read from scratch gives."""

    @pytest.mark.parametrize(
        "j,i,max_ones",
        [(2, 1, 8), (3, 2, 8), (4, 3, 8), (3, 1, 6), (4, 1, 8), (4, 2, 8), (5, 2, 8), (5, 1, 9), (6, 3, 8)],
    )
    def test_carried_states_cuts_and_slacks_equal_the_references(self, monkeypatch, j, i, max_ones):
        real_expand, real_cut, real_ladder = construction._expand, construction._cut, construction._ladder
        seen = Counter()
        differ = []

        def expand(word, spans, label, parity, level, state, pattern, max_level=None):
            seen["expand"] += 1
            if state != scratch_state(word, spans, label, pattern):
                differ.append(("state", word, spans, state))
            return real_expand(word, spans, label, parity, level, state, pattern, max_level)

        def cut(word, spans, pattern, state):
            seen["cut"] += 1
            if state != cut_state(word, spans, pattern, carried=True):
                differ.append(("cut state", word, spans, state))
            got = real_cut(word, spans, pattern, state)
            if got != reference_cut(word, spans, pattern, state[4]):  # (out, spans, t, z, z ordinate)
                differ.append(("cut", word, spans, state[4]))
            return got

        def ladder(word, spans, label, state, pattern):
            got = real_ladder(word, spans, label, state, pattern)
            seen["ladder"] += label > 0  # DELTA_ABOVE: a slack read off the state
            if got != real_ladder(word, spans, label, scratch_state(word, spans, label, pattern), pattern):
                differ.append(("ladder", word, spans))  # (a, pin)
            return got

        monkeypatch.setattr(construction, "_expand", expand)
        monkeypatch.setattr(construction, "_cut", cut)
        monkeypatch.setattr(construction, "_ladder", ladder)
        run_levels(Pattern(j, i), max_ones)
        assert differ == []
        assert min(seen[name] for name in ("expand", "cut", "ladder")) > 0, seen

    @staticmethod
    def call_the_node_api() -> None:
        """expand_node (bounded and not), delta_jump1, delta_jumpj and
        gamma_expand on every kept node of (2,1) to 6 ones and (3,1) to 5,
        where its class admits the call; compute_a on each delta node, and
        cut_and_paste on each that has a span in its suffix above the
        axis."""
        for j, i, max_ones in (2, 1, 6), (3, 1, 5):
            pattern = Pattern(j, i)
            for rep in cached_run(j, i, max_ones, keep_nodes=True).levels:
                for node in rep.nodes:
                    pc = classify(node.mw, pattern)
                    expand_node(node, pattern)
                    expand_node(node, pattern, node.level + 1)
                    if pc.kind is PathKind.GAMMA:
                        gamma_expand(node, pattern)
                    else:
                        delta_jump1(node, pattern)
                        delta_jumpj(node, pattern)
                        compute_a(node.mw, pattern)
                    if node.label and any(s >= pc.suffix_start for s in node.mw.spans):
                        cut_and_paste(node.mw, pattern)

    def test_the_node_api_cuts_and_slacks_read_the_suffix_state(self, monkeypatch):
        real_cut, real_ladder = construction._cut, construction._ladder
        seen = Counter()
        differ = []

        def cut(word, spans, pattern, state):
            seen["cut"] += 1
            if state != cut_state(word, spans, pattern, carried=len(state) > 5):
                differ.append(("cut", word, spans, state))
            return real_cut(word, spans, pattern, state)

        def ladder(word, spans, label, state, pattern):
            seen["ladder"] += label > 0 and not state[5]  # DELTA_ABOVE
            if state != scratch_state(word, spans, label, pattern):
                differ.append(("ladder", word, spans, state))
            return real_ladder(word, spans, label, state, pattern)

        monkeypatch.setattr(construction, "_cut", cut)
        monkeypatch.setattr(construction, "_ladder", ladder)
        self.call_the_node_api()
        assert differ == []
        assert min(seen["cut"], seen["ladder"]) > 0, seen

    def test_the_node_api_cuts_without_a_profile(self, monkeypatch):
        real_cut, real_profile = construction._cut, construction.profile
        calls = Counter()
        open_cuts = []

        def cut(*args):
            calls["cut"] += 1
            open_cuts.append(None)
            try:
                return real_cut(*args)
            finally:
                open_cuts.pop()

        def spy(word):
            calls["profile in a cut" if open_cuts else "profile"] += 1
            return real_profile(word)

        monkeypatch.setattr(construction, "_cut", cut)
        monkeypatch.setattr(construction, "profile", spy)
        self.call_the_node_api()
        assert calls["profile in a cut"] == 0
        assert min(calls["cut"], calls["profile"]) > 0, calls


class TestNodeInvariants:
    @pytest.mark.parametrize("j,i,max_ones", [(2, 1, 6), (3, 1, 5), (3, 2, 5)])
    def test_label_parity_level_and_spans(self, j, i, max_ones):
        pattern = Pattern(j, i)
        result = cached_run(j, i, max_ones, keep_nodes=True)
        for rep in result.levels:
            for node in rep.nodes:
                assert node.label == height(node.mw.word)
                assert node.parity == (1 if len(node.mw.spans) % 2 == 0 else -1)
                assert node.level == node.mw.word.count("1")
                node.mw.validate(pattern)

    @pytest.mark.parametrize("j,i,max_ones", [(2, 1, 6), (3, 1, 5)])
    def test_no_two_nodes_share_word_spans_and_provenance(self, j, i, max_ones):
        result = cached_run(j, i, max_ones, keep_nodes=True)
        for rep in result.levels:
            triples = [(n.mw.word, n.mw.spans, n.provenance) for n in rep.nodes]
            assert len(set(triples)) == len(triples)


class TestCollectCopies:
    def test_goldens(self):
        result = cached_run(2, 1, 4, keep_nodes=True)
        assert sorted((c.mw.spans, c.parity) for c in collect_copies(result, "110")) == [
            ((), 1),
            ((0,), -1),
        ]
        assert [(c.mw.spans, c.parity) for c in collect_copies(result, "11")] == [((), 1)]
        assert sorted((c.mw.spans, c.parity) for c in collect_copies(result, "110110")) == [
            ((), 1),
            ((0,), -1),
            ((0, 3), 1),
            ((3,), -1),
        ]

    @pytest.mark.parametrize("j,i,max_ones", [(2, 1, 6), (4, 1, 7)])
    def test_equals_a_linear_filter_of_the_level(self, j, i, max_ones):
        """The word's block of its level's nodes, the same node objects in
        the same order as a scan of the whole level keeps them, for every
        word of the run and for words with no copy: one fall more than
        rises, sorting before, between and after the level's words."""
        result = cached_run(j, i, max_ones, keep_nodes=True)
        for n, rep in enumerate(result.levels):
            scanned: dict[str, list[TreeNode]] = {}
            for nd in rep.nodes:  # node order: a linear filter of each word at once
                scanned.setdefault(nd.mw.word, []).append(nd)
            half = n // 2
            absent = ["0" * (n + 1) + "1" * n, "1" * half + "0" * (n + 1) + "1" * (n - half), "1" * n + "0" * (n + 1)]
            for word in [*scanned, *absent]:
                got = collect_copies(result, word)
                want = scanned.get(word, [])
                assert type(got) is list and len(got) == len(want), (n, word)
                assert all(a is b for a, b in zip(got, want)), (n, word)
            assert not any(word in scanned for word in absent)

    def test_a_word_past_the_run_is_refused(self):
        with pytest.raises(ValueError, match="word has 5 rises but the run stops at 4"):
            collect_copies(cached_run(2, 1, 4, keep_nodes=True), "11111")

    def test_a_run_without_its_nodes_is_refused(self):
        with pytest.raises(ValueError, match="keep_nodes=True"):
            collect_copies(cached_run(2, 1, 4), "110")

    @pytest.mark.parametrize("word", ["1a1", "abc", "110 ", "1x", "１１0"])
    def test_a_word_not_over_0_1_is_refused(self, word):
        """Not an empty list, which would read as a binary word with no copy."""
        with pytest.raises(ValueError, match=re.escape(repr(word))):
            collect_copies(cached_run(2, 1, 4, keep_nodes=True), word)

    @pytest.mark.parametrize("word", ["1a1", "abc", "110 ", "1x"])
    def test_copies_of_refuses_a_word_not_over_0_1_before_any_walk(self, monkeypatch, word):
        def no_walk(*args):
            raise AssertionError("walked")

        monkeypatch.setattr(construction, "_walk", no_walk)
        with pytest.raises(ValueError, match=re.escape(repr(word))):
            copies_of(P21, word)

    def test_copies_of_refuses_an_over_budget_word_before_any_walk(self, monkeypatch):
        def no_walk(*args):
            raise AssertionError("walked")

        monkeypatch.setattr(construction, "_walk", no_walk)
        with pytest.raises(BudgetExceeded, match="^20058300 candidate words exceed budget 10000000$"):
            copies_of(P21, "1" * 13)
        with pytest.raises(BudgetExceeded, match="^35 candidate words exceed budget 10$"):
            copies_of(P21, "110110110", budget=10)
        with pytest.raises(ValueError):  # a word not over 0/1 is refused first
            copies_of(P21, "1x", budget=0)
        monkeypatch.undo()
        assert len(copies_of(P21, "110", budget=10)) == 2

    def test_copy_counts_double_per_occurrence(self):
        for j, i in CLEAN_PATTERNS:
            for rep in cached_run(j, i, 8).levels:
                assert rep.word_census == expected_word_census(Pattern(j, i), rep.level), (j, i, rep.level)


def level_words(ones: int) -> list[str]:
    """Every word with `ones` ones and at most as many zeros."""
    return [w for n in range(ones, 2 * ones + 1) for w in map("".join, product("01", repeat=n)) if w.count("1") == ones]


def cluster_labels(j: int, i: int, n: int) -> dict[int, tuple[int, int]]:
    """The (plus, minus) copies every label of level n must carry."""
    return {n - z: cluster_census(j, i, n, z) for z in range(n + 1)}


class TestClusterLabelCensus:
    """The tree's exact (plus, minus) copies per label, against the cluster
    method, which shares no code with the tree or the oracles."""

    @pytest.mark.parametrize("j,i,max_ones", [(2, 1, 9), (3, 2, 9), (4, 3, 8)])
    def test_every_copy_is_made_when_j_minus_i_is_one(self, j, i, max_ones):
        for rep in cached_run(j, i, max_ones).levels:
            assert rep.label_census == cluster_labels(j, i, rep.level), rep.level

    # per level from 0: the cluster method's minus copies less the tree's
    MINUS_SHORTFALL = {
        (3, 1): [0, 0, 0, 0, 0, 2, 16],
        (4, 1): [0, 0, 0, 0, 0, 2, 19, 119, 635],
        (4, 2): [0, 0, 0, 0, 0, 0, 2, 16, 94],
        (5, 2): [0, 0, 0, 0, 0, 0, 2, 19, 119],
    }

    @pytest.mark.parametrize("ji", list(MINUS_SHORTFALL), ids=lambda ji: f"{ji[0]}-{ji[1]}")
    def test_only_minus_copies_go_missing_when_j_minus_i_is_two_or_more(self, ji):
        """Every plus copy is made; the minus copies that are not are
        pinned as counts, so a fix or a regression both fail here."""
        shortfall = []
        for rep in cached_run(*ji, len(self.MINUS_SHORTFALL[ji]) - 1).levels:
            want = cluster_labels(*ji, rep.level)
            assert rep.label_census.keys() <= want.keys(), rep.level
            assert {k: rep.label_census.get(k, (0, 0))[0] for k in want} == {k: p for k, (p, _) in want.items()}
            shortfall.append(sum(m for _, m in want.values()) - sum(m for _, m in rep.label_census.values()))
        assert shortfall == self.MINUS_SHORTFALL[ji]

    def test_the_alarm_fires_at_the_first_plus_shortfall(self):
        """(4,1) runs to 8 ones without an alarm; at 9, where a plus copy
        first goes missing, off_net names the smallest word off {0, 1}."""
        with pytest.raises(NetOutOfRange) as err:
            run_levels(P41, 9)
        assert (err.value.word, err.value.level, err.value.net) == ("00001011110011110", 9, -1)

    @pytest.mark.parametrize("j,i", DIFFERENTIAL_PATTERNS)
    def test_every_missing_copy_marks_a_single_occurrence_below_the_axis(self, j, i):
        """Copy by copy: a word with occurrences C needs one copy per subset S
        of C, with sign (-1)^|S|.  The tree makes no other copy, and each one
        it misses is the minus copy of a word with a single occurrence that
        starts at ordinate -1 ... -(j-i-1), so none when j - i = 1."""
        pattern = Pattern(j, i)
        result = cached_run(j, i, 6 if (j, i) == (3, 1) else 7, keep_nodes=True)
        missing = 0
        for rep in result.levels:
            made = Counter((nd.mw.word, nd.mw.spans, nd.parity) for nd in rep.nodes)
            due = Counter()
            for word in level_words(rep.level):
                found = occurrences(word, pattern)
                for r in range(len(found) + 1):
                    due.update((word, spans, (-1) ** r) for spans in combinations(found, r))
            assert not made - due, rep.level
            for word, spans, parity in due - made:
                (start,) = spans
                assert parity == -1 and occurrences(word, pattern) == [start], word
                assert -(j - i) < height(word[:start]) < 0, word
                missing += 1
        assert missing == {(3, 1): 18, (4, 1): 140, (4, 2): 18, (5, 2): 21}.get((j, i), 0)


class TestCutGeometry:
    """The cut point selection (horizontal reference line, highest-then-
    leftmost tie-break) is load-bearing: each alternative, swapped in by
    move_geometry, breaks the sign balance on the smallest pattern within a
    few levels."""

    def test_sloped_reference_line_breaks_balance(self, monkeypatch):
        move_geometry(monkeypatch, slope=1)
        with pytest.raises(NetOutOfRange) as err:
            run_levels(P21, 5)
        assert (err.value.word, err.value.level, err.value.net) == ("0011001101", 5, -1)

    def test_leftmost_first_tiebreak_breaks_balance(self, monkeypatch):
        move_geometry(monkeypatch, highest_first=False)
        with pytest.raises(NetOutOfRange) as err:
            run_levels(P21, 3)
        assert (err.value.word, err.value.level, err.value.net) == ("010110", 3, -1)

    def test_falling_reference_line_breaks_balance(self, monkeypatch):
        move_geometry(monkeypatch, slope=-1)
        run_levels(P21, 3)
        with pytest.raises(NetOutOfRange) as err:
            run_levels(P21, 4)
        assert (err.value.word, err.value.level, err.value.net) == ("00110110", 4, -1)

    @pytest.mark.parametrize("j,i", [(2, 1), (3, 2), (4, 1)])
    def test_the_engine_geometry_swapped_in_reports_the_same_levels(self, monkeypatch, j, i):
        want = [(rep.label_census, list(rep.word_census.items()), rep.survivors) for rep in cached_run(j, i, 8).levels]
        move_geometry(monkeypatch)
        got = run_levels(Pattern(j, i), 8)
        assert [(rep.label_census, list(rep.word_census.items()), rep.survivors) for rep in got.levels] == want

    def test_the_engine_geometry_swapped_in_raises_the_same_alarm(self, monkeypatch):
        with pytest.raises(NetOutOfRange) as want:
            run_levels(P31, 7)
        move_geometry(monkeypatch)
        with pytest.raises(NetOutOfRange) as got:
            run_levels(P31, 7)
        fields = [(e.value.word, e.value.level, e.value.net, e.value.provenances) for e in (got, want)]
        assert fields[0] == fields[1] and fields[0][:3] == ("0001011101110", 7, -1)

    def test_walk_cuts_and_cut_and_paste_go_through_the_swapped_cut(self, monkeypatch):
        mw = MarkedWord("1101011", (0,))  # its default z, the endpoint, lies under a slope-1 line through t
        assert cut_and_paste(mw, P21) == MarkedWord("01101011", (1,))
        move_geometry(monkeypatch, slope=1)
        swapped = construction._cut
        calls = []

        def spy(*args):
            calls.append(args)
            return swapped(*args)

        monkeypatch.setattr(construction, "_cut", spy)
        run_levels(P21, 4)  # the sloped line first breaks the balance at level 5
        walk_cuts = len(calls)
        assert cut_and_paste(mw, P21) == MarkedWord("00111101", (4,))
        assert walk_cuts > 0 and len(calls) == walk_cuts + 1
