"""The record contract: every public record is an immutable NamedTuple with
the repr, equality, hash and pickling of a frozen record, and importing the
package loads neither dataclasses nor inspect."""

from __future__ import annotations

import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import patternforge
from patternforge import (
    Affine,
    Atom,
    CensusDiff,
    FactorAutomaton,
    LevelCensus,
    LevelReport,
    LevelVerdict,
    MarkedWord,
    PathClass,
    PathKind,
    Pattern,
    Production,
    RuleSpec,
    RunResult,
    TreeNode,
    VerifyReport,
    build_automaton,
    run_levels,
)

P21 = Pattern(2, 1)
_NODE = TreeNode(MarkedWord("110", (0,)), 0, -1, 2, ("mark:0",))
_REPORT = run_levels(P21, 2, keep_nodes=True).levels[2]
_ATOM = Atom(Affine(0, 0), Affine(1, 1), True, Affine(0, 2))
_VERDICT = LevelVerdict(1, False, ("level 1: missing survivor '1'",))

# One instance of every public record, built with every field given.
SAMPLES = {
    Pattern: P21,
    MarkedWord: MarkedWord("1100", (0,)),
    PathClass: PathClass(PathKind.GAMMA, 3, 4),
    TreeNode: _NODE,
    LevelReport: _REPORT,
    RunResult: RunResult(P21, 2, [_REPORT]),
    FactorAutomaton: build_automaton(P21),
    Affine: Affine(2, -1),
    Atom: _ATOM,
    Production: Production(1, (_ATOM,)),
    RuleSpec: RuleSpec(0, (Production(1, (_ATOM,)),)),
    LevelCensus: LevelCensus(1, {0: (2, 0), 1: (1, 0)}),
    CensusDiff: CensusDiff(False, 3, 1, (2, 1), 1),
    LevelVerdict: _VERDICT,
    VerifyReport: VerifyReport(P21, 1, [_VERDICT], 0),
}

# Records that hold a dict or a list: hashing one raises TypeError.
UNHASHABLE = {LevelReport, RunResult, LevelCensus, VerifyReport}

records = pytest.mark.parametrize("record", list(SAMPLES.values()), ids=[cls.__name__ for cls in SAMPLES])


def test_every_public_record_has_a_sample():
    public = {obj for obj in map(patternforge.__dict__.get, patternforge.__all__) if hasattr(obj, "_fields")}
    assert public == set(SAMPLES)


@records
def test_a_record_is_immutable(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], getattr(record, record._fields[0]))
    with pytest.raises(AttributeError):
        record.extra = 1


@records
def test_the_repr_names_every_field(record):
    fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in record._fields)
    assert repr(record) == f"{type(record).__name__}({fields})"


@pytest.mark.parametrize(
    "record, text",
    [
        (P21, "Pattern(j=2, i=1)"),
        (MarkedWord("1100", (2, 0)), "MarkedWord(word='1100', spans=(0, 2))"),
        (
            PathClass(PathKind.DELTA_ABOVE, 2),
            "PathClass(kind=<PathKind.DELTA_ABOVE: 'delta-above-axis'>, suffix_start=2, qualifying_span=None)",
        ),
        (Affine(2, -1), "Affine(coeff=2, const=-1)"),
        (CensusDiff(True), "CensusDiff(equal=True, level=None, label=None, left=None, right=None)"),
        (_VERDICT, "LevelVerdict(level=1, ok=False, divergences=(\"level 1: missing survivor '1'\",))"),
    ],
)
def test_repr_text(record, text):
    assert repr(record) == text


@records
def test_equal_fields_give_equal_records_and_hashes(record):
    twin = type(record)(*record)
    assert twin == record and twin is not record
    if type(record) in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(twin) == hash(record)


@records
def test_a_pickle_round_trip_gives_an_equal_record(record):
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record) and back == record


def test_defaults():
    assert PathClass(PathKind.GAMMA)[1:] == (0, None)
    assert Atom(Affine(1, 0))[1:] == (None, False, Affine(0, 1))
    assert CensusDiff(True)[1:] == (None, None, None, None)
    assert TreeNode(MarkedWord("1"), 1, 1, 1).provenance == ()
    assert LevelReport(0, {}, {}, (), {}).nodes is None
    assert MarkedWord("1").spans == ()


def test_a_record_is_a_tuple():
    assert P21 == (2, 1) and Affine(2, 1) == P21
    assert MarkedWord("110") == ("110", ())


def test_replace_checks_a_pattern_as_construction_does():
    assert P21._replace(j=5) == Pattern(5, 1)
    with pytest.raises(ValueError, match=r"^need 0 < i < j, got j=2 i=5$"):
        P21._replace(i=5)
    with pytest.raises(ValueError, match=r"^j and i must be int, got j=2 i=1\.0$"):
        P21._replace(i=1.0)
    with pytest.raises(ValueError, match=r"^need 0 < i < j, got j=1 i=1$"):
        Pattern._make((1, 1))


def test_replace_sorts_the_spans_of_a_marked_word():
    mw = MarkedWord("110110", (3, 0))
    assert mw.spans == (0, 3)
    assert mw._replace(spans=(3, 0)).spans == (0, 3)
    assert MarkedWord._make(("110110", [3, 0])) == mw
    assert type(mw._replace(word="110")) is MarkedWord


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import patternforge\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, cwd=src, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
