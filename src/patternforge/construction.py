"""Level-by-level generation of all words, with marked-pattern bookkeeping.

Every node is a marked word; level = number of rise steps.  Each node
fires the same production table (_expand), one row per jump: jump 1
appends one rise and then falls; jump j appends the whole forbidden
factor, atomically marked, and then falls, so its children flip sign.
A gamma node (suffix starts with a fall and holds a span with i < b < j)
takes each row's plain appends only, one child per label.  A delta node
(ending on the axis, or whose rightmost suffix starts with a rise, stays
strictly above the axis and carries only high-peaked spans) takes each
row's production: the same appends plus repair children that plain
appends can never produce:

- jump 1 grows one extra axis child: append a rise and k falls, split off
  the rightmost axis suffix, and either switch it to its complement plus a
  rise (no marked step inside) or cut-and-paste it (see below);
- jump j grows, for each y in [k+a, k+j-i-1], a cut-and-pasted child plus
  its further-falling copies.  The slack a in [0, j-i-1] depends on the
  highest unmarked peak h and highest marked peak h* of the suffix.

Cut-and-paste on word = v + phi, where phi is the suffix from t0, the
rightmost eligible axis point (a grown child's t0 is its parent's), reads
phi alone: no span straddles t0, and phi's own profile starts at ordinate
0, so it gives every ordinate unchanged.  Take the rightmost marked peak r
in phi, let t be the first point right of r's span (never strictly inside
a span, which is checked), draw a horizontal line through t, and let z be
the highest (then leftmost) point of phi on or above that line that is not
strictly inside a span, z = t when nothing else qualifies.  The result
v + fall + phi[z:] + phi[:z] ends one ordinate lower.  The slack a reads h
and h* from the same phi.

Every production reads one record of each copy, its state: (z ordinate,
z position, h, h*, t0, gamma).  t0 is the copy's append start, its
endpoint when it ends on the axis and its suffix start otherwise, and
phi runs from there; z is the highest (then leftmost) point of phi not
strictly inside a span, h and h* its highest unmarked and marked peaks,
and gamma says whether the copy is gamma.  That z is the cut's: t is such
a point, so the highest of them is on or above the line through t.  A
plain append extends its parent's state in O(1) (see _tail): the tail's
one candidate z is the point right after the appended rise (jump 1) or
the new span (jump j), and the old z wins a tie; a jump-1 tail with a
fall adds an unmarked peak at k+1, a jump-j tail a marked peak at k+j;
t0 and gamma pass on unchanged.  So a family's cuts take z from its state
and the slack reads h and h* from its parent's, with no profile, and
every check on t, z and the cut word still runs.  One state source serves
every caller: the walk carries each copy's state on its stack, and what
has none carried (the node API, compute_a, and a cut child above the
axis, which the walk rescans) reads it from classify and one profile of
its phi (_scan); cut_and_paste reads that profile alone (_suffix_state).

Each plus/minus copy of a word corresponds to one subset of its factor
occurrences; per level, net = plus - minus is 1 for avoiding words and 0
for all others, which run_levels enforces.

A node's children depend on that node alone, and the only state the
whole tree shares is the per-level census, a sum that ignores order.  So
run_levels walks the tree depth-first with an explicit stack and counts
each copy into its level's censuses where its parent's production makes
it.  The walk tallies the words it meets in one small dict per level,
word -> [plus, minus] copies; each level's census is then a dense one
(see census): per zero count, one list of copies (plus + minus) and one
of nets (plus - minus), indexed by the word's lexicographic rank, so a
level with n ones costs C(2n+1, n) cells per list, whatever its copies
number.  The walk's stack holds plain tuples, and a copy's lineage is a
pointer to its parent's plus its own tag; a TreeNode, with its lineage
spelled out as a provenance tuple, is built only for a copy the caller
keeps, so a census-only run builds none.  The productions read and return
the same plain fields and check every child they make against its label
and sign.

Axis returns.  A node q that ends on the axis above the root (label 0,
level m >= 1) grows the whole tree again behind its word: every child of
q sees q only through its endpoint len(q.word), which is its rightmost
eligible axis point, and every suffix start, cut and rescan below q looks
only at points from there on.  So q's subtree at level n is the root's
tree at level n - m with q.word in front, spans shifted by len(q.word) and
signs multiplied by q's.  run_levels therefore walks only the nodes no
axis return lies above.  The returns of level m are its walked copies
that end on the axis, the words of length 2m among its tallied words,
and level n is its walked part plus, for each m in 1..n-1, the returns of
level m concatenated with the full census of level n - m.  The sign of a
concatenation is the product of the signs, so a return's copies multiply
the copies below and its net the net below: two block adds per return
and zero count into the dense census, one per list.  Runs that need
the nodes themselves (keep_nodes, the copies of one word) build them the
same way: each walked return of level m is put in front of every kept node
of level n - m.  They differ from a census-only run in the nodes they keep
and in nothing else: copies_of is a run to its word's level, with the same
walk, splice and level checks, that keeps the factors of its word.  A
failure below an axis return repeats one of a lower level, so the walk
meets every failure of the first failing level; it holds each one back
until every lower level has been checked, and failures surface in the
order of a level-by-level run.  Only the lineages of a NetOutOfRange come
from a second walk, which checks nothing and runs only once a level has
failed.

Each copy is classified at most once, by _scan, and only its suffix
start (as t0) and whether it is gamma enter its state.  A plain-append
child above the axis keeps both from its parent, since the appended steps
never touch the axis before the endpoint: its suffix start is its
parent's append start, and a parent that ends on the axis is never gamma.
Only children built by a cut are rescanned, and only those above the
axis.  A copy that ends on the axis is DELTA_ON_AXIS whatever its spans,
so its label says all the productions read of its class, and such a copy
above the root is never expanded.  A TreeNode carries no state, so the
node API scans its input.  The class tallies of a level are read from its
census: its label-0 copies are DELTA_ON_AXIS, the walk counts the copies
whose state is gamma (and each return repeats those of the level it
grows), and every other copy is DELTA_ABOVE.  run_levels never
builds a child past max_ones, and every jump-j family that is built
passes its label multiset check.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cache
from itertools import compress
from operator import gt
from typing import Callable

from .census import build_census
from .oracle import DEFAULT_BUDGET, _check_levels
from .words import (
    InvariantViolation,
    MarkedWord,
    PathKind,
    Pattern,
    classify,
    complement,
    height,
    profile,
    rightmost_suffix,
)

__all__ = [
    "TreeNode",
    "LevelReport",
    "RunResult",
    "NotDeltaError",
    "NotGammaError",
    "NoMarkedPoint",
    "SpanSplitError",
    "MultiplicityMismatch",
    "NetOutOfRange",
    "InvariantViolation",
    "compute_a",
    "cut_and_paste",
    "delta_jump1",
    "delta_jumpj",
    "gamma_expand",
    "expand_node",
    "run_levels",
    "collect_copies",
    "copies_of",
]


class NotDeltaError(InvariantViolation):
    pass


class NotGammaError(InvariantViolation):
    pass


class NoMarkedPoint(InvariantViolation):
    pass


class SpanSplitError(InvariantViolation):
    pass


class MultiplicityMismatch(InvariantViolation):
    pass


class NetOutOfRange(InvariantViolation):
    def __init__(self, word: str, level: int, net: int, provenances: tuple[tuple[str, ...], ...]):
        super().__init__(f"word {word!r} at level {level} has net multiplicity {net}")
        self.word = word
        self.level = level
        self.net = net
        self.provenances = provenances

    def __reduce__(self):
        return type(self), (self.word, self.level, self.net, self.provenances)


@dataclass(frozen=True, slots=True)
class TreeNode:
    """One copy of the tree: its marked word, label (endpoint ordinate),
    sign, level (rise steps) and lineage of production tags.  It carries no
    state: the node API scans a node when it expands it."""

    mw: MarkedWord
    label: int
    parity: int  # +1 or -1
    level: int
    provenance: tuple[str, ...] = ()

    @property
    def sort_key(self) -> tuple[str, tuple[int, ...], int]:
        return (self.mw.word, self.mw.spans, self.parity)


# The one record every production reads of a copy (see the module
# docstring): (z ordinate, z position, h, h*) of its axis suffix phi, then
# phi's start t0, the copy's append start, and whether the copy is gamma.
_State = tuple[int, int, int, int | None, int, bool]

# A checked child, before any node is built for it:
# (word, spans, label, parity, tag, state); the state is None for a child
# built by a cut, and never read for a child that ends on the axis.
_Kid = tuple[str, tuple[int, ...], int, int, str, _State | None]


def _text(word: str, spans: tuple[int, ...]) -> str:
    return MarkedWord(word, spans).to_text()


def _mislabelled(label: int, word: str) -> InvariantViolation:
    return InvariantViolation(f"label {label} != ordinate of {word!r}")


def _missigned(parity: int, spans: tuple[int, ...], word: str) -> InvariantViolation:
    return InvariantViolation(f"parity {parity} != sign of {len(spans)} spans in {word!r}")


def _fields(node: TreeNode, pattern: Pattern) -> tuple[str, tuple[int, ...], int, int, _State]:
    """(word, spans, label, parity, state): a node as its productions read
    it, with its state from _scan."""
    return node.mw.word, node.mw.spans, node.label, node.parity, _scan(node.mw, node.label, pattern)


def _nodes(parent: TreeNode, level: int, kids: list[_Kid]) -> list[TreeNode]:
    """The tree nodes of `parent`'s kids at `level`."""
    lineage = parent.provenance
    return [
        TreeNode(MarkedWord(word, spans), label, parity, level, lineage + (tag,))
        for word, spans, label, parity, tag, _ in kids
    ]


def _tail(word: str, label: int, state: _State, pattern: Pattern, jump: int) -> tuple[_State, _State]:
    """The states of a plain-append family of a copy with that state, as
    (its top child's, every other child's).  The copy's state starts at its
    append start t0, so the appended steps extend it.  Every child, and so
    the family's grown words, shares one z.  The tail's one candidate z is
    the point right after the appended rise (jump 1) or the new span (jump
    j), and the old z wins a tie.  A jump-1 tail with a fall adds an
    unmarked peak at k+1, a jump-j tail a marked peak at k+j.  t0 and the
    gamma flag pass on as they are: a child above the axis starts its
    suffix at the parent's append start and has the parent's class (a
    label-0 parent is never gamma).  A label-0 child's state is never read:
    it ends on the axis and is not expanded."""
    zo, zp, h, hstar, t0, gamma = state
    if jump == 1:
        point = label + 1, len(word) + 1
    else:
        point = label + pattern.j - pattern.i, len(word) + pattern.length
        hstar = label + pattern.j if hstar is None else max(hstar, label + pattern.j)
    if point[0] > zo:
        zo, zp = point
    top = zo, zp, h, hstar, t0, gamma
    return top, ((zo, zp, max(h, label + 1), hstar, t0, gamma) if jump == 1 else top)


def _suffix_state(word: str, spans: tuple[int, ...], t0: int, pattern: Pattern) -> tuple[int, int, int, int | None]:
    """(z ordinate, z position, h, h*) of the suffix of a marked word from
    the axis point t0, read off one profile: z is its highest (then
    leftmost) point not strictly inside a span, h its highest unmarked peak
    (0 with none) and h* its highest marked peak (None with no span)."""
    phi = word[t0:]
    prof = profile(phi)
    local = [s - t0 for s in spans if s >= t0]
    inside = {p for s in local for p in range(s + 1, s + pattern.length)}
    z = max((p for p in range(len(prof)) if p not in inside), key=prof.__getitem__)  # max keeps the leftmost
    peaks = list(map(gt, phi, phi[1:]))  # peaks[q - 1]: a rise then a fall meet at q
    marked = [s + pattern.j for s in local]
    for q in marked:
        peaks[q - 1] = False
    h = max(compress(prof[1:], peaks), default=0)
    hstar = max(map(prof.__getitem__, marked), default=None)
    return prof[z], t0 + z, h, hstar


def _scan(mw: MarkedWord, label: int, pattern: Pattern) -> _State:
    """The state of a copy when nothing is carried to it: classify gives
    its class (raising on a word no production takes) and its suffix start,
    which is its append start t0 unless it ends on the axis, and one
    profile of the suffix from t0 gives the rest."""
    pc = classify(mw, pattern)
    t0 = len(mw.word) if label == 0 else pc.suffix_start
    return (*_suffix_state(mw.word, mw.spans, t0, pattern), t0, pc.kind is PathKind.GAMMA)


def _appends(
    word: str,
    spans: tuple[int, ...],
    label: int,
    parity: int,
    pattern: Pattern,
    jump: int,
    tag: str,
    family: tuple[_State, _State],
) -> list[_Kid]:
    """Plain appends of one rise (jump 1) or the marked factor (jump j) and
    then falls, one child per label from 0 up, each carrying its state from
    family: the (top child's, other children's) states that _tail extends
    from the copy's.  A new span peaks at k + j.  Every child is checked
    against its label and its sign.
    """
    top_state, fallen = family
    if jump == 1:
        head, top = word + "1", label + 1
    else:
        head, top, spans, parity = word + pattern.factor, label + pattern.j - pattern.i, spans + (len(word),), -parity
    sign = 1 if len(spans) % 2 == 0 else -1
    out = []
    for y, child_tag in enumerate(_tags(tag, top)):
        child = head + "0" * (top - y)
        if height(child) != y:
            raise _mislabelled(y, child)
        if parity != sign:
            raise _missigned(parity, spans, child)
        out.append((child, spans, y, parity, child_tag, fallen if y < top else top_state))
    return out


@cache
def _tags(tag: str, top: int) -> tuple[str, ...]:
    """The tags of a plain-append family up to label top, one per label."""
    return tuple(f"{tag}:{y}" for y in range(top + 1))


# --- slack parameter a and cut-and-paste ------------------------------------


def _ladder(word: str, spans: tuple[int, ...], label: int, state: _State, pattern: Pattern) -> tuple[int, int | None]:
    """(a, pin): the slack a of a delta word, and the ordinate its jump-j
    cuts must put z at, None when z must equal t.  They follow from the
    highest unmarked peak h (0 with none) and the highest marked peak h*
    (None with no span) of the suffix from its start, read off the copy's
    state."""
    if state[5]:
        raise NotDeltaError(_text(word, spans))
    if label == 0:
        return 0, None
    h, hstar = state[2:4]
    route_marked = hstar is not None and hstar - h > pattern.i
    top = hstar - pattern.i if route_marked else h
    ji = pattern.j - pattern.i
    if top - label < ji:
        return max(top - label, 0), None
    return ji - 1, top


def compute_a(mw: MarkedWord, pattern: Pattern) -> int:
    """Slack a in [0, j-i-1] for the jump-j production of a delta word.

    0 on the axis; otherwise clamp d to [0, j-i-1] where d = h - k when the
    marked peaks do not dominate (h* - h <= i, or no span) and d = h* - k - i
    when they do.  When h* - h = i both readings coincide.  Raises
    ValueError on malformed spans.
    """
    mw.validate(pattern)
    label = height(mw.word)
    return _ladder(mw.word, mw.spans, label, _scan(mw, label, pattern), pattern)[0]


def _cut(
    word: str, spans: tuple[int, ...], pattern: Pattern, t0: int, state: tuple
) -> tuple[str, tuple[int, ...], int, int, int]:
    """Cut-and-paste the suffix of a marked word from the axis point t0,
    whose state (or _suffix_state) is given: the cut word and its spans,
    then t, z (both positions in word) and z's ordinate.  spans are sorted,
    as every span tuple of the tree is.

    z is the state's point: t, checked not to lie strictly inside a span,
    is a candidate, so the highest candidate on or above the line through t
    is the highest of the whole suffix."""
    local = [s - t0 for s in spans if s >= t0]
    if not local:
        raise NoMarkedPoint(_text(word, spans))
    phi = word[t0:]
    length = pattern.length
    t = local[-1] + length  # first point right of the rightmost marked peak's span
    # only a span that starts right of the last one can hold t: none, when sorted
    if max(local) > local[-1] and any(s < t < s + length for s in local):
        raise SpanSplitError(f"t at {t0 + t} inside a span of {_text(word, spans)}")
    z_ordinate, z = state[0], state[1] - t0
    alpha = phi[z:]
    # the spans from z on come first, then those before z, each group in order
    moved = [t0 + 1 + s - z for s in local if s >= z] + [t0 + 1 + s + len(alpha) for s in local if s < z]
    out, out_spans = word[:t0] + "0" + alpha + phi[:z], spans[: len(spans) - len(local)] + tuple(moved)
    if height(out) != height(word) - 1:
        raise InvariantViolation(f"cut of {_text(word, spans)} gave {_text(out, out_spans)}, not one ordinate lower")
    return out, out_spans, t0 + t, t0 + z, z_ordinate


def cut_and_paste(mw: MarkedWord, pattern: Pattern) -> MarkedWord:
    """Rebuild a marked word, ending one ordinate lower, by moving the part
    of its axis suffix before z behind the part after z, behind a new fall.

    Requires well-formed spans, endpoint ordinate >= 1 and a marked span
    inside the suffix; raises ValueError on malformed spans or a low
    endpoint.
    """
    mw.validate(pattern)
    if height(mw.word) < 1:
        raise ValueError(f"cut_and_paste needs endpoint ordinate >= 1, got {mw.to_text()}")
    t0 = rightmost_suffix(mw, pattern)[2]
    return MarkedWord(*_cut(mw.word, mw.spans, pattern, t0, _suffix_state(mw.word, mw.spans, t0, pattern))[:2])


# --- productions -------------------------------------------------------------


def _jump1(
    word: str,
    spans: tuple[int, ...],
    label: int,
    parity: int,
    state: _State,
    pattern: Pattern,
) -> list[_Kid]:
    if state[5]:
        raise NotDeltaError(_text(word, spans))
    family = _tail(word, label, state, pattern, 1)
    out = _appends(word, spans, label, parity, pattern, 1, "up", family)
    grown = word + "1" + "0" * label
    t0 = state[4]  # rightmost eligible axis point of grown
    if spans and spans[-1] >= t0:
        repaired, repaired_spans = _cut(grown, spans, pattern, t0, family[1])[:2]
    else:
        # the suffix is span-free and above the axis; flipped, it returns
        # to the axis only at the new endpoint
        repaired, repaired_spans = grown[:t0] + complement(grown[t0:]) + "1", spans
    if height(repaired) != 0:
        raise _mislabelled(0, repaired)
    if parity != (1 if len(repaired_spans) % 2 == 0 else -1):
        raise _missigned(parity, repaired_spans, repaired)
    out.append((repaired, repaired_spans, 0, parity, "up:axis", None))
    return out


def _jumpj(
    word: str,
    spans: tuple[int, ...],
    label: int,
    parity: int,
    state: _State,
    pattern: Pattern,
) -> list[_Kid]:
    a, pin = _ladder(word, spans, label, state, pattern)
    k = label
    ji = pattern.j - pattern.i
    family = _tail(word, label, state, pattern, pattern.j)
    out = _appends(word, spans, label, parity, pattern, pattern.j, "mark", family)
    head, marked = word + pattern.factor, spans + (len(word),)
    t0 = state[4]
    behind = len(word) + pattern.length
    parity = -parity
    for y in range(k + a, k + ji):
        grown = head + "0" * y
        repaired, repaired_spans, t, z, z_ordinate = _cut(grown, marked, pattern, t0, family[1])
        if t != behind:
            raise InvariantViolation(f"t at {t}, not behind the new span, in {_text(grown, marked)}")
        if pin is None:
            if z != t:
                raise InvariantViolation(f"expected z=t for {_text(grown, marked)}")
        elif z_ordinate != pin:
            raise InvariantViolation(f"z off the pinned ordinate for {_text(grown, marked)}")
        sign = 1 if len(repaired_spans) % 2 == 0 else -1
        m0 = k + ji - y - 1
        for g in range(m0 + 1):
            child = repaired + "0" * g
            if height(child) != m0 - g:
                raise _mislabelled(m0 - g, child)
            if parity != sign:
                raise _missigned(parity, repaired_spans, child)
            out.append((child, repaired_spans, m0 - g, parity, f"mark:cut{y}+{g}" if g else f"mark:cut{y}", None))
    got = Counter(kid[2] for kid in out)
    want = {m: 1 + max(0, ji - a - m) for m in range(k + ji + 1)}
    if got != want:
        raise MultiplicityMismatch(
            f"jump-{pattern.j} of {_text(word, spans)} (k={k}, a={a}): {dict(sorted(got.items()))} != {want}"
        )
    return out


def _expand(
    word: str,
    spans: tuple[int, ...],
    label: int,
    parity: int,
    level: int,
    state: _State,
    pattern: Pattern,
    max_level: int | None = None,
) -> dict[int, list[_Kid]]:
    """The children of a copy at `level` with its state, as checked kids
    grouped by target level, jump 1 first: the production table, one row
    per jump, and the walk's seam.  A gamma copy takes each row's plain
    appends, a delta copy its production.  A row whose level lies past
    max_level (None: no bound) is never built, so a jump-j family out of
    range skips its cuts and its label multiset check.  The copy's state
    passes on to every plain append (see _tail)."""
    args = word, spans, label, parity
    groups = {}
    for jump, tag, production in (1, "up", _jump1), (pattern.j, "mark", _jumpj):
        if max_level is None or level + jump <= max_level:
            if state[5]:  # gamma
                family = _tail(word, label, state, pattern, jump)
                groups[level + jump] = _appends(*args, pattern, jump, "g" + tag, family)
            else:
                groups[level + jump] = production(*args, state, pattern)
    return groups


def delta_jump1(node: TreeNode, pattern: Pattern) -> list[TreeNode]:
    """The k+3 children one level deeper of a delta node with label k:
    appended children for labels 0..k+1 plus one repaired axis child."""
    return _nodes(node, node.level + 1, _jump1(*_fields(node, pattern), pattern))


def delta_jumpj(node: TreeNode, pattern: Pattern) -> list[TreeNode]:
    """The jump-j children of a delta node: 1+k+j-i marked appends (labels
    k+j-i down to 0) plus, for each y in [k+a, k+j-i-1], one cut-and-pasted
    child and its longer-falling copies.  Verifies the label multiset."""
    return _nodes(node, node.level + pattern.j, _jumpj(*_fields(node, pattern), pattern))


def gamma_expand(node: TreeNode, pattern: Pattern) -> tuple[list[TreeNode], list[TreeNode]]:
    """Gamma children, jump 1 then jump j: plain appends only, each label
    exactly once."""
    word, spans, label, parity, state = _fields(node, pattern)
    if not state[5]:
        raise NotGammaError(node.mw.to_text())
    groups = _expand(word, spans, label, parity, node.level, state, pattern)
    up, mark = (_nodes(node, n, kids) for n, kids in groups.items())
    return up, mark


def expand_node(node: TreeNode, pattern: Pattern, max_level: int | None = None) -> dict[int, list[TreeNode]]:
    """The children of one node, grouped by target level, jump 1 first,
    each group sorted by sort_key: by (word, span starts), since a group
    has one parity.  A group past max_level (None: no bound) is never
    built (see _expand)."""
    word, spans, label, parity, state = _fields(node, pattern)
    groups = _expand(word, spans, label, parity, node.level, state, pattern, max_level)
    return {n: sorted(_nodes(node, n, kids), key=lambda nd: nd.sort_key) for n, kids in groups.items()}


# --- level engine ------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class LevelReport:
    """One level of a run.  word_census is a read-only Mapping, word ->
    (plus, minus) copies, over the words with a copy, in ascending word
    order (see census.WordCensus)."""

    level: int
    label_census: dict[int, tuple[int, int]]
    word_census: Mapping[str, tuple[int, int]]
    survivors: tuple[str, ...]
    class_counts: dict[str, int]
    nodes: tuple[TreeNode, ...] | None = None

    def label_net(self, label: int) -> int:
        p, m = self.label_census.get(label, (0, 0))
        return p - m


@dataclass(frozen=True, slots=True)
class RunResult:
    pattern: Pattern
    max_ones: int
    levels: list[LevelReport]

    @property
    def gamma_total(self) -> int:
        return sum(rep.class_counts.get(PathKind.GAMMA.value, 0) for rep in self.levels)


@dataclass(slots=True)
class _LevelTally:
    """What the walk keeps of one level that its census cannot give: the
    copies it counted, as word -> [plus copies, minus copies], the number
    of them that are gamma, and the nodes the caller asked for."""

    copies: dict[str, list[int]] = field(default_factory=dict)
    gamma: int = 0
    kept: list[TreeNode] = field(default_factory=list)


def _node_order(node: TreeNode) -> tuple[tuple[str, tuple[int, ...], int], tuple[str, ...]]:
    """The order of kept nodes and of a word's copies: sort_key, then
    lineage, so copies that agree on word, spans and sign have one order."""
    return node.sort_key, node.provenance


def _provenance(lineage: tuple) -> tuple[str, ...]:
    """The provenance tuple of a walk lineage: () for the root, else a
    linked pair (parent lineage, tag)."""
    tags = []
    while lineage:
        lineage, tag = lineage
        tags.append(tag)
    return tuple(reversed(tags))


def _walk(
    pattern: Pattern, max_ones: int, keep: Callable[[str], bool] | None = None
) -> tuple[list[_LevelTally], tuple[tuple, Exception] | None]:
    """Walk the tree depth-first from the root down to max_ones rise steps
    and return (tallies, failure); see the module docstring.

    tallies[n] holds level n's walked copies by word and sign, its gamma
    count, and the nodes of level n for which keep(word) holds, each built
    once: walked ones, and, behind each kept walked return of level m, the
    kept nodes of level n - m.  That is every tree node keep accepts,
    provided keep accepts every factor of a word it accepts.  The stack
    holds plain tuples (word, spans, label, parity, level, lineage, state),
    where a lineage is () at the root and otherwise the linked pair (parent
    lineage, tag), and state is the copy's one record (see _tail).

    A copy whose classification or expansion raises grows no subtree, and
    the walk goes on: it raises nothing the construction raises.  failure
    is the one a level-by-level run meets first, as ((level, 0 for classify
    or 1 for expand, sort_key), exception), or None.
    """
    tallies = [_LevelTally() for _ in range(max_ones + 1)]
    failure = None

    def fail(key: tuple, exc: Exception) -> None:
        # Any exception is held, not only the construction's own: the
        # level-by-level order decides which one surfaces.
        nonlocal failure
        if failure is None or key < failure[0]:
            failure = (key, exc)

    tallies[0].copies[""] = [1, 0]  # no production makes the root: count it here
    if keep is not None and keep(""):
        tallies[0].kept.append(TreeNode(MarkedWord(""), 0, 1, 0))
    stack = [("", (), 0, 1, 0, (), (0, 0, 0, None, 0, False))] if max_ones else []
    push = stack.append
    while stack:
        word, spans, label, parity, level, lineage, state = stack.pop()
        try:
            groups = _expand(word, spans, label, parity, level, state, pattern, max_ones)
        except Exception as exc:
            fail((level, 1, (word, spans, parity)), exc)
            continue
        for n, kids in groups.items():
            here = tallies[n]
            copies = here.copies
            deeper = n < max_ones
            for word, spans, label, parity, tag, state in kids:  # of the parent, only lineage is read on
                cell = copies.get(word)
                if cell is None:
                    cell = copies[word] = [0, 0]
                cell[parity < 0] += 1
                if keep is not None and keep(word):
                    here.kept.append(TreeNode(MarkedWord(word, spans), label, parity, n, _provenance((lineage, tag))))
                if not label:  # DELTA_ON_AXIS: an axis return, never expanded
                    continue
                if state is None:  # built by a cut
                    try:
                        state = _scan(MarkedWord(word, spans), label, pattern)
                    except Exception as exc:
                        fail((n, 0, (word, spans, parity)), exc)
                        continue
                if state[5]:
                    here.gamma += 1
                if deeper:
                    push((word, spans, label, parity, n, (lineage, tag), state))
    if keep is not None:
        walked = [[q for q in t.kept if q.label == 0] for t in tallies]  # before any is grown
        for n, t in enumerate(tallies):
            grown = ((q, nd) for m in range(1, n) for q in walked[m] for nd in tallies[n - m].kept)
            t.kept.extend(_behind(q, nd) for q, nd in grown if keep(q.mw.word + nd.mw.word))
    return tallies, failure


def _behind(q: TreeNode, node: TreeNode) -> TreeNode:
    """`node`, a node of the root's tree, as it grows behind the axis return
    q: q's word in front, spans shifted past it, signs multiplied, q's
    lineage in front."""
    shift = len(q.mw.word)
    mw = MarkedWord(q.mw.word + node.mw.word, q.mw.spans + tuple(s + shift for s in node.mw.spans))
    return TreeNode(mw, node.label, q.parity * node.parity, q.level + node.level, q.provenance + node.provenance)


def _lineages(pattern: Pattern, word: str) -> tuple[tuple[str, ...], ...]:
    """The lineages of every tree copy of `word`, in node order, from a
    walk to its level that keeps only the factors of `word` and checks no
    level: NetOutOfRange carries them once the word's level has failed."""
    level = word.count("1")
    tallies, _ = _walk(pattern, level, lambda w: w in word)
    copies = sorted((nd for nd in tallies[level].kept if nd.mw.word == word), key=_node_order)
    return tuple(nd.provenance for nd in copies)


def run_levels(
    pattern: Pattern, max_ones: int, *, keep_nodes: bool = False, budget: int = DEFAULT_BUDGET
) -> RunResult:
    """Grow the tree up to max_ones rise steps and report each level.

    Per level the report carries the label census, the word census as a
    read-only Mapping in ascending word order (census.WordCensus), the
    surviving words (net 1), the class tallies of every copy and, with
    keep_nodes, the nodes sorted by (word, spans, parity, lineage).
    Memory holds each level's dense census (C(2n+1, n) cells per list for
    n ones), the walk's tallies and its stack, and not the copies unless
    keep_nodes; no node is built without it.

    Raises ValueError for max_ones < 0, then oracle.BudgetExceeded before
    anything is built when a level's census would need more than `budget`
    cells per list (C(2n+1, n) for n ones, the candidates brute_force
    counts; by default the run stops at 12 ones).  Each level is checked
    before the next: a word whose net lies outside {0, 1} raises NetOutOfRange (the
    smallest such word, with the lineages of all its copies in node
    order); then a classification, and then an expansion, that failed on
    a copy of that level is raised, the smallest copy first.  Failures
    surface exactly as a level-by-level run would raise them.
    """
    if max_ones < 0:
        raise ValueError("max_ones must be >= 0")
    _check_levels(max_ones, budget)
    return _run(pattern, max_ones, (lambda w: True) if keep_nodes else None)


def _run(pattern: Pattern, max_ones: int, keep: Callable[[str], bool] | None, *, spell: bool = True) -> RunResult:
    """run_levels and copies_of: one walk to max_ones (see _walk), then
    each level spliced, checked and reported in turn, with the nodes keep
    accepts in node order whenever keep is given.  Without spell, a
    report's survivors are left empty: copies_of never reads them."""
    tallies, failure = _walk(pattern, max_ones, keep)
    reports: list[LevelReport] = []
    returns: list[dict[str, list[int]]] = []  # per level, its walked copies that end on the axis
    for n, tally in enumerate(tallies):
        grown = [(returns[m], reports[n - m].word_census) for m in range(1, n) if returns[m]]
        # each copy of a return of level m repeats the gamma copies of level n - m
        tally.gamma += sum(tallies[n - m].gamma * sum(map(sum, returns[m].values())) for m in range(1, n))
        census = build_census(n, tally.copies, grown)
        returns.append({w: cell for w, cell in tally.copies.items() if len(w) == 2 * n})
        tally.copies.clear()  # the census holds the copies from here on
        off = census.off_net()
        if off is not None:
            word, net = off
            raise NetOutOfRange(word, n, net, _lineages(pattern, word))
        if failure is not None and failure[0][0] == n:
            raise failure[1]
        labels = census.labels()
        on_axis, gamma = sum(labels.get(0, ())), tally.gamma
        above = sum(map(sum, labels.values())) - on_axis - gamma
        classes = {PathKind.DELTA_ON_AXIS: on_axis, PathKind.DELTA_ABOVE: above, PathKind.GAMMA: gamma}
        reports.append(
            LevelReport(
                n,
                labels,
                census,
                census.survivors() if spell else (),
                {kind.value: classes[kind] for kind in PathKind if classes[kind]},
                tuple(sorted(tally.kept, key=_node_order)) if keep is not None else None,
            )
        )
    return RunResult(pattern, max_ones, reports)


def _check_binary(word: str) -> None:
    """Raise ValueError unless word is over 0/1: no tree copy carries any
    other word, and an empty answer would read as a word with no copy."""
    if set(word) - {"0", "1"}:
        raise ValueError(f"word must be over 0/1, got {word!r}")


def collect_copies(result: RunResult, word: str) -> list[TreeNode]:
    """Every tree node carrying `word` at its level, in node order (sort_key,
    then lineage).  The run must have been made with keep_nodes=True, and
    word must be over 0/1 (ValueError otherwise)."""
    _check_binary(word)
    level = word.count("1")
    if level > result.max_ones:
        raise ValueError(f"word has {level} rises but the run stops at {result.max_ones}")
    nodes = result.levels[level].nodes
    if nodes is None:
        raise ValueError("run_levels(..., keep_nodes=True) required for collect_copies")
    return [nd for nd in nodes if nd.mw.word == word]


def copies_of(pattern: Pattern, word: str, *, budget: int = DEFAULT_BUDGET) -> list[TreeNode]:
    """Every tree copy of `word` at its level, in node order (sort_key,
    then lineage), from a run to that level: the levels are walked once
    and checked as run_levels checks them, so a failing level raises.

    The run keeps only the nodes whose word is a factor of `word`: the
    copies below an axis return are grown from those of the return and of
    a suffix, so memory holds the walk's censuses and those factors, not
    every node.  A word not over 0/1 raises ValueError, and a level over
    `budget` BudgetExceeded (as in run_levels), before the walk."""
    _check_binary(word)
    _check_levels(word.count("1"), budget)
    return collect_copies(_run(pattern, word.count("1"), lambda w: w in word, spell=False), word)
