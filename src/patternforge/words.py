"""Binary words viewed as lattice paths, with marked factor embeddings.

A word over {'1', '0'} maps to a path: '1' is a rise step (1, +1), '0' a
fall step (1, -1).  Profile position t (0 <= t <= len(word)) sits at
ordinate #ones - #zeros among the first t bits.  The words of interest end
at ordinate >= 0; interior dips below the axis are allowed ("01" is fine).

A marked word additionally carries spans: embedded occurrences of the
factor 1^j 0^i whose steps are atomic.  No decomposition point may fall
strictly inside a span, so every suffix/cut operation here skips such
points.  A span's peak is the profile point after its j rises; the peak
ordinate is written b throughout.
"""

from __future__ import annotations

from enum import Enum
from itertools import accumulate, repeat
from typing import NamedTuple

__all__ = [
    "Pattern",
    "MarkedWord",
    "PathKind",
    "PathClass",
    "InvariantViolation",
    "UnclassifiablePath",
    "profile",
    "height",
    "occurrences",
    "complement",
    "rightmost_suffix",
    "classify",
]

_FLIP = str.maketrans("01", "10")


class InvariantViolation(Exception):
    """A soundness check of the construction failed.  Every such check
    raises this class or a subclass (a word no production can classify or
    expand, a cut that splits a span or finds no marked point, a child
    family off its label multiset, a net outside {0, 1}), so one except
    clause catches them all; the CLI exits with code 3.  Raised directly, it
    reports a child that breaks its production's invariant: label, parity,
    height after a cut, or a pinned cut point.  Raised, not asserted, so
    the checks survive ``python -O``."""


class _PatternFields(NamedTuple):
    j: int
    i: int


class Pattern(_PatternFields):
    """The forbidden factor 1^j 0^i, 0 < i < j."""

    __slots__ = ()

    def __new__(cls, j: int, i: int) -> Pattern:
        if not all(type(n) is int for n in (j, i)):
            raise ValueError(f"j and i must be int, got j={j!r} i={i!r}")
        if not 0 < i < j:
            raise ValueError(f"need 0 < i < j, got j={j} i={i}")
        return tuple.__new__(cls, (j, i))

    @classmethod
    def _make(cls, iterable) -> Pattern:
        return cls(*iterable)  # so _replace checks as construction does

    @property
    def length(self) -> int:
        return self.j + self.i

    @property
    def factor(self) -> str:
        return "1" * self.j + "0" * self.i


class _MarkedWordFields(NamedTuple):
    word: str
    spans: tuple[int, ...] = ()


class MarkedWord(_MarkedWordFields):
    """A word plus the start indices of its marked factor embeddings,
    sorted."""

    __slots__ = ()

    def __new__(cls, word: str, spans: tuple[int, ...] = ()) -> MarkedWord:
        return tuple.__new__(cls, (word, tuple(sorted(spans))))

    @classmethod
    def _make(cls, iterable) -> MarkedWord:
        return cls(*iterable)  # so _replace sorts as construction does

    def validate(self, pattern: Pattern) -> None:
        """Raise ValueError unless every span covers the factor and spans are disjoint."""
        last_end = None
        for s in self.spans:
            if s < 0 or s + pattern.length > len(self.word):
                raise ValueError(f"span {s} out of bounds in {self.word!r}")
            if self.word[s : s + pattern.length] != pattern.factor:
                raise ValueError(f"span {s} does not cover {pattern.factor} in {self.word!r}")
            if last_end is not None and s < last_end:
                raise ValueError(f"overlapping spans in {self!r}")
            last_end = s + pattern.length

    def strictly_inside(self, pos: int, pattern: Pattern) -> bool:
        """True when profile position pos falls strictly between two steps of a span."""
        return any(s < pos < s + pattern.length for s in self.spans)

    def span_peak(self, start: int, pattern: Pattern) -> int:
        """Ordinate b of the marked peak of the span starting at start."""
        return profile(self.word)[start + pattern.j]

    def to_text(self) -> str:
        if not self.spans:
            return self.word
        return self.word + "@" + ",".join(str(s) for s in self.spans)

    @classmethod
    def from_text(cls, text: str) -> "MarkedWord":
        if "@" not in text:
            return cls(text)
        word, _, tail = text.partition("@")
        return cls(word, tuple(int(p) for p in tail.split(",") if p != ""))


# The step of one letter: a rise for "1", a fall for any other.
_STEP = {"1": 1}.get


def profile(word: str) -> list[int]:
    """Ordinates of all len(word)+1 profile positions, starting at 0."""
    return list(accumulate(map(_STEP, word, repeat(-1)), initial=0))


def height(word: str) -> int:
    """Endpoint ordinate: #ones - #zeros."""
    return 2 * word.count("1") - len(word)


def occurrences(word: str, pattern: Pattern) -> list[int]:
    """All start positions of the factor in word, left to right."""
    out = []
    t = word.find(pattern.factor)
    while t != -1:
        out.append(t)
        t = word.find(pattern.factor, t + 1)
    return out


def complement(word: str) -> str:
    """Swap rises and falls."""
    return word.translate(_FLIP)


def _suffix_start(mw: MarkedWord, pattern: Pattern, prof: list[int]) -> int:
    """Rightmost profile position at ordinate 0 that is eligible as a cut point.

    Eligible means: not the word's endpoint and not strictly inside a span.
    Position 0 always qualifies for a nonempty word; for the empty word the
    suffix is the whole (empty) word.  prof is profile(mw.word).
    """
    for t in range(len(mw.word) - 1, -1, -1):
        if prof[t] == 0 and not mw.strictly_inside(t, pattern):
            return t
    return 0


def rightmost_suffix(mw: MarkedWord, pattern: Pattern) -> tuple[str, str, int]:
    """Split word = prefix + suffix at the rightmost eligible axis point.

    Returns (prefix, suffix, start).  The suffix begins at ordinate 0 and is
    the unit every decomposition below works on.
    """
    t = _suffix_start(mw, pattern, profile(mw.word))
    return mw.word[:t], mw.word[t:], t


class PathKind(Enum):
    DELTA_ON_AXIS = "delta-on-axis"
    DELTA_ABOVE = "delta-above-axis"
    GAMMA = "gamma"


class PathClass(NamedTuple):
    kind: PathKind
    suffix_start: int = 0
    qualifying_span: int | None = None

    @property
    def is_delta(self) -> bool:
        return self.kind is not PathKind.GAMMA


class UnclassifiablePath(InvariantViolation):
    """The word matches no expansion class; inputs like this never arise
    from the construction itself."""


def classify(mw: MarkedWord, pattern: Pattern) -> PathClass:
    """Sort a marked word into one of the three expansion classes.

    - ends on the axis: first delta class, regardless of spans;
    - rightmost eligible suffix starts with a rise, stays strictly above the
      axis, and every span inside it peaks at b >= j: second delta class;
    - that suffix starts with a fall and contains a span with i < b < j:
      gamma class.

    Anything else raises UnclassifiablePath rather than guessing.
    """
    prof = profile(mw.word)
    k = prof[-1]
    if k < 0:
        raise ValueError(f"endpoint ordinate {k} < 0 for {mw.word!r}")
    t = _suffix_start(mw, pattern, prof)
    if k == 0:
        return PathClass(PathKind.DELTA_ON_AXIS, suffix_start=t)
    span_peaks = [(s, prof[s + pattern.j]) for s in mw.spans if s >= t]
    if mw.word[t] == "1":
        if all(v > 0 for v in prof[t + 1 :]) and all(b >= pattern.j for _, b in span_peaks):
            return PathClass(PathKind.DELTA_ABOVE, suffix_start=t)
    else:
        for s, b in span_peaks:
            if pattern.i < b < pattern.j:
                return PathClass(PathKind.GAMMA, suffix_start=t, qualifying_span=s)
    raise UnclassifiablePath(f"{mw.to_text()} (pattern {pattern.factor})")
