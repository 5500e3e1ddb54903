"""Outside-in tracing of patternforge's public functions.

`Tracer.install` replaces each function in WRAPPED with a timing wrapper,
in every patternforge module that holds it by name (construction binds
`classify`, `profile` and `rightmost_suffix` directly), so no source file
of the program changes.  Per function it keeps calls and self time: total
time minus the time spent in wrapped calls made beneath it.
The coarse calls in SPANNED are also kept as spans (name, start, end,
parent span) in memory, for the caller to write out at the end.

A few hooks read return values where the work happens: children built,
kept and grouped by production family from `expand_node`, copies
censused from `run_levels`, and candidate words from `brute_force`.
Hook time is charged to no function.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from math import comb

WRAPPED = {
    "words": ("profile", "classify", "rightmost_suffix"),
    "construction": (
        "run_levels",
        "expand_node",
        "delta_jump1",
        "delta_jumpj",
        "gamma_expand",
        "cut_and_paste",
        "collect_copies",
    ),
    "oracle": ("brute_force", "level_count", "count_avoiding"),
    "succession": ("parse_rule", "expand_census"),
    "verify": ("verify_pattern",),
}

SPANNED = frozenset(
    {
        "construction.run_levels",
        "construction.collect_copies",
        "oracle.brute_force",
        "oracle.level_count",
        "succession.parse_rule",
        "succession.expand_census",
        "verify.verify_pattern",
    }
)

FAMILIES = ("up", "mark", "mark_cut", "gup", "gmark")


def census_size(result) -> int:
    """Tree copies censused by one run_levels result, over all its levels."""
    return sum(p + m for rep in result.levels for p, m in rep.label_census.values())


def _family(tag: str) -> str:
    head, _, rest = tag.partition(":")
    return "mark_cut" if head == "mark" and rest.startswith("cut") else head


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, self_s]
        self.counts: Counter[str] = Counter()
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self._frames: list[float] = []  # wrapped time beneath each open call
        self._open_spans: list[int] = []
        self._max_ones: list[int] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "patternforge"]
        hooks = {
            "construction.run_levels": self._after_run_levels,
            "construction.expand_node": self._after_expand_node,
            "oracle.brute_force": self._after_brute_force,
        }
        for modname, names in WRAPPED.items():
            home = sys.modules[f"patternforge.{modname}"]
            for name in names:
                qualname = f"{modname}.{name}"
                original = getattr(home, name)
                wrapper = self._wrap(qualname, original, hooks.get(qualname))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def _wrap(self, qualname, fn, hook):
        stats = self.stats.setdefault(qualname, [0, 0.0])
        frames = self._frames
        clock = time.perf_counter
        spanned = qualname in SPANNED
        spans = self.spans
        open_spans = self._open_spans
        is_run_levels = qualname == "construction.run_levels"

        def wrapper(*args, **kwargs):
            if spanned:
                span_id = len(spans)
                parent = open_spans[-1] if open_spans else None
                open_spans.append(span_id)
                spans.append(None)
            if is_run_levels:
                self._max_ones.append(kwargs.get("max_ones", args[1] if len(args) > 1 else None))
            frames.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                inner = frames.pop()
                stats[0] += 1
                stats[1] += dt - inner
                if frames:
                    frames[-1] += dt
                if spanned:
                    open_spans.pop()
                    spans[span_id] = (span_id, parent, qualname, t0, t1)
                if is_run_levels:
                    self._max_ones.pop()
            if hook is not None:
                h0 = clock()
                hook(args, kwargs, out)
                if frames:
                    frames[-1] += clock() - h0
            return out

        return wrapper

    def _after_run_levels(self, args, kwargs, result) -> None:
        self.counts["construction.nodes"] += census_size(result)

    def _after_expand_node(self, args, kwargs, groups) -> None:
        max_ones = self._max_ones[-1] if self._max_ones else None
        counts = self.counts
        for level, kids in groups.items():
            counts["construction.children_built"] += len(kids)
            if max_ones is None or level <= max_ones:
                counts["construction.children_kept"] += len(kids)
            for kid in kids:
                counts["construction.children." + _family(kid.provenance[-1])] += 1

    def _after_brute_force(self, args, kwargs, words) -> None:
        ones = kwargs.get("ones", args[1] if len(args) > 1 else None)
        self.counts["oracle.brute_force.candidates"] += sum(comb(ones + m, m) for m in range(ones + 1))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(stats: dict[str, list], counts: dict[str, int]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""

    def calls(name: str) -> int:
        return stats[name][0]

    def self_s(name: str) -> float:
        return stats[name][1]

    out: dict[str, tuple[float, str]] = {
        "words.profile.calls": (calls("words.profile"), "count"),
        "words.profile.self_s": (self_s("words.profile"), "s"),
        "words.profile.calls_per_expansion": (
            _ratio(calls("words.profile"), calls("construction.expand_node")),
            "ratio",
        ),
        "words.classify.calls": (calls("words.classify"), "count"),
        "words.classify.self_s": (self_s("words.classify"), "s"),
        "words.rightmost_suffix.self_s": (self_s("words.rightmost_suffix"), "s"),
        "construction.run_levels.self_s": (self_s("construction.run_levels"), "s"),
        "construction.expand_node.calls": (calls("construction.expand_node"), "count"),
        "construction.delta_jump1.self_s": (self_s("construction.delta_jump1"), "s"),
        "construction.delta_jumpj.self_s": (self_s("construction.delta_jumpj"), "s"),
        "construction.cut_and_paste.calls": (calls("construction.cut_and_paste"), "count"),
        "construction.cut_and_paste.self_s": (self_s("construction.cut_and_paste"), "s"),
        "construction.nodes": (counts.get("construction.nodes", 0), "count"),
        "construction.children_built": (counts.get("construction.children_built", 0), "count"),
    }
    for fam in FAMILIES:
        out[f"construction.children.{fam}"] = (counts.get(f"construction.children.{fam}", 0), "count")
    out["construction.children_kept_ratio"] = (
        _ratio(counts.get("construction.children_kept", 0), counts.get("construction.children_built", 0)),
        "ratio",
    )
    out["construction.classify_useful_ratio"] = (
        _ratio(calls("construction.expand_node"), calls("words.classify")),
        "ratio",
    )
    out["oracle.brute_force.self_s"] = (self_s("oracle.brute_force"), "s")
    out["oracle.brute_force.candidates"] = (counts.get("oracle.brute_force.candidates", 0), "count")
    out["oracle.count_avoiding.calls"] = (calls("oracle.count_avoiding"), "count")
    out["oracle.count_avoiding.self_s"] = (self_s("oracle.count_avoiding"), "s")
    out["succession.expand_census.self_s"] = (self_s("succession.expand_census"), "s")
    out["verify.verify_pattern.self_s"] = (self_s("verify.verify_pattern"), "s")
    return out
