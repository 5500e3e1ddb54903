"""Differential check: the level engine against the independent oracles.

Per level, the surviving words must equal the brute-force enumeration and
each label's net count must equal the automaton count for that step split.
The enumeration budget of every level is checked before the tree is built,
so an oversized request is refused at once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .construction import RunResult, run_levels
from .oracle import DEFAULT_BUDGET, _check_levels, brute_force, count_avoiding
from .words import Pattern

__all__ = ["LevelVerdict", "VerifyReport", "verify_pattern"]


@dataclass(frozen=True, slots=True)
class LevelVerdict:
    level: int
    ok: bool
    divergences: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class VerifyReport:
    pattern: Pattern
    max_ones: int
    levels: list[LevelVerdict]
    gamma_total: int

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.levels)

    def divergences(self) -> list[str]:
        return [d for v in self.levels for d in v.divergences]


def verify_pattern(
    pattern: Pattern,
    max_ones: int,
    *,
    budget: int = DEFAULT_BUDGET,
    result: RunResult | None = None,
) -> VerifyReport:
    _check_levels(max_ones, budget)  # refuse before any tree is built
    if result is None:
        result = run_levels(pattern, max_ones, budget=budget)
    elif (result.pattern, result.max_ones) != (pattern, max_ones):
        raise ValueError(
            f"result is a run of {result.pattern} to {result.max_ones} ones, not of {pattern} to {max_ones}"
        )
    verdicts = []
    for rep in result.levels:
        n = rep.level
        expected = brute_force(pattern, n, budget=budget)
        divs = []
        if rep.survivors != tuple(expected):
            got = set(rep.survivors)
            want = set(expected)
            for w in sorted(want - got, key=lambda w: (len(w), w)):
                divs.append(f"level {n}: missing survivor {w!r}")
            for w in sorted(got - want, key=lambda w: (len(w), w)):
                divs.append(f"level {n}: extra survivor {w!r}")
            if not divs:
                divs.append(f"level {n}: survivor ordering differs")
        for k in range(n + 1):
            want_net = count_avoiding(pattern, n, n - k)
            got_net = rep.label_net(k)
            if got_net != want_net:
                divs.append(f"level {n} label {k}: net {got_net} != oracle {want_net}")
        for k in rep.label_census:
            if not 0 <= k <= n and rep.label_net(k) != 0:
                divs.append(f"level {n}: stray label {k} with net {rep.label_net(k)}")
        verdicts.append(LevelVerdict(n, not divs, tuple(divs)))
    return VerifyReport(pattern, max_ones, verdicts, result.gamma_total)
