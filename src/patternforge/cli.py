"""Command line front end.

Exit codes: 0 success, 1 verification mismatch, 2 usage error, enumeration
budget exceeded or bad rule file, 3 internal soundness violation.  A rule
file that is not UTF-8, does not parse, or yields a negative label or
multiplicity is reported as `{file}: {message}`.  generate, verify and
trace check the budget (--budget, DEFAULT_BUDGET candidates per level) of
every level before they build the tree: a level's census has as many
cells per list as the enumeration has candidates.
Exit code 3 is any words.InvariantViolation: a net outside {0, 1}, a child
multiset off its formula, a cut that splits a span, a node the productions
cannot classify or expand, or a child that breaks a production invariant
(label, parity, height after a cut, pinned cut point).

generate, verify and trace run the level engine in one thread.  It walks
the tree depth-first and raises a node's failure only once every lower
level has passed, so exit code 3 reports the failure a level-by-level run
would meet first (see construction.run_levels).  trace walks the levels up
to its word once and checks them the same way, keeping only the nodes
whose words are factors of its word, and grows the word's copies below
each axis return from those (see construction.copies_of).
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .construction import copies_of, run_levels
from .oracle import DEFAULT_BUDGET, BudgetExceeded, count_avoiding
from .succession import NegativeLabel, RuleParseError, expand_census, parse_rule
from .verify import verify_pattern
from .words import InvariantViolation, MarkedWord, Pattern, profile
from . import __version__


def _pattern(parser: argparse.ArgumentParser, args: argparse.Namespace) -> Pattern:
    try:
        return Pattern(args.j, args.i)
    except ValueError as exc:
        parser.error(str(exc))
        raise AssertionError  # unreachable


# An integer as the command line takes it: an optional '-', then ASCII
# digits.  int() alone would also take spaces, '+', '_' and other digits.
_INTEGER = re.compile("-?[0-9]+")


def _integer(text: str) -> int:
    """argparse type for an integer, matching _INTEGER."""
    if not _INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _count(text: str) -> int:
    """argparse type for a count of ones or levels, or a budget: ASCII
    digits only, so an integer >= 0."""
    value = _integer(text)
    if text.startswith("-"):
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _add_pattern_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--j", type=_integer, required=True, help="rise count of the forbidden factor")
    sub.add_argument("--i", type=_integer, required=True, help="fall count of the forbidden factor")


def _add_budget_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--budget", type=_count, default=DEFAULT_BUDGET)


def cmd_generate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    pattern = _pattern(parser, args)
    result = run_levels(pattern, args.max_ones, budget=args.budget)  # refuses before any tree is built
    for rep in result.levels:
        for word in rep.survivors:
            p, m = rep.word_census[word]
            if args.format == "tsv":
                print(f"{rep.level}\t{word}\t{p - m}\t{p}\t{m}")
            else:
                print(json.dumps({"level": rep.level, "word": word, "net": p - m, "plus": p, "minus": m}))
    return 0


def cmd_verify(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    pattern = _pattern(parser, args)
    report = verify_pattern(pattern, args.max_ones, budget=args.budget)
    for verdict in report.levels:
        print(f"level {verdict.level}: {'PASS' if verdict.ok else 'FAIL'}")
    for line in report.divergences()[:10]:
        print(f"  {line}")
    status = "OK" if report.ok else "MISMATCH"
    print(f"verify 1^{pattern.j} 0^{pattern.i} to {args.max_ones} ones: {status} (gamma nodes: {report.gamma_total})")
    return 0 if report.ok else 1


def cmd_count(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    pattern = _pattern(parser, args)
    total = 0
    for m in range(args.ones + 1):
        c = count_avoiding(pattern, args.ones, m)
        total += c
        print(f"{args.ones}\t{m}\t{c}")
    print(f"total\t{total}")
    return 0


def cmd_rule(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    try:
        with open(args.file, encoding="utf-8") as fh:
            censuses = expand_census(parse_rule(fh.read()), args.levels)
    except OSError as exc:
        parser.error(str(exc))
    except (UnicodeDecodeError, RuleParseError, NegativeLabel) as exc:
        print(f"{args.file}: {exc}", file=sys.stderr)
        return 2
    for census in censuses:
        plus_total = minus_total = 0
        for label, (p, m) in sorted(census.counts.items()):
            plus_total += p
            minus_total += m
            print(f"{census.level}\t{label}\t{p}\t{m}\t{p - m}")
        print(f"{census.level}\ttotal\t{plus_total}\t{minus_total}\t{plus_total - minus_total}")
    return 0


def cmd_trace(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    pattern = _pattern(parser, args)
    word = args.word
    if set(word) - {"0", "1"}:
        parser.error(f"word must be over 0/1, got {word!r}")
    # refuses before any tree is built, and raises what a run to the word's level raises
    for node in copies_of(pattern, word, budget=args.budget):
        sign = "+" if node.parity > 0 else "-"
        spans = ",".join(str(s) for s in node.mw.spans) or "-"
        prov = ">".join(node.provenance) or "-"
        print(f"{sign}\t{spans}\t{prov}")
    return 0


def _span_extent(word: str, start: int) -> int:
    """The length of the rises-then-falls factor that starts at `start`."""
    shape = re.match("1+0+", word[start:]) if start >= 0 else None
    if shape is None:
        raise ValueError(f"no factor shape at span start {start}")
    return shape.end()


def cmd_render(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    word = args.word
    if set(word) - {"0", "1"}:
        parser.error(f"word must be over 0/1, got {word!r}")
    entries = args.spans.split(",") if args.spans else []
    if not all(map(_INTEGER.fullmatch, entries)):
        parser.error(f"--spans must be comma-separated integers, got {args.spans!r}")
    spans = tuple(map(int, entries))
    if (args.j is None) != (args.i is None):
        parser.error("--j and --i must be given together")
    if args.j is not None:
        pattern = _pattern(parser, args)
        try:
            MarkedWord(word, spans).validate(pattern)
        except ValueError as exc:
            parser.error(str(exc))
        extents = {s: pattern.length for s in spans}
    else:
        try:
            extents = {s: _span_extent(word, s) for s in spans}
        except ValueError as exc:
            parser.error(str(exc))
        starts = sorted(spans)
        if any(b < a + extents[a] for a, b in zip(starts, starts[1:])):
            parser.error(f"overlapping spans {args.spans!r} in {word!r}")
    prof = profile(word)
    for y in range(max(prof), min(prof) - 1, -1):
        cells = "".join("*" if v == y else " " for v in prof)
        print(f"{y:>4} | {cells.rstrip()}")
    for s in sorted(extents):
        width = extents[s]
        print(" " * 7 + " " * s + "[" + "-" * (width - 1) + "]")
    return 0


def _attach_spans(argv: list[str]) -> list[str]:
    """argv with `--spans -4,0` joined into `--spans=-4,0`: argparse takes a
    value that starts with '-' and is not a plain number for an option, so
    a span list led by a negative start never reached the span check."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--spans" and re.match(r"-\d", arg):
            out[-1] = f"--spans={arg}"
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="patternforge",
        description="Build, count, and check binary words avoiding the factor 1^j 0^i.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit surviving words per level")
    _add_pattern_flags(p)
    p.add_argument("--max-ones", type=_count, required=True)
    p.add_argument("--format", choices=("jsonl", "tsv"), default="jsonl")
    _add_budget_flag(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("verify", help="differential check against the oracles")
    _add_pattern_flags(p)
    p.add_argument("--max-ones", type=_count, required=True)
    _add_budget_flag(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("count", help="oracle counts by fall count")
    _add_pattern_flags(p)
    p.add_argument("--ones", type=_count, required=True)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("rule", help="expand a succession rule file into a census")
    p.add_argument("--file", required=True)
    p.add_argument("--levels", type=_count, required=True)
    p.set_defaults(func=cmd_rule)

    p = sub.add_parser("trace", help="show every tree copy of one word")
    _add_pattern_flags(p)
    p.add_argument("--word", required=True)
    _add_budget_flag(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("render", help="ASCII profile of a word")
    p.add_argument("--word", required=True)
    p.add_argument("--spans", default="")
    p.add_argument("--j", type=_integer)
    p.add_argument("--i", type=_integer)
    p.set_defaults(func=cmd_render)

    args = parser.parse_args(_attach_spans(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(parser, args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"internal soundness violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
