"""A tiny language for jumping, marked succession rules, and its evaluator.

Grammar (whitespace insignificant; productions separated by ';' or newline):

    rule       := "axiom" ":" INT (sep production)+
    production := "jump" INT ":" atom ("," atom)*
    atom       := "(" expr ( ".." expr )? ")" ["~"] ["^" expr]

An expr is affine in the label variable k (integers, k, +, -, *).  An atom
names one child label, or an inclusive ascending range; "~" marks the
children (their sign flips), "^" gives a multiplicity (default 1).  Every
node at each level fires every production; a production with jump g sends
its children g levels deeper.  Enumeration reads plus minus minus per label.

The evaluator expands a level's nodes with their counts, and adds each child
range to its target level as two edges, +c at its first label and -c past
its last; a running sum turns a level's edges into counts when that level is
expanded, so an atom costs the same whatever the length of its range.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "Affine",
    "Atom",
    "Production",
    "RuleSpec",
    "LevelCensus",
    "CensusDiff",
    "RuleParseError",
    "NegativeLabel",
    "parse_rule",
    "expand_census",
    "census_equal",
]


class RuleParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} at line {line}, column {col}")
        self.line = line
        self.col = col


class NegativeLabel(Exception):
    pass


@dataclass(frozen=True, slots=True)
class Affine:
    """coeff*k + const"""

    coeff: int = 0
    const: int = 0

    def __call__(self, k: int) -> int:
        return self.coeff * k + self.const

    def render(self) -> str:
        if self.coeff == 0:
            return str(self.const)
        head = "k" if self.coeff == 1 else f"{self.coeff}*k"
        if self.const == 0:
            return head
        return f"{head}{self.const:+d}"


@dataclass(frozen=True, slots=True)
class Atom:
    lo: Affine
    hi: Affine | None = None  # None: single label
    marked: bool = False
    mult: Affine = field(default_factory=lambda: Affine(0, 1))

    def labels(self, k: int) -> range:
        lo = self.lo(k)
        hi = self.hi(k) if self.hi is not None else lo
        if hi >= lo and lo < 0:
            raise NegativeLabel(f"label {lo} from atom ({self.lo.render()}..) at k={k}")
        return range(lo, hi + 1)

    def multiplicity(self, k: int) -> int:
        m = self.mult(k)
        if m < 0:
            raise NegativeLabel(f"multiplicity {m} from atom ^{self.mult.render()} at k={k}")
        return m


@dataclass(frozen=True, slots=True)
class Production:
    jump: int
    atoms: tuple[Atom, ...]


@dataclass(frozen=True, slots=True)
class RuleSpec:
    axiom: int
    productions: tuple[Production, ...]


# --- parser -----------------------------------------------------------------

_PUNCT = {
    "..": "DOTS",
    ":": "COLON",
    ";": "SEP",
    ",": "COMMA",
    "(": "LPAR",
    ")": "RPAR",
    "~": "TILDE",
    "^": "CARET",
    "+": "PLUS",
    "-": "MINUS",
    "*": "STAR",
}


def _tokenize(text: str) -> list[tuple[str, str, int, int]]:
    toks = []
    line, col = 1, 1
    pos = 0
    n = len(text)
    while pos < n:
        c = text[pos]
        if c == "\n":
            toks.append(("SEP", "\n", line, col))
            line += 1
            col = 1
            pos += 1
            continue
        if c in " \t\r":
            pos += 1
            col += 1
            continue
        if text.startswith("..", pos):
            toks.append(("DOTS", "..", line, col))
            pos += 2
            col += 2
            continue
        if c in _PUNCT:
            toks.append((_PUNCT[c], c, line, col))
            pos += 1
            col += 1
            continue
        if c.isdigit():
            start = pos
            while pos < n and text[pos].isdigit():
                pos += 1
            toks.append(("INT", text[start:pos], line, col))
            col += pos - start
            continue
        if c.isalpha() or c == "_":
            start = pos
            while pos < n and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            toks.append(("NAME", text[start:pos], line, col))
            col += pos - start
            continue
        raise RuleParseError(f"unexpected character {c!r}", line, col)
    toks.append(("EOF", "", line, col))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int, int]:
        return self.toks[self.pos]

    def next(self) -> tuple[str, str, int, int]:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, message: str) -> None:
        _, _, line, col = self.peek()
        raise RuleParseError(message, line, col)

    def expect(self, kind: str, what: str) -> tuple[str, str, int, int]:
        if self.peek()[0] != kind:
            self.fail(f"expected {what}")
        return self.next()

    def skip_seps(self) -> None:
        while self.peek()[0] == "SEP":
            self.next()

    def keyword(self, word: str) -> None:
        kind, val, _, _ = self.peek()
        if kind != "NAME" or val != word:
            self.fail(f"expected keyword {word!r}")
        self.next()

    # expr := term (('+'|'-') term)* ; term := factor ('*' factor)*
    # factor := INT | 'k' | '-' factor
    def expr(self) -> Affine:
        value = self.term()
        while self.peek()[0] in ("PLUS", "MINUS"):
            op = self.next()[0]
            rhs = self.term()
            if op == "PLUS":
                value = Affine(value.coeff + rhs.coeff, value.const + rhs.const)
            else:
                value = Affine(value.coeff - rhs.coeff, value.const - rhs.const)
        return value

    def term(self) -> Affine:
        value = self.factor()
        while self.peek()[0] == "STAR":
            self.next()
            rhs = self.factor()
            if value.coeff and rhs.coeff:
                self.fail("expression is not affine in k")
            if rhs.coeff:
                value, rhs = rhs, value
            value = Affine(value.coeff * rhs.const, value.const * rhs.const)
        return value

    def factor(self) -> Affine:
        kind, val, _, _ = self.peek()
        if kind == "MINUS":
            self.next()
            inner = self.factor()
            return Affine(-inner.coeff, -inner.const)
        if kind == "INT":
            self.next()
            return Affine(0, int(val))
        if kind == "NAME":
            if val != "k":
                self.fail(f"unknown variable {val!r}")
            self.next()
            return Affine(1, 0)
        self.fail("expected integer, k, or '-'")
        raise AssertionError  # unreachable

    def atom(self) -> Atom:
        self.expect("LPAR", "'('")
        lo = self.expr()
        hi = None
        if self.peek()[0] == "DOTS":
            self.next()
            hi = self.expr()
        self.expect("RPAR", "')'")
        marked = False
        if self.peek()[0] == "TILDE":
            self.next()
            marked = True
        mult = Affine(0, 1)
        if self.peek()[0] == "CARET":
            self.next()
            mult = self.expr()
        return Atom(lo, hi, marked, mult)

    def production(self) -> Production:
        self.keyword("jump")
        jump = int(self.expect("INT", "jump distance")[1])
        if jump < 1:
            self.fail("jump must be >= 1")
        self.expect("COLON", "':'")
        atoms = [self.atom()]
        while self.peek()[0] == "COMMA":
            self.next()
            atoms.append(self.atom())
        return Production(jump, tuple(atoms))

    def rule(self) -> RuleSpec:
        self.skip_seps()
        self.keyword("axiom")
        self.expect("COLON", "':'")
        axiom = int(self.expect("INT", "axiom label")[1])
        productions = []
        self.skip_seps()
        while self.peek()[0] != "EOF":
            productions.append(self.production())
            self.skip_seps()
        if not productions:
            self.fail("rule needs at least one production")
        return RuleSpec(axiom, tuple(productions))


def parse_rule(text: str) -> RuleSpec:
    return _Parser(text).rule()


# --- evaluation -------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class LevelCensus:
    """label -> (plus count, minus count) for one level."""

    level: int
    counts: dict[int, tuple[int, int]]

    def net(self, label: int) -> int:
        p, m = self.counts.get(label, (0, 0))
        return p - m

    def net_total(self) -> int:
        return sum(p - m for p, m in self.counts.values())


def expand_census(rule: RuleSpec, levels: int) -> list[LevelCensus]:
    """Aggregate node counts per (level, label, sign) for levels 0..levels.

    Every node of a level is expanded at once with its count.  An atom adds
    count * multiplicity to every label of its child range, and stores that
    range as two edges in the target level's map for the child sign: +c at
    lo and -c at hi+1.  When a level becomes the source, a running sum over
    its edges gives its (label, sign) counts, so an atom costs O(1), not
    O(range length).  Labels come out in ascending order.

    NegativeLabel is raised at the first level holding a node whose atom
    yields a negative label or multiplicity (counting only productions that
    land within `levels`); within that level, the node named is the one
    with the smallest (label, sign), minus after plus.
    """
    # edges[level][sign]: label -> change of the count there, sign 0 plus, 1 minus
    edges: list[tuple[dict[int, int], dict[int, int]]] = [({}, {}) for _ in range(levels + 1)]
    edges[0][0].update({rule.axiom: 1, rule.axiom + 1: -1})
    out = []
    for level in range(levels + 1):
        plus, minus = map(_running_sum, edges[level])
        counts = {label: (plus.get(label, 0), minus.get(label, 0)) for label in sorted(plus.keys() | minus)}
        out.append(LevelCensus(level, counts))
        for label, pair in counts.items():
            for sign, count in enumerate(pair):
                if not count:
                    continue
                for prod in rule.productions:
                    target = level + prod.jump
                    if target > levels:
                        continue
                    for atom in prod.atoms:
                        mult = atom.multiplicity(label)
                        if mult == 0:
                            continue
                        children = atom.labels(label)
                        if children:
                            bucket = edges[target][sign ^ atom.marked]
                            add = count * mult
                            bucket[children.start] = bucket.get(children.start, 0) + add
                            bucket[children.stop] = bucket.get(children.stop, 0) - add
    return out


def _running_sum(edges: dict[int, int]) -> dict[int, int]:
    """label -> count from one level's range edges, in ascending label order."""
    counts: dict[int, int] = {}
    run = 0
    bounds = sorted(edges)
    for lo, hi in zip(bounds, bounds[1:]):
        run += edges[lo]
        if run:
            counts.update(dict.fromkeys(range(lo, hi), run))
    return counts


@dataclass(frozen=True, slots=True)
class CensusDiff:
    equal: bool
    level: int | None = None
    label: int | None = None
    left: tuple[int, int] | int | None = None
    right: tuple[int, int] | int | None = None

    def message(self) -> str:
        if self.equal:
            return "censuses equal"
        return (
            f"diverge at level {self.level} label {self.label}: "
            f"{self.left} != {self.right}"
        )


def census_equal(a: list[LevelCensus], b: list[LevelCensus], mode: str = "net") -> CensusDiff:
    """Compare two census runs; mode 'net' compares plus-minus, 'exact' both counts."""
    if mode not in ("net", "exact"):
        raise ValueError(f"mode must be 'net' or 'exact', got {mode!r}")
    if len(a) != len(b):
        raise ValueError("census lists must cover the same levels")
    for ca, cb in zip(a, b):
        labels = sorted(set(ca.counts) | set(cb.counts))
        for label in labels:
            if mode == "net":
                va, vb = ca.net(label), cb.net(label)
            else:
                va, vb = ca.counts.get(label, (0, 0)), cb.counts.get(label, (0, 0))
            if va != vb:
                return CensusDiff(False, ca.level, label, va, vb)
    return CensusDiff(True)
