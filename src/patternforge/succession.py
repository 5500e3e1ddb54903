"""A tiny language for jumping, marked succession rules, and its evaluator.

Grammar (productions separated by ';' or newline):

    rule       := "axiom" ":" INT (sep production)+
    production := "jump" INT ":" atom ("," atom)*
    atom       := "(" expr ( ".." expr )? ")" ["~"] ["^" expr]

Tokens are read by one regular expression.  INT is a run of ASCII digits
0-9; a name is ASCII letters, digits and '_', not starting with a digit;
spaces, tabs and carriage returns between tokens are skipped.  Any other
character, an integer too long for int(), or a token out of place raises
RuleParseError with the line and column of the token at fault.

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

import re
from typing import NamedTuple

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
        self.message = message
        self.line = line
        self.col = col

    def __reduce__(self):
        return type(self), (self.message, self.line, self.col)


class NegativeLabel(Exception):
    pass


class Affine(NamedTuple):
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


class Atom(NamedTuple):
    lo: Affine
    hi: Affine | None = None  # None: single label
    marked: bool = False
    mult: Affine = Affine(0, 1)

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


class Production(NamedTuple):
    jump: int
    atoms: tuple[Atom, ...]


class RuleSpec(NamedTuple):
    axiom: int
    productions: tuple[Production, ...]


# --- parser -----------------------------------------------------------------

_TOKEN = re.compile(
    r"(?P<SEP>[;\n])|(?P<DOTS>\.\.)|(?P<COLON>:)|(?P<COMMA>,)|(?P<LPAR>\()|(?P<RPAR>\))"
    r"|(?P<TILDE>~)|(?P<CARET>\^)|(?P<PLUS>\+)|(?P<MINUS>-)|(?P<STAR>\*)"
    r"|(?P<INT>[0-9]+)|(?P<NAME>[A-Za-z_][A-Za-z0-9_]*)|(?P<SPACE>[ \t\r]+)|(?P<BAD>.)"
)


def _tokenize(text: str) -> list[tuple[str, str, int, int]]:
    toks = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind, val, col = m.lastgroup, m.group(), m.start() - line_start + 1
        if kind == "BAD":
            raise RuleParseError(f"unexpected character {val!r}", line, col)
        if kind != "SPACE":
            toks.append((kind, val, line, col))
        if val == "\n":
            line, line_start = line + 1, m.end()
    toks.append(("EOF", "", line, len(text) - line_start + 1))
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

    def take(self, kind: str) -> bool:
        """Consume the next token if it is of this kind."""
        if self.peek()[0] != kind:
            return False
        self.pos += 1
        return True

    def fail(self, message: str, tok: tuple[str, str, int, int] | None = None) -> None:
        _, _, line, col = tok or self.peek()
        raise RuleParseError(message, line, col)

    def expect(self, kind: str, what: str) -> tuple[str, str, int, int]:
        if self.peek()[0] != kind:
            self.fail(f"expected {what}")
        return self.next()

    def integer(self, what: str) -> int:
        tok = self.expect("INT", what)
        try:
            return int(tok[1])
        except ValueError:  # longer than sys.get_int_max_str_digits()
            raise RuleParseError(f"integer of {len(tok[1])} digits is too long", tok[2], tok[3]) from None

    def skip_seps(self) -> None:
        while self.take("SEP"):
            pass

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
            sign = 1 if self.next()[0] == "PLUS" else -1
            rhs = self.term()
            value = Affine(value.coeff + sign * rhs.coeff, value.const + sign * rhs.const)
        return value

    def term(self) -> Affine:
        value = self.factor()
        while self.take("STAR"):
            at = self.peek()
            rhs = self.factor()
            if value.coeff and rhs.coeff:
                self.fail("expression is not affine in k", at)
            if rhs.coeff:
                value, rhs = rhs, value
            value = Affine(value.coeff * rhs.const, value.const * rhs.const)
        return value

    def factor(self) -> Affine:
        if self.take("MINUS"):
            inner = self.factor()
            return Affine(-inner.coeff, -inner.const)
        kind, val, _, _ = self.peek()
        if kind == "INT":
            return Affine(0, self.integer("integer"))
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
        hi = self.expr() if self.take("DOTS") else None
        self.expect("RPAR", "')'")
        marked = self.take("TILDE")
        mult = self.expr() if self.take("CARET") else Affine(0, 1)
        return Atom(lo, hi, marked, mult)

    def production(self) -> Production:
        self.keyword("jump")
        at = self.peek()
        jump = self.integer("jump distance")
        if jump < 1:
            self.fail("jump must be >= 1", at)
        self.expect("COLON", "':'")
        atoms = [self.atom()]
        while self.take("COMMA"):
            atoms.append(self.atom())
        return Production(jump, tuple(atoms))

    def rule(self) -> RuleSpec:
        self.skip_seps()
        self.keyword("axiom")
        self.expect("COLON", "':'")
        axiom = self.integer("axiom label")
        productions = []
        while self.peek()[0] != "EOF":
            self.expect("SEP", "';' or newline")
            self.skip_seps()
            if self.peek()[0] != "EOF":
                productions.append(self.production())
        if not productions:
            self.fail("rule needs at least one production")
        return RuleSpec(axiom, tuple(productions))


def parse_rule(text: str) -> RuleSpec:
    """The RuleSpec that text spells in the grammar of the module
    docstring.  Raises RuleParseError, with the line and column of the
    token at fault, on text the grammar does not accept."""
    return _Parser(text).rule()


# --- evaluation -------------------------------------------------------------


class LevelCensus(NamedTuple):
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
    if levels < 0:
        raise ValueError("levels must be >= 0")
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


class CensusDiff(NamedTuple):
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
