"""Dense per-level word censuses, indexed by lexicographic rank.

The words with n ones and z zeros, in lexicographic order ('0' before
'1'), are ranked 0 .. C(n+z, z) - 1: the combinatorial number system
(Knuth, TAOCP 7.2.1.3).  A word's rank is a sum of binomials, one per
1: rank_prefix reads them from one table, _SKIPS, grown on demand to
the longest word ranked.  The other way, from ranks to words, needs no
table: itertools.combinations(range(n + z), z) yields the zero positions
of the class's words in lexicographic order, which is rank order, and
_words spells the ones a mask of ranks selects.  The census of level n
holds, for each zero count z in 0..n, two lists indexed by that rank: the
copies of each word (plus + minus) and its net (plus - minus).  That is
C(2n+1, n) cells per list, however many copies they count.

The words of class (n, z) that begin with a fixed prefix q fill one block
of ranks, from rank_prefix(q, n, z) on, in the order of their suffixes'
own ranks in class (n - |q|_1, z - |q|_0).  The sign of a concatenation
is the product of the signs, so q with (copies, net) (qc, qd) in front of
w with (wc, wd) gives q + w qc*wc copies and net qd*wd: putting q in front
of every word of a lower level is two block adds per zero count, one per
list.
"""

from __future__ import annotations

from collections.abc import ItemsView, Iterable, Iterator, Mapping
from itertools import combinations, compress, repeat
from math import comb
from operator import add, eq, mul

__all__ = ["WordCensus"]


# _SKIPS[left][zeros] = C(left - 1, zeros - 1), 0 for zeros = 0: with
# `left` letters and `zeros` zeros still to place, the number of words
# that place a 0 next, which a 1 there skips.  rank_prefix reads it; it is
# grown on demand by _skips.
_SKIPS: list[list[int]] = []


def _skips(left: int) -> list[list[int]]:
    """_SKIPS, grown to hold every row up to `left` letters."""
    for n in range(len(_SKIPS), left + 1):
        _SKIPS.append([0] + [comb(n - 1, z - 1) for z in range(1, n + 1)])
    return _SKIPS


def rank_prefix(prefix: str, ones: int, zeros: int) -> int:
    """The first rank, among the words with `ones` ones and `zeros` zeros,
    of those that begin with `prefix`; for a whole word, its own rank."""
    left = ones + zeros
    skips = _SKIPS if left < len(_SKIPS) else _skips(left)
    rank = 0
    for bit in prefix:
        if bit == "1":
            rank += skips[left][zeros]  # the words with a 0 here come first
        else:
            zeros -= 1
        left -= 1
    return rank


def _words(ones: int, zeros: int, selectors: Iterable[object]) -> Iterator[str]:
    """The words with `ones` ones and `zeros` zeros whose ranks `selectors`
    picks (a true item at index r picks rank r), in rank order, each
    spelled from its zero positions as combinations yields them."""
    length = ones + zeros
    for zero_pos in compress(combinations(range(length), zeros), selectors):
        bits = ["1"] * length
        for p in zero_pos:
            bits[p] = "0"
        yield "".join(bits)


def _signed(copies: int, net: int) -> tuple[int, int]:
    """The (plus, minus) copies of a cell with that many copies and that net."""
    return (copies + net) // 2, (copies - net) // 2


class WordCensus(Mapping):
    """The census of one level, word -> (plus copies, minus copies), as a
    read-only mapping over the words with at least one copy.

    It iterates in ascending string order by walking the word trie, and
    spells a word out only when it is read.  It holds two lists per zero
    count z, indexed by rank: the copies (plus + minus) and the net (plus
    - minus) of each word with `ones` ones and z zeros; a (plus, minus)
    cell is derived from the two when it is read.  build_census fills the
    lists; nothing changes them after.
    """

    __slots__ = ("ones", "_copies", "_net")

    def __init__(self, ones: int, copies: list[list[int]], net: list[list[int]]) -> None:
        self.ones = ones
        self._copies = copies
        self._net = net

    def __getitem__(self, word: str) -> tuple[int, int]:
        ones = self.ones
        if not isinstance(word, str) or word.count("1") != ones:
            raise KeyError(word)
        zeros = len(word) - ones
        if zeros > ones or word.count("0") != zeros:
            raise KeyError(word)
        rank = rank_prefix(word, ones, zeros)
        copies = self._copies[zeros][rank]
        if not copies:
            raise KeyError(word)
        return _signed(copies, self._net[zeros][rank])

    def _cells(self) -> Iterator[tuple[str, tuple[int, int]]]:
        """(word, cell) for every word with a copy, in ascending string order.

        The trie is walked depth first, 0 before 1, so the words of each
        zero count come in rank order: a counter per zero count gives the
        rank of each word met."""
        ones, copies, net = self.ones, self._copies, self._net
        ranks = [0] * (ones + 1)
        stack = [("", 0)]
        while stack:
            prefix, zeros = stack.pop()
            if len(prefix) - zeros == ones:  # only zeros may follow, shortest word first
                for z in range(zeros, ones + 1):
                    rank = ranks[z]
                    ranks[z] = rank + 1
                    c = copies[z][rank]
                    if c:
                        yield prefix + "0" * (z - zeros), _signed(c, net[z][rank])
                continue
            stack.append((prefix + "1", zeros))
            if zeros < ones:
                stack.append((prefix + "0", zeros + 1))

    def __iter__(self) -> Iterator[str]:
        return (word for word, _ in self._cells())

    def items(self) -> ItemsView:
        return _Items(self)

    def __len__(self) -> int:
        return sum(len(c) - c.count(0) for c in self._copies)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self._cells())!r})"

    def labels(self) -> dict[int, tuple[int, int]]:
        """(plus, minus) copies per label, the endpoint ordinate ones - z,
        in ascending label order, for every label with a copy."""
        ones, copies, net = self.ones, self._copies, self._net
        return {ones - z: _signed(sum(copies[z]), sum(net[z])) for z in range(ones, -1, -1) if any(copies[z])}

    def survivors(self) -> tuple[str, ...]:
        """The words with net (plus - minus) 1, by length and then
        lexicographically: by zero count, then by rank, each spelled by
        _words from the mask of net-1 cells."""
        ones = self.ones
        return tuple(word for z, net in enumerate(self._net) for word in _words(ones, z, map(eq, net, repeat(1))))

    def off_net(self) -> tuple[str, int] | None:
        """(word, net) of the smallest word in string order whose net lies
        outside {0, 1}, over every zero count; None when there is none.
        A zero count whose nets all lie in {0, 1} spells no word."""
        ones = self.ones
        bad = []
        for z, net in enumerate(self._net):
            if not set(net) <= {0, 1}:
                off = [d not in (0, 1) for d in net]
                bad += zip(_words(ones, z, off), compress(net, off))
        return min(bad) if bad else None


class _Items(ItemsView):
    __slots__ = ()

    def __iter__(self) -> Iterator[tuple[str, tuple[int, int]]]:
        return self._mapping._cells()


def _block_add(cells: list[int], start: int, src: list[int], times: int) -> None:
    """cells[start + r] += times * src[r] for every r, in one slice."""
    if times:
        end = start + len(src)
        cells[start:end] = map(add, cells[start:end], src if times == 1 else map(mul, src, repeat(times)))


def build_census(
    ones: int,
    copies: dict[str, list[int]],
    grown: Iterable[tuple[dict[str, list[int]], WordCensus]] = (),
) -> WordCensus:
    """The census of a level with `ones` ones: the walked `copies` (word ->
    [plus, minus] copies), and for each (returns, below) in `grown`, every
    word q of `returns`, in the same shape, put in front of every word w
    of `below`, the census of level ones - |q|_1.  Each walked word and
    each q is turned into (copies, net) = (plus + minus, plus - minus)
    once.  A q with (qc, qd) in front of a w with (wc, wd) gives q + w
    qc*wc copies and net qd*wd, since the sign of q + w is the product of
    their signs: one block add per list and zero count."""
    cells_copies = [[0] * comb(ones + z, z) for z in range(ones + 1)]
    cells_net = [[0] * comb(ones + z, z) for z in range(ones + 1)]
    for word, (p, m) in copies.items():
        zeros = len(word) - ones
        rank = rank_prefix(word, ones, zeros)
        cells_copies[zeros][rank] += p + m
        cells_net[zeros][rank] += p - m
    for returns, below in grown:
        for q, (qp, qm) in returns.items():
            qc, qd = qp + qm, qp - qm
            shift = len(q) - (ones - below.ones)  # the zeros of q
            for z, (wc, wd) in enumerate(zip(below._copies, below._net), shift):
                start = rank_prefix(q, ones, z)
                _block_add(cells_copies[z], start, wc, qc)
                _block_add(cells_net[z], start, wd, qd)
    return WordCensus(ones, cells_copies, cells_net)
