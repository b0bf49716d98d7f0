"""Alphabet-agnostic palindrome machinery.

Everything here works over arbitrary nonnegative-integer digits: a
Manacher-style radius scan per center, occurrence counting and maximal
enumeration derived from it, an eertree (palindromic tree) with dict
edges for distinct-factor collection, and a cut classifier that buckets
occurrences as contained / bordering / straddling relative to a block
decomposition.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from .words import DomainError, Word


@dataclass(frozen=True, order=True)
class Occurrence:
    """A located palindromic occurrence; start is 1-based."""

    start: int
    length: int

    def __post_init__(self):
        if self.start < 1 or self.length < 1:
            raise DomainError(f"invalid occurrence ({self.start}, {self.length})")

    @property
    def end(self) -> int:
        """1-based inclusive end position."""
        return self.start + self.length - 1

    def extract(self, w: Word) -> Word:
        return w.factor(self.start, self.end)


@dataclass(frozen=True)
class RadiusProfile:
    """Maximal palindrome length for each of the 2|w| - 1 centers.

    Center index c (0-based) is the digit at position c/2 when c is even
    and the gap between positions (c-1)/2 and (c+1)/2 when c is odd, both
    in 0-based digit coordinates.
    """

    lengths: tuple[int, ...]


def is_palindrome(w: Word) -> bool:
    return w.digits == w.digits[::-1]


def maximal_radii(w: Word) -> RadiusProfile:
    """Manacher's algorithm over the augmented sequence with gap
    sentinels; linear time, digit-equality only (alphabet unbounded)."""
    n = len(w)
    if n == 0:
        return RadiusProfile(())
    # t[i] is None at separators; t has length 2n + 1.
    t: list[int | None] = [None] * (2 * n + 1)
    t[1::2] = list(w.digits)
    m = len(t)
    p = [0] * m
    center = right = 0
    for i in range(1, m - 1):
        if i < right:
            p[i] = min(right - i, p[2 * center - i])
        while (
            i - p[i] - 1 >= 0
            and i + p[i] + 1 < m
            and t[i - p[i] - 1] == t[i + p[i] + 1]
        ):
            p[i] += 1
        if i + p[i] > right:
            center, right = i, i + p[i]
    # p[i] equals the maximal palindrome length in the original word for
    # the center at augmented index i.
    return RadiusProfile(tuple(p[1 : m - 1]))


def _center_count(max_len: int, min_len: int) -> int:
    # Lengths available at a center run max_len, max_len - 2, ... down to
    # 1 or 2; count those >= min_len.
    if max_len < min_len:
        return 0
    lo = min_len if (min_len % 2) == (max_len % 2) else min_len + 1
    return (max_len - lo) // 2 + 1


def _require_min_len(min_len: int) -> None:
    if min_len < 1:
        raise DomainError(f"min_len must be >= 1, got {min_len}")


def count_occurrences(w: Word, min_len: int) -> int:
    """Number of palindromic occurrences (start, length) of length at
    least min_len."""
    _require_min_len(min_len)
    profile = maximal_radii(w)
    return sum(_center_count(m, min_len) for m in profile.lengths)


def enumerate_maximal(w: Word, min_len: int) -> list[Occurrence]:
    """One occurrence per center whose maximal palindrome reaches
    min_len, ordered by center."""
    _require_min_len(min_len)
    return [
        Occurrence((c + 1 - m) // 2 + 1, m)
        for c, m in enumerate(maximal_radii(w).lengths)
        if m >= min_len
    ]


class _EertreeNode:
    __slots__ = ("length", "link", "edges", "end")

    def __init__(self, length: int, link: int, end: int):
        self.length = length
        self.link = link
        self.edges: dict[int, int] = {}
        self.end = end  # 0-based index of the last digit of one occurrence


class Eertree:
    """Palindromic tree with per-node dict edges keyed by digit, so the
    alphabet may be unbounded. One node per distinct palindromic factor."""

    def __init__(self):
        # Node 0: imaginary root of length -1; node 1: empty-word root.
        self.nodes = [_EertreeNode(-1, 0, -1), _EertreeNode(0, 0, -1)]
        self.digits: list[int] = []
        self.last = 1

    def _extend_link(self, v: int) -> int:
        pos = len(self.digits) - 1
        while True:
            length = self.nodes[v].length
            if pos - length - 1 >= 0 and self.digits[pos - length - 1] == self.digits[pos]:
                return v
            v = self.nodes[v].link

    def add(self, digit: int) -> None:
        self.digits.append(digit)
        cur = self._extend_link(self.last)
        node = self.nodes[cur]
        nxt = node.edges.get(digit)
        if nxt is not None:
            self.last = nxt
            return
        new_len = node.length + 2
        if new_len == 1:
            link = 1
        else:
            link_par = self._extend_link(self.nodes[cur].link)
            link = self.nodes[link_par].edges[digit]
        self.nodes.append(_EertreeNode(new_len, link, len(self.digits) - 1))
        node.edges[digit] = len(self.nodes) - 1
        self.last = len(self.nodes) - 1

    def factors(self, min_len: int = 1) -> set[Word]:
        out = set()
        for node in self.nodes[2:]:
            if node.length >= min_len:
                out.add(Word(self.digits[node.end - node.length + 1 : node.end + 1]))
        return out


def distinct_factors(w: Word, min_len: int) -> set[Word]:
    """The set of distinct palindromic factors of length >= min_len."""
    _require_min_len(min_len)
    tree = Eertree()
    for d in w:
        tree.add(d)
    return tree.factors(min_len)


@dataclass(frozen=True)
class CutSpec:
    """Boundary positions partitioning a word into blocks.

    Each cut is an after-position value p (1-based): the cut falls between
    positions p and p+1. Block b spans (cuts[b-1], cuts[b]]; the block
    after the last cut is the designated final block.
    """

    cuts: tuple[int, ...]

    def validate(self, w: Word) -> None:
        if not self.cuts:
            return
        prev = 0
        for p in self.cuts:
            if not prev < p < len(w):
                raise DomainError(f"cut positions {self.cuts} invalid for |w|={len(w)}")
            prev = p


@dataclass
class CrossingCounts:
    """Occurrence counts partitioned by cut-crossing behaviour.

    bordering is keyed by the index of the block containing the
    occurrence's start; straddling takes priority whenever the final cut
    is crossed.
    """

    contained: int = 0
    bordering: dict[int, int] = field(default_factory=dict)
    straddling: int = 0

    @property
    def total(self) -> int:
        return self.contained + sum(self.bordering.values()) + self.straddling


def classify_crossing(w: Word, cuts: CutSpec, min_len: int) -> CrossingCounts:
    """Assign every palindromic occurrence of length >= min_len to exactly
    one bucket relative to the block decomposition."""
    _require_min_len(min_len)
    cuts.validate(w)
    counts = CrossingCounts()
    if not cuts.cuts:
        counts.contained = count_occurrences(w, min_len)
        return counts
    positions = cuts.cuts
    final_cut = positions[-1]
    bordering = counts.bordering
    for c, m in enumerate(maximal_radii(w).lengths):
        # The occurrences at centre c have lengths m, m-2, ... >= min_len;
        # start and end are 1-based and inclusive.
        for length in range(m, min_len - 1, -2):
            start = (c + 1 - length) // 2 + 1
            end = start + length - 1
            # The occurrence crosses cut p iff start <= p < end. Only the
            # first cut at or after start can be crossed, and its index b
            # is the index of the block holding start.
            b = bisect_left(positions, start)
            if start <= final_cut < end:
                counts.straddling += 1
            elif b < len(positions) and positions[b] < end:
                bordering[b] = bordering.get(b, 0) + 1
            else:
                counts.contained += 1
    return counts
