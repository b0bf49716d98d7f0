"""Alphabet-agnostic palindrome machinery.

Everything here works over arbitrary nonnegative-integer digits.

- `maximal_radii` is the one scan: the maximal palindrome length at each
  of the 2|w| - 1 centres. A centre can pass the trivial length (1 at a
  digit, 0 at a gap) only when its two nearest digits are equal; a
  C-level pass finds those centres, and only they are expanded in
  Python, with Manacher's mirror bound so the scan stays linear.
- `count_occurrences` reads that profile in one C-level pass, and
  `enumerate_maximal` slices the maximal palindrome of each centre that
  reaches min_len from the digit store into a set of distinct factors.
- `classify_crossing` buckets occurrences as contained / bordering /
  straddling relative to a block decomposition, given as a tuple of
  cut after-positions, per centre: an occurrence of length L at centre
  c crosses the cut after position p iff L >= |c - (2p - 1)| + 2. Only
  the centres within max(lengths) - 2 of a cut can cross one, so it
  walks only those cut windows and counts the centres between them as
  contained in bulk.
- `distinct_factors` builds an eertree (palindromic tree) kept in flat
  parallel lists, with dict edges keyed by digit.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import compress, count, islice, repeat
from operator import eq, floordiv, ge, sub

from .words import DomainError, Word


@dataclass(frozen=True)
class RadiusProfile:
    """Maximal palindrome length for each of the 2|w| - 1 centers.

    Center index c (0-based) is the digit at position c/2 when c is even
    and the gap between positions (c-1)/2 and (c+1)/2 when c is odd, both
    in 0-based digit coordinates. `lengths` is the scan's own 4-byte
    `array("i")`, which a length overflows only past 2^31 digits.
    """

    lengths: array


def is_palindrome(w: Word) -> bool:
    return w.digits == w.digits[::-1]


def _expand(ds: bytes | tuple[int, ...], lengths: array, centres) -> None:
    """Manacher's scan over the centres of one parity class whose two
    nearest digits are equal, given in increasing order; every other
    centre of that class keeps its trivial length in `lengths`.

    (mid, right) is the scanned palindrome that reaches furthest right,
    ending at digit `right`. A centre c inside it is as long as its
    mirror 2*mid - c when that mirror ends before `right`, and at least
    as long as reaches `right` otherwise, so every digit comparison that
    succeeds moves `right` on and the scan stays linear.
    """
    last = len(ds) - 1
    mid = right = -1
    for c in centres:
        if c <= 2 * right:
            m = lengths[2 * mid - c]
            bound = 2 * right - c + 1
            if m < bound:
                lengths[c] = m
                continue
            m = bound
        else:
            m = lengths[c] + 2  # the nearest digits are equal
        # The occurrence of length m at c spans digits a..b, 0-based.
        a = (c - m + 1) // 2
        b = a + m - 1
        while a > 0 and b < last and ds[a - 1] == ds[b + 1]:
            a -= 1
            b += 1
        lengths[c] = b - a + 1
        if b > right:
            mid, right = c, b


def maximal_radii(w: Word) -> RadiusProfile:
    """Maximal palindrome length at every centre; linear time,
    digit-equality only (alphabet unbounded).

    Each digit is a palindrome of length 1 and each gap one of length 0.
    A centre reaches beyond that only when its two nearest digits are
    equal; a C-level pass picks out those centres and only they are
    expanded, with Manacher's mirror bound.
    """
    ds = w.digits
    lengths = array("i", (1, 0)) * len(ds)
    del lengths[-1:]  # no gap after the last digit
    # Digit i (centre 2i) reaches length 3 iff ds[i-1] == ds[i+1]; the gap
    # after digit i (centre 2i+1) reaches length 2 iff ds[i] == ds[i+1].
    _expand(ds, lengths, compress(count(2, 2), map(eq, ds, islice(ds, 2, None))))
    _expand(ds, lengths, compress(count(1, 2), map(eq, ds, islice(ds, 1, None))))
    return RadiusProfile(lengths)


def _count(ms: Iterable[int], min_len: int) -> int:
    """Occurrences of length >= min_len at centres of maximal lengths ms,
    in one C-level pass: a centre of maximal length m >= min_len holds
    the lengths m, m-2, ... >= min_len, (m - min_len + 2) // 2 of them."""
    return sum(
        map(floordiv, map(sub, filter(min_len.__le__, ms), repeat(min_len - 2)), repeat(2))
    )


def _require_min_len(min_len: int) -> None:
    if min_len < 1:
        raise DomainError(f"min_len must be >= 1, got {min_len}")


def count_occurrences(w: Word, min_len: int) -> int:
    """Number of palindromic occurrences (start, length) of length at
    least min_len."""
    _require_min_len(min_len)
    return _count(maximal_radii(w).lengths, min_len)


def enumerate_maximal(w: Word, min_len: int) -> set[Word]:
    """The distinct factors that are the maximal palindrome at some
    centre and reach min_len. The maximal palindrome of length m at
    centre c spans the 0-based digits (c + 1 - m) / 2 .. (c - 1 + m) / 2;
    the slices are deduplicated before any Word is built."""
    _require_min_len(min_len)
    ds = w.digits
    slices = {
        ds[(c + 1 - m) // 2 : (c + 1 + m) // 2]
        for c, m in enumerate(maximal_radii(w).lengths) if m >= min_len
    }
    return set(map(Word._unchecked, slices))


def distinct_factors(w: Word, min_len: int) -> set[Word]:
    """The set of distinct palindromic factors of length >= min_len.

    An eertree (palindromic tree) held in parallel lists, one entry per
    node: `length`, suffix `link`, the 0-based `end` of one occurrence,
    and `edges`, a dict keyed by digit so the alphabet may be unbounded.
    Node 0 is the imaginary root of length -1, node 1 the empty
    palindrome; every other node is one distinct palindromic factor.
    """
    _require_min_len(min_len)
    ds = w.digits
    length, link, end, edges = [-1, 0], [0, 0], [-1, -1], [{}, {}]
    last = 1  # the longest palindromic suffix of the digits read so far
    for i, d in enumerate(ds):
        # Walk suffix links to the longest palindromic suffix x with d x d
        # a suffix too; the root of length -1 always qualifies.
        v = last
        while True:
            j = i - length[v] - 1
            if j >= 0 and ds[j] == d:
                break
            v = link[v]
        last = edges[v].get(d)
        if last is None:
            if v:
                # The new node's link: the same walk, from below x.
                u = link[v]
                while True:
                    j = i - length[u] - 1
                    if j >= 0 and ds[j] == d:
                        break
                    u = link[u]
                link.append(edges[u][d])
            else:
                link.append(1)  # a single digit links to the empty palindrome
            last = edges[v][d] = len(length)
            length.append(length[v] + 2)
            end.append(i)
            edges.append({})
    return {
        Word._unchecked(ds[e - m + 1 : e + 1])
        for m, e in zip(length, end) if m >= min_len
    }


@dataclass
class CrossingCounts:
    """Occurrence counts partitioned by cut-crossing behaviour.

    bordering is keyed by the index of the block containing the
    occurrence's start; straddling takes priority whenever the final cut
    is crossed. occurrences is the plain count of the same occurrences,
    summed per centre apart from the bucket arithmetic, so that `total`
    can be checked against it.
    """

    contained: int = 0
    bordering: dict[int, int] = field(default_factory=dict)
    straddling: int = 0
    occurrences: int = 0

    @property
    def total(self) -> int:
        return self.contained + sum(self.bordering.values()) + self.straddling


def classify_crossing(w: Word, cuts: tuple[int, ...], min_len: int) -> CrossingCounts:
    """Assign every palindromic occurrence of length >= min_len to exactly
    one bucket relative to the block decomposition.

    Each cut is an after-position p (1-based), strictly increasing with
    0 < p < |w|: the cut falls between positions p and p+1. Block b spans
    (cuts[b-1], cuts[b]], and the block after the last cut is the final
    block. No cuts at all leaves one block.

    The cut after position p is centre g = 2p - 1, and an occurrence of
    length L at centre c crosses it iff L >= |c - g| + 2. So a centre
    further than reach = max(lengths) - 2 from every cut holds only
    contained occurrences: those centres are counted in bulk, and only
    the centres in the merged windows [g - reach, g + reach] are bucketed
    one at a time, by `_bucket`.
    """
    _require_min_len(min_len)
    prev = 0
    for p in cuts:
        if not prev < p < len(w):
            raise DomainError(f"cut positions {cuts} invalid for |w|={len(w)}")
        prev = p
    lengths = maximal_radii(w).lengths
    counts = CrossingCounts(occurrences=_count(lengths, min_len))
    gaps = [2 * p - 1 for p in cuts]
    reach = max(max(lengths, default=0) - 2, 0)
    rest = iter(lengths)  # the centres from `done` on
    done = 0
    for g in gaps:
        lo = max(g - reach, done)
        hi = min(g + reach + 1, len(lengths))
        counts.contained += _count(islice(rest, lo - done), min_len)
        for c in compress(count(lo), map(ge, islice(rest, hi - lo), repeat(min_len))):
            _bucket(counts, gaps, c, lengths[c], min_len)
        done = hi
    counts.contained += _count(rest, min_len)
    return counts


def _bucket(counts: CrossingCounts, gaps: list[int], c: int, m: int, min_len: int) -> None:
    """Bucket the lengths m, m-2, ... >= min_len at centre c by walking
    the thresholds |c - g| + 2 of the cuts its longest occurrence reaches,
    in increasing order: a length crosses the cuts whose threshold it
    reaches, its bucket is set by the leftmost of them, or is straddling
    once the final cut is among them, and a length below every threshold
    is contained."""
    # prev is the shortest length at c not yet bucketed. Every length at
    # c, and every threshold, has the parity of m.
    prev = min_len + ((m - min_len) & 1)
    final = len(gaps) - 1
    leftmost = None
    lo = bisect_left(gaps, c - m + 2)
    hi = bisect_right(gaps, c + m - 2)
    for t, j in sorted((abs(c - gaps[j]) + 2, j) for j in range(lo, hi)):
        if t > prev:
            _add(counts, leftmost, (t - prev) // 2)
            prev = t
        if j == final:
            counts.straddling += (m - prev) // 2 + 1
            return
        leftmost = j if leftmost is None else min(leftmost, j)
    _add(counts, leftmost, (m - prev) // 2 + 1)


def _add(counts: CrossingCounts, block: int | None, n: int) -> None:
    if block is None:
        counts.contained += n
    else:
        counts.bordering[block] = counts.bordering.get(block, 0) + n
