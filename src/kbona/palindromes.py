"""Alphabet-agnostic palindrome machinery.

Everything here works over arbitrary nonnegative-integer digits.

- `maximal_radii` gives the maximal palindrome length at each of the
  2|w| - 1 centres. Manacher's scan, `_whole_scan`, runs over every
  centre of the word's base in linear time, over a byte or a tuple store
  alike. The profile carries its longest length and the total, the sum
  of the lengths, of each prefix its plan passes, the whole word
  included, kept as it is built. It is computed once per word and kept
  on it (`Word._radii`), read-only, so every caller shares one build.
- A generated word carries its block plan (`Word._plan`): each level
  appends to the word before it blocks that are prefixes of that word,
  some shifted, as `words._block_levels` gives them. Only `word`
  attaches a plan, to the digits it joined from it, so the plan is
  trusted and never compared with the digits; a word with no plan is
  scanned whole, as a plan with no levels whose base is the whole word.
  A one-to-one relabelling keeps every palindrome, so a block's centre
  holds its source's palindrome unless that palindrome reaches an edge
  of the source. One walker,
  `_patched_levels`, runs once per word: per level it gives the blocks
  and the patched centres, those centres with the gap at each cut and
  the word's own palindromic suffixes, each with its palindrome before
  and after it is extended inside the level. It reads the palindromic
  prefixes and suffixes from centre lengths, so it reads digits only to
  extend. The profile's lengths, a `ResolvedLengths`, keep the base's
  scan, the walker's levels and the latest length of each patched
  centre, and no entry per centre: one resolver copies a run of centres
  block by block from its source's, and a centre is a run of one. A
  level's total is its blocks' totals plus what the patches add. One
  builder, `_build_profile`, makes the profile from a digit source and
  a plan, slicing only the base: `maximal_radii` passes a word's digits
  and plan, and the lengths suite passes `words._PlanDigits`, which
  reads by rule the digits of a W_n that is never built.
- `_length_set` gives the lengths of a word's palindromes from its
  profile: a palindrome of length m at a centre holds one of length
  m - 2 there, so they are every length up to the longest at a digit
  centre and at a gap centre, both read from the base and the patches.
- `_maximal_ends` builds the set of maximal palindromes from what the
  profile keeps: the base's centres, each shifted block's copies of its
  source's palindromes that reach no edge, and the patched centres.
  `enumerate_maximal` returns it, and `distinct_factors` walks each of
  its palindromes down, since every palindrome lies centred in the
  maximal one at the centre of any of its occurrences. A word with no
  plan slices one palindrome at every centre.
- Every count, set and classification is of the palindromes of length
  at least 2, the paper's; `count_occurrences`, `classify_crossing` and
  `distinct_factors` take that floor as their last argument and refuse
  any other.
- `count_occurrences` counts from the profile by arithmetic: a centre of
  maximal length m holds m // 2 occurrences, (m - 1) / 2 at a digit,
  whose lengths are odd, and m / 2 at a gap, whose lengths are even, so
  they add up to half of the profile's total less one per digit. It
  counts the whole word as its own prefix, by `_classify_prefix` with
  no cuts, as `count_prefix_occurrences` counts a prefix, from the total
  the profile kept for it or from the clamped profile.
- `classify_crossing` buckets occurrences as contained / bordering /
  straddling relative to a block decomposition, given as a tuple of
  cut after-positions, per centre: an occurrence of length L at centre
  c crosses the cut after position p iff L >= |c - (2p - 1)| + 2. Only
  the centres within the profile's longest length - 2 of a cut can cross
  one, so it reads only those cut windows and buckets one at a time
  only the centres that cross the cut nearest them; the count from the
  total holds every other centre's occurrences as contained.
  `_classify_prefix` does this for any prefix of a word, from the
  clamped profile and the prefix's kept total, so the decomposition
  sweep classifies every W_n from one profile of W_{n_max}; the whole
  word and the two counters are its other callers.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right, insort
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, compress, count, islice
from operator import ge
from types import MappingProxyType
from typing import NamedTuple

from .words import _PIECE, DomainError, Word, _shift_table


class RadiusProfile(NamedTuple):
    """Maximal palindrome length for each of the 2|w| - 1 centers.

    Center index c (0-based) is the digit at position c/2 when c is even
    and the gap between positions (c-1)/2 and (c+1)/2 when c is odd, both
    in 0-based digit coordinates. `lengths` is a `ResolvedLengths`, which
    holds an entry for each centre of the word's base alone and resolves
    every other centre through the word's block plan. `longest` is its
    maximum (0 for the empty word), kept as the profile is built, so no
    caller needs a pass over the lengths for it.

    `totals` maps a prefix length l to the total of the prefix's own
    profile, the word's clamped, centre c < 2l - 1 holding
    min(m, 2l - 1 - c): for the base and every prefix that a level
    passes (each block's source and each level's end, so every W_i with
    i <= n of a generated W_n with n >= k). The whole word is one of
    them, so `totals[len(w)]` is the sum of the lengths. It is
    read-only, like the lengths.

    `maximal_radii` computes the profile once per word and keeps it on
    the word; it is read-only because every caller shares it.
    """

    lengths: ResolvedLengths
    longest: int
    totals: MappingProxyType


class ResolvedLengths(Sequence):
    """The maximal palindrome lengths of a word's centres, resolved
    through its block plan, read-only.

    It holds `_base`, the whole scan of the base's centres (for a word
    with no plan, the base is the whole word), `_levels`, the levels of
    `_patched_levels`, and `_patched`, each patched centre with its
    length after the last level that patched it. Every centre past the
    base is the gap before a block, which is patched, or a centre of a
    block, which holds its source's palindrome unless it is patched. So
    centre c resolves to its patched length, else its base length, else
    to centre c - 2 start of the block at `start` that holds it, a
    centre of a shorter prefix.

    `_resolve` is that rule, and every read goes through it: a single
    centre is a slice of one. A slice resolves a run of centres region
    by region (the base, or a block with the gap before it): the base's
    run is copied from `_base`, a block's run from the run of its source,
    and the patches in the run are written over it. A source run is
    copied from the slice itself when the slice holds it already, as it
    does for every whole block of a slice from 0, from `_base` when no
    patch lies below its end, and is resolved into place the same way
    otherwise. A slice of r centres is one `array("i")` of r entries,
    built by C-level copies and a Python step per region and per patch
    it meets. Iteration reads the word in slices of `_PIECE` centres, so
    a full read holds one piece at a time.
    """

    __slots__ = ("_base", "_levels", "_patched", "_firsts", "_keys", "_plain", "_centres",
                 "__weakref__")

    def __init__(self, base: array, levels: list[tuple], patched: dict, centres: int):
        self._base = base
        self._levels = levels
        self._patched = patched
        # The gap before each block, whose centres follow it, and the
        # patched centres, each list closed by the word's end.
        self._firsts = [2 * start - 1 for _, blocks, _, _ in levels for start, *_ in blocks]
        self._firsts.append(centres)
        self._keys = sorted(patched) + [centres]
        # The centres below this are in the base and below every patch.
        self._plain = min(len(base), self._keys[0])
        self._centres = centres

    def __len__(self) -> int:
        return self._centres

    def __iter__(self) -> Iterator[int]:
        return chain.from_iterable(
            self[lo : lo + _PIECE] for lo in range(0, self._centres, _PIECE))

    def __getitem__(self, index):
        if isinstance(index, slice):
            run = range(self._centres)[index]
            if not run:
                return array("i")
            lo, hi = min(run[0], run[-1]), max(run[0], run[-1]) + 1
            out = array("i", (0,)) * (hi - lo)
            self._resolve(out, 0, lo, hi)
            return out if run.step == 1 else out[run.start - lo :: run.step]
        c = range(self._centres)[index]
        return self[c : c + 1][0]

    def _resolve(self, out: array, at: int, lo: int, hi: int) -> None:
        """Write the lengths of the centres lo..hi-1 into out[at:], one
        region (the base, or a block with the gap before it) at a time,
        each region's patches written before the next region reads it."""
        base, firsts, keys, patched = self._base, self._firsts, self._keys, self._patched
        i = bisect_right(firsts, lo) - 1  # -1: lo is in the base
        j = bisect_left(keys, lo)
        c = lo
        while c < hi:
            if i < 0:
                end = min(hi, len(base))
                out[at + c - lo : at + end - lo] = base[c:end]
            else:
                first = firsts[i]
                end = min(hi, firsts[i + 1])
                # The block's n centres from a on map to its source's from src.
                a = max(c, first + 1)
                src, n, dst = a - first - 1, end - a, at + a - lo
                if src >= lo:  # out holds the source's run already
                    out[dst : dst + n] = out[at + src - lo : at + src - lo + n]
                elif src + n <= self._plain:
                    out[dst : dst + n] = base[src : src + n]
                else:
                    self._resolve(out, dst, src, src + n)
            while keys[j] < end:
                out[at + keys[j] - lo] = patched[keys[j]]
                j += 1
            c = end
            i += 1


def is_palindrome(w: Word) -> bool:
    return w.digits == w.digits[::-1]


def _whole_scan(ds: bytes | tuple[int, ...], lengths: array) -> list[int]:
    """Manacher's scan of every centre of ds into the first 2|ds| - 1
    entries of `lengths`, and its [longest, total]; linear time.

    (mid, right) is the palindrome scanned so far that reaches furthest
    right, ending at digit `right`. Centre c starts from the palindrome
    that takes no comparison, 1 at a digit and 0 at a gap, or, inside
    (mid, right), from min(mirror, 2*right - c + 1), where mirror is the
    length at 2*mid - c, which has c's parity: as long as the mirror's,
    cut off at `right`. When the mirror's palindrome ends inside
    (mid, right), its first comparison fails, and otherwise every
    comparison that succeeds moves `right` on, so the scan stays linear.
    """
    last = len(ds) - 1
    mid = right = -1
    longest = total = 0
    for c in range(2 * last + 1):
        m = 1 - c % 2
        if c <= 2 * right:
            m = min(lengths[2 * mid - c], 2 * right - c + 1)
        # The occurrence of length m at c spans digits a..b, 0-based.
        a = (c - m + 1) // 2
        b = a + m - 1
        while a > 0 and b < last and ds[a - 1] == ds[b + 1]:
            a -= 1
            b += 1
        m = lengths[c] = b - a + 1
        total += m
        if m > longest:
            longest = m
        if b > right:
            mid, right = c, b
    return [longest, total]


def maximal_radii(w: Word) -> RadiusProfile:
    """Maximal palindrome length at every centre; linear time in the
    base, digit-equality only (alphabet unbounded).

    A word that carries a block plan (`Word._plan`) is built from it by
    `_build_profile`, which trusts the plan as it is; any other word is
    scanned whole. The profile is kept on the word, and a later call
    returns it.
    """
    profile = getattr(w, "_radii", None)
    if profile is None:
        profile = _build_profile(w.digits, getattr(w, "_plan", (len(w.digits), ())))
        object.__setattr__(w, "_radii", profile)
    return profile


def _build_profile(ds, plan: tuple) -> RadiusProfile:
    """The radius profile of the digits ds, from their block plan (size,
    levels), reading ds by `len(ds)`, one slice `ds[:size]` and `ds[i]`
    only: a digit store with no levels is scanned whole, and
    `words._PlanDigits` reads a W_n that is never built.

    `_whole_scan`, Manacher's scan over every centre, scans only the
    base, the first `size` digits (W_{k-1} of a generated word), and the
    walker, `_patched_levels`, runs once over the plan's levels and hands
    over its levels and the latest length of each patched centre; the
    profile keeps both and resolves every other centre through them. A
    level's total is its blocks' totals, each its source's clamped and
    kept per prefix length, plus what the patches add.
    """
    size, levels = plan
    base = array("i", (0,)) * max(2 * size - 1, 0)
    longest, total = _whole_scan(ds[:size], base)
    walked, patched = _patched_levels(ds, levels, base, longest) if levels else ([], {})
    lengths = ResolvedLengths(base, walked, patched, max(2 * len(ds) - 1, 0))
    totals = {size: total}
    for _, blocks, end, patches in walked:
        for _, length, _ in blocks:
            if length not in totals:
                e = 2 * length - 1
                totals[length] = sum(map(min, lengths[:e], range(e, 0, -1)))
            total += totals[length]
        total += sum(m - held for _, held, m in patches)
        longest = max(longest, *(m for _, _, m in patches))
        totals[end] = total
    return RadiusProfile(lengths, longest, MappingProxyType(totals))


def _length_set(lengths: ResolvedLengths) -> frozenset[int]:
    """The lengths >= 2 of the palindromes of the word whose profile's
    lengths these are. A palindrome of length m at a centre holds one of
    length m - 2 there, so they are 3, 5, .. up to the longest at a
    digit centre and 2, 4, .. up to the longest at a gap centre. Both
    maxima are read from the base's lengths and the patched centres
    alone: every other centre copies the centre 2 start before it, for
    the block at `start` that holds it, so one of its own parity. A base
    length that a later patch replaced is no longer than the patch."""
    base, patched = lengths._base, lengths._patched
    odd, even = (
        max(chain(base[parity::2], (m for c, m in patched.items() if c % 2 == parity)),
            default=0)
        for parity in (0, 1))
    return frozenset(chain(range(3, odd + 1, 2), range(2, even + 1, 2)))


def _patched_levels(ds, levels: Iterable[tuple], base: array, longest: int) -> tuple:
    """The levels of ds's block plan, each as (size, blocks, end,
    patches), and the patched centres, each mapped to its length after
    the last level that patched it. `base` is the whole scan of the
    base's centres and `longest` its longest length. Each level is
    (size, blocks, end), with each block (start, length, shift), as
    `words._block_levels` gives it, and starts where the one before it
    ends.

    A level appends to the word U of its first `size` digits the blocks,
    each a prefix of U relabelled one to one. A block's centre holds its
    source's palindrome unless that palindrome reaches an edge of the
    source, so the patched centres, whose palindrome may differ from the
    copy, are the palindromic prefixes of U and each source's palindromic
    suffixes, in each block, U's own palindromic suffixes and the gap at
    each cut. `patches` holds each as (centre, before, after): the length
    of its palindrome before and after it is extended by digit compares
    inside the level, the only digits the walker reads.

    Both kinds of edge are read from centre lengths. A palindromic prefix
    of m digits is centre m - 1 reaching digit 0: within the base, a
    centre c of the base's scan with base[c] >= c + 1, and past it, a
    patch whose palindrome reached digit 0, c + 1 == m. The palindromic
    suffixes of a level's end are its patches that reach that end, and
    those of any other prefix P of U are the centres c of P whose length
    in U reaches P's end, read from one slice of U's own
    `ResolvedLengths`, built from the levels walked so far when such a
    length is first met: at the first level, for a generated plan.
    """
    walked, patched = [], {}
    prefixes = list(compress(count(1), map(ge, base, count(1))))
    suffixes = {}
    for size, blocks, end in levels:
        missing = {size, *(length for _, length, _ in blocks)}.difference(suffixes)
        if missing:
            lengths = ResolvedLengths(base, walked, patched, 2 * size - 1)
            for length in missing:
                e = 2 * length - 1
                window = lengths[e - min(length, longest) : e]
                suffixes[length] = list(compress(count(1), map(ge, reversed(window), count(1))))
        held = [(2 * size - 1 - m, m) for m in suffixes[size]]
        for start, length, _ in blocks:
            first, e = 2 * start, 2 * length - 1
            # A whole block that is a palindrome is a suffix, not a prefix.
            edges = [m - 1 for m in prefixes[: bisect_left(prefixes, length)]]
            edges += [e - m for m in suffixes[length]]
            held.append((first - 1, 0))
            held += [(first + c, min(c + 1, e - c)) for c in edges]
        patches = []
        for c, m in held:
            # The palindrome of length m at c spans digits a..b, 0-based.
            a = (c - m + 1) // 2
            b = a + m - 1
            while a > 0 and b < end - 1 and ds[a - 1] == ds[b + 1]:
                a -= 1
                b += 1
            patches.append((c, m, b - a + 1))
            # A later level's patch of a centre replaces an earlier one's.
            patched[c] = b - a + 1
            # Every palindromic prefix of U is held already; a longer one
            # is met once, at the first level whose word holds it.
            if not a and b >= size:
                insort(prefixes, b + 1)
        longest = max(longest, *(m for _, _, m in patches))
        suffixes[end] = [m for c, _, m in patches if c + m == 2 * end - 1]
        walked.append((size, blocks, end, patches))
    return walked, patched


def _require_floor(min_len: int) -> None:
    """Refuse a floor other than 2. `count_occurrences`,
    `classify_crossing` and `distinct_factors` count from length 2 only
    and keep `min_len` for the callers that pass that 2, as
    `perfbench/worker.py` does."""
    if min_len != 2:
        raise DomainError(f"palindromes are counted from length 2 only, got min_len={min_len}")


def count_occurrences(w: Word, min_len: int = 2) -> int:
    """Number of palindromic occurrences (start, length) of length at
    least 2, the only min_len: the whole word as its own prefix, by
    `_classify_prefix` with no cuts."""
    _require_floor(min_len)
    return _classify_prefix(maximal_radii(w), len(w), ()).occurrences


def count_prefix_occurrences(w: Word, size: int) -> int:
    """Number of palindromic occurrences of length at least 2 in the
    prefix of w of `size` digits, from w's profile by `_classify_prefix`
    with no cuts: the prefix's own profile is w's clamped, and its total
    is in `RadiusProfile.totals` for every prefix that a level of the
    plan passes, or else summed from the clamp."""
    if not 0 <= size <= len(w):
        raise DomainError(f"prefix size must be in 0..{len(w)}, got {size}")
    return _classify_prefix(maximal_radii(w), size, ()).occurrences


def enumerate_maximal(w: Word) -> set[Word]:
    """The distinct factors of length at least 2 that are the maximal
    palindrome at some centre: the keys of `_maximal_ends`, each built
    into a Word once."""
    ends = _maximal_ends(w.digits, maximal_radii(w).lengths)
    return {Word._unchecked(p) for p in ends if len(p) >= 2}


def distinct_factors(w: Word, min_len: int = 2) -> set[Word]:
    """The set of distinct palindromic factors of length at least 2, the
    only min_len.

    Every palindrome lies centred in the maximal palindrome at the centre
    of any of its occurrences, so each maximal one of `_maximal_ends` is
    walked down, a digit off each end at a time, to length 2 or to the
    first palindrome already held, whose centred factors are held with
    it.
    """
    _require_floor(min_len)
    found = set()
    for p in _maximal_ends(w.digits, maximal_radii(w).lengths):
        while len(p) >= 2 and p not in found:
            found.add(p)
            p = p[1:-1]
    return set(map(Word._unchecked, found))


def _maximal_ends(ds: bytes | tuple[int, ...], lengths: ResolvedLengths) -> dict:
    """Each maximal palindrome of ds, whose profile's lengths are
    `lengths`, mapped to the least end (0-based index of its last digit)
    of its occurrences as a centre's maximal palindrome that start past
    digit 0, or to |ds| when every such occurrence starts at digit 0.

    They are read from what the profile keeps: the base's centres at
    their final lengths, then per level of the block plan each
    shifted block's copies and the patched centres at their final
    lengths. A block of `length` digits at `start` relabels its source
    one to one, and a source centre that is no edge of the source holds
    a palindrome p that starts past 0 and ends at some e <= length - 2,
    so the block holds p shifted, ending at e + start; an unshifted
    block holds p itself, later than its source does, and adds nothing.
    Every other centre of a level is patched. A level's copies and
    patches all end at or past the last digit of the word before it,
    past every e the filter admits, so the filter reads the least ends
    of the word before the level alone.
    """
    marker = len(ds)
    ends = {}

    def add(spans: Iterable[tuple[int, int]]) -> None:
        for c, m in spans:
            a = (c + 1 - m) // 2
            p = ds[a : a + m]
            e = a + m - 1 if a else marker
            if ends.get(p, marker) >= e:
                ends[p] = e

    base = lengths[: len(lengths._base)]
    add(compress(enumerate(base), base))
    patched = lengths._patched
    for _, blocks, _, patches in lengths._levels:
        for start, length, shift in blocks:
            if shift:
                table = _shift_table(shift)
                copies = [(p.translate(table), e + start)
                          for p, e in ends.items() if e <= length - 2]
                for p, e in copies:
                    ends[p] = min(ends.get(p, e), e)
        add((c, patched[c]) for c, _, _ in patches if patched[c])
    return ends


class CrossingCounts:
    """Occurrence counts partitioned by cut-crossing behaviour.

    bordering is keyed by the index of the block containing the
    occurrence's start; straddling takes priority whenever the final cut
    is crossed. occurrences is the plain count of the same occurrences,
    from the profile's total apart from the bucket arithmetic, and
    `total` equals it only if the buckets of the centres near the cuts
    add up to m // 2 at each of those centres of length m, so it can be
    checked against it.
    """

    __slots__ = ("contained", "bordering", "straddling", "occurrences")

    def __init__(self, contained: int = 0, bordering: dict[int, int] | None = None,
                 straddling: int = 0, occurrences: int = 0):
        self.contained = contained
        self.bordering = {} if bordering is None else bordering
        self.straddling = straddling
        self.occurrences = occurrences

    @property
    def total(self) -> int:
        return self.contained + sum(self.bordering.values()) + self.straddling


def classify_crossing(w: Word, cuts: tuple[int, ...], min_len: int = 2) -> CrossingCounts:
    """Assign every palindromic occurrence of length at least 2, the only
    min_len, to exactly one bucket relative to the block decomposition.

    Each cut is an after-position p (1-based), strictly increasing with
    0 < p < |w|: the cut falls between positions p and p+1. Block b spans
    (cuts[b-1], cuts[b]], and the block after the last cut is the final
    block. No cuts at all leaves one block.

    The word is classified as its own whole prefix, by `_classify_prefix`.
    """
    _require_floor(min_len)
    prev = 0
    for p in cuts:
        if not prev < p < len(w):
            raise DomainError(f"cut positions {cuts} invalid for |w|={len(w)}")
        prev = p
    return _classify_prefix(maximal_radii(w), len(w), cuts)


def _classify_prefix(profile: RadiusProfile, size: int, cuts: tuple[int, ...]) -> CrossingCounts:
    """`classify_crossing` of the prefix of `size` digits of the word
    whose profile is `profile`, for valid cuts of the prefix.

    The prefix's own profile is the clamp: centre c < e = 2 size - 1
    holds min(m, e - c), which is m except at the centres within the
    word's longest length of e, the tail. The count of all occurrences
    is half the prefix's own total less one per digit, as in
    `count_occurrences`: the total is the prefix's in
    `RadiusProfile.totals`, or else the sum of its own lengths, the tail
    read as one slice. The cut after position p is centre g = 2p - 1, and an
    occurrence of length L at centre c crosses it iff
    L >= |c - g| + 2, so a centre crosses a cut iff its length, clamped
    where it reaches the tail, crosses the cut centre nearest it. Only
    the centres within reach = longest - 2 of a cut can, so only the
    window of each cut centre g is read: the centres within reach of g
    and nearer it than any other cut centre. A centre there that crosses
    g is taken out of the count and bucketed by `_bucket`; every other
    centre holds only contained occurrences, which stay in the count.
    """
    lengths = profile.lengths
    e = max(2 * size - 1, 0)
    head = max(e - profile.longest, 0)
    total = profile.totals.get(size)
    if total is None:
        total = sum(islice(lengths, head)) + sum(map(min, lengths[head:e], range(e - head, 0, -1)))
    # A centre of length m holds m // 2 occurrences: (m - 1) / 2 at each
    # of the `size` digits, whose lengths are odd, and m / 2 at a gap.
    occurrences = (total - size) // 2
    counts = CrossingCounts(contained=occurrences, occurrences=occurrences)
    reach = max(profile.longest - 2, 0)
    gs = [2 * p - 1 for p in cuts]
    lo = 0
    for g, after in zip(gs, gs[1:] + [2 * e]):
        # The centres within reach of g and no nearer the next cut centre.
        lo = max(g - reach, lo)
        hi = min(g + reach + 1, (g + after) // 2 + 1, e)
        window = lengths[lo:hi]
        if hi > head:
            window = list(map(min, window, range(e - lo, e - hi, -1)))
        # |c - g| + 2 at each c in the window.
        least = chain(range(g - lo + 2, 2, -1), range(2, hi - g + 2))
        for c in compress(count(lo), map(ge, window, least)):
            # A centre that crosses g has m >= |c - g| + 2 >= 2.
            m = window[c - lo]
            counts.contained -= m // 2
            _bucket(counts, cuts, c, m)
        lo = hi
    return counts


def _bucket(counts: CrossingCounts, cuts: tuple[int, ...], c: int, m: int) -> None:
    """Bucket the lengths m, m-2, ... >= 2 at centre c by the blocks
    of their first and last digits: contained when both are in one block,
    else straddling when the last is in the final block, else bordering,
    keyed by the first digit's block. Each step down moves the first
    digit right and the last one left, so a bucket holds for a run of
    lengths until one of them leaves its block, and a length held in one
    block leaves every shorter one at c there too."""
    final = len(cuts)
    length = m
    while length >= 2:
        first = (c - length + 1) // 2
        last = (c + length - 1) // 2
        run = length // 2
        bf = bisect_right(cuts, first)
        bl = bisect_right(cuts, last)
        if bf == bl:
            counts.contained += run
            return
        run = min(run, cuts[bf] - first, last - cuts[bl - 1] + 1)
        if bl == final:
            counts.straddling += run
        else:
            counts.bordering[bf] = counts.bordering.get(bf, 0) + run
        length -= 2 * run
