"""Alphabet-agnostic palindrome machinery.

Everything here works over arbitrary nonnegative-integer digits.

- `maximal_radii` gives the maximal palindrome length at each of the
  2|w| - 1 centres. Manacher's scan (`_expand`) is the one scan that
  compares digits: `_whole_scan` runs it over every centre of a word,
  in linear time, over a byte or a tuple store alike. The profile
  carries its longest length and its total, the sum of the lengths,
  which the scan keeps as it writes: from the 1 at each digit and what
  `_expand` adds to each length it rewrites. The profile is computed
  once per word and kept on it (`Word._radii`) as a read-only view, at
  8 bytes per digit for as long as the word lives, so every caller
  shares one scan.
- A generated word carries its block plan (`Word._plan`): each level
  appends to the word before it blocks that are prefixes of that word,
  some shifted. `_planned_pass` scans only the base whole and builds
  each level in place, in the one profile array, on four facts. A
  one-to-one relabelling of digits keeps every palindrome, so a shifted
  block whose source digits stay below 256 - shift has its source's
  palindromes. A prefix's profile is the clamp: centre c of the prefix
  of l digits holds min(m, 2l - 1 - c), m its length in the longer word,
  so only the centres within the longest length of the block's end
  differ from the source's. Only the centres at a block edge can
  change: a palindrome that reaches neither edge of its block has
  unequal digits either side, inside the block, so only the centres
  whose palindrome reaches an edge, and the gap at each cut, are
  expanded, by `_expand`. Totals add: a level's total is its blocks'
  totals plus what `_expand` adds, and the profile keeps the total of
  each prefix the build passes. Each block's digits are checked against
  its source first, by `_checked_levels`, once per word (`_plan_levels`
  keeps the result on it for `enumerate_maximal` and `distinct_factors`),
  and a word whose digits fail any check is scanned whole, so the
  profile is the whole scan's whatever the plan says.
- `count_occurrences` counts from the profile by arithmetic: a centre of
  maximal length m holds (m - min_len + 2) // 2 occurrences, and since
  the parity of m is fixed by the centre's, those terms add up to one
  sum over the lengths (`_span_count`), which is the profile's total;
  only a min_len above 2 reads the lengths, to put the negative terms
  back to zero. `count_prefix_occurrences` counts a prefix the same way,
  from the total the plan build kept for it or from the clamped profile.
- `enumerate_maximal` gives the distinct maximal palindromes, one per
  centre. A generated word counts them per prefix from its block plan:
  a block's centre holds its source centre's palindrome, shifted,
  unless that palindrome reaches an edge of the source, so only those
  centres and the gap at each cut are sliced from the digit store, and
  the rest of the source's count is copied and shifted. Any other word
  slices one at every centre.
- `classify_crossing` buckets occurrences as contained / bordering /
  straddling relative to a block decomposition, given as a tuple of
  cut after-positions, per centre: an occurrence of length L at centre
  c crosses the cut after position p iff L >= |c - (2p - 1)| + 2. Only
  the centres within the profile's longest length - 2 of a cut can cross
  one, so it reads only those cut windows: it takes their span count
  out of the count from the total, which leaves the contained
  occurrences of every other centre, and buckets them one at a time.
  `_classify_prefix` does this for any prefix of a word, from the
  clamped profile and the prefix's kept total, so the decomposition
  sweep classifies every W_n from one profile of W_{n_max}; the whole
  word and `count_prefix_occurrences` are its other callers.
- `distinct_factors` keeps each distinct palindrome with its first end
  in one dict, and builds it for a generated word from its block plan:
  the base's centres walked from its whole scan, each shifted block's
  copy of what its source holds, and the palindromes that cross a cut,
  each a palindromic suffix or prefix of a block next to the cut
  extended outward. No profile but the base's is read. A word with no
  plan, or whose digits fail a block's check, walks its whole profile,
  which costs the whole scan and a Python step per centre.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress, count, repeat
from operator import eq, floordiv, ge, sub
from types import MappingProxyType

from .words import DomainError, Word, _all_below, _shift_table


@dataclass(frozen=True)
class RadiusProfile:
    """Maximal palindrome length for each of the 2|w| - 1 centers.

    Center index c (0-based) is the digit at position c/2 when c is even
    and the gap between positions (c-1)/2 and (c+1)/2 when c is odd, both
    in 0-based digit coordinates. `lengths` is a read-only `memoryview`
    of the scan's own 4-byte `array("i")`, which a length overflows only
    past 2^31 digits. `longest` is its maximum and `total` its sum (both
    0 for the empty word), which the scan keeps as it writes, so no
    caller needs a pass over the lengths for either. A generated word's
    profile is built from its block plan, any other word's by
    Manacher's scan over every centre; both give the same lengths,
    longest and total.

    `totals` maps a prefix length l to the total of the prefix's own
    profile, the word's clamped, centre c < 2l - 1 holding
    min(m, 2l - 1 - c): for every prefix a plan build passes (the base,
    each block's source and each level's end, so every W_i with i <= n
    of a generated W_n with n >= k), and for the whole word alone when
    it was scanned whole. It is read-only, like the lengths.

    `maximal_radii` computes the profile once per word and keeps it on
    the word, at 8 bytes per digit for as long as the word lives; the
    view is read-only because every caller shares it.
    """

    lengths: memoryview
    longest: int
    total: int
    totals: MappingProxyType


def is_palindrome(w: Word) -> bool:
    return w.digits == w.digits[::-1]


def _expand(ds: bytes | tuple[int, ...], lengths: array, centres, tally: list[int]) -> None:
    """Manacher's scan over the given centres of ds, in increasing order:
    every centre of a word scanned whole (`_whole_scan`), or those at a
    block edge of a planned level. Every other centre already holds its
    maximal length in `lengths`, and a given one the length of a
    palindrome at it. Folds into `tally`, [longest, total], the longest
    length it expands to and what each length it rewrites adds to the
    total.

    (mid, right) is the scanned palindrome that reaches furthest right,
    ending at digit `right`. A centre c inside it holds the palindrome of
    length min(mirror, 2*right - c + 1), where mirror is the maximal
    length at 2*mid - c, which has c's parity: as long as the mirror's,
    cut off at `right`. The expansion starts from there. When the
    mirror's palindrome ends inside (mid, right), its first comparison
    fails, and otherwise every comparison that succeeds moves `right` on,
    so the scan stays linear.
    """
    last = len(ds) - 1
    mid = right = -1
    longest = grown = 0
    for c in centres:
        old = m = lengths[c]
        if c <= 2 * right:
            m = min(lengths[2 * mid - c], 2 * right - c + 1)
        # The occurrence of length m at c spans digits a..b, 0-based.
        a = (c - m + 1) // 2
        b = a + m - 1
        while a > 0 and b < last and ds[a - 1] == ds[b + 1]:
            a -= 1
            b += 1
        m = lengths[c] = b - a + 1
        grown += m - old
        if m > longest:
            longest = m
        if b > right:
            mid, right = c, b
    tally[0] = max(tally[0], longest)
    tally[1] += grown


def _whole_scan(ds: bytes | tuple[int, ...], lengths: array) -> list[int]:
    """Manacher's scan of every centre of ds into the first 2|ds| - 1
    entries of `lengths`, and its [longest, total]. Each entry is first
    set to the palindrome at its centre that takes no comparison, 1 at a
    digit and 0 at a gap."""
    n = len(ds)
    lengths[0 : 2 * n - 1 : 2] = array("i", (1,)) * n
    lengths[1 : 2 * n - 1 : 2] = array("i", (0,)) * (n - 1)
    tally = [0, n]
    _expand(ds, lengths, range(2 * n - 1), tally)
    return tally


def maximal_radii(w: Word) -> RadiusProfile:
    """Maximal palindrome length at every centre; linear time,
    digit-equality only (alphabet unbounded).

    A word that carries a block plan (`Word._plan`) is built level by
    level from it by `_planned_pass`; any other word, and one whose
    digits fail the plan's checks, is scanned whole by `_whole_scan`,
    Manacher's scan over every centre. Both give the same profile. The
    profile is kept on the word, and a later call returns it.
    """
    profile = getattr(w, "_radii", None)
    if profile is not None:
        return profile
    ds = w.digits
    lengths = array("i", (0,)) * max(2 * len(ds) - 1, 0)
    levels = _plan_levels(w)
    if levels is None:
        tally = _whole_scan(ds, lengths)
        totals = {len(ds): tally[1]}
    else:
        tally, totals = _planned_pass(ds, w._plan[0], levels, lengths)
    profile = RadiusProfile(memoryview(lengths).toreadonly(), *tally, MappingProxyType(totals))
    object.__setattr__(w, "_radii", profile)
    return profile


def _plan_levels(w: Word) -> list[tuple] | None:
    """The levels of w's block plan as `_checked_levels` returns them,
    or None when w has no plan or its digits fail a check. A plan is
    checked once per word: the result is kept on it (`Word._levels`)."""
    try:
        return w._levels
    except AttributeError:
        plan = getattr(w, "_plan", None)
        levels = None if plan is None else _checked_levels(w.digits, plan)
        object.__setattr__(w, "_levels", levels)
        return levels


def _planned_pass(ds: bytes, base: int, levels: list[tuple], lengths: array) -> tuple:
    """Write the profile of ds into `lengths` from its checked block
    plan and return its [longest, total] and its `totals`.

    `_whole_scan` scans the base, the first `base` digits. Each level
    appends to the word built so far the blocks of `levels`, and is
    built in place on the facts in the module docstring:
    each block's profile is copied from its source's, view to view, and
    clamped at its palindromic suffixes (`_suffix_centres`). The centres
    whose palindrome reaches a block edge, these and the palindromic
    prefixes, and the gap at each cut are expanded by `_expand`, bounded
    at the level's end. A level's total is its blocks' totals, kept per
    prefix length, plus what `_expand` adds.
    """
    tally = _whole_scan(ds[:base], lengths)
    out = memoryview(lengths)
    totals = {base: tally[1]}
    suffixes = {}
    for size, blocks, end in levels:
        longest = tally[0]
        # The centres of the word's palindromic prefixes: each one starts
        # every block at least as long as it.
        prefixes = tuple(compress(count(), map(eq, out[: min(longest, 2 * size - 1)], count(1))))
        # The word built so far: its palindromic suffixes may grow.
        marks = set(_suffix_centres(out, size, longest, suffixes))
        for start, length, _ in blocks:
            first, e = 2 * start, 2 * length - 1
            out[first : first + e] = out[:e]
            for c in _suffix_centres(out, length, longest, suffixes):
                out[first + c] = e - c
                marks.add(first + c)
            marks.update(first + c for c in prefixes if c < length)
            marks.add(first - 1)
            total = totals.get(length)
            if total is None:
                total = totals[length] = sum(out[first : first + e])
            tally[1] += total
        _expand(memoryview(ds)[:end], lengths, sorted(marks), tally)
        totals[end] = tally[1]
    return tally, totals


def _checked_levels(ds: bytes | tuple[int, ...], plan: tuple) -> list[tuple] | None:
    """The levels of the block plan (base, levels) of ds, each as
    (size, blocks, end): it appends to the first `size` digits the
    blocks (start, length, shift), each the prefix of that length
    shifted by that much, up to digit `end`. Or None when ds does not
    follow the plan: a store that is not bytes, a block that is not a
    prefix shifted one to one, below 256 - shift, as one `startswith`
    finds, or a plan that ends short of ds or past it."""
    base, levels = plan
    if type(ds) is not bytes:
        return None
    view = memoryview(ds)
    checked = []
    size = base
    for level in levels:
        blocks = []
        start = size
        for length, shift in level:
            if not 0 < length <= size:
                return None
            if shift:
                source = ds[:length]
                if not (_all_below(source, 256 - shift)
                        and ds.startswith(source.translate(_shift_table(shift)), start)):
                    return None
            elif not ds.startswith(view[:length], start):
                return None
            blocks.append((start, length, shift))
            start += length
        checked.append((size, blocks, start))
        size = start
    return checked if size == len(ds) else None


def _suffix_centres(out: memoryview, length: int, longest: int, cache: dict) -> tuple[int, ...]:
    """The centres of the palindromic suffixes of the prefix of `length`
    digits, read from `out`, the profile of a word of which it is a
    prefix and whose longest palindrome is `longest`: centre c of the
    prefix holds at most e - c, e = 2 * length - 1, and a palindrome
    that reaches its last digit holds at least that in the word. Only a
    centre within `longest` of e can; cached by length."""
    centres = cache.get(length)
    if centres is None:
        e = 2 * length - 1
        lo = max(e - longest, 0)
        centres = cache[length] = tuple(compress(count(lo), map(ge, out[lo:e], range(e - lo, 0, -1))))
    return centres


def _span_count(ms: memoryview | array | list[int], first: int, min_len: int, total: int) -> int:
    """Occurrences of length >= min_len at the centres first, first + 1,
    ... whose maximal lengths are ms, of sum total. A centre of maximal
    length m holds the lengths m, m-2, ... >= min_len,
    (m - min_len + 2) // 2 of them. A digit (even c) has odd lengths and
    a gap (odd c) even ones, so m - min_len is odd exactly at the centres
    c of min_len's parity, and the terms add up to one sum over ms. A
    term below zero, at m < min_len - 2, is put back to zero by a pass
    over ms, which only a min_len above 2 needs."""
    low = min_len - 2
    end = first + len(ms)
    # The c in [first, end) with c - min_len even.
    odd = (end - min_len + 1) // 2 - (first - min_len + 1) // 2
    total = (total - len(ms) * low - odd) // 2
    if low > 0:
        total += sum(map(floordiv, map(sub, repeat(low + 1), filter(low.__gt__, ms)), repeat(2)))
    return total


def _require_min_len(min_len: int) -> None:
    if min_len < 1:
        raise DomainError(f"min_len must be >= 1, got {min_len}")


def count_occurrences(w: Word, min_len: int) -> int:
    """Number of palindromic occurrences (start, length) of length at
    least min_len."""
    _require_min_len(min_len)
    profile = maximal_radii(w)
    return _span_count(profile.lengths, 0, min_len, profile.total)


def count_prefix_occurrences(w: Word, size: int) -> int:
    """Number of palindromic occurrences of length at least 2 in the
    prefix of w of `size` digits, from w's profile by `_classify_prefix`
    with no cuts: the prefix's own profile is w's clamped, and its total
    is in `RadiusProfile.totals` for every prefix that the plan build
    passes, or else summed from the clamp."""
    if not 0 <= size <= len(w):
        raise DomainError(f"prefix size must be in 0..{len(w)}, got {size}")
    return _classify_prefix(maximal_radii(w), size, (), 2).occurrences


def enumerate_maximal(w: Word, min_len: int) -> set[Word]:
    """The distinct factors that are the maximal palindrome at some
    centre and reach min_len. The maximal palindrome of length m at
    centre c spans the 0-based digits (c + 1 - m) / 2 .. (c - 1 + m) / 2.
    A generated word counts them from its block plan
    (`_planned_maximal`), slicing only the centres near the block edges;
    any other word, and one whose digits fail a block's check, slices
    one at every centre. The slices are deduplicated before any Word is
    built."""
    _require_min_len(min_len)
    ds = w.digits
    profile = maximal_radii(w)
    levels = _plan_levels(w)
    if levels is None:
        slices = {
            ds[(c + 1 - m) // 2 : (c + 1 + m) // 2]
            for c, m in enumerate(profile.lengths) if m >= min_len
        }
    else:
        held = _planned_maximal(ds, w._plan[0], levels, profile)
        slices = [p for p in held if len(p) >= min_len]
    return set(map(Word._unchecked, slices))


def _planned_maximal(ds: bytes, base: int, levels: list[tuple], profile: RadiusProfile) -> Counter:
    """How many centres of ds, with profile `profile`, hold each maximal
    palindrome, counted from the checked block plan.

    `held[l]` counts the palindromes at the centres of the prefix of l
    digits, each maximal in ds, so it may reach past the prefix. A level
    adds to the count of the word before it each block's centres and the
    gap at its cut. A block of `length` digits shifted by s relabels its
    source prefix one to one, so its centre c holds the source's
    palindrome at c shifted by s, unless that palindrome reaches an edge
    of the source: inside it, its next digits out are unequal, and they
    are in the block too. Those centres are the word's palindromic
    prefixes, c with m = c + 1, and the source's palindromic suffixes in
    the final profile (`_suffix_centres`). They are sliced from the block,
    and their source palindromes taken out of the copied count before the
    shift. A prefix that is no level end, such as one inside the base, is
    counted from the longest held prefix below it, slicing the centres
    between.
    """
    lengths, longest = profile.lengths, profile.longest

    def factor(c):
        m = lengths[c]
        return ds[(c + 1 - m) // 2 : (c + 1 + m) // 2]

    def held_at(size):
        found = held.get(size)
        if found is None:
            below = max(l for l in held if l < size)
            between = range(max(2 * below - 1, 0), 2 * size - 1)
            found = held[size] = held[below] + Counter(map(factor, between))
        return found

    held = {0: Counter()}
    prefixes = tuple(compress(count(), map(eq, lengths[:longest], count(1))))
    suffixes = {}
    for size, blocks, end in levels:
        level = held_at(size).copy()
        for start, length, shift in blocks:
            first, e = 2 * start, 2 * length - 1
            edges = {c for c in prefixes if c < e}
            edges.update(_suffix_centres(lengths, length, longest, suffixes))
            copied = held_at(length) - Counter(map(factor, edges))
            if shift:
                table = _shift_table(shift)
                copied = {p.translate(table): n for p, n in copied.items()}
            level.update(copied)
            level.update(factor(first + c) for c in edges)
            level[factor(first - 1)] += 1
        held[end] = level
    return held_at(len(ds))


def distinct_factors(w: Word, min_len: int) -> set[Word]:
    """The set of distinct palindromic factors of length >= min_len.

    A generated word builds them from its block plan by
    `_planned_factors`. Any other word, and one whose digits fail a
    block's check, walks its whole `maximal_radii` profile by
    `_add_centred`, which costs the whole scan and a Python step per
    centre: parsed W_17 for k=5 (103,519 digits) takes about 0.21 s on a
    2-vCPU Xeon VM, where the plan build of the generated word takes
    1.4 ms.
    """
    _require_min_len(min_len)
    ds = w.digits
    levels = _plan_levels(w)
    if levels is None:
        found = {}
        _add_centred(ds, maximal_radii(w).lengths, found)
    else:
        found = _planned_factors(ds, w._plan[0], levels)
    return {Word._unchecked(p) for p in found if len(p) >= min_len}


def _add_centred(ds: bytes | tuple[int, ...], lengths: memoryview | array, found: dict) -> None:
    """Add to `found` the palindromes, slices of ds, centred at each
    centre of `lengths`, the profile of ds, each with its first end, the
    0-based index of the last digit of its first occurrence: the maximal
    one of length m at c, then m - 2, ..., down to the first one `found`
    holds. The centres go in increasing order, and a palindrome's first
    end is its first centre's, so each end is the first. `found` holds
    every centred factor of each palindrome it holds, so the walk down
    may stop there."""
    for c, m in compress(enumerate(lengths), lengths):
        a = (c - m + 1) // 2
        b = a + m - 1
        while a <= b:
            p = ds[a : b + 1]
            if p in found:
                break
            found[p] = b
            a += 1
            b -= 1


def _planned_factors(ds: bytes, base: int, levels: list[tuple]) -> dict:
    """The palindromes of ds with their first ends, built from its
    checked block plan.

    The base's centres are walked by `_add_centred`, from `_whole_scan`
    of the base alone. Each level appends to the word built so far the
    blocks of `levels`. An unshifted block is a prefix of that word and
    adds nothing. A block of `length` digits at `start`
    shifted by s relabels its source one to one, so it holds p shifted
    by s, first ending at start + e, for every (p, e) with e < length;
    where `found` already holds it, the smaller end stays. Every other
    palindrome of the level crosses a cut between two blocks, the word
    built so far being the first: centred in a block, nearer its right
    edge or on the cut, it is a palindromic suffix of the block to the
    cut's left, the empty one included, extended outward; nearer its
    left edge, a palindromic prefix of the block to its right. Neither
    is longer than its block or the longest palindrome so far. Each is
    extended by digit compares inside the level, and every extension
    holds both digits at the cut.
    """
    head = ds[:base]
    lengths = array("i", (0,)) * max(2 * len(head) - 1, 0)
    longest = _whole_scan(head, lengths)[0]
    found = {}
    _add_centred(head, lengths, found)
    for _, blocks, end in levels:
        for start, length, shift in blocks:
            if shift:
                table = _shift_table(shift)
                copies = [(p.translate(table), e + start) for p, e in found.items() if e < length]
                for p, e in copies:
                    found[p] = min(found.get(p, e), e)
        edges = (0, *(start for start, _, _ in blocks), end)
        for left, cut, right in zip(edges, edges[1:], edges[2:]):
            # Only a palindrome whose next digits out are equal extends.
            spans = [(cut - m, cut - 1) for m in range(min(cut - left, longest) + 1)
                     if m < cut and ds[cut - m - 1] == ds[cut]]
            spans += [(cut, cut + m - 1) for m in range(1, min(right - cut, longest) + 1)
                      if cut + m < end and ds[cut + m] == ds[cut - 1]]
            for a, b in spans:
                p = ds[a : b + 1]
                if p != p[::-1]:
                    continue
                while a > 0 and b < end - 1 and ds[a - 1] == ds[b + 1]:
                    a -= 1
                    b += 1
                    p = ds[a : b + 1]
                    found[p] = min(found.get(p, b), b)
                longest = max(longest, b - a + 1)
    return found


@dataclass
class CrossingCounts:
    """Occurrence counts partitioned by cut-crossing behaviour.

    bordering is keyed by the index of the block containing the
    occurrence's start; straddling takes priority whenever the final cut
    is crossed. occurrences is the plain count of the same occurrences,
    from the profile's total apart from the bucket arithmetic, and
    `total` equals it only if the buckets of the centres near the cuts
    add up to those centres' span count, so it can be checked against it.
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

    The word is classified as its own whole prefix, by `_classify_prefix`.
    """
    _require_min_len(min_len)
    prev = 0
    for p in cuts:
        if not prev < p < len(w):
            raise DomainError(f"cut positions {cuts} invalid for |w|={len(w)}")
        prev = p
    return _classify_prefix(maximal_radii(w), len(w), cuts, min_len)


def _classify_prefix(profile: RadiusProfile, size: int, cuts: tuple[int, ...],
                     min_len: int) -> CrossingCounts:
    """`classify_crossing` of the prefix of `size` digits of the word
    whose profile is `profile`, for valid cuts of the prefix.

    The prefix's own profile is the clamp: centre c < e = 2 size - 1
    holds min(m, e - c), which is m except at the centres within the
    word's longest length of e, the tail. The count of all occurrences
    is the span count of the rest, from the prefix's total in
    `RadiusProfile.totals` (or summed when it is not kept) less the
    tail's, plus the tail's. The cut after position p is centre
    g = 2p - 1, and an occurrence of length L at centre c crosses it iff
    L >= |c - g| + 2. So a centre further than reach = longest - 2 from
    every cut holds only contained occurrences. The centres in the merged
    windows [g - reach, g + reach] are taken out of the count, each
    window by one span count of its lengths, clamped where it reaches
    the tail, and bucketed one at a time by `_bucket`, so only the
    windows and the tail are read.
    """
    lengths = profile.lengths
    e = max(2 * size - 1, 0)
    head = max(e - profile.longest, 0)
    tail = array("i", map(min, lengths[head:e], range(e - head, 0, -1)))
    tail_total = sum(tail)
    total = profile.totals.get(size)
    head_total = sum(lengths[:head]) if total is None else total - tail_total
    occurrences = (_span_count(lengths[:head], 0, min_len, head_total)
                   + _span_count(tail, head, min_len, tail_total))
    counts = CrossingCounts(contained=occurrences, occurrences=occurrences)
    reach = max(profile.longest - 2, 0)
    done = 0
    for p in cuts:
        lo = max(2 * p - 1 - reach, done)
        done = min(2 * p + reach, e)
        window = lengths[lo:done]
        if done > head:
            window = list(map(min, window, range(e - lo, e - done, -1)))
        counts.contained -= _span_count(window, lo, min_len, sum(window))
        for c in compress(count(lo), map(ge, window, repeat(min_len))):
            _bucket(counts, cuts, c, window[c - lo], min_len)
    return counts


def _bucket(counts: CrossingCounts, cuts: tuple[int, ...], c: int, m: int, min_len: int) -> None:
    """Bucket the lengths m, m-2, ... >= min_len at centre c by the blocks
    of their first and last digits: contained when both are in one block,
    else straddling when the last is in the final block, else bordering,
    keyed by the first digit's block. Each step down moves the first
    digit right and the last one left, so a bucket holds for a run of
    lengths until one of them leaves its block, and a length held in one
    block leaves every shorter one at c there too."""
    final = len(cuts)
    length = m
    while length >= min_len:
        first = (c - length + 1) // 2
        last = (c + length - 1) // 2
        run = (length - min_len) // 2 + 1
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
