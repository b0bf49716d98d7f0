"""Verification suites: every formula is paired with an independently
computed value (a linear-time scan of the actual word, a crossing
classification, or a direct property execution). The scan of a
generated word is built from the block plan it was joined from, and is
the radius profile of the actual word because the word's digits are
that plan's join. Whether the plan is W_n is answered apart from any
scan: the lemma battery's `method-agreement` row compares each W_n it
reads with phi_k^n(0), and the tests compare the plan's leaf joins with the
morphism, each plan build with Manacher's scan of a copy with no plan,
and the text of long words with pinned digests.

Each suite builds at most one word. W^(k) is the fixed point of phi_k,
so every W_n with n <= n_max is the prefix of |W_n| digits of
W_{n_max}: the counts, decomposition and lemma suites build W_{n_max}
once and read each W_n as that prefix, its profile as the clamp of
W_{n_max}'s one profile (`palindromes._classify_prefix`); the structure
suite reads each W_n2 as a prefix of its W_n. The lengths suite builds
no word: it reads the profile of W_{3k+2} from its block plan.

Every row of a report is written by one of two Report methods, which
also keep the suite's clock. Report.check holds the verdict rule: Pass
when the expected value matches the observed one, Discrepancy-Documented
when only the as-printed variant of a formula disagrees with its oracle,
and Fail otherwise. Documented discrepancies are first-class outcomes,
not failures. Report.skip writes a Skipped row, which names what the
check needed and why it did not run.
"""

from __future__ import annotations

import itertools
import time
from bisect import bisect_left, bisect_right
from typing import Any, NamedTuple

from . import counting, structure
from .counting import FormulaMode
from .palindromes import (
    RadiusProfile,
    _build_profile,
    _classify_prefix,
    _length_set,
    count_prefix_occurrences,
    enumerate_maximal,
    is_palindrome,
    maximal_radii,
)
from .words import (
    DomainError,
    LengthGuardError,
    Word,
    _PlanDigits,
    _all_below,
    _check_request,
    _classical_chain,
    _plan,
    apply_morphism,
    kbonacci_number,
    kbonacci_sizes,
    reduce_mod_k,
    require_k,
    shift_add,
    suffix_pair,
    word,
)

PASS = "Pass"
FAIL = "Fail"
DISCREPANCY = "Discrepancy-Documented"
SKIPPED = "Skipped"

# The check id of the one row that stands for a suite that raised.
RAISED = "suite-raised"

# The two formula modes, each with the provenance its rows carry.
MODES = ((FormulaMode.DERIVED, "Derived"), (FormulaMode.AS_STATED, "AsStated"))


class CheckResult(NamedTuple):
    check_id: str
    subject: dict[str, Any]
    expected: Any
    provenance: str  # "AsStated" | "Derived" | "Oracle"
    actual: Any
    verdict: str

    def sort_key(self):
        return (
            self.check_id,
            tuple(sorted((k, repr(v)) for k, v in self.subject.items())),
            self.provenance,
        )


class Report:
    """A suite's rows, timed from when the report is built (or from
    `started`) to `finish`."""

    __slots__ = ("suite", "params", "results", "wall_time", "started")

    def __init__(self, suite: str, params: dict[str, Any], started: float | None = None):
        self.suite = suite
        self.params = params
        self.results: list[CheckResult] = []
        self.wall_time = 0.0
        self.started = time.perf_counter() if started is None else started

    def check(
        self, check_id: str, subject: dict[str, Any], expected: Any, provenance: str, actual: Any
    ) -> None:
        if expected == actual:
            verdict = PASS
        elif provenance == "AsStated":
            verdict = DISCREPANCY
        else:
            verdict = FAIL
        self.results.append(CheckResult(check_id, subject, expected, provenance, actual, verdict))

    def skip(self, check_id: str, subject: dict[str, Any], expected: Any, actual: Any) -> None:
        self.results.append(CheckResult(check_id, subject, expected, "Oracle", actual, SKIPPED))

    def finish(self) -> "Report":
        self.results.sort(key=CheckResult.sort_key)
        self.wall_time = time.perf_counter() - self.started
        return self

    @property
    def summary(self) -> dict[str, int]:
        out = {PASS: 0, FAIL: 0, DISCREPANCY: 0, SKIPPED: 0}
        for r in self.results:
            out[r.verdict] += 1
        return out

    @property
    def ok(self) -> bool:
        return self.summary[FAIL] == 0

    def strict_ok(self) -> bool:
        return self.ok and self.summary[DISCREPANCY] == 0

    @property
    def raised(self) -> bool:
        return any(r.check_id == RAISED for r in self.results)

    def to_dict(self) -> dict[str, Any]:
        def jsonable(v):
            if isinstance(v, Word):
                return list(v.digits)
            if isinstance(v, (set, frozenset)):
                return sorted(v)
            return v

        return {
            "suite": self.suite,
            "params": self.params,
            "results": [
                {
                    "check": r.check_id,
                    "subject": {k: jsonable(v) for k, v in r.subject.items()},
                    "expected": jsonable(r.expected),
                    "provenance": r.provenance,
                    "actual": jsonable(r.actual),
                    "verdict": r.verdict,
                }
                for r in self.results
            ],
            "summary": self.summary,
            "wall_time": self.wall_time,
        }


def default_n_max(k: int) -> int:
    """Largest n with |W_n| within the sweep budget of 2^16 digits, a
    budget for the per-n suites' run time, well inside the length
    guard."""
    return bisect_right(kbonacci_sizes(k), 1 << 16) - 1


def verify_counts(k: int, n_max: int) -> Report:
    """P(n) recurrence vs a palindrome scan of the generated word, in
    both modes, for every n up to n_max; alpha and its closed form on
    k..2k-3 vs the scan difference P(n) - P(n-1) - ... - P(n-k). The
    oracle is one plan build of W_{n_max}, of which every W_n is a
    prefix: the build keeps the total of each W_n's own profile, from
    which P(n) is arithmetic (`count_prefix_occurrences`). It is the
    profile of the actual word, whose digits are the plan's join (see
    the module docstring). Past the length guard, the LengthGuardError
    names W_{n_max}."""
    report = Report("counts", {"k": k, "n_max": n_max})
    series = {mode: counting.p_series(k, n_max, mode) for mode, _ in MODES}
    w = word(k, n_max)
    # scans[n] = palindromic occurrences in W_n
    scans = [count_prefix_occurrences(w, size) for size in kbonacci_sizes(k)[: n_max + 1]]
    for n, oracle in enumerate(scans):
        oracle_alpha = oracle - sum(scans[n - k : n]) if n >= k else None
        for mode, provenance in MODES:
            subject = {"k": k, "n": n, "mode": mode.value}
            report.check("p-total", subject, series[mode][n], provenance, oracle)
            if n >= k:
                report.check("alpha", subject, counting.alpha(k, n, mode),
                             provenance, oracle_alpha)
        if k <= n <= 2 * k - 3:
            # s_count vanishes here, so alpha is the bordering sum alone.
            report.check("alpha-closed", {"k": k, "n": n},
                         counting.alpha_border_closed(k, n), "Derived", oracle_alpha)
    return report.finish()


def decomposition_cuts(k: int, n: int) -> tuple[int, ...]:
    """Cut after-positions of the block decomposition
    W_n = W_{n-1} ... W_{n-k+1} (k ⊕ W_{n-k}): the running sums of
    |W_{n-1}|, ..., |W_{n-k+1}|, for n >= k - 1."""
    return tuple(itertools.accumulate(reversed(kbonacci_sizes(k)[n - k + 1 : n])))


def verify_decomposition(k: int, n: int) -> Report:
    """Crossing classification over the block decomposition vs the
    contained/bordering/straddling count formulas."""
    require_k(k, 3)
    if n < k:
        raise DomainError(f"decomposition requires n >= k, got n={n}")
    report = Report("decomposition", {"k": k, "n": n})
    _decomposition_rows(report, k, n, maximal_radii(word(k, n)))
    return report.finish()


def _decomposition_rows(report: Report, k: int, n: int, profile: RadiusProfile) -> None:
    """The rows of W_n, read as the prefix of |W_n| digits of the word
    whose profile is `profile`: W_n itself, or a longer W_{n_max}."""
    observed = _classify_prefix(profile, kbonacci_sizes(k)[n], decomposition_cuts(k, n))
    subject = {"k": k, "n": n}
    contained_formula = sum(counting.p_series(k, n - 1, FormulaMode.DERIVED)[n - k :])
    report.check("contained", subject, contained_formula, "Derived", observed.contained)
    # Non-final block b holds W_j with j = n-1-b; bordering type j counts.
    for b in range(k - 1):
        j = n - 1 - b
        report.check("bordering", {"k": k, "n": n, "j": j}, counting.b_count(k, n, j),
                     "Derived", observed.bordering.get(b, 0))
    report.check("straddling", subject, counting.s_count(k, n), "Derived", observed.straddling)
    report.check("partition-total", subject, observed.occurrences, "Oracle", observed.total)


def _occurs_at(w: Word, element: Word, start: int, size: int) -> bool:
    """Whether element occurs at the 0-based start of the prefix of w of
    `size` digits: W_n2 is that prefix of W_n for every n2 <= n. w is a
    generated byte word, so an element with a digit past 255 (a tuple
    store) occurs nowhere in it."""
    ds = element.digits
    return start >= 0 and type(ds) is bytes and w.digits.startswith(ds, start, size)


def verify_structure(k: int, n: int) -> Report:
    """Catalog completeness and realizability on W_n: every maximal
    palindrome classifies into a family, the predicted straddling words
    occur at their cuts, the maximal bordering words occur at their
    centres, and every catalog element occurs by its predicted index.
    A catalog element whose predicted index exceeds n, the straddling
    range when n < 2k-1 and the bordering range when n < k are reported
    as Skipped rows."""
    require_k(k, 3)
    report = Report("structure", {"k": k, "n": n})
    w = word(k, n)
    sizes = kbonacci_sizes(k)

    for pal in enumerate_maximal(w):
        report.check("maximal-classifies", {"k": k, "n": n, "word": pal}, True, "Derived",
                     bool(structure.classify_palindrome(k, pal)))

    if n < 2 * k - 1:
        report.skip("straddling-occurs", {"k": k, "n": n}, f"n >= {2 * k - 1}",
                    f"no n2 with {2 * k - 1} <= n2 <= n")
    for n2 in range(2 * k - 1, min(n, 3 * k - 2) + 1):
        cut = sizes[n2] - sizes[n2 - k]  # final block is k ⊕ W_{n2-k}
        for pair in structure.maximal_straddling_words(k, n2):
            cat = pair.concatenation
            occurs = is_palindrome(cat) and _occurs_at(w, cat, cut - len(pair.left), sizes[n2])
            report.check("straddling-occurs", {"k": k, "n": n2, "word": cat}, True, "Oracle",
                         occurs)

    if n < k:
        report.skip("bordering-occurs", {"k": k, "n": n}, f"n >= {k}",
                    f"no n2 with {k} <= n2 <= n")
    # The maximal bordering palindrome of type j is the P2 template (n2, j),
    # centred on the last digit of the prefix W_j of W_n2.
    for b, cls in structure.catalog_elements(k, structure.PalFamily.P2, 0):
        n2, j = cls.n, cls.j
        if n2 > n:
            continue
        occurs = (
            is_palindrome(b)
            and len(b) == counting.border_max_length(k, n2, j)
            and _occurs_at(w, b, sizes[j] - 1 - (len(b) - 1) // 2, sizes[n2])
        )
        report.check("bordering-occurs", {"k": k, "n": n2, "j": j}, True, "Oracle", occurs)

    # Realizability: the row checks that a catalog element at shift i
    # occurs by W_{3k-2+k*i}; the predicted index bounds from above the
    # first word that holds it.
    for family in structure.PalFamily:
        for element, cls in structure.catalog_elements(k, family, 1):
            predicted = 3 * k - 2 + k * cls.shift
            subject = {"k": k, "family": family.value, "class": cls.describe()}
            if n < predicted:
                report.skip("catalog-occurs", subject, predicted,
                            f"n={n} below the predicted index")
                continue
            # Each W_f with f <= n is a prefix of w, so the element occurs
            # in W_f iff its first occurrence in w ends within |W_f|; the
            # row reads the least such f at or past the predicted index. An
            # element with a digit past 255 is absent from the byte word.
            ds = element.digits
            pos = w.digits.find(ds) if type(ds) is bytes else -1
            actual = None if pos < 0 else bisect_left(sizes, pos + len(ds), predicted)
            report.check("catalog-occurs", subject, predicted, "Oracle", actual)
    return report.finish()


def _orbit(k: int, w: Word, count: int) -> list[Word]:
    """w, phi_k(w), ..., phi_k^count(w)."""
    out = [w]
    for _ in range(count):
        out.append(apply_morphism(k, out[-1]))
    return out


def _first_descent(ds: bytes, k: int) -> int:
    """The least i >= 1 at which ds[i] is not a multiple of k and
    ds[i-1] >= ds[i], or len(ds) when there is none, for digits below
    128. One big-int pass: the byte lane j of (x | H) - y - L, with x and
    y the digits ds[j+1] and ds[j] and H and L 0x80 and 1 in each lane, is
    127 + x - y, which stays within 0..254, so no lane borrows from the
    next, and has its top bit set iff x > y. A mask keeps the top bits of
    the lanes whose second digit is not a multiple of k."""
    h = int.from_bytes(b"\x80" * (len(ds) - 1), "little")
    x = int.from_bytes(ds[1:], "little")
    y = int.from_bytes(ds[:-1], "little")
    tops = bytes(0x80 if d % k else 0 for d in range(256))
    bad = int.from_bytes(ds[1:].translate(tops), "little") & ~((x | h) - y - (h >> 7))
    return (bad & -bad).bit_length() // 8 if bad else len(ds)


def verify_lemmas(k: int, n_max: int) -> Report:
    """The word-core property battery: morphism identities, suffix law,
    forbidden/required digit patterns, sizes, and palindromic prefixes.
    Each law is checked once on each word it applies to. Every W_n with
    n <= n_max is the prefix of |W_n| digits of one generated W_{n_max},
    and the per-n rows read those prefixes: each digit-pattern law finds
    the first pair of W_{n_max} that breaks it, and the palindromic-prefix
    cap reads its one profile. The morphism route is one chain
    phi_k^n(0), n <= n_max, held against the prefixes; the prefix-chain
    and size laws are checked on that chain, where they do not hold by
    construction, and mod-k reduction reads one psi_k chain F_0 ..
    F_{n_max}. A generated word's digits are bytes, at most n_max (see
    the words module)."""
    require_k(k, 3)
    report = Report("lemmas", {"k": k, "n_max": n_max})
    w = word(k, n_max)
    ds = w.digits
    sizes = kbonacci_sizes(k)[: n_max + 1]
    chain = _orbit(k, Word((0,)), n_max)
    sweep = {"k": k, "n_max": n_max}

    report.check("method-agreement", sweep, True, "Oracle",
                 all(len(p) == size and ds.startswith(p.digits) for p, size in zip(chain, sizes)))
    report.check("prefix-chain", sweep, True, "Oracle",
                 all(b.digits.startswith(a.digits) for a, b in itertools.pairwise(chain)))
    report.check("size-law", sweep, True, "Oracle",
                 all(len(p) == kbonacci_number(k, n + k) for n, p in enumerate(chain)))
    reduced = reduce_mod_k(k, w).digits
    report.check("mod-k-reduction", sweep, True, "Oracle",
                 all(len(f) == size and reduced.startswith(f.digits)
                     for f, size in zip(_classical_chain(k, n_max), sizes)))

    # phi_k(k ⊕ w) = k ⊕ phi_k(w), once on a word that holds every
    # two-digit word over 0..2k+1.
    pairs = Word(itertools.chain.from_iterable(itertools.product(range(2 * k + 2), repeat=2)))
    report.check("shift-commutation", {"k": k}, True, "Oracle",
                 apply_morphism(k, shift_add(k, pairs)) == shift_add(k, apply_morphism(k, pairs)))

    # phi_k^n(ki + j) = phi_k^n(j) ⊕ ki for 1 <= n <= 6 and i, j < 7: one
    # chain of six powers of 0 1 ... 6, and one of each shift ki of it.
    base = Word(range(7))
    powers = _orbit(k, base, 6)[1:]
    power_comm = all(
        _orbit(k, shift_add(k * i, base), 6)[1:] == [shift_add(k * i, p) for p in powers]
        for i in range(7)
    )
    report.check("power-commutation", {"k": k}, True, "Oracle", power_comm)

    # The pair of digits at i, i + 1 lies in W_n iff i + 1 < |W_n|. No-00:
    # no 0 follows a 0. Adjacency: a digit that is not a multiple of k
    # follows a smaller one; `descent` is the second digit of the first
    # pair that breaks it.
    zeros = ds.find(bytes(2))
    descent = _first_descent(ds, k)
    for n, size in enumerate(sizes[1:], 1):
        subject = {"k": k, "n": n}
        report.check("suffix-pair", subject, suffix_pair(k, n), "Derived",
                     (ds[size - 2], ds[size - 1]))
        report.check("last-digit", subject, True, "Oracle",
                     _all_below(ds[:size], n + 1) and ds.find(n, 0, size) == size - 1)
        report.check("no-00", subject, True, "Oracle", not 0 <= zeros < size - 1)
        report.check("adjacency", subject, True, "Oracle", descent >= size)

    # W_n n^{-1} is a palindrome on 2 <= n <= k-1.
    for n in range(2, min(k - 1, n_max) + 1):
        report.check("prefix-palindrome", {"k": k, "n": n}, True, "Oracle",
                     is_palindrome(Word._unchecked(ds[: sizes[n] - 1])))
    if k - 1 > n_max or n_max < 2:
        report.skip("prefix-palindrome", sweep, "range", "degenerate")

    # Palindromic prefixes of (i+1) W_{k+i} have max digit at most i+1.
    # The prefix (i+1) W[:j+1] of (i+1) W is a palindrome iff W[j] = i+1
    # and u = W[:j] is one, a palindromic prefix of W_{n_max}: the maximal
    # palindrome at u's centre, j - 1, has length j, at most the longest.
    # u is never empty, as W starts with 0, and the digit i+1 alone is
    # capped, so the cap reads max(u) <= i+1.
    palindromic = []
    if n_max >= k:
        profile = maximal_radii(w)
        palindromic = [j for j, m in enumerate(profile.lengths[: profile.longest], 1) if m == j]
    for i in range(k - 1):
        if k + i > n_max:
            report.skip("palindromic-prefix-cap", {"k": k, "i": i}, "range", "degenerate")
            continue
        capped = all(_all_below(ds[:j], i + 2) for j in palindromic
                     if j < sizes[k + i] and ds[j] == i + 1)
        report.check("palindromic-prefix-cap", {"k": k, "i": i}, True, "Oracle", capped)
    return report.finish()


def verify_lengths(k: int) -> Report:
    """Distinct palindrome lengths observed in W_{3k+2} vs the admissible
    length sets in both modes. W_{3k+2} is not built: its profile is
    built from its block plan, reading through `words._PlanDigits` only
    the digits the build compares, and the lengths come from the
    longest palindrome at a digit centre and at a gap centre
    (`palindromes._length_set`). The suite still holds W_{3k+2} to the
    length guard of `word`, so that its output does not change: the
    default admits W_26 for k=8 (64.5 M digits), and a longer word
    raises LengthGuardError."""
    require_k(k, 3)
    n = 3 * k + 2
    report = Report("lengths", {"k": k, "n": n})
    _check_request(k, n)
    observed = _length_set(_build_profile(_PlanDigits(k, n), _plan(k, n)).lengths)
    allowed = {mode: structure.allowed_lengths(k, mode).lengths for mode, _ in MODES}
    for mode, provenance in MODES:
        report.check("allowed-lengths", {"k": k, "mode": mode.value}, allowed[mode], provenance,
                     observed)
    for extra in sorted(allowed[FormulaMode.AS_STATED] - observed):
        report.check("length-as-stated-only", {"k": k, "length": extra}, "absent from scan",
                     "AsStated", "printed set only")
    return report.finish()


# Each entry takes (k, n_max) and looks its suite up by name when it is
# called, so a wrapper put on this module's functions from outside (the
# benchmark's tracer) sees every suite that run_suites runs.
SUITES = {
    "counts": lambda k, n_max: verify_counts(k, n_max),
    "decomposition": lambda k, n_max: _decomposition_sweep(k, n_max),
    "structure": lambda k, n_max: verify_structure(k, n_max),
    "lemmas": lambda k, n_max: verify_lemmas(k, n_max),
    "lengths": lambda k, n_max: verify_lengths(k),
}


def _decomposition_sweep(k: int, n_max: int) -> Report:
    """`verify_decomposition` for every n from k to n_max, from one
    profile: every W_n is the prefix of |W_n| digits of W_{n_max}, and
    `_classify_prefix` reads its clamped profile and its kept total."""
    report = Report("decomposition", {"k": k, "n_max": n_max})
    if n_max < k:
        report.skip("decomposition", {"k": k, "n_max": n_max}, "n_max >= k",
                    "no n with k <= n <= n_max")
        return report.finish()
    profile = maximal_radii(word(k, n_max))
    for n in range(k, n_max + 1):
        _decomposition_rows(report, k, n, profile)
    return report.finish()


def run_suites(k: int, n_max: int | None = None, suites: list[str] | None = None) -> list[Report]:
    """One report per named suite (all by default), each run up to n_max,
    or default_n_max(k) when it is None. A suite whose word is past the
    length guard reports a single Skipped row quoting the guard; a suite
    that raises any other exception reports a single Fail row, RAISED,
    naming it. Either way the other suites still run, and the suite's
    time counts from before it was called."""
    require_k(k, 3)
    # A bad KBONA_MAX_LEN is the caller's error, not one suite's: refuse
    # it here, before any suite runs.
    _check_request(k, 0)
    n = default_n_max(k) if n_max is None else n_max
    reports = []
    for name in suites or SUITES:
        started = time.perf_counter()
        try:
            reports.append(SUITES[name](k, n))
        except Exception as exc:
            report = Report(name, {"k": k, "n_max": n}, started=started)
            if isinstance(exc, LengthGuardError):
                report.skip(name, {"k": k}, "within the length guard", str(exc))
            else:
                report.check(RAISED, {"k": k}, "no exception", "Oracle",
                             f"{type(exc).__name__}: {exc}")
            reports.append(report.finish())
    return reports
