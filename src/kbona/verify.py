"""Verification suites: every formula is paired with an independently
computed value (a linear-time scan of the actual word, a crossing
classification, or a direct property execution).

Verdicts: Pass when a derived value matches its oracle, Fail when it does
not, and Discrepancy-Documented when only the as-printed variant of a
formula disagrees with the oracle. Documented discrepancies are
first-class outcomes, not failures.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Any

from . import counting, structure
from .counting import FormulaMode
from .palindromes import (
    CutSpec,
    classify_crossing,
    count_occurrences,
    distinct_factors,
    enumerate_maximal,
    is_palindrome,
)
from .words import (
    DomainError,
    GenMethod,
    LengthGuardError,
    Word,
    apply_morphism,
    classical_word,
    kbonacci_number,
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


@dataclass(frozen=True)
class CheckResult:
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


@dataclass
class Report:
    suite: str
    params: dict[str, Any]
    results: list[CheckResult] = field(default_factory=list)
    wall_time: float = 0.0

    def finish(self, started: float) -> "Report":
        self.results.sort(key=CheckResult.sort_key)
        self.wall_time = time.perf_counter() - started
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


def _check(
    results: list[CheckResult],
    check_id: str,
    subject: dict[str, Any],
    expected: Any,
    provenance: str,
    actual: Any,
) -> None:
    if expected == actual:
        verdict = PASS
    elif provenance == "AsStated":
        verdict = DISCREPANCY
    else:
        verdict = FAIL
    results.append(CheckResult(check_id, subject, expected, provenance, actual, verdict))


def default_n_max(k: int, limit: int = 1 << 16) -> int:
    """Largest n with |W_n| within the given digit budget."""
    n = 0
    while kbonacci_number(k, n + 1 + k) <= limit:
        n += 1
    return n


def verify_counts(k: int, n_max: int | None = None) -> Report:
    """P(n) recurrence vs a palindrome scan of the generated word, in
    both modes, for every n up to n_max; alpha and its closed form on
    k..2k-3 vs the scan difference P(n) - P(n-1) - ... - P(n-k)."""
    started = time.perf_counter()
    require_k(k, 3)
    if n_max is None:
        n_max = default_n_max(k)
    report = Report("counts", {"k": k, "n_max": n_max})
    scans: list[int] = []  # scans[i] = palindromic occurrences in W_i
    for n in range(n_max + 1):
        oracle = count_occurrences(word(k, n), 2)
        scans.append(oracle)
        _check(
            report.results,
            "p-total",
            {"k": k, "n": n, "mode": "derived"},
            counting.p_total(k, n, FormulaMode.DERIVED),
            "Derived",
            oracle,
        )
        _check(
            report.results,
            "p-total",
            {"k": k, "n": n, "mode": "as-stated"},
            counting.p_total(k, n, FormulaMode.AS_STATED),
            "AsStated",
            oracle,
        )
        if n >= k:
            derived = counting.alpha(k, n, FormulaMode.DERIVED)
            oracle_alpha = oracle - sum(scans[n - k : n])
            _check(
                report.results,
                "alpha",
                {"k": k, "n": n, "mode": "derived"},
                derived,
                "Derived",
                oracle_alpha,
            )
            _check(
                report.results,
                "alpha",
                {"k": k, "n": n, "mode": "as-stated"},
                counting.alpha(k, n, FormulaMode.AS_STATED),
                "AsStated",
                oracle_alpha,
            )
        if k <= n <= 2 * k - 3:
            # s_count vanishes here, so alpha is the bordering sum alone.
            _check(
                report.results,
                "alpha-closed",
                {"k": k, "n": n},
                counting.alpha_border_closed(k, n),
                "Derived",
                oracle_alpha,
            )
    return report.finish(started)


def decomposition_cuts(k: int, n: int) -> CutSpec:
    """Cut positions of the block decomposition
    W_n = W_{n-1} ... W_{n-k+1} (k ⊕ W_{n-k})."""
    positions = []
    total = 0
    for i in range(n - 1, n - k, -1):
        total += kbonacci_number(k, i + k)
        positions.append(total)
    return CutSpec(tuple(positions))


def verify_decomposition(k: int, n: int) -> Report:
    """Crossing classification over the block decomposition vs the
    contained/bordering/straddling count formulas."""
    started = time.perf_counter()
    require_k(k, 3)
    if n < k:
        raise DomainError(f"decomposition requires n >= k, got n={n}")
    report = Report("decomposition", {"k": k, "n": n})
    w = word(k, n)
    cuts = decomposition_cuts(k, n)
    observed = classify_crossing(w, cuts, 2)
    contained_formula = sum(
        counting.p_total(k, i, FormulaMode.DERIVED) for i in range(n - k, n)
    )
    _check(
        report.results,
        "contained",
        {"k": k, "n": n},
        contained_formula,
        "Derived",
        observed.contained,
    )
    # Non-final block b holds W_j with j = n-1-b; bordering type j counts.
    for b in range(k - 1):
        j = n - 1 - b
        _check(
            report.results,
            "bordering",
            {"k": k, "n": n, "j": j},
            counting.b_count(k, n, j),
            "Derived",
            observed.bordering.get(b, 0),
        )
    _check(
        report.results,
        "straddling",
        {"k": k, "n": n},
        counting.s_count(k, n),
        "Derived",
        observed.straddling,
    )
    _check(
        report.results,
        "partition-total",
        {"k": k, "n": n},
        observed.occurrences,
        "Oracle",
        observed.total,
    )
    return report.finish(started)


def _first_word_containing(k: int, target: Word, n_limit: int) -> int | None:
    for n in range(n_limit + 1):
        if word(k, n).contains(target):
            return n
    return None


def verify_structure(k: int, n: int) -> Report:
    """Catalog completeness and realizability on W_n: every maximal
    palindrome classifies into a family, the predicted straddling words
    occur at their cuts, the maximal bordering words occur at their
    centres, and every catalog element occurs by its predicted index.
    A catalog element whose predicted index exceeds n, the straddling
    range when n < 2k-1 and the bordering range when n < k are reported
    as Skipped rows."""
    started = time.perf_counter()
    require_k(k, 3)
    report = Report("structure", {"k": k, "n": n})
    w = word(k, n)

    distinct_maximal = {occ.extract(w) for occ in enumerate_maximal(w, 2)}
    for pal in sorted(distinct_maximal, key=lambda p: (len(p), p.digits)):
        classes = structure.classify_palindrome(k, pal)
        _check(
            report.results,
            "maximal-classifies",
            {"k": k, "n": n, "word": pal},
            True,
            "Derived",
            bool(classes),
        )

    if n < 2 * k - 1:
        report.results.append(
            CheckResult(
                "straddling-occurs",
                {"k": k, "n": n},
                f"n >= {2 * k - 1}",
                "Oracle",
                f"no n2 with {2 * k - 1} <= n2 <= n",
                SKIPPED,
            )
        )
    for n2 in range(2 * k - 1, min(n, 3 * k - 2) + 1):
        pairs = structure.maximal_straddling_words(k, n2)
        w2 = word(k, n2)
        cut = len(w2) - kbonacci_number(k, n2)  # final block is k ⊕ W_{n2-k}
        for pair in pairs:
            cat = pair.concatenation
            occurs = (
                is_palindrome(cat)
                and len(pair.left) <= cut
                and w2.factor(cut - len(pair.left) + 1, cut) == pair.left
                and w2.factor(cut + 1, cut + len(pair.right)) == pair.right
            )
            _check(
                report.results,
                "straddling-occurs",
                {"k": k, "n": n2, "word": cat},
                True,
                "Oracle",
                occurs,
            )

    if n < k:
        report.results.append(
            CheckResult(
                "bordering-occurs",
                {"k": k, "n": n},
                f"n >= {k}",
                "Oracle",
                f"no n2 with {k} <= n2 <= n",
                SKIPPED,
            )
        )
    # The maximal bordering palindrome of type j is centred on the last
    # digit of the prefix W_j of W_n2.
    for n2 in range(k, min(n, 2 * k - 3) + 1):
        w2 = word(k, n2)
        for j in range(n2 - k + 2, k):
            b = structure.maximal_bordering_word(k, n2, j)
            centre = kbonacci_number(k, j + k)
            half = (len(b) - 1) // 2
            occurs = (
                is_palindrome(b)
                and len(b) == counting.border_max_length(k, n2, j)
                and centre + half <= len(w2)
                and w2.factor(centre - half, centre + half) == b
            )
            _check(
                report.results,
                "bordering-occurs",
                {"k": k, "n": n2, "j": j},
                True,
                "Oracle",
                occurs,
            )

    # Realizability: a catalog element at shift i should first fit inside
    # W_{3k-2+k*i}; report (rather than assume) when the index differs.
    for family in structure.PalFamily:
        for element, cls in structure.catalog_elements(k, family, 1):
            predicted = 3 * k - 2 + k * cls.shift
            if n < predicted:
                report.results.append(
                    CheckResult(
                        "catalog-occurs",
                        {"k": k, "family": family.value, "class": cls.describe()},
                        predicted,
                        "Oracle",
                        f"n={n} below the predicted index",
                        SKIPPED,
                    )
                )
                continue
            if word(k, predicted).contains(element):
                actual: int | None = predicted
            else:
                actual = _first_word_containing(k, element, n)
            _check(
                report.results,
                "catalog-occurs",
                {"k": k, "family": family.value, "class": cls.describe()},
                predicted,
                "Oracle",
                actual,
            )
    return report.finish(started)


def verify_lemmas(k: int, n_max: int) -> Report:
    """The word-core property battery: morphism identities, suffix law,
    forbidden/required digit patterns, sizes, and palindromic prefixes."""
    started = time.perf_counter()
    require_k(k, 3)
    report = Report("lemmas", {"k": k, "n_max": n_max})
    results = report.results
    words = {n: word(k, n) for n in range(n_max + 1)}

    # Morphism/recurrence agreement and the fixed-point prefix chain.
    agree = all(
        words[n] == word(k, n, GenMethod.MORPHISM) for n in range(n_max + 1)
    )
    _check(results, "method-agreement", {"k": k, "n_max": n_max}, True, "Oracle", agree)
    chain = all(
        words[n].digits == words[n + 1].digits[: len(words[n])]
        for n in range(n_max)
    )
    _check(results, "prefix-chain", {"k": k, "n_max": n_max}, True, "Oracle", chain)

    sizes = all(
        len(words[n]) == kbonacci_number(k, n + k) for n in range(n_max + 1)
    )
    _check(results, "size-law", {"k": k, "n_max": n_max}, True, "Oracle", sizes)

    mod_ok = all(
        reduce_mod_k(k, words[n]) == classical_word(k, n)
        for n in range(n_max + 1)
    )
    _check(results, "mod-k-reduction", {"k": k, "n_max": n_max}, True, "Oracle", mod_ok)

    # phi_k(k ⊕ w) = k ⊕ phi_k(w) on small words.
    shift_comm = all(
        apply_morphism(k, shift_add(k, Word(ds)))
        == shift_add(k, apply_morphism(k, Word(ds)))
        for ds in itertools.product(range(2 * k + 2), repeat=2)
    )
    _check(results, "shift-commutation", {"k": k}, True, "Oracle", shift_comm)

    # phi_k^n(ki + j) = phi_k^n(j) ⊕ ki for small powers.
    power_comm = True
    for n in range(1, 7):
        for i in range(7):
            for j in range(7):
                lhs = Word((k * i + j,))
                rhs = Word((j,))
                for _ in range(n):
                    lhs = apply_morphism(k, lhs)
                    rhs = apply_morphism(k, rhs)
                if lhs != shift_add(k * i, rhs):
                    power_comm = False
    _check(results, "power-commutation", {"k": k}, True, "Oracle", power_comm)

    for n in range(1, n_max + 1):
        w = words[n]
        if len(w) >= 2:
            _check(
                results,
                "suffix-pair",
                {"k": k, "n": n},
                suffix_pair(k, n),
                "Derived",
                (w.digits[-2], w.digits[-1]),
            )
        _check(
            results,
            "last-digit",
            {"k": k, "n": n},
            True,
            "Oracle",
            max(w.digits) == n and w.digits.count(n) == 1 and w.digits[-1] == n,
        )
        no00 = all(
            not (a == 0 and b == 0) for a, b in zip(w.digits, w.digits[1:])
        )
        _check(results, "no-00", {"k": k, "n": n}, True, "Oracle", no00)
        adjacency = all(
            b % k == 0 or a < b for a, b in zip(w.digits, w.digits[1:])
        )
        _check(results, "adjacency", {"k": k, "n": n}, True, "Oracle", adjacency)

    # W_n n^{-1} is a palindrome on 2 <= n <= k-1.
    for n in range(2, min(k - 1, n_max) + 1):
        _check(
            results,
            "prefix-palindrome",
            {"k": k, "n": n},
            True,
            "Oracle",
            is_palindrome(words[n].drop_last()),
        )
    if k - 1 > n_max or n_max < 2:
        results.append(
            CheckResult(
                "prefix-palindrome",
                {"k": k, "n_max": n_max},
                "range",
                "Oracle",
                "degenerate",
                SKIPPED,
            )
        )

    # Palindromic prefixes of (i+1) W_{k+i} have max digit at most i+1.
    for i in range(k - 1):
        if k + i > n_max:
            results.append(
                CheckResult(
                    "palindromic-prefix-cap",
                    {"k": k, "i": i},
                    "range",
                    "Oracle",
                    "degenerate",
                    SKIPPED,
                )
            )
            continue
        v = Word((i + 1,)) + words[k + i]
        capped = True
        for length in range(1, len(v) + 1):
            prefix = v.factor(1, length)
            if is_palindrome(prefix) and max(prefix.digits) > i + 1:
                capped = False
        _check(results, "palindromic-prefix-cap", {"k": k, "i": i}, True, "Oracle", capped)
    return report.finish(started)


def verify_lengths(k: int, max_len: int = 1 << 23) -> Report:
    """Distinct palindrome lengths observed in W_{3k+2} vs the admissible
    length sets in both modes. max_len is the suite's digit budget: the
    default admits W_23 for k=7 (7.8 M digits), and a longer word raises
    LengthGuardError."""
    started = time.perf_counter()
    require_k(k, 3)
    report = Report("lengths", {"k": k, "n": 3 * k + 2})
    w = word(k, 3 * k + 2, max_len=max_len)
    observed = frozenset(len(p) for p in distinct_factors(w, 2))
    derived = structure.allowed_lengths(k, FormulaMode.DERIVED).lengths
    stated = structure.allowed_lengths(k, FormulaMode.AS_STATED).lengths
    _check(
        report.results,
        "allowed-lengths",
        {"k": k, "mode": "derived"},
        derived,
        "Derived",
        observed,
    )
    _check(
        report.results,
        "allowed-lengths",
        {"k": k, "mode": "as-stated"},
        stated,
        "AsStated",
        observed,
    )
    for extra in sorted(stated - observed):
        results = report.results
        results.append(
            CheckResult(
                "length-as-stated-only",
                {"k": k, "length": extra},
                "absent from scan",
                "AsStated",
                "printed set only",
                DISCREPANCY,
            )
        )
    return report.finish(started)


SUITES = {
    "counts": lambda k, n_max: verify_counts(k, n_max),
    "decomposition": lambda k, n_max: _decomposition_sweep(k, n_max),
    "structure": lambda k, n_max: verify_structure(
        k, n_max if n_max is not None else default_n_max(k)
    ),
    "lemmas": lambda k, n_max: verify_lemmas(
        k, n_max if n_max is not None else default_n_max(k)
    ),
    "lengths": lambda k, n_max: verify_lengths(k),
}


def _decomposition_sweep(k: int, n_max: int | None) -> Report:
    started = time.perf_counter()
    if n_max is None:
        n_max = default_n_max(k)
    report = Report("decomposition", {"k": k, "n_max": n_max})
    for n in range(k, n_max + 1):
        report.results.extend(verify_decomposition(k, n).results)
    if n_max < k:
        report.results.append(
            CheckResult(
                "decomposition",
                {"k": k, "n_max": n_max},
                "n_max >= k",
                "Oracle",
                "no n with k <= n <= n_max",
                SKIPPED,
            )
        )
    return report.finish(started)


def run_suites(k: int, n_max: int | None = None, suites: list[str] | None = None) -> list[Report]:
    """One report per named suite (all by default). A suite whose word is
    past its length guard reports a single Skipped row quoting the guard,
    and the other suites still run."""
    reports = []
    for name in suites or SUITES:
        started = time.perf_counter()
        try:
            reports.append(SUITES[name](k, n_max))
        except LengthGuardError as exc:
            report = Report(name, {"k": k, "n_max": n_max})
            report.results.append(
                CheckResult(name, {"k": k}, "within the length guard", "Oracle",
                            str(exc), SKIPPED)
            )
            reports.append(report.finish(started))
    return reports
