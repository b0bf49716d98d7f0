"""Verification suites: verdicts, determinism, and the documented
discrepancies with the printed formulas."""

import ast
import itertools
import pathlib
import tracemalloc

import pytest
from hypothesis import example, given, strategies as st

from kbona import counting, palindromes, structure, verify
from kbona.palindromes import count_occurrences
from kbona.words import (
    DEFAULT_MAX_LEN,
    DomainError,
    LengthGuardError,
    Word,
    kbonacci_number,
    shift_add,
    word,
)


def verdicts(report, check_id=None):
    return [
        r.verdict for r in report.results if check_id is None or r.check_id == check_id
    ]


def test_verify_counts_k3_all_pass():
    report = verify.verify_counts(3, 8)
    assert report.ok and report.strict_ok()
    derived = [
        r for r in report.results
        if r.check_id == "p-total" and r.subject["mode"] == "derived"
    ]
    assert [r.actual for r in sorted(derived, key=lambda r: r.subject["n"])] == [
        0, 0, 1, 3, 4, 9, 19, 38, 66,
    ]


def test_verify_counts_k4_documents_discrepancy():
    report = verify.verify_counts(4, 10)
    assert report.ok
    assert not report.strict_ok()
    flagged = [
        r for r in report.results
        if r.check_id == "alpha" and r.verdict == verify.DISCREPANCY
    ]
    assert [(r.subject["n"], r.expected, r.actual) for r in flagged] == [(4, 12, 8)]
    closed = [r for r in report.results if r.check_id == "alpha-closed"]
    assert [(r.subject["n"], r.expected, r.actual) for r in closed] == [
        (4, 8, 8), (5, 4, 4),
    ]
    # Derived checks never fail
    assert all(
        r.verdict == verify.PASS
        for r in report.results
        if r.provenance == "Derived"
    )


def test_verify_counts_rejects_small_k():
    with pytest.raises(DomainError):
        verify.verify_counts(2, 5)


def test_verify_decomposition_examples():
    report = verify.verify_decomposition(4, 4)
    by_id = {
        (r.check_id, r.subject.get("j")): (r.expected, r.actual) for r in report.results
    }
    assert by_id[("bordering", 3)] == (6, 6)
    assert by_id[("bordering", 2)] == (2, 2)
    assert by_id[("bordering", 1)] == (0, 0)
    assert by_id[("straddling", None)] == (0, 0)
    assert by_id[("contained", None)] == (6, 6)
    assert report.ok

    report = verify.verify_decomposition(4, 9)
    straddling = [r for r in report.results if r.check_id == "straddling"]
    assert straddling[0].actual == 7 and straddling[0].verdict == verify.PASS

    report = verify.verify_decomposition(3, 4)  # n = 2k-2: only contained
    for r in report.results:
        if r.check_id in ("bordering", "straddling"):
            assert r.actual == 0 and r.verdict == verify.PASS


@pytest.mark.parametrize("k,n_max", [(3, 10), (4, 10), (5, 9)])
def test_decomposition_sweep(k, n_max):
    report = verify._decomposition_sweep(k, n_max)
    assert report.ok and report.strict_ok()
    # No row is AsStated, so none can be a documented discrepancy: a strict
    # mode would decide nothing here.
    assert {r.provenance for r in report.results} <= {"Derived", "Oracle"}
    assert {r.provenance for r in verify.verify_decomposition(k, n_max).results} <= {
        "Derived", "Oracle"}


def test_empty_decomposition_sweep_is_skipped():
    report = verify._decomposition_sweep(4, 2)
    assert report.summary == {
        verify.PASS: 0, verify.FAIL: 0, verify.DISCREPANCY: 0, verify.SKIPPED: 1,
    }
    assert report.results[0].subject == {"k": 4, "n_max": 2}


def _calls(monkeypatch, name, *modules):
    """Record the arguments of each call of <name>, bound in each of the
    modules, the first of which defines it."""
    calls = []
    original = getattr(modules[0], name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


def test_decomposition_sweep_scans_each_word_once(monkeypatch):
    # The sweep builds W_10 alone and one profile of it, whose plan build
    # walks the plan once and scans only W_0, one digit, whole; each W_n
    # is its prefix.
    words = _calls(monkeypatch, "word", verify)
    builds = _calls(monkeypatch, "_patched_levels", palindromes)
    scans = _calls(monkeypatch, "_whole_scan", palindromes)
    report = verify._decomposition_sweep(4, 10)
    assert report.ok
    assert words == [(4, 10)]
    assert [len(args[0]) for args in builds] == [kbonacci_number(4, 14)]
    assert [(len(args[1]) + 1) // 2 for args in scans] == [1]
    partition = [r for r in report.results if r.check_id == "partition-total"]
    assert len(partition) == 7 and all(r.verdict == verify.PASS for r in partition)


@pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8])
def test_decomposition_sweep_rows_equal_each_word_classified_alone(k):
    # Below k the sweep is one Skipped row; from k on, each W_n read as a
    # prefix of W_{n_max} gives the rows of W_n built and classified alone.
    for n_max in sorted({0, 1, k - 2, k - 1, k, verify.default_n_max(k)}):
        rows = verify._decomposition_sweep(k, n_max).results
        if n_max < k:
            assert [r.verdict for r in rows] == [verify.SKIPPED]
            continue
        alone = [r for n in range(k, n_max + 1) for r in verify.verify_decomposition(k, n).results]
        assert rows == sorted(alone, key=verify.CheckResult.sort_key)


def test_every_crossing_count_goes_through_one_classifier(monkeypatch):
    # classify_crossing, verify_decomposition and the sweep each classify
    # through _classify_prefix, which holds the one call of _bucket in src.
    calls = _calls(monkeypatch, "_classify_prefix", palindromes, verify)
    w = word(4, 9)
    palindromes.classify_crossing(w, verify.decomposition_cuts(4, 9), 2)
    verify.verify_decomposition(4, 9)
    verify._decomposition_sweep(4, 9)
    assert [args[1] for args in calls] == [len(w)] * 2 + [
        kbonacci_number(4, n + 4) for n in range(4, 10)]
    src = pathlib.Path(palindromes.__file__).parent
    bucket_calls = [
        path.name for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_bucket"
    ]
    assert bucket_calls == ["palindromes.py"]


@pytest.mark.parametrize("k, crossing", [(3, 6), (4, 10), (5, 15), (6, 21), (7, 22)])
def test_decomposition_sweep_buckets_only_crossing_centres(monkeypatch, k, crossing):
    # Of the centres within reach of a cut, only those whose clamped
    # length crosses the cut centre nearest them are bucketed one at a
    # time; every other one holds only contained occurrences. The sweep
    # bucketed 75, 282, 772, 1,756 and 2,541 centres for k = 3..7 when
    # every centre within reach was bucketed.
    calls = _calls(monkeypatch, "_bucket", palindromes)
    assert verify._decomposition_sweep(k, verify.default_n_max(k)).ok
    assert len(calls) == crossing
    for _, cuts, c, m in calls:
        assert any(m >= abs(c - (2 * p - 1)) + 2 for p in cuts)


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_decomposition_cuts_are_running_sums_of_block_lengths(k):
    for n in range(k, 13):
        lengths = [len(word(k, i)) for i in range(n - 1, n - k, -1)]
        assert verify.decomposition_cuts(k, n) == tuple(itertools.accumulate(lengths))


@pytest.mark.parametrize("k", [3, 4, 5, 6, 7])
def test_structure_suite_builds_one_word(monkeypatch, k):
    # Every W_n2 the rows read is a prefix of the suite's W_n, and the
    # straddling and bordering words are the cached catalog templates.
    structure._templates(k)
    calls = {verify: 0, structure: 0}

    def counted(module, original):
        def wrapped(*args):
            calls[module] += 1
            return original(*args)
        return wrapped

    for module in calls:
        monkeypatch.setattr(module, "word", counted(module, module.word))
    assert verify.verify_structure(k, 16).ok
    assert calls == {verify: 1, structure: 0}


@pytest.mark.parametrize("k", [3, 4, 5, 6, 7])
def test_counts_suite_builds_one_profile(monkeypatch, k):
    # Every W_n is a prefix of W_{n_max}, and the plan build of W_{n_max},
    # one walk of its plan, keeps the total of each one's own profile.
    builds = []
    original = palindromes._patched_levels

    def counted(ds, *args):
        builds.append(len(ds))
        return original(ds, *args)

    monkeypatch.setattr(palindromes, "_patched_levels", counted)
    n = verify.default_n_max(k)
    (report,) = verify.run_suites(k, n, ["counts"])
    assert report.ok and report.summary[verify.PASS] > 0
    assert builds == [kbonacci_number(k, n + k)]


@pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8])
def test_counts_rows_equal_a_scan_of_each_word(k):
    # Below k the plan has no levels, and each W_n is read by clamping the
    # profile of W_{n_max}.
    for n_max in sorted({0, 1, k - 2, k - 1, k, verify.default_n_max(k)}):
        report = verify.verify_counts(k, n_max)
        scans = {(r.subject["n"], r.subject["mode"]): r.actual
                 for r in report.results if r.check_id == "p-total"}
        assert scans == {
            (n, mode): count_occurrences(word(k, n), 2)
            for n in range(n_max + 1) for mode in ("derived", "as-stated")
        }


def test_counts_suite_past_the_guard_names_its_one_word(monkeypatch):
    # The suite builds W_{n_max} alone, so its one Skipped row names that
    # word, where it named the first W_n past the guard, here W_11.
    monkeypatch.setenv("KBONA_MAX_LEN", str(kbonacci_number(3, 11 + 3) - 1))
    (report,) = verify.run_suites(3, 12, ["counts"])
    assert [r.verdict for r in report.results] == [verify.SKIPPED]
    assert report.results[0].actual.startswith("|W_12| = f_15 exceeds the length guard")


def test_counts_suite_checks_the_guard_before_the_series(monkeypatch):
    # W_{10^6} is far past the guard: the suite's one Skipped row comes
    # before any P(n) is computed.
    calls = []
    series = counting.p_series
    monkeypatch.setattr(counting, "p_series", lambda *args: calls.append(args) or series(*args))
    (report,) = verify.run_suites(3, 10**6, ["counts"])
    assert [r.verdict for r in report.results] == [verify.SKIPPED]
    assert report.results[0].actual.startswith("|W_1000000| = f_1000003 exceeds")
    assert calls == []


@pytest.mark.parametrize("suite", ["decomposition", "lemmas"])
def test_prefix_suites_past_the_guard_name_their_one_word(monkeypatch, suite):
    # As for counts: each suite builds W_{n_max} alone, so its one Skipped
    # row names that word, not the first W_n past the guard, here W_11.
    monkeypatch.setenv("KBONA_MAX_LEN", str(kbonacci_number(3, 11 + 3) - 1))
    (report,) = verify.run_suites(3, 12, [suite])
    assert [r.verdict for r in report.results] == [verify.SKIPPED]
    assert report.results[0].actual.startswith("|W_12| = f_15 exceeds the length guard")


def _rows(report, check_id):
    return [r for r in report.results if r.check_id == check_id]


def test_occurrence_is_tested_at_its_start_within_the_prefix():
    # W_5 = 0102013010234 01020133435 for k = 3, and W_4 is its first 13
    # digits: 2 3 4 0 1 starts at 0-based 10 and runs 2 digits past W_4.
    w = word(3, 5)
    element = Word((2, 3, 4, 0, 1))
    assert verify._occurs_at(w, element, 10, 24)
    assert verify._occurs_at(w, element, 10, 15)
    assert not verify._occurs_at(w, element, 10, 14)
    assert not verify._occurs_at(w, element, 10, 13)
    assert not verify._occurs_at(w, element, 9, 24)
    assert not verify._occurs_at(w, element, 11, 24)
    # A start before the word is no occurrence, though the suffix 4 3 5
    # is 3 digits from the end.
    assert not verify._occurs_at(w, Word((4, 3, 5)), -3, 24)
    # An element with a digit past 255 (a tuple store) occurs nowhere in
    # a generated byte word.
    assert not verify._occurs_at(w, Word((300,)), 0, 24)
    assert not verify._occurs_at(w, Word((0, 300)), 0, 24)


def test_straddling_row_fails_when_the_split_is_one_digit_late(monkeypatch):
    def late(k, n):
        return [structure.StraddlingPair(p.left + p.right.factor(1, 1), p.right.drop_first())
                if len(p.right) > 1 else p for p in original(k, n)]

    original = structure.maximal_straddling_words
    # A pair with a one-digit right part keeps its split: kk at n = 7 and
    # the P3 double at n = 8.
    moved = {p.concatenation for n in range(7, 11) for p in original(4, n) if len(p.right) > 1}
    monkeypatch.setattr(structure, "maximal_straddling_words", late)
    rows = _rows(verify.verify_structure(4, 12), "straddling-occurs")
    assert len(rows) == 7 and len(moved) == 5
    for r in rows:
        assert r.verdict == (verify.FAIL if r.subject["word"] in moved else verify.PASS)


def test_bordering_row_fails_for_the_neighbouring_template(monkeypatch):
    # The P2 templates (n=4, j=2) and (n=4, j=3) of k = 4 trade words.
    def swapped(k, family, i_max):
        elements = original(k, family, i_max)
        if family is not structure.PalFamily.P2:
            return elements
        by_class = {(c.n, c.j, c.shift): w for w, c in elements}
        return [(by_class[4, 5 - c.j, c.shift], c) if c.n == 4 else (w, c) for w, c in elements]

    original = structure.catalog_elements
    monkeypatch.setattr(structure, "catalog_elements", swapped)
    rows = _rows(verify.verify_structure(4, 12), "bordering-occurs")
    assert sorted((r.subject["n"], r.subject["j"], r.verdict) for r in rows) == [
        (4, 2, verify.FAIL), (4, 3, verify.FAIL), (5, 3, verify.PASS),
    ]


def test_catalog_row_reads_the_level_an_element_first_occurs_in(monkeypatch):
    # For k = 3 the shift-0 elements are due at W_7. Digit 8 first occurs
    # as the last digit of W_8; the pair (7, 0) first ends one digit past
    # W_7, where W_8 goes on with W_6. Both first occur in W_8.
    def planted(k, family, i_max):
        elements = original(k, family, i_max)
        if family is structure.PalFamily.P1:
            elements += [(Word((8,)), structure.PalClass(family, 0, n=90)),
                         (Word((7, 0)), structure.PalClass(family, 0, n=91))]
        return elements

    original = structure.catalog_elements
    monkeypatch.setattr(structure, "catalog_elements", planted)
    rows = {r.subject["class"]: r for r in _rows(verify.verify_structure(3, 10), "catalog-occurs")}
    for name in ("(p1, i=0, n=90)", "(p1, i=0, n=91)"):
        row = rows.pop(name)
        assert (row.expected, row.actual, row.verdict) == (7, 8, verify.FAIL)
    assert all(r.verdict == verify.PASS for r in rows.values())


def test_catalog_row_fails_for_an_element_past_the_byte_range(monkeypatch):
    # The first P1 element at shift 1, shifted by 300, holds only digits
    # past 255: its row fails, and no other row or suite is touched.
    def shifted(k, family, i_max):
        elements = original(k, family, i_max)
        if family is structure.PalFamily.P1 and i_max == 1:
            i = next(i for i, (_, c) in enumerate(elements) if c.shift == 1)
            elements[i] = (shift_add(300, elements[i][0]), elements[i][1])
        return elements

    original = structure.catalog_elements
    monkeypatch.setattr(structure, "catalog_elements", shifted)
    (report,) = verify.run_suites(3, 10, ["structure"])
    assert not report.raised
    failed = [r for r in report.results if r.verdict == verify.FAIL]
    assert [(r.check_id, r.subject["class"], r.expected, r.actual) for r in failed] == [
        ("catalog-occurs", "(p1, i=1, n=2)", 10, None)
    ]


def test_structure_skips_are_reported():
    # n = 0 is below every range the suite checks: no row runs, and each
    # catalog element and the straddling range is one Skipped row.
    report = verify.verify_structure(3, 0)
    assert report.ok
    assert report.summary[verify.SKIPPED] == len(report.results) > 0
    for check_id in ("straddling-occurs", "bordering-occurs"):
        rows = [r for r in report.results if r.check_id == check_id]
        assert [r.subject for r in rows] == [{"k": 3, "n": 0}]

    report = verify.verify_structure(5, 3)
    catalog = [r for r in report.results if r.check_id == "catalog-occurs"]
    assert len(catalog) == 27
    assert all(r.verdict == verify.SKIPPED for r in catalog)
    assert {r.expected for r in catalog} == {13, 18}
    for check_id in ("straddling-occurs", "bordering-occurs"):
        rows = [r for r in report.results if r.check_id == check_id]
        assert [(r.subject, r.verdict) for r in rows] == [({"k": 5, "n": 3}, verify.SKIPPED)]

    # k = 3, n = 10: the shift-1 elements are due at index 10 and run; at
    # n = 9 they are skipped while the shift-0 elements (index 7) run.
    for n, skipped in ((10, set()), (9, {10})):
        report = verify.verify_structure(3, n)
        assert report.ok
        catalog = [r for r in report.results if r.check_id == "catalog-occurs"]
        skipped_at = {r.expected for r in catalog if r.verdict == verify.SKIPPED}
        assert skipped_at == skipped
        assert {frozenset(r.subject) for r in catalog} == {frozenset({"k", "family", "class"})}
        assert all(
            r.verdict == verify.PASS for r in catalog if r.verdict != verify.SKIPPED
        )
        assert all(
            r.verdict != verify.SKIPPED
            for r in report.results
            if r.check_id in ("straddling-occurs", "bordering-occurs")
        )


def test_verify_structure():
    report = verify.verify_structure(3, 10)
    assert report.ok
    assert any(r.check_id == "straddling-occurs" for r in report.results)
    assert any(r.check_id == "catalog-occurs" for r in report.results)

    report = verify.verify_structure(4, 12)
    assert report.ok
    straddles = [
        r for r in report.results
        if r.check_id == "straddling-occurs" and r.subject["n"] == 9
    ]
    assert len(straddles) == 2
    assert all(r.verdict == verify.PASS for r in straddles)
    bordering = [r for r in report.results if r.check_id == "bordering-occurs"]
    assert sorted((r.subject["n"], r.subject["j"]) for r in bordering) == [
        (4, 2), (4, 3), (5, 3),
    ]
    assert all(r.verdict == verify.PASS for r in bordering)

    assert verify.verify_structure(3, 2).ok


def test_straddling_row_fails_when_the_right_part_overruns_the_word(monkeypatch):
    # A planted palindromic pair whose right part runs 500 digits past
    # W_{n2}: its row reads Fail instead of raising, and every other
    # suite still reports.
    def overrun(k, n):
        return [structure.StraddlingPair(p.left, Word((0,) * 500) + p.left.reverse())
                for p in original(k, n)]

    original = structure.maximal_straddling_words
    monkeypatch.setattr(structure, "maximal_straddling_words", overrun)
    reports = {r.suite: r for r in verify.run_suites(3, 10)}
    assert list(reports) == list(verify.SUITES)
    rows = [r for r in reports.pop("structure").results if r.check_id == "straddling-occurs"]
    assert rows and all(r.verdict == verify.FAIL for r in rows)
    assert all(report.ok for report in reports.values())


def test_verify_lemmas():
    report = verify.verify_lemmas(3, 10)
    assert report.ok and report.strict_ok()
    assert report.summary[verify.PASS] > 40

    report = verify.verify_lemmas(5, 8)
    assert report.ok
    suffix_checks = [r for r in report.results if r.check_id == "suffix-pair"]
    assert len(suffix_checks) == 8

    report = verify.verify_lemmas(4, 1)
    assert report.ok
    assert report.summary[verify.SKIPPED] > 0


# One fault per lemma row, planted where its n = 4 row reads (k = 3,
# n_max = 6). A per-n row reads the first |W_4| = 13 digits of the one
# word W_6, and each fault sits past the first |W_3| = 7 of them, in
# 0 1 0 2 3 4. A chain row reads phi_3^4(0) of the morphism chain or F_4
# of the psi_3 chain, both orbits of 0 (`_orbit`); the fault is planted in
# each orbit of 0, and each row reads one of them.
LEMMA_FAULTS = [
    ("method-agreement", "word", lambda ds: ds[:7] + bytes([1]) + ds[8:]),
    ("prefix-chain", "_orbit", lambda ds: bytes([1]) + ds[1:]),
    ("size-law", "_orbit", lambda ds: ds[:-1]),
    ("mod-k-reduction", "_orbit", lambda ds: bytes([1]) + ds[1:]),
    ("suffix-pair", "word", lambda ds: ds[:11] + ds[12:13] + ds[11:12] + ds[13:]),
    ("last-digit", "word", lambda ds: ds[:12] + bytes([5]) + ds[13:]),
    ("no-00", "word", lambda ds: ds[:8] + bytes([0]) + ds[9:]),
    ("adjacency", "word", lambda ds: ds[:9] + bytes([1]) + ds[10:]),
]


@pytest.mark.parametrize("check_id,target,plant", LEMMA_FAULTS,
                         ids=[fault[0] for fault in LEMMA_FAULTS])
def test_lemma_rows_fail_under_planted_faults(monkeypatch, check_id, target, plant):
    original = getattr(verify, target)

    def faulty(*args):
        out = original(*args)
        if target == "word":
            return Word(plant(out.digits))
        out = list(out)
        if out[0] == Word((0,)):  # a chain from 0, not a commutation chain
            out[4] = Word(plant(out[4].digits))
        return out

    monkeypatch.setattr(verify, target, faulty)
    rows = [r for r in verify.verify_lemmas(3, 6).results if r.check_id == check_id]
    assert [r.verdict for r in rows if r.subject.get("n", 4) == 4] == [verify.FAIL]
    assert all(r.verdict == verify.PASS for r in rows if r.subject.get("n", 4) < 4)


def test_prefix_cap_fails_on_a_palindromic_prefix_over_the_cap(monkeypatch):
    # W_6 for k = 3 with its first two digits replaced by 2 1: 1 W_3 then
    # starts with the palindrome 1 2 1, whose 2 is above the cap i + 1 = 1.
    # The row reads it from the profile of W_6, where the palindromic
    # prefix 2 is followed by 1; no palindromic prefix is followed by 2.
    original = verify.word
    monkeypatch.setattr(verify, "word",
                        lambda k, n: Word(bytes([2, 1]) + original(k, n).digits[2:]))
    rows = {r.subject["i"]: r.verdict for r in verify.verify_lemmas(3, 6).results
            if r.check_id == "palindromic-prefix-cap"}
    assert rows == {0: verify.FAIL, 1: verify.PASS}


def _commutation_verdicts(k, n_max):
    return {r.check_id: r.verdict for r in verify.verify_lemmas(k, n_max).results
            if r.check_id in ("shift-commutation", "power-commutation")}


def test_commutation_rows_fail_when_one_digit_maps_wrongly(monkeypatch):
    # For k = 3 the digit 4 = k + 1 maps to 5 alone instead of 3 5, so
    # phi_3(3 ⊕ 1) = 5 differs from 3 ⊕ phi_3(1) = 3 5, and so does each
    # power phi_3^n(3 + 1) from phi_3^n(1) ⊕ 3.
    def faulty(k, w):
        return Word(itertools.chain.from_iterable(
            (d + 1,) if d == k + 1 else original(k, Word((d,))).digits for d in w.digits))

    original = verify.apply_morphism
    monkeypatch.setattr(verify, "apply_morphism", faulty)
    assert _commutation_verdicts(3, 6) == {
        "shift-commutation": verify.FAIL, "power-commutation": verify.FAIL,
    }


def test_power_commutation_fails_for_a_wrong_shift_of_2k_or_more(monkeypatch):
    # Shift-commutation shifts by k = 3 only, power-commutation by 3i for
    # i < 7; a shift of 6 or more adds one digit too many.
    def faulty(d, w):
        return original(d + 1 if d >= 6 else d, w)

    original = verify.shift_add
    monkeypatch.setattr(verify, "shift_add", faulty)
    assert _commutation_verdicts(3, 6) == {
        "shift-commutation": verify.PASS, "power-commutation": verify.FAIL,
    }


def test_lemma_battery_applies_the_morphism_66_times(monkeypatch):
    # method-agreement's chain of 16 powers, one phi_k on each side for
    # shift-commutation, and eight chains of six powers for
    # power-commutation: 0 1 ... 6 and its seven shifts 7i, i < 7.
    calls = {"apply_morphism": 0, "Word": 0}
    morphism, init = verify.apply_morphism, Word.__init__

    def counted_morphism(*args):
        calls["apply_morphism"] += 1
        return morphism(*args)

    def counted_init(self, *args):
        calls["Word"] += 1
        init(self, *args)

    monkeypatch.setattr(verify, "apply_morphism", counted_morphism)
    monkeypatch.setattr(Word, "__init__", counted_init)
    assert verify.verify_lemmas(7, 16).ok
    assert calls["apply_morphism"] <= 66
    # The two commutation words and the 0 that starts method-agreement's
    # chain; palindromic-prefix-cap reads the profile of W_16 and builds
    # no word.
    assert calls["Word"] <= 3


@pytest.mark.parametrize("k", [3, 4, 5, 6, 7])
def test_lemma_battery_builds_one_word_and_one_profile(monkeypatch, k):
    # Every W_n the battery reads is a prefix of W_{n_max}, whose one
    # profile scans only W_0, one digit, whole; below k no
    # palindromic-prefix-cap row runs, and no profile is built.
    words = _calls(monkeypatch, "word", verify)
    builds = _calls(monkeypatch, "_patched_levels", palindromes)
    scans = _calls(monkeypatch, "_whole_scan", palindromes)
    n = verify.default_n_max(k)
    assert verify.verify_lemmas(k, n).ok
    assert words == [(k, n)]
    assert [len(args[0]) for args in builds] == [kbonacci_number(k, n + k)]
    assert [(len(args[1]) + 1) // 2 for args in scans] == [1]
    words.clear(), builds.clear(), scans.clear()
    assert verify.verify_lemmas(k, k - 1).ok
    assert words == [(k, k - 1)] and builds == scans == []


@pytest.mark.parametrize("k,n_max,prefix_ns,cap_is", [
    (5, 3, [4], [0, 1, 2, 3]),
    (4, 1, [2, 3], [0, 1, 2]),
    (3, 0, [2], [0, 1]),
    (16, None, [], list(range(1, 15))),
])
def test_lemma_skips_name_each_uncovered_row_and_the_n_max_it_needs(k, n_max, prefix_ns, cap_is):
    # One Skipped row per n of 2..k-1 and per i of 0..k-2 that n_max does
    # not reach, each naming the n_max it needs and the n_max given.
    n_max = verify.default_n_max(k) if n_max is None else n_max
    rows = verify.verify_lemmas(k, n_max).results
    skipped = sorted(((r.check_id, r.subject, r.expected, r.actual)
                      for r in rows if r.verdict == verify.SKIPPED),
                     key=lambda row: (row[0], list(row[1].values())))
    actual = f"n_max={n_max}"
    assert skipped == (
        [("palindromic-prefix-cap", {"k": k, "i": i}, f"n_max >= {k + i}", actual) for i in cap_is]
        + [("prefix-palindrome", {"k": k, "n": n}, f"n_max >= {n}", actual) for n in prefix_ns])


def _law_verdicts(k: int, n_max: int) -> dict:
    """Each per-n and per-i lemma law evaluated directly on its own word,
    each W_n built alone, as the verdict its row should carry."""
    out = {}
    for n in range(1, n_max + 1):
        ds = word(k, n).digits
        pairs = list(zip(ds, ds[1:]))
        out["suffix-pair", n] = (ds[-2], ds[-1]) == verify.suffix_pair(k, n)
        out["last-digit", n] = max(ds) == n and ds.count(n) == 1 and ds[-1] == n
        out["no-00", n] = (0, 0) not in pairs
        out["adjacency", n] = all(a < b for a, b in pairs if b % k)
        if 2 <= n <= k - 1:
            out["prefix-palindrome", n] = ds[:-1] == ds[:-1][::-1]
    for i in range(k - 1):
        if k + i <= n_max:
            # Every palindromic prefix of (i+1) W_{k+i}, ending in i+1.
            ds = bytes([i + 1]) + word(k, k + i).digits
            out["palindromic-prefix-cap", i] = all(
                max(ds[:end]) <= i + 1 for end in range(1, len(ds) + 1)
                if ds[end - 1] == i + 1 and ds[:end] == ds[:end][::-1])
    return {key: verify.PASS if holds else verify.FAIL for key, holds in out.items()}


@pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8])
def test_lemma_rows_equal_each_law_on_its_own_word(k):
    for n_max in sorted({0, 1, k - 2, k - 1, k, verify.default_n_max(k)}):
        rows = {(r.check_id, r.subject.get("n", r.subject.get("i"))): r.verdict
                for r in verify.verify_lemmas(k, n_max).results
                if r.verdict != verify.SKIPPED and r.subject.keys() & {"n", "i"}}
        assert rows == _law_verdicts(k, n_max)


@given(st.lists(st.integers(0, 127), min_size=1, max_size=80), st.integers(3, 8))
@example([0, 1, 0, 2, 0, 1, 3], 3)
@example([127, 1, 0, 127, 127], 3)
def test_first_descent_against_a_scan(digits, k):
    ds = bytes(digits)
    expected = next((i for i in range(1, len(ds)) if ds[i] % k and ds[i - 1] >= ds[i]), len(ds))
    assert verify._first_descent(ds, k) == expected


def _guard_below_w26_k8(monkeypatch):
    # One digit short of W_26 for k = 8: of the suites at n_max <= 16,
    # only lengths, which reads W_{3k+2}, builds a word that long.
    monkeypatch.setenv("KBONA_MAX_LEN", str(kbonacci_number(8, 26 + 8) - 1))


def test_verify_lengths(monkeypatch):
    report = verify.verify_lengths(3)
    assert report.ok and not report.strict_ok()
    flagged = [r for r in report.results if r.check_id == "length-as-stated-only"]
    assert [r.subject["length"] for r in flagged] == [11]

    report = verify.verify_lengths(4)
    assert report.ok

    # The default length guard, 2^26, admits W_23 for k = 7 (7,805,695
    # digits) and W_26 for k = 8 (64,504,063 digits); KBONA_MAX_LEN one
    # digit short of the latter refuses it.
    report = verify.verify_lengths(7)
    assert report.ok
    flagged = [r for r in report.results if r.check_id == "length-as-stated-only"]
    assert [r.subject["length"] for r in flagged] == [191]
    assert kbonacci_number(8, 26 + 8) <= DEFAULT_MAX_LEN
    _guard_below_w26_k8(monkeypatch)
    with pytest.raises(LengthGuardError):
        verify.verify_lengths(8)


def test_lengths_suite_builds_no_word(monkeypatch):
    # W_23 for k = 7 (7.8 M digits) is read through its plan: the suite
    # builds no word, and its peak is the profile and the digits it
    # reads, under 1 MiB where the built word alone takes 7.8 MB.
    words = _calls(monkeypatch, "word", verify)
    tracemalloc.start()
    try:
        report = verify.verify_lengths(7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok and words == []
    assert peak < 1 << 20


def test_reports_deterministic():
    a = verify.verify_counts(4, 8).to_dict()
    b = verify.verify_counts(4, 8).to_dict()
    a.pop("wall_time")
    b.pop("wall_time")
    assert a == b


def test_no_self_comparison():
    # Both modes must be held against the same scan value, never against
    # each other: for every subject the derived and as-stated rows share
    # one oracle-side actual.
    report = verify.verify_counts(4, 8)
    by_subject = {}
    for r in report.results:
        key = (r.check_id, r.subject["n"])
        by_subject.setdefault(key, set()).add(r.actual)
    assert all(len(actuals) == 1 for actuals in by_subject.values())


def test_default_n_max():
    assert [verify.default_n_max(k) for k in range(3, 13)] == [17] + [16] * 9
    for k in (3, 4, 5):
        n = verify.default_n_max(k)
        assert kbonacci_number(k, n + k) <= 1 << 16
        assert kbonacci_number(k, n + 1 + k) > 1 << 16


def test_run_suites_all():
    reports = verify.run_suites(3, 8)
    assert {r.suite for r in reports} == {
        "counts", "decomposition", "structure", "lemmas", "lengths",
    }
    assert all(r.ok for r in reports)


def test_run_suites_reports_a_guarded_suite_as_skipped(monkeypatch):
    # W_26 for k = 8 is past the guard; the lengths suite reports one
    # Skipped row quoting it, and the rest still run.
    _guard_below_w26_k8(monkeypatch)
    reports = verify.run_suites(8, 8)
    assert [r.suite for r in reports] == list(verify.SUITES)
    by_suite = {r.suite: r for r in reports}
    lengths = by_suite.pop("lengths")
    assert [r.verdict for r in lengths.results] == [verify.SKIPPED]
    assert lengths.ok and lengths.summary[verify.SKIPPED] == 1
    with pytest.raises(LengthGuardError) as exc:
        verify.verify_lengths(8)
    assert lengths.results[0].actual == str(exc.value)
    assert "length guard" in lengths.results[0].actual
    for report in by_suite.values():
        assert report.ok
        assert report.summary[verify.PASS] > 0


def test_run_suites_resolves_the_default_n_max_once(monkeypatch):
    n = verify.default_n_max(3)
    counts, struct, lemmas = verify.run_suites(3, None, ["counts", "structure", "lemmas"])
    assert counts.params["n_max"] == struct.params["n"] == lemmas.params["n_max"] == n
    # A suite past the guard reports the n_max it resolved, not the None
    # it was given.
    _guard_below_w26_k8(monkeypatch)
    (lengths,) = verify.run_suites(8, None, ["lengths"])
    assert lengths.params == {"k": 8, "n_max": verify.default_n_max(8)}
    # k is checked before any default is derived from it.
    with pytest.raises(DomainError, match=">= 3, got 1"):
        verify.run_suites(1, None, ["structure"])


def test_report_rows_and_verdicts():
    report = verify.Report("unit", {"k": 3})
    report.check("b", {"n": 1}, 5, "Derived", 5)
    report.check("b", {"n": 2}, 5, "AsStated", 4)
    report.check("b", {"n": 3}, 5, "Derived", 4)
    report.check("b", {"n": 4}, 5, "Oracle", 4)
    report.skip("a", {"n": 0}, "n >= 1", "no such n")
    assert [r.verdict for r in report.results] == [
        verify.PASS, verify.DISCREPANCY, verify.FAIL, verify.FAIL, verify.SKIPPED,
    ]
    skipped = report.results[-1]
    assert (skipped.provenance, skipped.expected, skipped.actual) == (
        "Oracle", "n >= 1", "no such n",
    )
    assert report.finish() is report
    assert report.results == sorted(report.results, key=verify.CheckResult.sort_key)
    assert [r.check_id for r in report.results] == ["a", "b", "b", "b", "b"]
    assert report.wall_time >= 0
    assert report.summary == {
        verify.PASS: 1, verify.FAIL: 2, verify.DISCREPANCY: 1, verify.SKIPPED: 1,
    }
    assert not report.ok
    out = report.to_dict()
    assert set(out) == {"suite", "params", "results", "summary", "wall_time"}
    assert set(out["results"][0]) == {
        "check", "subject", "expected", "provenance", "actual", "verdict",
    }
