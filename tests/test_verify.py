"""Verification suites: verdicts, determinism, and the documented
discrepancies with the printed formulas."""

import pytest

from kbona import palindromes, verify
from kbona.words import DomainError, LengthGuardError


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


def test_empty_decomposition_sweep_is_skipped():
    report = verify._decomposition_sweep(4, 2)
    assert report.summary == {
        verify.PASS: 0, verify.FAIL: 0, verify.DISCREPANCY: 0, verify.SKIPPED: 1,
    }
    assert report.results[0].subject == {"k": 4, "n_max": 2}


def test_decomposition_sweep_scans_each_word_once(monkeypatch):
    scans = []
    original = palindromes.maximal_radii

    def counted(w):
        scans.append(len(w))
        return original(w)

    monkeypatch.setattr(palindromes, "maximal_radii", counted)
    report = verify._decomposition_sweep(4, 10)
    assert report.ok
    assert len(scans) == 7  # W_4 .. W_10
    partition = [r for r in report.results if r.check_id == "partition-total"]
    assert len(partition) == 7 and all(r.verdict == verify.PASS for r in partition)


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


def test_verify_lengths():
    report = verify.verify_lengths(3)
    assert report.ok and not report.strict_ok()
    flagged = [r for r in report.results if r.check_id == "length-as-stated-only"]
    assert [r.subject["length"] for r in flagged] == [11]

    report = verify.verify_lengths(4)
    assert report.ok

    # The default digit budget, 2^23, admits W_23 for k = 7 (7,805,695
    # digits) and refuses W_26 for k = 8 (64,504,063 digits).
    report = verify.verify_lengths(7)
    assert report.ok
    flagged = [r for r in report.results if r.check_id == "length-as-stated-only"]
    assert [r.subject["length"] for r in flagged] == [191]
    with pytest.raises(LengthGuardError):
        verify.verify_lengths(8)


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
    for k in (3, 4, 5):
        n = verify.default_n_max(k)
        from kbona.words import kbonacci_number

        assert kbonacci_number(k, n + k) <= 1 << 16
        assert kbonacci_number(k, n + 1 + k) > 1 << 16


def test_run_suites_all():
    reports = verify.run_suites(3, 8)
    assert {r.suite for r in reports} == {
        "counts", "decomposition", "structure", "lemmas", "lengths",
    }
    assert all(r.ok for r in reports)


def test_run_suites_reports_a_guarded_suite_as_skipped():
    # W_26 for k = 8 is past the lengths suite's budget; that suite
    # reports one Skipped row quoting the guard, and the rest still run.
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


def test_run_suites_resolves_the_default_n_max_once():
    n = verify.default_n_max(3)
    counts, struct, lemmas = verify.run_suites(3, None, ["counts", "structure", "lemmas"])
    assert counts.params["n_max"] == struct.params["n"] == lemmas.params["n_max"] == n
    # A suite past its guard reports the n_max it was given.
    (lengths,) = verify.run_suites(8, None, ["lengths"])
    assert lengths.params == {"k": 8, "n_max": None}
    # k is checked before any default is derived from it.
    with pytest.raises(DomainError, match=">= 3, got 1"):
        verify.run_suites(1, None, ["structure"])
