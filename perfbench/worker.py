"""Runs one unit of a benchmark workload in a fresh interpreter.

Usage: ``python3 perfbench/worker.py '<job json>'``. The job names the
workload, the unit (one k of verify-sweep, both words of scan-long, one
CLI command of gen-long, or the gen-long reference digests), whether to
trace, and where to append spans. The worker imports kbona from the
checkout's ``src``, times each operation with import and interpreter
start left out, checks each result against its oracle, and prints one
JSON line:

    {"ops": [{"key", "seconds", "ok", "error"}], "rss_kb", "defects",
     "facts", "trace"}

Oracles run after the timed operations and after the tracer has put
every original function back, so they neither add to the timings nor to
the per-layer counts.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import kbona  # noqa: E402
import kbona.cli  # noqa: E402  (loads every layer before the tracer patches)
from kbona import counting, palindromes, structure, verify, words  # noqa: E402

from tracer import Tracer  # noqa: E402


class Ops:
    """Timed operations of one unit, each with an ok flag and an error."""

    def __init__(self):
        self.ops: list[dict] = []

    def run(self, key: str, fn):
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # an operation that raises counts as failed
            self.add(key, time.perf_counter() - start, f"{type(exc).__name__}: {exc}")
            return None
        self.add(key, time.perf_counter() - start, None)
        return result

    def add(self, key, seconds, error):
        self.ops.append({"key": key, "seconds": seconds, "ok": error is None,
                         "error": error})

    def fail(self, key: str, error: str) -> None:
        for op in self.ops:
            if op["key"] == key and op["ok"]:
                op["ok"], op["error"] = False, error


def _run_verify(unit, ops, defects, facts):
    k, n_max = unit["k"], unit["n_max"]
    reports = {}
    for suite in verify.SUITES:

        def call():
            try:
                return verify.run_suites(k, n_max, [suite])[0]
            except words.DomainError as exc:
                if suite != "lengths":
                    raise
                # Known seed-commit refusal (k > 6): record it, then do the
                # work the suite does once the refusal is lifted.
                defects.append(f"verify_lengths({k}) refused at the default "
                               f"guard: {exc}")
                return verify.verify_lengths(k, max_len=words.DEFAULT_MAX_LEN)

        reports[suite] = ops.run(f"k={k} {suite}", call)
    return lambda: _check_verify(k, reports, ops)


def _check_verify(k, reports, ops):
    for suite, report in reports.items():
        if report is None:
            continue
        key = f"k={k} {suite}"
        summary = report.summary
        if not report.results:
            ops.fail(key, "suite ran no checks")
        if summary[verify.FAIL]:
            ops.fail(key, f"{summary[verify.FAIL]} Fail verdicts")
        documented = {(r.check_id, r.subject.get("length")) for r in report.results
                      if r.verdict == verify.DISCREPANCY}
        if suite == "counts" and k >= 4 and not any(c == "alpha" for c, _ in documented):
            ops.fail(key, "documented alpha discrepancy not reported")
        if suite == "lengths" and (
                "length-as-stated-only", 3 * 2 ** (k - 1) - 1) not in documented:
            ops.fail(key, "documented as-stated length not reported")


SCAN_OPS = ("maximal_radii", "count_occurrences", "classify_crossing", "distinct_factors")


def _run_scan(unit, ops, defects, facts):
    results = []
    for k, n in unit["words"]:
        tag = f"k={k} n={n}"
        w = ops.run(f"{tag} word", lambda: words.word(k, n))
        if w is None:
            for op in SCAN_OPS:
                ops.add(f"{tag} {op}", 0.0, "word generation failed")
            continue
        profile = ops.run(f"{tag} maximal_radii", lambda: palindromes.maximal_radii(w))
        count = ops.run(f"{tag} count_occurrences",
                        lambda: palindromes.count_occurrences(w, 2))
        crossing = ops.run(f"{tag} classify_crossing", lambda: palindromes.classify_crossing(
            w, verify.decomposition_cuts(k, n), 2))
        factors = ops.run(f"{tag} distinct_factors",
                          lambda: palindromes.distinct_factors(w, 2))
        # Keep only what the oracles need, so the next word does not share
        # memory with this one's scan results.
        results.append({
            "k": k, "n": n, "tag": tag, "length": len(w), "count": count,
            "crossing": crossing,
            "centres": None if profile is None else len(profile.lengths),
            "radii_pals": None if profile is None else sum(m // 2 for m in profile.lengths),
            "lengths": None if factors is None else frozenset(len(p) for p in factors),
        })
        del w, profile, factors
    return lambda: _check_scan(results, ops)


def _check_scan(results, ops):
    for r in results:
        k, n, tag = r["k"], r["n"], r["tag"]
        p = counting.p_total(k, n)
        if r["length"] != words.kbonacci_number(k, n + k):
            ops.fail(f"{tag} word", "length differs from f_(n+k)")
        if r["centres"] is not None and (
                r["centres"] != 2 * r["length"] - 1 or r["radii_pals"] != p):
            ops.fail(f"{tag} maximal_radii", "profile disagrees with p_total")
        if r["count"] is not None and r["count"] != p:
            ops.fail(f"{tag} count_occurrences", f"{r['count']} != p_total {p}")
        c = r["crossing"]
        if c is not None:
            expected_bordering = {b: counting.b_count(k, n, n - 1 - b) for b in range(k - 1)}
            observed_bordering = {b: c.bordering.get(b, 0) for b in range(k - 1)}
            if (c.contained != sum(counting.p_total(k, i) for i in range(n - k, n))
                    or set(c.bordering) - set(range(k - 1))
                    or observed_bordering != expected_bordering
                    or c.straddling != counting.s_count(k, n)
                    or c.total != p):
                ops.fail(f"{tag} classify_crossing", "buckets disagree with the formulas")
        if r["lengths"] is not None and r["lengths"] != structure.allowed_lengths(k).lengths:
            ops.fail(f"{tag} distinct_factors", "lengths differ from allowed_lengths")


class _Sink:
    """Null output sink that keeps the written text for the oracle."""

    def __init__(self):
        self.chunks: list[str] = []

    def write(self, text: str) -> int:
        self.chunks.append(text)
        return len(text)

    def flush(self) -> None:
        pass


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _tokens(text: str, fmt: str) -> int:
    body = text.rstrip("\n")
    return len(body) if fmt == "plain" else body.count(" ") + 1


def _run_gen(unit, ops, defects, facts):
    key = " ".join(unit["argv"])
    sink = _Sink()

    def call():
        with contextlib.redirect_stdout(sink):
            code = kbona.cli.main(unit["argv"])
        if code != 0:
            raise RuntimeError(f"exit code {code}")

    ops.run(key, call)

    def check():
        text = "".join(sink.chunks)
        sink.chunks.clear()
        facts["digest"] = _digest(text)
        facts["tokens"] = _tokens(text, unit["format"])
        expected = words.kbonacci_number(unit["k"], unit["n"] + unit["k"])
        if facts["tokens"] != expected:
            ops.fail(key, f"{facts['tokens']} digits, expected {expected}")

    return check


def _run_reference(unit, ops, defects, facts):
    """Digests of the same words by an independent route: the recurrence
    for morphism output, classical_word for --mod-k output."""
    refs = {}
    for ref in unit["refs"]:
        if ref["route"] == "recurrence":
            digits = words.word(ref["k"], ref["n"]).digits
        else:
            digits = words.classical_word(ref["k"], ref["n"]).digits
        sep = "" if ref["format"] == "plain" else " "
        refs[ref["key"]] = _digest(sep.join(map(str, digits)) + "\n")
    facts["refs"] = refs
    return lambda: None


RUNNERS = {"verify-sweep": _run_verify, "scan-long": _run_scan,
           "gen-long": _run_gen, "reference": _run_reference}


def main() -> None:
    job = json.loads(sys.argv[1])
    if not Path(kbona.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"kbona imported from {kbona.__file__}, not from the checkout")
    ops, defects, facts = Ops(), [], {}
    tracer = Tracer() if job["trace"] else None
    if tracer is not None:
        tracer.install()
    try:
        check = RUNNERS[job["workload"]](job["unit"], ops, defects, facts)
    finally:
        if tracer is not None:
            tracer.restore()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    check()
    trace = None
    if tracer is not None:
        tracer.write_spans(job["spans_path"])
        trace = {"spans": tracer.summary(), "counters": dict(tracer.counters),
                 "words": sorted(tracer.words), "scanned": sorted(tracer.scanned.items())}
    print(json.dumps({"ops": ops.ops, "rss_kb": rss_kb, "defects": defects,
                      "facts": facts, "trace": trace}))


if __name__ == "__main__":
    main()
