"""Command-line front end.

Subcommands: gen, count, decompose, structure, lengths, verify.
Exit codes: 0 success (documented discrepancies included unless
--strict-paper), 1 verification failure, 2 usage or domain error, or a
verify suite that raised (reported as one row, after the other suites),
141 (128 + SIGPIPE) when the reader closes standard output early, as
`kbona gen ... | head` does, with no traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain
from typing import Any

from . import counting, structure, verify
from .counting import FormulaMode
from .palindromes import count_occurrences, count_prefix_occurrences
from .words import (
    DigitOverflowError,
    DomainError,
    LengthGuardError,
    Word,
    _pieces,
    _plan_pieces,
    kbonacci_sizes,
    morphism_word,
    reduce_mod_k,
    word,
)


def _non_negative_int(value: str) -> int:
    n = int(value)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def _emit_json(k: int, subcommand: str, results: list[dict[str, Any]], out) -> None:
    print(json.dumps({"k": k, "subcommand": subcommand, "results": results},
                     sort_keys=True), file=out)


def _cmd_gen(args, out) -> int:
    sep = {"plain": "", "spaced": " ", "json": ", "}[args.format]
    # The text is written a piece at a time, so no rendering of the whole
    # word is held, and every error comes before the first write. The
    # recurrence renders from the block plan and never builds W_n; the
    # morphism, the independent route, builds W_n and reduces it once.
    if args.method == "morphism":
        w = morphism_word(args.k, args.n)
        if args.mod_k:
            w = reduce_mod_k(args.k, w)
        pieces = _pieces(w.digits, sep)
    else:
        pieces = _plan_pieces(args.k, args.n, sep, args.mod_k)
    if args.format == "json":
        # The envelope with an empty digits list, split where the digits go.
        head, tail = json.dumps(
            {"k": args.k, "subcommand": "gen",
             "results": [{"n": args.n, "mod_k": bool(args.mod_k), "digits": []}]},
            sort_keys=True).split("[]")
        pieces = chain([head, "["], pieces, ["]", tail, "\n"])
    else:
        pieces = chain(pieces, ["\n"])
    for piece in pieces:
        out.write(piece)
    return 0


def _cmd_count(args, out) -> int:
    mode = FormulaMode(args.mode)
    # Built first, so a request past the length guard computes no series.
    w = word(args.k, args.n_max) if args.oracle else None
    # P(n) >= P(n-1) + P(n-2) from P(2) = 1 (no increment is negative), so P(n) >= 10^((n-3)/5):
    # a series too long to print (limit 0, none, before 3.10.7) is refused before it is computed.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    too_long = limit and args.n_max - 3 > 5 * limit
    series = [] if too_long else counting.p_series(args.k, args.n_max, mode)
    if too_long or limit and series[-1] >= 10**limit:
        raise DomainError(f"P({args.n_max}) has more than {limit} digits, past the "
                          "limit for printing an integer (sys.get_int_max_str_digits)")
    rows: list[dict[str, Any]] = [{"n": n, "p": p} for n, p in enumerate(series)]
    mismatch = False
    if args.oracle:
        # Every W_n is the prefix of |W_n| digits of W_{n_max}, counted from
        # its one profile; W_{n_max} itself is counted whole.
        sizes = kbonacci_sizes(args.k)[: args.n_max]
        oracles = [count_prefix_occurrences(w, size) for size in sizes]
        oracles.append(count_occurrences(w))
        for row, oracle in zip(rows, oracles):
            row["oracle"] = oracle
            mismatch |= oracle != row["p"]
    if args.format == "json":
        _emit_json(args.k, "count", rows, out)
    else:
        header = ["n", "p"] + (["oracle"] if args.oracle else [])
        print("\t".join(header), file=out)
        for row in rows:
            print("\t".join(str(row[h]) for h in header), file=out)
    return 1 if mismatch else 0


def _cmd_decompose(args, out) -> int:
    report = verify.verify_decomposition(args.k, args.n)
    return _emit_report(args, [report], out)


def _cmd_structure(args, out) -> int:
    if args.classify is not None:
        w = Word.parse(args.classify)
        classes = sorted(structure.classify_palindrome(args.k, w),
                         key=lambda c: (c.family.value, c.shift, c.describe()))
        if args.format == "json":
            _emit_json(args.k, "structure",
                       [{"word": list(w.digits),
                         "classes": [c.describe() for c in classes]}], out)
        else:
            if classes:
                for c in classes:
                    print(c.describe(), file=out)
            else:
                print("(no catalog membership)", file=out)
        return 0
    families = (list(structure.PalFamily) if args.family == "all"
                else [structure.PalFamily(args.family)])
    rows = [(cls.describe(), element)
            for family in families
            for element, cls in structure.catalog_elements(args.k, family, args.i_max)]
    if args.format == "json":
        _emit_json(args.k, "structure",
                   [{"class": c, "digits": list(e.digits)} for c, e in rows], out)
    else:
        for c, e in rows:
            print(f"{c}\t{e.to_spaced()}", file=out)
    return 0


def _cmd_lengths(args, out) -> int:
    mode = FormulaMode(args.mode)
    ls = structure.allowed_lengths(args.k, mode)
    if args.format == "json":
        _emit_json(args.k, "lengths",
                   [{"mode": mode.value, "lengths": sorted(ls.lengths)}], out)
    else:
        print(" ".join(str(x) for x in sorted(ls.lengths)), file=out)
    return 0


def _emit_report(args, reports: list[verify.Report], out) -> int:
    strict = getattr(args, "strict_paper", False)
    if args.format == "json":
        _emit_json(args.k, args.command, [r.to_dict() for r in reports], out)
    else:
        for r in reports:
            s = r.summary
            print(f"suite {r.suite}: pass={s[verify.PASS]} fail={s[verify.FAIL]} "
                  f"discrepancy={s[verify.DISCREPANCY]} skipped={s[verify.SKIPPED]}",
                  file=out)
            for res in r.results:
                if res.verdict != verify.PASS:
                    subject = " ".join(f"{k}={v}" for k, v in res.subject.items())
                    print(f"  [{res.verdict}] {res.check_id} {subject}: "
                          f"expected {res.expected} ({res.provenance}), "
                          f"got {res.actual}", file=out)
    if any(r.raised for r in reports):
        return 2
    if any(not r.ok for r in reports):
        return 1
    if strict and any(not r.strict_ok() for r in reports):
        return 1
    return 0


def _cmd_verify(args, out) -> int:
    suites = None if args.suite == "all" else [args.suite]
    reports = verify.run_suites(args.k, args.n_max, suites)
    return _emit_report(args, reports, out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kbona",
        description="k-bonacci words over the infinite alphabet: generation, "
                    "palindrome counting, structure, and formula verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, default_format="spaced", formats=("plain", "spaced", "json")):
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--format", choices=formats, default=default_format)

    p = sub.add_parser("gen", help="generate a k-bonacci word")
    add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=["morphism", "recurrence"], default="recurrence")
    p.add_argument("--mod-k", action="store_true",
                   help="reduce digits mod k (the classical word)")

    p = sub.add_parser("count", help="palindrome count table")
    add_common(p, formats=("plain", "json"), default_format="plain")
    p.add_argument("--n-max", type=_non_negative_int, required=True)
    p.add_argument("--mode", choices=[m.value for m in FormulaMode],
                   default=FormulaMode.DERIVED.value)
    p.add_argument("--oracle", action="store_true",
                   help="also scan the generated words and compare")

    p = sub.add_parser("decompose", help="crossing classification of W_n")
    add_common(p, formats=("plain", "json"), default_format="plain")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("structure", help="palindrome catalog / classification")
    add_common(p, formats=("plain", "json"), default_format="plain")
    p.add_argument("--class", dest="family",
                   choices=["p1", "p2", "p3", "p4", "all"], default="all")
    p.add_argument("--i-max", type=int, default=0)
    p.add_argument("--classify", metavar="WORD",
                   help="classify a palindrome instead of listing the catalog")

    p = sub.add_parser("lengths", help="admissible palindrome lengths")
    add_common(p, formats=("plain", "json"), default_format="plain")
    p.add_argument("--mode", choices=[m.value for m in FormulaMode],
                   default=FormulaMode.DERIVED.value)

    p = sub.add_parser("verify", help="run verification suites")
    add_common(p, formats=("plain", "json"), default_format="plain")
    p.add_argument("--n-max", type=_non_negative_int, default=None)
    p.add_argument("--suite",
                   choices=sorted(verify.SUITES) + ["all"], default="all")
    p.add_argument("--strict-paper", action="store_true",
                   help="treat documented discrepancies with the printed "
                        "formulas as failures")
    return parser


COMMANDS = {
    "gen": _cmd_gen,
    "count": _cmd_count,
    "decompose": _cmd_decompose,
    "structure": _cmd_structure,
    "lengths": _cmd_lengths,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code = COMMANDS[args.command](args, sys.stdout)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader is gone: what is still buffered goes to devnull, so the
        # interpreter's final flush cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (DomainError, LengthGuardError, DigitOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
