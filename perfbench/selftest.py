"""Self-test of the tracer on a tiny input: W_5 for k=3 (24 digits).

Usage: ``python3 perfbench/selftest.py``; exits 0 when every check
holds. One scan of W_5 covers 2*24 - 1 = 47 centres; the counters and
call counts of two identical traced runs repeat exactly; the tracer
patches names bound by import in other modules (``verify.word``,
``cli.count_occurrences``); and after ``restore`` every binding in every
kbona module and on ``Word`` is the original object again.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import kbona.cli  # noqa: E402,F401
from kbona import palindromes, words  # noqa: E402

from tracer import Tracer  # noqa: E402


def _bindings() -> dict:
    out = {}
    for name, module in sys.modules.items():
        if name == "kbona" or name.startswith("kbona."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
    for attr, value in vars(words.Word).items():
        out[("Word", attr)] = value
    return out


def _traced_scan() -> tuple[dict, dict, set]:
    tracer = Tracer()
    tracer.install()
    try:
        patched = {(getattr(t, "__name__", ""), attr) for t, attr, _ in tracer.patched()}
        w = words.word(3, 5)
        palindromes.maximal_radii(w)
    finally:
        tracer.restore()
    calls = {name: agg["calls"] for name, agg in tracer.summary().items()}
    return dict(tracer.counters), calls, patched


def main() -> int:
    before = _bindings()
    first = _traced_scan()
    second = _traced_scan()
    after = _bindings()
    failures = []
    if len(words.word(3, 5)) != 24:
        failures.append("|W_5| for k=3 is not 24")
    if first[0].get("palindromes.centres") != 47:
        failures.append(f"centres {first[0].get('palindromes.centres')} != 47")
    if first[:2] != second[:2]:
        failures.append(f"counters differ between runs: {first[:2]} vs {second[:2]}")
    for binding in (("kbona.verify", "word"), ("kbona.cli", "count_occurrences"),
                    ("kbona.palindromes", "maximal_radii"), ("kbona.words", "word")):
        if binding not in first[2]:
            failures.append(f"{binding[0]}.{binding[1]} was not patched")
    changed = [key for key, value in before.items() if after.get(key) is not value]
    if changed:
        failures.append(f"not restored: {changed}")
    for failure in failures:
        print(f"selftest FAILED: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(f"selftest ok: centres=47, counters repeat {first[0]}, "
          f"{len(before)} bindings restored")
    return 0


if __name__ == "__main__":
    sys.exit(main())
