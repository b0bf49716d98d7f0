"""End-to-end and per-layer benchmark for kbona.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs the three workloads in turn, each ending with its
own result line.

The program is run from the checkout's ``src`` as it is; nothing is
installed. Each kbona invocation runs in a fresh interpreter
(``perfbench/worker.py``), as it would from a user's shell, so no module
cache (``word``'s lru_cache, the structure templates) carries over from
one invocation to the next. The load is one process with one thread at a
time (closed loop, one client); the parent only waits.

Workloads. Inputs are fixed by (k, n); the seed only shuffles the order
of operations within a run (the order of k in verify-sweep and
scan-long, the order of commands in gen-long), so effects that depend
on order or on caches show up on a second seed. A run repeats the
workload for ``--seconds`` (at least twice), each iteration rotating the
seeded order by one.

* ``verify-sweep``: every suite (counts, decomposition, structure,
  lemmas, lengths) for k = 3..7, one fresh interpreter per k, 25
  operations, with ``n_max`` pinned to the defaults of the seed commit
  (17 for k=3, 16 for k=4..7) so that changing the defaults does not
  silently change this workload. Chosen because it is what
  ``kbona verify`` users run: many small words (at most 63k digits),
  heavy ``Word`` construction, and the only workload that reaches
  ``structure`` and ``counting``. At the seed commit ``verify_lengths(7)``
  refuses k > 6 at the default guard; the benchmark records the refusal
  as a known defect and then runs ``verify_lengths(7)`` with the length
  guard passed explicitly, which is the work the suite does once the
  refusal is lifted. The operation counts as failed only if that raises.
* ``scan-long``: one fresh interpreter generates W_22 for k=3 (755,476
  digits) and W_20 for k=6 (920,319 digits) and runs ``maximal_radii``,
  ``count_occurrences(w, 2)``, ``classify_crossing`` over the
  decomposition cuts and ``distinct_factors(w, 2)`` on each. Chosen
  because scan and classification cost per digit only shows on words
  much larger than the CPU caches; the k=6 word has 5 cuts, which makes
  per-occurrence classification its largest single cost.
* ``gen-long``: three CLI commands, each in a fresh interpreter, output
  to a null sink: ``gen --k 3 --n 25`` (4,700,770 digits spaced),
  ``gen --k 3 --n 25 --mod-k --format plain`` and
  ``gen --k 3 --n 22 --method morphism``. Chosen because it runs only
  ``words`` and output rendering, never ``palindromes``: it produces
  the words scan-long only reads, and it exposes the memory cost of
  the tuple-of-int digits.

End-to-end metrics (``--trace 0``):

* ``wall_s``: the sum over operations of each operation's median time
  across the iterations of the run; interpreter start and import are
  left out.
* ``setup_s``: median wall time of fresh interpreters that
  ``import kbona.cli`` and call ``build_parser()``, launched in batches
  of five before and after every iteration.
* ``peak_rss_mb``: the largest ``ru_maxrss`` of the run's workload
  processes, taken before their oracle checks.

The error rate (failed / attempted operations) is printed and carried by
the ``attempted`` and ``failed`` fields of the result line. An operation
fails if it raises or if its output fails its oracle check.

Per-layer metrics (``--trace 1``) come from a traced iteration: the
tracer (``perfbench/tracer.py``) wraps the public functions of
``words``, ``palindromes``, ``counting``, ``structure``, ``verify`` and
``cli`` from outside and records spans, which are written to
``.perfbench/`` in the checkout when the run ends. The same order is
first run untraced; ``trace.overhead_s`` is traced minus untraced
wall time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"

# A worker may take at most this long; the whole run must end in 180 s.
WORKER_TIMEOUT_S = 150
# Set-up probes run in batches before and after every iteration, so that
# their median spans the whole run rather than its first second.
SETUP_BATCH = 5
SETUP_CODE = "import kbona.cli; kbona.cli.build_parser()"

VERIFY_N_MAX = {3: 17, 4: 16, 5: 16, 6: 16, 7: 16}
SCAN_WORDS = [[3, 22], [6, 20]]
GEN_COMMANDS = [
    {"argv": ["gen", "--k", "3", "--n", "25"], "k": 3, "n": 25, "format": "spaced"},
    {"argv": ["gen", "--k", "3", "--n", "25", "--mod-k", "--format", "plain"],
     "k": 3, "n": 25, "format": "plain", "route": "classical"},
    {"argv": ["gen", "--k", "3", "--n", "22", "--method", "morphism"],
     "k": 3, "n": 22, "format": "spaced", "route": "recurrence"},
]


def _order(workload: str, seed: int) -> list:
    """The workload's items (a k, a word, a command) in the seeded order."""
    items = {
        "verify-sweep": [{"k": k, "n_max": n_max} for k, n_max in VERIFY_N_MAX.items()],
        "scan-long": [list(pair) for pair in SCAN_WORDS],
        "gen-long": list(GEN_COMMANDS),
    }[workload]
    random.Random(seed).shuffle(items)
    return items


def _units(workload: str, items: list, i: int) -> list[dict]:
    """The worker units of iteration i: the seeded order rotated by i, so
    that a run of two or more iterations puts a different item first each
    time. scan-long runs its words in one process, so that the second
    word meets the first one's cache as in a library caller; the other
    workloads run one process per item."""
    i %= len(items)
    items = items[i:] + items[:i]
    return [{"words": items}] if workload == "scan-long" else items


WORKLOADS = ("verify-sweep", "scan-long", "gen-long")


class BenchError(RuntimeError):
    """The harness itself could not run (not an operation failure)."""


def _env() -> dict:
    # A user's KBONA_MAX_LEN would change what gen may build; string hashes
    # are fixed so that set orders repeat from run to run.
    env = {k: v for k, v in os.environ.items() if k not in ("KBONA_MAX_LEN", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(job: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker for {job['workload']} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _iteration(workload: str, units: list[dict], trace: bool, spans_path) -> list[dict]:
    return [_spawn({"workload": workload, "unit": unit, "trace": trace,
                    "spans_path": str(spans_path)}) for unit in units]


def _setup_seconds() -> list[float]:
    env = dict(_env(), PYTHONPATH=str(SRC))
    out = []
    for _ in range(SETUP_BATCH):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, timeout=WORKER_TIMEOUT_S)
        out.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr.decode().strip()}")
    return out


def _expected_digests() -> dict:
    return json.loads((HERE / "expected.json").read_text())["gen-long"]


def _check_gen(results: list[dict], refs: dict) -> None:
    """Compare each gen-long output with the digest recorded at the seed
    commit and, where one exists, with the independent-route reference."""
    recorded = _expected_digests()
    for r in results:
        op = r["ops"][0]
        digest = r["facts"]["digest"]
        if op["ok"] and digest != recorded[op["key"]]:
            op["ok"], op["error"] = False, "output digest differs from the seed commit"
        if op["ok"] and op["key"] in refs and digest != refs[op["key"]]:
            op["ok"], op["error"] = False, "output differs from the independent route"


def _gen_references() -> dict:
    refs = [{"key": " ".join(c["argv"]), "route": c["route"], "k": c["k"],
             "n": c["n"], "format": c["format"]} for c in GEN_COMMANDS if "route" in c]
    return _spawn({"workload": "reference", "unit": {"refs": refs}, "trace": False,
                   "spans_path": ""})["facts"]["refs"]


def _ops(iterations: list[list[dict]]) -> list[dict]:
    return [op for results in iterations for r in results for op in r["ops"]]


def _wall(iterations: list[list[dict]]) -> float:
    """Sum over operations of the median of that operation's times."""
    times = defaultdict(list)
    for op in _ops(iterations):
        times[op["key"]].append(op["seconds"])
    return sum(statistics.median(v) for v in times.values())


def _report_ops(workload: str, iterations):
    if workload == "gen-long":
        refs = _gen_references()
        for results in iterations:
            _check_gen(results, refs)
    ops = _ops(iterations)
    failed = [op for op in ops if not op["ok"]]
    defects = sorted({d for results in iterations for r in results for d in r["defects"]})
    for op in failed:
        print(f"FAILED {op['key']}: {op['error']}")
    for d in defects:
        print(f"known defect: {d}")
    print(f"error_rate: {len(failed)}/{len(ops)} operations "
          f"= {len(failed) / len(ops):.4f}")
    return len(ops), len(failed)


def _measure(workload: str, seed: int, seconds: float):
    order = _order(workload, seed)
    iterations, setup = [], []
    start = time.perf_counter()
    # At least two iterations, so that each operation has a median of two
    # samples; then more while another one fits in the measuring time.
    while True:
        setup += _setup_seconds()
        began = time.perf_counter()
        units = _units(workload, order, len(iterations))
        iterations.append(_iteration(workload, units, False, ""))
        now = time.perf_counter()
        if len(iterations) >= 2 and now - start + (now - began) > seconds:
            break
    setup += _setup_seconds()
    attempted, failed = _report_ops(workload, iterations)
    rss_mb = max(r["rss_kb"] for results in iterations for r in results) / 1024
    values = {"wall_s": _wall(iterations), "setup_s": statistics.median(setup),
              "peak_rss_mb": rss_mb}
    notes = {
        "wall_s": f"per-operation medians of {len(iterations)} iterations, summed",
        "setup_s": f"median of {len(setup)} launches",
        "peak_rss_mb": f"largest of {sum(map(len, iterations))} processes",
    }
    return attempted, failed, values, notes


def _per_layer(spans: dict, counters: Counter, words: set, scanned: dict) -> dict:
    def span(name, field="self_s"):
        return spans.get(name, {}).get(field, 0)

    def layer(prefix, field="self_s"):
        return sum(v[field] for k, v in spans.items() if k.startswith(prefix + "."))

    centres = counters["palindromes.centres"]
    radii_s = span("palindromes.maximal_radii", "total_s")
    word_calls = span("words.word", "calls")
    distinct_centres = sum(scanned.values())
    out = {
        "palindromes.maximal_radii.self_s": span("palindromes.maximal_radii"),
        "palindromes.centres": centres,
        "palindromes.centres_per_s": centres / radii_s if radii_s else 0,
        "palindromes.scan_repeat": centres / distinct_centres if distinct_centres else 0,
        "palindromes.classify_crossing.self_s": span("palindromes.classify_crossing"),
        "palindromes.occurrences": counters["palindromes.occurrences"],
        "palindromes.distinct_factors.self_s": span("palindromes.distinct_factors"),
        "palindromes.calls": layer("palindromes", "calls"),
        "words.word.calls": word_calls,
        "words.word.repeat": word_calls / len(words) if words else 0,
        "words.word.self_s": span("words.word"),
        "words.word.digits": counters["words.word.digits"],
        "words.Word.new": span("words.Word.new", "calls"),
        "words.Word.new_s": span("words.Word.new", "total_s"),
        "words.apply_morphism.self_s": span("words.apply_morphism"),
        "words.classical_word.self_s": span("words.classical_word"),
        "words.render.self_s": span("words.render"),
        "structure.self_s": layer("structure"),
        "structure.calls": layer("structure", "calls"),
        "structure.classify_palindrome.calls": span("structure.classify_palindrome", "calls"),
        "counting.self_s": layer("counting"),
        "counting.calls": layer("counting", "calls"),
    }
    for suite in ("counts", "decomposition", "structure", "lemmas", "lengths"):
        out[f"verify.{suite}.self_s"] = span(f"verify.{suite}")
    out.update({
        "verify.calls": layer("verify", "calls"),
        "verify.checks": counters["verify.checks"],
        "verify.skipped": counters["verify.skipped"],
        "verify.fail": counters["verify.fail"],
        "verify.raised": sum(v for k, v in counters.items()
                             if k.startswith("verify.") and k.endswith(".raised")),
        "cli.self_s": span("cli.main"),
    })
    return out


def _trace(workload: str, seed: int):
    selftest = subprocess.run([sys.executable, str(HERE / "selftest.py")], cwd=ROOT,
                              capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    print(selftest.stdout.strip())
    if selftest.returncode != 0:
        raise BenchError(f"tracer self-test failed:\n{selftest.stderr.strip()}")
    TRACE_DIR.mkdir(exist_ok=True)
    spans_path = TRACE_DIR / f"spans-{workload}-seed{seed}.jsonl"
    spans_path.unlink(missing_ok=True)
    units = _units(workload, _order(workload, seed), 0)
    untraced = _iteration(workload, units, False, "")
    traced = _iteration(workload, units, True, spans_path)
    attempted, failed = _report_ops(workload, [untraced, traced])

    spans: dict[str, dict] = {}
    counters: Counter = Counter()
    words, scanned = set(), {}
    for r in traced:
        for name, agg in r["trace"]["spans"].items():
            into = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for field, value in agg.items():
                into[field] += value
        counters.update(r["trace"]["counters"])
        words.update(map(tuple, r["trace"]["words"]))
        scanned.update((tuple(key), c) for key, c in r["trace"]["scanned"])
    values = _per_layer(spans, counters, words, scanned)
    traced_wall, untraced_wall = _wall([traced]), _wall([untraced])
    values["trace.wall_s"] = traced_wall
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    print(f"spans written to {spans_path.relative_to(ROOT)}")
    return attempted, failed, values, {}


def _run(workload: str, args, spec: dict) -> bool:
    try:
        if args.trace:
            attempted, failed, values, notes = _trace(workload, args.seed)
        else:
            attempted, failed, values, notes = _measure(workload, args.seed, args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return False
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    for name, m in metrics.items():
        note = f" ({notes[name]})" if name in notes else ""
        print(f"{workload} {name} = {m['value']:.6g} {m['unit']}{note}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                        help="one workload, or all three in turn (one result line each)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kbona" / "cli.py").is_file():
        print(f"error: no kbona sources under {SRC}", file=sys.stderr)
        return 2
    # Metric names and units come from BENCHMARK.json, the one list of
    # what a run reports.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    return 0 if all([_run(name, args, spec) for name in names]) else 1


if __name__ == "__main__":
    sys.exit(main())
