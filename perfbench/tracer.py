"""Span tracer for the benchmark's traced runs.

The tracer wraps the public functions of each kbona layer from outside:
it replaces every binding of a function in every loaded ``kbona`` module
(where it is defined and where another module imported it by name), so
calls made through ``from .palindromes import count_occurrences`` are
seen too. Each call records a span ``[name, start, end, parent]`` in
memory; ``restore`` puts every original back.

A span's self time is its duration minus the durations of its direct
child spans. Calls are strictly nested (one thread), so direct children
never overlap and their durations sum to the covered time.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter

# (owner, attribute, span name): module-level functions are named by
# their defining module; Word methods are looked up on the class.
TARGETS = (
    ("kbona.words", "word", "words.word"),
    ("kbona.words", "apply_morphism", "words.apply_morphism"),
    ("kbona.words", "classical_word", "words.classical_word"),
    ("kbona.words:Word", "__init__", "words.Word.new"),
    ("kbona.words:Word", "to_plain", "words.render"),
    ("kbona.words:Word", "to_spaced", "words.render"),
    ("kbona.palindromes", "maximal_radii", "palindromes.maximal_radii"),
    ("kbona.palindromes", "count_occurrences", "palindromes.count_occurrences"),
    ("kbona.palindromes", "enumerate_maximal", "palindromes.enumerate_maximal"),
    ("kbona.palindromes", "classify_crossing", "palindromes.classify_crossing"),
    ("kbona.palindromes", "distinct_factors", "palindromes.distinct_factors"),
    ("kbona.counting", "p_initial", "counting.p_initial"),
    ("kbona.counting", "b_count", "counting.b_count"),
    ("kbona.counting", "s_count", "counting.s_count"),
    ("kbona.counting", "alpha", "counting.alpha"),
    ("kbona.counting", "p_total", "counting.p_total"),
    ("kbona.structure", "maximal_bordering_word", "structure.maximal_bordering_word"),
    ("kbona.structure", "catalog_elements", "structure.catalog_elements"),
    ("kbona.structure", "maximal_straddling_words", "structure.maximal_straddling_words"),
    ("kbona.structure", "length_set", "structure.length_set"),
    ("kbona.structure", "allowed_lengths", "structure.allowed_lengths"),
    ("kbona.structure", "classify_palindrome", "structure.classify_palindrome"),
    ("kbona.verify", "verify_counts", "verify.counts"),
    ("kbona.verify", "_decomposition_sweep", "verify.decomposition"),
    ("kbona.verify", "verify_decomposition", "verify.decomposition"),
    ("kbona.verify", "verify_structure", "verify.structure"),
    ("kbona.verify", "verify_lemmas", "verify.lemmas"),
    ("kbona.verify", "verify_lengths", "verify.lengths"),
    ("kbona.cli", "main", "cli.main"),
)

# Suite entry points whose returned Report is counted; verify_decomposition
# is left out because the sweep already holds its results.
SUITE_ENTRIES = {"verify_counts", "_decomposition_sweep", "verify_structure",
                 "verify_lemmas", "verify_lengths"}


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = sys.modules[module]
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans and counters for one process; install, run, restore."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        # Distinct inputs, merged across processes by the caller: words
        # scanned as (length, digit hash) -> centres, and (k, n) generated.
        self.scanned: dict[tuple[int, int], int] = {}
        self.words: set[tuple[int, int]] = set()

    def _wrap(self, name: str, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counters[name + ".raised"] += 1
                raise
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # Counter hooks run after the span has closed, so they add to the
    # caller's self time, not to the traced function's.
    def _after_radii(self, args, kwargs, result):
        w = args[0] if args else kwargs["w"]
        centres = max(2 * len(w) - 1, 0)
        self.counters["palindromes.centres"] += centres
        self.scanned[(len(w), hash(w.digits))] = centres

    def _after_crossing(self, args, kwargs, result):
        self.counters["palindromes.occurrences"] += result.total

    def _after_word(self, args, kwargs, result):
        self.counters["words.word.digits"] += len(result)
        bound = dict(zip(("k", "n"), args), **kwargs)
        self.words.add((bound["k"], bound["n"]))

    def _after_suite(self, args, kwargs, result):
        summary = result.summary
        self.counters["verify.checks"] += len(result.results)
        self.counters["verify.skipped"] += summary["Skipped"]
        self.counters["verify.fail"] += summary["Fail"]

    def install(self) -> None:
        hooks = {"maximal_radii": self._after_radii,
                 "classify_crossing": self._after_crossing,
                 "word": self._after_word}
        hooks.update(dict.fromkeys(SUITE_ENTRIES, self._after_suite))
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "kbona" or name.startswith("kbona."))]
        for owner_name, attr, span_name in TARGETS:
            owner = _resolve(owner_name)
            original = vars(owner)[attr]
            wrapped = self._wrap(span_name, original, hooks.get(attr))
            owners = [owner] if ":" in owner_name else modules
            for target in owners:
                for bound, value in list(vars(target).items()):
                    if value is original:
                        self._patches.append((target, bound, original))
                        setattr(target, bound, wrapped)

    def restore(self) -> None:
        while self._patches:
            target, bound, original = self._patches.pop()
            setattr(target, bound, original)

    def patched(self) -> list[tuple[object, str, object]]:
        return list(self._patches)

    def summary(self) -> dict:
        """Per span name: calls, total (inclusive) and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - covered
        return out

    def write_spans(self, path) -> None:
        """Append the spans as JSON lines (name, start, end, parent, pid)."""
        pid = os.getpid()
        with open(path, "a", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent, pid]) + "\n")
