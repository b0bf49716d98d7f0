"""The benchmark's tracer patches kbona functions by name; its self-test
fails when one of those names is deleted or renamed."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_every_scan():
    # The per-layer benchmark counts centres at maximal_radii; a count or
    # classification that scanned without calling it would drop out.
    import kbona.cli  # noqa: F401  loads every module the tracer patches
    from kbona import palindromes, verify, words

    w = words.word(3, 5)
    cuts = verify.decomposition_cuts(3, 5)
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        palindromes.count_occurrences(w, 2)
        palindromes.classify_crossing(w, cuts, 2)
    finally:
        tracer.restore()
    assert tracer.counters["palindromes.centres"] == 2 * 47
