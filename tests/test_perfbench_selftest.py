"""The benchmark's tracer patches kbona functions by name; its self-test
fails when one of those names is deleted or renamed. The benchmark's
worker calls the library by name too, so one small unit of each of its
runners is run here."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


VERIFY_UNIT = {"k": 3, "n_max": 6}
# The scan oracle holds each word's palindrome lengths to allowed_lengths(k),
# which W_n reaches for k=6 only from n = 16 (59,448 digits).
SCAN_UNIT = {"words": [[3, 8], [6, 16]]}
GEN_UNIT = {"argv": ["gen", "--k", "3", "--n", "6"], "k": 3, "n": 6, "format": "spaced"}


@pytest.mark.parametrize(
    "workload,unit,trace",
    [
        ("verify-sweep", VERIFY_UNIT, False),
        ("verify-sweep", VERIFY_UNIT, True),
        ("scan-long", SCAN_UNIT, False),
        ("gen-long", GEN_UNIT, False),
    ],
)
def test_worker_runs_a_small_unit(tmp_path, workload, unit, trace):
    spans = tmp_path / "spans.jsonl"
    job = {"workload": workload, "unit": unit, "trace": trace, "spans_path": str(spans)}
    env = {k: v for k, v in os.environ.items() if k != "KBONA_MAX_LEN"}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), json.dumps(job)],
        cwd=tmp_path,
        env={**env, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["ops"] and all(op["ok"] for op in result["ops"]), result["ops"]
    assert result["defects"] == []
    assert (result["trace"] is not None) == trace
    assert spans.exists() == trace
