"""`kbona verify --k K` output, pinned by digest for K = 3..8.

tests/verify_digests.json holds, for each K, the SHA-256 of the plain
output and of the `--format json` output with each suite's `wall_time`
removed. A change that alters this output on purpose rewrites the file
with `PYTHONPATH=src python3 tests/test_verify_digests.py >
tests/verify_digests.json` and says so in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from kbona.cli import main

DIGESTS = Path(__file__).resolve().parent / "verify_digests.json"


def _verify_output(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["verify", *argv])
    return out.getvalue()


def verify_digests(k: int) -> dict[str, str]:
    """The two digests of `kbona verify --k k`."""
    plain = _verify_output("--k", str(k))
    payload = json.loads(_verify_output("--k", str(k), "--format", "json"))
    for report in payload["results"]:
        del report["wall_time"]
    timeless = json.dumps(payload, sort_keys=True)
    return {
        "plain": hashlib.sha256(plain.encode()).hexdigest(),
        "json": hashlib.sha256(timeless.encode()).hexdigest(),
    }


def test_verify_output_matches_pinned_digests():
    expected = json.loads(DIGESTS.read_text())
    assert sorted(expected) == [str(k) for k in range(3, 9)]
    for k, digests in expected.items():
        assert verify_digests(int(k)) == digests, f"k={k}"


if __name__ == "__main__":
    json.dump({str(k): verify_digests(k) for k in range(3, 9)}, sys.stdout, indent=2)
    print()
