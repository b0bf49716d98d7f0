"""`kbona verify` and `kbona decompose` output, pinned by digest.

tests/verify_digests.json holds, for each K = 3..8, the SHA-256 of the
plain output of `kbona verify --k K` and of its `--format json` output
with each suite's `wall_time` removed. tests/decompose_digests.json
holds the same two digests of `kbona decompose --k K --n N` for each
K = 3..7 and N = K..16. A change that alters this output on purpose
rewrites both files with `PYTHONPATH=src python3
tests/test_verify_digests.py` and says so in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from kbona.cli import main

HERE = Path(__file__).resolve().parent
VERIFY_DIGESTS = HERE / "verify_digests.json"
DECOMPOSE_DIGESTS = HERE / "decompose_digests.json"
DECOMPOSE_N_MAX = 16


def _output(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(list(argv))
    return out.getvalue()


def _digests(*argv: str) -> dict[str, str]:
    """The digests of the plain and the timeless JSON output of argv."""
    plain = _output(*argv)
    payload = json.loads(_output(*argv, "--format", "json"))
    for report in payload["results"]:
        del report["wall_time"]
    timeless = json.dumps(payload, sort_keys=True)
    return {
        "plain": hashlib.sha256(plain.encode()).hexdigest(),
        "json": hashlib.sha256(timeless.encode()).hexdigest(),
    }


def verify_digests(k: int) -> dict[str, str]:
    """The two digests of `kbona verify --k k`."""
    return _digests("verify", "--k", str(k))


def decompose_digests(k: int) -> dict[str, dict[str, str]]:
    """The two digests of `kbona decompose --k k --n n`, keyed by n."""
    return {str(n): _digests("decompose", "--k", str(k), "--n", str(n))
            for n in range(k, DECOMPOSE_N_MAX + 1)}


def test_verify_output_matches_pinned_digests():
    expected = json.loads(VERIFY_DIGESTS.read_text())
    assert sorted(expected) == [str(k) for k in range(3, 9)]
    for k, digests in expected.items():
        assert verify_digests(int(k)) == digests, f"k={k}"


def test_decompose_output_matches_pinned_digests():
    expected = json.loads(DECOMPOSE_DIGESTS.read_text())
    assert sorted(expected) == [str(k) for k in range(3, 8)]
    for k, digests in expected.items():
        assert decompose_digests(int(k)) == digests, f"k={k}"


if __name__ == "__main__":
    for path, digests, ks in ((VERIFY_DIGESTS, verify_digests, range(3, 9)),
                              (DECOMPOSE_DIGESTS, decompose_digests, range(3, 8))):
        path.write_text(json.dumps({str(k): digests(k) for k in ks}, indent=2) + "\n")
