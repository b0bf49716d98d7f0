"""CLI behaviour: output formats, exit codes, JSON round-trips."""

import contextlib
import hashlib
import json
import os
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from kbona import cli, counting, palindromes, structure, verify, words
from kbona.cli import main
from kbona.palindromes import count_occurrences, count_prefix_occurrences
from kbona.verify import default_n_max
from kbona.words import Word, kbonacci_number, reduce_mod_k, word

from oracles import brute_count


@pytest.fixture
def run(capsys, monkeypatch):
    def _run(*argv, env=None):
        for key, value in (env or {}).items():
            monkeypatch.setenv(key, value)
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


def test_gen_plain(run):
    code, out, _ = run("gen", "--k", "3", "--n", "4", "--format", "plain")
    assert code == 0
    assert out.strip() == "0102013010234"


def test_gen_plain_refused_for_big_digits(run, monkeypatch):
    for piece in (words._PIECE, 4):
        # With pieces of 4 digits, the digit 10 at the end of W_10 comes
        # many pieces in; the refusal still comes before any text.
        monkeypatch.setattr(words, "_PIECE", piece)
        code, out, err = run("gen", "--k", "3", "--n", "10", "--format", "plain")
        assert code == 2 and out == ""
        assert "plain" in err


def test_gen_spaced_default(run):
    code, out, _ = run("gen", "--k", "3", "--n", "2")
    assert code == 0
    assert out.strip() == "0 1 0 2"


def test_gen_mod_k(run):
    code, out, _ = run("gen", "--k", "3", "--n", "4", "--mod-k", "--format", "plain")
    assert code == 0
    assert out.strip() == "0102010010201"


def test_gen_json_round_trip(run):
    code, out, _ = run("gen", "--k", "4", "--n", "7", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == 4 and payload["subcommand"] == "gen"
    assert Word(payload["results"][0]["digits"]) == word(4, 7)


@pytest.mark.parametrize("method", ["recurrence", "morphism"])
@pytest.mark.parametrize("mod_k", [False, True])
def test_gen_streams_the_whole_word_rendering(run, method, mod_k):
    # W_20 for k = 3 has 223,317 digits, four pieces of text.
    k, n = 3, 20
    w = word(k, n)
    assert len(w) > 3 * words._PIECE
    if mod_k:
        w = reduce_mod_k(k, w)
    flags = ["--method", method] + (["--mod-k"] if mod_k else [])
    texts = {"spaced": w.to_spaced(), "json": json.dumps(
        {"k": k, "subcommand": "gen",
         "results": [{"n": n, "mod_k": mod_k, "digits": list(w.digits)}]},
        sort_keys=True)}
    assert texts["spaced"] == " ".join(map(str, w.digits))
    if mod_k:
        texts["plain"] = w.to_plain()
        assert texts["plain"] == "".join(map(str, w.digits))
    for fmt, text in texts.items():
        code, out, err = run("gen", "--k", str(k), "--n", str(n), "--format", fmt, *flags)
        assert code == 0 and err == ""
        assert out == text + "\n", fmt


@pytest.mark.parametrize("n", [22, 25])
def test_gen_renders_from_the_plan_without_building_the_word(n):
    # The recurrence reads W_n from its block plan: only the leaf texts
    # and W_17, the largest word inside one piece, are held, about 0.72
    # MB whatever n, where building W_25 would take 1.7 bytes per digit.
    class Discard:
        def write(self, text):
            return len(text)

        def flush(self):
            pass

    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(Discard()):
            code = main(["gen", "--k", "3", "--n", str(n)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 1 << 20


@pytest.mark.parametrize("method", ["recurrence", "morphism"])
@pytest.mark.parametrize("fmt", ["plain", "spaced", "json"])
def test_gen_writes_nothing_before_an_error(run, method, fmt):
    # Each case sets the guard, since the run fixture keeps what it sets.
    refusals = [
        ("100", "|W_12| = f_15 exceeds the length guard 100 (k=3)"),
        ("abc", "KBONA_MAX_LEN must be an integer, got 'abc'"),
    ]
    if fmt == "plain":
        refusals.append((str(words.DEFAULT_MAX_LEN),
                         "plain format is ambiguous for digits > 9; use spaced or json"))
    for guard, message in refusals:
        code, out, err = run("gen", "--k", "3", "--n", "12", "--format", fmt,
                             "--method", method, env={"KBONA_MAX_LEN": guard})
        assert (code, out, err) == (2, "", f"error: {message}\n"), message


@pytest.mark.parametrize("k", range(2, 7))
def test_gen_methods_write_the_same_bytes(run, k):
    # The recurrence renders from the block plan and the morphism from the
    # digits of W_n: the two routes share only the leaf renderer.
    for n in range(3 * k + 3):
        for fmt in ("plain", "spaced", "json"):
            for mod_k in ([], ["--mod-k"]):
                argv = ["gen", "--k", str(k), "--n", str(n), "--format", fmt, *mod_k]
                recurrence = run(*argv, "--method", "recurrence")
                assert recurrence == run(*argv, "--method", "morphism"), argv
                assert recurrence[0] == (2 if fmt == "plain" and not mod_k and n > 9 else 0)


def test_gen_methods(run):
    for method in ("morphism", "recurrence"):
        code, out, _ = run("gen", "--k", "3", "--n", "5", "--method", method,
                           "--format", "plain")
        assert code == 0
        assert out.strip() == "010201301023401020133435"


def test_count_with_oracle(run):
    code, out, _ = run("count", "--k", "4", "--n-max", "10", "--oracle")
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()[1:]]
    assert [int(r[1]) for r in rows] == [0, 0, 1, 5, 14, 24, 44, 88, 173, 336, 655]
    assert all(r[1] == r[2] for r in rows)


def test_count_json(run):
    code, out, _ = run("count", "--k", "3", "--n-max", "8", "--format", "json")
    payload = json.loads(out)
    assert [row["p"] for row in payload["results"]] == [0, 0, 1, 3, 4, 9, 19, 38, 66]


def test_decompose(run):
    code, out, _ = run("decompose", "--k", "4", "--n", "4")
    assert code == 0
    assert "fail=0" in out
    code, out, err = run("decompose", "--k", "4", "--n", "3")
    assert code == 2 and out == ""
    assert err == "error: decomposition requires n >= k, got n=3\n"
    # Decomposition rows are Derived or Oracle, never AsStated, so there
    # is no strict mode to ask for.
    code, out, err = run("decompose", "--k", "4", "--n", "6", "--strict-paper")
    assert code == 2 and out == ""
    assert err.endswith("kbona: error: unrecognized arguments: --strict-paper\n")


def test_structure_listing(run):
    code, out, _ = run("structure", "--k", "3", "--class", "p2", "--i-max", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert any("1 0 2 0 1" in line for line in lines)
    assert any("4 3 5 3 4" in line for line in lines)
    # The JSON listing carries the plain rows' classes and digits.
    code, out, _ = run("structure", "--k", "3", "--class", "p2", "--i-max", "1",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["k"], payload["subcommand"]) == (3, "structure")
    assert [f"{r['class']}\t{' '.join(map(str, r['digits']))}"
            for r in payload["results"]] == lines


def test_no_command_scans_a_word_whole_past_w0(run, monkeypatch):
    # Every word a command builds carries its block plan, whose profile
    # scans only W_0, one digit, and the length sets read the catalog
    # templates' lengths, so no scan reads more than one digit. The
    # templates are built afresh, so none holds a profile from before.
    structure._build_templates.cache_clear()
    scans = []
    whole_scan = palindromes._whole_scan
    monkeypatch.setattr(palindromes, "_whole_scan", lambda ds, lengths: scans.append(
        (len(lengths) + 1) // 2) or whole_scan(ds, lengths))
    for k in range(3, 9):
        for argv in (["verify"], ["lengths"], ["structure", "--i-max", "2"],
                     ["structure", "--classify", "0 1 0"], ["decompose", "--n", str(k + 5)],
                     ["count", "--n-max", "12", "--oracle"]):
            code, _, err = run(*argv, "--k", str(k))
            assert code == 0 and err == "", (k, argv)
    assert scans and set(scans) == {1}


def test_structure_classify(run):
    code, out, _ = run("structure", "--k", "3", "--classify", "343")
    assert code == 0
    assert "p1" in out and "p3" in out
    code, out, _ = run("structure", "--k", "3", "--classify", "0102")
    assert code == 2
    code, out, _ = run("structure", "--k", "3", "--classify", "101")
    assert code == 0
    assert out == "(no catalog membership)\n"
    # Digits on separate lines are separated digits.
    code, lines, _ = run("structure", "--k", "3", "--classify", "3\n4\n3")
    assert code == 0 and lines == run("structure", "--k", "3", "--classify", "343")[1]
    for text, classes in (("343", ["(p1, i=1, n=2)", "(p3, i=1, m=1, double)"]), ("101", [])):
        code, out, _ = run("structure", "--k", "3", "--classify", text, "--format", "json")
        assert code == 0
        assert json.loads(out)["results"] == [
            {"word": [int(d) for d in text], "classes": classes}
        ]


def test_structure_listing_with_digits_past_255(run):
    # The p4 element for i = 40 at k = 10 is the pair 400 400, which
    # keeps the word in the tuple store.
    code, out, _ = run("structure", "--k", "10", "--i-max", "40", "--format", "json")
    assert code == 0
    assert json.loads(out)["results"][-1] == {"class": "(p4, i=40, kk)", "digits": [400, 400]}


def test_verify_lemmas_with_digits_past_255(run):
    # At k = 42, power commutation shifts 0 1 ... 6 by up to 6k = 252,
    # which sends digits past 255 through the tuple store of shift_add
    # and apply_morphism.
    code, out, _ = run("verify", "--k", "42", "--suite", "lemmas")
    assert code == 0
    assert "suite lemmas: pass=85 fail=0 " in out
    code, out, _ = run("verify", "--k", "42", "--suite", "lemmas", "--format", "json")
    rows = json.loads(out)["results"][0]["results"]
    assert [r["verdict"] for r in rows if r["check"] == "power-commutation"] == ["Pass"]


def test_lengths(run):
    code, out, _ = run("lengths", "--k", "3")
    assert code == 0
    assert out.strip() == "2 3 5 7 9"
    code, out, _ = run("lengths", "--k", "3", "--mode", "as-stated")
    assert out.strip() == "2 3 5 7 9 11"
    for mode, lengths in (("derived", [2, 3, 5, 7, 9]), ("as-stated", [2, 3, 5, 7, 9, 11])):
        code, out, _ = run("lengths", "--k", "3", "--mode", mode, "--format", "json")
        assert code == 0
        assert json.loads(out) == {"k": 3, "subcommand": "lengths",
                                   "results": [{"mode": mode, "lengths": lengths}]}


def test_verify_exit_codes(run):
    code, _, _ = run("verify", "--k", "4", "--suite", "counts")
    assert code == 0
    code, _, _ = run("verify", "--k", "4", "--suite", "counts", "--strict-paper")
    assert code == 1
    # With the guard one digit short of W_26 for k = 8, the lengths suite
    # is past it: it is reported as Skipped and the run still succeeds.
    guard = str(kbonacci_number(8, 26 + 8) - 1)
    code, out, err = run("verify", "--k", "8", "--n-max", "8", env={"KBONA_MAX_LEN": guard})
    assert code == 0 and err == ""
    assert "suite lengths: pass=0 fail=0 discrepancy=0 skipped=1" in out
    assert out.count("suite ") == 5


def test_verify_exits_1_on_a_planted_fail(run, monkeypatch):
    # A derived closed form one too large fails its row: exit 1, with or
    # without --strict-paper.
    closed = counting.alpha_border_closed
    monkeypatch.setattr(counting, "alpha_border_closed", lambda k, n: closed(k, n) + 1)
    for strict in ((), ("--strict-paper",)):
        code, out, err = run("verify", "--k", "4", "--suite", "counts", *strict)
        assert code == 1 and err == ""
        assert "[Fail] alpha-closed k=4 n=4: expected 9 (Derived), got 8" in out


def test_count_oracle_exits_1_on_a_planted_mismatch(run, monkeypatch):
    # The scan reads one more at W_4, the prefix of 13 digits of W_5 for
    # k = 3, and one more at W_5 itself, counted whole.
    monkeypatch.setattr(cli, "count_prefix_occurrences",
                        lambda w, size: count_prefix_occurrences(w, size) + (size == 13))
    code, out, _ = run("count", "--k", "3", "--n-max", "5", "--oracle")
    assert code == 1
    rows = [line.split("\t") for line in out.strip().splitlines()[1:]]
    assert [r for r in rows if r[1] != r[2]] == [["4", "4", "5"]]
    monkeypatch.undo()
    monkeypatch.setattr(cli, "count_occurrences",
                        lambda w: count_occurrences(w) + (len(w) == 24))
    code, out, _ = run("count", "--k", "3", "--n-max", "5", "--oracle")
    assert code == 1
    rows = [line.split("\t") for line in out.strip().splitlines()[1:]]
    assert [r for r in rows if r[1] != r[2]] == [["5", "9", "10"]]


def test_count_oracle_checks_the_guard_before_the_series(run, monkeypatch):
    calls = []
    series = counting.p_series
    monkeypatch.setattr(counting, "p_series", lambda *args: calls.append(args) or series(*args))
    code, out, err = run("count", "--k", "3", "--n-max", "1000000", "--oracle")
    assert code == 2 and out == ""
    assert err.startswith("error: |W_1000000| = f_1000003 exceeds the length guard")
    assert calls == []


@pytest.fixture
def int_str_limit_4300():
    """The interpreter's default limit on the digits of a printed int."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


def test_count_prints_p_up_to_the_int_str_limit(run, int_str_limit_4300):
    # P(16249) for k = 3 has 4,300 digits, the most that may be printed.
    p = counting.p_total(3, 16249)
    code, out, err = run("count", "--k", "3", "--n-max", "16249")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 16251 and lines[-1] == f"16249\t{p}"


@pytest.mark.parametrize("k,n", [(3, 16250), (4, 15088), (8, 14324)])
def test_count_refuses_a_p_too_long_to_print(run, int_str_limit_4300, k, n):
    # The first n whose P(n) has more than 4,300 digits: exit 2, no row.
    assert len(str(counting.p_total(k, n - 1))) <= 4300
    for fmt in ("plain", "json"):
        code, out, err = run("count", "--k", str(k), "--n-max", str(n), "--format", fmt)
        assert code == 2 and out == ""
        assert err == (f"error: P({n}) has more than 4300 digits, past the limit for "
                       "printing an integer (sys.get_int_max_str_digits)\n")


def test_count_refuses_a_long_series_before_computing_it(run, monkeypatch, int_str_limit_4300):
    calls = []
    series = counting.p_series
    monkeypatch.setattr(counting, "p_series", lambda *args: calls.append(args) or series(*args))
    start = time.perf_counter()
    code, out, err = run("count", "--k", "3", "--n-max", "1000000", "--format", "json")
    assert time.perf_counter() - start < 2
    assert code == 2 and out == "" and err.startswith("error: P(1000000) has more than 4300")
    assert calls == []


@pytest.mark.parametrize("mode", list(counting.FormulaMode))
def test_p_grows_at_least_as_fibonacci(mode):
    # The bound the count refusal reads: P(n) >= P(n-1) + P(n-2), n >= 3.
    for k in range(3, 41):
        p = counting.p_series(k, 400, mode)
        assert all(p[n] >= p[n - 1] + p[n - 2] for n in range(3, 401)), k


@pytest.mark.parametrize("k", [3, 4, 5])
def test_count_oracle_equals_brute_counts(run, k):
    # Every P(n), read from the one W_{n_max}, equals the brute count of
    # W_n built alone, in plain and JSON output.
    n_max = k + 4
    series = counting.p_series(k, n_max, counting.FormulaMode.DERIVED)
    brute = [brute_count(word(k, n), 2) for n in range(n_max + 1)]
    assert brute == series
    code, out, _ = run("count", "--k", str(k), "--n-max", str(n_max), "--oracle")
    assert code == 0
    assert out == "n\tp\toracle\n" + "".join(
        f"{n}\t{p}\t{b}\n" for n, (p, b) in enumerate(zip(series, brute)))
    code, out, _ = run("count", "--k", str(k), "--n-max", str(n_max), "--oracle",
                       "--format", "json")
    assert code == 0
    assert out == json.dumps({"k": k, "subcommand": "count", "results": [
        {"n": n, "oracle": b, "p": p} for n, (p, b) in enumerate(zip(series, brute))]},
        sort_keys=True) + "\n"


def test_verify_reports_every_suite_when_one_raises(run, monkeypatch):
    def faulty(k, n_max):
        raise KeyError("planted")

    monkeypatch.setitem(verify.SUITES, "structure", faulty)
    reports = verify.run_suites(3, 6)
    assert [r.suite for r in reports] == list(verify.SUITES)
    by_suite = {r.suite: r for r in reports}
    (row,) = by_suite.pop("structure").results
    assert (row.check_id, row.verdict) == (verify.RAISED, verify.FAIL)
    assert row.actual == "KeyError: 'planted'"
    assert all(r.ok and not r.raised and r.results for r in by_suite.values())
    code, out, err = run("verify", "--k", "3", "--n-max", "6")
    assert code == 2 and err == ""
    assert out.count("suite ") == 5
    assert "[Fail] suite-raised k=3: expected no exception (Oracle), " \
           "got KeyError: 'planted'" in out
    code, out, _ = run("verify", "--k", "3", "--n-max", "6", "--format", "json")
    assert code == 2
    assert [r["suite"] for r in json.loads(out)["results"]] == list(verify.SUITES)


def test_verify_json_schema(run):
    code, out, _ = run("verify", "--k", "3", "--suite", "lengths", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == 3 and payload["subcommand"] == "verify"
    suite = payload["results"][0]
    assert suite["summary"]["Fail"] == 0
    assert any(r["verdict"] == "Discrepancy-Documented" for r in suite["results"])


def test_verify_json_names_the_resolved_n_max_of_a_guarded_suite(run):
    # Under a guard of 1000 digits only lengths (W_11, 927 digits) runs at
    # k = 3; the four suites past it still name the default n_max.
    code, out, _ = run("verify", "--k", "3", "--format", "json", env={"KBONA_MAX_LEN": "1000"})
    assert code == 0
    skipped = [r for r in json.loads(out)["results"] if r["summary"]["Skipped"]]
    assert [r["suite"] for r in skipped] == ["counts", "decomposition", "structure", "lemmas"]
    assert all(r["params"] == {"k": 3, "n_max": default_n_max(3)} for r in skipped)


def test_usage_errors(run):
    code, _, _ = run("gen", "--k", "1", "--n", "2")
    assert code == 2
    code, _, _ = run("verify", "--k", "2", "--suite", "counts")
    assert code == 2
    code, _, _ = run("gen", "--k", "3")
    assert code == 2
    code, _, _ = run("nonsense")
    assert code == 2
    for command in ("count", "verify"):
        code, out, err = run(command, "--k", "3", "--n-max", "-1")
        assert code == 2
        assert "--n-max" in err and out == ""


def test_max_len_env_guard(run):
    code, _, err = run("gen", "--k", "3", "--n", "12", env={"KBONA_MAX_LEN": "100"})
    assert code == 2
    assert "guard" in err
    # Far past the guard, the guard trips before any digit could overflow.
    code, _, err = run("gen", "--k", "3", "--n", "200")
    assert code == 2
    assert "guard" in err
    # A guard that is not positive names itself, not the word it refuses.
    for raw in ("-1", "0"):
        code, out, err = run("gen", "--k", "3", "--n", "0", env={"KBONA_MAX_LEN": raw})
        assert code == 2 and out == ""
        assert f"KBONA_MAX_LEN must be a positive integer, got {raw}" in err


def test_catalog_guard_holds_for_its_longest_word(run, monkeypatch):
    # At k=7 the longest word the catalog build makes is the P4 triple,
    # 3|W_6| - 3 = 189 digits: no join of the build is longer, and a guard
    # one below it refuses both commands that read the catalog.
    joins, add = [], Word.__add__

    def recorded(self, other):
        joins.append(len(self) + len(other))
        return add(self, other)

    monkeypatch.setattr(Word, "__add__", recorded)
    structure._build_templates.cache_clear()
    structure._templates(7)
    assert max(joins) == 189
    for argv in (("lengths", "--k", "7"), ("structure", "--k", "7")):
        code, out, err = run(*argv, env={"KBONA_MAX_LEN": "188"})
        assert code == 2 and out == "", argv
        assert "the P4 triple of 189 digits exceeds the length guard 188 (k=7)" in err
        assert run(*argv, env={"KBONA_MAX_LEN": "189"})[0] == 0, argv


def test_max_len_env_guard_holds_for_every_subcommand(run):
    # The catalog templates are cached per k. Building them under the
    # default guard first shows that a guard lowered later still holds.
    catalog_runs = (("structure", "--k", "5"), ("lengths", "--k", "5"))
    for argv in catalog_runs:
        assert run(*argv)[0] == 0, argv
    env = {"KBONA_MAX_LEN": "10"}
    code, out, err = run("decompose", "--k", "3", "--n", "6", env=env)
    assert code == 2 and out == ""
    assert "exceeds the length guard 10" in err
    for argv in catalog_runs:
        code, out, err = run(*argv, env={"KBONA_MAX_LEN": "3"})
        assert code == 2 and out == "", argv
        assert "exceeds the length guard 3" in err
    # Every suite builds a word past the guard, and each reports it.
    code, out, err = run("verify", "--k", "3", "--n-max", "6", env=env)
    assert code == 0 and err == ""
    assert out.count("pass=0 fail=0 discrepancy=0 skipped=1") == 5
    assert out.count("exceeds the length guard 10") == 5
    # A guard that is not an integer stops every subcommand that builds
    # a word, with exit 2 and a message naming the variable.
    for argv in (
        ("gen", "--k", "3", "--n", "2"),
        ("count", "--k", "3", "--n-max", "2", "--oracle"),
        ("decompose", "--k", "3", "--n", "3"),
        ("structure", "--k", "5"),
        ("lengths", "--k", "5"),
        ("verify", "--k", "3", "--n-max", "3"),
    ):
        code, out, err = run(*argv, env={"KBONA_MAX_LEN": "abc"})
        assert code == 2 and out == "", argv
        assert "KBONA_MAX_LEN must be an integer, got 'abc'" in err, argv


def test_deterministic_output(run):
    a = run("verify", "--k", "3", "--suite", "counts", "--n-max", "6")
    b = run("verify", "--k", "3", "--suite", "counts", "--n-max", "6")
    assert a == b


def test_gen_long_digests_match_benchmark(run):
    # The benchmark's gen-long commands, with the sha256 of each stdout
    # recorded in perfbench/expected.json; the file is only read here.
    expected = json.loads(
        (Path(__file__).resolve().parent.parent / "perfbench" / "expected.json").read_text()
    )["gen-long"]
    assert len(expected) == 3
    for command, digest in expected.items():
        code, out, err = run(*shlex.split(command))
        assert code == 0, (command, err)
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command


def _readme_cli_lines():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("kbona ")]


def test_readme_cli_examples_run(run):
    lines = _readme_cli_lines()
    assert len(lines) >= 10
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        code, _, err = run(*argv)
        assert code == (1 if "--strict-paper" in argv else 0), (line, err)


def test_gen_into_a_closed_pipe_exits_quietly():
    # W_22 for k = 3 is 2.8 MB of text, far past a pipe's buffer, so gen
    # is still writing when the reader closes its end after 20 bytes.
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.Popen(
        [sys.executable, "-m", "kbona.cli", "gen", "--k", "3", "--n", "22"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.stdout.read(20) == b"0 1 0 2 0 1 3 0 1 0 "
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert "Traceback" not in err, err


def test_import_loads_neither_dataclasses_nor_inspect():
    # The result records are NamedTuples and slotted classes, so start-up
    # imports neither module (inspect comes in with dataclasses).
    root = Path(__file__).resolve().parent.parent
    probe = "import sys, kbona.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
    ).stdout
    assert out.strip() == "[]"
