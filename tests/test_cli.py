import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dedstar import moore, stars, verify
from dedstar.cli import SUITES, InputError, main, parse_vector_inline
from dedstar.extvec import ZERO
from dedstar.moore import is_moore, family_from_record
from dedstar.rationals import is_prime


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_console(argv, stdout=subprocess.PIPE, timeout=120):
    """``python -m dedstar.cli`` as a real process, this checkout's ``src`` first."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "dedstar.cli", *argv],
                          stdout=stdout, stderr=subprocess.PIPE, env=env,
                          timeout=timeout)


#: Deeper than Python's recursion limit, even as Hypothesis raises it while
#: its tests run.
DEEP = 100000
DEEP_RECORD = "{n:2,members:" + "[" * DEEP + "]" * DEEP + "}"
DEEP_LIST = "[" * DEEP + "]" * DEEP


#: The 78 primes below 400: more than ``moore.GROUND_SET_GUARD``.
PRIMES_BELOW_400 = ",".join(str(p) for p in range(2, 400) if is_prime(p))


class TestCount:
    def test_small_counts(self, capsys):
        for n, expected in ((1, "2"), (2, "7"), (3, "61"), (4, "2480"),
                            (5, "1385552")):
            code, out, _ = run(capsys, "count", str(n))
            assert code == 0 and out.strip() == expected

    @pytest.mark.parametrize("argv", [
        ("count", "6"),
        ("verify", "finite-type", "6"),
        ("enumerate", str(10 ** 20)),
    ])
    def test_guard_refusal(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.count("refused") == 1 and "force" not in err

    def test_guard_refusal_names_the_search(self, capsys):
        """``count 6`` enumerates nothing, so its refusal names the family
        search, not an enumeration."""
        code, out, err = run(capsys, "count", "6")
        assert code == 2 and out == ""
        assert err.startswith("refused: ") and err.count("\n") == 1
        assert "family search" in err and "enumeration" not in err

    @pytest.mark.parametrize("argv", [
        ("count", "0"),
        ("enumerate", "0"),
        ("enumerate", "0", "--count-only"),
        ("verify", "finite-type", "0"),
        ("hasse", "0"),
        ("star", "d-of", "--n", "0"),
        ("verify", "table1", "--max-n", "0"),
        ("verify", "axioms", "--max-n", "0"),
        ("verify", "oracles", "--trials", "-1"),
        ("verify", "axioms", "--trials", "0"),
        ("count", "6", "--force"),              # removed flags are unknown options
        ("enumerate", "3", "--count-only"),
    ])
    def test_empty_spectrum_is_malformed_input(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 4 and out == ""
        assert "Traceback" not in err


class TestEnumerate:
    def test_records_reparse(self, capsys):
        for n, count in ((2, 7), (4, 2480)):
            code, out, _ = run(capsys, "enumerate", str(n))
            assert code == 0
            lines = out.strip().splitlines()
            assert len(lines) == count
            for line in lines:
                record = json.loads(line)
                fam = family_from_record(record)
                assert is_moore(fam.members, n)

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "enumerate", "3")
        _, second, _ = run(capsys, "enumerate", "3")
        assert first == second

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "families.jsonl"
        code, out, _ = run(capsys, "enumerate", "2", "--out", str(path))
        assert code == 0 and out == ""
        assert len(path.read_text().strip().splitlines()) == 7
        code, out, _ = run(capsys, "enumerate", "4")
        assert code == 0
        code, _, _ = run(capsys, "enumerate", "4", "--out", str(path))
        assert code == 0
        assert path.read_bytes() == out.encode()

    def test_n5_stream_digest(self, monkeypatch):
        """The n = 5 stream, byte for byte, as the seed release wrote it."""
        digest = hashlib.sha256()

        class HashingStdout:
            def write(self, text):
                digest.update(text.encode())
                return len(text)

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", HashingStdout())
        assert main(["enumerate", "5"]) == 0
        assert digest.hexdigest() == (
            "413489138a583c941b48ccc75f847b46642a9ec561d5b7fd320324a98130ac98")

    def test_refusal_keeps_out_file(self, capsys, tmp_path):
        path = tmp_path / "families.jsonl"
        path.write_bytes(b"kept\n")
        code, out, _ = run(capsys, "enumerate", "6", "--out", str(path))
        assert code == 2 and out == ""
        assert path.read_bytes() == b"kept\n"

    def test_io_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "enumerate", "2", "--out",
                           str(tmp_path / "nope" / "x.jsonl"))
        assert code == 3


class TestClosedStdout:
    """A reader that leaves early is an I/O error, not a failed verification."""

    @pytest.mark.parametrize("argv", [("enumerate", "2"), ("count", "3"),
                                      ("verify", "n2-shape")])
    def test_in_process(self, capsys, monkeypatch, argv):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(list(argv)) == 3
        assert capsys.readouterr().err == ""

    # enumerate 4 overflows the pipe while running; count 3 fails only in the
    # last flush, after main has returned.
    @pytest.mark.parametrize("argv", [("enumerate", "4"), ("count", "3")])
    def test_console_script(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_console(argv, stdout=write_end)
        finally:
            os.close(write_end)
        assert proc.returncode == 3
        assert proc.stderr == b""


class TestConsoleScript:
    """What needs a real process: the bytes of a real stdout, a wall-clock bound."""

    @pytest.mark.parametrize("argv,code,stdout_sha256", [
        (("enumerate", "3"), 0,
         "dca47528c78374b1bce5bca5886edfaf33ec9e35d721a2b83b824d0d8ee57a57"),
        (("enumerate", "5"), 0,
         "413489138a583c941b48ccc75f847b46642a9ec561d5b7fd320324a98130ac98"),
        (("star", "d-of", "--n", "16", "--localized-at", ",".join(map(str, range(16)))), 0,
         "8c06894da9f2bd467c13809c92a3c397ecfa81f775b6071f6cb6df697185cb84"),
        (("adapter", "--primes", "2", "--gens", "1e1000000"), 4,
         hashlib.sha256(b"").hexdigest()),
        (("adapter", "--primes", PRIMES_BELOW_400, "--gens", "1/2"), 2,
         hashlib.sha256(b"").hexdigest()),
        (("verify", "finite-type", "5"), 0,
         "96534989909152c1524859bfda86604d6ecbab7d542aaf34821518362d996e8b"),
        (("hasse", "3"), 0,
         "aeb29ec6213fc4c16819f2479bdf9c363b692fdc37552041fc01ec5cc7d86aaa"),
        (("hasse", "3", "--format", "json"), 0,
         "b68f1b7b1b2cabc344869f7a51e99c8af5a0e6b5564a2308527bcfdcda8ef140"),
    ], ids=["enumerate-3", "enumerate-5", "d-of-16", "adapter-exponent",
            "adapter-prime-count", "finite-type-5", "hasse-3", "hasse-3-json"])
    def test_real_stdout_within_10s(self, tmp_path, argv, code, stdout_sha256):
        # stdout goes to a file, hashed in pieces and deleted: enumerate 5
        # writes 162 MB
        path = tmp_path / "stdout"
        with path.open("wb") as fh:
            proc = run_console(argv, stdout=fh, timeout=10)
        digest = hashlib.sha256()
        with path.open("rb") as fh:
            for piece in iter(lambda: fh.read(1 << 20), b""):
                digest.update(piece)
        path.unlink()
        assert proc.returncode == code
        assert digest.hexdigest() == stdout_sha256

    def test_largest_printed_record_reads_back_within_10s(self, tmp_path):
        """``star d-of`` at its guard prints 2^16 members, the record bound."""
        path = tmp_path / "f.json"
        with path.open("wb") as fh:
            written = run_console(["star", "d-of", "--n", "16", "--localized-at",
                                   ",".join(map(str, range(16)))], stdout=fh)
        assert written.returncode == 0
        proc = run_console(["star", "classify", "--family", f"@{path}"], timeout=10)
        assert proc.returncode == 0
        assert proc.stdout == (b"identity, finite-type, overring-induced "
                               b"X={0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15}\n")

    def test_costly_record_refused_within_10s(self, tmp_path):
        """Every subset of at most 3 of 48 points, plus the full set: 18 474
        members, most of them meet-irreducible, so checking the record would
        take 168 M units of fold work, past ``moore.FOLD_WORK_GUARD``."""
        rows = [list(c) for r in range(4) for c in itertools.combinations(range(48), r)]
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"n": 48, "members": rows + [list(range(48))]}))
        proc = run_console(["star", "classify", "--family", f"@{path}"], timeout=10)
        assert proc.returncode == 2 and proc.stdout == b""
        assert proc.stderr.startswith(b"refused: ")


class TestVerify:
    def test_table1(self, capsys):
        code, out, _ = run(capsys, "verify", "table1", "--max-n", "4")
        assert code == 0
        assert out.count("PASS") == 4 and "FAIL" not in out

    def test_bounds(self, capsys):
        code, out, _ = run(capsys, "verify", "bounds", "--max-n", "4")
        assert code == 0 and out.count("PASS") == 8 and "FAIL" not in out
        assert "PASS each set S of 2-subsets of {0..3} generates" in out

    def test_bounds_catches_a_broken_witness(self, capsys, monkeypatch):
        """A generator that drops a member breaks the lower bound's witness."""
        generate = moore.moore_generate
        monkeypatch.setattr(moore, "moore_generate",
                            lambda subsets, n: generate(sorted(subsets)[1:], n))
        code, out, _ = run(capsys, "verify", "bounds", "--max-n", "3")
        assert code == 1
        assert out.count("PASS") == 3 and out.count("FAIL") == 3

    def test_finite_type(self, capsys):
        code, out, _ = run(capsys, "verify", "finite-type", "3")
        assert code == 0 and "2^3" in out

    def test_finite_type_builds_no_stars(self, monkeypatch):
        """The census asks the predicate of each family, with no ``Star``."""
        def no_star(*args):
            raise AssertionError("verify finite-type built a Star")

        monkeypatch.setattr(stars, "Star", no_star)
        assert verify.finite_type(3) == [("finite-type census at n=3 equals 2^3", True)]

    def test_n2_shape(self, capsys):
        code, out, _ = run(capsys, "verify", "n2-shape")
        assert code == 0 and "PASS" in out

    def test_n2_shape_catches_a_reversed_order(self, capsys, monkeypatch):
        """The explicit map is checked against ``star_le`` on all 49 pairs."""
        star_le = stars.star_le
        monkeypatch.setattr(stars, "star_le", lambda s, t: star_le(t, s))
        code, out, _ = run(capsys, "verify", "n2-shape")
        assert code == 1 and out.startswith("FAIL")

    def test_oracles(self, capsys):
        code, out, _ = run(capsys, "verify", "oracles", "--trials", "100")
        assert code == 0 and "PASS" in out

    def test_axioms(self, capsys):
        code, out, _ = run(capsys, "verify", "axioms", "--trials", "200")
        assert code == 0 and "PASS" in out

    @pytest.mark.parametrize("flags", [("--max-n", "5"), ("--trials", "10001")])
    def test_axioms_limits_refused(self, capsys, flags):
        code, out, err = run(capsys, "verify", "axioms", *flags)
        assert code == 2 and out == ""
        assert "refused" in err

    def test_oracles_trials_refused(self, capsys):
        code, out, err = run(capsys, "verify", "oracles", "--trials", str(10 ** 20))
        assert code == 2 and out == ""
        assert "refused" in err

    @pytest.mark.parametrize("argv", [
        ("table1", "5"),
        ("bounds", "--seed", "0"),
        ("finite-type", "--max-n", "3"),
        ("n2-shape", "--max-n", "3", "--trials", "5", "--seed", "9"),
        ("n2-shape", "2"),
        ("oracles", "--max-n", "3"),
        ("axioms", "3"),
    ])
    def test_unread_argument_refused(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 4 and out == ""
        assert "does not read" in err and "Traceback" not in err


class TestStar:
    def test_apply(self, capsys):
        code, out, _ = run(
            capsys, "star", "apply",
            "--family", "{n:2,members:[[0],[0,1]]}", "--module", "(0,0)",
        )
        assert code == 0 and out.strip() == "(inf,0)"

    def test_classify(self, capsys):
        code, out, _ = run(capsys, "star", "classify",
                           "--family", "{n:1,members:[[0]]}")
        assert code == 0
        assert "trivial-extension" in out and "finite-type" in out

    def test_meet_of_divisorial_generators(self, capsys):
        code, out, _ = run(
            capsys, "star", "meet",
            "--family", "{n:2,members:[[0],[0,1]]}",
            "--family", "{n:2,members:[[1],[0,1]]}",
        )
        assert code == 0
        assert json.loads(out) == {"n": 2, "members": [[], [0], [1], [0, 1]]}

    def test_join(self, capsys):
        code, out, _ = run(
            capsys, "star", "join",
            "--family", "{n:2,members:[[0],[0,1]]}",
            "--family", "{n:2,members:[[1],[0,1]]}",
        )
        assert code == 0
        assert json.loads(out) == {"n": 2, "members": [[0, 1]]}

    def test_v_of(self, capsys):
        code, out, _ = run(capsys, "star", "v-of", "--module", "(0,0)")
        assert code == 0
        assert json.loads(out) == {"n": 2, "members": [[], [0, 1]]}

    def test_d_of(self, capsys):
        code, out, _ = run(capsys, "star", "d-of", "--n", "2",
                           "--localized-at", "0")
        assert code == 0
        assert json.loads(out) == {"n": 2, "members": [[1], [0, 1]]}

    def test_d_of_empty_index_set_at_large_n(self, capsys):
        code, out, _ = run(capsys, "star", "d-of", "--n", "40")
        assert code == 0
        assert json.loads(out) == {"n": 40, "members": [list(range(40))]}

    @pytest.mark.parametrize("argv", [
        ("star", "d-of", "--n", "40", "--localized-at", ",".join(map(str, range(17)))),
        ("star", "d-of", "--n", str(2 ** 70)),
        ("star", "classify", "--family", "{n:%d,members:[[0]]}" % 2 ** 70),
        ("star", "meet", "--family", "{n:100000000000,members:[[0]]}"),
        # the meet of the 16 coatom families {all but i, all} has 2^16 members
        ("star", "meet", *(arg for i in range(16) for arg in (
            "--family", json.dumps({"n": 16, "members": [
                [j for j in range(16) if j != i], list(range(16))]})))),
        ("star", "v-of", "--module", "(%s)" % ",".join(["0"] * 65)),
        # 2^16 + 1 members: every subset of 16 points, and the full set of 17
        ("star", "classify", "--family", json.dumps({"n": 17, "members": [
            moore.indices_of(m) for m in range(1 << 16)] + [list(range(17))]})),
    ])
    def test_size_guards(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "refused" in err and "Traceback" not in err

    def test_deeply_nested_record_rejected(self, capsys, tmp_path):
        """The bare-key record fails the first JSON parse at once and recurses
        only in the second; the star file recurses in the first."""
        path = tmp_path / "s.json"
        path.write_text(DEEP_LIST)
        for argv in (("star", "classify", "--family", DEEP_RECORD),
                     ("hasse", "--star-file", str(path))):
            code, out, err = run(capsys, *argv)
            assert code == 4 and out == ""
            assert err.startswith("input error: ") and "Traceback" not in err
            assert "maximum recursion depth exceeded" in err

    @pytest.mark.parametrize("text, prefix", [
        ("[" * DEEP + "]" * (DEEP - 1), "input error: cannot parse record"),
        (json.dumps({"n": "x" * 200000, "members": []}),
         "input error: bad family record: n must be an integer"),
    ], ids=["unparsable", "bad-n"])
    def test_long_message_is_cut(self, capsys, tmp_path, text, prefix):
        """A message that quotes a 200 000-character input echoes its start."""
        path = tmp_path / "f.json"
        path.write_text(text)
        code, out, err = run(capsys, "star", "classify", "--family", f"@{path}")
        assert code == 4 and out == ""
        assert err.startswith(prefix) and len(err.encode()) <= 512

    def test_malformed_family(self, capsys):
        code, _, err = run(capsys, "star", "classify", "--family", "{oops")
        assert code == 4

    def test_duplicate_member_rejected(self, capsys):
        code, out, err = run(capsys, "star", "classify",
                             "--family", "{n:1,members:[[0],[0]]}")
        assert code == 4 and out == ""
        assert "duplicate member" in err

    @pytest.mark.parametrize("family", [
        '{"n":true,"members":[[0]]}',
        '{"n":2,"members":[[true],[0,1]]}',
    ], ids=["n", "index"])
    def test_boolean_in_family_rejected(self, capsys, family):
        code, out, err = run(capsys, "star", "meet", "--family", family)
        assert code == 4 and out == ""
        assert "Traceback" not in err

    @pytest.mark.parametrize("verb,extra", [
        ("apply", ("--module", "(0,0)")),
        ("classify", ()),
    ], ids=["apply", "classify"])
    def test_repeated_family_rejected(self, capsys, verb, extra):
        code, out, err = run(capsys, "star", verb,
                             "--family", "{n:2,members:[[0],[0,1]]}",
                             "--family", "{n:3,members:[[0,1,2]]}", *extra)
        assert code == 4 and out == ""
        assert "more than once" in err

    def test_non_moore_family_rejected(self, capsys):
        code, _, err = run(capsys, "star", "classify",
                           "--family", "{n:2,members:[[0],[1],[0,1]]}")
        assert code == 4

    def test_module_entry_overflow(self, capsys):
        code, _, err = run(
            capsys, "star", "apply",
            "--family", "{n:1,members:[[0]]}", "--module", "(99999999999999999999)",
        )
        assert code == 4
        assert "Traceback" not in err

    def test_family_file_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "family.json"
        path.write_bytes(b"\xff{n:1,members:[[0]]}")
        code, _, err = run(capsys, "star", "classify", "--family", "@" + str(path))
        assert code == 4
        assert "UTF-8" in err

    @pytest.mark.parametrize("argv", [
        ("apply", "--family", "{n:2,members:[[0],[0,1]]}", "--module", "(inf,-inf)"),
        ("v-of", "--module", "(-inf)"),
        ("meet", "--family", "{n:2,members:[[0],[0,1]]}",
         "--family", "{n:3,members:[[0,1,2]]}"),
        ("d-of", "--n", "2", "--localized-at", "5"),
        ("d-of", "--n", "2", "--localized-at", "a"),
    ], ids=["apply-zero", "v-of-zero", "meet-spectra", "d-of-range", "d-of-token"])
    def test_library_rejects_input(self, capsys, argv):
        code, out, err = run(capsys, "star", *argv)
        assert code == 4 and out == ""
        assert err.startswith("input error: ") and "Traceback" not in err

    def test_minus_inf_token_reads_as_zero(self, capsys):
        for text in ("(1,-inf)", "(-inf)", "(-inf,99999999999999999999)"):
            assert parse_vector_inline(text) is ZERO
        with pytest.raises(InputError):
            parse_vector_inline("(-inf,x)")
        code, out, err = run(capsys, "star", "v-of", "--module", "(inf,-inf)")
        assert code == 4 and out == ""
        assert err == "input error: semistar operations act on nonzero modules only\n"

    def test_spectrum_mismatch(self, capsys):
        code, _, _ = run(
            capsys, "star", "apply",
            "--family", "{n:2,members:[[0,1]]}", "--module", "(0,0,0)",
        )
        assert code == 4


class TestAdapter:
    def test_vector(self, capsys):
        code, out, _ = run(capsys, "adapter", "--primes", "2,3", "--gens", "1/2")
        assert code == 0 and out.strip() == "(1,0)"

    def test_member(self, capsys):
        code, out, _ = run(capsys, "adapter", "--primes", "2,3",
                           "--gens", "6", "--member", "1/6")
        assert code == 0 and out.strip() == "false"

    def test_min_over_generators(self, capsys):
        code, out, _ = run(capsys, "adapter", "--primes", "2,3,5",
                           "--gens", "10,15")
        assert code == 0 and out.strip() == "(0,0,-1)"

    def test_zero_generator(self, capsys):
        code, _, _ = run(capsys, "adapter", "--primes", "2,3", "--gens", "0")
        assert code == 4

    @pytest.mark.parametrize("primes", ["2,4", "1", "2,2", "", "0", "-3"])
    def test_bad_prime_list(self, capsys, primes):
        code, out, err = run(capsys, "adapter", "--primes", primes, "--gens", "1/2")
        assert code == 4 and out == ""
        assert "Traceback" not in err

    def test_prime_count_refused(self, capsys):
        assert PRIMES_BELOW_400.count(",") + 1 > moore.GROUND_SET_GUARD
        code, out, err = run(capsys, "adapter", "--primes", PRIMES_BELOW_400,
                             "--gens", "1/2")
        assert code == 2 and out == "" and err.startswith("refused: ")

    def test_huge_prime_refused(self, capsys):
        code, _, err = run(capsys, "adapter", "--primes", str(2 ** 61 - 1), "--gens", "1")
        assert code == 2 and "refused" in err

    def test_bad_rational(self, capsys):
        code, _, _ = run(capsys, "adapter", "--primes", "2,3", "--gens", "x")
        assert code == 4

    def test_zero_member(self, capsys):
        code, out, err = run(capsys, "adapter", "--primes", "2,3", "--gens", "1/2",
                             "--member", "0")
        assert code == 4 and out == ""
        assert err.startswith("input error: ") and "Traceback" not in err

    @pytest.mark.parametrize("gens", ["1e3", "0.5", "1_000", "1e1000000"])
    def test_only_fractions_and_integers(self, capsys, gens):
        code, out, err = run(capsys, "adapter", "--primes", "2", "--gens", gens)
        assert code == 4 and out == ""
        assert "bad rational" in err

    @pytest.mark.parametrize("options", [
        ("--gens", "1" * 1001),
        ("--gens", "1/" + "3" * 1001),
        ("--gens", "1", "--member", "-" + "7" * 1001),
    ], ids=["numerator", "denominator", "member"])
    def test_digit_guard(self, capsys, options):
        code, out, err = run(capsys, "adapter", "--primes", "2", *options)
        assert code == 2 and out == ""
        assert "refused" in err


#: Integer tokens the CLI refuses.  ``int()`` reads the first four: an
#: underscore, and digits outside ASCII (Arabic-Indic three, fullwidth one,
#: Devanagari two).
NON_DECIMAL_TOKENS = ["1_1", "\u0663", "\uff11", "\u0968", "1 1", "0x1", "+-1"]


class TestIntegerTokens:
    @pytest.mark.parametrize("token", NON_DECIMAL_TOKENS)
    @pytest.mark.parametrize("verb", ["primes", "localized-at", "module"])
    def test_refused(self, capsys, verb, token):
        argv = {
            "primes": ("adapter", "--primes", f"2,{token}", "--gens", "1/2"),
            "localized-at": ("star", "d-of", "--n", "12", "--localized-at", f"0,{token}"),
            "module": ("star", "apply", "--family", "{n:2,members:[[0,1]]}",
                       "--module", f"(0,{token})"),
        }[verb]
        code, out, err = run(capsys, *argv)
        assert code == 4 and out == ""
        assert err.startswith("input error: bad ") and repr(token) in err

    @pytest.mark.parametrize("spelled, plain", [
        (("adapter", "--primes", " 2 , +3", "--gens", "1/2"),
         ("adapter", "--primes", "2,3", "--gens", "1/2")),
        (("adapter", "--primes", "+5,2", "--gens", "1/10", "--member", "1/4"),
         ("adapter", "--primes", "5,2", "--gens", "1/10", "--member", "1/4")),
        (("star", "d-of", "--n", "3", "--localized-at", " +0 ,, 02 "),
         ("star", "d-of", "--n", "3", "--localized-at", "0,2")),
        (("star", "apply", "--family", "{n:3,members:[[0],[0,1,2]]}",
          "--module", "( +7 , -0 ,inf )"),
         ("star", "apply", "--family", "{n:3,members:[[0],[0,1,2]]}",
          "--module", "(7,0,inf)")),
        (("star", "v-of", "--module", "(-007, 3 )"), ("star", "v-of", "--module", "(-7,3)")),
        (("count", " +003 "), ("count", "3")),
        (("enumerate", "02"), ("enumerate", "2")),
        (("hasse", "+2"), ("hasse", "2")),
        (("verify", "table1", "--max-n", " 03"), ("verify", "table1", "--max-n", "3")),
        (("star", "d-of", "--n", "+03 "), ("star", "d-of", "--n", "3")),
        (("verify", "oracles", "--trials", "007", "--seed", " -09 "),
         ("verify", "oracles", "--trials", "7", "--seed", "-9")),
    ], ids=["primes", "member", "localized-at", "apply", "v-of", "count", "enumerate",
            "hasse", "max-n", "n", "trials-seed"])
    def test_signs_spaces_and_zeros_read_as_before(self, capsys, spelled, plain):
        expected = run(capsys, *plain)
        assert expected[0] == 0 and expected[1]
        assert run(capsys, *spelled) == expected

    @pytest.mark.parametrize("token", NON_DECIMAL_TOKENS)
    @pytest.mark.parametrize("argv", [
        ("count", "{}"),
        ("enumerate", "{}"),
        ("verify", "finite-type", "{}"),
        ("hasse", "{}"),
        ("verify", "table1", "--max-n", "{}"),
        ("star", "d-of", "--n", "{}"),
        ("verify", "oracles", "--trials", "{}"),
        ("verify", "oracles", "--seed", "{}"),
    ], ids=["count-n", "enumerate-n", "verify-n", "hasse-n", "max-n", "n", "trials",
            "seed"])
    def test_click_parameter_refused(self, capsys, argv, token):
        code, out, err = run(capsys, *(a.format(token) for a in argv))
        assert code == 4 and out == ""
        assert err.startswith("input error: ") and f"bad integer {token!r}" in err


class TestHasse:
    def test_two_node_chain(self, capsys):
        code, out, _ = run(capsys, "hasse", "1")
        assert code == 0
        assert out.count("->") == 1

    def test_seven_node_digraph(self, capsys):
        code, out, _ = run(capsys, "hasse", "2", "--format", "dot")
        assert code == 0
        assert out.count("[label=") == 7
        assert out.count("->") == 9

    def test_json_61_nodes(self, capsys):
        code, out, _ = run(capsys, "hasse", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["nodes"]) == 61
        assert len(payload["edges"]) == 151
        assert all(len(e) == 2 for e in payload["edges"])

    def test_guard(self, capsys):
        for n in ("4", "6"):
            code, _, err = run(capsys, "hasse", n)
            assert code == 2
            assert err == f"refused: star lattice at n={n} exceeds 200 elements\n"

    def test_star_files(self, capsys, tmp_path):
        f1 = tmp_path / "s1.json"
        f2 = tmp_path / "s2.json"
        f1.write_text('{"primes":[2,3],"family":{"n":2,"members":[[0,1]]}}')
        f2.write_text(
            '{"primes":[2,3],"family":{"n":2,"members":[[],[0],[1],[0,1]]}}')
        code, out, _ = run(capsys, "hasse", "--star-file", str(f1),
                           "--star-file", str(f2), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["nodes"]) == 2 and payload["edges"] == [[1, 0]]

    def test_star_file_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "s1.json"
        path.write_bytes(b'{"primes":[2],"family":{"n":1,"members":[[0]]}}\xff')
        code, _, err = run(capsys, "hasse", "--star-file", str(path))
        assert code == 4
        assert "UTF-8" in err

    def test_missing_source(self, capsys):
        code, _, _ = run(capsys, "hasse")
        assert code == 4

    def test_size_and_star_file_refused(self, capsys, tmp_path):
        """Refused before the file is read: a missing file would exit 3."""
        code, out, err = run(capsys, "hasse", "2",
                             "--star-file", str(tmp_path / "missing.json"))
        assert code == 4 and out == ""
        assert "Traceback" not in err

    def test_star_file_duplicate_primes(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        path.write_text('{"primes":[2,2],"family":{"n":2,"members":[[0,1]]}}')
        code, out, err = run(capsys, "hasse", "--star-file", str(path))
        assert code == 4 and out == ""
        assert "duplicate primes" in err

    def test_star_file_count_guard(self, capsys, tmp_path, monkeypatch):
        """200 star files are drawn; one more is refused before the first
        of them is parsed."""
        path = tmp_path / "s.json"
        path.write_text('{"primes":[2],"family":{"n":1,"members":[[0]]}}')
        code, out, _ = run(capsys, "hasse", *["--star-file", str(path)] * 200)
        assert code == 0 and out.count("[label=") == 200
        parse = stars.star_from_record
        parsed = []

        def counted(record):
            parsed.append(record)
            return parse(record)

        monkeypatch.setattr(stars, "star_from_record", counted)
        code, out, err = run(capsys, "hasse", *["--star-file", str(path)] * 201)
        assert (code, out, parsed) == (2, "", [])
        assert err == "refused: more than 200 stars\n"

    def test_star_file_primes_must_be_a_list(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        path.write_text('{"primes":"ab","family":{"n":2,"members":[[0,1]]}}')
        code, out, err = run(capsys, "hasse", "--star-file", str(path))
        assert code == 4 and out == ""
        assert "primes must be a list" in err


# Each command with its own options.  Spectrum sizes are small or refused by a
# guard, and --trials stays small, so that every drawn command line runs
# quickly.  --out is left out, because it writes a file.
SIZES = ["0", "1", "2", "3", "6", "-1", "x", str(10 ** 20)]
COMMANDS = {
    ("count",): [],
    ("enumerate",): [],
    ("hasse",): ["--star-file", "--format"],
    ("adapter",): ["--primes", "--gens", "--member"],
    **{("verify", suite): ["--max-n", "--trials", "--seed"] for suite in SUITES},
    ("star", "apply"): ["--family", "--module"],
    ("star", "meet"): ["--family"],
    ("star", "join"): ["--family"],
    ("star", "classify"): ["--family"],
    ("star", "v-of"): ["--module"],
    ("star", "d-of"): ["--n", "--localized-at"],
    ("star", "nope"): [],
    ("nope",): [],
}
REMOVED_FLAGS = ["--force", "--count-only"]
OPTION_VALUES = {
    "--max-n": SIZES,
    "--n": SIZES,
    "--trials": ["-1", "0", "3", "x"],
    "--seed": ["0", "-7", "x"],
    "--family": ["{n:2,members:[[0],[0,1]]}", "{n:2,members:[[1],[0,1]]}",
                 "{n:1,members:[[0],[0]]}", "{n:2,members:[[0],[1],[0,1]]}",
                 "{oops", "[1]", '{n:"x",members:[]}', "{n:2,members:[[0.5]]}",
                 "{n:3,members:[[0,1,2]]}", "@no-such-dir/f", DEEP_RECORD, DEEP_LIST],
    "--module": ["(0,0)", "(inf,0)", "(inf,-inf)", "()", "(99999999999999999999)",
                 "(x)"],
    "--localized-at": ["0", "0,1", "5", "-1", "a"],
    "--primes": ["2,3", "2,4", "", "1"],
    "--gens": ["1/2", "6", "0", "1/0", "x"],
    "--member": ["1/6", "0", "x"],
    "--format": ["dot", "json", "svg"],
    "--star-file": ["no-such-dir/s.json"],
}


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = list(command)
    if command[0] in ("count", "enumerate", "hasse", "verify") or draw(st.booleans()):
        argv.append(draw(st.sampled_from(SIZES)))
    for option in draw(st.lists(st.sampled_from(COMMANDS[command] or ["--bogus"]),
                                max_size=4)):
        argv.append(option)
        if option in OPTION_VALUES:
            argv.append(draw(st.sampled_from(OPTION_VALUES[option])))
    if draw(st.integers(0, 3)) == 0:
        argv.append(draw(st.sampled_from(REMOVED_FLAGS + ["--bogus"])))
    return argv


@settings(max_examples=100, deadline=None)
@given(command_lines())
def test_fuzzed_command_lines_keep_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3, 4)
    assert code != 1 or argv[0] == "verify"  # exit 1 is a failed verification only
    assert "Traceback" not in err.getvalue()
    assert len(err.getvalue()) <= 1024
