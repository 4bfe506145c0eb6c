"""Command-line surface: subcommands, exit codes, determinism, stream split."""

import random
import sys
from pathlib import Path

import pytest

from cyclocert import cli
from cyclocert import (
    Certificate,
    Outcome,
    Reason,
    RingElement,
    SeedTrust,
    Verdict,
    cert_decode,
    cert_encode,
    is_probable_prime,
    make_context,
    phase1_generate,
)
from cyclocert.cli import (
    EXIT_COMPOSITE,
    EXIT_FORMAT,
    EXIT_PRIME,
    EXIT_REJECT,
    EXIT_RETRY,
    exit_code_for,
    main,
)

# CPython's cap on int() of a decimal string; 0 where there is none
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
DATA = Path(__file__).parent / "data"


class TestExitCodeMapping:
    @pytest.mark.parametrize(
        "verdict,code",
        [
            (Verdict(Outcome.PRIME), EXIT_PRIME),
            (Verdict(Outcome.REJECT, Reason.BOUND), EXIT_REJECT),
            (Verdict(Outcome.COMPOSITE, Reason.ZERO_DIVISOR, witness=5), EXIT_COMPOSITE),
            (Verdict(Outcome.COMPOSITE, Reason.FERMAT), EXIT_COMPOSITE),
            (Verdict(Outcome.RETRY, Reason.CYCLOTOMIC), EXIT_RETRY),
        ],
    )
    def test_verdict_to_exit_code(self, verdict, code):
        assert exit_code_for(verdict) == code


class TestGenerate:
    def test_deterministic_output_bytes(self, capsys):
        argv = ["generate", "--bits", "40", "--rng-seed", "11"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        cert = cert_decode(first)
        assert cert.N.bit_length() == 40

    def test_deterministic_across_processes(self):
        import subprocess
        import sys

        cmd = [sys.executable, "-m", "cyclocert.cli", "generate", "--bits", "36", "--rng-seed", "3"]
        runs = [subprocess.run(cmd, capture_output=True, check=True).stdout for _ in range(2)]
        assert runs[0] == runs[1]
        assert cert_decode(runs[0].decode()).N.bit_length() == 36

    def test_write_to_file(self, tmp_path, capsys):
        out = tmp_path / "c.cert"
        argv = ["generate", "--bits", "36", "--rng-seed", "2"]
        assert main([*argv, "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""  # certificate went to the file, not stdout
        cert = cert_decode(out.read_text())
        assert cert.N.bit_length() == 36
        # the file holds cert_encode's LFs untranslated, as verify requires
        assert main(argv) == 0
        assert out.read_bytes() == capsys.readouterr().out.encode()

    def test_unwritable_out_fails_cleanly(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.cert"
        assert main(["generate", "--bits", "32", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("generation failed: ")

    def test_explicit_base(self, capsys):
        assert main(["generate", "--bits", "32", "--d", "2", "--rng-seed", "4"]) == 0
        cert = cert_decode(capsys.readouterr().out)
        assert cert.d == 2

    def test_bad_base_fails(self, capsys):
        assert main(["generate", "--bits", "32", "--d", "12"]) == 1
        assert "generation failed" in capsys.readouterr().err

    @pytest.mark.parametrize("degree", ["-3", "0", "1", "2", "4", "9", "15", "17"])
    def test_unsupported_degree_fails(self, degree, capsys):
        for base in ([], ["--d", "2"]):
            assert main(["generate", "--bits", "32", "--degree", degree, *base]) == 1
            assert "degree must be one of" in capsys.readouterr().err


class TestVerify:
    def _write(self, tmp_path, cert):
        path = tmp_path / "cert.txt"
        path.write_text(cert_encode(cert))
        return str(path)

    def test_prime_exit_zero(self, tmp_path, capsys):
        ctx = make_context(13, 3, 2)
        w = None
        rng = random.Random(0)
        while w is None:
            res = phase1_generate(ctx, rng)
            cand = Certificate("1", 3, 2, 13, 61, 3, res.w, SeedTrust.PROBABLE)
            from cyclocert import verify

            if verify(cand).outcome is Outcome.PRIME:
                w = res.w
        path = self._write(tmp_path, Certificate("1", 3, 2, 13, 61, 3, w, SeedTrust.PROBABLE))
        assert main(["verify", "--cert", path]) == 0
        assert capsys.readouterr().out.strip() == "verdict=PRIME"

    def test_reject_exit_two(self, tmp_path, capsys):
        # q = 3 decodes fine (k*q = Phi) but fails the structural bound
        cert = Certificate("1", 3, 2, 31, 3, 331, RingElement((1, 0, 0)), SeedTrust.PROBABLE)
        path = self._write(tmp_path, cert)
        assert main(["verify", "--cert", path]) == EXIT_REJECT
        assert "verdict=REJECT reason=BOUND" in capsys.readouterr().out

    def test_forged_certificate_rejected(self, capsys):
        # N = 43·193 and q = 7²·619·757: fails the Frobenius check, though q is never tested
        assert main(["verify", "--cert", str(DATA / "forged_8299.cert")]) == EXIT_REJECT
        assert capsys.readouterr().out.strip() == "verdict=REJECT reason=FERMAT"

    def test_zero_divisor_exit_three(self, capsys):
        # N = 8299 = 43·193 and w ≡ the forged element mod 43, ≡ 1 mod 193
        path = str(DATA / "zero_divisor_8299.cert")
        assert main(["verify", "--cert", path]) == EXIT_COMPOSITE
        assert capsys.readouterr().out == "verdict=COMPOSITE reason=ZERO_DIVISOR witness=193\n"

    def test_golden_certificate_prime(self, capsys):
        assert main(["verify", "--cert", str(DATA / "golden_n7.cert")]) == EXIT_PRIME
        assert capsys.readouterr().out.strip() == "verdict=PRIME"

    def test_retry_exit_four(self, tmp_path, capsys):
        cert = Certificate("1", 3, 2, 7, 19, 3, RingElement((4, 0, 0)), SeedTrust.PROBABLE)
        path = self._write(tmp_path, cert)
        assert main(["verify", "--cert", path]) == EXIT_RETRY
        assert "verdict=RETRY" in capsys.readouterr().out

    def test_format_exit_five(self, tmp_path, capsys):
        path = tmp_path / "garbage.txt"
        path.write_text("not a certificate\n")
        assert main(["verify", "--cert", str(path)]) == EXIT_FORMAT
        assert "rejected" in capsys.readouterr().err

    @pytest.mark.skipif(not INT_DIGIT_LIMIT, reason="int() has no digit limit here")
    def test_overlong_integer_exit_five(self, tmp_path, capsys):
        path = tmp_path / "long.cert"
        cert = Certificate("1", 3, 2, 7, 19, 3, RingElement((3, 1, 6)), SeedTrust.PROBABLE)
        path.write_text(cert_encode(cert).replace("N=7", "N=1" + "0" * INT_DIGIT_LIMIT))
        assert main(["verify", "--cert", str(path)]) == EXIT_FORMAT
        assert "key N" in capsys.readouterr().err

    def test_undecodable_file_exit_five(self, tmp_path, capsys):
        path = tmp_path / "bytes.cert"
        path.write_bytes(b"version=1\n\xff\xfe\n")
        assert main(["verify", "--cert", str(path)]) == EXIT_FORMAT
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1

    @pytest.mark.parametrize("sep", [b"\r\n", b"\r", b"\v", "\u2028".encode()])
    def test_golden_with_other_line_breaks_exit_five(self, sep, tmp_path, capsys):
        # the file reaches the decoder as written, so CR-LF is not read as LF
        path = tmp_path / "golden.cert"
        path.write_bytes((DATA / "golden_n7.cert").read_bytes().replace(b"\n", sep))
        assert main(["verify", "--cert", str(path)]) == EXIT_FORMAT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("certificate file rejected: line 1: line break ")

    def test_unknown_seed_trust_exit_five(self, tmp_path, capsys):
        path = tmp_path / "proven.cert"
        path.write_bytes(
            (DATA / "golden_n7.cert").read_bytes().replace(b"=PROBABLE", b"=EXTERNALLY_PROVEN")
        )
        assert main(["verify", "--cert", str(path)]) == EXIT_FORMAT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("certificate file rejected: unknown seed_trust value ")

    def test_missing_file_exit_five(self, capsys):
        assert main(["verify", "--cert", "/nonexistent/path.cert"]) == EXIT_FORMAT


class TestFilter:
    def test_prime_candidate_all_bases_pass(self, capsys):
        assert main(["filter", "--n", "13", "--d", "2", "--bases", "5"]) == 0
        out = capsys.readouterr().out
        assert out.count("pass=true") == 5
        assert "passed=5/5" in out

    def test_composite_candidate_fails(self, capsys):
        assert main(["filter", "--n", "25", "--d", "2", "--bases", "4"]) == 1
        assert "pass=false" in capsys.readouterr().out

    def test_wrong_congruence_rejected(self, capsys):
        assert main(["filter", "--n", "11", "--d", "2", "--bases", "2"]) == 1
        assert "mod 3" in capsys.readouterr().err

    @pytest.mark.parametrize("bases", [0, 2])
    @pytest.mark.parametrize("d", [0, -2, 13, 14])
    def test_refused_base_fails_cleanly(self, d, bases, capsys):
        # d ≤ 0, d ≡ 0 and d ≡ 1 (mod n) are bases the ring context refuses
        assert main(["filter", "--n", "13", "--d", str(d), "--bases", str(bases)]) == 1
        assert "filter failed: " in capsys.readouterr().err

    @pytest.mark.parametrize("bases", [-1, 0])
    def test_bases_below_one_refused(self, bases, capsys):
        # a count of 0 would pass having tested nothing
        assert main(["filter", "--n", "7", "--d", "2", "--bases", str(bases)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("filter failed: ")


class TestBenchCommand:
    def test_small_bench(self, capsys):
        assert main(["bench", "--bits", "32,40", "--rng-seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "bits=32" in out and "bits=40" in out
        assert "slope=" in out and "ratio=" in out

    def test_bad_sizes(self, capsys):
        assert main(["bench", "--bits", "40,32"]) == 1


class TestRootsCommand:
    def test_p3_q7(self, capsys):
        assert main(["roots", "--p", "3", "--q", "7"]) == 0
        assert capsys.readouterr().out.strip() == "2 4"

    def test_congruence_error(self, capsys):
        assert main(["roots", "--p", "3", "--q", "5"]) == 1
        assert "roots failed" in capsys.readouterr().err

    def test_p3_q19(self, capsys):
        assert main(["roots", "--p", "3", "--q", "19"]) == 0
        assert capsys.readouterr().out.strip() == "7 11"


class TestMalformedInput:
    def test_removed_carmichael_subcommand_is_an_invalid_choice(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["carmichael", "--max", "100", "--d", "2"])
        assert exc.value.code == 2
        assert "invalid choice: 'carmichael'" in capsys.readouterr().err

    def test_removed_k_max_flag_is_unrecognized(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--bits", "32", "--k-max", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --k-max 5" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--bits", "32", "--d", "abc"],
            ["bench", "--bits", "64,x"],
            ["roots", "--p", "3", "--q", "1"],
            ["roots", "--p", "4", "--q", "5"],  # 4 is no ring degree
            ["roots", "--p", "3", "--q", "25"],  # 6 and 11 are no roots mod 25
        ],
    )
    def test_one_line_on_stderr(self, argv, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "failed" in captured.err


def _one_failure_line(captured, prefix):
    return captured.out == "" and captured.err.count("\n") == 1 and captured.err.startswith(prefix)


class TestFailurePath:
    @pytest.mark.parametrize(
        "argv,prefix",
        [
            (["generate", "--bits", "2"], "generation failed: "),
            (["filter", "--n", "67", "--d", "2", "--bases", "1"], "filter failed: no "),
            (["filter", "--n", "13", "--d", "5", "--bases", "1"], "filter failed: d = 5 "),
            (["generate", "--bits", "7", "--degree", "5"], "generation failed: certificate "),
            (["bench", "--bits", "40,32"], "bench failed: "),
            (["roots", "--p", "3", "--q", "5"], "roots failed: "),
            # 103 ≡ 1 (mod 17), but only ring degrees are taken, so the output stays short
            (["roots", "--p", "17", "--q", "103"], "roots failed: degree must be one of "),
        ],
    )
    def test_one_prefixed_line_exit_one(self, argv, prefix, capsys):
        assert main(argv) == 1
        assert _one_failure_line(capsys.readouterr(), prefix)

    @pytest.mark.parametrize(
        "exc", [ValueError("boom"), cli.GenerationError("boom"), OSError("boom")]
    )
    def test_main_prints_what_the_command_raises(self, exc, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise exc

        # _cmd_bench imports run_bench when it runs, so the patch goes on its module
        monkeypatch.setattr("cyclocert.bench.run_bench", fail)
        assert main(["bench", "--bits", "32"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "bench failed: boom\n"

    def test_filter_never_fails_a_prime(self, capsys):
        # a cube d makes Z[θ]/(n) split, so the filter can fail a prime n; such d are refused
        for n in range(7, 2000, 6):
            if not is_probable_prime(n):
                continue
            for d in range(2, 12):
                code = main(["filter", "--n", str(n), "--d", str(d), "--bases", "4"])
                captured = capsys.readouterr()
                assert "pass=false" not in captured.out, (n, d)
                assert code == 0 or _one_failure_line(captured, "filter failed: "), (n, d)
