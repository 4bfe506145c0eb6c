"""Command-line surface: subcommands, exit codes, determinism, stream split."""

import random
import sys
from pathlib import Path

import pytest

from cyclocert import (
    Certificate,
    Outcome,
    Reason,
    RingElement,
    SeedTrust,
    Verdict,
    cert_decode,
    cert_encode,
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
        assert main(["generate", "--bits", "36", "--rng-seed", "2", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""  # certificate went to the file, not stdout
        cert = cert_decode(out.read_text())
        assert cert.N.bit_length() == 36

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


class TestCarmichaelCommand:
    def test_empty_search(self, capsys):
        assert main(["carmichael", "--max", "500", "--d", "2"]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "count=0" in captured.err


class TestBenchCommand:
    def test_small_bench(self, capsys):
        assert main(["bench", "--bits", "32,40", "--rng-seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "bits=32" in out and "bits=40" in out
        assert "slope=" in out

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
    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--bits", "32", "--d", "abc"],
            ["bench", "--bits", "64,x"],
            ["roots", "--p", "3", "--q", "1"],
            ["roots", "--p", "4", "--q", "5"],  # 4 has order 2 mod 5
            ["roots", "--p", "3", "--q", "25"],  # 6 and 11 are no roots mod 25
        ],
    )
    def test_one_line_on_stderr(self, argv, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "failed" in captured.err
