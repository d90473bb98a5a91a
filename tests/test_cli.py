import contextlib
import io
import json
import math
import os
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import numpy as np
from conftest import random_independent_pair
from teichpong import pingpong
from teichpong.cli import main
from teichpong.errors import CertificateInvalidError, TeichpongError
from teichpong.mcg import Classification
from teichpong.oracle import free_check
from teichpong.pingpong import build_certificate, verify_pingpong
from teichpong.serialize import (canonical_json, certificate_to_dict, digit_count, exact_int,
                                 word_report_to_dict)


class TestSerialize:
    def test_float_17_digits(self):
        assert canonical_json(0.1) == "0.10000000000000001"
        assert canonical_json(1.0) == "1"

    def test_digit_count_small(self):
        for n in (1, 9, 10, 99, 100, 12345):
            assert digit_count(n) == len(str(n))

    def test_digit_count_large(self):
        for k in (100, 1000, 4321):
            assert digit_count(10 ** k) == k + 1
            assert digit_count(10 ** k - 1) == k
            assert digit_count(7 ** k) == len(str(7 ** k))

    def test_digit_count_factorial(self):
        import sys
        n = math.factorial(2000)
        sys.set_int_max_str_digits(20000)
        assert digit_count(n) == len(str(n))

    def test_exact_int(self):
        assert exact_int(123) == "123"
        rec = exact_int(10 ** 80)
        assert rec["digit_count"] == 81

    def test_exact_int_negative(self):
        assert exact_int(-123) == "-123"
        assert exact_int(-(10 ** 60 - 1)) == "-" + "9" * 60
        assert exact_int(-10 ** 70) == {"digit_count": 71, "negative": True}
        assert exact_int(10 ** 70) == {"digit_count": 71}

    def test_nested_document(self):
        doc = canonical_json({"a": [1, 2.5], "b": {"c": None, "d": True}})
        parsed = json.loads(doc)
        assert parsed == {"a": [1, 2.5], "b": {"c": None, "d": True}}


def _reference_canonical_json(obj, indent: int = 0) -> str:
    """The encoder as it was written on json.dumps, kept as the reference for
    the bytes: values escaped with ensure_ascii=False, keys with the default."""
    pad = " " * indent
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format(obj, ".17g")
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(pad + "  " + _reference_canonical_json(v, indent + 2) for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if not obj:
        return "{}"
    items = [pad + "  " + json.dumps(k) + ": " + _reference_canonical_json(v, indent + 2)
             for k, v in obj.items()]
    return "{\n" + ",\n".join(items) + "\n" + pad + "}"


class TestCanonicalEncoder:
    @pytest.mark.parametrize("obj", [
        {"größe": "Teichmüller", "ключ": ["λ", "φ→ψ"]},
        {"ctl\x00\x1f\x7f": "tab\tnl\nnul\x00\x1f\x7f",
         'quote"back\\': 'say "hi" \\ there', "line\u2028sep": "para\u2029\u2028"},
        {"\U0001d4af": "\U0001d4af\U0001f600", "mixed": ["", " ", "/", "\ud7ff\ue000\uffff"]},
        {"class": Classification.PSEUDO_ANOSOV, "kinds": list(Classification)},
        (1, (2.5, ("x", ())), [], {}),
        {"a": [[], {}, [{}, [[]], {"b": [{"c": ()}]}]], "d": {"e": {"f": {"g": []}}}},
        [None, True, False, 0, -7, 2 ** 63 - 1, -2 ** 63 + 1, 0.1, 1.0, -0.0, 1e-300, 1e300],
        "", "plain", [], {},
    ], ids=["non-ascii", "escapes", "astral", "str-subclass", "tuples", "empty-at-depth",
            "scalars", "empty-string", "string", "empty-list", "empty-dict"])
    def test_same_bytes_as_json_dumps(self, obj):
        assert canonical_json(obj) == _reference_canonical_json(obj)
        assert canonical_json(obj, 6) == _reference_canonical_json(obj, 6)

    def test_keys_ascii_values_not(self):
        doc = canonical_json({"é": "é"})
        assert doc == '{\n  "\\u00e9": "é"\n}'

    def test_criterion_1_documents(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            m1, m2 = random_independent_pair(rng, max_trace=30)
            cert = build_certificate([m1, m2])
            verify_pingpong(cert, 10_000)
            report = free_check([m1, m2], cert.N, 6)
            for doc in (certificate_to_dict(cert), word_report_to_dict(report)):
                assert canonical_json(doc) == _reference_canonical_json(doc)


class TestClassifyCommand:
    def test_pseudo_anosov_line(self, capsys):
        code = main(["classify", "--matrix", "2,1,1,1"])
        out = capsys.readouterr().out.strip()
        assert code == 0
        assert out == "pseudo_anosov trace=3 Tr=0.96242"

    def test_parabolic(self, capsys):
        code = main(["classify", "--matrix", "1,1,0,1"])
        out = capsys.readouterr().out.strip()
        assert code == 0
        assert out.startswith("parabolic trace=2")
        assert "1/0" in out

    def test_elliptic(self, capsys):
        assert main(["classify", "--matrix", "0,-1,1,0"]) == 0
        assert "elliptic" in capsys.readouterr().out

    def test_malformed_matrix(self, capsys):
        code = main(["classify", "--matrix", "2,1,1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: invalid-input:")

    def test_arbitrary_precision_entries(self, capsys):
        n = 10 ** 40
        code = main(["classify", "--matrix", f"1,{n},0,1"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("parabolic trace=2")


class TestConstantsCache:
    def test_memo_roundtrip(self, tmp_path):
        from teichpong import cache
        path = str(tmp_path / "consts.json")
        calls = []

        def compute():
            calls.append(1)
            return {"x": 1.25}

        try:
            cache.enable(path)
            assert cache.memo("k", compute) == {"x": 1.25}
            assert cache.memo("k", compute) == {"x": 1.25}
            cache.flush()
            cache.enable(path)  # reload from disk
            assert cache.memo("k", compute) == {"x": 1.25}
            assert len(calls) == 1
        finally:
            cache.disable()

    def test_disable_forgets(self):
        from teichpong import cache
        cache.disable()
        calls = []
        cache.memo("k2", lambda: calls.append(1) or 7)
        cache.memo("k2", lambda: calls.append(1) or 7)
        assert len(calls) == 1
        cache.disable()
        cache.memo("k2", lambda: calls.append(1) or 7)
        assert len(calls) == 2


class TestAxisCommand:
    def test_axis_output(self, capsys):
        code = main(["axis", "--matrix", "2,1,1,1"])
        out = capsys.readouterr().out
        assert code == 0
        golden = (1 + math.sqrt(5)) / 2
        assert f"attracting={golden:.17g}" in out

    def test_parabolic_rejected(self, capsys):
        code = main(["axis", "--matrix", "1,1,0,1"])
        assert code == 2
        assert "error: not-pseudo-anosov:" in capsys.readouterr().err


class TestPairCommand:
    def test_standard_pair(self, capsys):
        code = main(["pair", "--m1", "2,1,1,1", "--m2", "1,1,1,2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "independent=true" in out
        assert "crossing=true" in out
        assert "D=0 " in out

    def test_dependent_pair(self, capsys):
        code = main(["pair", "--m1", "2,1,1,1", "--m2", "5,3,3,2"])  # phi^2 entries
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: not-independent: generators share an axis (common power)\n"

    def test_thresholds_flag(self, capsys):
        code = main(["pair", "--m1", "2,1,1,1", "--m2", "1,1,1,2", "--thresholds"])
        out = capsys.readouterr().out
        assert code == 0
        assert "P+=" in out and "Q-=" in out


class TestProfileCommand:
    def test_csv_file(self, tmp_path, capsys):
        dest = tmp_path / "profile.csv"
        code = main(["profile", "--m1", "2,1,1,1", "--m2", "1,1,1,2",
                     "--t-min", "-1", "--t-max", "1", "--step", "0.5",
                     "--csv", str(dest)])
        assert code == 0
        lines = dest.read_text().strip().split("\n")
        assert lines[0] == "t,s_star,d_min"
        assert len(lines) == 6

    def test_stdout_default(self, capsys):
        code = main(["profile", "--m1", "2,1,1,1", "--m2", "1,1,1,2",
                     "--t-min", "0", "--t-max", "0.5", "--step", "0.5"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("t,s_star,d_min\n")

    def test_byte_identical_runs(self, tmp_path):
        dests = []
        for name in ("a.csv", "b.csv"):
            dest = tmp_path / name
            main(["profile", "--m1", "2,1,1,1", "--m2", "1,1,1,2",
                  "--t-min", "-2", "--t-max", "2", "--step", "0.25",
                  "--csv", str(dest), "--no-cache"])
            dests.append(dest.read_bytes())
        assert dests[0] == dests[1]


class TestPingpongCommand:
    def test_certificate_to_file(self, tmp_path, capsys):
        dest = tmp_path / "cert.json"
        code = main(["pingpong", "--matrix", "2,1,1,1", "--matrix", "1,1,1,2",
                     "--samples", "2000", "--out", str(dest), "--no-cache"])
        assert code == 0
        doc = json.loads(dest.read_text())
        assert doc["format"] == "teichpong.certificate.v1"
        assert doc["mode"] == "certified_search"
        assert doc["verification"]["passed"] is True
        assert int(doc["N"]) >= 1

    def test_parabolic_rejected(self, capsys):
        code = main(["pingpong", "--matrix", "1,1,0,1", "--matrix", "1,1,1,2",
                     "--samples", "100", "--no-cache"])
        assert code == 2
        assert "error: not-pseudo-anosov:" in capsys.readouterr().err

    def test_dependent_rejected(self, capsys):
        code = main(["pingpong", "--matrix", "2,1,1,1", "--matrix", "5,3,3,2",
                     "--samples", "100", "--no-cache"])
        assert code == 2

    def test_deterministic_certificates(self, tmp_path):
        blobs = []
        for name in ("c1.json", "c2.json"):
            dest = tmp_path / name
            main(["pingpong", "--matrix", "2,1,1,1", "--matrix", "1,1,1,2",
                  "--samples", "2000", "--seed", "3", "--out", str(dest), "--no-cache"])
            blobs.append(dest.read_bytes())
        assert blobs[0] == blobs[1]


class TestCertifyFreeCommand:
    def test_paper_mode_refused(self, capsys):
        # certify-free runs certified mode only and takes no --mode
        code = main(["certify-free", "--matrix", "2,1,1,1", "--matrix", "1,1,1,2",
                     "--mode", "paper", "--no-cache"])
        lines = capsys.readouterr().err.strip().split("\n")
        assert code == 2
        assert len(lines) == 1
        assert lines[0].startswith("error: invalid-input: unrecognized arguments: --mode")

    def test_clean_run(self, tmp_path, capsys):
        dest = tmp_path / "words.json"
        code = main(["certify-free", "--matrix", "2,1,1,1", "--matrix", "1,1,1,2",
                     "--samples", "2000", "--max-word-len", "4",
                     "--out", str(dest), "--no-cache"])
        assert code == 0
        doc = json.loads(dest.read_text())
        assert doc["violations"] == []
        assert doc["incomplete"] is False


class TestTeichCommand:
    def test_distances(self, capsys):
        code = main(["teich", "--tau1", "0,1", "--tau2", "0,2", "--farey-depth", "1"])
        out = capsys.readouterr().out
        assert code == 0
        val = 0.5 * math.log(2)
        assert f"teich={val:.17g}" in out
        assert f"kerckhoff={val:.17g}" in out

    def test_bad_point(self, capsys):
        code = main(["teich", "--tau1", "0,-1", "--tau2", "0,2"])
        assert code == 2

    def test_malformed_point(self, capsys):
        code = main(["teich", "--tau1", "a,b", "--tau2", "0,1"])
        assert code == 2
        assert capsys.readouterr().err == "error: invalid-input: expected 'x,y', got 'a,b'\n"

    @pytest.mark.parametrize("depth", ["0", "2001", str(10 ** 5)])
    def test_depth_out_of_bounds(self, depth, capsys):
        code = main(["teich", "--tau1", "0,1", "--tau2", "0,2", "--farey-depth", depth])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.strip().split("\n")
        assert len(lines) == 1
        assert lines[0].startswith("error: invalid-input: farey_depth")


class TestGridStepValidation:
    @pytest.mark.parametrize("step", ["-1", "0", "nan", "inf"])
    def test_bad_grid_step(self, step, capsys):
        # the radius grid is pingpong.GRID_STEP; --grid-step is no option
        code = main(["pingpong", "--matrix", "2,1,1,1", "--matrix", "1,1,1,2",
                     "--samples", "100", "--grid-step", step, "--no-cache"])
        err = capsys.readouterr().err
        assert code == 2
        lines = err.strip().split("\n")
        assert len(lines) == 1
        assert lines[0].startswith("error: invalid-input: unrecognized arguments: --grid-step")


class TestStaleConstantsCache:
    def test_sampled_b_is_not_served(self, tmp_path, monkeypatch):
        # a cache file written by the sampled derivation of b must not leak
        # its value into certificates of the closed form
        from teichpong import cache
        (tmp_path / cache.DEFAULT_FILENAME).write_text(
            json.dumps({"b:theta_samples=4096,margin=0.05": 0.9254422117741002}))
        monkeypatch.chdir(tmp_path)
        try:
            code = main(["pingpong", "--matrix", "2,1,1,1", "--matrix", "1,1,1,2",
                         "--samples", "2000", "--out", "cert.json"])
        finally:
            cache.disable()
        assert code == 0
        doc = json.loads((tmp_path / "cert.json").read_text())
        assert doc["b"] == 1.05 * math.asinh(1.0)


class TestInvalidInputContract:
    PAIR = ["--matrix", "2,1,1,1", "--matrix", "1,1,1,2", "--samples", "200", "--no-cache"]

    @pytest.mark.parametrize("argv", [
        ["pingpong", *PAIR, "--samples", "-3"],
        ["pingpong", *PAIR, "--seed", "-1"],
        ["pingpong", *PAIR, "--box", "a,b,c,d"],
        ["pingpong", *PAIR, "--box", "0,1,0.1,inf"],
        ["pingpong", *PAIR, "--out", "{missing}/x.json"],
        ["certify-free", *PAIR, "--out", "{missing}/x.json"],
        ["profile", "--m1", "2,1,1,1", "--m2", "1,1,1,2", "--csv", "{missing}/x.csv"],
    ])
    def test_one_line_exit_2(self, argv, tmp_path, capsys):
        missing = str(tmp_path / "missing")
        code = main([a.format(missing=missing) for a in argv])
        lines = capsys.readouterr().err.strip().split("\n")
        assert code == 2
        assert len(lines) == 1
        assert lines[0].startswith("error: invalid-input:")


class TestSamplingRange:
    """--seed and --samples outside [0, 2^63), and a bad --box, are refused before
    any sampling."""

    PAIR = TestInvalidInputContract.PAIR

    @pytest.mark.parametrize("command", ["pingpong", "certify-free"])
    @pytest.mark.parametrize("option, value", [
        ("--seed", "9223372036854775808"),
        ("--samples", "99999999999999999999"),
        ("--seed", "-1"),
        ("--box", "1,0,0.05,10"),
        ("--box", "-10,10,0,10"),
    ])
    def test_refused_before_sampling(self, command, option, value, monkeypatch, capsys,
                                     tmp_path):
        from teichpong import pingpong

        def unreachable(*args, **kwargs):
            raise AssertionError("the certificate was verified")
        monkeypatch.setattr(pingpong, "verify_pingpong", unreachable)
        out = tmp_path / "c.json"
        code = main([command, *self.PAIR, option, value, "--out", str(out)])
        lines = capsys.readouterr().err.strip().split("\n")
        message = "bad sampling box" if option == "--box" else f"{option} must lie in [0, 2^63)"
        assert code == 2 and len(lines) == 1
        assert lines[0].startswith(f"error: invalid-input: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["pingpong", "certify-free"])
    def test_largest_seed(self, command, tmp_path):
        argv = [command, *self.PAIR, "--seed", str(2 ** 63 - 1), "--out", str(tmp_path / "x")]
        assert main(argv) == 0


class TestVersionedCacheKeys:
    def test_old_thick_key_is_not_served(self, tmp_path):
        # a value stored under the key of the sampled derivation must not leak
        from teichpong import cache, torus_model
        from teichpong.mcg import min_translation
        path = tmp_path / "consts.json"
        old_key = ("thick:L=0.9624236501192069,axis_samples=256,grid=48,"
                   "r_max=5.0,margin=0.05")
        path.write_text(json.dumps({old_key: {"epsilon": 0.5, "F": 9.0,
                                              "short_curve_coeff": 99.0}}))
        try:
            cache.enable(str(path))
            params = torus_model.derive_thick_params(min_translation())
        finally:
            cache.disable()
        eps = math.sqrt(2 / math.sqrt(5))
        assert params.epsilon == eps
        assert params.F == 1.05 * math.sqrt(0.25 / (1 / eps ** 2) + 1 / eps ** 2)
        assert params.short_curve_coeff < 99.0


class TestSignedValues:
    PAIR = ["--matrix", "2,1,1,1", "--matrix", "1,1,1,2", "--samples", "200", "--no-cache"]

    @pytest.mark.parametrize("argv", [
        ["pingpong", *PAIR, "--box", "-1,1,0.05,10"],
        ["certify-free", *PAIR, "--box", "-1,1,0.05,10", "--max-word-len", "2"],
        ["classify", "--matrix", "-2,-1,-1,-1"],
        ["axis", "--matrix", "-2,-1,-1,-1"],
        ["pingpong", "--matrix", "-2,-1,-1,-1", "--matrix", "1,1,1,2", "--samples", "200",
         "--no-cache"],
        ["pair", "--m1", "-2,-1,-1,-1", "--m2", "-1,-1,-1,-2"],
        ["profile", "--m1", "-2,-1,-1,-1", "--m2", "-1,-1,-1,-2", "--t-min", "0",
         "--t-max", "0.5", "--step", "0.5"],
        ["profile", "--m1", "2,1,1,1", "--m2", "1,1,1,2", "--t-min", "-1e1",
         "--t-max", "-9.5", "--step", "0.5"],
        ["profile", "--m1", "2,1,1,1", "--m2", "1,1,1,2", "--t-min", "-.5e1",
         "--t-max", "-4.5"],
        ["teich", "--tau1", "-0.3,1.2", "--tau2", "0.1,1", "--farey-depth", "5"],
        ["teich", "--tau1", "0.1,1", "--tau2", "-.3,1.2", "--farey-depth", "5"],
    ])
    def test_leading_minus_is_a_value(self, argv, capsys):
        code = main(argv)
        assert code == 0
        assert "error:" not in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        [],
        ["classify"],
        ["pingpong", *PAIR, "--box"],
        ["classify", "--matrix", "--box"],
        ["certify-free", *PAIR, "--max-word-len", "x"],
        ["classify", "--matrix", "2,1,1,1", "--bogus"],
    ])
    def test_argv_error_is_one_line(self, argv, capsys):
        code = main(argv)
        lines = capsys.readouterr().err.strip().split("\n")
        assert code == 2
        assert len(lines) == 1
        assert lines[0].startswith("error: invalid-input:")


class TestVerifierErrorKept:
    ARGV = ["pingpong", "--matrix", "2,1,1,1", "--matrix", "1,1,1,2", "--samples", "200",
            "--no-cache"]

    @staticmethod
    def _failing_verifier(monkeypatch):
        def verify(cert, *args, **kwargs):
            raise CertificateInvalidError("planted failure", witness=[0.5, 1.0])
        monkeypatch.setattr(pingpong, "verify_pingpong", verify)

    def test_unwritable_out(self, tmp_path, monkeypatch, capsys):
        self._failing_verifier(monkeypatch)
        code = main([*self.ARGV, "--out", str(tmp_path / "missing" / "cert.json")])
        lines = capsys.readouterr().err.strip().split("\n")
        assert code == 1
        assert len(lines) == 1
        assert lines[0].startswith("error: certificate-invalid: planted failure")

    def test_certificate_still_written(self, tmp_path, monkeypatch, capsys):
        self._failing_verifier(monkeypatch)
        dest = tmp_path / "cert.json"
        code = main([*self.ARGV, "--out", str(dest)])
        assert code == 1
        assert json.loads(dest.read_text())["format"] == "teichpong.certificate.v1"


class TestWitnessPrint:
    def test_exact_witness(self, monkeypatch, capsys):
        # S lowered to the former false accept: two pairs of tables meet
        build = pingpong.build_certificate

        def lowered(*args, **kwargs):
            cert = build(*args, **kwargs)
            cert.S = 0.7714702
            return cert
        monkeypatch.setattr(pingpong, "build_certificate", lowered)
        code = main(["pingpong", "--matrix", "2,1,1,1", "--matrix", "1,1,1,2", "--no-cache"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: certificate-invalid: tables (0, +1) and (1, +1) meet "
            "witness={'tables': [[0, 1], [1, 1]]}\n")


class TestWordLengthFirst:
    @pytest.mark.parametrize("length, kind", [("0", "invalid-input"), ("-3", "invalid-input"),
                                              ("21", "oracle-refused")])
    def test_checked_before_the_certificate(self, length, kind, monkeypatch, capsys):
        def build(*args, **kwargs):
            raise AssertionError("certificate built before the word length was checked")
        monkeypatch.setattr(pingpong, "build_certificate", build)
        code = main(["certify-free", "--matrix", "2,1,1,1", "--matrix", "1,1,1,2",
                     "--max-word-len", length, "--no-cache"])
        lines = capsys.readouterr().err.strip().split("\n")
        assert code == 2
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {kind}:")


class TestOneMemo:
    PINGPONG = ["pingpong", "--matrix", "2,1,1,1", "--matrix", "1,1,1,2", "--samples", "200",
                "--out", "cert.json"]

    def test_each_run_writes_its_cache_file(self, tmp_path, monkeypatch):
        from teichpong import cache
        for name in ("first", "second"):
            run_dir = tmp_path / name
            run_dir.mkdir()
            monkeypatch.chdir(run_dir)
            try:
                assert main(self.PINGPONG) == 0
            finally:
                cache.disable()
            stored = json.loads((run_dir / cache.DEFAULT_FILENAME).read_text())
            assert any(key.startswith("b/v1:") for key in stored)

    def test_enable_starts_from_the_new_file(self, tmp_path):
        from teichpong import cache
        from teichpong.projection import derive_morse
        try:
            for name in ("a.json", "b.json"):
                cache.enable(str(tmp_path / name))
                derive_morse(2.0, 0.7)
                cache.flush()
        finally:
            cache.disable()
        stored = json.loads((tmp_path / "b.json").read_text())
        assert any(key.startswith("morse/v2:") for key in stored)


class TestCommandOptions:
    @pytest.mark.parametrize("argv", [
        ["pingpong", "--matrix", "2,1,1,1", "--matrix", "1,1,1,2", "--samples", "200",
         "--no-cache", "--threads", "2"],
        ["classify", "--matrix", "2,1,1,1", "--out", "x"],
        ["teich", "--tau1", "0,1", "--tau2", "0,2", "--farey-depth", "5", "--seed", "1"],
        ["axis", "--matrix", "2,1,1,1", "--samples", "5"],
    ])
    def test_unread_option_is_invalid(self, argv, capsys):
        code = main(argv)
        lines = capsys.readouterr().err.strip().split("\n")
        assert code == 2
        assert len(lines) == 1
        assert lines[0].startswith("error: invalid-input:")


class TestProfileBounds:
    M = ["--m1", "2,1,1,1", "--m2", "1,1,1,2"]

    @pytest.mark.parametrize("extra", [["--step", "1e-300"], ["--step", "nan"],
                                       ["--t-min", "-inf"], ["--t-max", "inf"]])
    def test_one_line_exit_2(self, extra, capsys):
        code = main(["profile", *self.M, *extra])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.strip().split("\n")
        assert len(lines) == 1
        assert lines[0].startswith("error: invalid-input:")
        assert "expected one argument" not in lines[0]

    # e^(2t) overflows from about t = 355 and underflows to 0 from about t = -373
    @pytest.mark.parametrize("t_min, t_max", [("400", "401"), ("-400", "-399")])
    def test_parameter_beyond_float_range(self, t_min, t_max, capsys):
        code = main(["profile", *self.M, "--t-min", t_min, "--t-max", t_max, "--no-cache"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (f"error: invalid-input: parameter t={float(t_min)} is out of "
                                "range: e^(2t) is not a positive finite float\n")

    def test_far_rows_are_finite(self, tmp_path):
        # |Re w| / Im w overflows here; d_min is -t - 0.352177688 on every row
        path = tmp_path / "profile.csv"
        code = main(["profile", *self.M, "--t-min", "-360", "--t-max", "-359",
                     "--csv", str(path), "--no-cache"])
        lines = path.read_text().splitlines()
        assert code == 0 and lines[0] == "t,s_star,d_min" and len(lines) == 22
        assert lines[1] == "-360,-0.10596767775,359.647822312"
        assert lines[-1] == "-359,-0.10596767775,358.647822312"
        for line in lines[1:]:
            t, _, d_min = map(float, line.split(","))
            assert d_min == pytest.approx(-t - 0.352177688, abs=1e-9)


class TestHugeTrace:
    def test_axis(self, capsys):
        t = 10 ** 155
        code = main(["axis", "--matrix", f"{t},-1,1,0", "--no-cache"])
        out = capsys.readouterr().out
        assert code == 0
        assert "repelling=1e-155\nattracting=1e+155\n" in out

    def test_axis_beyond_float_range(self, capsys):
        code = main(["axis", "--matrix", f"{10 ** 400},-1,1,0", "--no-cache"])
        lines = capsys.readouterr().err.strip().split("\n")
        assert code == 2
        assert len(lines) == 1
        assert lines[0].startswith("error: invalid-input:")

    def test_axis_root_beyond_float_range(self, capsys):
        code = main(["axis", "--matrix", f"{10 ** 308 + 1},1,{10 ** 308},1", "--no-cache"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: invalid-input: matrix entries are beyond float range\n"

    @pytest.mark.parametrize("t", [10 ** 155, 10 ** 400], ids=["10^155", "10^400"])
    def test_classify(self, t, capsys):
        code = main(["classify", "--matrix", f"{t},-1,1,0", "--no-cache"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == f"pseudo_anosov trace={t} Tr={math.log(t):.5f}\n"


def _narrow(k, g):
    """phi conjugated by phi^k g: as k grows, the axis closes in on phi's
    attracting end and its endpoints on each other (about 3e-5 apart at k = 6)."""
    from teichpong.mcg import MappingClass
    phi = MappingClass(2, 1, 1, 1)
    h = phi ** k * (MappingClass(1, 1, 0, 1) if g == "L" else MappingClass(1, 0, 1, 1))
    return ",".join(map(str, phi.conjugated_by(h).entries()))


class TestNarrowAxes:
    """The charts of narrow axes have large entries, whose determinant rounds
    by more than an absolute 1e-12; the axes are valid input all the same."""

    def test_trace_3_example(self):
        assert _narrow(6, "L") == "108579,-175681,67105,-108576"

    @pytest.mark.parametrize("g", ["L", "R"])
    def test_axis_and_pair(self, g, capsys):
        for k in range(5, 19):
            m = _narrow(k, g)
            assert main(["axis", "--matrix", m, "--no-cache"]) == 0, k
            assert main(["pair", "--m1", "2,1,1,1", "--m2", m, "--thresholds",
                         "--no-cache"]) == 0, k
        assert "error:" not in capsys.readouterr().err

    @pytest.mark.parametrize("k", [6, 7])
    @pytest.mark.parametrize("g", ["L", "R"])
    def test_pingpong_certifies(self, k, g, tmp_path, capsys):
        code = main(["pingpong", "--matrix", "1,1,1,2", "--matrix", _narrow(k, g),
                     "--box", "-10,10,1e-9,10", "--samples", "20000",
                     "--out", str(tmp_path / "cert.json"), "--no-cache"])
        assert code == 0
        assert json.loads((tmp_path / "cert.json").read_text())["verification"]["passed"]


class TestPowerBeyondFloatRange:
    """R = 1.05 GRID_STEP: N Tr passes 710, once the float range of the
    sampled checks.  The grid step is no option, so the tests coarsen
    pingpong.GRID_STEP."""

    def test_coarse_grid_verifies(self, monkeypatch, capsys):
        # S = 1055.6 and N = 2194: the power's float entries once raised OverflowError
        monkeypatch.setattr(pingpong, "GRID_STEP", 1e3)
        code = main(["pingpong", "--matrix", "2,1,1,1", "--matrix", "1,1,1,2",
                     "--samples", "10", "--no-cache"])
        assert code == 0
        assert capsys.readouterr().err.startswith("certificate-valid")

    @pytest.mark.parametrize("step", ["1e6", "1e9"])
    def test_coarse_grid_is_refused_before_the_power(self, step, capsys, monkeypatch):
        # S beyond S_MAX fails closed before any exp or power: unbounded, 1e6
        # ran past 60 s and 1e9 raised decimal.Overflow
        monkeypatch.setattr(pingpong, "GRID_STEP", float(step))
        start = time.perf_counter()
        code = main(["pingpong", "--matrix", "2,1,1,1", "--matrix", "1,1,1,2",
                     "--samples", "10", "--no-cache"])
        assert time.perf_counter() - start < 1.0
        lines = capsys.readouterr().err.strip().split("\n")
        assert code == 1
        assert len(lines) == 1
        assert lines[0].startswith("error: certificate-invalid: S is out of range")


class TestHugeEntryStderr:
    def test_verifies_with_one_stderr_line(self, tmp_path):
        # N Tr passes the float range of the sampled checks, which refused
        # the power with exit 2; numpy's RuntimeWarning lines once preceded
        # that error line
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        proc = subprocess.run(
            [sys.executable, "-m", "teichpong.cli", "pingpong", "--matrix",
             f"{10 ** 155},-1,1,0", "--matrix", "1,1,1,2", "--out", "c.json", "--no-cache"],
            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=120)
        assert proc.returncode == 0
        assert proc.stderr.splitlines() == ["certificate-valid mode=certified_search N=394"]
        assert json.loads((tmp_path / "c.json").read_text())["verification"]["passed"] is True


    def test_box_at_float_range_verifies(self, capsys):
        # the sampled checks' images overflowed on this box: exit 2 with
        # "non-finite input point in projection batch"
        code = main(["pingpong", "--matrix", "2,1,1,1", "--matrix", "1,1,1,2",
                     "--box=-10,10,1,1e306", "--no-cache"])
        assert code == 0
        assert capsys.readouterr().err == "certificate-valid mode=certified_search N=12\n"


class TestHugeNegativeEntry:
    K = 10 ** 70

    @pytest.mark.parametrize("m, entries", [
        (f"1,{-K},-1,{K + 1}", ["1", {"digit_count": 71, "negative": True}, "-1",
                                {"digit_count": 71}]),
        (f"{K + 1},{K},1,1", [{"digit_count": 71}, {"digit_count": 71}, "1", "1"]),
    ], ids=["negative-entry", "inverse"])
    def test_certificate_written(self, m, entries, tmp_path, capsys):
        # both classes were refused by the sampled checks' float range; the
        # certificate keeps the huge entries whatever their sign
        dest = tmp_path / "c.json"
        code = main(["pingpong", "--matrix", m, "--matrix", "1,1,1,2",
                     "--out", str(dest), "--no-cache"])
        assert code == 0
        assert capsys.readouterr().err == "certificate-valid mode=certified_search N=180\n"
        doc = json.loads(dest.read_text())
        assert doc["generators"][0]["matrix"] == entries
        assert doc["verification"]["passed"] is True


class TestTeichBeyondFloatRange:
    @pytest.mark.parametrize("tau1, tau2", [("0,1", "1e200,1"), ("1,5e-324", "-1,5e-324"),
                                            ("1e-300,1e-300", "0,1")])
    def test_finite_values(self, tau1, tau2, capsys):
        code = main(["teich", "--tau1", tau1, "--tau2", tau2, "--no-cache"])
        out = capsys.readouterr().out.split("\n")
        teich = float(out[0].removeprefix("teich="))
        kerckhoff = float(out[1].split()[0].removeprefix("kerckhoff="))
        assert code == 0
        assert math.isfinite(teich) and 0.0 < kerckhoff <= teich + 1e-9


# Each option draws from well-formed values and from malformed ones.
_MATRICES = (("2,1,1,1", "1,1,1,2", "3,8,1,3", "5,3,3,2", "13,8,8,5", f"{10 ** 155},-1,1,0",
              "0,1,-1,100000000000", "108579,-175681,67105,-108576"),
             ("1,1,0,1", "0,-1,1,0", "1,0,0,1", "2,0,0,2", "-2,-1,-1,-1", "1,2,3", "a,b,c,d",
              "", "-", f"{10 ** 400},-1,1,0"))
_REALS = (("0", "1", "-1", "3", "-3", "0.05", "0.5", "-1e1", "1e3", "1e9", "1e300"),
          ("1e-300", "nan", "inf", "-inf", "x", ""))
_POINTS = (("0,1", "0.3,2", "-0.5,0.8", "1e200,1", "1,5e-324", "-1,5e-324", "1e308,1.5e308",
            "-0.5e308,1"),
           ("0,0", "0,-1", "1", "a,b", "nan,1"))
_DEPTHS = (("1", "7", "500", "2000"), ("-5", "0", "2001", "x", "1e3"))
_PATHS = (("out.txt", "-"), ("missing/dir/out.txt",))
_BOXES = (("-10,10,0.05,10", "-1,1,0.05,10", "-1e308,1e308,1e-300,1e300"),
          ("1,-1,0.05,10", "-1,1,0,1", "a,b,c,d", "-1,1,nan,1"))


def _opt(name, values):
    good, bad = values
    return st.tuples(st.just(name), st.sampled_from(good) | st.sampled_from(bad))


def _flag(name):
    return st.just((name,))


def _unknown(name, values):
    """An option the command does not take, with values it once accepted."""
    return st.tuples(st.just(name), st.sampled_from(values))


_COMMON = [_flag("--no-cache")]
_SAMPLING = [_opt("--seed", (("0", "3"), ("-1", "x"))),
             _opt("--samples", (("0", "1", "200"), ("-3", "x"))),
             _opt("--out", _PATHS), _opt("--box", _BOXES)]
_MATRIX_PAIR = [_opt("--m1", _MATRICES), _opt("--m2", _MATRICES)]
#: per command, the fragments an argv is drawn from; pingpong's paper mode,
#: which computes B! for about a minute by design, is left to the acceptance tests
_FRAGMENTS = {
    "classify": [_opt("--matrix", _MATRICES)],
    "axis": [_opt("--matrix", _MATRICES)],
    "pair": [*_MATRIX_PAIR, _flag("--thresholds")],
    "profile": [*_MATRIX_PAIR, _opt("--t-min", _REALS), _opt("--t-max", _REALS),
                _opt("--step", _REALS), _opt("--csv", _PATHS)],
    "pingpong": [_opt("--matrix", _MATRICES), _opt("--mode", (("certified",), ("other",))),
                 _unknown("--grid-step", ("0.01", "1e308")), *_SAMPLING],
    "certify-free": [_opt("--matrix", _MATRICES), _unknown("--mode", ("certified", "paper")),
                     _opt("--max-word-len", (("1", "6", "8"), ("-1", "0", "21", "x"))),
                     *_SAMPLING],
    "teich": [_opt("--tau1", _POINTS), _opt("--tau2", _POINTS), _opt("--farey-depth", _DEPTHS)],
}
_STRAY = st.sampled_from(("--bogus", "-x", "--", "1", "-h", "classify", "--matrix"))


#: per command, options that make a working argv, drawn as a start most of the time
_STARTS = {
    "classify": (("--matrix", "2,1,1,1"),),
    "axis": (("--matrix", "2,1,1,1"),),
    "pair": (("--m1", "2,1,1,1"), ("--m2", "3,8,1,3")),
    "profile": (("--m1", "2,1,1,1"), ("--m2", "3,8,1,3")),
    "pingpong": (("--matrix", "2,1,1,1"), ("--matrix", "1,1,1,2"), ("--samples", "200")),
    "certify-free": (("--matrix", "2,1,1,1"), ("--matrix", "1,1,1,2"), ("--samples", "200")),
    "teich": (("--tau1", "0,1"), ("--tau2", "0.3,2")),
}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_FRAGMENTS)))
    pool = st.one_of(*_FRAGMENTS[command], *_COMMON)
    frags = list(_STARTS[command]) if draw(st.integers(0, 4)) else []
    frags += draw(st.lists(pool, max_size=5))
    if not draw(st.integers(0, 9)):
        frags.insert(draw(st.integers(0, len(frags))), (draw(_STRAY),))
    return [command, *(token for frag in frags for token in frag)]


#: the kind of every concrete error; the base class's placeholder is not one
_ERROR_KINDS = {cls.code for cls in TeichpongError.__subclasses__()}


class TestArgvFuzz:
    """Every argv ends in exit 0, 1 or 2, with one error line exactly when it
    fails, no traceback, and within a fixed wall time."""

    BOUND_S = 20

    @given(_argvs())
    @settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture,
                                                       HealthCheck.too_slow])
    def test_outcome_is_bounded(self, tmp_path, monkeypatch, argv):
        from teichpong import cache
        monkeypatch.chdir(tmp_path)
        out, err = io.StringIO(), io.StringIO()

        def expire(signum, frame):
            raise TimeoutError(f"{argv} ran past {self.BOUND_S} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(self.BOUND_S)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # -h prints the help and exits
                    code = exc.code
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
            cache.disable()
        assert time.perf_counter() - start < self.BOUND_S
        assert code in (0, 1, 2), argv
        errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
        assert len(errors) == (code != 0), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue() + out.getvalue()
        assert "np.float64" not in err.getvalue() + out.getvalue()
        for line in errors:
            assert line.split(":")[1].strip() in _ERROR_KINDS, line
