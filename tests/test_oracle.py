import time
import tracemalloc

import pytest

from conftest import L_GEN, PHI, PSI, R_GEN
from teichpong.errors import InvalidInputError, OracleRefusedError
from teichpong.mcg import MappingClass
from teichpong.oracle import (MAX_INDEXED_WORDS, check_word_length, count_reduced_words,
                              WordReport, cross_validate, free_check)
from teichpong.pingpong import build_certificate, verify_pingpong
from teichpong.serialize import word_report_document

SANOV_A = MappingClass(1, 2, 0, 1)
SANOV_B = MappingClass(1, 0, 2, 1)


class TestCounting:
    def test_closed_form(self):
        assert count_reduced_words(2, 1) == 4
        assert count_reduced_words(2, 2) == 12
        assert count_reduced_words(2, 3) == 36

    def test_enumeration_matches_count(self):
        report = free_check([SANOV_A, SANOV_B], 1, 5)
        assert report.words_checked == sum(count_reduced_words(2, k) for k in range(1, 6))

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            count_reduced_words(0, 1)


class TestFreeCheck:
    def test_elliptic_order_two(self):
        rot = MappingClass(0, -1, 1, 0)
        report = free_check([rot], 1, 2)
        words = [v["word"] for v in report.violations]
        assert "g1 g1" in words
        assert "g1^-1 g1^-1" in words

    def test_sanov_pair_is_free(self):
        report = free_check([SANOV_A, SANOV_B], 1, 8)
        assert report.violations == []
        assert report.words_checked == sum(count_reduced_words(2, k) for k in range(1, 9))

    def test_commuting_pair_commutator_found(self):
        report = free_check([PHI ** 2, PHI ** 3], 1, 4)
        words = [v["word"] for v in report.violations]
        assert "g1 g2 g1^-1 g2^-1" in words

    def test_standard_pair_with_certificate_power(self):
        cert = build_certificate([PHI, PSI])
        verify_pingpong(cert, 1000)
        report = free_check([PHI, PSI], cert.N, 6)
        assert report.violations == []

    def test_deterministic_reports(self):
        a = free_check([PHI ** 2, PHI ** 3], 1, 4)
        b = free_check([PHI ** 2, PHI ** 3], 1, 4)
        assert word_report_document(a) == word_report_document(b)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            free_check([SANOV_A], 0, 3)
        with pytest.raises(InvalidInputError):
            free_check([], 1, 3)


class TestCrossValidate:
    def test_valid_certificate(self):
        cert = build_certificate([PHI, PSI])
        verify_pingpong(cert, 1000)
        assert cross_validate(cert, 6) is True

    def test_paper_mode_refused(self):
        cert = build_certificate([PHI, PSI])
        cert.mode = "paper_formula"
        with pytest.raises(OracleRefusedError):
            cross_validate(cert, 4)

    def test_tampered_power_refused(self):
        cert = build_certificate([PHI, PSI])
        cert.N = 0
        with pytest.raises(InvalidInputError):
            cross_validate(cert, 4)


def _depth_first_letter_name(index: int, sign: int) -> str:
    return f"g{index + 1}" if sign > 0 else f"g{index + 1}^-1"


def _depth_first_free_check(generators, N: int, max_word_length: int = 6,
                            time_budget: float | None = None) -> WordReport:
    """The depth-first walk the meet-in-the-middle search replaced, kept as
    the reference: one multiplication per word, words in preorder."""
    if N < 1:
        raise InvalidInputError("need N >= 1")
    if max_word_length < 1:
        raise InvalidInputError("need max_word_length >= 1")
    gens = list(generators)
    n = len(gens)
    if n < 1:
        raise InvalidInputError("need at least one generator")
    powers = []
    for i, g in enumerate(gens):
        p = g ** N
        powers.append(((i, 1), p))
        powers.append(((i, -1), p.inverse()))

    report = WordReport(n_generators=n, N=N, max_word_length=max_word_length,
                        words_checked=0)
    start = time.perf_counter()
    identity = MappingClass.identity()

    stack = [(identity, None, 0, ())]
    while stack:
        prod, last, depth, tokens = stack.pop()
        if depth > 0:
            if time_budget is not None and time.perf_counter() - start > time_budget:
                report.incomplete = True
                return report
            report.words_checked += 1
            if prod.is_projective_identity():
                report.violations.append(
                    {"word": " ".join(tokens), "matrix": list(prod.entries())}
                )
        if depth == max_word_length:
            continue
        for letter, mat in reversed(powers):
            if last is not None and letter == (last[0], -last[1]):
                continue
            stack.append((prod * mat, letter, depth + 1,
                          tokens + (_depth_first_letter_name(*letter),)))

    return report


ROT2 = MappingClass(0, -1, 1, 0)
ROT3 = MappingClass(0, -1, 1, 1)


class TestMeetInTheMiddle:
    @pytest.mark.parametrize("gens, N, length, n_violations", [
        ([PHI ** 2, PHI ** 3], 1, 9, 1452),
        ([PHI, PHI ** 2], 1, 8, 836),
        ([ROT2, ROT3], 1, 8, 512),
        ([MappingClass.identity(), PHI], 1, 6, 236),
        ([ROT2], 1, 8, 8),
        ([L_GEN, R_GEN], 1, 8, 148),
        ([SANOV_A, SANOV_B], 1, 8, 0),
        ([PHI, PSI, PHI * PSI * PSI], 2, 5, 0),
        ([L_GEN ** (10 ** 20) * R_GEN, R_GEN ** 3 * L_GEN ** 2], 2, 5, 0),
    ], ids=["commuting", "phi-phi2", "elliptics", "identity", "rotation",
            "twists", "sanov", "triple", "big-entries"])
    def test_same_document_as_depth_first(self, gens, N, length, n_violations):
        report = free_check(gens, N, length)
        assert len(report.violations) == n_violations
        assert (word_report_document(report)
                == word_report_document(_depth_first_free_check(gens, N, length)))

    @pytest.mark.parametrize("n, length", [(2, 22), (2, 21), (3, 16), (3, 15), (4, 13)])
    def test_ceiling_refuses_before_any_power(self, n, length, monkeypatch):
        def no_power(self, k):
            raise AssertionError("a power was computed before the refusal")

        monkeypatch.setattr(MappingClass, "__pow__", no_power)
        with pytest.raises(OracleRefusedError):
            free_check([PHI] * n, 12, length)

    @pytest.mark.parametrize("n, longest", [(1, 2 * (MAX_INDEXED_WORDS // 2)), (2, 20),
                                            (3, 14), (4, 12)])
    def test_ceiling_admits(self, n, longest):
        check_word_length(n, longest)
        with pytest.raises(OracleRefusedError):
            check_word_length(n, longest + 1)

    def test_length_below_one(self):
        with pytest.raises(InvalidInputError):
            check_word_length(2, 0)
        with pytest.raises(InvalidInputError):
            free_check([PHI, PSI], 1, 0)

    def test_standard_pair_length_20(self):
        tracemalloc.start()
        try:
            report = free_check([PHI, PSI], 12, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.words_checked == 6_973_568_800
        assert report.violations == [] and not report.incomplete
        assert peak < 128 * 2 ** 20
