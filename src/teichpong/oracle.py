"""Independent ground truth by exact word enumeration.

Enumerates every reduced word up to a length bound in the alphabet of the
generators' N-th powers and multiplies exact integer matrices; a word whose
product is plus or minus the identity is a relation and refutes freeness.
This is a refutation engine, not a proof: the proof is the certificate, and
this module exists so the certificate has something real to disagree with
(commuting inputs are caught at word length four).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .errors import InvalidInputError, OracleRefusedError
from .mcg import MappingClass


@dataclass
class WordReport:
    n_generators: int
    N: int
    max_word_length: int
    words_checked: int
    violations: list = field(default_factory=list)
    incomplete: bool = False


def count_reduced_words(n: int, k: int) -> int:
    """Reduced words of length exactly k over n generators: 2n (2n-1)^(k-1)."""
    if n < 1 or k < 1:
        raise InvalidInputError("need n >= 1 and k >= 1")
    return 2 * n * (2 * n - 1) ** (k - 1)


def _letter_name(index: int, sign: int) -> str:
    return f"g{index + 1}" if sign > 0 else f"g{index + 1}^-1"


def free_check(generators, N: int, max_word_length: int = 6,
               time_budget: float | None = None) -> WordReport:
    """Depth-first enumeration of reduced words in the N-th powers.

    Letters are ordered generator index first, then inverse; prefix products
    live on the recursion spine so each word costs one multiplication.  Any
    input is accepted (the certificate pipeline guards its own
    preconditions); a time budget yields a partial report flagged
    incomplete.
    """
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

    # iterative DFS: stack holds (product, last_letter, depth, word_tokens);
    # words are counted when visited, in canonical preorder
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
        # push in reverse so the next pop follows generator order, then inverse
        for letter, mat in reversed(powers):
            if last is not None and letter == (last[0], -last[1]):
                continue
            stack.append((prod * mat, letter, depth + 1, tokens + (_letter_name(*letter),)))

    return report


def cross_validate(cert, max_word_length: int = 6,
                   time_budget: float | None = None) -> bool:
    """Run the word oracle against a certificate's N; True iff no relation found."""
    if cert.mode != "certified_search":
        raise OracleRefusedError(
            "paper-formula powers are astronomically large and cannot be exponentiated; "
            "cross-validation needs a certified_search certificate"
        )
    if cert.N < 1:
        raise InvalidInputError("certificate power must be at least 1")
    report = free_check(cert.generators, cert.N, max_word_length, time_budget)
    return not report.violations and not report.incomplete
