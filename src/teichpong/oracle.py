"""Independent ground truth by exact word matching.

Searches every reduced word up to a length bound in the alphabet of the
generators' N-th powers for a product equal to plus or minus the identity;
such a word is a relation and refutes freeness.  The search meets in the
middle: a reduced word of length l is a relation exactly when its first
ceil(l/2) letters and the inverse of the rest, two reduced words, have equal
products, so hashing the exact products of the reduced words up to length
ceil(L/2) finds every relation up to length L.  That index is the memory
cost, and lengths whose index would exceed ``MAX_INDEXED_WORDS`` words are
refused.  This is a refutation engine, not a proof: the proof is the
certificate, and this module exists so the certificate has something real to
disagree with (commuting inputs are caught at word length four).
"""

from __future__ import annotations

from .errors import InvalidInputError, OracleRefusedError
from .hyp2 import Record
from .mcg import _canonical_sign

#: most reduced words whose products are held at once (lengths 1..ceil(L/2))
MAX_INDEXED_WORDS = 2 ** 18


class WordReport(Record):
    """One run of ``free_check``.  ``incomplete`` is always false: the run has
    no time budget, and the field leaves with the report's next schema change."""

    __slots__ = _fields = ("n_generators", "N", "max_word_length", "words_checked",
                           "violations", "incomplete")

    def __init__(self, n_generators: int, N: int, max_word_length: int, words_checked: int,
                 violations: list | None = None, incomplete: bool = False):
        Record.__init__(self, n_generators, N, max_word_length, words_checked,
                        [] if violations is None else violations, incomplete)


def count_reduced_words(n: int, k: int) -> int:
    """Reduced words of length exactly k over n generators: 2n (2n-1)^(k-1)."""
    if n < 1 or k < 1:
        raise InvalidInputError("need n >= 1 and k >= 1")
    return 2 * n * (2 * n - 1) ** (k - 1)


def check_word_length(n: int, max_word_length: int) -> None:
    """Reject a length bound below 1 or one whose index exceeds the ceiling."""
    if max_word_length < 1:
        raise InvalidInputError("need max_word_length >= 1")
    indexed = 0
    for k in range(1, (max_word_length + 1) // 2 + 1):
        indexed += count_reduced_words(n, k)
        if indexed > MAX_INDEXED_WORDS:
            raise OracleRefusedError(
                f"word length {max_word_length} over {n} generators needs more than "
                f"{MAX_INDEXED_WORDS} indexed words"
            )


def _letter_name(letter: int) -> str:
    return f"g{letter // 2 + 1}" if letter % 2 == 0 else f"g{letter // 2 + 1}^-1"


def free_check(generators, N: int, max_word_length: int = 6) -> WordReport:
    """Meet-in-the-middle search for relations among the N-th powers.

    Letter 2i is g_i^N and letter 2i+1 its inverse.  For each length l, every
    reduced word u of length ceil(l/2) is looked up among the reduced words x
    of length floor(l/2) with the same product; u followed by the inverse of
    x is reduced, and so a relation, when x is empty or ends in a letter
    other than u's last.  Violations are listed in letter order, shorter
    prefixes first.  The products of at most ``MAX_INDEXED_WORDS`` words are
    held at once (``check_word_length``).  Any input is accepted (the
    certificate pipeline guards its own preconditions), and the report is a
    function of the generators, N and the length bound alone.
    """
    if N < 1:
        raise InvalidInputError("need N >= 1")
    gens = list(generators)
    n = len(gens)
    if n < 1:
        raise InvalidInputError("need at least one generator")
    check_word_length(n, max_word_length)
    letters = []
    for g in gens:
        p = g ** N
        letters += [p.entries(), p.inverse().entries()]

    report = WordReport(n_generators=n, N=N, max_word_length=max_word_length,
                        words_checked=0)
    # products are sign-canonical entry tuples; a product of determinant-one
    # integer matrices has determinant one, so only the sign needs fixing
    identity = (1, 0, 0, 1)
    layer = [((), identity)]          # reduced words of length ceil(l/2), with products
    by_product = {identity: [()]}     # reduced words of length floor(l/2), by product
    relations = []
    for length in range(1, max_word_length + 1):
        if length % 2:
            layer = [(u + (j,), _canonical_sign(a * e + b * g, a * f + b * h,
                                                c * e + d * g, c * f + d * h))
                     for u, (a, b, c, d) in layer
                     for j, (e, f, g, h) in enumerate(letters) if not u or j != u[-1] ^ 1]
        else:
            by_product = {}
            for x, p in layer:
                by_product.setdefault(p, []).append(x)
        for u, p in layer:
            for x in by_product.get(p, ()):
                if not x or x[-1] != u[-1]:
                    relations.append(u + tuple(j ^ 1 for j in reversed(x)))
        report.words_checked += count_reduced_words(n, length)

    report.violations = [
        {"word": " ".join(map(_letter_name, w)), "matrix": [1, 0, 0, 1]}
        for w in sorted(relations)
    ]
    return report


def cross_validate(cert, max_word_length: int = 6) -> bool:
    """Run the word oracle against a certificate's N; True iff no relation found."""
    if cert.mode != "certified_search":
        raise OracleRefusedError(
            "paper-formula powers are astronomically large and cannot be exponentiated; "
            "cross-validation needs a certified_search certificate"
        )
    return not free_check(cert.generators, cert.N, max_word_length).violations
