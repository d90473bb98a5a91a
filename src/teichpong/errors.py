"""Typed errors shared by all modules."""


class TeichpongError(Exception):
    """Base class for all library errors."""

    code = "error"


class InvalidInputError(TeichpongError):
    code = "invalid-input"


class DegenerateInputError(TeichpongError):
    code = "degenerate-input"


class ClassificationError(TeichpongError):
    """Operation needs a hyperbolic (infinite order, irrational axis) class."""

    code = "not-pseudo-anosov"


class NotIndependentError(TeichpongError):
    """Pair shares an axis (common power), so pairwise machinery does not apply."""

    code = "not-independent"


class DichotomyViolationError(TeichpongError):
    """Two hyperbolic classes share exactly one boundary fixed point.

    This cannot happen for integer matrices; if it is ever reported the
    commutator-based independence test and the fixed-point geometry disagree
    and the inputs must be surfaced, not silently classified.
    """

    code = "fixed-point-dichotomy-violation"


class ConstantDerivationError(TeichpongError):
    code = "constant-derivation"


class HorizonExceededError(TeichpongError):
    """The closed-form fast-divergence offset reaches the bound HORIZON."""

    code = "horizon-exceeded"


class FViolationError(TeichpongError):
    """No marking fits under the supplied length bound; the bound was mis-derived."""

    code = "marking-bound-violation"


class CertificateInvalidError(TeichpongError):
    """A verification check failed; carries a witness of the failure."""

    code = "certificate-invalid"

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class OracleRefusedError(TeichpongError):
    """The word oracle cannot run on this input (for example paper-mode powers)."""

    code = "oracle-refused"
