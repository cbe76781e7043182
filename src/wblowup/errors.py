"""Exception hierarchy for the library.

Every class carries a stable ``code`` string; the command line surfaces the
code unchanged, so downstream tooling can match on it instead of on message
text.
"""

__all__ = [
    "WblowupError",
    "DimensionMismatchError",
    "ZeroPolynomialError",
    "InvalidWeightError",
    "InvalidArgumentError",
    "RadicalNotPrimeError",
    "IllFormedActionError",
    "NoSuchContractionError",
    "InvariantViolationError",
    "PolynomialSyntaxError",
]


class WblowupError(ValueError):
    """Base class for all errors raised by this package."""

    code = "ERROR"


class DimensionMismatchError(WblowupError):
    """Operands live in polynomial rings with different variable counts."""

    code = "DIMENSION_MISMATCH"


class ZeroPolynomialError(WblowupError):
    """The zero polynomial was passed where its weight would be undefined."""

    code = "ZERO_POLYNOMIAL"


class InvalidWeightError(WblowupError):
    """Weight vector violates its shape constraints (positive entries first, gcd 1)."""

    code = "INVALID_WEIGHT"


class InvalidArgumentError(WblowupError):
    """An argument lies outside an operation's documented domain."""

    code = "INVALID_ARGUMENT"


class RadicalNotPrimeError(WblowupError):
    """The radical of the ideal is not generated by single variables."""

    code = "RADICAL_NOT_PRIME"


class IllFormedActionError(WblowupError):
    """Cyclic quotient data that is not well formed.

    Some coordinate i has gcd(order, twists off coordinate i) > 1, so a
    nontrivial group element fixes the hyperplane x_i = 0 (or the whole
    space) and the Reid-Tai criterion does not apply.
    """

    code = "ILL_FORMED_ACTION"


class NoSuchContractionError(WblowupError):
    """Requested contraction parameters fall outside the modeled family."""

    code = "NO_SUCH_CONTRACTION"


class InvariantViolationError(WblowupError):
    """A computed result broke an identity the mathematics guarantees.

    Raised by internal consistency checks; it signals a defect in the
    library, not bad input.
    """

    code = "INVARIANT_VIOLATION"


class PolynomialSyntaxError(WblowupError):
    """Polynomial or monomial text failed to parse.

    ``position`` is the 0-based character offset of the offending token.
    """

    code = "PARSE_ERROR"

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position
