"""Numerical profiles of high-length extremal contractions.

The family modeled here contracts a divisor to a codimension r + 2 center
and is resolved by a weighted blow-up with weight (1, 1, b, ..., b, 0, ..., 0)
carrying r copies of b.  The profile reads its numbers off that weight w.
With K_X = f^*K_Y + discrepancy(w) E and the polarization L = f^*A - bE,
a curve C in a fiber has nef value tau = -K.C / L.C = discrepancy(w) / b.
The center codimension is the number k of positive entries and the fibers
P(w) have dimension k - 1.  The chart atlas and its terminality verdict are
recorded as well.  ``validate_profile`` checks each number against its
closed form in (n, r, b) (tau = r + 1/b, fiber dimension r + 1,
discrepancy r*b + 1) and reports per-check results, so a hand-edited
profile pinpoints exactly which relation broke.  tests/oracles.py sweeps
small weights and finds this family to be the only one with tau > k - 2
and a terminal blow-up.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .charts import BlowupAtlas, charts, discrepancy, is_terminal, is_terminal_blowup
from .errors import InvalidArgumentError, InvariantViolationError, NoSuchContractionError
from .weights import Weight

__all__ = [
    "CheckResult",
    "ValidationReport",
    "ContractionProfile",
    "contraction_profile",
    "validate_profile",
]


@dataclass(frozen=True, slots=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True, slots=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)


@dataclass(frozen=True, slots=True)
class ContractionProfile:
    """Numerical record of one contraction in the family.

    n is the ambient dimension, r the number of weight-b entries, b the
    multiplicity of the contracted divisor in the pulled-back polarization.
    """

    n: int
    r: int
    b: int
    tau: Fraction
    weight: Weight
    center_codim: int
    fiber_dim: int
    discrepancy: int
    charts: BlowupAtlas
    terminal: bool


def contraction_profile(n: int, r: int, b: int) -> ContractionProfile:
    """Build the profile for parameters (n, r, b).

    Requires n >= 2, r >= 0, b >= 1 and r + 2 <= n (the center must fit in
    the ambient space).  r = 0 degenerates to the ordinary smooth blow-up
    weight (1, 1, 0, ..., 0).  Terminality of the blow-up is computed from
    the charts, not assumed, and a non-terminal verdict raises
    InvariantViolationError.
    """
    if n < 2:
        raise InvalidArgumentError(f"ambient dimension must be at least 2, got {n}")
    if r < 0:
        raise InvalidArgumentError(f"r must be non-negative, got {r}")
    if b < 1:
        raise InvalidArgumentError(f"b must be positive, got {b}")
    if r + 2 > n:
        raise NoSuchContractionError(
            f"no contraction with center codimension {r + 2} in dimension {n}"
        )
    weight = Weight((1, 1) + (b,) * r + (0,) * (n - r - 2))
    atlas = charts(weight)
    terminal = all(is_terminal(chart.quotient) for chart in atlas.charts)
    if not terminal:
        raise InvariantViolationError(
            f"weighted blow-up with weight {weight.entries} of this family is not terminal"
        )
    disc = discrepancy(weight)
    return ContractionProfile(
        n=n,
        r=r,
        b=b,
        tau=Fraction(disc, b),
        weight=weight,
        center_codim=weight.k,
        fiber_dim=weight.k - 1,
        discrepancy=disc,
        charts=atlas,
        terminal=terminal,
    )


def validate_profile(p: ContractionProfile) -> ValidationReport:
    """Re-derive the profile invariants, one check per invariant.

    A hand-edited profile therefore flags exactly the invariants it breaks:
    the nef value formula, the global nef bound, the fiber dimension
    relations, the center codimension, the weight shape, the discrepancy
    identities, and terminality of the resolving blow-up.
    """
    expected_tau = p.r + Fraction(1, p.b)
    expected_weight = (1, 1) + (p.b,) * p.r + (0,) * (p.n - p.r - 2)
    recomputed_terminal = is_terminal_blowup(p.weight)
    checks = (
        CheckResult(
            "nef-value-formula",
            p.tau == expected_tau,
            f"tau = {p.tau}, expected r + 1/b = {expected_tau}",
        ),
        CheckResult(
            "nef-value-bound",
            p.tau <= p.n + 1,
            f"tau = {p.tau} must be at most n + 1 = {p.n + 1}",
        ),
        CheckResult(
            "fiber-dimension",
            p.fiber_dim == p.r + 1 and Fraction(p.fiber_dim) >= p.tau and p.tau > p.r,
            f"fiber_dim = {p.fiber_dim} must equal r + 1 = {p.r + 1} "
            f"and dominate tau = {p.tau}, which must exceed r = {p.r}",
        ),
        CheckResult(
            "center-codimension",
            p.center_codim == p.r + 2,
            f"center_codim = {p.center_codim}, expected r + 2 = {p.r + 2}",
        ),
        CheckResult(
            "weight-shape",
            p.weight.entries == expected_weight,
            f"weight = {p.weight.entries}, expected {expected_weight}",
        ),
        CheckResult(
            "discrepancy",
            p.discrepancy == p.r * p.b + 1
            and p.discrepancy == discrepancy(p.weight)
            and p.b * p.tau == p.discrepancy,
            f"discrepancy = {p.discrepancy} must equal r*b + 1 = {p.r * p.b + 1} "
            f"and b * tau = {p.b * p.tau}",
        ),
        CheckResult(
            "terminality",
            p.terminal and recomputed_terminal,
            f"stored terminal = {p.terminal}, recomputed = {recomputed_terminal}",
        ),
    )
    return ValidationReport(checks)
