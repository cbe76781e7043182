"""Exact arithmetic for weighted blow-ups of affine space.

The package computes, over the rationals and without floating point:

* weighted degrees of polynomials and the monomial ideals spanned by each
  weighted-degree threshold (``weights``),
* ordinary and symbolic powers of monomial ideals with prime monomial
  radical (``monomials``, ``symbolic``),
* chart atlases of weighted blow-ups, their cyclic quotient types, and the
  Reid-Tai terminality test (``charts``),
* numerical profiles of the divisorial contractions resolved by such
  blow-ups (``contraction``).

Everything is immutable and pure; the ``wblowup`` console script exposes
the same operations with a stable JSON document format.
"""

from .errors import (
    DimensionMismatchError,
    IllFormedActionError,
    InvalidArgumentError,
    InvariantViolationError,
    InvalidWeightError,
    NoSuchContractionError,
    PolynomialSyntaxError,
    RadicalNotPrimeError,
    WblowupError,
    ZeroPolynomialError,
)
from .monomials import (
    EqualityVerdict,
    Monomial,
    MonomialIdeal,
    Polynomial,
    colon,
    contains,
    contains_monomial,
    divides,
    grlex_key,
    ideal_power,
    ideal_product,
    ideals_equal,
    minimalize,
    radical,
    saturate,
)
from .weights import (
    Weight,
    find_normality_index,
    monomial_weight,
    power_equality,
    sigma_wt,
    slicing_decomposition_check,
    weighted_ideal_gens,
)
from .symbolic import (
    PrimaryMonomialIdeal,
    as_primary,
    symbolic_equals_ordinary,
    symbolic_power,
)
from .charts import (
    BlowupAtlas,
    ChartDescription,
    CyclicQuotientType,
    cartier_index,
    charts,
    discrepancy,
    is_terminal,
    is_terminal_blowup,
    pushforward_membership,
    reid_tai_ages,
    substitute_through_chart,
)
from .contraction import (
    CheckResult,
    ContractionProfile,
    ValidationReport,
    contraction_profile,
    validate_profile,
)
from .parsing import (
    format_monomial,
    format_polynomial,
    format_weight,
    parse_monomial,
    parse_polynomial,
    parse_weight,
)

__version__ = "0.1.0"
