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
the same operations with a stable JSON document format.  The package
namespace is the union of the seven modules' ``__all__`` lists.
"""

from .errors import *
from .monomials import *
from .weights import *
from .symbolic import *
from .charts import *
from .contraction import *
from .parsing import *

__version__ = "0.1.0"
