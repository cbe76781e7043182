"""Integer arguments: every entry point refuses a non-integer or too small one alike.

Each row names one public entry point, a call of the one argument under
test, a float it refuses, the name its message gives the argument, and the
largest value it refuses as too small with the exact message for it.  A
string is refused like the float.  Every refusal is INVALID_ARGUMENT with
the exact message, so no non-integer escapes as a raw TypeError or builds a
value with a float dimension.  Without the check, the floats of the rows
for the three arguments of ``contraction_profile``, ``parse_polynomial``,
``parse_weight`` and ``Monomial.one`` would escape as raw TypeErrors, those
of ``Polynomial`` and ``MonomialIdeal`` would build a value with a float
ambient dimension, ``pushforward_membership`` would answer True, and
``Monomial.variable(1.5, 2)`` would return the monomial 1.

A value of the wrong library type is refused the same way, with a message
naming the types expected: without the check, each call of that table
would escape as a raw AttributeError.
"""

from __future__ import annotations

import pytest

from wblowup.charts import pushforward_membership
from wblowup.contraction import contraction_profile
from wblowup.errors import InvalidArgumentError, WblowupError
from wblowup.monomials import (
    Monomial,
    MonomialIdeal,
    Polynomial,
    contains,
    divides,
    ideal_power,
)
from wblowup.parsing import parse_polynomial, parse_weight
from wblowup.symbolic import (
    as_primary,
    compare_symbolic_power,
    symbolic_equals_ordinary,
    symbolic_power,
)
from wblowup.weights import (
    Weight,
    find_normality_index,
    monomial_weight,
    power_equality,
    sigma_wt,
    weighted_ideal_gens,
)

_W = Weight((1, 1))
_PRIMARY = as_primary(MonomialIdeal(2, (Monomial((2, 0)), Monomial((1, 1)), Monomial((0, 3)))))
_DIMENSION = ("ambient dimension", 0, "ambient dimension must be at least 1")

# site: (call, float, argument name, too small, message for it)
SITES = {
    "Monomial.__pow__": (
        lambda v: Monomial((1, 2)) ** v,
        2.5,
        "monomial power exponent",
        -1,
        "monomial power exponent must be non-negative, got -1",
    ),
    "Monomial.one": (lambda v: Monomial.one(v), 2.0, *_DIMENSION),
    "Monomial.variable.index": (
        lambda v: Monomial.variable(v, 2),
        1.5,
        "variable index",
        0,
        "variable index 0 out of range 1..2",
    ),
    "Monomial.variable.ambient_dim": (lambda v: Monomial.variable(1, v), 2.0, *_DIMENSION),
    "Polynomial": (lambda v: Polynomial(v, ()), 1.5, *_DIMENSION),
    "MonomialIdeal": (lambda v: MonomialIdeal(v, ()), 2.0, *_DIMENSION),
    "ideal_power": (
        lambda v: ideal_power(_PRIMARY.ideal, v),
        2.0,
        "power exponent",
        -1,
        "power exponent must be non-negative, got -1",
    ),
    "weighted_ideal_gens": (
        lambda v: weighted_ideal_gens(_W, v),
        4.0,
        "threshold",
        -1,
        "threshold must be non-negative, got -1",
    ),
    "power_equality.L": (
        lambda v: power_equality(_W, v, 2),
        2.0,
        "threshold L",
        0,
        "threshold L must be positive, got 0",
    ),
    "power_equality.d": (
        lambda v: power_equality(_W, 2, v),
        2.0,
        "power exponent",
        0,
        "power exponent must be positive, got 0",
    ),
    "find_normality_index.d_max": (
        lambda v: find_normality_index(_W, v, 3),
        3.0,
        "d_max",
        1,
        "d_max must be at least 2, got 1",
    ),
    "find_normality_index.L_max": (
        lambda v: find_normality_index(_W, 3, v),
        3.0,
        "L_max",
        0,
        "L_max must be positive, got 0",
    ),
    "symbolic_power": (
        lambda v: symbolic_power(_PRIMARY, v),
        2.0,
        "symbolic power exponent",
        0,
        "symbolic power exponent must be positive, got 0",
    ),
    "symbolic_equals_ordinary": (
        lambda v: symbolic_equals_ordinary(_PRIMARY, v),
        2.0,
        "symbolic power exponent",
        0,
        "symbolic power exponent must be positive, got 0",
    ),
    "compare_symbolic_power": (
        lambda v: compare_symbolic_power(_PRIMARY, v),
        2.0,
        "symbolic power exponent",
        0,
        "symbolic power exponent must be positive, got 0",
    ),
    "pushforward_membership": (
        lambda v: pushforward_membership(_W, v, parse_polynomial("x1^3", 2)),
        2.5,
        "order",
        -1,
        "order must be non-negative, got -1",
    ),
    "contraction_profile.n": (
        lambda v: contraction_profile(v, 1, 2),
        4.0,
        "ambient dimension",
        1,
        "ambient dimension must be at least 2, got 1",
    ),
    "contraction_profile.r": (
        lambda v: contraction_profile(4, v, 2),
        1.0,
        "r",
        -1,
        "r must be non-negative, got -1",
    ),
    "contraction_profile.b": (
        lambda v: contraction_profile(4, 1, v),
        2.5,
        "b",
        0,
        "b must be positive, got 0",
    ),
    "parse_polynomial": (lambda v: parse_polynomial("x1", v), 2.0, *_DIMENSION),
    "parse_weight": (lambda v: parse_weight("1,2", v), 2.5, *_DIMENSION),
}


def _cases():
    for site, (call, float_value, name, small, small_message) in SITES.items():
        yield pytest.param(
            call, float_value, f"{name} must be an integer, got {float_value!r}", id=f"{site}-float"
        )
        yield pytest.param(call, "2", f"{name} must be an integer, got '2'", id=f"{site}-str")
        yield pytest.param(call, small, small_message, id=f"{site}-small")


@pytest.mark.parametrize("call, value, message", _cases())
def test_refused_with_a_stable_code_and_message(call, value, message):
    with pytest.raises(InvalidArgumentError) as exc:
        call(value)
    assert exc.value.code == "INVALID_ARGUMENT"
    assert str(exc.value) == message


@pytest.mark.parametrize("site", SITES)
def test_the_least_value_passes(site):
    # One above the refused value is the least one taken.  Two sites refuse
    # it later for another reason: n = 2 leaves no room for a center of
    # codimension r + 2 = 3, and "1,2" has more entries than one variable.
    call, _, name, small, _ = SITES[site]
    try:
        call(small + 1)
    except WblowupError as exc:
        assert not str(exc).startswith(name), exc


# call, message
WRONG_TYPES = {
    "divides": (
        lambda: divides(Monomial((1,)), (1,)),
        "divides expects two Monomials, got Monomial and tuple",
    ),
    "monomial_weight": (
        lambda: monomial_weight(_W, (1, 1)),
        "monomial_weight expects a Weight and a Monomial, got Weight and tuple",
    ),
    "contains": (
        lambda: contains(_PRIMARY.ideal, Monomial((1, 1))),
        "contains expects a MonomialIdeal and a Polynomial, got MonomialIdeal and Monomial",
    ),
    "sigma_wt": (
        lambda: sigma_wt(_W, Monomial((1, 1))),
        "sigma_wt expects a Weight and a Polynomial, got Weight and Monomial",
    ),
    "parse_weight": (
        lambda: parse_weight(5, 2),
        "parse_weight expects weight text as a str, got int",
    ),
}


@pytest.mark.parametrize("call, message", WRONG_TYPES.values(), ids=WRONG_TYPES)
def test_wrong_library_type_refused(call, message):
    with pytest.raises(InvalidArgumentError) as exc:
        call()
    assert exc.value.code == "INVALID_ARGUMENT"
    assert str(exc.value) == message
