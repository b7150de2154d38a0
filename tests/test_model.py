"""Tests for spec validation, the counts n, a and b read off the spec, and the
rounding of one eigenvalue with an exact count."""

from fractions import Fraction
from math import inf, nextafter

import pytest
from hypothesis import given

from catspectra.model import (EmptySpec, LegTooLarge, NegativeLegCount, nearest_double,
                              require_double_legs, validate_spec)

from conftest import leg_counts


def test_validate_accepts_worked_example():
    spec = validate_spec((4, 9, 0, 1))
    assert spec.q == (4, 9, 0, 1)
    assert spec.k == 4


def test_validate_coerces_to_ints():
    spec = validate_spec([2, 0, 3])
    assert spec.q == (2, 0, 3)


@pytest.mark.parametrize(
    "q",
    [(3,), (0,), (1, 1), (0, 0)],
)
def test_degenerate_specs_are_accepted(q):
    # stars and bare paths: the polynomial machinery is defined for them
    assert validate_spec(q).q == q


def test_validate_rejects_negative():
    with pytest.raises(NegativeLegCount):
        validate_spec((2, -1))


def test_validate_rejects_empty():
    with pytest.raises(EmptySpec):
        validate_spec(())


def test_derived_params_worked_example():
    spec = validate_spec((4, 9, 0, 1))
    assert (spec.n, spec.a, spec.b) == (18, 11, 1)


def test_derived_params_all_zero_legs():
    spec = validate_spec((0, 0, 0))
    assert (spec.n, spec.a, spec.b) == (3, 0, 3)


@given(leg_counts())
def test_derived_identities(q):
    spec = validate_spec(q)
    k = len(q)
    assert spec.n == sum(q) + k
    # a counts legs beyond the first at each spine vertex, b counts bare ones
    assert spec.a == sum(x - 1 for x in q if x > 0)
    assert spec.b == sum(1 for x in q if x == 0)
    assert spec.a + (k - spec.b) == sum(q)


def test_require_double_legs_stops_where_float_overflows():
    # 2^1024 - 2^970 is halfway from the largest double to 2^1024 and rounds up
    require_double_legs(validate_spec((2**1024 - 2**970 - 1, 1)))
    with pytest.raises(LegTooLarge, match="1024 bits"):
        require_double_legs(validate_spec((3, 2**1024 - 2**970)))


def _eigenvalues_at(*values):
    """at_most for the eigenvalues 0 and values, exact at rational points."""
    return lambda x: sum(Fraction(v) <= x for v in (0, *values))


@pytest.mark.parametrize("lo", [0.25, 1 / 3, 0.5, 2.0])
def test_nearest_double_recovers_from_a_misjudged_bracket(lo):
    # 1/3 twice, then 3: the bracket [lo, next double) is right only for lo = 1/3
    v, upto = nearest_double(_eigenvalues_at(Fraction(1, 3), Fraction(1, 3), 3), 2,
                             lo, nextafter(lo, inf))
    assert (v, upto) == (1 / 3, 3)


def test_nearest_double_breaks_a_tie_to_the_lower_double():
    lo = 2.0**53
    tie = Fraction(lo) + 1      # halfway between 2^53 and 2^53 + 2
    assert nearest_double(_eigenvalues_at(tie), 2, lo, lo + 2) == (lo, 2)
    assert nearest_double(_eigenvalues_at(tie + Fraction(1, 8)), 2, lo, lo + 2) == (lo + 2, 2)
