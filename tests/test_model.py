"""Tests for spec validation and the counts n, a and b read off the spec."""

import pytest
from hypothesis import given

from catspectra.model import (EmptySpec, LegTooLarge, NegativeLegCount, require_double_legs,
                              validate_spec)

from conftest import leg_counts


def test_validate_accepts_worked_example():
    spec = validate_spec((4, 9, 0, 1))
    assert spec.q == (4, 9, 0, 1)
    assert spec.k == 4
    assert spec.canonical


def test_validate_coerces_to_ints():
    spec = validate_spec([2, 0, 3])
    assert spec.q == (2, 0, 3)


@pytest.mark.parametrize(
    "q",
    [(3,), (0,), (1, 1), (0, 0)],
)
def test_degenerate_specs_are_accepted_but_not_canonical(q):
    spec = validate_spec(q)
    assert not spec.canonical


def test_canonical_needs_k2_and_n5():
    # k=2, n=5 is the smallest canonical caterpillar
    assert validate_spec((2, 1)).canonical
    assert validate_spec((1, 2)).canonical
    assert not validate_spec((1, 1)).canonical  # n=4
    assert not validate_spec((5,)).canonical    # k=1


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
    assert spec.canonical == (k >= 2 and spec.n >= 5)


def test_require_double_legs_stops_where_float_overflows():
    # 2^1024 - 2^970 is halfway from the largest double to 2^1024 and rounds up
    require_double_legs(validate_spec((2**1024 - 2**970 - 1, 1)))
    with pytest.raises(LegTooLarge, match="1024 bits"):
        require_double_legs(validate_spec((3, 2**1024 - 2**970)))
