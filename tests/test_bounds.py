"""Tests for the three algebraic-connectivity bounds and the combined report."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from catspectra import bounds
from catspectra.bounds import (
    CUBIC_ROOT_TOL,
    bounds_report,
    bounds_trace,
    cardano_roots,
    trace_inv,
    trace_inv_deleted,
    ub_cardano,
)
from catspectra.charpoly import IndexOutOfRange, build_C, charpoly_p, p_minus2, pprime_minus2
from catspectra.graphs import SpecTooSmall
from catspectra.model import LegTooLarge, validate_spec
from catspectra.oracle import mu_oracle, sym_eigs

from conftest import nondegenerate_specs, specs


# -- the pair (Cardano) bound -------------------------------------------------

def test_cardano_positive_pair_matches_dense():
    sol = cardano_roots(4, 9)
    assert sol.method == "trig"
    dense = sym_eigs(build_C(validate_spec((4, 9))).to_dense()).values
    for got, want in zip(sol.sorted_desc, dense[::-1]):
        assert abs(got - want) <= 1e-9


def test_cardano_path_pair_is_exact():
    sol = cardano_roots(1, 1)
    assert sol.method == "trig"
    want = (np.sqrt(2.0), 0.0, -np.sqrt(2.0))
    for got, w in zip(sol.sorted_desc, want):
        assert abs(got - w) <= 1e-12


def test_cardano_zero_leg_pair():
    sol = cardano_roots(9, 0)
    assert sol.method == "zero_leg"
    assert sol.sorted_desc == (9.0, 0.0, -1.0)
    assert sol.lam3 == -1.0
    # and it is what the dense matrix says, not a formal limit of the formula
    dense = sym_eigs(build_C(validate_spec((9, 0))).to_dense()).values
    for got, want in zip(sol.sorted_desc, dense[::-1]):
        assert abs(got - want) <= 1e-9


def test_cardano_both_zero_is_degenerate():
    sol = cardano_roots(0, 0)
    assert sol.method == "both_zero"
    assert sol.zetas == (0.0, 0.0, 0.0)


def test_cardano_positive_pairs_always_take_the_trig_path():
    # -3r = c2^2 - 3 c1 for the monic cubic x^3 + c2 x^2 + c1 x + c0 of C(q1, q2),
    # read off the exact characteristic polynomial; it is at least 6 for
    # positive legs, so no positive pair needs anything but the trig formula
    for q1 in range(1, 201):
        for q2 in range(1, 201):
            c = charpoly_p(validate_spec((q1, q2))).coeffs      # det(C - xI) = -(monic cubic)
            c2, c1 = -c[2], -c[1]
            minus_3r = c2 * c2 - 3 * c1
            assert minus_3r == q1 * q1 + q2 * q2 - q1 * q2 + 2 * q1 + 2 * q2 + 1
            assert minus_3r >= 6
            assert cardano_roots(q1, q2).method == "trig"
    for q1, q2 in ((10**9, 1), (1, 10**9), (10**6, 10**6)):
        assert cardano_roots(q1, q2).method == "trig"


@pytest.mark.parametrize("q1,q2", [(10**5, 1), (10**6, 10**6), (10**6, 3), (10**8, 1),
                                   (10**9, 10**9), (1000, 1), (4, 9),
                                   (10**60, 1), (10**60, 5), (10**150, 7)])
def test_cardano_roots_stay_accurate_for_large_legs(q1, q2):
    # the trigonometric form alone put lam3 + 2 of (10^5, 1) 4.7e-8 and of
    # (10^8, 1) 0.084 above mu, which equals lam3 + 2 when k = 2; from legs of
    # about 10^52 on it overflowed, and every root is bisected
    spec = validate_spec((q1, q2))
    p = charpoly_p(spec)
    sol = cardano_roots(q1, q2)
    assert sol.method == "trig"
    for z in sol.zetas:
        d = Fraction(CUBIC_ROOT_TOL * max(1.0, abs(z)))
        assert p(Fraction(z) - d) * p(Fraction(z) + d) <= 0, z
    assert abs(sol.lam3 + 2.0 - mu_oracle(spec)) <= 2 * CUBIC_ROOT_TOL


def test_cardano_refuses_a_pair_whose_cubic_leaves_the_doubles():
    with pytest.raises(LegTooLarge):
        cardano_roots(10**160, 1)


def test_bounds_report_refuses_legs_without_a_double_value():
    with pytest.raises(LegTooLarge):
        bounds_report(validate_spec((2**1024, 0, 1)))


def test_cardano_rejects_negative():
    with pytest.raises(ValueError):
        cardano_roots(-1, 2)


@settings(max_examples=40)
@given(nondegenerate_specs(max_k=2))
def test_cardano_matches_dense_random(spec):
    q1, q2 = spec.q
    sol = cardano_roots(q1, q2)
    dense = sym_eigs(build_C(spec).to_dense()).values
    for got, want in zip(sol.sorted_desc, dense[::-1]):
        assert abs(got - want) <= 1e-9


def test_ub_cardano_worked_example(worked_spec):
    cb = ub_cardano(worked_spec)
    assert abs(cb.value - 0.2380586815) <= 1e-9
    assert cb.j == 1
    assert cb.paper_valid


def test_ub_cardano_tie_takes_smallest_index():
    cb = ub_cardano(validate_spec((5, 0, 5, 0, 5)))
    assert abs(cb.value - 1.0) <= 1e-12
    assert cb.j == 1


def test_ub_cardano_validity_flag():
    # closed-form preconditions: k >= 4 and nonzero end legs
    assert not ub_cardano(validate_spec((4, 9))).paper_valid
    assert not ub_cardano(validate_spec((0, 3, 0, 1))).paper_valid
    assert ub_cardano(validate_spec((1, 0, 0, 1))).paper_valid


def test_ub_cardano_needs_k2():
    with pytest.raises(SpecTooSmall):
        ub_cardano(validate_spec((7,)))


# -- the trace bounds ----------------------------------------------------------

def test_trace_inv_examples(worked_spec):
    assert trace_inv(worked_spec) == Fraction(191, 18)
    assert trace_inv(validate_spec((9, 0, 1))) == Fraction(149, 26)
    assert trace_inv(validate_spec((0, 1))) == Fraction(11, 6)
    assert trace_inv(validate_spec((1,))) == Fraction(1, 2)


def test_trace_inv_matches_eigenvalues(worked_spec):
    vals = sym_eigs(build_C(worked_spec).to_dense()).values
    want = sum(1.0 / (v + 2.0) for v in vals)
    assert abs(float(trace_inv(worked_spec)) - want) <= 1e-9


def test_trace_inv_deleted_examples(worked_spec):
    assert trace_inv_deleted(worked_spec, 2) == Fraction(67, 15) + Fraction(11, 6)
    assert trace_inv_deleted(worked_spec, 2) == Fraction(63, 10)
    with pytest.raises(IndexOutOfRange):
        trace_inv_deleted(worked_spec, 0)
    with pytest.raises(IndexOutOfRange):
        trace_inv_deleted(worked_spec, 4)


def test_bounds_trace_worked_example(worked_spec):
    tb = bounds_trace(worked_spec)
    assert tb.lb == Fraction(18, 191)
    assert tb.ub == Fraction(585, 2738)
    assert tb.ub_index == 1


def test_bounds_trace_path(path_spec):
    tb = bounds_trace(path_spec)
    assert tb.lb == Fraction(2, 5)
    assert tb.ub == Fraction(2, 3)
    assert tb.ub_index == 1


@settings(max_examples=60)
@given(specs(min_k=2, max_k=12, max_q=10**6))
def test_trace_differences_are_positive(spec):
    # Cauchy interlacing puts every difference at or above 1/(lambda_max + 2),
    # so bounds_trace takes the reciprocal of each one unguarded
    ti = trace_inv(spec)
    for i in range(1, spec.k):
        assert ti - trace_inv_deleted(spec, i) > 0


def test_bounds_trace_star_has_no_upper():
    tb = bounds_trace(validate_spec((5,)))
    assert tb.ub is None and tb.ub_index is None
    assert tb.lb == Fraction(6, 1)  # formal only; the mu identity needs k >= 2


# -- the combined report ---------------------------------------------------------

def test_bounds_report_worked_example(worked_spec):
    rep = bounds_report(worked_spec)
    assert rep.q == (4, 9, 0, 1)
    assert abs(rep.mu - 0.1862244) <= 5e-7
    assert rep.lb_trace == Fraction(18, 191)
    assert rep.ub_trace == Fraction(585, 2738)
    assert rep.ub_trace_index == 1
    assert rep.ub_cardano_index == 1
    assert rep.paper_valid
    assert Fraction(-rep.pprime_minus2, rep.p_minus2) == Fraction(191, 18)
    assert rep.warnings == ()


@settings(max_examples=15)
@given(nondegenerate_specs())
def test_bounds_report_carries_the_exact_values_at_minus2(spec):
    rep = bounds_report(spec)
    assert rep.p_minus2 == p_minus2(spec)
    assert rep.pprime_minus2 == pprime_minus2(spec)
    assert rep.lb_trace == Fraction(rep.p_minus2, -rep.pprime_minus2)


def test_bounds_report_is_tight_on_the_path(path_spec):
    rep = bounds_report(path_spec)
    assert abs(rep.ub_cardano - rep.mu) <= 1e-10  # pair bound is exact for P4
    assert rep.warnings == ()


def test_bounds_report_needs_k2():
    with pytest.raises(SpecTooSmall):
        bounds_report(validate_spec((3,)))


@settings(max_examples=15)
@given(nondegenerate_specs())
def test_bounds_sandwich_random(spec):
    rep = bounds_report(spec)
    assert rep.warnings == ()
    assert float(rep.lb_trace) <= rep.mu + 1e-8
    assert rep.mu <= float(rep.ub_trace) + 1e-8
    assert rep.mu <= rep.ub_cardano + 1e-8


@pytest.mark.parametrize("side", ["lb", "ub"])
def test_exact_sandwich_flags_a_bound_1e9_past_mu(monkeypatch, worked_spec, side):
    # 1e-9 is inside the 1e-8 slack of a float comparison, so only the exact
    # eigenvalue count sees these violations
    mu, tb = Fraction(mu_oracle(worked_spec)), bounds.bounds_trace(worked_spec)
    eps = Fraction(1, 10**9)
    moved = replace(tb, lb=mu + eps) if side == "lb" else replace(tb, ub=mu - eps)
    monkeypatch.setattr(bounds, "bounds_trace", lambda spec: moved)
    warnings = bounds_report(worked_spec).warnings
    want = "lower bound" if side == "lb" else "exceeds trace upper bound"
    assert len(warnings) == 1 and want in warnings[0]


@settings(max_examples=40)
@given(st.lists(st.one_of(st.integers(0, 3), st.integers(0, 10**9)), min_size=2, max_size=30))
def test_bounds_report_is_clean_on_extreme_legs(q):
    # legs up to 10^9 and runs of zeros: every bound holds, the trace bounds exactly
    assert bounds_report(validate_spec(q)).warnings == ()
