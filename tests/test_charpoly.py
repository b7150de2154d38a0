"""Tests for the exact polynomial layer: IntPolynomial, the quotient matrix C,
the prefix recurrence for det(C - xI), the scalar suffix recursion for its
value and derivative at -2, and the assembled Laplacian characteristic
polynomial."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from catspectra import charpoly
from catspectra.charpoly import (
    MAX_LAPLACIAN_ORDER,
    IndexOutOfRange,
    IntPolynomial,
    OrderTooLarge,
    POLY_ONE,
    POLY_X,
    _p_scalar_suffixes,
    as_multiset,
    build_C,
    charpoly_p,
    deleted_C,
    laplacian_charpoly,
    laplacian_spectrum,
    p_minus2,
    pprime_minus2,
    prune_zero,
)
from catspectra.model import derive_params, validate_spec
from catspectra.oracle import deradicalize, exact_det, lap_charpoly_eval, sym_eigs
from catspectra.graphs import build_caterpillar

from conftest import eval_points, specs

int_polys = st.lists(
    st.integers(min_value=-50, max_value=50), min_size=1, max_size=7
).map(lambda c: IntPolynomial(tuple(c)))


# -- IntPolynomial ----------------------------------------------------------

def test_poly_normalisation_and_degree():
    p = IntPolynomial((1, 2, 0, 0))
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert IntPolynomial((0, 0)).is_zero()
    assert POLY_X.degree == 1 and POLY_ONE.degree == 0


def test_poly_arithmetic_examples():
    x = POLY_X
    assert ((x + POLY_ONE) * (x - POLY_ONE)).coeffs == (-1, 0, 1)
    assert (3 * x).coeffs == (0, 3)
    assert (x * x * x).deriv().coeffs == (0, 0, 3)
    assert IntPolynomial((2, 0, 1)).shift(1).coeffs == (3, 2, 1)  # (x+1)^2 + 2


def test_poly_eval_accepts_arrays():
    p = IntPolynomial((-1, 0, 1))  # x^2 - 1
    out = p(np.array([0.0, 1.0, 3.0]))
    assert np.array_equal(out, np.array([-1.0, 0.0, 8.0]))


def test_divmod_linear_example():
    p = IntPolynomial((-6, 11, -6, 1))  # (x-1)(x-2)(x-3)
    q, rem = p.divmod_linear(2)
    assert rem == 0
    assert q.coeffs == (3, -4, 1)
    q, rem = p.divmod_linear(4)
    assert rem == p(4) == 6


@given(int_polys, int_polys, st.integers(min_value=-5, max_value=5))
@settings(max_examples=50)
def test_poly_ring_identities(p, q, x):
    assert (p + q)(x) == p(x) + q(x)
    assert (p * q)(x) == p(x) * q(x)
    assert (p - q)(x) == p(x) - q(x)


@given(int_polys, st.integers(min_value=-4, max_value=4), st.integers(min_value=-4, max_value=4))
@settings(max_examples=50)
def test_poly_shift_matches_eval(p, h, x):
    assert p.shift(h)(x) == p(x + h)


@given(int_polys, st.integers(min_value=-6, max_value=6))
@settings(max_examples=50)
def test_divmod_linear_reconstructs(p, r):
    q, rem = p.divmod_linear(r)
    lin = IntPolynomial((-r, 1))
    assert (q * lin + IntPolynomial((rem,))).coeffs == p.coeffs
    assert rem == p(r)


# -- the quotient matrix ----------------------------------------------------

def test_build_c_worked_pair():
    c = build_C(validate_spec((4, 9)))
    assert c.dim == 3
    assert np.array_equal(c.to_dense(), np.array([[3, 2, 0], [2, 0, 3], [0, 3, 8]], dtype=float))
    assert c.slot_q == (4, None, 9)


def test_build_c_worked_example(worked_spec):
    c = build_C(worked_spec)
    assert c.dim == 7
    assert c.diag == (3, 0, 8, 0, 0, 0, 0)
    assert c.slot_q == (4, None, 9, None, 0, None, 1)
    assert c.offdiag == (
        (0, 1, 4),
        (1, 2, 9),
        (1, 3, 1),
        (2, 3, 9),
        (3, 4, 0),
        (3, 5, 1),
        (4, 5, 0),
        (5, 6, 1),
    )


def test_prune_zero_is_positional():
    # a q_i = 1 leg slot has a zero diagonal too, but must survive pruning
    c = prune_zero(build_C(validate_spec((1,))))
    assert c.dim == 1 and c.slot_q == (1,)
    # bare spine vertices lose their leg slots, joins stay
    c = prune_zero(build_C(validate_spec((0, 0))))
    assert c.dim == 1 and c.slot_q == (None,)


def test_prune_zero_worked_example(worked_spec):
    c = prune_zero(build_C(worked_spec))
    assert c.dim == 6
    assert c.slot_q == (4, None, 9, None, None, 1)
    # the two spine-edge slots around the pruned q_3 = 0 leg stay tied
    assert (3, 4, 1) in c.offdiag
    assert all(w2 != 0 for _, _, w2 in c.offdiag)


def test_deleted_c_matches_row_deletion(worked_spec):
    full = build_C(worked_spec).to_dense()
    for i in range(1, 4):
        got = deleted_C(worked_spec, i).to_dense()
        s = 2 * i - 1
        want = np.delete(np.delete(full, s, axis=0), s, axis=1)
        assert np.array_equal(got, want)


def test_deleted_c_bounds(worked_spec):
    with pytest.raises(IndexOutOfRange):
        deleted_C(worked_spec, 0)
    with pytest.raises(IndexOutOfRange):
        deleted_C(worked_spec, 4)


# -- the prefix recurrence and the scalar suffix recursion ------------------

def test_charpoly_p_worked_pair():
    p = charpoly_p(validate_spec((4, 9)))
    assert p.coeffs == (-59, -11, 11, -1)


def test_charpoly_p_shape_and_values(worked_spec):
    p = charpoly_p(worked_spec)
    assert p.degree == 7
    assert p.coeffs[-1] == -1
    assert p(-2) == 36
    assert p.deriv()(-2) == -382


def test_scalar_suffix_chain(worked_spec):
    den, num = _p_scalar_suffixes(worked_spec.q)
    assert den[1:5] == [36, 26, 6, 2]
    assert num[1:5] == [-382, -149, -11, -1]
    assert p_minus2(worked_spec) == 36
    assert pprime_minus2(worked_spec) == -382


def test_scalar_suffix_longer_example():
    spec = validate_spec((9, 5, 5, 4, 2, 0, 3))
    assert p_minus2(spec) == 70
    assert pprime_minus2(spec) == -3059


@given(specs(max_k=60, max_q=10**9))
@settings(max_examples=40)
def test_scalar_route_matches_polynomial_route(spec):
    p = charpoly_p(spec)
    assert p_minus2(spec) == p(-2)
    assert pprime_minus2(spec) == p.deriv()(-2)
    assert p_minus2(spec) > 0
    assert pprime_minus2(spec) < 0


@given(specs())
@example(validate_spec((3, 0, 10**9, 1, 6, 0, 0, 2, 5, 1, 4, 6, 0, 1, 10**9, 2, 3, 0, 5, 1)))
@settings(max_examples=30)
def test_charpoly_p_matches_integer_determinant(spec):
    p = charpoly_p(spec)
    b = deradicalize(build_C(spec))
    for t in eval_points(2 * spec.k):
        assert p(t) == exact_det(b, t)


# -- the Laplacian characteristic polynomial --------------------------------

def test_laplacian_charpoly_path(path_spec):
    assert laplacian_charpoly(path_spec).coeffs == (0, -4, 10, -6, 1)


def test_laplacian_charpoly_star():
    # star on 4 vertices: mu (mu-1)^2 (mu-4)
    assert laplacian_charpoly(validate_spec((3,))).coeffs == (0, -4, 9, -6, 1)


@given(specs())
@settings(max_examples=25)
def test_laplacian_charpoly_matches_tree_determinant(spec):
    poly = laplacian_charpoly(spec)
    d = derive_params(spec)
    assert poly.degree == d.n
    assert poly.coeffs[-1] == 1
    assert poly.coeffs[0] == 0
    g = build_caterpillar(spec)
    for t in range(d.n + 1):
        assert poly(t) == lap_charpoly_eval(g, t)


@given(specs(max_q=4).filter(lambda s: 0 in s.q))
@settings(max_examples=25)
def test_zero_leg_division_is_exact(spec):
    # every q_i = 0 contributes one exact (mu - 2) factor; assembling the
    # polynomial would raise InexactDivision if that ever failed
    poly = laplacian_charpoly(spec)
    assert poly.degree == derive_params(spec).n


# -- spectra ----------------------------------------------------------------

def test_as_multiset_groups_near_values():
    ms = as_multiset([(1.0, 1), (1.0 + 1e-12, 1), (0.0, 1), (2.5, 1)], tol=1e-9)
    assert ms == [(0.0, 1), (1.0, 2), (2.5, 1)]
    # multiplicities add up, and a group keeps its smallest value
    ms = as_multiset([(1.0, 7), (1.0 - 1e-12, 1), (0.0, 1)], tol=1e-9)
    assert ms == [(0.0, 1), (1.0 - 1e-12, 8)]


def test_laplacian_spectrum_star():
    ms = laplacian_spectrum(validate_spec((3,)))
    assert [m for _, m in ms] == [1, 2, 1]
    assert ms[0][0] == 0.0
    assert abs(ms[1][0] - 1.0) <= 1e-12
    assert abs(ms[2][0] - 4.0) <= 1e-10


def test_laplacian_spectrum_path(path_spec):
    ms = laplacian_spectrum(path_spec)
    want = [0.0, 2.0 - np.sqrt(2.0), 2.0, 2.0 + np.sqrt(2.0)]
    assert [m for _, m in ms] == [1, 1, 1, 1]
    for (got, _), w in zip(ms, want):
        assert abs(got - w) <= 1e-10


def test_laplacian_spectrum_values_are_plain_floats(worked_spec):
    assert all(type(v) is float for v, _ in laplacian_spectrum(worked_spec))


def test_laplacian_spectrum_merges_the_block_at_one():
    # T(3,0): a = 2 ones from the legs, and the pruned C adds its eigenvalue -1 (+ 2 = 1)
    assert laplacian_spectrum(validate_spec((3, 0))) == [(0.0, 1), (1.0, 3), (5.0, 1)]


def test_laplacian_spectrum_memory_does_not_grow_with_legs():
    spec = validate_spec((10**6, 1))
    tracemalloc.start()
    try:
        ms = laplacian_spectrum(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert (1.0, 10**6 - 1) in ms and sum(m for _, m in ms) == 10**6 + 3


@given(specs())
@settings(max_examples=20)
def test_laplacian_spectrum_equals_the_expanded_grouping(spec):
    # the block at 1 as one (1.0, a) pair groups exactly like a copies of 1.0
    pruned = prune_zero(build_C(spec))
    vals = [0.0] + [1.0] * derive_params(spec).a
    if pruned.dim:
        vals += [float(v) + 2.0 for v in sym_eigs(pruned.to_dense()).values]
    assert laplacian_spectrum(spec) == as_multiset([(v, 1) for v in vals])


def test_laplacian_charpoly_order_cap(monkeypatch, worked_spec):
    with pytest.raises(OrderTooLarge, match="above the cap"):
        laplacian_charpoly(validate_spec((10**9, 1, 0, 2)))
    assert issubclass(OrderTooLarge, ValueError) and MAX_LAPLACIAN_ORDER >= 1000
    monkeypatch.setattr(charpoly, "MAX_LAPLACIAN_ORDER", 18)     # worked_spec has n = 18
    assert laplacian_charpoly(worked_spec).degree == 18
    with pytest.raises(OrderTooLarge):
        laplacian_charpoly(validate_spec((4, 9, 0, 2)))


@given(specs())
@settings(max_examples=20)
def test_laplacian_spectrum_shape(spec):
    d = derive_params(spec)
    ms = laplacian_spectrum(spec)
    assert sum(m for _, m in ms) == d.n
    assert ms[0][0] == 0.0
    if d.a:
        assert any(abs(v - 1.0) <= 1e-9 and m >= d.a for v, m in ms)
