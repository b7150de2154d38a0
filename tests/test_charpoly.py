"""Tests for the exact polynomial layer: IntPolynomial, the quotient matrix C,
the prefix recurrence for det(C - xI), the scalar suffix recursion for its
value and derivative at -2, and the assembled Laplacian characteristic
polynomial."""

import time
import tracemalloc
from fractions import Fraction
from math import inf, nextafter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from catspectra import charpoly
from catspectra.charpoly import (
    MAX_LAPLACIAN_ORDER,
    IntPolynomial,
    OrderTooLarge,
    POLY_X,
    _above,
    _p_scalar_suffixes,
    build_C,
    charpoly_p,
    laplacian_charpoly,
    laplacian_spectrum,
    p_minus2,
    pprime_minus2,
    shifted_pruned_charpoly,
)
from catspectra.model import LegTooLarge, laplacian_count, validate_spec
from catspectra.oracle import deradicalize, exact_det, lap_charpoly_eval, mu_oracle
from catspectra.graphs import build_caterpillar

from conftest import eval_points, specs

# leg counts with zero legs, q_i = 1 (a zero diagonal that is no zero row) and huge legs
extreme_specs = st.lists(st.sampled_from((0, 1, 2, 3, 5, 9, 10**6, 10**9)),
                         min_size=2, max_size=10).map(lambda q: validate_spec(tuple(q)))


def kept_slots(spec):
    """The slots of C that the pruned C' keeps: all but the q_i = 0 leg slots."""
    return [s for s, qs in enumerate(build_C(spec).slot_q) if qs != 0]


def expanded_grouping(spec, pruned_values):
    """The spectrum the factorization predicts, one value per eigenvalue: 0, a copies
    of 1, and each eigenvalue of the pruned C plus 2, ascending."""
    return sorted([0.0] + [1.0] * spec.a + [float(v) + 2.0 for v in pruned_values])


def assert_expands_to(pairs, want):
    """The (value, multiplicity) pairs, expanded, match want within 1e-12 max(1, largest)."""
    got = [v for v, m in pairs for _ in range(m)]
    assert len(got) == len(want)
    assert np.abs(np.array(got) - np.array(want)).max() <= 1e-12 * max(1.0, want[-1])


int_polys = st.lists(
    st.integers(min_value=-50, max_value=50), min_size=1, max_size=7
).map(lambda c: IntPolynomial(tuple(c)))


# -- IntPolynomial ----------------------------------------------------------

def test_poly_normalisation_and_degree():
    p = IntPolynomial((1, 2, 0, 0))
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert IntPolynomial((0, 0)).is_zero()
    assert POLY_X.degree == 1 and IntPolynomial((1,)).degree == 0


def test_poly_arithmetic_examples():
    x = POLY_X
    assert ((x + 1) * (x - 1)).coeffs == (-1, 0, 1)
    assert (3 * x).coeffs == (0, 3)
    assert (x * x * x).deriv().coeffs == (0, 0, 3)
    assert (x * x + 2).coeffs == (2, 0, 1)
    assert (x - 3).coeffs == (-3, 1)
    assert (x - x + 1 - 1).is_zero()


def test_poly_eval_accepts_arrays():
    p = IntPolynomial((-1, 0, 1))  # x^2 - 1
    out = p(np.array([0.0, 1.0, 3.0]))
    assert np.array_equal(out, np.array([-1.0, 0.0, 8.0]))


big_int_polys = st.lists(st.integers(min_value=-10**30, max_value=10**30),
                         min_size=1, max_size=9).map(lambda c: IntPolynomial(tuple(c)))
points = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.fractions(), st.integers(min_value=-10**6, max_value=10**6))


@given(big_int_polys, points)
@settings(max_examples=200)
@example(IntPolynomial((-2, 0, 1)), 1.4142135623730951)     # the doubles either side of sqrt(2)
@example(IntPolynomial((-2, 0, 1)), 1.414213562373095)
@example(IntPolynomial((-1, 3)), Fraction(1, 3))           # an exact root
@example(IntPolynomial((0,)), 0.3)
def test_sign_at_matches_fraction_horner(p, x):
    val = p(Fraction(x))
    assert p.sign_at(x) == (val > 0) - (val < 0)


@given(int_polys, int_polys, st.integers(min_value=-50, max_value=50),
       st.integers(min_value=-5, max_value=5))
@settings(max_examples=50)
def test_poly_ring_identities(p, q, c, x):
    assert (p + q)(x) == p(x) + q(x)
    assert (p * q)(x) == p(x) * q(x)
    assert (p - q)(x) == p(x) - q(x)
    assert (p - q).coeffs == (p + -q).coeffs
    assert (p + c)(x) == p(x) + c
    assert (p - c)(x) == p(x) - c


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
    # T(1): the q_1 = 1 leg slot is an all-zero row of C, but it is no zero
    # leg, so C' keeps it and the spectrum keeps its eigenvalue 0 + 2
    spec = validate_spec((1,))
    assert build_C(spec).to_dense().tolist() == [[0.0]] and kept_slots(spec) == [0]
    assert laplacian_spectrum(spec) == [(0.0, 1), (2.0, 1)]
    # T(0,0): bare spine vertices lose their leg slots, the join stays
    spec = validate_spec((0, 0))
    assert kept_slots(spec) == [1]
    assert laplacian_spectrum(spec) == [(0.0, 1), (2.0, 1)]


def test_prune_zero_worked_example(worked_spec):
    keep = kept_slots(worked_spec)
    assert [build_C(worked_spec).slot_q[s] for s in keep] == [4, None, 9, None, None, 1]
    # the two spine-edge slots around the pruned q_3 = 0 leg stay tied
    pruned = np.array([[3, 2, 0, 0, 0, 0],
                       [2, 0, 3, 1, 0, 0],
                       [0, 3, 8, 3, 0, 0],
                       [0, 1, 3, 0, 1, 0],
                       [0, 0, 0, 1, 0, 1],
                       [0, 0, 0, 0, 1, 0]], dtype=float)
    assert np.array_equal(build_C(worked_spec).to_dense()[np.ix_(keep, keep)], pruned)
    want = expanded_grouping(worked_spec, np.linalg.eigvalsh(pruned))
    assert_expands_to(laplacian_spectrum(worked_spec), want)


@given(extreme_specs)
@example(validate_spec((4, 9, 0, 1)))
@settings(max_examples=60)
def test_deleted_c_matches_row_deletion(spec):
    # C(i), C without the spine-edge slot 2i - 1, is the direct sum
    # C(q_1..q_i) + C(q_{i+1}..q_k), which trace_inv_deleted assumes
    full = build_C(spec).to_dense()
    for i in range(1, spec.k):
        s = 2 * i - 1
        left = build_C(validate_spec(spec.q[:i])).to_dense()
        right = build_C(validate_spec(spec.q[i:])).to_dense()
        want = np.zeros((2 * spec.k - 2,) * 2)
        want[:s, :s], want[s:, s:] = left, right
        assert np.array_equal(np.delete(np.delete(full, s, axis=0), s, axis=1), want)


@given(extreme_specs)
@example(validate_spec((4, 9, 0, 1)))
@settings(max_examples=60)
def test_pair_block_is_the_pair_quotient_matrix(spec):
    # the principal 3 x 3 block of C at slot 2j - 2 is C(q_j, q_{j+1}), the
    # submatrix whose eigenvalues ub_cardano interlaces with those of C
    full = build_C(spec).to_dense()
    for j in range(1, spec.k):
        s = 2 * j - 2
        pair = build_C(validate_spec(spec.q[j - 1:j + 1])).to_dense()
        assert np.array_equal(full[s:s + 3, s:s + 3], pair)


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
    assert poly.degree == spec.n
    assert poly.coeffs[-1] == 1
    assert poly.coeffs[0] == 0
    ts = range(spec.n + 1)
    assert lap_charpoly_eval(build_caterpillar(spec), ts) == [poly(t) for t in ts]


@given(specs(max_q=4).filter(lambda s: 0 in s.q))
@settings(max_examples=25)
def test_zero_leg_division_is_exact(spec):
    # every q_i = 0 contributes one factor lambda to p, and what is left is
    # the pruned C's polynomial: checked against Bareiss on the pruned C
    b = spec.b
    assert charpoly_p(spec).coeffs[:b] == (0,) * b
    poly = shifted_pruned_charpoly(spec)
    keep, full = kept_slots(spec), deradicalize(build_C(spec))
    pruned = [[full[r][s] for s in keep] for r in keep]
    for mu in range(-1, 2 * spec.k + 1):
        assert poly(mu) == (-1) ** b * exact_det(pruned, mu - 2)


# -- spectra ----------------------------------------------------------------

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
    # T(6,1,0,4,0): a = 8, and the pruned C's -1 joins the block
    assert (1.0, 9) in laplacian_spectrum(validate_spec((6, 1, 0, 4, 0)))


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


@pytest.mark.parametrize("q", [(10**9, 1), (10**9, 3, 0, 10**8), (10**7,) * 4])
def test_laplacian_spectrum_on_huge_legs_is_within_its_tolerance(q):
    # the tolerance is half an ulp: mu comes out as the correctly rounded double
    spec = validate_spec(q)
    ms = laplacian_spectrum(spec)
    assert sum(m for _, m in ms) == spec.n
    assert ms[1] == (mu_oracle(spec), 1)


def test_laplacian_spectrum_refuses_legs_without_a_double_value():
    with pytest.raises(LegTooLarge):
        laplacian_spectrum(validate_spec((2**1024, 1)))


@given(specs())
@settings(max_examples=20)
def test_laplacian_spectrum_equals_the_expanded_grouping(spec):
    # the block at 1 as one (1.0, a) pair groups exactly like a copies of 1.0
    keep = kept_slots(spec)
    values = np.linalg.eigvalsh(build_C(spec).to_dense()[np.ix_(keep, keep)]) if keep else []
    assert_expands_to(laplacian_spectrum(spec), expanded_grouping(spec, values))


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
    ms = laplacian_spectrum(spec)
    assert sum(m for _, m in ms) == spec.n
    assert ms[0] == (0.0, 1)
    if spec.a:
        assert any(v == 1.0 and m >= spec.a for v, m in ms)


@given(st.lists(st.sampled_from((0, 1, 2, 3, 6, 10**6, 10**9)), min_size=1, max_size=8))
@example([6, 1, 0, 4, 0])
@example([10**9, 3, 0, 7] * 2)
@settings(max_examples=40)
def test_counts_and_spectrum_follow_the_factorization(q):
    spec = validate_spec(q)
    if max(q) <= 6:     # a leg of 10^6 makes the tree too large to build
        g = build_caterpillar(spec)     # spine vertices 1..k, then the pendants
        legs = [sum(1 for u, w in g.edges if u == i and w > spec.k) for i in range(1, spec.k + 1)]
        assert (spec.n, spec.a, spec.b) == (g.n, sum(max(x - 1, 0) for x in legs), legs.count(0))
    ms = laplacian_spectrum(spec)
    assert ms[0] == (0.0, 1)
    assert sum(m for _, m in ms) == spec.n


@given(extreme_specs, st.integers(min_value=0, max_value=2**60 - 1))
@settings(max_examples=100)
def test_minor_count_matches_the_tree_count(spec, m):
    # at a non-integer dyadic x in (0, 4 (1 + max leg)), C''s eigenvalues above x - 2 by
    # its leading minors agree with the Laplacian eigenvalues at most x by the tree count
    x = Fraction(2 * m + 1, 2**61) * 4 * (1 + max(spec.q))
    order = 2 * spec.k - 1 - spec.b
    at_most = 1 + (spec.a if x > 1 else 0) + order - _above(spec.q, x - 2)
    assert at_most == sum(laplacian_count(spec, x))


@given(st.lists(st.sampled_from((0, 1, 2, 3, 6, 10**6, 10**9)), min_size=1, max_size=12))
@example([10**7] * 4)
@example([10**9, 10**9, 6, 2, 1, 2])
@example([10**9, 3, 0, 7] * 3)
@settings(max_examples=60, deadline=None)
def test_laplacian_spectrum_is_bracketed_by_the_exact_count(q):
    # each pair (v, m) after j eigenvalues holds the next m, and v is their nearest
    # double: at most j lie halfway to the double below v, j + m halfway to the one above
    spec = validate_spec(q)
    ms = laplacian_spectrum(spec)
    assert sum(m for _, m in ms) == spec.n
    j = 0
    for v, m in ms:
        below = (Fraction(nextafter(v, -inf)) + Fraction(v)) / 2
        above = (Fraction(v) + Fraction(nextafter(v, inf))) / 2
        assert sum(laplacian_count(spec, below)) <= j < j + m <= sum(laplacian_count(spec, above))
        j += m
    if spec.n >= 2 and ms[1][1] == 1:
        assert ms[1][0] == mu_oracle(spec)


def test_laplacian_charpoly_is_one_binomial_row_times_the_pruned_factor():
    spec = validate_spec((2000,))
    start = time.perf_counter()
    poly = laplacian_charpoly(spec)
    assert time.perf_counter() - start < 0.5
    want = list((IntPolynomial((0, -1)) * shifted_pruned_charpoly(spec)).coeffs)
    for _ in range(spec.a):     # times (mu - 1), one factor at a time
        want = [lo - hi for lo, hi in zip([0] + want, want + [0])]
    assert poly.coeffs == tuple(want)
