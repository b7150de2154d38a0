"""Tests for the oracle layer: the Jacobi eigensolver, the exact eigenvalue
count on the tree and the mu it locates, exact integer linear algebra, the
tree determinant and rational root isolation."""

import time
import warnings
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import inf, nextafter
from random import Random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from catspectra import oracle
from catspectra.charpoly import IntPolynomial, build_C, charpoly_p, shifted_pruned_charpoly
from catspectra.graphs import MAX_DENSE_ORDER, Graph, build_caterpillar, matrices
from catspectra.model import OrderTooLarge, laplacian_count, random_specs, validate_spec
from catspectra.oracle import (
    NoRootFound,
    NonConvergence,
    deradicalize,
    exact_det,
    lap_charpoly_eval,
    min_root,
    mu_oracle,
    sturm_count,
    sym_eigs,
)

from conftest import assert_close_multisets, specs


@st.composite
def symmetric_matrices(draw, max_dim=6):
    n = draw(st.integers(min_value=1, max_value=max_dim))
    entry = st.integers(min_value=-5, max_value=5)
    m = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            m[i, j] = m[j, i] = draw(entry)
    return m


# -- sym_eigs ---------------------------------------------------------------

def test_sym_eigs_swap_matrix():
    res = sym_eigs(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert_close_multisets(res.values, [-1.0, 1.0], 1e-14)
    assert res.residual <= 1e-12


def test_sym_eigs_diagonal_is_exact():
    res = sym_eigs(np.diag([3.0, -1.0, 2.0]))
    assert list(res.values) == [-1.0, 2.0, 3.0]
    assert res.sweeps == 0
    # in a stack of dense matrices too: a converged member is rotated no more
    dense, diag = oracle.sym_eigs_stack([_random_symmetric(9, 5), np.diag([3.0, -1.0, 2.0, 0.5])])
    assert list(diag.values) == [-1.0, 0.5, 2.0, 3.0] and diag.sweeps == 0
    assert np.array_equal(np.abs(diag.vectors), np.eye(4)[:, [1, 3, 2, 0]])
    assert dense.sweeps > 0


def test_sym_eigs_path_laplacian(path_spec):
    lap = matrices(build_caterpillar(path_spec))["L"]
    res = sym_eigs(lap)
    want = [0.0, 2.0 - np.sqrt(2.0), 2.0, 2.0 + np.sqrt(2.0)]
    assert_close_multisets(res.values, want, 1e-10)


def test_sym_eigs_empty_and_errors():
    assert sym_eigs(np.zeros((0, 0))).values.shape == (0,)
    assert oracle.sym_eigs_stack([]) == []
    empty, one = oracle.sym_eigs_stack([np.zeros((0, 0)), np.array([[4.0]])])
    assert empty.values.shape == (0,) and empty.vectors.shape == (0, 0) and empty.sweeps == 0
    assert list(one.values) == [4.0]
    with pytest.raises(ValueError):
        sym_eigs(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        sym_eigs(np.array([[0.0, 1.0], [0.0, 0.0]]))
    # the symmetry test is absolute only: a relative tolerance on entries of
    # size 40 would accept, and silently symmetrize, both of these
    with pytest.raises(ValueError, match="not symmetric"):
        sym_eigs(np.array([[40.0, 1.0], [1.000009, 40.0]]))
    with pytest.raises(ValueError, match="not symmetric"):
        sym_eigs(np.array([[40.0, 40.0], [40.0004, 40.0]]))
    # a non-finite entry fails the symmetry test (inf - inf is NaN, with numpy's warning)
    with pytest.raises(ValueError, match="not finite"):
        sym_eigs(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="not finite"):
        sym_eigs(np.array([[0.0, np.inf], [5.0, 1.0]]))
    with pytest.raises(ValueError, match="not finite"), pytest.warns(RuntimeWarning):
        sym_eigs(np.array([[np.inf, 0.0], [0.0, 1.0]]))


@given(symmetric_matrices())
@settings(max_examples=40)
def test_sym_eigs_invariants(m):
    res = sym_eigs(m)
    n = m.shape[0]
    assert list(res.values) == sorted(res.values)
    assert abs(res.values.sum() - np.trace(m)) <= 1e-9 * (1.0 + np.abs(m).sum())
    assert res.residual <= 1e-9 * (1.0 + np.abs(m).max())
    assert np.allclose(res.vectors.T @ res.vectors, np.eye(n), atol=1e-10)
    recon = res.vectors @ np.diag(res.values) @ res.vectors.T
    assert np.allclose(recon, m, atol=1e-9 * (1.0 + np.abs(m).max()))


def test_round_robin_rounds_are_disjoint_and_a_sweep_meets_every_pair_once():
    for n in range(1, 65):
        move = oracle._round_robin(n)
        size = n + n % 2
        order = np.arange(size)
        met = Counter()
        for _ in range(size - 1):
            assert sorted(order) == list(range(size)), n      # each index in exactly one pair
            met.update((min(p, q), max(p, q)) for p, q in zip(order[0::2], order[1::2])
                       if max(p, q) < n)
            order = order[move]
        assert list(order) == list(range(size)), n            # the next sweep starts over
        assert met == Counter(combinations(range(n), 2)), n


def _tree_laplacian(q):
    return matrices(build_caterpillar(validate_spec(q)))["L"]


def _random_symmetric(n, seed):
    x = np.random.default_rng(seed).normal(size=(n, n))
    return x + x.T


@pytest.mark.parametrize("m", [
    np.array([[2.5]]),
    np.array([[1.0, 2.0], [2.0, -3.0]]),
    np.array([[1.0, 1e-3], [1e-3, 1.0]]),
    _tree_laplacian((6, 6, 6, 6, 6)),       # eigenvalue 1 has multiplicity 25 of n = 35
    _tree_laplacian((5, 5, 5, 5)),          # n = 24, even
    _tree_laplacian((40,)),                 # the star K_{1,40}: 1 has multiplicity 39
    _tree_laplacian((3, 0, 0, 2, 0, 7)),
], ids=["1x1", "2x2", "2x2-close", "T(6^5)", "T(5^4)", "star", "T(3,0,0,2,0,7)"])
def test_sym_eigs_matches_eigvalsh(m):
    res = sym_eigs(m)
    want = np.linalg.eigvalsh(m)
    assert np.abs(res.values - want).max() <= 1e-13 * max(1.0, np.abs(want).max())
    n = len(m)
    assert np.allclose(res.vectors.T @ res.vectors, np.eye(n), rtol=0.0, atol=1e-12)
    assert res.residual <= 1e-11 * max(1.0, np.abs(m).max())


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30)
def test_sym_eigs_matches_eigvalsh_on_random_symmetric_matrices(n, seed):
    m = _random_symmetric(n, seed)
    want = np.linalg.eigvalsh(m)
    assert np.abs(sym_eigs(m).values - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_jacobi_rotation_past_the_tau_guard():
    # tau would be 5e159 here, where tau * tau overflows; sym_eigs never
    # rotates such a pair, since the coupling sits below the rotation threshold
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = sym_eigs(np.array([[0.0, 1e-160], [1e-160, 1.0]]))
    assert list(res.values) == [0.0, 1.0] and res.sweeps == 0


def test_jacobi_rotation_leaves_pairs_outside_the_mask_alone():
    c, s = oracle._jacobi_cs(np.array([1.0, 2.0]), np.array([3.0, 2.0]), np.array([0.0, -1.0]),
                             np.array([False, True]))
    assert (c[0], s[0]) == (1.0, 0.0)
    assert abs(c[1]) == abs(s[1]) == pytest.approx(np.sqrt(0.5), abs=1e-15)    # tau = 0: 45 degrees


def test_sym_eigs_raises_nonconvergence_at_the_sweep_cap():
    m = _tree_laplacian((4, 9, 0, 1))
    assert sym_eigs(m).sweeps > 1
    with pytest.raises(NonConvergence, match="after 1 sweeps"):
        sym_eigs(m, max_sweeps=1)
    with pytest.raises(NonConvergence, match=r"after 1 sweeps .* in matrix 1 of the stack"):
        oracle.sym_eigs_stack([np.diag([1.0, 2.0]), m], max_sweeps=1)


def test_sym_eigs_refuses_orders_above_the_cap():
    assert MAX_DENSE_ORDER >= 110           # the desk-scale test below solves n = 110
    with pytest.raises(OrderTooLarge, match="above the cap"):
        sym_eigs(np.zeros((MAX_DENSE_ORDER + 1, MAX_DENSE_ORDER + 1)))


def test_sym_eigs_desk_scale_runs():
    lap = matrices(build_caterpillar(validate_spec((10,) * 10)))["L"]
    res = sym_eigs(lap)
    assert res.values.shape == (110,)
    assert abs(res.values[0]) <= 1e-9


_MIXED_STACK = [
    np.array([[2.5]]),
    np.array([[1.0, 2.0], [2.0, -3.0]]),
    _random_symmetric(5, 1),
    _random_symmetric(12, 2),
    _tree_laplacian((6, 6, 6, 6, 6)),       # n = 35, eigenvalue 1 of multiplicity 25
    _random_symmetric(40, 3),
    _tree_laplacian((5, 5, 5, 5)),          # n = 24
    _tree_laplacian((3, 0, 0, 2, 0, 7)),    # n = 18
    _tree_laplacian((39,)),                 # the star K_{1,39}, n = 40
    _random_symmetric(27, 4),
]


def test_sym_eigs_stack_solves_each_member_of_a_mixed_stack():
    results = oracle.sym_eigs_stack(_MIXED_STACK)
    assert len(results) == len(_MIXED_STACK)
    for m, res in zip(_MIXED_STACK, results):
        n = len(m)
        want = np.linalg.eigvalsh(m)
        assert res.values.shape == (n,) and res.vectors.shape == (n, n)
        assert np.abs(res.values - want).max() <= 1e-12 * max(1.0, np.abs(want).max()), n
        assert np.allclose(res.vectors.T @ res.vectors, np.eye(n), rtol=0.0, atol=1e-12), n
        # the residual is this member's own, not the stack's worst
        assert res.residual == float(np.abs(m @ res.vectors - res.vectors * res.values).max())
        assert res.residual <= 1e-11 * max(1.0, np.abs(m).max())


@pytest.mark.parametrize("bad, error", [
    (np.zeros((2, 3)), ValueError),
    (np.array([[0.0, 1.0], [0.0, 0.0]]), ValueError),
    (np.zeros((MAX_DENSE_ORDER + 1, MAX_DENSE_ORDER + 1)), OrderTooLarge),
], ids=["non-square", "asymmetric", "above-the-cap"])
def test_sym_eigs_stack_validates_every_member_before_any_work(monkeypatch, bad, error):
    def started(n):
        raise AssertionError("the solve started before every member was validated")

    monkeypatch.setattr(oracle, "_round_robin", started)
    with pytest.raises(error):
        oracle.sym_eigs_stack([_random_symmetric(4, 7), bad, _random_symmetric(3, 8)])


# -- mu oracle --------------------------------------------------------------

def test_mu_oracle_examples(worked_spec, path_spec):
    assert abs(mu_oracle(path_spec) - (2.0 - np.sqrt(2.0))) <= 1e-10
    assert abs(mu_oracle(validate_spec((3,))) - 1.0) <= 1e-10
    assert abs(mu_oracle(worked_spec) - 0.1862244) <= 5e-7


def test_mu_oracle_needs_two_vertices():
    with pytest.raises(ValueError):
        mu_oracle(validate_spec((0,)))


COUNT_POINTS = (Fraction(0), Fraction(1, 3), Fraction(1), Fraction(2), Fraction(5, 2))


@given(specs(max_k=7, max_q=5))
@settings(max_examples=150)
@example(validate_spec((0,)))
@example(validate_spec((0, 0, 0, 0)))
@example(validate_spec((5,)))
@example(validate_spec((3, 0, 0, 2, 0)))
@example(validate_spec((1, 4, 4, 4, 4, 4, 4)))     # an eigenvalue 2.9e-10 below 5/2
def test_laplacian_count_matches_eigvalsh(spec):
    # x = 1 zeroes every leaf, x = 2 hits the eigenvalue of paths and of T(0,0)
    lap = matrices(build_caterpillar(spec))["L"]
    ev = np.linalg.eigvalsh(lap)
    for x in COUNT_POINTS:
        near = np.abs(ev - float(x)) <= 1e-9
        # an eigenvalue within 1e-9 of x = n/d is x itself only if det(dL - nI) = 0
        if near.any() and exact_det([[x.denominator * int(v) for v in row] for row in lap],
                                    x.numerator):
            want = (int(np.sum(ev < float(x))), 0)
        else:
            want = (int(np.sum(ev < float(x) - 1e-9)), int(np.sum(near)))
        assert laplacian_count(spec, x) == want, f"x = {x}"


def test_laplacian_count_does_not_depend_on_the_leg_total():
    spec = validate_spec((10**9, 10**9, 3))
    assert laplacian_count(spec, 0) == (0, 1)
    assert laplacian_count(spec, 1) == (3, 2 * 10**9)   # each spine vertex -1/2, q_i - 1 leaves 0
    assert sum(laplacian_count(spec, 10**10)) == 2 * 10**9 + 6


def test_mu_matches_jacobi_on_the_verify_distribution():
    for spec in random_specs(200, 8, 6, 7):
        if spec.k >= 2:
            dense = sym_eigs(matrices(build_caterpillar(spec))["L"]).values[1]
            assert abs(mu_oracle(spec) - dense) <= 1e-12, spec.q


@pytest.mark.parametrize("q", [(4, 9, 0, 1), (4, 4, 1, 2), (1,) * 150, (0,) * 60,
                               (10**6, 10**6, 3), (9, 5, 5, 4, 2, 0, 3)])
def test_mu_oracle_is_correctly_rounded(q):
    # the true mu lies within half an ulp of the reported double: fewer than
    # two eigenvalues up to the midpoint below it, at least two up to the one above
    spec = validate_spec(q)
    mu = Fraction(mu_oracle(spec))
    below, above = Fraction(nextafter(float(mu), -inf)), Fraction(nextafter(float(mu), inf))
    assert sum(laplacian_count(spec, (below + mu) / 2)) <= 1
    assert sum(laplacian_count(spec, (mu + above) / 2)) >= 2


@pytest.mark.parametrize("verdict", [(0, 0), (2, 0)])
def test_mu_oracle_recovers_from_a_misjudging_float_count(monkeypatch, verdict):
    # the float count always says "mu is above x" (0, 0) or "below x" (2, 0):
    # the exact confirmation must widen the bracket and still find mu
    spec = validate_spec((4, 9, 0, 1))
    want = mu_oracle.__wrapped__(spec)
    exact = oracle._inertia
    monkeypatch.setattr(oracle, "_inertia",
                        lambda s, x: exact(s, x) if isinstance(x, Fraction) else verdict)
    assert mu_oracle.__wrapped__(spec) == want


def test_mu_oracle_cache_is_bounded():
    mu_oracle.cache_clear()
    for q in range(1000):
        mu_oracle(validate_spec((q % 10, q // 10 % 10, q // 100)))
    assert mu_oracle.cache_info().misses == 1000
    assert mu_oracle.cache_info().currsize <= oracle.MU_CACHE_SIZE == 256
    mu_oracle.cache_clear()


# -- integer similarity and determinants -------------------------------------

def test_deradicalize_worked_pair():
    b = deradicalize(build_C(validate_spec((4, 9))))
    assert b == [[3, 4, 0], [1, 0, 1], [0, 9, 8]]
    assert exact_det(b) == -59


def test_deradicalize_weight_one_edges_untouched(path_spec):
    b = deradicalize(build_C(path_spec))
    assert b == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]


def test_deradicalize_rejects_leg_to_leg_ties():
    from catspectra.charpoly import StructuredC

    bad = StructuredC(dim=2, diag=(0, 0), offdiag=((0, 1, 3),), slot_q=(1, 1))
    with pytest.raises(ValueError):
        deradicalize(bad)


def test_exact_det_examples():
    assert exact_det([[1, 0], [0, 1]]) == 1
    assert exact_det([[0, 1], [1, 0]]) == -1      # needs a row swap
    assert exact_det([[2, 1], [1, 2]]) == 3
    assert exact_det([[1, 2], [2, 4]]) == 0
    assert exact_det([], 0) == 1
    assert exact_det([[5, 0], [0, 5]], 5) == 0    # det(M - 5I)
    with pytest.raises(ValueError):
        exact_det([[1, 2]])


@given(st.integers(min_value=1, max_value=5), st.data())
@settings(max_examples=30)
def test_exact_det_matches_float_det(n, data):
    entry = st.integers(min_value=-6, max_value=6)
    m = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
    want = round(float(np.linalg.det(np.array(m, dtype=float))))
    assert exact_det(m) == want


def _fraction_det(m) -> Fraction:
    """det(M) by Gaussian elimination over the rationals, with row swaps."""
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for col in range(len(a)):
        piv = next((r for r in range(col, len(a)) if a[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, len(a)):
            f = a[r][col] / a[col][col]
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def test_exact_det_on_a_permutation_and_a_zero_column():
    # every multiplier below each pivot is 0, and two pivots need a row swap
    assert exact_det([[0, 0, 3], [0, 2, 0], [5, 0, 0]]) == -30
    assert exact_det([[1, 0, 4], [2, 0, 5], [3, 0, 6]]) == 0


@given(st.integers(min_value=1, max_value=7), st.integers(min_value=-3, max_value=3), st.data())
@settings(max_examples=80)
def test_exact_det_matches_fraction_elimination_on_sparse_matrices(n, t, data):
    # mostly zeros: rows whose multiplier is 0, zero columns and zero pivots that need a swap
    entry = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3, 7])
    m = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
    shifted = [[x - t * (i == j) for j, x in enumerate(row)] for i, row in enumerate(m)]
    assert exact_det(m, t) == _fraction_det(shifted)


def _random_tree(n: int, seed: int) -> Graph:
    rng = Random(seed)
    return Graph(n=n, edges=tuple(sorted((rng.randint(1, v - 1), v) for v in range(2, n + 1))))


@pytest.mark.parametrize("g", [
    Graph(n=1, edges=()),
    build_caterpillar(validate_spec((1,))),
    build_caterpillar(validate_spec((7,))),                # stars
    build_caterpillar(validate_spec((12, 0))),
    build_caterpillar(validate_spec((0,) * 9)),             # paths
    build_caterpillar(validate_spec((1, 0, 0, 0, 1))),
    _random_tree(10, 1),
    _random_tree(17, 2),
    _random_tree(25, 3),
], ids=["K1", "P2", "star8", "star13", "P9", "P7", "tree10", "tree17", "tree25"])
def test_lap_charpoly_eval_at_every_point_matches_bareiss_at_each(g):
    lap = matrices(g)["L"].astype(int).tolist()
    ts = list(range(-2, g.n + 3))
    assert lap_charpoly_eval(g, ts) == [(-1) ** g.n * exact_det(lap, t) for t in ts]
    assert lap_charpoly_eval(g, []) == []


def test_lap_charpoly_eval_edge():
    g = Graph(n=2, edges=((1, 2),))
    # det(tI - L(P2)) = t^2 - 2t
    assert lap_charpoly_eval(g, range(4)) == [0, -1, 0, 3]


def test_lap_charpoly_eval_star():
    g = build_caterpillar(validate_spec((3,)))
    # t (t-1)^2 (t-4)
    assert lap_charpoly_eval(g, range(5)) == [0, 0, -4, -12, 0]


def test_lap_charpoly_eval_matches_bareiss(worked_spec):
    g = build_caterpillar(worked_spec)
    lap = matrices(g)["L"].astype(int).tolist()
    sign = (-1) ** g.n
    assert lap_charpoly_eval(g, range(5)) == [sign * exact_det(lap, t) for t in range(5)]


def test_lap_charpoly_eval_is_linear_in_the_child_count():
    # star formula t (t-1)^(m-1) (t-m-1) with m = 6000 leaves, at t = 3
    g = build_caterpillar(validate_spec((6000,)))
    start = time.perf_counter()
    [val] = lap_charpoly_eval(g, [3])
    assert time.perf_counter() - start < 0.25
    assert val == 3 * 2**5999 * (3 - 6001)


def test_lap_charpoly_eval_rejects_forests():
    with pytest.raises(ValueError):
        lap_charpoly_eval(Graph(n=2, edges=()), [1])


def _dyadic_points(data, g):
    """Non-integer dyadic points at least 1e-6 from every eigenvalue of L(g), and those values."""
    ev = np.linalg.eigvalsh(matrices(g)["L"])
    xs = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=8))):
        e = data.draw(st.integers(min_value=0, max_value=60))
        m = data.draw(st.integers(min_value=-(2 ** e), max_value=int((ev[-1] + 1) * 2 ** e)))
        x = Fraction(2 * m + 1, 2 ** (e + 1))
        if np.abs(ev - float(x)).min() >= 1e-6:
            xs.append(x)
    return xs, ev


def _assert_counts_match_eigvalsh(g, data):
    xs, ev = _dyadic_points(data, g)
    assert oracle.lap_count_above(g, xs) == [int(np.count_nonzero(ev > float(x))) for x in xs]


@settings(max_examples=150)
@given(specs(max_k=10, max_q=12), st.data())
def test_lap_count_above_matches_eigvalsh_on_caterpillars(spec, data):
    _assert_counts_match_eigvalsh(build_caterpillar(spec), data)


@settings(max_examples=150)
@given(st.integers(min_value=1, max_value=30), st.data())
def test_lap_count_above_matches_eigvalsh_on_random_trees(n, data):
    parents = [data.draw(st.integers(min_value=1, max_value=v - 1)) for v in range(2, n + 1)]
    g = Graph(n=n, edges=tuple(sorted(zip(parents, range(2, n + 1)))))
    _assert_counts_match_eigvalsh(g, data)


def test_lap_count_above_refuses_a_vanishing_pivot():
    star = build_caterpillar(validate_spec((3,)))        # eigenvalues 0, 1, 1, 4
    assert oracle.lap_count_above(star, [Fraction(1, 2), Fraction(3, 2), 5]) == [3, 1, 0]
    with pytest.raises(ValueError):
        oracle.lap_count_above(star, [Fraction(1, 2), 1])


# -- root isolation -----------------------------------------------------------

def test_min_root_sqrt2():
    p = IntPolynomial((-2, 0, 1))
    assert abs(min_root(p, 0.0, 2.0) - np.sqrt(2.0)) <= 1e-12
    assert abs(min_root(p, -2.0, 0.0) + np.sqrt(2.0)) <= 1e-12


def test_min_root_handles_double_roots():
    p = IntPolynomial((1, 1)) * IntPolynomial((1, 1)) * IntPolynomial((4, -1))
    assert min_root(p, -2.0, 0.0) == -1.0


def test_min_root_endpoint():
    p = IntPolynomial((0, -1, 1))  # x(x-1)
    assert min_root(p, 0.0, 0.5) == 0.0


def test_min_root_no_root():
    with pytest.raises(NoRootFound):
        min_root(IntPolynomial((1, 0, 1)), 0.0, 1.0)
    with pytest.raises(NoRootFound):
        min_root(IntPolynomial((-2, 0, 1)), 0.0, 1.0)
    with pytest.raises(ValueError):
        min_root(IntPolynomial((1,)), 1.0, 1.0)


def test_min_root_picks_leftmost():
    p = IntPolynomial((-1, 1)) * IntPolynomial((-3, 1)) * IntPolynomial((-7, 2))
    assert abs(min_root(p, 0.0, 10.0) - 1.0) <= 1e-12


def test_sturm_count_counts_distinct_roots_in_a_half_open_interval():
    # roots 1 (double), 2 and 3; 1/2 is no root
    p = IntPolynomial((-1, 1)) * IntPolynomial((-1, 1)) * IntPolynomial((-2, 1)) * IntPolynomial((-3, 1))
    count = sturm_count(p, 0.5)
    assert [count(x) for x in (0.5, 0.9, 1.5, 2.0, 2.5, 3.0, 9.0)] == [0, 0, 1, 2, 2, 3, 3]
    assert count(1.0) > 0           # a repeated root reads as at least one root up to it
    with pytest.raises(ValueError):
        sturm_count(p, 2.0)


def test_min_root_separates_two_roots_closer_than_a_grid_cell():
    p = IntPolynomial((-1, 5000)) * IntPolynomial((-9, 10000))     # roots 0.0002, 0.0009
    assert min_root(p, 1e-9, 2.0) == 0.0002


@st.composite
def linear_products(draw):
    """(p, roots) for p a product of integer linear factors a x - b.

    Roots repeat, cluster within 1e-4 of each other, and some are dyadic so
    that they can be exact interval ends.
    """
    a = st.integers(min_value=1, max_value=20000)
    factors = draw(st.lists(st.tuples(a, st.integers(min_value=-40000, max_value=40000)),
                            min_size=1, max_size=4))
    b0 = draw(st.integers(min_value=-64, max_value=64))
    factors.append((2 ** draw(st.integers(min_value=0, max_value=6)), b0))   # dyadic root
    a1, b1 = factors[0]
    if draw(st.booleans()):
        factors.append((a1 * 10000, b1 * 10000 + 1))        # within 1e-4 of b1 / a1
    if draw(st.booleans()):
        factors.append(draw(st.sampled_from(factors)))     # a repeated root
    p = IntPolynomial((1,))
    for fa, fb in factors:
        p = p * IntPolynomial((-fb, fa))
    return p, sorted({Fraction(fb, fa) for fa, fb in factors})


@given(linear_products(), st.data())
@settings(max_examples=150)
def test_min_root_brackets_the_smallest_root_to_one_ulp(poly_roots, data):
    p, roots = poly_roots
    dyadic = [float(r) for r in roots if Fraction(float(r)) == r]
    end = st.one_of(st.floats(min_value=-3.0, max_value=3.0), st.sampled_from(dyadic))
    lo, hi = sorted((data.draw(end), data.draw(end)))
    if lo == hi:
        hi = lo + 1.0
    inside = [r for r in roots if lo <= r <= hi]
    if not inside:
        with pytest.raises(NoRootFound):
            min_root(p, lo, hi)
        return
    got = min_root(p, lo, hi)
    want = inside[0]
    if want == lo:
        assert got == lo
    else:
        assert Fraction(nextafter(got, -inf)) < want <= Fraction(got)


def test_min_root_matches_mu_oracle_to_one_ulp():
    for spec in random_specs(200, 8, 6, 7):
        if spec.k >= 2:
            mu = mu_oracle(spec)
            root = min_root(shifted_pruned_charpoly(spec), 1e-9, 2.0 + 1e-6)
            assert root in (mu, nextafter(mu, inf)), spec.q


@given(specs(min_k=2))
@settings(max_examples=15)
def test_min_root_of_quotient_matches_oracle(spec):
    # smallest eigenvalue of C + 2 = mu, located as a root of p(q; x)
    poly = charpoly_p(spec)
    root = min_root(poly, -2.0 + 1e-9, 0.5)
    assert abs((root + 2.0) - mu_oracle(spec)) <= 1e-8
