"""Shared fixtures and hypothesis strategies for the test suite."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings, strategies as st

from catspectra.model import validate_spec

# Eigensolves on the larger random trees can take a couple hundred ms,
# so the stock 200ms deadline would flake. The per-example budget is
# generous; total runtime is controlled via max_examples on each test.
settings.register_profile("default", deadline=5000)
settings.load_profile("default")


@st.composite
def leg_counts(draw, min_k=1, max_k=6, max_q=6):
    """Draw a tuple of leg counts (q_1, ..., q_k)."""
    k = draw(st.integers(min_value=min_k, max_value=max_k))
    return tuple(draw(st.integers(min_value=0, max_value=max_q)) for _ in range(k))


@st.composite
def specs(draw, min_k=1, max_k=6, max_q=6):
    """Draw a validated CaterpillarSpec."""
    return validate_spec(draw(leg_counts(min_k=min_k, max_k=max_k, max_q=max_q)))


@st.composite
def nondegenerate_specs(draw, max_k=6, max_q=6):
    """Specs with at least two spine vertices (so mu and the quotient exist)."""
    return draw(specs(min_k=2, max_k=max_k, max_q=max_q))


def eval_points(count, start=-3):
    """Deterministic integer sample points for exact polynomial comparisons."""
    return [start - j for j in range(count)]


def assert_close_multisets(got, expected, tol):
    """Compare two sorted eigenvalue lists entrywise."""
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert abs(g - e) <= tol, f"{g} vs {e} (tol {tol})"


@pytest.fixture
def worked_spec():
    """The running example T(4,9,0,1): n=18, one zero leg, one single leg."""
    return validate_spec((4, 9, 0, 1))


@pytest.fixture
def path_spec():
    """T(1,1) is the path P4 after attaching one leg per spine vertex."""
    return validate_spec((1, 1))


def frac(a, b):
    return Fraction(a, b)


def incidence(g):
    """Vertex-edge incidence matrix of a `graphs.Graph`, columns in the sorted edge order."""
    inc = np.zeros((g.n, g.m))
    for j, (u, v) in enumerate(g.edges):
        inc[u - 1, j] = inc[v - 1, j] = 1.0
    return inc


def sorted_eigs_of(mat):
    """Reference eigenvalues via the oracle's dense solver (LAPACK), ascending."""
    from catspectra.oracle import sym_eigs

    return list(sym_eigs(np.asarray(mat, dtype=float)).values)
