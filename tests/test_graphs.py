"""Tests for the explicit graph constructions and matrix identities."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings

from catspectra.graphs import (
    MAX_DENSE_ORDER,
    FamilySizeMismatch,
    Graph,
    NoEdges,
    SpecTooSmall,
    build_caterpillar,
    complete_graph,
    h_join,
    line_graph,
    linegraph_as_hjoin,
    matrices,
    slot_template,
)
from catspectra import verify
from catspectra.model import OrderTooLarge, validate_spec

from conftest import incidence, specs


def test_path_caterpillar_structure(path_spec):
    g = build_caterpillar(path_spec)
    # T(1,1): spine 1-2 plus a pendant on each spine vertex = P4
    assert g.n == 4
    assert g.edges == ((1, 2), (1, 3), (2, 4))


def test_star_caterpillar(worked_spec):
    g = build_caterpillar(validate_spec((3,)))
    assert g.n == 4
    assert g.edges == ((1, 2), (1, 3), (1, 4))
    assert build_caterpillar(worked_spec).n == 18


def test_bare_vertex():
    g = build_caterpillar(validate_spec((0,)))
    assert g.n == 1
    assert g.m == 0


def test_matrices_path():
    g = build_caterpillar(validate_spec((1, 1)))
    mats = matrices(g)
    expected_a = np.array(
        [
            [0, 1, 1, 0],
            [1, 0, 0, 1],
            [1, 0, 0, 0],
            [0, 1, 0, 0],
        ],
        dtype=float,
    )
    assert np.array_equal(mats["A"], expected_a)
    assert np.array_equal(mats["D"], np.diag([2.0, 2.0, 1.0, 1.0]))
    assert np.array_equal(mats["L"], mats["D"] - mats["A"])
    assert np.array_equal(mats["Q"], mats["D"] + mats["A"])


def test_matrices_refuse_orders_above_the_cap():
    assert MAX_DENSE_ORDER >= 110
    assert matrices(Graph(n=MAX_DENSE_ORDER, edges=()))["L"].shape == (MAX_DENSE_ORDER,) * 2
    with pytest.raises(OrderTooLarge, match="above the cap"):
        matrices(Graph(n=MAX_DENSE_ORDER + 1, edges=()))


@given(specs())
@settings(max_examples=30)
def test_laplacian_rows_sum_to_zero(spec):
    mats = matrices(build_caterpillar(spec))
    assert np.array_equal(mats["L"].sum(axis=1), np.zeros(spec.n))


def test_incidence_identities(worked_spec):
    g = build_caterpillar(worked_spec)
    inc = incidence(g)
    mats = matrices(g)
    a_line = matrices(line_graph(g))["A"]
    # I I^T = Q and I^T I = 2I_m + A(line graph), exactly (all entries integers)
    assert inc.shape == (18, 17)
    assert np.array_equal(inc @ inc.T, mats["Q"])
    assert np.array_equal(inc.T @ inc, 2.0 * np.eye(g.m) + a_line)


@given(specs())
@settings(max_examples=30)
def test_incidence_identities_random(spec):
    g = build_caterpillar(spec)
    if g.m == 0:
        return
    inc = incidence(g)
    assert np.array_equal(inc @ inc.T, matrices(g)["Q"])
    assert np.array_equal(inc.T @ inc, 2.0 * np.eye(g.m) + matrices(line_graph(g))["A"])


def test_line_graph_of_star_is_complete():
    for q in range(1, 6):
        lg = line_graph(build_caterpillar(validate_spec((q, 0))))
        kq1 = complete_graph(q + 1)
        assert lg.n == kq1.n
        assert lg.edges == kq1.edges


def _pairwise_line_graph_edges(g):
    """The definition: every pair of edges that shares an endpoint."""
    return [(i + 1, j + 1) for i, j in combinations(range(g.m), 2)
            if set(g.edges[i]) & set(g.edges[j])]


@given(specs(max_q=9))
@settings(max_examples=30)
@example(validate_spec((3, 0, 0, 5)))
def test_line_graph_matches_the_pairwise_definition_on_trees(spec):
    g = build_caterpillar(spec)
    if g.m:
        assert line_graph(g) == Graph(n=g.m, edges=tuple(_pairwise_line_graph_edges(g)))


@pytest.mark.parametrize("n", range(2, 9))
def test_line_graph_matches_the_pairwise_definition_on_complete_graphs(n):
    g = complete_graph(n)
    assert line_graph(g) == Graph(n=g.m, edges=tuple(_pairwise_line_graph_edges(g)))


def test_line_graph_needs_edges():
    with pytest.raises(NoEdges):
        line_graph(build_caterpillar(validate_spec((0,))))


def test_line_graph_refuses_more_edges_than_the_dense_cap():
    with pytest.raises(OrderTooLarge, match="above the cap"):
        line_graph(build_caterpillar(validate_spec((300, 1))))
    g = build_caterpillar(validate_spec((MAX_DENSE_ORDER - 2, 1)))
    assert g.m == MAX_DENSE_ORDER
    assert line_graph(g).n == MAX_DENSE_ORDER


def test_complete_graph_counts():
    assert complete_graph(0).n == 0
    assert complete_graph(1).m == 0
    assert complete_graph(4).m == 6


def test_h_join_family_size_checked():
    with pytest.raises(FamilySizeMismatch):
        h_join(complete_graph(2), [complete_graph(1)])


def test_h_join_of_edge_is_join():
    # K2 join K3 along an edge template = K5
    g = h_join(complete_graph(2), [complete_graph(2), complete_graph(3)])
    assert g.n == 5
    assert g.m == 10
    assert g.edges == complete_graph(5).edges


def test_slot_template_is_p_k_line_graph():
    # the slot template is the line graph of the all-ones caterpillar, up to
    # the slot -> sorted-edge relabeling (checked through the H-join: with
    # all-K_1 families the join reproduces the template itself)
    for k in range(2, 6):
        t = slot_template(k)
        lg = line_graph(build_caterpillar(validate_spec((1,) * k)))
        assert t.n == lg.n == 2 * k - 1
        assert t.m == lg.m
        assert h_join(t, [complete_graph(1)] * t.n).edges == t.edges
        assert verify._ck_hjoin(validate_spec((1,) * k), 1e-8) is None


def test_hjoin_decomposition_worked_example(worked_spec):
    h, family = linegraph_as_hjoin(worked_spec)
    assert h.n == 7
    assert [g.n for g in family] == [4, 1, 9, 1, 0, 1, 1]


def test_hjoin_decomposition_needs_k2():
    with pytest.raises(SpecTooSmall):
        linegraph_as_hjoin(validate_spec((5,)))


def test_hjoin_equals_line_graph_examples():
    for q in [(1, 1), (4, 9), (4, 9, 0, 1), (0, 3, 0), (2, 0, 0, 5)]:
        assert verify._ck_hjoin(validate_spec(q), 1e-8) is None


@given(specs(min_k=2))
@settings(max_examples=25)
def test_hjoin_equals_line_graph_random(spec):
    assert verify._ck_hjoin(spec, 1e-8) is None
