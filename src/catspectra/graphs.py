"""Explicit graph and matrix constructions.

Builds the caterpillar tree itself, its adjacency/degree/Laplacian/signless
Laplacian matrices, its line graph, and the generic H-join, so the
structural identities used by the fast polynomial route can all be checked
against concrete matrices.

Vertex ordering is fixed: spine vertices 1..k first, then pendant vertices
grouped by spine vertex.  Line-graph vertices follow the lexicographic edge
order of the base graph.  Spectra are ordering-invariant; the fixed order just
keeps matrix regression tests deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .model import CaterpillarSpec, OrderTooLarge

if TYPE_CHECKING:
    import numpy as np

# Largest order of a dense matrix built here or solved by `oracle.sym_eigs_stack`,
# and of a line graph built here (a star's is complete).  verify refuses larger
# trees up front: its H-join check builds the line graph, and its exact checks
# on the tree (leaf elimination, the eigenvalue counts) grow with n.
MAX_DENSE_ORDER = 256


class NoEdges(ValueError):
    """Line graph of an edgeless graph was requested."""


class FamilySizeMismatch(ValueError):
    """H-join family size differs from the vertex count of H."""


class SpecTooSmall(ValueError):
    """Operation needs at least two spine vertices."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: vertex count plus a sorted tuple of 1-based edges."""

    n: int
    edges: tuple[tuple[int, int], ...]

    @property
    def m(self) -> int:
        return len(self.edges)


def _mk_graph(n: int, edges) -> Graph:
    es = sorted(set((min(u, v), max(u, v)) for u, v in edges))
    for u, v in es:
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"edge ({u},{v}) out of range 1..{n}")
    return Graph(n=n, edges=tuple(es))


def complete_graph(n: int) -> Graph:
    """K_n; K_0 (no vertices at all) is allowed and joins to nothing."""
    return Graph(n=n, edges=tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)))


def build_caterpillar(spec: CaterpillarSpec) -> Graph:
    """Spine path 1..k, then q_i pendants per spine vertex in spine order."""
    k = spec.k
    edges = [(i, i + 1) for i in range(1, k)]
    nxt = k + 1
    for i, qi in enumerate(spec.q, start=1):
        for _ in range(qi):
            edges.append((i, nxt))
            nxt += 1
    return _mk_graph(nxt - 1, edges)


def matrices(g: Graph) -> dict[str, np.ndarray]:
    """Adjacency A, degree D, Laplacian L = D - A and signless Laplacian Q = D + A.

    Graphs on more than MAX_DENSE_ORDER vertices raise OrderTooLarge.
    """
    import numpy as np

    if g.n > MAX_DENSE_ORDER:
        raise OrderTooLarge(f"the dense matrices have order {g.n}, "
                            f"above the cap of {MAX_DENSE_ORDER}")
    a = np.zeros((g.n, g.n))
    for u, v in g.edges:
        a[u - 1, v - 1] = a[v - 1, u - 1] = 1.0
    d = np.diag(a.sum(axis=1))
    return {"A": a, "D": d, "L": d - a, "Q": d + a}


def line_graph(g: Graph) -> Graph:
    """Graph on the edges of g, adjacent when they share an endpoint.

    Edges are paired through the vertices they share, so the cost is the
    size of the output, not m^2.  Base graphs with more than MAX_DENSE_ORDER
    edges raise OrderTooLarge: a star's line graph is complete, and
    `matrices` refuses such a line graph anyway.
    """
    if g.m == 0:
        raise NoEdges("line graph needs at least one edge")
    if g.m > MAX_DENSE_ORDER:
        raise OrderTooLarge(f"the line graph has order {g.m}, above the cap of {MAX_DENSE_ORDER}")
    at: dict[int, list[int]] = {}       # vertex -> the 1-based indices of its edges
    for j, (u, v) in enumerate(g.edges, 1):
        at.setdefault(u, []).append(j)
        at.setdefault(v, []).append(j)
    return _mk_graph(g.m, [(i, j) for es in at.values()
                           for x, i in enumerate(es) for j in es[x + 1:]])


def h_join(h: Graph, family: list[Graph]) -> Graph:
    """Disjoint union of the family plus complete joins along the edges of h."""
    if len(family) != h.n:
        raise FamilySizeMismatch(f"family has {len(family)} members, H has {h.n} vertices")
    offsets = []
    total = 0
    for g in family:
        offsets.append(total)
        total += g.n
    edges = []
    for idx, g in enumerate(family):
        edges.extend((u + offsets[idx], v + offsets[idx]) for u, v in g.edges)
    for r, s in h.edges:
        gr, gs = family[r - 1], family[s - 1]
        edges.extend(
            (u + offsets[r - 1], v + offsets[s - 1])
            for u in range(1, gr.n + 1)
            for v in range(1, gs.n + 1)
        )
    return _mk_graph(total, edges)


def slot_template(k: int) -> Graph:
    """Template graph on the 2k-1 quotient slots.

    Odd slots 1,3,...,2k-1 stand for the leg cliques, even slots for the spine
    edges.  Each leg slot is tied to its one or two neighbouring spine-edge
    slots and consecutive spine-edge slots are tied to each other; this is
    exactly the line graph of the all-legs-one caterpillar T(1,...,1).
    """
    edges = []
    for i in range(1, k):
        edges.append((2 * i - 1, 2 * i))      # leg slot i to spine edge (i,i+1)
        edges.append((2 * i, 2 * i + 1))      # spine edge (i,i+1) to leg slot i+1
    for i in range(2, k):
        edges.append((2 * i - 2, 2 * i))      # consecutive spine edges share spine vertex i
    return _mk_graph(2 * k - 1, edges)


def linegraph_as_hjoin(spec: CaterpillarSpec) -> tuple[Graph, list[Graph]]:
    """Decompose the line graph of the caterpillar as an H-join.

    Returns (H, family) with family = [K_{q_1}, K_1, K_{q_2}, K_1, ..., K_{q_k}];
    zero legs keep an explicit K_0 member so the family stays index-aligned
    with the slots of H.
    """
    if spec.k < 2:
        raise SpecTooSmall("H-join decomposition needs k >= 2")
    family = []
    for i, qi in enumerate(spec.q):
        family.append(complete_graph(qi))
        if i < spec.k - 1:
            family.append(complete_graph(1))
    return slot_template(spec.k), family
