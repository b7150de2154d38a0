"""Ground truth independent of the quotient-matrix formulas.

Four kinds of oracle live here:

* `mu_oracle`, the algebraic connectivity, bisected with the exact
  eigenvalue count on the tree (`model.laplacian_count`);
* a dense symmetric eigensolver (`sym_eigs_stack` for a list of matrices,
  `sym_eigs` for one), LAPACK's through `numpy.linalg.eigh`, the
  cross-check of C's eigenvalues and of mu;
* exact integer linear algebra: `deradicalize` turns the sqrt(q_i) entries of
  the quotient matrix into an integer matrix with the same characteristic
  polynomial, `exact_det` is fraction-free (Bareiss) elimination, and
  leaf elimination on a tree, division-free, at a whole list of points in
  one traversal, gives both det(tI - L) (`lap_charpoly_eval`) and, from
  the signs of its pivots, the exact number of eigenvalues of L above a
  rational point (`lap_count_above`);
* root counting (`sturm_count`): distinct roots of an integer polynomial in
  an interval, by one Sturm chain; `min_root` bisects it to adjacent doubles.

None of this uses the recurrences under test; numpy is imported by the
dense eigensolver alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import TYPE_CHECKING, Callable

from .charpoly import IntPolynomial, StructuredC
from .graphs import MAX_DENSE_ORDER, Graph
from .model import (CaterpillarSpec, OrderTooLarge, _inertia, bisect_doubles, laplacian_count,
                    nearest_double)

if TYPE_CHECKING:
    import numpy as np

# mu_oracle keeps the values of this many specs; a batch run reuses only recent ones
MU_CACHE_SIZE = 256


class NonConvergence(RuntimeError):
    """LAPACK's symmetric eigensolver did not converge."""


class NoRootFound(RuntimeError):
    """The polynomial has no root inside the search window (or is zero)."""


@dataclass
class EigenResult:
    values: np.ndarray      # ascending
    vectors: np.ndarray     # orthonormal columns, vectors[:, i] pairs with values[i]


def _checked(m) -> np.ndarray:
    """m as a float array, or ValueError / OrderTooLarge if no dense solve should start."""
    import numpy as np

    m = np.asarray(m, dtype=float)
    n = m.shape[0] if m.ndim else 0
    if m.shape != (n, n):
        raise ValueError("matrix is not square")
    if n > MAX_DENSE_ORDER:
        raise OrderTooLarge(f"the dense eigensolve has order {n}, "
                            f"above the cap of {MAX_DENSE_ORDER}")
    # a NaN or an infinity anywhere makes the tolerance infinite or NaN, which fails the test
    if n and not np.abs(m - m.T).max() <= 1e-8 * (1.0 + np.abs(m).max()) < np.inf:
        raise ValueError("matrix is not symmetric, or not finite")
    return m


def sym_eigs_stack(mats) -> list[EigenResult]:
    """Eigenvalues and eigenvectors of each symmetric matrix in a list, by LAPACK.

    Every member is validated before any solve: non-square, asymmetric or
    non-finite ones raise ValueError, orders above MAX_DENSE_ORDER raise
    OrderTooLarge.  Each member, its two triangles averaged, then goes to
    `numpy.linalg.eigh` on its own; a LAPACK failure to converge is raised
    as NonConvergence.
    """
    import numpy as np

    mats = [_checked(m) for m in mats]
    out = []
    for b, m in enumerate(mats):
        try:
            values, vectors = np.linalg.eigh((m + m.T) / 2.0)
        except np.linalg.LinAlgError as exc:
            where = f" in matrix {b} of the stack" if len(mats) > 1 else ""
            raise NonConvergence(f"LAPACK's symmetric eigensolver: {exc}{where}") from exc
        out.append(EigenResult(values, vectors))
    return out


def sym_eigs(m: np.ndarray) -> EigenResult:
    """All eigenvalues and eigenvectors of one symmetric matrix: a stack of one."""
    return sym_eigs_stack([m])[0]


@lru_cache(maxsize=MU_CACHE_SIZE)
def mu_oracle(spec: CaterpillarSpec) -> float:
    """Algebraic connectivity of the tree, correctly rounded to a double.

    The float count brackets mu between adjacent doubles, and
    `model.nearest_double` confirms the nearer one with the exact count.
    """
    if spec.n < 2:
        raise ValueError("algebraic connectivity needs at least 2 vertices")

    def at_most(x) -> int:
        return sum(laplacian_count(spec, x))

    hi = 1.0
    while at_most(hi) < 2:      # mu <= x iff the eigenvalues 0 and mu are both <= x
        hi *= 2.0
    lo, hi = bisect_doubles(lambda x: sum(_inertia(spec, x)) >= 2, 0.0, hi)
    return nearest_double(at_most, 2, lo, hi)[0]


def deradicalize(c: StructuredC) -> list[list[int]]:
    """Integer matrix with the same characteristic polynomial as C.

    Each sqrt(q_i) pair is replaced asymmetrically: the leg-slot row keeps
    q_i, the spine-edge row keeps 1 (the diagonal similarity with 1/sqrt(q_i)
    at the leg slots; for q_i = 0 the leg row stays all zero, so no directed
    cycle of the determinant expansion is affected and the characteristic
    polynomial is still preserved).  Weight-1 ties are untouched.
    """
    b = [[0] * c.dim for _ in range(c.dim)]
    for i, d in enumerate(c.diag):
        b[i][i] = d
    for i, j, w2 in c.offdiag:
        leg_i, leg_j = c.slot_q[i] is not None, c.slot_q[j] is not None
        if leg_i and leg_j:
            raise ValueError("two leg slots tied directly; not a quotient-matrix structure")
        if not leg_i and not leg_j:
            b[i][j] = b[j][i] = w2      # always 1
        else:
            leg, other = (i, j) if leg_i else (j, i)
            b[leg][other] = w2
            b[other][leg] = 1
    return b


def exact_det(m, t: int = 0) -> int:
    """det(M - tI) over the integers by fraction-free (Bareiss) elimination.

    Column col below the pivot is never read again, so it is left as it is.
    """
    a = [[int(x) for x in row] for row in m]
    n = len(a)
    for i in range(n):
        if len(a[i]) != n:
            raise ValueError("matrix is not square")
        a[i][i] -= t
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for col in range(n - 1):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        p, top = a[col][col], a[col][col + 1:]
        for row in a[col + 1:]:
            f = row[col]
            row[col + 1:] = [(x * p - f * y) // prev for x, y in zip(row[col + 1:], top)]
        prev = p
    return sign * a[n - 1][n - 1]


def _leaf_elimination(g: Graph, xs) -> tuple[list[int], list[int | None]]:
    """det(d(xI - L(g))) and its negative pivots at each rational x = m/d of xs.

    By leaf elimination rooted at vertex 1, division-free: a_v = (m - d deg_v)
    prod_c a_c - d^2 sum_c b_c prod_{c' != c} a_{c'} and b_v = prod_c a_c
    over children c.  So a_v is the determinant of d(xI - L) on v's subtree,
    a_v / b_v is the pivot that elimination from the leaves leaves at v, and
    the determinant telescopes to a_root.  By Sylvester's law of inertia the
    pivots with a_v and b_v of opposite signs count the eigenvalues of L
    above x (Jacobs and Trevisan, Linear Algebra Appl. 434, 2011).  Where a
    pivot vanishes the count is None; the determinant stays exact.
    The sum is kept as a running pair over the children, so each vertex costs
    O(children) products per point.  One traversal serves every point: each
    vertex holds its a and b as lists over xs.
    """
    points = [Fraction(x).as_integer_ratio() for x in xs]
    n = g.n
    if n == 0:
        return [1] * len(points), [0] * len(points)
    adj: dict[int, list[int]] = {u: [] for u in range(1, n + 1)}
    for u, w in g.edges:
        adj[u].append(w)
        adj[w].append(u)
    # BFS from 1 to get parent pointers and a processing order
    order = [1]
    parent = {1: 0}
    for u in order:
        for w in adj[u]:
            if w not in parent:
                parent[w] = u
                order.append(w)
    if len(order) != n:
        raise ValueError("graph is not a connected tree")
    squares = [d * d for _, d in points]
    ones = [1] * len(points)
    counts: list[int | None] = [0] * len(points)
    av = {}
    bv = {}
    for u in reversed(order):
        prod, rest = ones, None
        for w in adj[u]:
            if parent[w] != u:
                continue
            aw, bw = av.pop(w), bv.pop(w)
            if rest is None:        # the first child: rest = b_w, prod = a_w
                prod, rest = aw, bw
            else:
                rest = [r * x + y * p for r, x, y, p in zip(rest, aw, bw, prod)]
                prod = [p * x for p, x in zip(prod, aw)]
        deg = len(adj[u])
        if rest is None:
            a = [m - deg * d for m, d in points]
        else:
            a = [(m - deg * d) * p - dd * r
                 for (m, d), p, r, dd in zip(points, prod, rest, squares)]
        counts = [None if c is None or x == 0 else c + ((x < 0) != (p < 0))
                  for c, x, p in zip(counts, a, prod)]
        av[u], bv[u] = a, prod
    return av[1], counts


def lap_charpoly_eval(g: Graph, ts) -> list[int]:
    """Exact det(tI - L(g)) of a tree at each integer t of ts, in one leaf-elimination walk."""
    return _leaf_elimination(g, ts)[0]


def lap_count_above(g: Graph, xs) -> list[int]:
    """The number of eigenvalues of L(g) above each rational x of xs, exactly, in one walk.

    Raises ValueError where a pivot vanishes, as it can only at an integer x:
    each a_v is d^(size of v's subtree) times a monic integer polynomial at x.
    """
    xs = list(xs)
    counts = _leaf_elimination(g, xs)[1]
    if None in counts:
        raise ValueError(f"a leaf-elimination pivot vanishes at x = {xs[counts.index(None)]}")
    return counts


# ---------------------------------------------------------------------------
# root isolation
# ---------------------------------------------------------------------------

def _sturm_chain(p: IntPolynomial) -> list[IntPolynomial]:
    """p, p', then each negated pseudo-remainder divided by its content.

    The chain ends at gcd(p, p') up to a constant factor, or at p' = 0 for a
    constant p, whose zero sign is skipped like any other.  A division step
    multiplies the running remainder by |lc(b)| only, and the content divided
    out is positive, so every member has the sign of the classical Sturm
    sequence's member at every x.
    """
    chain = [p, p.deriv()]
    while chain[-1].degree > 0:
        r, b = list(chain[-2].coeffs), chain[-1].coeffs
        scale, sgn = abs(b[-1]), (b[-1] > 0) - (b[-1] < 0)
        while len(r) >= len(b):
            f = sgn * r.pop()           # the leading terms of scale * r and f x^s b cancel
            shift = len(r) - len(b) + 1
            r = [scale * c for c in r]
            for i, bc in enumerate(b[:-1]):
                r[shift + i] -= f * bc
            while r and r[-1] == 0:
                r.pop()
        if not r:
            break
        content = gcd(*r)
        chain.append(IntPolynomial(tuple(-c // content for c in r)))
    return chain


def sturm_count(p: IntPolynomial, lo) -> Callable[[object], int]:
    """x -> the number of distinct roots of p in (lo, x], from one Sturm chain.

    Sturm's theorem: with V(x) the sign changes of the chain at x, zeros
    skipped, and p(lo) != 0, V(lo) - V(x) counts the distinct roots in
    (lo, x] for x >= lo, x a simple root included.  At a repeated root every
    member vanishes and V(x) = 0, so the count there is V(lo): too large,
    but positive, so "a root in (lo, x]" still reads right.  Signs are exact
    (`IntPolynomial.sign_at`); the chain is built once.
    """
    if p.sign_at(lo) == 0:
        raise ValueError(f"the Sturm count needs p({lo}) != 0")
    chain = _sturm_chain(p)

    def changes(x) -> int:
        signs = [s for s in (f.sign_at(x) for f in chain) if s]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    v_lo = changes(lo)
    return lambda x: v_lo - changes(x)


def min_root(p: IntPolynomial, lo: float, hi: float) -> float:
    """Smallest real root of p in [lo, hi]: lo itself, or the double just at or above it.

    The predicate "a root in (lo, x]" of `sturm_count` is bisected to
    adjacent doubles.
    """
    if hi <= lo:
        raise ValueError("empty interval")
    if p.is_zero():
        raise NoRootFound("zero polynomial")
    if p.sign_at(lo) == 0:
        return lo
    count = sturm_count(p, lo)
    if not count(hi):
        raise NoRootFound(f"no root of the degree-{p.degree} polynomial in [{lo}, {hi}]")
    return bisect_doubles(lambda x: count(x) > 0, lo, hi)[1]
