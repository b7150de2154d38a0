"""Ground truth independent of the quotient-matrix formulas.

Four kinds of oracle live here:

* `mu_oracle`, the algebraic connectivity, bisected with the exact
  eigenvalue count on the tree (`model.laplacian_count`);
* a dense symmetric eigensolver (`sym_eigs_stack`, and `sym_eigs` for one
  matrix), cyclic Jacobi in the round-robin ordering of Brent and Luk
  (1985), each round of disjoint rotations applied at once (Luk and Park
  1989 show the ordering equivalent to the row-cyclic one), the
  cross-check of the count and of the spectrum.  A list of matrices is
  solved as one stack: each is zero-padded to the largest order, all share
  every round, and each stops on its own tolerance.  A round is a fixed
  handful of numpy calls on preallocated arrays, whatever the stack holds:
  the eigenvectors ride beside the matrix, so one batched product turns
  the rows of both;
* exact integer linear algebra: `deradicalize` turns the sqrt(q_i) entries of
  the quotient matrix into an integer matrix with the same characteristic
  polynomial, `exact_det` is fraction-free (Bareiss) elimination, and
  `lap_charpoly_eval` evaluates det(tI - L) of a tree exactly by leaf
  elimination, division-free, at a whole list of points in one traversal;
* root counting (`sturm_count`): distinct roots of an integer polynomial in
  an interval, by one Sturm chain; `min_root` bisects it to adjacent doubles.

None of this uses the recurrences under test; numpy is array plumbing only,
imported by `sym_eigs_stack` alone.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """Jacobi sweep cap hit before the off-diagonal norm dropped below tolerance."""


class NoRootFound(RuntimeError):
    """The polynomial has no root inside the search window (or is zero)."""


@dataclass
class EigenResult:
    values: np.ndarray      # ascending
    vectors: np.ndarray     # orthonormal columns, vectors[:, i] pairs with values[i]
    sweeps: int
    residual: float         # max_i ||M v_i - lambda_i v_i||_inf


def _round_robin(n: int) -> np.ndarray:
    """The round-robin schedule of one Jacobi sweep on order n, as one permutation.

    Pivot pairs are listed flat, (p_0, q_0, p_1, q_1, ...), over m = n + n % 2
    indices; odd n gets a phantom index n, whose partner sits the round out.
    Round 0 pairs (0, 1), (2, 3), ...; round r + 1 lists round r's flat
    order taken through the returned permutation, `order[move]`.  That is the
    circle method: seat 0 stays put, everyone else moves on one seat, seat j
    plays seat m - 1 - j.  After m - 1 rounds, one sweep, every pair has met
    once and the order is round 0's again.
    """
    import numpy as np

    m = n + n % 2
    seats = np.concatenate((np.arange(0, m, 2), np.arange(m - 1, 0, -2)))  # j, m-1-j: 2j, 2j+1
    turned = np.concatenate((seats[:1], seats[-1:], seats[1:-1]))
    return np.stack((turned[:m // 2], turned[::-1][:m // 2]), axis=1).reshape(-1)


def _jacobi_cs(app: np.ndarray, aqq: np.ndarray, apq: np.ndarray,
               hit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cosines and sines of the inner rotations (|theta| <= pi/4) that zero a[p, q].

    Elementwise over arrays of any one shape.  Pairs outside `hit` get the
    identity, c = 1 and s = 0 exactly.  tau * tau cannot overflow from
    `sym_eigs_stack`: a pair is rotated only when |a[p, q]| > 1e-12 ||M||_F /
    (2n), and |a[q, q] - a[p, p]| <= sqrt(2) ||M||_F, so |tau| <= sqrt(2) n
    1e12, below 3.7e14 for n <= MAX_DENSE_ORDER = 256.
    """
    import numpy as np

    # tau = inf outside `hit` gives t = 1 / inf = 0 there, with no masked division
    tau = np.divide(aqq - app, 2.0 * apq, out=np.full(apq.shape, np.inf), where=hit)
    at = np.abs(tau)
    t = np.copysign(1.0 / (at + np.sqrt(1.0 + at * at)), tau)
    c = 1.0 / np.hypot(1.0, t)
    return c, t * c


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


def sym_eigs_stack(mats, max_sweeps: int = 100) -> list[EigenResult]:
    """Eigenvalues and eigenvectors of each symmetric matrix in a list, by cyclic Jacobi.

    The pivot pairs follow the round-robin ordering of Brent and Luk (SIAM J.
    Sci. Stat. Comput. 6, 1985): a sweep is n - 1 rounds (n for odd n) of
    disjoint pairs, each pair of indices met once.  Rotations on disjoint
    pairs commute and none changes an entry another one reads, so a round is
    one orthogonal J applied at once, a <- J^T a J and v <- v J; the
    annihilated a[p, q] are then set to exactly 0.  The matrix is kept in the
    current round's pair order, so J is block diagonal with 2 x 2 blocks.
    v^T is kept beside a, as the rows of one array [a | v^T]: one batched
    product turns the rows of both, X = J^T a and J^T v^T; one gather takes
    X^T = a J with its columns already in the next round's order, a second
    product turns its rows into J^T a J, and a row gather then brings the
    rows of [a | v^T] to the next order.  A round that rotates nothing moves
    both with one flat gather.
    Luk and Park (SIAM J. Sci. Stat. Comput. 10, 1989) show this ordering
    equivalent to the row-cyclic one, so with inner rotations (|theta| <=
    pi/4) it converges.

    The whole list shares the rounds: each matrix is zero-padded to the
    largest order (made even) and the 2 x 2 blocks of every member form one
    batch of products, so a round costs a fixed number of numpy calls however
    many matrices it carries.  A padding row couples to nothing, so it is
    never rotated, and after a full sweep it is back in place, as the odd
    order's phantom row is.  Each member keeps its own tol = 1e-12 ||M||_F,
    its own threshold (pairs with |a[p, q]| <= tol / (2n) are not rotated)
    and its own sweep count: the off-diagonal Frobenius norm is checked
    before each sweep, and a member whose norm is below its tol is frozen,
    rotated no more.  A member still above its tol after max_sweeps sweeps
    raises NonConvergence.  Every member is validated before any work:
    non-square, asymmetric or non-finite ones raise ValueError, orders above
    MAX_DENSE_ORDER raise OrderTooLarge (a sweep costs O(n^3), so the solve
    would run for minutes to hours).
    """
    import numpy as np

    mats = [_checked(m) for m in mats]
    orders = [len(m) for m in mats]
    out = [EigenResult(np.zeros(0), np.zeros((0, 0)), 0, 0.0) for _ in mats]
    live = [b for b, n in enumerate(orders) if n]      # the members of order 0 are done
    if not live:
        return out

    nb = len(live)
    move = _round_robin(max(orders))
    size = len(move)            # the largest order, made even; members below it are zero-padded
    half, width = size // 2, 2 * size
    stride = 2 * width + 2      # flat step from pair (p, q) to the next in a row of [a | v^T]
    place = np.argsort(move)    # the next round's place of each index
    # [a | v^T][move][:, move + (v^T's columns in place)], as one flat gather
    both = (move[:, None] * width + np.concatenate((move, np.arange(size, width)))).reshape(-1)
    # X^T with its columns moved, X^T[:, move], from X in the rows of [X | v^T]
    turned = (move * width + np.arange(size)[:, None]).reshape(-1)
    # the places of (p, q) and (q, p) of each pair of each member, once the columns are moved
    ties = (np.arange(nb)[:, None, None] * size * width
            + np.stack((np.arange(0, size, 2) * width + place[1::2],
                        np.arange(1, size, 2) * width + place[0::2]), axis=1))
    blocks = np.empty((nb, half, 4))
    g = blocks.reshape(nb * half, 2, 2)     # the 2 x 2 diagonal blocks of each J^T, one per pair
    cosines, sines, signs = blocks[..., ::3], blocks[..., 1:3], np.array([-1.0, 1.0])
    # [a | v^T], v^T's row i pairing with a[i, i]; a round leaves its result in `av` and uses
    # `spare` and `a_t` as work space.  Every view below is made once.
    av, spare = np.zeros((nb, size, width)), np.empty((nb, size, width))
    a_t = np.empty((nb, size, size))
    for j, b in enumerate(live):
        n = orders[b]
        av[j, :n, :n] = (mats[b] + mats[b].T) / 2.0
    av[:, :, size:] = np.eye(size)
    flat, flat_spare, a_t_flat = av.reshape(nb, -1), spare.reshape(nb, -1), a_t.reshape(nb, -1)
    spare_all = spare.reshape(-1)
    app, aqq, apq = flat[:, 0::stride], flat[:, width + 1::stride], flat[:, 1::stride]
    rows, rows_spare = av.reshape(nb * half, 2, width), spare.reshape(nb * half, 2, width)
    a_rows_spare, a_t_rows = rows_spare[:, :, :size], a_t.reshape(nb * half, 2, size)
    tol = 1e-12 * np.maximum(np.linalg.norm(av[:, :, :size].reshape(nb, -1), axis=1), 1e-300)
    # rotations below a member's skip cannot keep its norm above its tol
    skip = tol / (2.0 * np.array([orders[b] for b in live]))
    skip_col = skip[:, None]
    sweeps = np.zeros(nb, dtype=int)
    off = np.empty((nb, size, size))
    off_flat = off.reshape(nb, -1)
    while True:
        np.copyto(off, av[:, :, :size])
        off_flat[:, ::size + 1] = 0.0   # entrywise, not ||A||^2 - ||diag||^2, which cancels
        norms = np.sqrt(np.add.reduce(off_flat * off_flat, axis=1))     # np.linalg.norm's sum
        active = norms > tol
        if not np.count_nonzero(active):
            break
        late = active & (sweeps >= max_sweeps)
        if late.any():
            j = int(np.argmax(late))
            where = f" in matrix {live[j]} of the stack" if len(mats) > 1 else ""
            raise NonConvergence(f"off-diagonal norm {norms[j]:.3e} after {sweeps[j]} sweeps "
                                 f"(tol {tol[j]:.3e}){where}")
        skip[~active] = np.inf          # frozen: no pair of a converged member is rotated again
        for _ in range(size - 1):
            hit = np.abs(apq) > skip_col
            if np.count_nonzero(hit):
                c, s = _jacobi_cs(app, aqq, apq, hit)
                cosines[...] = c[..., None]                     # [[c, -s], [s, c]]
                np.multiply(s[..., None], signs, out=sines)
                np.matmul(g, rows, out=rows_spare)              # [X | J^T v^T], X = J^T a
                # J^T a J = J^T X^T, a being symmetric, made with its columns moved
                flat_spare.take(turned, axis=1, out=a_t_flat, mode="clip")
                np.matmul(g, a_t_rows, out=a_rows_spare)
                spare_all[ties[hit]] = 0.0
                spare.take(move, axis=1, out=av, mode="clip")   # and then its rows
            else:
                flat.take(both, axis=1, out=flat_spare, mode="clip")    # "raise" would buffer
                np.copyto(av, spare)
        sweeps += active

    # a full sweep brings the order back to round 0's, the identity; drop the padding
    for j, b in enumerate(live):
        m, n = mats[b], orders[b]
        vals = av[j].diagonal()[:n]
        order = np.argsort(vals, kind="stable")
        vals, vecs = vals[order], av[j, :n, size:size + n].T[:, order]
        residual = float(np.abs(m @ vecs - vecs * vals).max())
        out[b] = EigenResult(vals, vecs, int(sweeps[j]), residual)
    return out


def sym_eigs(m: np.ndarray, max_sweeps: int = 100) -> EigenResult:
    """All eigenvalues and eigenvectors of one symmetric matrix: a stack of one.

    See `sym_eigs_stack` for the method, the stopping rule and the errors.
    """
    return sym_eigs_stack([m], max_sweeps)[0]


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


def lap_charpoly_eval(g: Graph, ts) -> list[int]:
    """Exact det(tI - L(g)) of a tree at each integer t of ts, by division-free leaf elimination.

    Rooted at vertex 1: a_v = (t - d_v) prod_c a_c - sum_c b_c prod_{c' != c} a_{c'},
    b_v = prod_c a_c over children c; the determinant telescopes to a_root.
    The sum is kept as a running pair over the children, so each vertex costs
    O(children) products per point.  One traversal serves every point: each
    vertex holds its a and b as lists over ts.
    """
    ts = list(ts)
    n = g.n
    if n == 0:
        return [1] * len(ts)
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
    ones = [1] * len(ts)
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
        d = len(adj[u])
        if rest is None:
            av[u] = [t - d for t in ts]
        else:
            av[u] = [(t - d) * p - r for t, p, r in zip(ts, prod, rest)]
        bv[u] = prod
    return av[1]


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
