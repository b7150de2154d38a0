"""The invariant suite, the one module of the package that loads numpy on import.

Each check in INVARIANT_CHECKS returns None or a one-line failure message
from comparing a production route with an independent oracle.  The layers
are called as module attributes (`oracle.sym_eigs_stack`), so a wrapper
installed on a module's attribute, such as perfbench's span tracer, sees
these calls.

Every dense matrix the checks solve is cut from the one dense C of
`charpoly.build_C`: C(i) is C without the row and column of slot 2i - 1
(0-based), and the pair block of (q_j, q_{j+1}) is C's 3 x 3 block at slot
2j - 2.  So the deleted traces and the interlacing run on the literal row
deletion, not on the direct sum that `bounds.trace_inv_deleted` builds.

The dense solves come in one stack per spec (`oracle.sym_eigs_stack`),
whose members share each Jacobi round: C, all its deletions C(i) and the
k - 1 leg-pair blocks of the Cardano check, packed into two block-diagonal
members, solved once per run and shared by the checks (`_c_eigs`;
`cli.run_verify` empties that cache when a run ends).  No check builds a
dense matrix of the tree: the spectrum is certified by the tree's exact
eigenvalue count (`oracle.lap_count_above`), and each polynomial is
compared with its oracle at one point beyond every root of their
difference, which equals coefficient equality.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import inf, nextafter

import numpy as np

from . import bounds, charpoly, graphs, oracle
from .model import CaterpillarSpec


@lru_cache(maxsize=None)
def _c_eigs(spec: CaterpillarSpec) -> tuple[np.ndarray, ...]:
    """Descending dense eigenvalues of C, of each C(i), i = 1..k-1, and of each pair block.

    C(i) is the dense C with the row and column of slot 2i - 1 deleted, and
    the pair block of (q_j, q_{j+1}) is C's 3 x 3 block at slot 2j - 2.  The
    blocks of odd j never share a slot, nor do those of even j, so each
    parity is one block-diagonal member of order 2k - 1: padding k - 1 small
    blocks to that order would double the stack.  Entries between blocks
    are exact zeros that no rotation touches, so every eigenvector stays
    inside its block and names it.  One stacked solve per spec, read-only
    and shared by the checks.  The cache holds a whole run, so a batch run
    solves each family once whatever the check order; `cli.run_verify`
    empties it when the run ends.  It keeps eigenvalues only, 2k^2 + k - 2
    doubles over 2k - 1 arrays: at k = 8 that is 1072 bytes of values,
    about 4.9 KB per spec with the array objects.
    """
    c = charpoly.build_C(spec).to_dense()
    starts = range(0, 2 * spec.k - 2, 2)
    packed = [np.zeros_like(c), np.zeros_like(c)]
    for j, s in enumerate(starts):
        packed[j % 2][s:s + 3, s:s + 3] = c[s:s + 3, s:s + 3]
    deleted = [np.delete(np.delete(c, s, 0), s, 1) for s in range(1, 2 * spec.k - 2, 2)]
    solved = oracle.sym_eigs_stack([c] + deleted + packed[:len(starts)])
    out = [res.values[::-1] for res in solved[:spec.k]]
    for j, s in enumerate(starts):
        res = solved[spec.k + j % 2]
        owner = np.argmax(np.abs(res.vectors), axis=0)
        out.append(res.values[(s <= owner) & (owner < s + 3)][::-1])
    for vals in out:
        vals.flags.writeable = False
    return tuple(out)


def _dense_trace_inv(spec: CaterpillarSpec, i: int) -> float:
    """tr((2I + C)^-1) of C (i = 0) or C(i), summed over its dense eigenvalues."""
    return float(np.sum(1.0 / (_c_eigs(spec)[i] + 2.0)))


def _kronecker_exponent(poly, order: int, row_sum: int) -> int:
    """m with 2^m > 1 + H + (1 + R)^N: where poly and an oracle's polynomial agree only if equal.

    H is the largest |coefficient| of poly.  The oracle's order-N matrix has
    absolute row sums at most R, so its eigenvalues lie in |z| <= R and its
    characteristic polynomial's coefficients are at most (1 + R)^N in size.
    The difference of the two polynomials has coefficients at most
    H + (1 + R)^N, so by Cauchy's bound each of its roots has |z| below
    1 + H + (1 + R)^N < 2^m, unless it is zero.
    """
    return (1 + max(map(abs, poly.coeffs)) + (1 + row_sum) ** order).bit_length()


def _ck_charpoly_vs_det(spec, tol):
    poly = charpoly.charpoly_p(spec)
    b = oracle.deradicalize(charpoly.build_C(spec))
    m = _kronecker_exponent(poly, len(b), max(sum(map(abs, row)) for row in b))
    if oracle.exact_det(b, 2 ** m) != poly(2 ** m):
        return f"charpoly_p disagrees with the integer determinant at t=2^{m}"
    return None


def _ck_scalar_vs_poly(spec, tol):
    poly = charpoly.charpoly_p(spec)
    p, pp = charpoly.p_minus2(spec), charpoly.pprime_minus2(spec)
    if p != poly(-2):
        return "p_minus2 disagrees with the polynomial at -2"
    if pp != poly.deriv()(-2):
        return "pprime_minus2 disagrees with the derivative at -2"
    if not p > 0:
        return "p(-2) not positive"
    if not pp < 0:
        return "p'(-2) not negative"
    return None


def _ck_laplacian_charpoly(spec, tol):
    poly = charpoly.laplacian_charpoly(spec)
    # L's absolute row sums are twice the degrees, at most q_i + 2
    m = _kronecker_exponent(poly, spec.n, 2 * (max(spec.q) + 2))
    [det] = oracle.lap_charpoly_eval(graphs.build_caterpillar(spec), [2 ** m])
    if det != poly(2 ** m):
        return f"laplacian_charpoly disagrees with the tree determinant at t=2^{m}"
    return None


def _ck_spectrum_tree_count(spec, tol):
    """Each reported value is the double nearest its eigenvalues, with their exact multiplicity.

    The tree's exact count above the halfway points to each value's
    neighbouring doubles must equal n less the multiplicities the report
    puts at or below them.  L is singular and positive semidefinite, so the
    count at the halfway point below the second value also certifies (0.0, 1).
    """
    pairs = charpoly.laplacian_spectrum(spec)
    vals, mults = [v for v, _ in pairs], [m for _, m in pairs]
    if pairs[0] != (0.0, 1) or sum(mults) != spec.n or min(mults) < 1:
        return "the spectrum does not start at (0.0, 1) or its multiplicities do not make n"
    if not all(a < b for a, b in zip(vals, vals[1:])) or not vals[-1] < inf:
        return "the spectrum's values are not finite and strictly ascending"
    points, expected, upto = [], [], 1
    for v, m in pairs[1:]:
        points += [(Fraction(nextafter(v, -inf)) + Fraction(v)) / 2,
                   (Fraction(v) + Fraction(nextafter(v, inf))) / 2]
        expected += [spec.n - upto, spec.n - upto - m]
        upto += m
    counts = oracle.lap_count_above(graphs.build_caterpillar(spec), points)
    for j, (got, want) in enumerate(zip(counts, expected)):
        if got != want:
            side = "above" if j % 2 else "below"
            return (f"the tree has {got} eigenvalues past the halfway point {side} "
                    f"{vals[1 + j // 2]!r}, the spectrum puts {want} there")
    if spec.k >= 2:     # mu is the second value, and C's smallest eigenvalue + 2 by Jacobi
        mu, dense = oracle.mu_oracle(spec), float(_c_eigs(spec)[0][-1]) + 2.0
        if mu != vals[1]:
            return f"mu_oracle {mu!r} is not the spectrum's second value {vals[1]!r}"
        if abs(mu - dense) > tol:
            return f"mu_oracle {mu:.10g} vs dense {dense:.10g}"
    return None


def _ck_trace_identity(spec, tol):
    direct, exact = _dense_trace_inv(spec, 0), float(bounds.trace_inv(spec))
    if abs(direct - exact) > tol:
        return f"trace_inv {exact:.10g} vs eigenvalue sum {direct:.10g}"
    return None


def _ck_trace_deleted(spec, tol):
    for i in range(1, spec.k):
        direct = _dense_trace_inv(spec, i)
        if abs(direct - float(bounds.trace_inv_deleted(spec, i))) > tol:
            return f"trace_inv_deleted(i={i}) disagrees with the eigenvalue sum"
    return None


def _ck_interlacing(spec, tol):
    full, *deleted = _c_eigs(spec)[:spec.k]
    for i, sub in enumerate(deleted, 1):
        for m in range(len(sub)):
            if not (full[m + 1] - tol <= sub[m] <= full[m] + tol):
                return f"interlacing fails at i={i}, position {m + 1}"
    return None


def _ck_cardano_pairs(spec, tol):
    for q1, q2, vals in zip(spec.q, spec.q[1:], _c_eigs(spec)[spec.k:]):
        got = sorted(bounds.cardano_roots(q1, q2).zetas, reverse=True)
        if not np.allclose(got, vals, rtol=0.0, atol=max(tol, 1e-9)):
            return f"cardano_roots({q1},{q2}) disagrees with the dense eigensolve"
    return None


def _ck_sandwich(spec, tol):
    return "; ".join(bounds.bounds_report(spec).warnings) or None


def _ck_hjoin(spec, tol):
    h, family = graphs.linegraph_as_hjoin(spec)
    joined = graphs.h_join(h, family)
    g = graphs.build_caterpillar(spec)
    lg = graphs.line_graph(g)
    if joined.n != lg.n:
        return "H-join order mismatch"
    # the H-join enumerates legs of spine vertex 1, the spine edge (1,2),
    # legs of 2, ... ; map each to its position in the sorted edge list
    order = []
    for i in range(1, spec.k + 1):
        order.extend(ei for ei, (u, w) in enumerate(g.edges) if u == i and w > spec.k)
        if i < spec.k:
            order.extend(ei for ei, (u, w) in enumerate(g.edges) if (u, w) == (i, i + 1))
    if sorted(order) != list(range(lg.n)):
        return "H-join slots do not enumerate the tree's edges once each"
    mapped = {tuple(sorted((order[u - 1] + 1, order[v - 1] + 1))) for u, v in joined.edges}
    if mapped != set(lg.edges):
        return "H-join edges disagree with the line graph"
    return None


def _ck_mu_vs_minroot(spec, tol):
    """No root of the pruned polynomial below mu_oracle's double, one within an ulp of it.

    The polynomial is monic up to sign, so its rational roots are integers and
    p(1e-9) != 0.
    """
    mu = oracle.mu_oracle(spec)
    below, above = nextafter(mu, 0.0), nextafter(mu, inf)
    count = oracle.sturm_count(charpoly.shifted_pruned_charpoly(spec), 1e-9)
    if count(below):
        return f"the pruned polynomial has a root in (1e-9, {below!r}], below mu_oracle {mu!r}"
    if not count(above):
        return f"the pruned polynomial has no root in ({below!r}, {above!r}] around mu_oracle"
    return None


# (name, minimum k, check); k >= 2 also gives the n >= 2 that mu needs
INVARIANT_CHECKS = [
    ("charpoly_vs_integer_det", 1, _ck_charpoly_vs_det),
    ("scalar_vs_polynomial_at_-2", 1, _ck_scalar_vs_poly),
    ("laplacian_charpoly_vs_tree_det", 1, _ck_laplacian_charpoly),
    ("spectrum_vs_tree_count", 1, _ck_spectrum_tree_count),
    ("trace_inverse_identity", 1, _ck_trace_identity),
    ("deleted_trace_identity", 2, _ck_trace_deleted),
    ("eigenvalue_interlacing", 2, _ck_interlacing),
    ("cardano_vs_dense", 2, _ck_cardano_pairs),
    ("bound_sandwich", 2, _ck_sandwich),
    ("hjoin_matches_line_graph", 2, _ck_hjoin),
    ("mu_vs_min_root", 2, _ck_mu_vs_minroot),
]
