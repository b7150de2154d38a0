"""The invariant suite, the published reference values and the spec sampler.

Each check in INVARIANT_CHECKS returns None or a one-line failure message
from comparing a production route with an independent oracle.  The layers
are called as module attributes (`oracle.sym_eigs`), so a wrapper installed
on a module's attribute, such as perfbench's span tracer, sees these calls.

Every dense matrix the checks solve is an index view of the one dense C of
`charpoly.build_C`: C(i) is C without the row and column of slot 2i - 1
(0-based), and the pair block of (q_j, q_{j+1}) is C's 3 x 3 block at slot
2j - 2.  So the deleted traces and the interlacing run on the literal row
deletion, not on the direct sum that `bounds.trace_inv_deleted` builds.

The dense solves come in stacks (`oracle.sym_eigs_stack`), which share each
Jacobi round among their members: per spec, C with all its deletions C(i)
in one call, solved once per run and shared by the checks (`_c_eigs`;
`cli.run_verify` empties that cache when a run ends), and the k - 1
leg-pair blocks of the Cardano check in another.  The tree Laplacian is a
single solve, since padding the small matrices to its order would cost
more than the rounds it saves.

compare_reference holds the oracle-confirmed published values (mu, lb_trace,
ub_trace) as hard assertions; the pair-bound column is report-only because
two of its printed values do not follow from the stated formula.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import inf, nextafter

import numpy as np

from . import bounds, charpoly, graphs, model, oracle
from .model import CaterpillarSpec, fmt4

# Published values.  ub_trace_index marks a ub_trace printed for one specific
# deletion index rather than the minimum over all of them.
REFERENCE_VALUES: dict[tuple[int, ...], dict] = {
    (4, 9, 0, 1): {"mu": 0.1862, "ub_cardano": 0.6045, "ub_trace": 0.2320,
                   "ub_trace_index": 2, "lb": 0.0942},
    (3, 2, 1, 0, 5, 4): {"mu": 0.0601, "ub_cardano": 0.2788, "ub_trace": 0.0658, "lb": 0.0372},
    (2, 0, 3, 4, 7): {"mu": 0.0893, "ub_cardano": 0.2536, "ub_trace": 0.1056, "lb": 0.0514},
    (3, 5, 0, 0, 9, 10): {"mu": 0.0398, "ub_cardano": 0.3087, "ub_trace": 0.0423, "lb": 0.0270},
    (9, 5, 5, 4, 2, 0, 3): {"mu": 0.0407, "ub_cardano": 0.2157, "ub_trace": 0.0500, "lb": 0.0290},
    (5, 0, 5, 0, 5, 0, 5, 0, 5): {"mu": 0.0285, "ub_cardano": 1.0000, "ub_trace": 0.0346, "lb": 0.0167},
    (3, 9, 10, 0, 5, 0, 4, 2, 0, 7): {"mu": 0.0173, "ub_cardano": 0.1624, "ub_trace": 0.0201, "lb": 0.0108},
}

REFERENCE_TOL = 1e-3    # the published values carry 4 decimals


def compare_reference(spec: CaterpillarSpec, rec: dict):
    """Returns (hard_failures, notes) of a bounds record against the published values, if any."""
    ref = REFERENCE_VALUES.get(spec.q)
    if ref is None:
        return [], []
    hard, notes = [], []
    b = rec["bounds"]

    def check(name: str, got: float, want: float, is_hard: bool):
        if abs(got - want) <= REFERENCE_TOL:
            return
        msg = f"{name}: published {fmt4(want)}, computed {fmt4(got)}"
        (hard if is_hard else notes).append(msg)

    check("mu", rec["mu"], ref["mu"], True)
    check("lb_trace", b["lb"], ref["lb"], True)
    idx = ref.get("ub_trace_index")
    if idx is None:
        check("ub_trace", b["ub_trace"], ref["ub_trace"], True)
    else:
        term = float(1 / (Fraction(rec["exact"]["trace_inv"]) - bounds.trace_inv_deleted(spec, idx)))
        check(f"ub_trace(i={idx} term)", term, ref["ub_trace"], True)
        if abs(b["ub_trace"] - ref["ub_trace"]) > REFERENCE_TOL:
            notes.append(
                f"ub_trace: published {fmt4(ref['ub_trace'])} is the i={idx} term; "
                f"the minimum over i is {fmt4(b['ub_trace'])} at i={b['ub_trace_index']}"
            )
    check("ub_cardano", b["ub_cardano"], ref["ub_cardano"], False)
    return hard, notes


def random_specs(count: int, kmax: int, qmax: int, seed: int) -> list[CaterpillarSpec]:
    """`count` seed-fixed specs with k in 1..kmax and every q_i in 0..qmax."""
    rng = random.Random(seed)
    return [model.validate_spec(tuple(rng.randint(0, qmax) for _ in range(rng.randint(1, kmax))))
            for _ in range(count)]


@lru_cache(maxsize=None)
def _c_eigs(spec: CaterpillarSpec) -> tuple[np.ndarray, ...]:
    """Descending dense eigenvalues of C and of each C(i), i = 1..k-1, in that order.

    C(i) is the dense C with the row and column of slot 2i - 1 deleted.  One
    stacked solve per spec, read-only and shared by the checks.  The cache
    holds a whole run, so a batch run solves each family once whatever the
    check order; `cli.run_verify` empties it when the run ends.  It keeps
    eigenvalues only, 2k^2 - 2k + 1 doubles over k arrays: at k = 8 that is
    904 bytes of values, about 2.8 KB per spec with the array objects.
    """
    c = charpoly.build_C(spec).to_dense()
    family = [c] + [np.delete(np.delete(c, s, 0), s, 1) for s in range(1, 2 * spec.k - 2, 2)]
    out = []
    for res in oracle.sym_eigs_stack(family):
        vals = res.values[::-1]
        vals.flags.writeable = False
        out.append(vals)
    return tuple(out)


def _dense_trace_inv(spec: CaterpillarSpec, i: int) -> float:
    """tr((2I + C)^-1) of C (i = 0) or C(i), summed over its dense eigenvalues."""
    return float(np.sum(1.0 / (_c_eigs(spec)[i] + 2.0)))


def _ck_charpoly_vs_det(spec, tol):
    poly = charpoly.charpoly_p(spec)
    b = oracle.deradicalize(charpoly.build_C(spec))
    for t in range(-3, -3 + 2 * spec.k):
        if oracle.exact_det(b, t) != poly(t):
            return f"charpoly_p disagrees with integer determinant at t={t}"
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
    ts = range(0, spec.n + 1)
    for t, det in zip(ts, oracle.lap_charpoly_eval(graphs.build_caterpillar(spec), ts)):
        if det != poly(t):
            return f"laplacian_charpoly disagrees with the tree determinant at t={t}"
    return None


def _ck_spectrum_shift(spec, tol):
    pairs = charpoly.laplacian_spectrum(spec)
    vals = np.sort(np.concatenate([[v] * m for v, m in pairs]))
    dense = oracle.sym_eigs(graphs.matrices(graphs.build_caterpillar(spec))["L"]).values
    if len(vals) != len(dense) or not np.allclose(vals, dense, rtol=0.0, atol=tol):
        return "assembled Laplacian spectrum disagrees with the dense eigensolve"
    if spec.k >= 2:     # mu from the exact count against Jacobi
        mu = oracle.mu_oracle(spec)
        if abs(mu - dense[1]) > tol:
            return f"mu_oracle {mu:.10g} vs dense {dense[1]:.10g}"
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
    full, *deleted = _c_eigs(spec)
    for i, sub in enumerate(deleted, 1):
        for m in range(len(sub)):
            if not (full[m + 1] - tol <= sub[m] <= full[m] + tol):
                return f"interlacing fails at i={i}, position {m + 1}"
    return None


def _ck_cardano_pairs(spec, tol):
    c = charpoly.build_C(spec).to_dense()
    solved = oracle.sym_eigs_stack([c[s:s + 3, s:s + 3] for s in range(0, 2 * spec.k - 2, 2)])
    for q1, q2, res in zip(spec.q, spec.q[1:], solved):
        got = sorted(bounds.cardano_roots(q1, q2).zetas)
        if not np.allclose(got, res.values, rtol=0.0, atol=max(tol, 1e-9)):
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
    a_join = graphs.matrices(joined)["A"]
    a_lg = graphs.matrices(lg)["A"][np.ix_(order, order)]
    if not np.array_equal(a_join, a_lg):
        return "H-join adjacency disagrees with the line graph"
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
    ("spectrum_shift_vs_dense", 1, _ck_spectrum_shift),
    ("trace_inverse_identity", 1, _ck_trace_identity),
    ("deleted_trace_identity", 2, _ck_trace_deleted),
    ("eigenvalue_interlacing", 2, _ck_interlacing),
    ("cardano_vs_dense", 2, _ck_cardano_pairs),
    ("bound_sandwich", 2, _ck_sandwich),
    ("hjoin_matches_line_graph", 2, _ck_hjoin),
    ("mu_vs_min_root", 2, _ck_mu_vs_minroot),
]
