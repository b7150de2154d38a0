"""The invariant suite, the published reference values and the spec sampler.

Each check in INVARIANT_CHECKS returns None or a one-line failure message
from comparing a production route with an independent oracle.  The layers
are called as module attributes (`oracle.sym_eigs`), so a wrapper installed
on a module's attribute, such as perfbench's span tracer, sees these calls.

compare_reference holds the oracle-confirmed published values (mu, lb_trace,
ub_trace) as hard assertions; the pair-bound column is report-only because
two of its printed values do not follow from the stated formula.
"""

from __future__ import annotations

import random
from fractions import Fraction

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


def _eig(mat) -> np.ndarray:
    return oracle.sym_eigs(np.asarray(mat, dtype=float)).values


def _dense_trace_inv(c) -> float:
    """tr((2I + C)^-1) summed over the dense eigenvalues of C."""
    return float(np.sum(1.0 / (_eig(c.to_dense()) + 2.0)))


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
    g = graphs.build_caterpillar(spec)
    for t in range(0, model.derive_params(spec).n + 1):
        if oracle.lap_charpoly_eval(g, t) != poly(t):
            return f"laplacian_charpoly disagrees with the tree determinant at t={t}"
    return None


def _ck_spectrum_shift(spec, tol):
    pairs = charpoly.laplacian_spectrum(spec)
    vals = np.sort(np.concatenate([[v] * m for v, m in pairs]))
    dense = _eig(graphs.matrices(graphs.build_caterpillar(spec))["L"])
    if len(vals) != len(dense) or not np.allclose(vals, dense, atol=tol):
        return "assembled Laplacian spectrum disagrees with the dense eigensolve"
    return None


def _ck_trace_identity(spec, tol):
    direct, exact = _dense_trace_inv(charpoly.build_C(spec)), float(bounds.trace_inv(spec))
    if abs(direct - exact) > tol:
        return f"trace_inv {exact:.10g} vs eigenvalue sum {direct:.10g}"
    return None


def _ck_trace_deleted(spec, tol):
    for i in range(1, spec.k):
        direct = _dense_trace_inv(charpoly.deleted_C(spec, i))
        if abs(direct - float(bounds.trace_inv_deleted(spec, i))) > tol:
            return f"trace_inv_deleted(i={i}) disagrees with the eigenvalue sum"
    return None


def _ck_interlacing(spec, tol):
    full = np.sort(_eig(charpoly.build_C(spec).to_dense()))[::-1]
    for i in range(1, spec.k):
        sub = np.sort(_eig(charpoly.deleted_C(spec, i).to_dense()))[::-1]
        for m in range(len(sub)):
            if not (full[m + 1] - tol <= sub[m] <= full[m] + tol):
                return f"interlacing fails at i={i}, position {m + 1}"
    return None


def _ck_cardano_pairs(spec, tol):
    for j in range(1, spec.k):
        q1, q2 = spec.q[j - 1], spec.q[j]
        got = sorted(bounds.cardano_roots(q1, q2).zetas)
        dense = _eig(charpoly.build_C(model.validate_spec((q1, q2))).to_dense())
        if not np.allclose(got, dense, atol=max(tol, 1e-9)):
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
    root = oracle.min_root(charpoly.shifted_pruned_charpoly(spec), 1e-9, 2.0 + 1e-6)
    mu = oracle.mu_oracle(spec)
    if abs(root - mu) > max(tol, 1e-8):
        return f"min_root {root:.10g} vs oracle {mu:.10g}"
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
