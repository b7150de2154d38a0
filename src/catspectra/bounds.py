"""Certified bounds on the algebraic connectivity of a caterpillar.

Three bounds, all driven by the quotient matrix C(q_1, ..., q_k) whose
smallest eigenvalue plus 2 is the algebraic connectivity mu:

* ub_cardano: interlacing against the 3x3 principal blocks C(q_j, q_{j+1});
  their third-largest eigenvalue + 2 bounds mu from above, and for positive
  pairs the eigenvalues come from the trigonometric (Cardano) closed form;
* lb_trace: 1 / tr((2I + C)^-1), exact rational via p and p' at -2;
* ub_trace: min over deletable indices i of 1 / (tr((2I+C)^-1) -
  tr((2I+C~_i)^-1)), also exact rational, with C~_i the direct sum left by
  deleting the 2i-th row and column.

The trace quantities never touch floating point; only the final report
renders reals.  The report checks both trace bounds against mu exactly, by
counting the Laplacian eigenvalues of the tree below each bound
(`model.laplacian_count`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import atan2, cos, pi, sqrt

from .charpoly import IndexOutOfRange, IntPolynomial, p_minus2, pprime_minus2
from .graphs import SpecTooSmall
from .model import (CaterpillarSpec, LegTooLarge, bisect_doubles, laplacian_count,
                    require_double_legs, validate_spec)
from .oracle import mu_oracle


@dataclass(frozen=True)
class CubicSolution:
    """Roots of the characteristic cubic of C(q1, q2).

    On the trigonometric path, with t^3 + r t + s the depressed cubic,
    zetas[j] = 2 sqrt(-r/3) cos((theta + 2 pi j)/3) + (q1 + q2 - 2)/3, kept
    where the exact sign test `IntPolynomial.sign_at` of the integer cubic
    confirms it within CUBIC_ROOT_TOL and bisected where it does not.  Pairs
    with a zero leg skip the trigonometry (the answer {q1+q2, 0, -1} is exact)
    and q1 = q2 = 0 is the zero matrix (method "both_zero"); `method` records
    which of the three paths produced the roots.  Both legs positive always
    takes the trigonometric path: there
    -3r = q1^2 + q2^2 - q1 q2 + 2 q1 + 2 q2 + 1 >= 6, so r <= -2 and the
    cubic has three distinct real roots.
    """

    zetas: tuple[float, float, float]
    method: str     # "trig" | "zero_leg" | "both_zero"; positive legs give r <= -2, always "trig"

    @property
    def sorted_desc(self) -> tuple[float, float, float]:
        z = sorted(self.zetas, reverse=True)
        return (z[0], z[1], z[2])

    @property
    def lam3(self) -> float:
        return self.sorted_desc[2]


def cardano_roots(q1: int, q2: int) -> CubicSolution:
    """Eigenvalues of the 3x3 quotient matrix C(q1, q2), closed form."""
    if q1 < 0 or q2 < 0:
        raise ValueError("leg counts must be nonnegative")
    if q1 == 0 and q2 == 0:
        return CubicSolution((0.0, 0.0, 0.0), "both_zero")
    if q1 == 0 or q2 == 0:
        # one block is empty: the dense matrix has a zero row, and the rest is
        # a 2x2 block with eigenvalues q1+q2 and -1
        return CubicSolution((float(q1 + q2), 0.0, -1.0), "zero_leg")
    cubic = IntPolynomial((q1 * (q2 - 1) + q2 * (q1 - 1), (q1 - 1) * (q2 - 1) - q1 - q2,
                           2 - q1 - q2, 1))
    try:
        c0, c1, c2 = (float(c) for c in cubic.coeffs[:3])
        r = c1 - c2 * c2 / 3.0
        s = 2.0 * (c2 / 3.0) ** 3 - c2 * c1 / 3.0 + c0
        rad = -((r / 3.0) ** 3) - (s / 2.0) ** 2
        theta = atan2(sqrt(max(0.0, rad)), -s / 2.0)
        amp = 2.0 * sqrt(-r / 3.0)
        base = (q1 + q2 - 2) / 3.0
        zetas = tuple(amp * cos((theta + 2.0 * pi * j) / 3.0) + base for j in range(3))
    except OverflowError:       # (r / 3)^3 leaves the doubles once a leg passes about 10^51
        zetas = None
    return CubicSolution(_certify_roots(cubic, zetas), "trig")


# a trigonometric root is kept when an exact sign test puts a root of the
# cubic within this distance, relative to max(1, |root|)
CUBIC_ROOT_TOL = 1e-12


def _certify_roots(cubic: IntPolynomial, zetas) -> tuple[float, float, float]:
    """The three roots of the monic integer cubic x^3 + c2 x^2 + c1 x + c0, each
    within CUBIC_ROOT_TOL of the exact one.

    The trigonometric form cancels terms of size q1 + q2, so its small roots
    lose digits as the legs grow (4.7e-8 off at q = (10^5, 1)).  A root that
    fails the exact sign test (`IntPolynomial.sign_at`, shared with
    `oracle.min_root`) is bisected on the same signs to adjacent doubles
    inside its isolating interval: below, between or above the two
    critical points, within the Cauchy bound.  With no estimates (zetas
    None, the trigonometric form overflowed) every root is bisected, in
    ascending order.  Coefficients too large for the interval ends to be
    doubles (legs above about 10^154) raise LegTooLarge.
    """
    c0, c1, c2, _ = cubic.coeffs
    try:
        half = sqrt(c2 * c2 - 3 * c1)
        bound = 1.0 + max(abs(c2), abs(c1), abs(c0))
    except OverflowError:
        raise LegTooLarge("the leg pair's cubic has coefficients beyond the doubles") from None
    edges = (-bound, (-c2 - half) / 3.0, (-c2 + half) / 3.0, bound)

    def bisected(rank: int) -> float:      # the root between edges[rank] and edges[rank + 1]
        lo, hi = edges[rank], edges[rank + 1]
        s_lo = cubic.sign_at(lo)
        return bisect_doubles(lambda x: cubic.sign_at(x) != s_lo, lo, hi)[1]

    if zetas is None:
        return (bisected(0), bisected(1), bisected(2))
    out = list(zetas)
    for rank, j in enumerate(sorted(range(3), key=lambda j: zetas[j])):
        z = zetas[j]
        d = CUBIC_ROOT_TOL * max(1.0, abs(z))
        if cubic.sign_at(z - d) * cubic.sign_at(z + d) > 0:
            out[j] = bisected(rank)
    return (out[0], out[1], out[2])


@dataclass(frozen=True)
class CardanoBound:
    value: float
    j: int              # attaining pair (q_j, q_{j+1}), 1-based
    paper_valid: bool   # stated preconditions of the closed-form corollary: k >= 4, q1 != 0 != q_k


def ub_cardano(spec: CaterpillarSpec) -> CardanoBound:
    """min over consecutive pairs of lambda_3(C(q_j, q_{j+1})) + 2; ties take the smallest j."""
    if spec.k < 2:
        raise SpecTooSmall("the pair bound needs k >= 2")
    best = None
    best_j = 0
    for j in range(1, spec.k):
        val = cardano_roots(spec.q[j - 1], spec.q[j]).lam3 + 2.0
        if best is None or val < best:
            best, best_j = val, j
    return CardanoBound(best, best_j, spec.k >= 4 and spec.q[0] != 0 and spec.q[-1] != 0)


def trace_inv(spec: CaterpillarSpec) -> Fraction:
    """tr((2I + C)^-1) = -p'(q; -2) / p(q; -2), exact and strictly positive."""
    return Fraction(-pprime_minus2(spec), p_minus2(spec))


def trace_inv_deleted(spec: CaterpillarSpec, i: int) -> Fraction:
    """Same trace for the direct sum left after deleting row/column 2i of C."""
    if not 1 <= i <= spec.k - 1:
        raise IndexOutOfRange(f"deletion index {i} outside 1..{spec.k - 1}")
    return trace_inv(validate_spec(spec.q[:i])) + trace_inv(validate_spec(spec.q[i:]))


@dataclass(frozen=True)
class TraceBounds:
    p_minus2: int           # p(q; -2), the exact values lb is derived from
    pprime_minus2: int      # p'(q; -2)
    lb: Fraction
    ub: Fraction | None     # None when k = 1 (no deletable index)
    ub_index: int | None


def bounds_trace(spec: CaterpillarSpec) -> TraceBounds:
    """lb = 1/trace_inv; ub = min_i 1/(trace_inv - trace_inv_deleted(i)), ties
    taking the smallest i.

    Every denominator is positive: by Cauchy interlacing it is at least
    1/(lambda_max + 2), and a bug that broke that would surface as a wrong ub
    in `bounds_report`'s exact sandwich, not be skipped here.
    """
    p, pp = p_minus2(spec), pprime_minus2(spec)
    ti = Fraction(-pp, p)   # trace_inv(spec), from the p and p' the result keeps
    lb = 1 / ti
    if spec.k < 2:
        return TraceBounds(p, pp, lb, None, None)
    ub, ub_index = min((1 / (ti - trace_inv_deleted(spec, i)), i) for i in range(1, spec.k))
    return TraceBounds(p, pp, lb, ub, ub_index)


@dataclass(frozen=True)
class BoundsReport:
    q: tuple[int, ...]
    mu: float
    lb_trace: Fraction
    ub_trace: Fraction
    ub_trace_index: int
    ub_cardano: float
    ub_cardano_index: int
    paper_valid: bool
    p_minus2: int
    pprime_minus2: int
    warnings: tuple[str, ...]


def bounds_report(spec: CaterpillarSpec) -> BoundsReport:
    """All three bounds next to mu, with sandwich violations flagged.

    mu is `oracle.mu_oracle`, located by exact eigenvalue counting on the
    tree.  The trace bounds are certified with no tolerance: lb_trace <= mu
    iff fewer than two eigenvalues lie below lb_trace, and mu <= ub_trace iff
    at least two lie at or below ub_trace.  The pair bound and the range of
    mu are checked in floats with 1e-8 slack.  The report also carries the
    exact p(-2) and p'(-2) that lb_trace is derived from, so it is the
    single source of every number a bounds record shows.  Violations
    are reported in `warnings`, never raised: the report is also the vehicle
    for detecting them.  mu and the pair bound are doubles, so legs without a
    double value raise LegTooLarge.
    """
    if spec.k < 2:
        raise SpecTooSmall("bounds reports need k >= 2")
    require_double_legs(spec)
    mu = mu_oracle(spec)
    tb = bounds_trace(spec)
    cb = ub_cardano(spec)
    slack = 1e-8
    warnings = []
    if laplacian_count(spec, tb.lb)[0] > 1:
        warnings.append(f"lower bound {float(tb.lb):.6g} exceeds mu {mu:.6g}")
    if sum(laplacian_count(spec, tb.ub)) < 2:
        warnings.append(f"mu {mu:.6g} exceeds trace upper bound {float(tb.ub):.6g}")
    if not mu <= cb.value + slack:
        warnings.append(f"mu {mu:.6g} exceeds pair upper bound {cb.value:.6g}")
    if not mu > 0:
        warnings.append(f"mu {mu:.6g} not positive")
    if spec.n >= 3 and mu > 1 + slack:
        warnings.append(f"mu {mu:.6g} exceeds 1 on {spec.n} >= 3 vertices")
    return BoundsReport(
        q=spec.q,
        mu=mu,
        lb_trace=tb.lb,
        ub_trace=tb.ub,
        ub_trace_index=tb.ub_index,
        ub_cardano=cb.value,
        ub_cardano_index=cb.j,
        paper_valid=cb.paper_valid,
        p_minus2=tb.p_minus2,
        pprime_minus2=tb.pprime_minus2,
        warnings=tuple(warnings),
    )
