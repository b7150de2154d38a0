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
renders reals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import atan2, cos, pi, sqrt

from .charpoly import IndexOutOfRange, Rational, p_minus2, pprime_minus2
from .graphs import SpecTooSmall
from .model import CaterpillarSpec, derive_params, validate_spec


class NoValidIndex(RuntimeError):
    """Every deletion index produced a nonpositive trace difference (degenerate)."""


@dataclass(frozen=True)
class CubicSolution:
    """Roots of the characteristic cubic of C(q1, q2).

    On the trigonometric path, with t^3 + r t + s the depressed cubic,
    zetas[j] = 2 sqrt(-r/3) cos((theta + 2 pi j)/3) + (q1 + q2 - 2)/3.  Pairs
    with a zero leg skip the trigonometry (the answer {q1+q2, 0, -1} is exact)
    and q1 = q2 = 0 is the zero matrix (flagged degenerate); `method` records
    which of the three paths produced the roots.  Both legs positive always
    takes the trigonometric path: there
    -3r = q1^2 + q2^2 - q1 q2 + 2 q1 + 2 q2 + 1 >= 6, so r <= -2 and the
    cubic has three distinct real roots.
    """

    zetas: tuple[float, float, float]
    method: str     # "trig" | "zero_leg" | "both_zero"; positive legs give r <= -2, always "trig"

    @property
    def degenerate(self) -> bool:
        return self.method == "both_zero"

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
    c2 = float(2 - q1 - q2)
    c1 = float((q1 - 1) * (q2 - 1) - q1 - q2)
    c0 = float(q1 * (q2 - 1) + q2 * (q1 - 1))
    r = c1 - c2 * c2 / 3.0
    s = 2.0 * (c2 / 3.0) ** 3 - c2 * c1 / 3.0 + c0
    rad = -((r / 3.0) ** 3) - (s / 2.0) ** 2
    theta = atan2(sqrt(max(0.0, rad)), -s / 2.0)
    amp = 2.0 * sqrt(-r / 3.0)
    base = (q1 + q2 - 2) / 3.0
    zetas = tuple(amp * cos((theta + 2.0 * pi * j) / 3.0) + base for j in range(3))
    return CubicSolution(zetas, "trig")


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


def trace_inv(spec: CaterpillarSpec) -> Rational:
    """tr((2I + C)^-1) = -p'(q; -2) / p(q; -2), exact and strictly positive."""
    return Fraction(-pprime_minus2(spec), p_minus2(spec))


def trace_inv_deleted(spec: CaterpillarSpec, i: int) -> Rational:
    """Same trace for the direct sum left after deleting row/column 2i of C."""
    if not 1 <= i <= spec.k - 1:
        raise IndexOutOfRange(f"deletion index {i} outside 1..{spec.k - 1}")
    return trace_inv(validate_spec(spec.q[:i])) + trace_inv(validate_spec(spec.q[i:]))


@dataclass(frozen=True)
class TraceBounds:
    p_minus2: int           # p(q; -2), the exact values lb is derived from
    pprime_minus2: int      # p'(q; -2)
    lb: Rational
    ub: Rational | None     # None when k = 1 (no deletable index)
    ub_index: int | None


def bounds_trace(spec: CaterpillarSpec) -> TraceBounds:
    """lb = 1/trace_inv; ub = min_i 1/(trace_inv - trace_inv_deleted(i)).

    Indices with a nonpositive denominator are skipped (interlacing makes the
    denominator positive for every real spec; the guard is for safety), and
    NoValidIndex reports the degenerate case of no usable index at all.
    """
    p, pp = p_minus2(spec), pprime_minus2(spec)
    ti = Fraction(-pp, p)   # trace_inv(spec), from the p and p' the result keeps
    lb = 1 / ti
    if spec.k < 2:
        return TraceBounds(p, pp, lb, None, None)
    best = None
    best_i = None
    for i in range(1, spec.k):
        denom = ti - trace_inv_deleted(spec, i)
        if denom <= 0:
            continue
        val = 1 / denom
        if best is None or val < best:
            best, best_i = val, i
    if best is None:
        raise NoValidIndex("all trace differences nonpositive")
    return TraceBounds(p, pp, lb, best, best_i)


@dataclass(frozen=True)
class BoundsReport:
    q: tuple[int, ...]
    mu: float
    lb_trace: Rational
    ub_trace: Rational
    ub_trace_index: int
    ub_cardano: float
    ub_cardano_index: int
    paper_valid: bool
    trace_inv: Rational
    p_minus2: int
    pprime_minus2: int
    warnings: tuple[str, ...]


def bounds_report(spec: CaterpillarSpec) -> BoundsReport:
    """All three bounds next to the oracle value, with sandwich violations flagged.

    The report also carries the exact p(-2), p'(-2) and trace_inv that lb_trace
    is derived from, so it is the single source of every number a bounds
    record shows.  Violations are reported in `warnings`, never raised: the
    report is also the vehicle for detecting them.
    """
    from .oracle import mu_oracle

    if spec.k < 2:
        raise SpecTooSmall("bounds reports need k >= 2")
    mu = mu_oracle(spec)
    tb = bounds_trace(spec)
    cb = ub_cardano(spec)
    n = derive_params(spec).n
    slack = 1e-8
    warnings = []
    if not float(tb.lb) <= mu + slack:
        warnings.append(f"lower bound {float(tb.lb):.6g} exceeds mu {mu:.6g}")
    if not mu <= float(tb.ub) + slack:
        warnings.append(f"mu {mu:.6g} exceeds trace upper bound {float(tb.ub):.6g}")
    if not mu <= cb.value + slack:
        warnings.append(f"mu {mu:.6g} exceeds pair upper bound {cb.value:.6g}")
    if not mu > 0:
        warnings.append(f"mu {mu:.6g} not positive")
    if n >= 3 and mu > 1 + slack:
        warnings.append(f"mu {mu:.6g} exceeds 1 on {n} >= 3 vertices")
    return BoundsReport(
        q=spec.q,
        mu=mu,
        lb_trace=tb.lb,
        ub_trace=tb.ub,
        ub_trace_index=tb.ub_index,
        ub_cardano=cb.value,
        ub_cardano_index=cb.j,
        paper_valid=cb.paper_valid,
        trace_inv=1 / tb.lb,
        p_minus2=tb.p_minus2,
        pprime_minus2=tb.pprime_minus2,
        warnings=tuple(warnings),
    )
