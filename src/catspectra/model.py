"""Caterpillar specifications, the counts the paper's factorization uses, and
the exact count of the tree's Laplacian eigenvalues.

A caterpillar T(q_1, ..., q_k) is the tree obtained from a path on k spine
vertices by attaching q_i pendant legs to the i-th spine vertex.  Everything
downstream (quotient matrices, polynomial recursions, bounds) is driven by the
leg-count vector q and the counts n, a and b read off it, here and nowhere
else.  `laplacian_count` counts the eigenvalues below a point by Jacobs and
Trevisan's tree diagonalization in its Laplacian form (Braga, Rodrigues and
Trevisan, Discrete Math. 313, 2013); `nearest_double` rounds one eigenvalue
with an exact count; `random_specs` samples specs for `verify --random`, the
tests and the scripts, and q_label and fmt4 format reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction
from math import inf, nextafter
from typing import Sequence


class NegativeLegCount(ValueError):
    """Some q_i < 0."""


class EmptySpec(ValueError):
    """The leg-count vector is empty."""


class OrderTooLarge(ValueError):
    """A dense matrix or a polynomial would exceed the order cap of its route."""


class LegTooLarge(ValueError):
    """A leg count is too large for a route that computes in doubles."""


@dataclass(frozen=True)
class CaterpillarSpec:
    """Validated leg-count vector.

    With a the multiplicity of -1 in the line-graph spectrum and b the number
    of zero-leg rows of C, det(mu I - L) = -mu (mu-1)^a p(mu-2) / (mu-2)^b.
    """

    q: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.q)

    @property
    def n(self) -> int:
        """Tree order, sum(q) + k."""
        return sum(self.q) + len(self.q)

    @property
    def a(self) -> int:
        """Legs beyond the first at each spine vertex: sum of q_i - 1 over q_i > 0."""
        return sum(x - 1 for x in self.q if x)

    @property
    def b(self) -> int:
        """Zero legs, each an all-zero row of C."""
        return self.q.count(0)


def validate_spec(q: Sequence[int]) -> CaterpillarSpec:
    """Check a leg-count vector: at least one spine vertex, no negative count."""
    qt = tuple(int(x) for x in q)
    if len(qt) == 0:
        raise EmptySpec("need at least one spine vertex")
    if any(x < 0 for x in qt):
        raise NegativeLegCount(f"leg counts must be >= 0, got {qt}")
    return CaterpillarSpec(q=qt)


def random_specs(count: int, kmax: int, qmax: int, seed: int) -> list[CaterpillarSpec]:
    """`count` seed-fixed specs with k in 1..kmax and every q_i in 0..qmax."""
    rng = random.Random(seed)
    return [validate_spec(tuple(rng.randint(0, qmax) for _ in range(rng.randint(1, kmax))))
            for _ in range(count)]


def require_double_legs(spec: CaterpillarSpec) -> None:
    """Raise LegTooLarge unless every leg count converts to a double (below about 2^1024)."""
    try:
        float(max(spec.q))
    except OverflowError:
        raise LegTooLarge(f"a leg count of {max(spec.q).bit_length()} bits has no double value, "
                          f"and this route computes in doubles") from None


def _inertia(spec: CaterpillarSpec, x) -> tuple[int, int]:
    """(negative, zero) diagonal values of L - xI after tree diagonalization.

    Spine vertex 1 is processed first and k last, each leg before its spine
    vertex.  A leaf gets 1 - x; spine vertex i gets deg_i - x - q_i/(1-x) -
    1/a_{i-1}, the last term only while the edge to spine vertex i-1 is
    kept.  A vertex with a zero child turns one such child to 2 and itself
    to -1/2 and cuts the edge to its parent; any other zero children stay 0.
    Generic over the number type of x: Fractions give the exact inertia,
    floats a fast estimate.
    """
    leaf = 1 - x
    last = spec.k - 1
    below = at = 0
    child = None        # a_{i-1} while spine vertex i-1 is still a child of i
    for i, q in enumerate(spec.q):
        if leaf < 0:
            below += q
        zeros = q if leaf == 0 else 0
        if child is not None:
            zeros += child == 0
            below += child < 0
        if zeros:
            below += 1              # this vertex becomes -1/2, one zero child 2
            at += zeros - 1
            child = None
            continue
        a = q + (i > 0) + (i < last) - x
        if q:
            a -= q / leaf
        if child is not None:
            a -= 1 / child
        child = a
    if child is not None:
        below += child < 0
        at += child == 0
    return below, at


def laplacian_count(spec: CaterpillarSpec, x) -> tuple[int, int]:
    """(#{eigenvalues of L(T) < x}, multiplicity of x), exact for rational x.

    O(k) Fraction steps whatever sum(q) is; never builds a matrix or C.
    """
    return _inertia(spec, Fraction(x))


def bisect_doubles(above, lo: float, hi: float) -> tuple[float, float]:
    """Narrow lo < hi to adjacent doubles, keeping above(hi) true and above(lo) false."""
    while lo < (mid := (lo + hi) / 2.0) < hi:
        if above(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def nearest_double(at_most, rank: int, lo: float, hi: float) -> tuple[float, int]:
    """The double nearest the rank-th smallest Laplacian eigenvalue, ties to
    the lower, and at_most halfway from it to the double above.

    at_most(x) is the exact number of eigenvalues at most a rational x, so v
    is nearest iff at_most(halfway above v) >= rank and not so for the double
    below v.  lo < hi are adjacent doubles a float count put around the
    eigenvalue; when it judged right, one of them is nearest and two exact
    counts show which.  Else the bracket is widened, doubling its step and
    never below 0, and bisected on the same test.
    """
    tops = {}

    def nearest_at_or_below(v: float) -> bool:
        if v not in tops:
            tops[v] = at_most((Fraction(v) + Fraction(nextafter(v, inf))) / 2)
        return tops[v] >= rank

    if nearest_at_or_below(lo):
        lo, hi = nextafter(lo, -inf), lo
    step = hi - lo
    while nearest_at_or_below(lo):
        lo, step = max(0.0, lo - step), 2.0 * step
    step = hi - lo
    while not nearest_at_or_below(hi):
        hi, step = hi + step, 2.0 * step
    lo, hi = bisect_doubles(nearest_at_or_below, lo, hi)
    return hi, tops[hi]


def q_label(q) -> str:
    """The leg counts as the published tables print them, e.g. (4,9,0,1)."""
    return "(" + ",".join(str(x) for x in q) + ")"


def fmt4(x: float) -> str:
    """4 decimal places, half-even, dot separator; a value that rounds to zero prints 0.0000."""
    # up to 309 digits before the point, as many as a double can have
    d = Decimal(repr(float(x))).quantize(Decimal("0.0001"), ROUND_HALF_EVEN, Context(prec=320))
    return str(abs(d) if d.is_zero() else d)
