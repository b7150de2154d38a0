"""Caterpillar specifications and derived counting parameters.

A caterpillar T(q_1, ..., q_k) is the tree obtained from a path on k spine
vertices by attaching q_i pendant legs to the i-th spine vertex.  Everything
downstream (quotient matrices, polynomial recursions, bounds) is driven by the
leg-count vector q and a handful of integers derived from it, which the
report formatters q_label and fmt4 below share with the CLI and `verify`.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal
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

    canonical is True when the tree is a caterpillar in the strict sense
    (k >= 2 spine vertices and order n >= 5); degenerate specs (stars, bare
    paths) are still accepted because the polynomial machinery is defined for
    them and they make good oracle test cases.
    """

    q: tuple[int, ...]
    canonical: bool

    @property
    def k(self) -> int:
        return len(self.q)


@dataclass(frozen=True)
class DerivedParams:
    delta: tuple[int, ...]   # delta[i] = 1 iff q[i] > 0
    qplus: tuple[int, ...]   # qplus[i] = max(1, q[i]), so qplus[i]-1 = max(0, q[i]-1)
    n: int                   # tree order, sum(q) + k
    a: int                   # sum(q[i] - delta[i]); multiplicity of -1 in the line-graph spectrum
    b: int                   # k - sum(delta); number of leg slots of C that are identically zero
    dim_c: int               # 2k - 1, order of the quotient matrix C


def validate_spec(q: Sequence[int]) -> CaterpillarSpec:
    """Check a leg-count vector and tag whether it is a canonical caterpillar."""
    qt = tuple(int(x) for x in q)
    if len(qt) == 0:
        raise EmptySpec("need at least one spine vertex")
    if any(x < 0 for x in qt):
        raise NegativeLegCount(f"leg counts must be >= 0, got {qt}")
    k = len(qt)
    n = sum(qt) + k
    return CaterpillarSpec(q=qt, canonical=(k >= 2 and n >= 5))


def require_double_legs(spec: CaterpillarSpec) -> None:
    """Raise LegTooLarge unless every leg count converts to a double (below about 2^1024)."""
    try:
        float(max(spec.q))
    except OverflowError:
        raise LegTooLarge(f"a leg count of {max(spec.q).bit_length()} bits has no double value, "
                          f"and this route computes in doubles") from None


def derive_params(spec: CaterpillarSpec) -> DerivedParams:
    q = spec.q
    k = len(q)
    delta = tuple(1 if x > 0 else 0 for x in q)
    qplus = tuple(max(1, x) for x in q)
    n = sum(q) + k
    a = sum(x - d for x, d in zip(q, delta))
    b = k - sum(delta)
    return DerivedParams(delta=delta, qplus=qplus, n=n, a=a, b=b, dim_c=2 * k - 1)


def q_label(q) -> str:
    """The leg counts as the published tables print them, e.g. (4,9,0,1)."""
    return "(" + ",".join(str(x) for x in q) + ")"


def fmt4(x: float) -> str:
    """4 decimal places, half-even, dot separator; a value that rounds to zero prints 0.0000."""
    d = Decimal(repr(float(x))).quantize(Decimal("0.0001"), rounding=ROUND_HALF_EVEN)
    return str(abs(d) if d.is_zero() else d)
