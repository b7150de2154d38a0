"""Caterpillar specifications and the counts the paper's factorization uses.

A caterpillar T(q_1, ..., q_k) is the tree obtained from a path on k spine
vertices by attaching q_i pendant legs to the i-th spine vertex.  Everything
downstream (quotient matrices, polynomial recursions, bounds) is driven by the
leg-count vector q and the counts n, a and b read off it, here and nowhere
else.  The report formatters q_label and fmt4 below are shared by the CLI and
`verify`.
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

    @property
    def canonical(self) -> bool:
        """A caterpillar in the strict sense: k >= 2 and n >= 5.

        Degenerate specs (stars, bare paths) are still accepted because the
        polynomial machinery is defined for them and they make good oracle
        test cases.
        """
        return self.k >= 2 and self.n >= 5


def validate_spec(q: Sequence[int]) -> CaterpillarSpec:
    """Check a leg-count vector: at least one spine vertex, no negative count."""
    qt = tuple(int(x) for x in q)
    if len(qt) == 0:
        raise EmptySpec("need at least one spine vertex")
    if any(x < 0 for x in qt):
        raise NegativeLegCount(f"leg counts must be >= 0, got {qt}")
    return CaterpillarSpec(q=qt)


def require_double_legs(spec: CaterpillarSpec) -> None:
    """Raise LegTooLarge unless every leg count converts to a double (below about 2^1024)."""
    try:
        float(max(spec.q))
    except OverflowError:
        raise LegTooLarge(f"a leg count of {max(spec.q).bit_length()} bits has no double value, "
                          f"and this route computes in doubles") from None


def q_label(q) -> str:
    """The leg counts as the published tables print them, e.g. (4,9,0,1)."""
    return "(" + ",".join(str(x) for x in q) + ")"


def fmt4(x: float) -> str:
    """4 decimal places, half-even, dot separator; a value that rounds to zero prints 0.0000."""
    d = Decimal(repr(float(x))).quantize(Decimal("0.0001"), rounding=ROUND_HALF_EVEN)
    return str(abs(d) if d.is_zero() else d)
