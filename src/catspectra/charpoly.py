"""Exact characteristic polynomials for the caterpillar quotient matrix.

The (2k-1) x (2k-1) symmetric quotient matrix C(q_1, ..., q_k) alternates leg
slots (diagonal q_i^+ - 1, tied to the neighbouring spine-edge slots with
weight sqrt(q_i)) and spine-edge slots (diagonal 0, consecutive ones tied with
weight 1).  A leg slot with q_i = 0 is an all-zero row; deleting those b slots
leaves the pruned matrix C'.  One three-term prefix recurrence computes
det(xI - C') over whatever ring x lives in.  Let A_i = det(xI - C'(q_1..q_i))
and let B_i be the same determinant with the spine-edge slot e_i of edge
(i, i+1) appended.  Schwenk's vertex expansion ("Computing the characteristic
polynomial of a graph", LNM 406, 1974) at the last slot gives, with
d_i = q_i - 1, A_0 = 0 and B_0 = 1, for a positive leg

    A_i = (x - d_i) B_{i-1} - q_i A_{i-1}
    B_i = x A_i - q_i B_{i-1} - (x - d_i + 2 q_i) A_{i-1}

where the 2 q_i term is the triangle (e_{i-1}, leg_i, e_i) of weight q_i, the
only cycle through a spine-edge slot.  A zero leg has no slot in C', so
A_i = B_{i-1} and e_i, tied only to e_{i-1}, gives B_i = x B_{i-1} - A_{i-1}:
exactly the factor x the zero row would contribute is left out.  C has odd
order, so with x = lambda over the integer polynomials
p = det(C - lambda I) = -lambda^b A_k, and with x = mu - 2 the same loop
gives the factor of the Laplacian polynomial whose roots are the pruned
eigenvalues plus 2.  The value and derivative of p at -2 come from a
separately derived scalar suffix recursion, which thereby cross-checks the
polynomial.

The full Laplacian characteristic polynomial of the tree is assembled from
that factor: the line-graph adjacency spectrum is {-1 with multiplicity a}
together with the spectrum of C', so det(mu I - L) = -mu (mu-1)^a
p(mu-2) / (mu-2)^b, with a and b the counts of `CaterpillarSpec`, and the
Laplacian spectrum is {0}, {1 with multiplicity a} and the spectrum of C'
plus 2, which `laplacian_spectrum` counts out of the same recurrence.
Everything is exact integer (or Fraction) arithmetic, except the float
counts and determinants that steer the spectrum's search.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import comb, inf, isfinite, nextafter, sqrt
from typing import TYPE_CHECKING

from .model import (CaterpillarSpec, LegTooLarge, OrderTooLarge, _inertia, bisect_doubles,
                    laplacian_count, nearest_double, require_double_legs)

if TYPE_CHECKING:
    import numpy as np


class IndexOutOfRange(IndexError):
    """Deletion index outside 1..k-1."""


# laplacian_charpoly's cap on the size of its output: the n + 1 coefficients run to
# about n bits each, about 1 MB of decimal digits at n = 2048
MAX_LAPLACIAN_ORDER = 2048

# laplacian_spectrum's cap on the order of the pruned C', where it takes about 10 s
MAX_SPECTRUM_ORDER = 599


# ---------------------------------------------------------------------------
# integer polynomials, ascending coefficient order
# ---------------------------------------------------------------------------

def _norm(coeffs) -> tuple[int, ...]:
    c = list(coeffs)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return tuple(c) if c else (0,)


@dataclass(frozen=True)
class IntPolynomial:
    """Univariate polynomial with arbitrary-precision integer coefficients."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _norm(self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return self.coeffs == (0,)

    def __add__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial((self.coeffs[0] + other,) + self.coeffs[1:])
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPolynomial(tuple(x + y for x, y in zip(a, b)) + a[len(b):])

    def __sub__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial((self.coeffs[0] - other,) + self.coeffs[1:])
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return IntPolynomial(tuple(x - y for x, y in pairs))

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(tuple(c * other for c in self.coeffs))
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            if ci:
                for j, cj in enumerate(other.coeffs):
                    out[i + j] += ci * cj
        return IntPolynomial(tuple(out))

    __rmul__ = __mul__

    def __call__(self, x):
        """Horner evaluation; x may be int, Fraction, float or a numpy array."""
        acc = 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def sign_at(self, x) -> int:
        """Exact sign of p(x) for a double, int or Fraction x.

        With x = n/d and d > 0, d^deg p(x) is a homogeneous integer Horner.
        """
        n, d = x.as_integer_ratio()
        acc, dpow = 0, 1
        for c in reversed(self.coeffs):
            acc = acc * n + c * dpow
            dpow *= d
        return (acc > 0) - (acc < 0)

    def deriv(self) -> "IntPolynomial":
        return IntPolynomial(tuple(i * c for i, c in enumerate(self.coeffs))[1:] or (0,))


POLY_X = IntPolynomial((0, 1))


# ---------------------------------------------------------------------------
# the quotient matrix in structural form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StructuredC:
    """Symmetric quotient matrix kept in exact structural form.

    diag holds the integer diagonal.  offdiag holds (i, j, w2) triples with
    i < j and entry sqrt(w2); w2 is q_i for a leg-to-spine-edge tie and 1 for
    a spine-edge-to-spine-edge tie.  slot_q tags each slot with its leg count
    (None for spine-edge slots), which is what distinguishes a q_i = 0 leg
    slot (prunable all-zero row) from an incidentally zero row.
    """

    dim: int
    diag: tuple[int, ...]
    offdiag: tuple[tuple[int, int, int], ...]
    slot_q: tuple[int | None, ...]

    def to_dense(self) -> np.ndarray:
        import numpy as np

        m = np.zeros((self.dim, self.dim))
        for i, d in enumerate(self.diag):
            m[i, i] = d
        for i, j, w2 in self.offdiag:
            m[i, j] = m[j, i] = sqrt(w2)
        return m


def build_C(spec: CaterpillarSpec) -> StructuredC:
    """The full (2k-1) x (2k-1) quotient matrix, zero rows included.

    Slot order (0-based): leg slot of spine vertex i at 2i-2, spine-edge slot
    of edge (i,i+1) at 2i-1.
    """
    q = spec.q
    k = spec.k
    qplus = [max(1, x) for x in q]
    dim = 2 * k - 1
    diag = [0] * dim
    slot_q: list[int | None] = [None] * dim
    for i in range(1, k + 1):
        diag[2 * i - 2] = qplus[i - 1] - 1
        slot_q[2 * i - 2] = q[i - 1]
    offdiag = []
    for i in range(1, k):          # leg slot i to spine edge (i,i+1)
        offdiag.append((2 * i - 2, 2 * i - 1, q[i - 1]))
    for i in range(2, k + 1):      # spine edge (i-1,i) to leg slot i
        offdiag.append((2 * i - 3, 2 * i - 2, q[i - 1]))
    for i in range(1, k - 1):      # consecutive spine edges
        offdiag.append((2 * i - 1, 2 * i + 1, 1))
    offdiag.sort()
    return StructuredC(dim=dim, diag=tuple(diag), offdiag=tuple(offdiag), slot_q=tuple(slot_q))


# ---------------------------------------------------------------------------
# det(C - lambda I) by the prefix recurrence
# ---------------------------------------------------------------------------

def _pruned_det(q: tuple[int, ...], x):
    """det(xI - C') for the pruned C' of the spine q, over the ring of x.

    The prefix recurrence of the module docstring, with a = A_i and b = B_i.
    """
    a, b = 0 * x, 0 * x + 1        # A_0 = 0 and B_0 = 1 in the ring of x
    for qi in q:
        if qi:
            x_d = x - (qi - 1)
            a_prev, a = a, x_d * b - qi * a
            b = x * a - qi * b - (x_d + 2 * qi) * a_prev
        else:
            a, b = b, x * b - a
    return a


def charpoly_p(spec: CaterpillarSpec) -> IntPolynomial:
    """Exact det(C - lambda I); degree 2k-1, leading coefficient -1.

    Each of the b zero rows of C contributes one factor lambda.
    """
    return -IntPolynomial((0,) * spec.b + _pruned_det(spec.q, POLY_X).coeffs)


def _p_scalar_suffixes(q: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """den[j] = p(q_j..q_k; -2) and num[j] = p'(q_j..q_k; -2) by the specialised
    sequential recursions (no polynomial objects involved, so this route is an
    independent cross-check of the prefix recurrence in `charpoly_p`).

    The alternating-sign middle sum is a suffix expansion of
    p(q_a..q_k; lambda) taken at lambda = -2, where each term's factor
    q_t (2 + lambda) - (q_t^+ - 1 - lambda) collapses to -(q_t^+ + 1).
    """
    k = len(q)
    qp = [0] + [max(1, x) for x in q]
    qq = [0] + list(q)
    den = [0] * (k + 2)
    num = [0] * (k + 2)
    den[k] = qp[k] + 1
    num[k] = -1
    for a in range(k - 1, 0, -1):
        head = 2 + 2 * qp[a] - qq[a]
        d = head * den[a + 1]
        nu = (-qp[a] - 3) * den[a + 1] + head * num[a + 1]
        prod = 1
        sign = 1                            # (-1)^(t-a) starting at t = a+1... sign of den term
        alive = True
        for t in range(a + 1, k):
            s_den = -sign                   # (-1)^(t-a)
            d += s_den * prod * (qp[a] + 1) * (qp[t] + 1) * den[t + 1]
            nu += sign * prod * ((qp[t] + 1) + (qq[t] + 1) * (qp[a] + 1)) * den[t + 1]
            nu += s_den * prod * (qp[a] + 1) * (qp[t] + 1) * num[t + 1]
            prod *= qq[t]
            if prod == 0:
                alive = False
                break
            sign = -sign
        if alive:
            prod *= qq[k]
            t_den = 1 if (k - a) % 2 == 0 else -1
            d += t_den * (qp[a] + 1) * prod
            nu += -t_den * prod
        den[a] = d
        num[a] = nu
    return den, num


def p_minus2(spec: CaterpillarSpec) -> int:
    """p(q_1,...,q_k; -2), always a positive integer (all eigenvalues of C exceed -2)."""
    return _p_scalar_suffixes(spec.q)[0][1]


def pprime_minus2(spec: CaterpillarSpec) -> int:
    """p'(q_1,...,q_k; -2), always negative."""
    return _p_scalar_suffixes(spec.q)[1][1]


# ---------------------------------------------------------------------------
# the Laplacian characteristic polynomial and spectrum
# ---------------------------------------------------------------------------

def shifted_pruned_charpoly(spec: CaterpillarSpec) -> IntPolynomial:
    """p(q; mu-2) / (mu-2)^b, whose roots are the eigenvalues of the pruned C plus 2.

    It is -det((mu-2)I - C'), the prefix recurrence run at x = mu - 2.
    """
    return -_pruned_det(spec.q, IntPolynomial((-2, 1)))


def laplacian_charpoly(spec: CaterpillarSpec) -> IntPolynomial:
    """Monic det(mu I - L(T)) = -mu (mu-1)^a [p(q; mu-2) / (mu-2)^b].

    (mu-1)^a is one binomial row, multiplied once by -mu times the shifted
    pruned factor of degree at most 2k - 1.  Trees on more than
    MAX_LAPLACIAN_ORDER vertices raise OrderTooLarge.
    """
    n, a = spec.n, spec.a
    if n > MAX_LAPLACIAN_ORDER:
        raise OrderTooLarge(f"the Laplacian characteristic polynomial has degree n = {n}, "
                            f"above the cap of {MAX_LAPLACIAN_ORDER}")
    binomial = IntPolynomial(tuple((-1) ** (a - j) * comb(a, j) for j in range(a + 1)))
    out = IntPolynomial((0, -1)) * shifted_pruned_charpoly(spec) * binomial
    assert out.degree == n and out.coeffs[-1] == 1, "assembled charpoly is not monic of degree n"
    return out


def _above(q: tuple[int, ...], y: Fraction) -> int:
    """The number of eigenvalues of the pruned C' above a non-integer rational y.

    The recurrence's prefix values 1, A_1, B_1, ..., A_k (a zero leg adds only
    its B_i) are the leading principal minors of yI - C', whose sign changes
    count its negative eigenvalues (Sylvester's law of inertia; Barth, Martin
    and Wilkinson, Numer. Math. 9, 1967).  Each is a monic integer polynomial
    in y, so none vanishes, and at y = n/d each is scaled by d^(its order) to
    stay an integer.
    """
    n, d = y.as_integer_ratio()
    dd = d * d
    a, b, changes = 0, 1, 0
    for qi in q:
        if qi:
            y_d = n - (qi - 1) * d
            a_prev, a = a, y_d * b - qi * dd * a
            changes += (a < 0) != (b < 0)
            b_next = n * a - qi * dd * b - (y_d + 2 * qi * d) * dd * a_prev
        else:
            a, b_next = b, n * b - dd * a
        changes += (b_next < 0) != (a < 0)
        b = b_next
    return changes - ((b < 0) != (a < 0))      # B_k is no minor


def laplacian_spectrum(spec: CaterpillarSpec) -> list[tuple[float, int]]:
    """Laplacian spectrum as ascending (eigenvalue, multiplicity) pairs, (0.0, 1) first.

    Each value is the double nearest its eigenvalues, ties to the lower, and
    its multiplicity is exact: how many eigenvalues that double is nearest.
    They are found in ascending order.  The exact count at 1 places the
    block at 1.  Any other eigenvalue is split off by the float count
    `_inertia` on (0, twice the largest degree]; once alone it is narrowed
    to adjacent doubles on the sign of the float det((x - 2)I - C'), and a
    cluster is split down to adjacent doubles.  `nearest_double` confirms
    the nearer double, and the multiplicity, with the exact count `_above`.
    Raises LegTooLarge for legs above about 4.4e307 and OrderTooLarge
    for a pruned C' above MAX_SPECTRUM_ORDER.
    """
    require_double_legs(spec)
    order = 2 * spec.k - 1 - spec.b
    if order > MAX_SPECTRUM_ORDER:
        raise OrderTooLarge(f"the pruned quotient matrix has order {order}, "
                            f"above the spectrum's cap of {MAX_SPECTRUM_ORDER}")
    top = 2.0 * (float(max(spec.q)) + 2.0)      # twice the largest degree bounds the spectrum
    if 2.0 * top == inf:                        # the bisections add two points below it
        raise LegTooLarge("four times the largest leg count has no double value")
    below_one, ones = laplacian_count(spec, 1)

    def count(x: float) -> int:         # eigenvalues at most x, by the float count
        return sum(_inertia(spec, x))

    def at_most(x: Fraction) -> int:    # the same, exact
        if x.denominator == 1:
            return sum(laplacian_count(spec, x))
        return 1 + (spec.a if x > 1 else 0) + order - _above(spec.q, x - 2)

    pairs, rank, lo = [(0.0, 1)], 2, 0.0
    uppers = [(top, spec.n)]    # float-counted points above the eigenvalues left, nearest last
    while rank <= spec.n:
        if rank == below_one + 1 and ones:
            lo, hi = nextafter(1.0, -inf), 1.0
        else:
            while uppers[-1][1] < rank or uppers[-1][0] <= lo:
                uppers.pop()
            hi = uppers[-1][0]
            while uppers[-1][1] > rank and lo < (mid := (lo + hi) / 2.0) < hi:
                c = count(mid)
                if c >= rank:
                    uppers.append((mid, c))
                    hi = mid
                else:
                    lo = mid
            if uppers[-1][1] == rank:   # alone in (lo, hi]: narrowed on the sign of the det,
                # (-1)^(eigenvalues of C' + 2 above x) just above the eigenvalue
                even = (order - rank + 1 + (spec.a if lo > 1 else 0)) % 2 == 0
                a, b = bisect_doubles(lambda x: (_pruned_det(spec.q, x - 2.0) > 0) == even, lo, hi)
                if isfinite(_pruned_det(spec.q, b - 2.0)):     # unless the float det overflowed
                    lo, hi = a, b
            lo, hi = bisect_doubles(lambda x: count(x) >= rank, lo, hi)
        v, upto = nearest_double(at_most, rank, lo, hi)
        pairs.append((v, upto - rank + 1))
        rank, lo = upto + 1, nextafter(v, inf)
    return pairs
