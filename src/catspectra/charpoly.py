"""Exact characteristic polynomials for the caterpillar quotient matrix.

The (2k-1) x (2k-1) symmetric quotient matrix C(q_1, ..., q_k) alternates leg
slots (diagonal q_i^+ - 1, tied to the neighbouring spine-edge slots with
weight sqrt(q_i)) and spine-edge slots (diagonal 0, consecutive ones tied with
weight 1).  Its characteristic polynomial p(q_1, ..., q_k; lambda) =
det(C - lambda I) is computed exactly over the integers by a three-term prefix
recurrence.  Let A_i = det(xI - C(q_1..q_i)) and let B_i be the same
determinant with the spine-edge slot e_i of edge (i, i+1) appended.  Schwenk's
vertex expansion ("Computing the characteristic polynomial of a graph", LNM
406, 1974) at the last slot gives, with d_i = q_i^+ - 1, A_0 = 0 and B_0 = 1,

    A_i = (x - d_i) B_{i-1} - q_i A_{i-1}
    B_i = x A_i - q_i B_{i-1} - (x - d_i + 2 q_i) A_{i-1}

where the 2 q_i term is the triangle (e_{i-1}, leg_i, e_i) of weight q_i, the
only cycle through a spine-edge slot; C has odd order, so p = -A_k.  The value
and derivative of p at -2 come from a separately derived scalar suffix
recursion, which thereby cross-checks the polynomial.

The full Laplacian characteristic polynomial of the tree is assembled from p:
the line-graph adjacency spectrum is {-1 with multiplicity a} together
with the spectrum of C after deleting its b all-zero rows, and the Laplacian
spectrum is that shifted by +2, together with the eigenvalue 0.

Everything in this module is arbitrary-precision integer (or Fraction)
arithmetic; floating point only appears when a spectrum is requested.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

import numpy as np

from .model import CaterpillarSpec, derive_params, validate_spec

# exact rational values (inverse traces and the like) are plain Fractions
Rational = Fraction


class InexactDivision(ArithmeticError):
    """Polynomial division that must be exact left a remainder (implementation bug)."""


class IndexOutOfRange(IndexError):
    """Deletion index outside 1..k-1."""


class OrderTooLarge(ValueError):
    """The tree has more vertices than MAX_LAPLACIAN_ORDER."""


# laplacian_charpoly's (mu - 1)^a product is O(n^2): 1.4 s at n = 2010 (2-vCPU Xeon VM)
MAX_LAPLACIAN_ORDER = 2048


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

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPolynomial(tuple(x + y for x, y in zip(a, b)) + a[len(b):])

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

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

    def deriv(self) -> "IntPolynomial":
        return IntPolynomial(tuple(i * c for i, c in enumerate(self.coeffs))[1:] or (0,))

    def shift(self, h: int) -> "IntPolynomial":
        """p(x + h), by Horner over polynomials."""
        acc = IntPolynomial((0,))
        lin = IntPolynomial((h, 1))
        for c in reversed(self.coeffs):
            acc = acc * lin + IntPolynomial((c,))
        return acc

    def divmod_linear(self, root: int) -> tuple["IntPolynomial", int]:
        """Synthetic division by (x - root): returns (quotient, remainder)."""
        acc = 0
        out = []
        for c in reversed(self.coeffs):
            acc = acc * root + c
            out.append(acc)
        rem = out.pop()
        if not out:
            return IntPolynomial((0,)), rem
        return IntPolynomial(tuple(reversed(out))), rem


POLY_X = IntPolynomial((0, 1))
POLY_ONE = IntPolynomial((1,))


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


def prune_zero(c: StructuredC) -> StructuredC:
    """Delete the all-zero rows and columns (the leg slots with q_i = 0)."""
    keep = [s for s in range(c.dim) if c.slot_q[s] != 0]
    remap = {s: t for t, s in enumerate(keep)}
    offdiag = tuple(
        (remap[i], remap[j], w2) for i, j, w2 in c.offdiag if i in remap and j in remap
    )
    return StructuredC(
        dim=len(keep),
        diag=tuple(c.diag[s] for s in keep),
        offdiag=offdiag,
        slot_q=tuple(c.slot_q[s] for s in keep),
    )


def deleted_C(spec: CaterpillarSpec, i: int) -> StructuredC:
    """Delete the 2i-th row and column of C: the direct sum C(q_1..q_i) + C(q_{i+1}..q_k)."""
    if not 1 <= i <= spec.k - 1:
        raise IndexOutOfRange(f"deletion index {i} outside 1..{spec.k - 1}")
    left = build_C(validate_spec(spec.q[:i]))
    right = build_C(validate_spec(spec.q[i:]))
    off = left.dim
    return StructuredC(
        dim=left.dim + right.dim,
        diag=left.diag + right.diag,
        offdiag=left.offdiag + tuple((a + off, b + off, w2) for a, b, w2 in right.offdiag),
        slot_q=left.slot_q + right.slot_q,
    )


# ---------------------------------------------------------------------------
# det(C - lambda I) by the prefix recurrence
# ---------------------------------------------------------------------------

def charpoly_p(spec: CaterpillarSpec) -> IntPolynomial:
    """Exact det(C - lambda I); degree 2k-1, leading coefficient -1.

    The prefix recurrence of the module docstring, with a = A_i and b = B_i.
    """
    a, b = IntPolynomial((0,)), POLY_ONE
    for q in spec.q:
        d = max(q - 1, 0)
        a_prev = a
        a = IntPolynomial((-d, 1)) * b - q * a_prev
        b = POLY_X * a - q * b - IntPolynomial((2 * q - d, 1)) * a_prev
    return -a


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

    The division is exact: each deleted zero row of C contributes one (mu-2)
    factor.
    """
    b = derive_params(spec).b
    poly = charpoly_p(spec).shift(-2)          # p(q; mu - 2)
    for _ in range(b):
        poly, rem = poly.divmod_linear(2)
        if rem != 0:
            raise InexactDivision(f"(mu-2)^{b} does not divide the shifted polynomial for {spec.q}")
    return poly


def laplacian_charpoly(spec: CaterpillarSpec) -> IntPolynomial:
    """Monic det(mu I - L(T)) assembled from the quotient polynomial.

    The nonzero Laplacian eigenvalues are the line-graph adjacency eigenvalues
    plus 2, so det(mu I - L) = -mu (mu-1)^a [p(q; mu-2) / (mu-2)^b].
    Trees on more than MAX_LAPLACIAN_ORDER vertices raise OrderTooLarge.
    """
    d = derive_params(spec)
    if d.n > MAX_LAPLACIAN_ORDER:
        raise OrderTooLarge(f"the Laplacian characteristic polynomial has degree n = {d.n}, "
                            f"above the cap of {MAX_LAPLACIAN_ORDER}")
    out = IntPolynomial((0, -1)) * shifted_pruned_charpoly(spec)     # -mu * (...)
    mu_minus_1 = IntPolynomial((-1, 1))
    for _ in range(d.a):
        out = out * mu_minus_1
    assert out.degree == d.n and out.coeffs[-1] == 1, "assembled charpoly is not monic of degree n"
    return out


def as_multiset(pairs, tol: float = 1e-9) -> list[tuple[float, int]]:
    """Sort (value, multiplicity) pairs; merge values within tol of a group's first value."""
    out: list[list] = []
    for v, m in sorted(pairs, key=lambda pair: pair[0]):
        if out and abs(v - out[-1][0]) <= tol:
            out[-1][1] += m
        else:
            out.append([v, m])
    return [(v, m) for v, m in out]


def laplacian_spectrum(spec: CaterpillarSpec) -> list[tuple[float, int]]:
    """Laplacian spectrum as (eigenvalue, multiplicity) pairs.

    {0} union {1 with multiplicity a, one pair} union (spectrum of the pruned C, + 2).
    """
    from .oracle import sym_eigs   # deferred: oracle imports this module's types

    d = derive_params(spec)
    pruned = prune_zero(build_C(spec))
    pairs = [(0.0, 1)] + ([(1.0, d.a)] if d.a else [])
    if pruned.dim:
        pairs.extend((float(v) + 2.0, 1) for v in sym_eigs(pruned.to_dense()).values)
    return as_multiset(pairs)
