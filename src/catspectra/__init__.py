"""Spectra and algebraic-connectivity bounds for caterpillar trees.

A caterpillar T(q_1, ..., q_k) is a spine path on k vertices with q_i pendant
legs at spine vertex i.  The package computes Laplacian / signless-Laplacian
spectra and characteristic polynomials exactly through the line-graph
quotient matrix C(q_1, ..., q_k), certified lower and upper bounds on the
algebraic connectivity, and cross-checks everything against brute-force
oracles (LAPACK's dense eigensolver, fraction-free integer determinants).

The names below are the public API.  The oracles, the structural form of C
and the graph builders stay importable from `oracle`, `charpoly` and
`graphs`; the invariant suite is `catspectra.verify`.
"""

from .bounds import (BoundsReport, CardanoBound, CubicSolution, TraceBounds,
                     bounds_report, bounds_trace, cardano_roots, trace_inv,
                     trace_inv_deleted, ub_cardano)
from .charpoly import (IndexOutOfRange, IntPolynomial, charpoly_p, laplacian_charpoly,
                       laplacian_spectrum, p_minus2, pprime_minus2)
from .graphs import SpecTooSmall
from .model import (CaterpillarSpec, EmptySpec, LegTooLarge, NegativeLegCount,
                    OrderTooLarge, validate_spec)
from .oracle import NonConvergence

__all__ = [
    "BoundsReport", "CardanoBound", "CaterpillarSpec", "CubicSolution",
    "EmptySpec", "IndexOutOfRange", "IntPolynomial", "LegTooLarge",
    "NegativeLegCount", "NonConvergence", "OrderTooLarge",
    "SpecTooSmall", "TraceBounds", "bounds_report", "bounds_trace",
    "cardano_roots", "charpoly_p", "laplacian_charpoly", "laplacian_spectrum",
    "p_minus2", "pprime_minus2", "trace_inv", "trace_inv_deleted",
    "ub_cardano", "validate_spec",
]

__version__ = "0.1.0"
