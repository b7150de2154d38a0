"""The benchmark's workloads: seeded spec generators, the timed op of each, and
the output checks that run after the timed region.

Every op gets a distinct spec drawn from the workload's seed.  The spine
length k is stratified: each block of ops holds every k of the range once, in
a seeded order, and only the leg counts are drawn freely.  That keeps the mix
of small and large trees the same from seed to seed, so a run's medians move
with the code rather than with the draw.  A k whose specs are all used up
(k = 1 has only seven) leaves the blocks.

Why these three workloads:

* bounds_small_trees is the user-facing `bounds` command on trees of 10 to 60
  vertices.  Its cost is the dense Jacobi solve for mu on the tree Laplacian,
  so a faster or avoided `sym_eigs`/`mu_oracle` shows here and the exact
  recurrences barely do.
* exact_long_spine runs only the exact route (charpoly_p, p(-2), p'(-2), the
  trace bounds, the pair bound) on spines of 20 to 60 vertices without zero
  legs, which would cut the suffix recursions short.  No eigensolver runs, so
  a recurrence change shows here and a Jacobi change must not.
* verify_invariants is the `verify` command on the README's distribution.  It
  runs many small Jacobi solves on C and its deletions, Bareiss determinants,
  leaf elimination and min_root, and calls mu_oracle up to three times per
  spec, so its cache gets hits.  A change that helps only the `bounds` route
  shows its cost or its lack of benefit here.
"""

from __future__ import annotations

import io
import json
import random
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from catspectra import bounds, charpoly, cli, model, oracle
from catspectra.model import CaterpillarSpec

# Bound before tracing rebinds the module names: the cache handle of mu_oracle,
# and the spec constructor the generators use outside the timed region.
MU_ORACLE = oracle.mu_oracle
make_spec = model.validate_spec

# exact_long_spine runs the Bareiss determinant check on every BAREISS_EVERY-th op
BAREISS_EVERY = 8


@dataclass(frozen=True)
class Workload:
    name: str
    k_range: tuple[int, int]
    q_range: tuple[int, int]
    reference: tuple[int, ...]      # fixed spec of the warm-up and the set-up probe
    mu_min_k: int | None            # ops call mu_oracle on specs with k >= this; None: never
    op: Callable[[CaterpillarSpec], object]
    check: Callable[[int, CaterpillarSpec, object], str | None]

    def specs(self, seed: int) -> Iterator[CaterpillarSpec]:
        """Distinct specs, k stratified in blocks; the same seed gives the same sequence."""
        rng = random.Random(f"{self.name}/{seed}")
        klo, khi = self.k_range
        qlo, qhi = self.q_range
        seen: set[tuple[int, ...]] = set()
        used: Counter[int] = Counter()
        while True:
            ks = [k for k in range(klo, khi + 1) if used[k] < (qhi - qlo + 1) ** k]
            if not ks:
                raise RuntimeError(f"{self.name}: every spec of the distribution is used")
            rng.shuffle(ks)
            for k in ks:
                q = tuple(rng.randint(qlo, qhi) for _ in range(k))
                while q in seen:
                    q = tuple(rng.randint(qlo, qhi) for _ in range(k))
                seen.add(q)
                used[k] += 1
                yield make_spec(q)


def _q_arg(spec: CaterpillarSpec) -> str:
    return ",".join(str(x) for x in spec.q)


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _bareiss_p_minus2(spec: CaterpillarSpec) -> int:
    return oracle.exact_det(oracle.deradicalize(charpoly.build_C(spec)), -2)


def op_bounds(spec):
    return _cli(["bounds", "--q", _q_arg(spec), "--format", "json"])


def check_bounds(index, spec, result):
    rc, text = result
    if rc != 0:
        return f"exit code {rc}: {text.strip()}"
    rec = json.loads(text)
    if rec["q"] != list(spec.q):
        return f"record is for {rec['q']}"
    if rec["warnings"]:
        return "warnings: " + "; ".join(rec["warnings"])
    want = _bareiss_p_minus2(spec)
    if int(rec["exact"]["p_minus2"]) != want:
        return f"p_minus2 {rec['exact']['p_minus2']} != Bareiss {want}"
    return None


def op_exact(spec):
    return (charpoly.charpoly_p(spec), charpoly.p_minus2(spec), charpoly.pprime_minus2(spec),
            bounds.bounds_trace(spec), bounds.ub_cardano(spec))


def check_exact(index, spec, result):
    poly, pm2, ppm2, tb, cb = result
    if poly(-2) != pm2:
        return f"charpoly_p(-2) = {poly(-2)} != p_minus2 = {pm2}"
    if poly.deriv()(-2) != ppm2:
        return f"charpoly_p'(-2) = {poly.deriv()(-2)} != pprime_minus2 = {ppm2}"
    if tb.lb != Fraction(pm2, -ppm2):       # lb = 1 / trace_inv, trace_inv = -p'(-2) / p(-2)
        return f"lb {tb.lb} != 1/trace_inv {Fraction(pm2, -ppm2)}"
    if not (tb.ub is not None and tb.lb <= tb.ub and cb.value > 0):
        return f"bounds out of order: lb {tb.lb}, ub_trace {tb.ub}, ub_cardano {cb.value}"
    if index % BAREISS_EVERY == 0 and _bareiss_p_minus2(spec) != pm2:
        return f"p_minus2 {pm2} != Bareiss {_bareiss_p_minus2(spec)}"
    return None


def op_verify(spec):
    return _cli(["verify", "--q", _q_arg(spec)])


def check_verify(index, spec, result):
    rc, text = result
    if rc != 0:
        return f"exit code {rc}: {text.strip().splitlines()[-1] if text.strip() else ''}"
    return None


WORKLOADS = {w.name: w for w in (
    Workload("bounds_small_trees", (4, 12), (0, 6), (4, 9, 0, 1), 2, op_bounds, check_bounds),
    Workload("exact_long_spine", (20, 60), (1, 6), tuple(1 + i % 6 for i in range(40)), None,
             op_exact, check_exact),
    Workload("verify_invariants", (1, 8), (0, 6), (4, 9, 0, 1), 2, op_verify, check_verify),
)}
