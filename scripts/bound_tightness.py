#!/usr/bin/env python3
"""Measure how tight the three bounds are on random caterpillars.

Samples seed-fixed random specs, computes the bounds report for each and
summarises the relative gaps (bound vs the true algebraic connectivity),
plus how often the pair bound beats the trace bound.  A per-spec CSV dump is
available with --dump.

Usage:
    python3 scripts/bound_tightness.py [--count 200] [--kmax 8] [--qmax 6]
                                       [--seed 7] [--dump FILE]
"""

import argparse
import sys

from catspectra.bounds import bounds_report
from catspectra.model import fmt4, q_label, random_specs


def summarise(name: str, ratios: list[float]) -> str:
    ratios = sorted(ratios)
    mean = sum(ratios) / len(ratios)
    median = ratios[len(ratios) // 2]
    return (f"  {name:<22} mean {mean:7.4f}   median {median:7.4f}   "
            f"min {ratios[0]:7.4f}   max {ratios[-1]:7.4f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=200)
    ap.add_argument("--kmax", type=int, default=8)
    ap.add_argument("--qmax", type=int, default=6)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--dump", default=None, help="write a per-spec CSV")
    args = ap.parse_args(argv)

    specs = [s for s in random_specs(args.count, args.kmax, args.qmax, args.seed) if s.k >= 2]
    lb_ratio = []          # lb / mu, in (0, 1]
    ubt_ratio = []         # ub_trace / mu, >= 1
    ubc_ratio = []         # ub_cardano / mu, >= 1
    cardano_wins = 0
    rows = ["q;n;mu;lb;ub_trace;ub_cardano;lb_over_mu;ub_trace_over_mu;ub_cardano_over_mu"]
    for spec in specs:
        rep = bounds_report(spec)
        lb, ubt, ubc = float(rep.lb_trace), float(rep.ub_trace), rep.ub_cardano
        lb_ratio.append(lb / rep.mu)
        ubt_ratio.append(ubt / rep.mu)
        ubc_ratio.append(ubc / rep.mu)
        cardano_wins += ubc < ubt
        rows.append(";".join([
            q_label(spec.q), str(spec.n), fmt4(rep.mu), fmt4(lb),
            fmt4(ubt), fmt4(ubc), fmt4(lb / rep.mu), fmt4(ubt / rep.mu), fmt4(ubc / rep.mu),
        ]))

    print(f"{len(specs)} specs with k >= 2 "
          f"(count {args.count}, kmax {args.kmax}, qmax {args.qmax}, seed {args.seed})")
    print(summarise("lb_trace / mu", lb_ratio))
    print(summarise("ub_trace / mu", ubt_ratio))
    print(summarise("ub_cardano / mu", ubc_ratio))
    print(f"  pair bound below trace bound on {cardano_wins}/{len(specs)} specs")

    if args.dump:
        with open(args.dump, "w") as fh:
            fh.write("\n".join(rows) + "\n")
        print(f"per-spec table written to {args.dump}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
