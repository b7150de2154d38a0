"""Command-line front end.

Usage:
    catspectra spectrum --q 4,9,0,1 [--format text|json|csv]
    catspectra charpoly --q 4,9 --of C
    catspectra bounds --q 2,0,3,4,7
    catspectra verify [--q 4,9,0,1 | --random 200 --kmax 8 --qmax 6] [--seed 7] [--tol 1e-8]
    catspectra table --input specs.txt [--output out.csv] [--format csv|json]

`--q` takes comma-separated nonnegative leg counts (parentheses tolerated).
Batch files for `table` hold one spec per line, `#` comments allowed.

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 numerical
non-convergence.

Known reference values (the published six-row table and the worked example)
ship in REFERENCE_VALUES; `table` and `verify` compare recomputed numbers
against them.  Values the exact oracle confirms (mu, lb_trace, ub_trace) are
hard assertions; the pair-bound column is report-only because two of its
printed values are not reproducible from the stated formulas (see the
divergence notes the tool emits).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from decimal import ROUND_HALF_EVEN, Decimal
from fractions import Fraction

import numpy as np

from .bounds import (NoValidIndex, bounds_report, cardano_roots, trace_inv,
                     trace_inv_deleted)
from .charpoly import (build_C, charpoly_p, deleted_C, laplacian_charpoly,
                       laplacian_spectrum, p_minus2, pprime_minus2,
                       shifted_pruned_charpoly)
from .graphs import (SpecTooSmall, build_caterpillar, h_join, line_graph,
                     linegraph_as_hjoin, matrices)
from .model import CaterpillarSpec, derive_params, validate_spec
from .oracle import (NonConvergence, deradicalize, exact_det, min_root,
                     mu_oracle, sym_eigs)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_NONCONV = 3

# Published values: column order mu, ub_cardano, ub_trace, lb_trace.
# ub_trace_index marks values printed for one specific deletion index rather
# than the minimum over all of them.
REFERENCE_VALUES: dict[tuple[int, ...], dict] = {
    (4, 9, 0, 1): {"mu": 0.1862, "ub_cardano": 0.6045, "ub_trace": 0.2320,
                   "ub_trace_index": 2, "lb": 0.0942},
    (3, 2, 1, 0, 5, 4): {"mu": 0.0601, "ub_cardano": 0.2788, "ub_trace": 0.0658, "lb": 0.0372},
    (2, 0, 3, 4, 7): {"mu": 0.0893, "ub_cardano": 0.2536, "ub_trace": 0.1056, "lb": 0.0514},
    (3, 5, 0, 0, 9, 10): {"mu": 0.0398, "ub_cardano": 0.3087, "ub_trace": 0.0423, "lb": 0.0270},
    (9, 5, 5, 4, 2, 0, 3): {"mu": 0.0407, "ub_cardano": 0.2157, "ub_trace": 0.0500, "lb": 0.0290},
    (5, 0, 5, 0, 5, 0, 5, 0, 5): {"mu": 0.0285, "ub_cardano": 1.0000, "ub_trace": 0.0346, "lb": 0.0167},
    (3, 9, 10, 0, 5, 0, 4, 2, 0, 7): {"mu": 0.0173, "ub_cardano": 0.1624, "ub_trace": 0.0201, "lb": 0.0108},
}


def fmt4(x: float) -> str:
    """4 decimal places, half-even, dot separator."""
    return str(Decimal(repr(float(x))).quantize(Decimal("0.0001"), rounding=ROUND_HALF_EVEN))


def parse_q(text: str) -> CaterpillarSpec:
    cleaned = text.strip().strip("()")
    try:
        q = tuple(int(part) for part in cleaned.split(","))
    except ValueError:
        raise ValueError(f"cannot parse leg counts from {text!r}") from None
    return validate_spec(q)


def q_label(q) -> str:
    return "(" + ",".join(str(x) for x in q) + ")"


# ---------------------------------------------------------------------------
# records (the single source for every output format)
# ---------------------------------------------------------------------------

def spectrum_record(spec: CaterpillarSpec) -> dict:
    d = derive_params(spec)
    lap = laplacian_spectrum(spec)
    line = [(v - 2.0, m) for v, m in lap if abs(v) > 1e-9]
    return {
        "kind": "spectrum",
        "q": list(spec.q),
        "n": d.n,
        "laplacian": [[float(v), int(m)] for v, m in lap],
        "linegraph": [[float(v), int(m)] for v, m in line],
        "warnings": [],
    }


def charpoly_record(spec: CaterpillarSpec, of: str) -> dict:
    poly = charpoly_p(spec) if of == "C" else laplacian_charpoly(spec)
    return {
        "kind": "charpoly",
        "q": list(spec.q),
        "of": of,
        "coeffs": [str(c) for c in poly.coeffs],
        "warnings": [],
    }


def bounds_record(spec: CaterpillarSpec) -> dict:
    rep = bounds_report(spec)
    return {
        "kind": "bounds",
        "q": list(spec.q),
        "mu": rep.mu,
        "bounds": {
            "lb": float(rep.lb_trace),
            "ub_trace": float(rep.ub_trace),
            "ub_trace_index": rep.ub_trace_index,
            "ub_cardano": rep.ub_cardano,
            "ub_cardano_index": rep.ub_cardano_index,
            "paper_valid": rep.paper_valid,
        },
        "exact": {
            "trace_inv": f"{-rep.pprime_minus2}/{rep.p_minus2}",   # unreduced -p'/p, table style
            "p_minus2": str(rep.p_minus2),
            "pprime_minus2": str(rep.pprime_minus2),
        },
        "warnings": list(rep.warnings),
    }


# ---------------------------------------------------------------------------
# renderers
# ---------------------------------------------------------------------------

def render_text(rec: dict) -> str:
    kind = rec["kind"]
    q = q_label(rec["q"])
    out = []
    if kind == "spectrum":
        out.append(f"T{q}: n={rec['n']}")
        lap = ", ".join(f"{fmt4(v)}^{m}" for v, m in rec["laplacian"])
        out.append(f"Laplacian spectrum: {lap}")
        if rec["linegraph"]:
            line = ", ".join(f"{fmt4(v)}^{m}" for v, m in rec["linegraph"])
            out.append(f"line-graph adjacency spectrum: {line}")
            out.append("nonzero Laplacian eigenvalues are the line-graph eigenvalues + 2")
        else:
            out.append("line-graph adjacency spectrum: (no edges)")
    elif kind == "charpoly":
        out.append(f"T{q}: characteristic polynomial of {rec['of']}, ascending coefficients")
        out.append("[" + ", ".join(rec["coeffs"]) + "]")
    elif kind == "bounds":
        b = rec["bounds"]
        ti = Fraction(rec["exact"]["trace_inv"])
        out.append(f"T{q}:")
        out.append(f"  mu         = {fmt4(rec['mu'])}")
        out.append(f"  lb_trace   = {fmt4(b['lb'])}  (exact {1 / ti})")
        out.append(f"  ub_trace   = {fmt4(b['ub_trace'])}  at i={b['ub_trace_index']}")
        validity = "holds" if b["paper_valid"] else "outside stated range (k >= 4, q1 != 0 != qk)"
        out.append(f"  ub_cardano = {fmt4(b['ub_cardano'])}  at j={b['ub_cardano_index']}  [{validity}]")
        out.append(f"  trace_inv  = {rec['exact']['trace_inv']} = {fmt4(float(ti))}")
    for w in rec["warnings"]:
        out.append(f"  warning: {w}")
    return "\n".join(out)


def render_json(rec_or_rows) -> str:
    return json.dumps(rec_or_rows, indent=2)


CSV_HEADER = "q;mu;ub_cardano;ub_trace;lb_trace;flags"


def csv_row(rec: dict, flags: list[str]) -> str:
    b = rec["bounds"]
    cells = [
        q_label(rec["q"]),
        fmt4(rec["mu"]),
        fmt4(b["ub_cardano"]),
        fmt4(b["ub_trace"]),
        fmt4(b["lb"]),
        ",".join(flags),
    ]
    return ";".join(cells)


def render_csv(rec: dict) -> str:
    if rec["kind"] == "bounds":
        return CSV_HEADER + "\n" + csv_row(rec, list(rec["warnings"]))
    if rec["kind"] == "spectrum":
        rows = ["q;matrix;eigenvalue;multiplicity"]
        rows += [f"{q_label(rec['q'])};L;{fmt4(v)};{m}" for v, m in rec["laplacian"]]
        rows += [f"{q_label(rec['q'])};lineA;{fmt4(v)};{m}" for v, m in rec["linegraph"]]
        return "\n".join(rows)
    rows = ["q;of;coeffs"]
    rows.append(f"{q_label(rec['q'])};{rec['of']};{' '.join(rec['coeffs'])}")
    return "\n".join(rows)


def emit(rec: dict, fmt: str) -> str:
    if fmt == "json":
        return render_json(rec)
    if fmt == "csv":
        return render_csv(rec)
    return render_text(rec)


# ---------------------------------------------------------------------------
# reference comparison (table, verify)
# ---------------------------------------------------------------------------

def compare_reference(spec: CaterpillarSpec, rec: dict, tol: float = 1e-3):
    """Returns (hard_failures, notes) against the published values, if any."""
    ref = REFERENCE_VALUES.get(spec.q)
    if ref is None:
        return [], []
    hard: list[str] = []
    notes: list[str] = []
    b = rec["bounds"]

    def check(name: str, got: float, want: float, is_hard: bool):
        if abs(got - want) <= tol:
            return
        msg = f"{name}: published {fmt4(want)}, computed {fmt4(got)}"
        (hard if is_hard else notes).append(msg)

    check("mu", rec["mu"], ref["mu"], True)
    check("lb_trace", b["lb"], ref["lb"], True)
    idx = ref.get("ub_trace_index")
    if idx is None:
        check("ub_trace", b["ub_trace"], ref["ub_trace"], True)
    else:
        term = float(1 / (Fraction(rec["exact"]["trace_inv"]) - trace_inv_deleted(spec, idx)))
        check(f"ub_trace(i={idx} term)", term, ref["ub_trace"], True)
        if abs(b["ub_trace"] - ref["ub_trace"]) > tol:
            notes.append(
                f"ub_trace: published {fmt4(ref['ub_trace'])} is the i={idx} term; "
                f"the minimum over i is {fmt4(b['ub_trace'])} at i={b['ub_trace_index']}"
            )
    check("ub_cardano", b["ub_cardano"], ref["ub_cardano"], False)
    return hard, notes


# ---------------------------------------------------------------------------
# verify: named invariant checks
# ---------------------------------------------------------------------------

def _eig(mat) -> np.ndarray:
    return sym_eigs(np.asarray(mat, dtype=float)).values


def _ck_charpoly_vs_det(spec, tol):
    poly = charpoly_p(spec)
    b = deradicalize(build_C(spec))
    for t in range(-3, -3 + 2 * spec.k):
        if exact_det(b, t) != poly(t):
            return f"charpoly_p disagrees with integer determinant at t={t}"
    return None


def _ck_scalar_vs_poly(spec, tol):
    poly = charpoly_p(spec)
    if p_minus2(spec) != poly(-2):
        return "p_minus2 disagrees with the polynomial at -2"
    if pprime_minus2(spec) != poly.deriv()(-2):
        return "pprime_minus2 disagrees with the derivative at -2"
    if not p_minus2(spec) > 0:
        return "p(-2) not positive"
    if not pprime_minus2(spec) < 0:
        return "p'(-2) not negative"
    return None


def _ck_laplacian_charpoly(spec, tol):
    poly = laplacian_charpoly(spec)
    g = build_caterpillar(spec)
    from .oracle import lap_charpoly_eval

    n = derive_params(spec).n
    for t in range(0, n + 1):
        if lap_charpoly_eval(g, t) != poly(t):
            return f"laplacian_charpoly disagrees with the tree determinant at t={t}"
    return None


def _ck_spectrum_shift(spec, tol):
    pairs = laplacian_spectrum(spec)
    vals = np.sort(np.concatenate([[v] * m for v, m in pairs]))
    dense = _eig(matrices(build_caterpillar(spec))["L"])
    if len(vals) != len(dense) or not np.allclose(vals, dense, atol=tol):
        return "assembled Laplacian spectrum disagrees with the dense eigensolve"
    return None


def _ck_trace_identity(spec, tol):
    dense = _eig(build_C(spec).to_dense())
    direct = float(np.sum(1.0 / (dense + 2.0)))
    if abs(direct - float(trace_inv(spec))) > tol:
        return f"trace_inv {float(trace_inv(spec)):.10g} vs eigenvalue sum {direct:.10g}"
    return None


def _ck_trace_deleted(spec, tol):
    for i in range(1, spec.k):
        dense = _eig(deleted_C(spec, i).to_dense())
        direct = float(np.sum(1.0 / (dense + 2.0)))
        if abs(direct - float(trace_inv_deleted(spec, i))) > tol:
            return f"trace_inv_deleted(i={i}) disagrees with the eigenvalue sum"
    return None


def _ck_interlacing(spec, tol):
    full = np.sort(_eig(build_C(spec).to_dense()))[::-1]
    for i in range(1, spec.k):
        sub = np.sort(_eig(deleted_C(spec, i).to_dense()))[::-1]
        for m in range(len(sub)):
            if not (full[m + 1] - tol <= sub[m] <= full[m] + tol):
                return f"interlacing fails at i={i}, position {m + 1}"
    return None


def _ck_cardano_pairs(spec, tol):
    for j in range(1, spec.k):
        q1, q2 = spec.q[j - 1], spec.q[j]
        got = sorted(cardano_roots(q1, q2).zetas)
        dense = _eig(build_C(validate_spec((q1, q2))).to_dense())
        if not np.allclose(got, dense, atol=max(tol, 1e-9)):
            return f"cardano_roots({q1},{q2}) disagrees with the dense eigensolve"
    return None


def _ck_sandwich(spec, tol):
    rep = bounds_report(spec)
    if rep.warnings:
        return "; ".join(rep.warnings)
    return None


def _ck_hjoin(spec, tol):
    h, family = linegraph_as_hjoin(spec)
    joined = h_join(h, family)
    lg = line_graph(build_caterpillar(spec))
    if joined.n != lg.n:
        return "H-join order mismatch"
    # the H-join enumerates legs of spine vertex 1, the spine edge (1,2),
    # legs of 2, ... ; map each to its position in the sorted edge list
    g = build_caterpillar(spec)
    order = []
    for i in range(1, spec.k + 1):
        order.extend(ei for ei, (u, w) in enumerate(g.edges) if u == i and w > spec.k)
        if i < spec.k:
            order.extend(ei for ei, (u, w) in enumerate(g.edges) if (u, w) == (i, i + 1))
    a_join = matrices(joined)["A"]
    a_lg = matrices(lg)["A"][np.ix_(order, order)]
    if not np.array_equal(a_join, a_lg):
        return "H-join adjacency disagrees with the line graph"
    return None


def _ck_mu_vs_minroot(spec, tol):
    root = min_root(shifted_pruned_charpoly(spec), 1e-9, 2.0 + 1e-6)
    if abs(root - mu_oracle(spec)) > max(tol, 1e-8):
        return f"min_root {root:.10g} vs oracle {mu_oracle(spec):.10g}"
    return None


# (name, minimum k, needs n >= 2, check)
INVARIANT_CHECKS = [
    ("charpoly_vs_integer_det", 1, False, _ck_charpoly_vs_det),
    ("scalar_vs_polynomial_at_-2", 1, False, _ck_scalar_vs_poly),
    ("laplacian_charpoly_vs_tree_det", 1, False, _ck_laplacian_charpoly),
    ("spectrum_shift_vs_dense", 1, False, _ck_spectrum_shift),
    ("trace_inverse_identity", 1, False, _ck_trace_identity),
    ("deleted_trace_identity", 2, False, _ck_trace_deleted),
    ("eigenvalue_interlacing", 2, False, _ck_interlacing),
    ("cardano_vs_dense", 2, False, _ck_cardano_pairs),
    ("bound_sandwich", 2, True, _ck_sandwich),
    ("hjoin_matches_line_graph", 2, False, _ck_hjoin),
    ("mu_vs_min_root", 2, True, _ck_mu_vs_minroot),
]


def run_verify(specs: list[CaterpillarSpec], tol: float) -> tuple[list[str], list[str]]:
    """Runs every applicable invariant on every spec; returns (failures, notes)."""
    failures: list[str] = []
    notes: list[str] = []
    for name, kmin, needs_n2, fn in INVARIANT_CHECKS:
        ran = 0
        for spec in specs:
            if spec.k < kmin or (needs_n2 and derive_params(spec).n < 2):
                continue
            ran += 1
            msg = fn(spec, tol)
            if msg:
                failures.append(f"FAIL {name} T{q_label(spec.q)}: {msg}")
        print(("PASS" if not any(f.split()[1] == name for f in failures) else "FAIL")
              + f" {name} ({ran} specs)")
    for spec in specs:
        if spec.k < 2:
            continue
        hard, soft = compare_reference(spec, bounds_record(spec))
        failures.extend(f"FAIL reference T{q_label(spec.q)}: {m}" for m in hard)
        notes.extend(f"note T{q_label(spec.q)}: {m}" for m in soft)
    return failures, notes


def random_specs(count: int, kmax: int, qmax: int, seed: int) -> list[CaterpillarSpec]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        k = rng.randint(1, kmax)
        out.append(validate_spec(tuple(rng.randint(0, qmax) for _ in range(k))))
    return out


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_spectrum(args) -> int:
    print(emit(spectrum_record(parse_q(args.q)), args.format))
    return EXIT_OK


def cmd_charpoly(args) -> int:
    print(emit(charpoly_record(parse_q(args.q), args.of), args.format))
    return EXIT_OK


def cmd_bounds(args) -> int:
    spec = parse_q(args.q)
    if spec.k < 2:
        print("bounds need a spine of at least 2 vertices (k >= 2)", file=sys.stderr)
        return EXIT_USAGE
    print(emit(bounds_record(spec), args.format))
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.q is not None:
        specs = [parse_q(args.q)]
    elif args.random is not None:
        specs = random_specs(args.random, args.kmax, args.qmax, args.seed)
    else:
        print("verify needs --q or --random N", file=sys.stderr)
        return EXIT_USAGE
    failures, notes = run_verify(specs, args.tol)
    for line in notes:
        print(line)
    for line in failures:
        print(line)
    if failures:
        print(f"{len(failures)} invariant failure(s) on {len(specs)} spec(s)")
        return EXIT_VERIFY
    print(f"all invariants passed on {len(specs)} spec(s)")
    return EXIT_OK


def cmd_table(args) -> int:
    try:
        with open(args.input) as fh:
            lines = fh.readlines()
    except OSError as exc:
        print(f"cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_USAGE

    rows = []
    hard_failures: list[str] = []
    for lineno, raw in enumerate(lines, 1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        try:
            spec = parse_q(text)
            if spec.k < 2:
                raise ValueError("k >= 2 required for bounds")
        except ValueError as exc:
            print(f"line {lineno}: skipped ({exc})", file=sys.stderr)
            continue
        rec = bounds_record(spec)
        hard, soft = compare_reference(spec, rec)
        flags = list(rec["warnings"])
        flags += [f"divergence[{m}]" for m in soft]
        flags += [f"mismatch[{m}]" for m in hard]
        if not rec["bounds"]["paper_valid"]:
            flags.append("pair bound outside stated range")
        hard_failures.extend(f"line {lineno} T{q_label(spec.q)}: {m}" for m in hard)
        rec["flags"] = flags
        rows.append(rec)

    if args.format == "json":
        body = render_json(rows)
    else:
        body = "\n".join([CSV_HEADER] + [csv_row(rec, rec["flags"]) for rec in rows])
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(body + "\n")
    else:
        print(body)
    for msg in hard_failures:
        print(f"mismatch against oracle-confirmed published value: {msg}", file=sys.stderr)
    return EXIT_VERIFY if hard_failures else EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):     # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="catspectra", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, formats=("text", "json", "csv")):
        p.add_argument("--format", choices=formats, default=formats[0])

    p = sub.add_parser("spectrum", help="Laplacian and line-graph spectra")
    p.add_argument("--q", required=True, help="comma-separated leg counts, e.g. 4,9,0,1")
    add_format(p)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("charpoly", help="exact characteristic polynomial")
    p.add_argument("--q", required=True)
    p.add_argument("--of", choices=("C", "L"), default="C",
                   help="quotient matrix C or the tree Laplacian L")
    add_format(p)
    p.set_defaults(fn=cmd_charpoly)

    p = sub.add_parser("bounds", help="algebraic-connectivity bounds report")
    p.add_argument("--q", required=True)
    add_format(p)
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("--q", default=None)
    p.add_argument("--random", type=int, default=None, metavar="N")
    p.add_argument("--kmax", type=int, default=8)
    p.add_argument("--qmax", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-8,
                   help="tolerance for oracle comparisons")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("table", help="batch bounds table from a spec file")
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None)
    add_format(p, formats=("csv", "json"))
    p.set_defaults(fn=cmd_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SpecTooSmall as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonConvergence as exc:
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONV
    except NoValidIndex as exc:
        print(f"no valid deletion index for the trace upper bound: {exc}", file=sys.stderr)
        return EXIT_VERIFY


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
