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

This module parses, builds, renders and compares with the published values;
the invariant checks live in `catspectra.verify`, the one that loads numpy.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from importlib import import_module
from math import isfinite

from .bounds import bounds_report, trace_inv_deleted
from .charpoly import charpoly_p, laplacian_charpoly, laplacian_spectrum
from .graphs import MAX_DENSE_ORDER
from .model import CaterpillarSpec, LegTooLarge, fmt4, q_label, random_specs, validate_spec
from .oracle import NonConvergence

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_NONCONV = 3


def parse_q(text: str) -> CaterpillarSpec:
    cleaned = text.strip().strip("()")
    try:
        q = tuple(int(part) for part in cleaned.split(","))
    except ValueError:
        raise ValueError(f"cannot parse leg counts from {text!r}") from None
    return validate_spec(q)


# ---------------------------------------------------------------------------
# records (the single source for every output format)
# ---------------------------------------------------------------------------

def spectrum_record(spec: CaterpillarSpec) -> dict:
    lap = laplacian_spectrum(spec)
    line = [(v - 2.0, m) for v, m in lap[1:]]     # every pair after the exact (0.0, 1)
    return {
        "kind": "spectrum",
        "q": list(spec.q),
        "n": spec.n,
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
# published reference values
# ---------------------------------------------------------------------------

# mu, lb and ub_trace are hard assertions; ub_cardano is report-only, since two
# of its printed values do not follow from the stated formula.  ub_trace_index
# marks a ub_trace printed for one deletion index rather than the minimum.
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

REFERENCE_TOL = 1e-3    # the published values carry 4 decimals


def compare_reference(spec: CaterpillarSpec, rec: dict):
    """Returns (hard_failures, notes) of a bounds record against the published values, if any."""
    ref = REFERENCE_VALUES.get(spec.q)
    if ref is None:
        return [], []
    hard, notes = [], []
    b = rec["bounds"]

    def check(name: str, got: float, want: float, is_hard: bool):
        if abs(got - want) <= REFERENCE_TOL:
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
        if abs(b["ub_trace"] - ref["ub_trace"]) > REFERENCE_TOL:
            notes.append(
                f"ub_trace: published {fmt4(ref['ub_trace'])} is the i={idx} term; "
                f"the minimum over i is {fmt4(b['ub_trace'])} at i={b['ub_trace_index']}"
            )
    check("ub_cardano", b["ub_cardano"], ref["ub_cardano"], False)
    return hard, notes


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
    return f"q;of;coeffs\n{q_label(rec['q'])};{rec['of']};{' '.join(rec['coeffs'])}"


def emit(rec: dict, fmt: str) -> str:
    if fmt == "json":
        return render_json(rec)
    if fmt == "csv":
        return render_csv(rec)
    return render_text(rec)


# ---------------------------------------------------------------------------
# verify: run the invariant suite
# ---------------------------------------------------------------------------

def run_verify(specs: list[CaterpillarSpec], tol: float) -> tuple[list[str], list[str]]:
    """Prints one PASS/FAIL line per invariant check; returns (failures, notes)."""
    from . import verify

    failures, notes = [], []
    try:
        for name, kmin, check in verify.INVARIANT_CHECKS:
            ran = [spec for spec in specs if spec.k >= kmin]
            failed = 0
            for spec in ran:
                msg = check(spec, tol)
                if msg:
                    failed += 1
                    failures.append(f"FAIL {name} T{q_label(spec.q)}: {msg}")
            print(f"{'FAIL' if failed else 'PASS'} {name} ({len(ran)} specs)")
    finally:
        verify._c_eigs.cache_clear()    # the checks of one run share its dense solves, no later run
    for spec in specs:
        if spec.q not in REFERENCE_VALUES:
            continue
        hard, soft = compare_reference(spec, bounds_record(spec))
        failures.extend(f"FAIL reference T{q_label(spec.q)}: {m}" for m in hard)
        notes.extend(f"note T{q_label(spec.q)}: {m}" for m in soft)
    return failures, notes


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


def _vacuous_verify_flag(args) -> str | None:
    """Why the verify flags would run no comparison or no spec, or None if they are usable."""
    if args.random is not None and args.random < 1:
        return f"--random needs at least 1 spec, got {args.random}"
    if args.kmax < 1:
        return f"--kmax needs a spine of at least 1 vertex, got {args.kmax}"
    if args.qmax < 0:
        return f"--qmax needs a nonnegative leg count, got {args.qmax}"
    if not (isfinite(args.tol) and args.tol > 0):
        return f"--tol needs a finite tolerance above 0, got {args.tol}"
    return None


def cmd_verify(args) -> int:
    try:
        import_module(".verify", __package__)   # its dense oracles are the one user of numpy
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        print("verify needs numpy: pip install 'catspectra[test]'", file=sys.stderr)
        return EXIT_USAGE
    problem = _vacuous_verify_flag(args)
    if problem:
        print(f"verify {problem}", file=sys.stderr)
        return EXIT_USAGE
    if args.q is not None:
        specs = [parse_q(args.q)]
    elif args.random is not None:
        specs = random_specs(args.random, args.kmax, args.qmax, args.seed)
    else:
        print("verify needs --q or --random N", file=sys.stderr)
        return EXIT_USAGE
    for spec in specs:      # refused up front: the dense checks would stop the run midway
        if spec.n > MAX_DENSE_ORDER:
            print(f"verify T{q_label(spec.q)}: the tree has {spec.n} vertices, above the dense cap "
                  f"of {MAX_DENSE_ORDER}", file=sys.stderr)
            return EXIT_USAGE
    failures, notes = run_verify(specs, args.tol)
    for line in notes + failures:
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
        try:
            rec = bounds_record(spec)
        except LegTooLarge as exc:
            print(f"line {lineno}: skipped ({exc})", file=sys.stderr)
            continue
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
    except ValueError as exc:       # SpecTooSmall and OrderTooLarge included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonConvergence as exc:
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONV


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
