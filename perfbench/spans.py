"""Span tracing of catspectra's layers from outside the package.

`Tracer` replaces each traced function with a wrapper in every catspectra
module namespace that bound it (`bounds` and `cli` import `p_minus2` by name;
`bounds_report`, `laplacian_spectrum` and `cardano_roots` import
`mu_oracle`, `sym_eigs` and `build_C` lazily from their home modules, which
are rebound too) and restores the originals on exit.  Each call becomes a
span: name, op, parent, start and end in `perf_counter_ns`, and the counter
attributes its tag function reads off the arguments or the result.  Spans
stay in memory until `write` saves them.

A span's self time is its duration minus the part of it its child spans
cover.  Per-layer metrics are reported per op, so runs that complete
different op counts stay comparable.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps

MODULES = ("model", "graphs", "charpoly", "oracle", "bounds", "cli")

CARDANO_METHODS = ("trig", "zero_leg", "both_zero", "dense_fallback")

# "<module>.<function>" -> tag(args, result) giving the span's counter
# attributes, or None.
TRACED = {
    "model.validate_spec": None,
    "graphs.build_caterpillar": None,
    "graphs.matrices": None,
    "graphs.line_graph": None,
    "graphs.h_join": None,
    "charpoly.build_C": None,
    "charpoly.charpoly_p": None,
    "charpoly.p_minus2": None,
    "charpoly.pprime_minus2": None,
    "charpoly.laplacian_charpoly": None,
    "charpoly.laplacian_spectrum": None,
    "oracle.sym_eigs": lambda args, res: (res.sweeps, len(res.values)),
    "oracle.mu_oracle": lambda args, res: args[0].q,
    "oracle.exact_det": None,
    "oracle.lap_charpoly_eval": None,
    "oracle.min_root": None,
    "bounds.cardano_roots": lambda args, res: res.method,
    "bounds.ub_cardano": None,
    "bounds.trace_inv": None,
    "bounds.trace_inv_deleted": None,
    "bounds.bounds_trace": lambda args, res: args[0].k,
    "bounds.bounds_report": None,
    "cli.bounds_record": None,
    "cli.run_verify": None,
    "cli.emit": None,
}

OP = "op"       # the root span the benchmark opens around each op

# span record fields
NAME, OPID, PARENT, START, END, ATTRS = range(6)


class Tracer:
    """Context manager that installs the span wrappers and removes them on exit."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._op = -1
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, tag):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @wraps(fn)
        def traced(*args, **kwargs):
            idx, parent, attrs = len(spans), stack[-1] if stack else -1, None
            stack.append(idx)
            spans.append(None)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if tag is not None:
                    attrs = tag(args, result)
                return result
            finally:
                # a tuple of atoms, which the garbage collector stops scanning
                spans[idx] = (name, self._op, parent, start, clock(), attrs)
                stack.pop()

        return traced

    def __enter__(self):
        mods = [sys.modules["catspectra"]] + [sys.modules[f"catspectra.{m}"] for m in MODULES]
        wrappers = {}
        for name, tag in TRACED.items():
            home, attr = name.split(".")
            fn = getattr(sys.modules[f"catspectra.{home}"], attr)
            wrappers[id(fn)] = self._wrap(name, fn, tag)
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        return False

    @contextmanager
    def op(self, index: int):
        """Root span of one op; every span opened inside it carries its index."""
        self._op, idx = index, len(self.spans)
        self._stack.append(idx)
        self.spans.append(None)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.spans[idx] = (OP, index, -1, start, time.perf_counter_ns(), None)
            self._stack.pop()
            self._op = -1

    def write(self, path) -> None:
        keys = ("name", "op", "parent", "start_ns", "end_ns", "attrs")
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def self_times(spans) -> list[int]:
    """Duration of each span minus the union of its children's intervals, in ns."""
    children = defaultdict(list)
    for i, rec in enumerate(spans):
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append(i)
    out = []
    for i, rec in enumerate(spans):
        covered, reach = 0, rec[START]
        for c in children.get(i, ()):
            lo, hi = max(spans[c][START], reach), min(spans[c][END], rec[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(rec[END] - rec[START] - covered)
    return out


def _outermost(spans, i) -> bool:
    """True unless span i runs inside another span of the same name."""
    name, p = spans[i][NAME], spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return False
        p = spans[p][PARENT]
    return True


def layer_metrics(spans, ops: int) -> dict[str, tuple[float, str]]:
    """Per-op calls, total and self time of every traced function, plus the counters."""
    selfs = self_times(spans)
    calls, total, self_ns = Counter(), Counter(), Counter()
    sweeps = rotations = 0
    methods = Counter()
    for i, rec in enumerate(spans):
        name = rec[NAME]
        calls[name] += 1
        self_ns[name] += selfs[i]
        if _outermost(spans, i):
            total[name] += rec[END] - rec[START]
        if name == "oracle.sym_eigs":
            s, n = rec[ATTRS]
            sweeps += s
            rotations += s * n * (n - 1) // 2
        elif name == "bounds.cardano_roots":
            methods[rec[ATTRS]] += 1
    out = {}
    for name in (OP,) + tuple(TRACED):
        if name != OP:
            out[f"{name}.calls"] = (calls[name] / ops, "count/op")
        out[f"{name}.total_ms"] = (total[name] / ops / 1e6, "ms/op")
        out[f"{name}.self_ms"] = (self_ns[name] / ops / 1e6, "ms/op")
    out["oracle.sym_eigs.sweeps"] = (sweeps / ops, "count/op")
    out["oracle.sym_eigs.rotations"] = (rotations / ops, "count/op")
    out["oracle.sym_eigs.share"] = (total["oracle.sym_eigs"] / total[OP], "ratio")
    for m in CARDANO_METHODS:
        out[f"bounds.cardano_roots.method.{m}"] = (methods[m] / ops, "count/op")
    return out


def self_check(spans, cache_misses: int, mu_specs: int) -> list[str]:
    """Problems that would make the trace disagree with the code's structure.

    * each bounds_trace span has exactly k-1 trace_inv_deleted children;
    * mu_oracle cache misses equal the distinct specs it was called with,
      and those number `mu_specs`, the count the workload's specs predict;
    * per op, the self times of its spans sum to the op's traced time
      within 1%, which fails if child spans overlap or leave their parent.
    """
    problems = []
    deleted = Counter(rec[PARENT] for rec in spans if rec[NAME] == "bounds.trace_inv_deleted")
    for i, rec in enumerate(spans):
        if rec[NAME] == "bounds.bounds_trace" and deleted[i] != rec[ATTRS] - 1:
            problems.append(f"op {rec[OPID]}: bounds_trace at k={rec[ATTRS]} "
                            f"has {deleted[i]} trace_inv_deleted calls")
    distinct = len({rec[ATTRS] for rec in spans if rec[NAME] == "oracle.mu_oracle"})
    if cache_misses != distinct:
        problems.append(f"mu_oracle misses {cache_misses} != distinct specs {distinct}")
    if distinct != mu_specs:
        problems.append(f"mu_oracle saw {distinct} distinct specs, expected {mu_specs}")
    selfs = self_times(spans)
    per_op = Counter()
    for i, rec in enumerate(spans):
        per_op[rec[OPID]] += selfs[i]
    for i, rec in enumerate(spans):
        if rec[NAME] == OP:
            dur = rec[END] - rec[START]
            if abs(per_op[rec[OPID]] - dur) > 0.01 * dur:
                problems.append(f"op {rec[OPID]}: self times sum to {per_op[rec[OPID]]} ns "
                                f"of {dur} ns")
    if -1 in per_op:
        problems.append("spans recorded outside any op")
    return problems
