"""Contract between the package and the benchmark in perfbench/: one op of each
workload, run on its reference spec under the span tracer, passes the
workload's output check and the trace's structural self-check.

The tracer looks up every name in `spans.TRACED` when it starts, so renaming
or deleting a traced function (say `oracle.min_root`) breaks
`perfbench/run.py --trace 1`; this test shows it in the suite instead.  It
only reads perfbench/.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"

sys.path.insert(0, str(BENCH))
try:
    import spans
    import workloads
finally:
    sys.path.remove(str(BENCH))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_traced_op_passes_its_checks(name):
    w = workloads.WORKLOADS[name]
    spec = workloads.make_spec(w.reference)
    workloads.MU_ORACLE.cache_clear()
    with spans.Tracer() as tracer, tracer.op(0):
        out = w.op(spec)
    assert w.check(0, spec, out) is None
    misses = workloads.MU_ORACLE.cache_info().misses
    mu_specs = 0 if w.mu_min_k is None else int(spec.k >= w.mu_min_k)
    assert spans.self_check(tracer.spans, misses, mu_specs) == []
