"""Golden CLI outputs: stdout, stderr and exit code must stay byte-identical.

Each case in golden/cases.json names a command line.  Its expected stdout and
stderr are golden/<name>.stdout and golden/<name>.stderr, captured from
`python3 -m catspectra.cli <argv>` run at the repository root; re-capture them
the same way only for a deliberate output change.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_byte_identical(name):
    case = CASES[name]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "catspectra.cli", *case["argv"]],
                          cwd=ROOT, env=env, capture_output=True, timeout=120)
    assert proc.stdout == (GOLDEN / f"{name}.stdout").read_bytes()
    assert proc.stderr == (GOLDEN / f"{name}.stderr").read_bytes()
    assert proc.returncode == case["exit"]
