"""Import hygiene: no module of the package, the scripts or the tests imports
a name it never uses, the invariant suite does not import the CLI, `charpoly`
imports nothing from the oracles, the public API (`catspectra.__all__`)
resolves and covers the README's library example, and the package, `bounds`,
`charpoly` and `spectrum` run without loading numpy.

Stdlib only (ast), since neither pyflakes nor ruff is a dependency.  The
package `__init__` is exempt from the unused-import check: its imports are
re-exports.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

import catspectra

ROOT = Path(__file__).resolve().parent.parent
SOURCES = [path for folder in (ROOT / "src" / "catspectra", ROOT / "scripts", ROOT / "tests")
           for path in sorted(folder.glob("*.py"))]


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read as a name."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items()) if name not in used]


def test_checker_flags_unused_and_keeps_used():
    src = ("from __future__ import annotations\n"
           "import os.path\nimport numpy as np\nfrom math import nan, sqrt\n"
           "x = np.zeros(1) + sqrt(2)\n")
    assert unused_imports(src) == ["line 4: nan", "line 2: os"]


def test_no_unused_imports():
    assert SOURCES
    problems = [f"{path.relative_to(ROOT)} {msg}"
                for path in SOURCES if path.name != "__init__.py"
                for msg in unused_imports(path.read_text())]
    assert problems == []


def test_public_api_resolves():
    assert len(catspectra.__all__) == len(set(catspectra.__all__))
    missing = [name for name in catspectra.__all__ if not hasattr(catspectra, name)]
    assert missing == []


def test_readme_imports_are_public():
    readme = (ROOT / "README.md").read_text()
    imports = re.findall(r"^from catspectra import (.+)$", readme, flags=re.MULTILINE)
    assert imports
    names = {name.strip() for line in imports for name in line.split(",")}
    assert names - set(catspectra.__all__) == set()


def imported_modules(name: str) -> set[str]:
    """Modules and names a package module imports, relative ones without their dots."""
    tree = ast.parse((ROOT / "src" / "catspectra" / f"{name}.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
    return imported


def test_verify_does_not_import_the_cli():
    assert not {"cli", "catspectra.cli"} & imported_modules("verify")


def test_charpoly_does_not_import_the_oracles():
    assert not {"oracle", "catspectra.oracle"} & imported_modules("charpoly")


def test_bounds_and_charpoly_never_load_numpy():
    # numpy is only array plumbing for the dense oracles of verify
    code = (
        "import sys, catspectra\n"
        "from catspectra import cli\n"
        "assert cli.main(['bounds', '--q', '4,9,0,1', '--format', 'json']) == 0\n"
        "assert cli.main(['charpoly', '--q', '4,9,0,1', '--of', 'L']) == 0\n"
        "assert cli.main(['spectrum', '--q', '4,9,0,1', '--format', 'json']) == 0\n"
        "assert 'numpy' not in sys.modules, 'numpy was loaded'\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=ROOT, env={"PYTHONPATH": str(ROOT / "src")}, timeout=60)
    assert proc.returncode == 0, proc.stderr
