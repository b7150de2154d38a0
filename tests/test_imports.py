"""Static check: no module of the package or the scripts imports a name it never uses.

Stdlib only (ast), since neither pyflakes nor ruff is a dependency.  The
package `__init__` is exempt: its imports are re-exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "catspectra").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


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
