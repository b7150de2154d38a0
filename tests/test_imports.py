"""Import hygiene: no module of the package or the scripts imports a name it
never uses, the invariant suite does not import the CLI, and the public API
(`catspectra.__all__`) resolves and covers the README's library example.

Stdlib only (ast), since neither pyflakes nor ruff is a dependency.  The
package `__init__` is exempt from the unused-import check: its imports are
re-exports.
"""

import ast
import re
from pathlib import Path

import catspectra

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


def test_verify_does_not_import_the_cli():
    tree = ast.parse((ROOT / "src" / "catspectra" / "verify.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
    assert not {"cli", "catspectra.cli"} & imported
