"""Every imported name in src/, tests/ and scripts/ is used.

An `ast` scan: a name bound by an import must appear as a name somewhere in
the same file. `# noqa: F401` on the import line exempts a deliberate
re-export, as in `scmn/__init__.py`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "scripts")


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name the module never refers to."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            if "# noqa: F401" in lines[node.lineno - 1] + lines[alias.lineno - 1]:
                continue
            imported.append((alias.lineno, alias.asname or alias.name.split(".")[0]))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(lineno, name) for lineno, name in imported if name not in used]


def test_scan_finds_unused_names():
    source = "import os\nimport sys  # noqa: F401\nfrom a import (\n    b,\n    c,\n)\nc()\n"
    assert unused_imports(source) == [(1, "os"), (4, "b")]


def test_no_unused_imports():
    found = [
        f"{path.relative_to(ROOT)}:{lineno}: {name}"
        for top in SCANNED
        for path in sorted((ROOT / top).rglob("*.py"))
        for lineno, name in unused_imports(path.read_text())
    ]
    assert found == []
