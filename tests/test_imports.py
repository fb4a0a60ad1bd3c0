"""Every imported name in src/, tests/ and scripts/ is used, and every
private module-level name of src/scmn is used by the package.

Two `ast` scans. A name bound by an import must appear as a name somewhere in
the same file; `# noqa: F401` on the import line exempts a deliberate
re-export, as in `scmn/__init__.py`. A private module-level function, class or
constant of src/scmn must be read, or imported, somewhere in src/scmn outside
its own definition, so a helper that only tests still call is caught too.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "scripts")
PACKAGE = ROOT / "src" / "scmn"


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


def dead_private_names(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(module, line, name) of each private (one leading underscore)
    module-level function, class or constant of the modules `sources`, name
    -> source, that no module reads or imports outside its definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            defined += [
                (module, node, name)
                for name in names
                if name.startswith("_") and not name.startswith("__")
            ]
    refs = []  # (name, id of the node that reads or imports it)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.append((node.id, id(node)))
            elif isinstance(node, ast.ImportFrom):
                refs += [(alias.name, id(node)) for alias in node.names]
    dead = []
    for module, node, name in defined:
        inside = {id(n) for n in ast.walk(node)}
        if not any(r == name and i not in inside for r, i in refs):
            dead.append((module, node.lineno, name))
    return dead


def test_scan_finds_dead_private_names():
    sources = {
        "a": "def _used():\n    return 1\n\n\ndef _dead():\n    return _dead()\n\n\n"
        "_ONLY_STORED = 2\n_READ = 3\nclass _Self:\n    x = _Self\n__all__ = []\n",
        "b": "from a import _used\n\nvalue = _used() + _READ\n",
    }
    assert dead_private_names(sources) == [
        ("a", 5, "_dead"),
        ("a", 9, "_ONLY_STORED"),
        ("a", 11, "_Self"),
    ]


def test_no_dead_private_names():
    sources = {
        str(path.relative_to(ROOT)): path.read_text() for path in sorted(PACKAGE.rglob("*.py"))
    }
    assert dead_private_names(sources) == []
