"""Every imported name in src/, tests/ and scripts/ is used, and every
private module-level or class-level name of src/scmn is used by the package.

Two `ast` scans. A name bound by an import must appear as a name somewhere in
the same file; `# noqa: F401` on the import line exempts a deliberate
re-export, as in `scmn/__init__.py`. A private module-level function, class or
constant of src/scmn must be read, or imported, somewhere in src/scmn outside
its own definition, and a private method or attribute defined in a class body
must be read there as a name or an attribute, so a helper that only tests
still call is caught too.
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


def private_definitions(body: list[ast.stmt]) -> list[tuple[ast.stmt, str]]:
    """(node, name) of each private (one leading underscore) function, class
    or assigned name that the statements `body` define."""
    found = []
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            names = []
        found += [(node, n) for n in names if n.startswith("_") and not n.startswith("__")]
    return found


def dead_private_names(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(module, line, name) of each private module-level function, class or
    constant of the modules `sources`, name -> source, that no module reads
    or imports outside its definition, and of each private method or
    attribute of a class body (named Class._name) that no module reads as a
    name or an attribute outside its definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defined = []  # (module, node, reported name, name, whether attributes read it)
    for module, tree in trees.items():
        defined += [(module, node, n, n, False) for node, n in private_definitions(tree.body)]
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            defined += [
                (module, node, f"{cls.name}.{name}", name, True)
                for node, name in private_definitions(cls.body)
            ]
    names, attributes = [], []  # (name, id of the node that reads or imports it)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.append((node.id, id(node)))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.append((node.attr, id(node)))
            elif isinstance(node, ast.ImportFrom):
                names += [(alias.name, id(node)) for alias in node.names]
    dead = []
    for module, node, reported, name, by_attribute in defined:
        inside = {id(n) for n in ast.walk(node)}
        refs = names + attributes if by_attribute else names
        if not any(r == name and i not in inside for r, i in refs):
            dead.append((module, node.lineno, reported))
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


def test_scan_finds_dead_class_level_names():
    # Methods and attributes of a class body, nested classes' too, read
    # through self, through another object, by a bare name in the class body
    # or from another module; a read inside a name's own definition does not
    # count, nor does a store through self, nor an attribute of the same name
    # read where only module-level reads count.
    sources = {
        "a": "class C:\n    _READ = 1\n    _STORED = 2\n    _alias = _READ\n\n"
        "    def _used(self):\n        self._STORED = 3\n        return self._alias\n\n"
        "    def _dead(self):\n        return self._dead()\n\n"
        "    def __init__(self):\n        self._used()\n\n"
        "    class _Inner:\n        _gone = 4\n        _kept = 5\n",
        "b": "from a import C\n\nvalue = C._Inner._kept + C()._module_level\n_module_level = 6\n",
    }
    assert dead_private_names(sources) == [
        ("a", 3, "C._STORED"),
        ("a", 10, "C._dead"),
        ("a", 17, "_Inner._gone"),
        ("b", 4, "_module_level"),
    ]


def test_no_dead_private_names():
    sources = {
        str(path.relative_to(ROOT)): path.read_text() for path in sorted(PACKAGE.rglob("*.py"))
    }
    assert dead_private_names(sources) == []
