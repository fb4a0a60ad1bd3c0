"""Every function the benchmark's tracer wraps exists in this package.

The tracer (`perfbench/tracing.py`) wraps each layer's functions where their
callers look them up, so a renamed or moved name makes every traced benchmark
run fail. Conversely, an import the package keeps only so that the tracer
finds a name must name a target. The tracer is loaded by path, so these
tests need nothing from the benchmark beyond that one file.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "scmn"


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    tracing = load_tracing()
    assert tracing.TARGETS
    for _, module, path in tracing.TARGETS:
        # The tracer wraps this package, not an installed copy of it.
        assert Path(importlib.import_module(module).__file__).resolve().parent == SRC
        owner, attr = tracing.resolve(module, path)
        # The tracer reads the raw attribute from the owner's own namespace.
        assert attr in vars(owner), f"{module}:{path} is not defined where the tracer looks"


TRACER_ONLY = "# noqa: F401 (kept: perfbench/tracing.py wraps this name)"


def tracer_only_imports():
    """(module, name) of each import in the package kept only for the tracer."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if TRACER_ONLY in lines[alias.lineno - 1]:
                        found.append((f"scmn.{path.stem}", alias.asname or alias.name))
    return found


def test_tracer_only_imports_are_targets():
    # Once the tracer stops wrapping such a name, this fails and the import
    # can go.
    found = tracer_only_imports()
    assert ("scmn.sim", "sample_subspace") in found
    targets = {(module, path) for _, module, path in load_tracing().TARGETS}
    assert [entry for entry in found if entry not in targets] == []
