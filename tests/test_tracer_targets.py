"""Every function the benchmark's tracer wraps exists in this package.

The tracer (`perfbench/tracing.py`) wraps each layer's functions where their
callers look them up, so a renamed or moved name makes every traced benchmark
run fail. The tracer is loaded by path, so this test needs nothing from the
benchmark beyond that one file.
"""

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
