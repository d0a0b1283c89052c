"""The one pool of worker processes: no other module starts one, and
importing the benchmark harness does not load the pool's modules."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import ordsel

SRC = Path(ordsel.__file__).resolve().parent
POOL_MODULES = ("multiprocessing", "concurrent.futures")


def _imports(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def test_one_module_imports_the_pool():
    importers = {
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if any(
            name == mod or name.startswith(mod + ".")
            for name in _imports(path)
            for mod in POOL_MODULES
        )
    }
    assert importers == {"workers.py"}
    # importing the harness, as every run's set-up does, loads neither
    probe = "import sys, ordsel.bench.harness; print([m for m in %r if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-c", probe % (POOL_MODULES,)],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out == "[]\n"
