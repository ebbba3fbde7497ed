"""Every library module is reached from something that serves or measures.

The roots are the CLI, ``bench_e2e/``, ``benchmarks/`` and the example
that draws the paper's Figs. 1-5; ``tests/`` and the other examples are
not roots.  Imports are read with ``ast``: every ``import`` in a file
counts, function-level ones included, and ``from pkg import name``
resolves through ``__init__`` re-exports to the module that defines
``name``, so a re-export list alone keeps nothing alive.  A package
``__init__`` counts as reached when any module under it is.  What the
library imports also sets what every process pays at start-up, so the
absence of SciPy is pinned here too.
"""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
ROOTS = [*sorted((REPO / "bench_e2e").rglob("*.py")),
         *sorted((REPO / "benchmarks").rglob("*.py")),
         REPO / "examples" / "figures1_to_5.py"]
MODULES = {}
for _path in (SRC / "repro").rglob("*.py"):
    _parts = _path.relative_to(SRC).with_suffix("").parts
    MODULES[".".join(_parts[:-1] if _parts[-1] == "__init__" else _parts)] = _path
PACKAGES = {name for name, path in MODULES.items() if path.name == "__init__.py"}


def _imports(path):
    """``(absolute module, imported name or None, bound name)`` per alias."""
    parts = path.relative_to(SRC).with_suffix("").parts if SRC in path.parents else ()
    package = parts[:-1]
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None, alias.asname or alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                if not package:
                    continue  # relative import outside the library
                base = ".".join(package[:len(package) - node.level + 1])
                module = f"{base}.{node.module}" if node.module else base
            else:
                module = node.module
            for alias in node.names:
                yield module, alias.name, alias.asname or alias.name


def _resolve(module, name):
    """The library module that defines what ``from module import name``
    binds: a submodule, a re-export followed to its source, or ``module``
    itself; nothing for a module outside the library."""
    if module not in MODULES:
        return set()
    if name is None or module not in PACKAGES:
        return {module}
    if f"{module}.{name}" in MODULES:
        return {f"{module}.{name}"}
    for source, imported, bound in _imports(MODULES[module]):
        if bound == name:
            return _resolve(source, imported)
    return {module}  # defined in the ``__init__`` itself


def test_every_module_is_reached_from_a_root():
    todo = ["repro.cli", "repro.__main__"]  # the CLI roots live in the library
    todo += [hit for root in ROOTS for module, name, _ in _imports(root)
             for hit in _resolve(module, name)]
    reached = set()
    while todo:
        module = todo.pop()
        if module in reached:
            continue
        reached.add(module)
        if module not in PACKAGES:
            todo.extend(hit for source, name, _ in _imports(MODULES[module])
                        for hit in _resolve(source, name))
    reached |= {name.rsplit(".", depth)[0] for name in reached
                for depth in range(1, name.count(".") + 1)}
    orphans = sorted(set(MODULES) - reached)
    assert not orphans, "modules no root reaches: " + ", ".join(
        f"{name} ({len(MODULES[name].read_text().splitlines())} lines)"
        for name in orphans)


def test_importing_the_library_loads_no_scipy():
    """The library runs on NumPy alone: SciPy is no dependency, and only
    a fresh interpreter shows what an import pulls in."""
    script = textwrap.dedent("""
        import sys
        import repro, repro.cli, repro.store, repro.serve, repro.shard
        import repro.ingest, repro.index
        loaded = sorted(name for name in sys.modules
                        if name == "scipy" or name.startswith("scipy."))
        assert not loaded, loaded
    """)
    path = os.pathsep.join(entry for entry in sys.path if entry)
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
