"""Every ``src/repro`` module is imported by something that ships.

The roots are what a user or the benchmarks run: ``repro.cli`` (the
``reed`` entry point), ``repro.core.system`` (``build_system``),
``repro.core.cluster`` (``TcpCluster``), and every ``repro`` import in
``benchmarks/`` and ``examples/``.  Imports are followed transitively,
function-level ones included, by parsing the source; nothing is imported.

A name imported from a package resolves to the submodule that defines
it, through the package's re-exports.  A package ``__init__``'s own
imports reach nothing: otherwise a module that only its package
re-exports would count as used.  A module that no root reaches is
library code that only tests exercise; delete it, or add it to
``ALLOWED_UNREACHABLE`` with the reason it stays.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

ROOT_MODULES = ("repro.cli", "repro.core.system", "repro.core.cluster")

ALLOWED_UNREACHABLE = {
    # The critical-path span profiler: the basis of the benchmark's
    # in-program attribution (ROADMAP item 3), not yet called by it.
    "repro.obs.profile",
    # A manual clock that tests inject in place of wall time.
    "repro.util.clock",
}


def module_files() -> dict[str, Path]:
    """Module name -> source file, for every module under ``src/repro``."""
    files = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        files[".".join(parts)] = path
    return files


MODULES = module_files()


def is_package(name: str) -> bool:
    return MODULES[name].name == "__init__.py"


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def reexport(package: str, name: str) -> str | None:
    """The module that ``from <package> import <name>`` ends up in."""
    if f"{package}.{name}" in MODULES:
        return f"{package}.{name}"
    for node in parse(MODULES[package]).body:
        if isinstance(node, ast.ImportFrom) and node.module in MODULES:
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    return resolve(node.module, alias.name)
    return None


def resolve(module: str, name: str) -> str | None:
    return reexport(module, name) if is_package(module) else module


def imported_modules(tree: ast.AST) -> set[str]:
    """The ``repro`` modules that the imports anywhere in ``tree`` reach."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names if alias.name in MODULES)
        elif isinstance(node, ast.ImportFrom) and node.module in MODULES:
            found.update(resolve(node.module, alias.name) for alias in node.names)
    found.discard(None)
    return found


def reachable() -> set[str]:
    entry_files = [*(ROOT / "benchmarks").rglob("*.py"), *(ROOT / "examples").glob("*.py")]
    pending = set(ROOT_MODULES)
    for path in entry_files:
        pending |= imported_modules(parse(path))
    seen: set[str] = set()
    while pending:
        module = pending.pop()
        seen.add(module)
        # A package's own imports are its re-exports; they reach nothing.
        if not is_package(module):
            pending |= imported_modules(parse(MODULES[module])) - seen
    return seen


def test_every_module_is_reachable_or_allowed():
    modules = {name for name in MODULES if not is_package(name)}
    orphans = sorted(modules - reachable() - ALLOWED_UNREACHABLE)
    assert not orphans, f"nothing shipped imports {orphans}: delete them or allow-list them"


def test_allow_list_is_not_stale():
    missing = sorted(ALLOWED_UNREACHABLE - MODULES.keys())
    assert not missing, f"allow-listed modules {missing} do not exist"
    used = sorted(ALLOWED_UNREACHABLE & reachable())
    assert not used, f"allow-listed modules {used} are reachable: drop them from the list"

