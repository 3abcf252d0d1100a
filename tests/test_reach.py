"""Every ``src/repro`` module is reached from a shipped path.

``src/repro`` holds what a CLI command, an e2e workload, a bench or an
example reaches.  Reach is computed statically from the import
statements of the roots -- ``repro.cli``, ``repro.__main__``, every
``benchmarks/**/*.py`` and every ``examples/*.py`` -- and of each module
they reach, lazy imports inside functions included.

``from pkg import X`` reaches the module that defines ``X`` (the submodule
``pkg.X``, or the module ``pkg/__init__.py`` re-exports ``X`` from), not
everything the package's ``__init__`` imports: ``import repro`` alone
would otherwise reach every module.  Package ``__init__`` modules are
glue and are not checked themselves.

An extension beyond the paper (``benchmarks/bench_<name>_extension.py``
with its package ``benchmarks/<name>_extension/``) is not a root: its
code lives beside its bench, so it cannot keep code in ``src/repro``.
"""

from __future__ import annotations

import ast
import pathlib

REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO / "src"


def _path(module: str) -> pathlib.Path | None:
    """The file defining ``module``, or None outside ``src``."""
    base = SRC.joinpath(*module.split("."))
    if (base / "__init__.py").is_file():
        return base / "__init__.py"
    path = base.with_suffix(".py")
    return path if path.is_file() else None


def _is_package(module: str) -> bool:
    path = _path(module)
    return path is not None and path.name == "__init__.py"


def _base(module: str, is_package: bool, node: ast.ImportFrom) -> str:
    """The absolute module a ``from ... import`` statement names."""
    if not node.level:
        return node.module
    parts = module.split(".")
    if not is_package:
        parts = parts[:-1]
    parts = parts[: len(parts) - node.level + 1]
    return ".".join(parts + ([node.module] if node.module else []))


def _defining(package: str, name: str) -> str:
    """The module that defines ``name`` imported from ``package``."""
    if _path(f"{package}.{name}") is not None:
        return f"{package}.{name}"
    for node in ast.parse(_path(package).read_text()).body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    source = _base(package, True, node)
                    if _is_package(source) and source != package:
                        return _defining(source, alias.name)
                    return source
    return package


def _imports(path: pathlib.Path, module: str | None = None) -> set[str]:
    """The ``repro`` modules the file at ``path`` (module ``module``, or a
    root outside ``src`` when None) imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level and module is None:
                continue  # a root's own relative imports stay outside src
            base = _base(module, False, node) if node.level else node.module
            if _is_package(base):
                found.update(_defining(base, alias.name) for alias in node.names)
            else:
                found.add(base)
    return {name for name in found if name.split(".")[0] == "repro" and _path(name)}


def _roots() -> list[pathlib.Path]:
    benches = [
        path
        for path in sorted((REPO / "benchmarks").rglob("*.py"))
        if not any(
            part.removesuffix(".py").endswith("_extension")
            for part in path.relative_to(REPO).parts
        )
    ]
    return benches + sorted((REPO / "examples").glob("*.py"))


def reached() -> set[str]:
    todo = ["repro.cli", "repro.__main__"]
    for root in _roots():
        todo.extend(_imports(root))
    seen: set[str] = set()
    while todo:
        module = todo.pop()
        if module in seen:
            continue
        seen.add(module)
        if not _is_package(module):
            todo.extend(_imports(_path(module), module))
    return seen


def test_every_src_module_is_reached():
    modules = {
        ".".join(path.relative_to(SRC).with_suffix("").parts)
        for path in (SRC / "repro").rglob("*.py")
        if path.name != "__init__.py"
    }
    unreached = sorted(modules - reached())
    assert not unreached, f"no shipped path reaches: {', '.join(unreached)}"


def test_reach_resolves_names_to_their_defining_module():
    """The resolution rule the audit rests on: a re-exported name reaches
    its defining module, not its package's other modules."""
    assert _defining("repro.solvers", "SlotProblem") == "repro.solvers.problem"
    assert _defining("repro", "cli") == "repro.cli"
