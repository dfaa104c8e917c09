"""Import hygiene of ``src/repro``.

Every package imports on its own: each is imported as a process's
*first* import of ``repro``, because an import cycle that only resolves
when entered from one side passes any suite whose earlier imports happen
to enter it there (``repro.raft`` did, through
``repro.distributed.master``), and fails a user's script.

And no module keeps an import it does not use or exports a name it does
not bind — the part of CI's ruff step (pyflakes F401 / F822) that needs
no installed linter, so a builder can run it.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(repro.__file__).parent
PACKAGES = sorted(
    ".".join(("repro", *init.parent.relative_to(ROOT).parts))
    for init in ROOT.rglob("__init__.py")
)


@pytest.mark.parametrize("package", PACKAGES)
def test_package_is_importable_first(package):
    done = subprocess.run(
        [sys.executable, "-c", f"import {package}"],
        env={**os.environ, "PYTHONPATH": str(ROOT.parent)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr


def _annotation_names(tree: ast.Module) -> set[str]:
    """Names used inside string annotations (``x: "Optional[Foo]"``)."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names: set[str] = set()
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                names.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return names


def _module_bindings(body: list[ast.stmt]) -> set[str]:
    """Names a module binds at top level (through ``if``/``try`` too)."""
    bound: set[str] = set()
    for stmt in body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0] for a in stmt.names)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                bound.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
        else:
            for field in ("body", "orelse", "finalbody"):
                bound |= _module_bindings(getattr(stmt, field, []))
            for handler in getattr(stmt, "handlers", []):
                bound |= _module_bindings(handler.body)
    return bound


def test_no_unused_import_and_every_exported_name_is_bound():
    problems = []
    for path in sorted(ROOT.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        lines = source.splitlines()
        where = path.relative_to(ROOT)
        exported = {
            element.value
            for stmt in tree.body
            if isinstance(stmt, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)
            for element in getattr(stmt.value, "elts", [])
        }
        for name in sorted(exported - _module_bindings(tree.body)):
            problems.append(f"{where}: __all__ names {name!r}, which is not bound")
        if path.name == "__init__.py":
            continue  # a package's imports are its re-exports
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used |= _annotation_names(tree) | exported
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__" or "noqa" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                local = (alias.asname or alias.name).split(".")[0]
                if local not in used:
                    problems.append(f"{where}:{node.lineno}: {local!r} imported but unused")
    assert problems == [], "\n".join(problems)
