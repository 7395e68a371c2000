#!/usr/bin/env python
"""Public-API surface checker — the PR-4 redesign must not regress.

Three rules.  The first two are read from the source, over the
redesigned pipeline API (the ``repro``, ``repro.api``,
``repro.runtime`` and ``repro.serve`` entry points):

1. **Documented**: every name exported through those modules' ``__all__``
   must appear somewhere in the documentation corpus (``README.md``,
   ``DESIGN.md``, ``docs/*.md``) — a new export cannot ship undocumented.
2. **No tuple returns**: no public function or public-class method in
   ``repro/api.py``, ``repro/runtime/*.py`` or ``repro/serve/*.py``
   may be annotated as
   returning a bare or fixed-arity tuple (``-> tuple``,
   ``-> tuple[A, B]``) — multi-value results get a named dataclass
   (``DatasetBuildResult``, ``ResumeInfo``, …).  Homogeneous variadic
   tuples (``tuple[X, ...]``) are sequences, not anonymous records, and
   are allowed.
3. **Every export resolves**: in a fresh interpreter, every name in the
   ``__all__`` of every package under ``src/repro`` resolves through
   ``getattr`` to the object its defining module holds.  The defining
   module is the one the package's ``__init__`` names for it: a
   ``from M import name`` line, or the submodule an
   :func:`repro._lazy.lazy_exports` map lists it under.  Lazy exports
   are resolved only on first use, so a map entry naming a moved or
   misspelt attribute would otherwise pass the first two rules and fail
   its first caller.

Run directly (``python scripts/check_api_surface.py``, exits non-zero on
problems) or through ``tests/test_api_surface.py``, which wires it into
the default pytest run next to ``check_docs.py`` /
``check_metrics_catalog.py``.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Modules whose ``__all__`` constitutes the documented public API.
PUBLIC_MODULES = (
    "src/repro/__init__.py",
    "src/repro/api.py",
    "src/repro/risk/__init__.py",
    "src/repro/runtime/__init__.py",
    "src/repro/serve/__init__.py",
)

#: Files whose public callables must not be annotated to return tuples.
TUPLE_RULE_GLOBS = (
    "src/repro/api.py",
    "src/repro/risk/*.py",
    "src/repro/runtime/*.py",
    "src/repro/serve/*.py",
)


def doc_corpus(root: Path = REPO_ROOT) -> str:
    parts = []
    for path in (root / "README.md", root / "DESIGN.md"):
        if path.exists():
            parts.append(path.read_text())
    for path in sorted((root / "docs").glob("*.md")):
        parts.append(path.read_text())
    return "\n".join(parts)


def exported_names(path: Path) -> list[str]:
    """The module's ``__all__`` (empty when it does not define one)."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [ast.literal_eval(element) for element in node.value.elts]
    return []


def check_documented(root: Path = REPO_ROOT) -> list[str]:
    corpus = doc_corpus(root)
    errors = []
    for rel in PUBLIC_MODULES:
        path = root / rel
        if not path.exists():
            continue
        for name in exported_names(path):
            if name == "__version__":
                continue
            if name not in corpus:
                errors.append(
                    f"{rel}: public export {name!r} is not mentioned in "
                    "README.md / DESIGN.md / docs/*.md"
                )
    return errors


def _is_tuple_annotation(annotation: ast.expr | None) -> bool:
    """True for ``tuple`` / ``Tuple`` and fixed-arity ``tuple[A, B]``;
    false for variadic ``tuple[X, ...]`` and everything else."""
    if annotation is None:
        return False
    if isinstance(annotation, ast.Name):
        return annotation.id in ("tuple", "Tuple")
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            return _is_tuple_annotation(ast.parse(annotation.value, mode="eval").body)
        except SyntaxError:
            return False
    if isinstance(annotation, ast.Subscript) and _is_tuple_annotation(annotation.value):
        inner = annotation.slice
        elements = inner.elts if isinstance(inner, ast.Tuple) else [inner]
        return not any(
            isinstance(e, ast.Constant) and e.value is Ellipsis for e in elements
        )
    return False


def _public_functions(tree: ast.Module):
    """``(qualname, node)`` for module-level functions and methods of
    module-level classes, skipping anything underscore-private."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_"):
                yield node.name, node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def check_tuple_returns(root: Path = REPO_ROOT) -> list[str]:
    errors = []
    for pattern in TUPLE_RULE_GLOBS:
        for path in sorted(root.glob(pattern)):
            tree = ast.parse(path.read_text())
            for qualname, node in _public_functions(tree):
                if _is_tuple_annotation(node.returns):
                    errors.append(
                        f"{path.relative_to(root)}: public callable "
                        f"{qualname!r} is annotated to return a tuple — "
                        "use a named result dataclass instead"
                    )
    return errors


def export_sources(path: Path, package: str) -> dict[str, str]:
    """Each name in a package ``__init__``'s ``__all__``, mapped to the
    module its ``from M import name`` line or ``lazy_exports`` map names
    (the package itself for a name it defines)."""
    module_of: dict[str, str] = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                module_of[alias.asname or alias.name] = node.module
        elif (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Name)
            and node.value.func.id == "lazy_exports"
        ):
            sources = ast.literal_eval(node.value.args[2])
            for module, names in sources.items():
                module_of.update(dict.fromkeys(names, module))
    return {name: module_of.get(name, package) for name in exported_names(path)}


#: Run in a fresh interpreter: resolves every ``package -> {name: module}``
#: entry of its JSON argument and prints the failures as a JSON list.
_RESOLVE = """
import importlib, json, sys
errors = []
for package, sources in json.loads(sys.argv[1]).items():
    for name, source in sources.items():
        try:
            value = getattr(importlib.import_module(package), name)
            held = getattr(importlib.import_module(source), name)
        except Exception as exc:
            errors.append(f"{package}: export {name!r} does not resolve: {exc!r}")
            continue
        if value is not held:
            errors.append(f"{package}: export {name!r} is not {source}.{name}")
print(json.dumps(errors))
"""


def check_exports_resolve(root: Path = REPO_ROOT) -> list[str]:
    src = root / "src"
    exports = {}
    for path in sorted((src / "repro").rglob("__init__.py")):
        package = ".".join(path.parent.relative_to(src).parts)
        exports[package] = export_sources(path, package)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH", "")) if p
    )
    child = subprocess.run(
        [sys.executable, "-c", _RESOLVE, json.dumps(exports)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    if child.returncode != 0:
        return [f"resolving exports failed: {child.stderr.strip()[-2000:]}"]
    return json.loads(child.stdout)


def run_checks(root: Path = REPO_ROOT) -> list[str]:
    return check_documented(root) + check_tuple_returns(root)


def main() -> int:
    errors = run_checks() + check_exports_resolve()
    for error in errors:
        print(error, file=sys.stderr)
    if errors:
        return 1
    exported = sum(len(exported_names(REPO_ROOT / rel)) for rel in PUBLIC_MODULES)
    print(f"API surface OK: {exported} public exports documented, no tuple "
          "returns, every package export resolves")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
