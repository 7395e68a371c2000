"""Lazy package exports (PEP 562).

A package ``__init__`` that re-exports its submodules' names eagerly
makes ``import repro.core.dataset`` pay for every sibling module and
everything they import.  :func:`lazy_exports` builds the package's
module-level ``__getattr__`` instead: a name is imported from its
submodule on first access and stored in the package's globals, so the
second access is a plain dict hit and never calls back here.
``__all__`` stays the literal list it was, and ``from pkg import *``
resolves every name through the same hook.

``scripts/check_api_surface.py`` resolves every exported name in a
fresh interpreter, so a map entry naming a moved or misspelt attribute
fails CI instead of its first caller.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable


def lazy_exports(
    package: str, namespace: dict[str, Any], sources: dict[str, tuple[str, ...]]
) -> Callable[[str], Any]:
    """The ``__getattr__`` for ``package``: each name in ``sources``
    (submodule path -> names) is imported on first use and cached in
    ``namespace`` (the package's ``globals()``)."""
    module_of = {name: module for module, names in sources.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = module_of.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(module), name)
        namespace[name] = value
        return value

    return __getattr__
