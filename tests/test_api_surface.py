"""The redesigned public API stays documented, tuple-free and resolvable.

Wraps ``scripts/check_api_surface.py`` (which also runs standalone) into
the default pytest tier, next to ``test_docs.py`` and
``test_metrics_catalog.py``: adding an ``__all__`` export without
documenting it, annotating a public pipeline/runtime callable to
return a bare tuple, or exporting a name that does not resolve to its
defining module's object fails CI.
"""

from __future__ import annotations

import importlib.util
import shutil
from pathlib import Path

_REPO = Path(__file__).parent.parent
_SCRIPT = _REPO / "scripts" / "check_api_surface.py"

spec = importlib.util.spec_from_file_location("check_api_surface", _SCRIPT)
check_api_surface = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_api_surface)


def test_public_surface_documented_and_tuple_free():
    assert check_api_surface.run_checks() == []


def test_checker_catches_undocumented_export(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "src" / "repro" / "runtime").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "__init__.py").write_text(
        '__all__ = ["Documented", "Ghost"]\n'
    )
    (tmp_path / "src" / "repro" / "api.py").write_text("__all__ = []\n")
    (tmp_path / "src" / "repro" / "runtime" / "__init__.py").write_text(
        "__all__ = []\n"
    )
    (tmp_path / "README.md").write_text("Only `Documented` is described.\n")
    errors = check_api_surface.run_checks(tmp_path)
    assert any("'Ghost'" in e for e in errors)
    assert not any("'Documented'" in e for e in errors)


def test_checker_catches_tuple_return(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "src" / "repro" / "runtime").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "__init__.py").write_text("__all__ = []\n")
    (tmp_path / "src" / "repro" / "runtime" / "__init__.py").write_text(
        "__all__ = []\n"
    )
    (tmp_path / "src" / "repro" / "api.py").write_text(
        "def bad() -> tuple[int, str]: ...\n"
        "def also_bad() -> tuple: ...\n"
        "def fine() -> 'tuple[int, ...]': ...\n"
        "def _private() -> tuple: ...\n"
        "class Thing:\n"
        "    def bad_method(self) -> 'Tuple[int, int]': ...\n"
        "__all__ = []\n"
    )
    errors = check_api_surface.run_checks(tmp_path)
    flagged = " ".join(errors)
    assert "'bad'" in flagged
    assert "'also_bad'" in flagged
    assert "'Thing.bad_method'" in flagged
    assert "'fine'" not in flagged
    assert "_private" not in flagged


def test_every_package_export_resolves():
    assert check_api_surface.check_exports_resolve() == []


def test_checker_catches_unresolvable_lazy_export(tmp_path):
    pkg = tmp_path / "src" / "repro"
    (pkg / "lazy").mkdir(parents=True)
    (pkg / "__init__.py").write_text(
        "from repro.lazy.parts import Eager\n__all__ = ['Eager']\n"
    )
    shutil.copy(_REPO / "src" / "repro" / "_lazy.py", pkg / "_lazy.py")
    (pkg / "lazy" / "parts.py").write_text("Eager = object()\nPart = object()\n")
    (pkg / "lazy" / "__init__.py").write_text(
        "from repro._lazy import lazy_exports\n"
        "__all__ = ['Part', 'Prat', 'Unmapped']\n"
        "__getattr__ = lazy_exports(__name__, globals(), {\n"
        "    'repro.lazy.parts': ('Part', 'Prat'),\n"
        "})\n"
    )
    errors = " ".join(check_api_surface.check_exports_resolve(tmp_path))
    assert "repro.lazy: export 'Prat' does not resolve" in errors
    assert "repro.lazy: export 'Unmapped' does not resolve" in errors
    assert "'Part'" not in errors
    assert "'Eager'" not in errors
