"""Docs stay consistent with the code: links resolve, CLI flags exist
(on command lines and in flag tables), every ``daas-repro`` command
named exists, and the serving route inventory matches docs/serving.md
both ways.

Wraps ``scripts/check_docs.py`` (which also runs standalone) into the
default pytest tier so a renamed doc or a dropped CLI flag fails CI.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).parent.parent / "scripts" / "check_docs.py"

spec = importlib.util.spec_from_file_location("check_docs", _SCRIPT)
check_docs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_docs)


def test_docs_exist():
    names = {p.name for p in check_docs.doc_files()}
    assert {
        "README.md", "architecture.md", "observability.md",
        "runtime.md", "calibration.md",
    } <= names


def test_all_doc_links_resolve_and_flags_exist():
    assert check_docs.run_checks() == []


def test_checker_catches_broken_link(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "cli.py").write_text('p.add_argument("--real")\n')
    (tmp_path / "README.md").write_text(
        "[gone](docs/missing.md)\n"
        "    daas-repro build-dataset --imaginary \\\n"
        "        --real\n"
    )
    errors = check_docs.run_checks(tmp_path)
    assert any("missing.md" in e for e in errors)
    assert any("--imaginary" in e for e in errors)
    assert not any("--real" in e for e in errors)


def test_checker_catches_stale_table_flag(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "cli.py").write_text('p.add_argument("--real")\n')
    (tmp_path / "docs" / "a.md").write_text(
        "| flag | meaning |\n"
        "|---|---|\n"
        "| `--real N` | kept; only the first cell is checked: `--prose` |\n"
        "| `--gone N` | deleted from the CLI |\n"
    )
    errors = check_docs.run_checks(tmp_path)
    assert errors == ["docs/a.md: flag --gone not in repro/cli.py"]


def test_checker_catches_deleted_subcommand(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "cli.py").write_text(
        'sub = parser.add_subparsers(dest="command", required=True)\n'
        'p = sub.add_parser("index", help="index files")\n'
        'isub = p.add_subparsers(dest="action", required=True)\n'
        'b = isub.add_parser("build")\n'
        'p = sub.add_parser("live-status")\n'
    )
    (tmp_path / "docs" / "a.md").write_text(
        "    daas-repro index build\n"
        "    daas-repro live-status http://127.0.0.1:8321\n"
        "    daas-repro index serve-status /var/run/daas-status\n"
        "Prose naming `daas-repro serve-status` counts too.\n"
    )
    errors = check_docs.run_checks(tmp_path)
    assert errors == [
        "docs/a.md: command daas-repro index serve-status not in repro/cli.py",
        "docs/a.md: command daas-repro serve-status not in repro/cli.py",
    ]


def test_checker_skips_external_links(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "cli.py").write_text("")
    (tmp_path / "docs" / "a.md").write_text(
        "# Top\n[web](https://example.com/x#frag) [mail](mailto:a@b.c)\n"
    )
    assert check_docs.run_checks(tmp_path) == []


def test_checker_resolves_anchors(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "cli.py").write_text("")
    (tmp_path / "docs" / "a.md").write_text(
        "# Hot reload!\n## Hot reload!\n"
        "[ok](#hot-reload) [dup](#hot-reload-1) [other](b.md#rate-limits)\n"
    )
    (tmp_path / "docs" / "b.md").write_text("## Rate limits\n")
    assert check_docs.run_checks(tmp_path) == []


def test_checker_catches_dangling_anchor(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "cli.py").write_text("")
    (tmp_path / "docs" / "a.md").write_text(
        "# Real heading\n[bad](#no-such-section) [cross](b.md#also-missing)\n"
    )
    (tmp_path / "docs" / "b.md").write_text("# Something else\n")
    errors = check_docs.run_checks(tmp_path)
    assert any("dangling anchor -> #no-such-section" in e for e in errors)
    assert any("dangling anchor -> b.md#also-missing" in e for e in errors)


def test_route_inventory_matches_both_ways():
    """The live repo: serving source and docs/serving.md agree."""
    in_code = check_docs.serve_routes()
    assert {"/v1/address", "/v1/domain", "/v1/screen", "/v1/families",
            "/v1/index", "/healthz"} <= in_code
    assert check_docs.check_routes() == []


def _route_fixture(tmp_path, source: str, doc: str):
    serve_dir = tmp_path / "src" / "repro" / "serve"
    serve_dir.mkdir(parents=True)
    (serve_dir / "server.py").write_text(source)
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "serving.md").write_text(doc)
    return tmp_path


def test_checker_catches_undocumented_route(tmp_path):
    root = _route_fixture(
        tmp_path,
        'ROUTES = ["/v1/address/{a}", "/v1/screen", "/healthz"]\n',
        "# Serving\n`GET /v1/address/0x..` and `GET /healthz`.\n",
    )
    errors = check_docs.check_routes(root)
    assert any("/v1/screen" in e and "not documented" in e for e in errors)
    assert not any("/v1/address" in e for e in errors)


def test_checker_catches_phantom_documented_route(tmp_path):
    root = _route_fixture(
        tmp_path,
        'ROUTES = ["/healthz"]\n',
        "# Serving\n`GET /v1/ghost` and `GET /healthz`.\n",
    )
    errors = check_docs.check_routes(root)
    assert any("/v1/ghost" in e and "no src/repro/serve" in e for e in errors)


def test_heading_slugs_follow_github_rules(tmp_path):
    doc = tmp_path / "x.md"
    doc.write_text(
        "# The `IntelIndex` format, v1\n"
        "## Hot reload\n"
        "## Hot reload\n"
        "### daas_serve_* metrics\n"
    )
    slugs = check_docs.heading_slugs(doc)
    assert "the-intelindex-format-v1" in slugs
    assert {"hot-reload", "hot-reload-1"} <= slugs
    assert "daas_serve_-metrics" in slugs
