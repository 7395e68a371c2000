#!/usr/bin/env python
"""Docs consistency checker — no build system required.

Verifies, for ``README.md`` and every ``docs/*.md``:

1. every relative markdown link ``[text](target)`` resolves to an
   existing file (external ``http(s)://`` / ``mailto:`` links are
   skipped);
2. every ``#fragment`` — both same-file ``#anchor`` links and
   cross-file ``file.md#anchor`` links — resolves to a heading in the
   target document, using GitHub's heading-slug rules (lowercase,
   punctuation stripped, spaces to dashes, duplicate slugs suffixed
   ``-1``, ``-2``, …);
3. every ``--flag`` named on a ``daas-repro`` command line (including
   backslash-continued lines) or in the first cell of a markdown table
   row (the flag tables) exists as an ``add_argument`` flag in
   ``src/repro/cli.py`` — so the docs cannot drift ahead of or behind
   the CLI, and a deleted flag cannot leave its table row behind;
4. every ``daas-repro <command> [<action>]`` named on a line names a
   subparser that ``src/repro/cli.py`` defines (the action is checked
   for commands that take one, like ``index build``) — so the docs
   cannot name a deleted or renamed command;
5. the query-service route inventory matches both ways: every route
   string literal in ``src/repro/serve/*.py`` appears in
   ``docs/serving.md``, and every ``/v1/...``, ``/healthz``,
   ``/readyz``, ``/statusz`` or ``/metrics`` route the doc mentions
   exists in the serving source — so the API reference cannot document
   a route that was removed, nor silently omit one that shipped;
6. the risk-stage taxonomy is documented: every ``STAGE_*`` literal in
   ``src/repro/risk/signals.py`` is named in ``docs/risk.md``, and
   ``docs/serving.md`` covers the ``schema_version`` response field —
   so the fusion docs cannot drift behind the signal model.

Run directly (``python scripts/check_docs.py``, exits non-zero on
problems) or through ``tests/test_docs.py``, which wires it into the
default pytest run.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_FLAG_RE = re.compile(r"--[a-z][a-z0-9-]*")
_CLI_FLAG_RE = re.compile(r"""["'](--[a-z][a-z0-9-]*)["']""")
_HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
_SLUG_STRIP_RE = re.compile(r"[^\w\- ]")


def doc_files(root: Path = REPO_ROOT) -> list[Path]:
    files = [root / "README.md"]
    files.extend(sorted((root / "docs").glob("*.md")))
    return [f for f in files if f.exists()]


def cli_flags(root: Path = REPO_ROOT) -> set[str]:
    """Every ``--flag`` string literal in the CLI module."""
    source = (root / "src" / "repro" / "cli.py").read_text()
    return set(_CLI_FLAG_RE.findall(source))


def heading_slugs(path: Path) -> set[str]:
    """GitHub-style anchor slugs for every heading in ``path``.

    Lowercase, punctuation stripped, spaces become dashes; a repeated
    heading gets ``-1``, ``-2``, … suffixes like GitHub renders them.
    """
    slugs: set[str] = set()
    seen: dict[str, int] = {}
    for heading in _HEADING_RE.findall(path.read_text()):
        # Strip inline markup (but keep ``_``: identifiers use it).
        text = re.sub(r"[*`]", "", heading.strip())
        text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # link text
        slug = _SLUG_STRIP_RE.sub("", text.lower()).strip().replace(" ", "-")
        n = seen.get(slug, 0)
        seen[slug] = n + 1
        slugs.add(slug if n == 0 else f"{slug}-{n}")
    return slugs


def check_links(path: Path, root: Path = REPO_ROOT) -> list[str]:
    errors = []
    for target in _LINK_RE.findall(path.read_text()):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        file_part, _, fragment = target.partition("#")
        resolved = (path.parent / file_part).resolve() if file_part else path
        if not resolved.exists():
            errors.append(f"{path.relative_to(root)}: broken link -> {target}")
            continue
        if fragment and resolved.suffix == ".md":
            if fragment not in heading_slugs(resolved):
                errors.append(
                    f"{path.relative_to(root)}: dangling anchor -> {target} "
                    f"(no heading slug {fragment!r} in "
                    f"{resolved.relative_to(root)})"
                )
    return errors


def _daas_command_lines(text: str):
    """Lines that are part of a ``daas-repro`` invocation, following
    backslash continuations onto subsequent lines."""
    continued = False
    for line in text.splitlines():
        if continued or "daas-repro" in line:
            yield line
            continued = line.rstrip().endswith("\\")
        else:
            continued = False


def _table_first_cells(text: str):
    """The first cell of every markdown table row."""
    for line in text.splitlines():
        if line.startswith("|"):
            yield line.split("|", 2)[1]


_PARSER_RE = re.compile(
    r"""(\w+)\s*=\s*\w+\.add_subparsers\("""
    r"""|(\w+)\.add_parser\(\s*["']([a-z][a-z0-9-]*)["']"""
)
_DOC_COMMAND_RE = re.compile(
    r"daas-repro[ \t]+([a-z][a-z0-9-]*)(?:[ \t]+([a-z][a-z0-9-]*))?"
)


def cli_commands(root: Path = REPO_ROOT) -> dict[str, set[str]]:
    """Every subcommand ``src/repro/cli.py`` defines, mapped to its
    actions (empty for a command without nested subparsers).  The
    first ``add_subparsers`` holds the commands; each later one holds
    the actions of the command added just before it."""
    source = (root / "src" / "repro" / "cli.py").read_text()
    commands: dict[str, set[str]] = {}
    top = last = None
    owners: dict[str, str | None] = {}
    for match in _PARSER_RE.finditer(source):
        holder, receiver, name = match.groups()
        if holder:
            if top is None:
                top = holder
            else:
                owners[holder] = last
        elif receiver == top:
            commands[name] = set()
            last = name
        elif owners.get(receiver) in commands:
            commands[owners[receiver]].add(name)
    return commands


def check_commands(
    path: Path, commands: dict[str, set[str]], root: Path = REPO_ROOT
) -> list[str]:
    errors = []
    for line in path.read_text().splitlines():
        for command, action in _DOC_COMMAND_RE.findall(line):
            if command not in commands:
                errors.append(
                    f"{path.relative_to(root)}: command daas-repro {command} "
                    "not in repro/cli.py"
                )
            elif commands[command] and action not in commands[command]:
                errors.append(
                    f"{path.relative_to(root)}: command daas-repro {command} "
                    f"{action} not in repro/cli.py"
                )
    return errors


def check_flags(path: Path, known: set[str], root: Path = REPO_ROOT) -> list[str]:
    errors = []
    text = path.read_text()
    for line in (*_daas_command_lines(text), *_table_first_cells(text)):
        for flag in _FLAG_RE.findall(line):
            if flag not in known:
                errors.append(
                    f"{path.relative_to(root)}: flag {flag} not in repro/cli.py"
                )
    return errors


_SOURCE_ROUTE_RE = re.compile(
    r"""["'](/(?:v1/[a-z]+|healthz|readyz|statusz|metrics))"""
)
_DOC_ROUTE_RE = re.compile(r"/(?:v1/[a-z]+|healthz|readyz|statusz|metrics)")


def serve_routes(root: Path = REPO_ROOT) -> set[str]:
    """Every route prefix named in a ``src/repro/serve/*.py`` string
    literal (``/v1/address/{addr}`` counts as ``/v1/address``)."""
    routes: set[str] = set()
    for path in sorted((root / "src" / "repro" / "serve").glob("*.py")):
        routes.update(_SOURCE_ROUTE_RE.findall(path.read_text()))
    return routes


def documented_routes(root: Path = REPO_ROOT) -> set[str]:
    """Every route prefix ``docs/serving.md`` mentions."""
    doc = root / "docs" / "serving.md"
    if not doc.exists():
        return set()
    return set(_DOC_ROUTE_RE.findall(doc.read_text()))


def check_routes(root: Path = REPO_ROOT) -> list[str]:
    """The serving API reference and the serving source must agree on
    the route inventory, both directions."""
    in_code = serve_routes(root)
    in_docs = documented_routes(root)
    errors = []
    for route in sorted(in_code - in_docs):
        errors.append(
            f"docs/serving.md: route {route} exists in src/repro/serve/ "
            "but is not documented"
        )
    for route in sorted(in_docs - in_code):
        errors.append(
            f"docs/serving.md: documents route {route} which no "
            "src/repro/serve/ module serves"
        )
    return errors


_STAGE_LITERAL_RE = re.compile(r'^STAGE_\w+\s*=\s*"([a-z]+)"', re.MULTILINE)


def risk_stages(root: Path = REPO_ROOT) -> set[str]:
    """Every stage literal ``src/repro/risk/signals.py`` defines."""
    source = root / "src" / "repro" / "risk" / "signals.py"
    if not source.exists():
        return set()
    return set(_STAGE_LITERAL_RE.findall(source.read_text()))


def check_risk_docs(root: Path = REPO_ROOT) -> list[str]:
    """``docs/risk.md`` must name every signal stage; ``docs/serving.md``
    must cover the versioned response schema it produces."""
    errors = []
    stages = risk_stages(root)
    risk_doc = root / "docs" / "risk.md"
    if stages and not risk_doc.exists():
        return ["docs/risk.md: missing (src/repro/risk/ defines stage signals)"]
    risk_text = risk_doc.read_text() if risk_doc.exists() else ""
    for stage in sorted(stages):
        if stage not in risk_text:
            errors.append(
                f"docs/risk.md: signal stage {stage!r} "
                "(src/repro/risk/signals.py) is not documented"
            )
    serving_doc = root / "docs" / "serving.md"
    if stages and serving_doc.exists():
        if "schema_version" not in serving_doc.read_text():
            errors.append(
                "docs/serving.md: the schema_version response field is "
                "not documented"
            )
    return errors


def run_checks(root: Path = REPO_ROOT) -> list[str]:
    known = cli_flags(root)
    commands = cli_commands(root)
    errors: list[str] = []
    for path in doc_files(root):
        errors.extend(check_links(path, root))
        errors.extend(check_flags(path, known, root))
        errors.extend(check_commands(path, commands, root))
    errors.extend(check_routes(root))
    errors.extend(check_risk_docs(root))
    return errors


def main() -> int:
    errors = run_checks()
    for error in errors:
        print(error, file=sys.stderr)
    if errors:
        return 1
    print(f"docs OK: {len(doc_files())} files, {len(cli_flags())} CLI flags known")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
