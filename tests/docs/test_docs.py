"""The docs subsystem is generated-checked: references cannot rot silently.

* every dotted code reference in ``docs/paper-map.md`` must import (module,
  class, function, or method);
* every repo-relative path mentioned in any ``docs/*.md`` or the README must
  exist;
* every intra-repo markdown link (``[text](target)``) must resolve;
* the docs the README promises actually exist and are linked;
* every span name the code opens has a row in ``docs/observability.md``;
* the metric table of ``docs/observability.md`` names exactly the metric
  families the server's ``metrics`` verb emits.
"""

import asyncio
import importlib
import os
import re

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
DOCS = os.path.join(REPO, "docs")

DOC_FILES = [
    os.path.join(DOCS, name) for name in sorted(os.listdir(DOCS)) if name.endswith(".md")
] + [os.path.join(REPO, "README.md")]

#: dotted references in backticks: repro.pkg.module.Attr[.method]
_CODE_REF = re.compile(r"`(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)`")
#: repo-relative paths in backticks (tests/..., benchmarks/..., src/..., docs/...)
_PATH_REF = re.compile(r"`((?:tests|benchmarks|src|docs|examples)/[^`]+\.(?:py|md|txt|json))`")
#: markdown links, excluding external schemes and anchors
_LINK = re.compile(r"\[[^\]]*\]\(([^)#][^)]*)\)")
#: literal span names opened in the code: ``.span("name"`` (possibly wrapped)
_SPAN_OPEN = re.compile(r"\.span\(\s*\"([a-z_]+\.[a-z_]+)\"")
#: first-column span names of the observability span table
_SPAN_ROW = re.compile(r"^\| `([a-z_]+\.[a-z_<>]+)` \|", re.MULTILINE)
#: first cells of the observability metric table (one or more metric names)
_METRIC_CELL = re.compile(r"^\| (`[a-z_]+(?:\{[a-z,]+\})?`.*?) \| (?:counter|gauge|histogram) \|", re.MULTILINE)
#: a metric family name in backticks, labels stripped
_METRIC_NAME = re.compile(r"`([a-z_]+)(?:\{[a-z,]+\})?`")


def _read(path):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _resolve_dotted(dotted):
    """Import a dotted reference, peeling attributes off the right."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        module_name = ".".join(parts[:split])
        try:
            obj = importlib.import_module(module_name)
        except ImportError:
            continue
        for attribute in parts[split:]:
            obj = getattr(obj, attribute)  # raises AttributeError on drift
        return obj
    raise ImportError(f"no importable prefix in {dotted!r}")


def test_docs_directory_has_the_promised_files():
    for name in ("paper-map.md", "protocol.md", "operations.md"):
        assert os.path.exists(os.path.join(DOCS, name)), f"docs/{name} missing"


@pytest.mark.parametrize("path", DOC_FILES, ids=[os.path.basename(p) for p in DOC_FILES])
def test_code_references_resolve(path):
    text = _read(path)
    refs = sorted(set(_CODE_REF.findall(text)))
    if os.path.basename(path) == "paper-map.md":
        assert len(refs) >= 30, "paper-map should reference the whole core surface"
    for dotted in refs:
        try:
            _resolve_dotted(dotted)
        except (ImportError, AttributeError) as exc:
            pytest.fail(f"{os.path.basename(path)}: unresolvable reference {dotted!r}: {exc}")


@pytest.mark.parametrize("path", DOC_FILES, ids=[os.path.basename(p) for p in DOC_FILES])
def test_repo_paths_exist(path):
    text = _read(path)
    for relative in sorted(set(_PATH_REF.findall(text))):
        assert os.path.exists(os.path.join(REPO, relative)), (
            f"{os.path.basename(path)} mentions {relative}, which does not exist"
        )


@pytest.mark.parametrize("path", DOC_FILES, ids=[os.path.basename(p) for p in DOC_FILES])
def test_intra_repo_links_resolve(path):
    text = _read(path)
    for target in _LINK.findall(text):
        if "://" in target or target.startswith("mailto:"):
            continue
        resolved = os.path.normpath(os.path.join(os.path.dirname(path), target))
        assert os.path.exists(resolved), (
            f"{os.path.basename(path)}: broken intra-repo link {target!r}"
        )


def test_paper_map_covers_the_named_paper_artifacts():
    """The ISSUE-level contract: the named artifacts all have a row."""
    text = _read(os.path.join(DOCS, "paper-map.md"))
    for artifact in (
        "Figure 3 deduction rules",
        "saturation",
        "Sketches",
        "lattice",
        "REFINEPARAMETERS",
    ):
        assert artifact.lower() in text.lower(), f"paper-map lacks {artifact!r}"


def test_readme_links_the_docs():
    text = _read(os.path.join(REPO, "README.md"))
    for name in ("docs/paper-map.md", "docs/protocol.md", "docs/operations.md"):
        assert name in text, f"README does not link {name}"


def test_every_span_the_code_opens_is_in_the_span_table():
    documented = set(_SPAN_ROW.findall(_read(os.path.join(DOCS, "observability.md"))))
    opened = set()
    for root, _, names in os.walk(os.path.join(REPO, "src", "repro")):
        for name in names:
            if name.endswith(".py"):
                opened.update(_SPAN_OPEN.findall(_read(os.path.join(root, name))))
    assert {"service.display", "typegen.interface"} <= opened
    assert opened <= documented, f"undocumented spans: {sorted(opened - documented)}"


def test_metric_table_names_exactly_the_emitted_families():
    """A documented metric the server never emits, or an undocumented one, fails.

    One ping (a request and its latency), one unknown-program query (an
    error) and one analyze shed by ``max_pending=0`` (a shed) give every
    per-server counter an entry; the owner-read rows are always present.
    """
    from repro.server import ServerConfig, TypeQueryServer, protocol

    async def emitted():
        server = TypeQueryServer(ServerConfig(port=0, max_pending=0))
        await server.start()
        try:
            for op, params in (
                ("ping", {}),
                ("query", {"program_id": "none"}),
                ("analyze", {"source": "f:\n    ret\n"}),
            ):
                await server._respond(protocol.encode(protocol.make_request(op, params, 1)))
            return {name for name, _, _, _ in server._metric_rows()}
        finally:
            await server.aclose()

    text = _read(os.path.join(DOCS, "observability.md"))
    documented = {
        name for cell in _METRIC_CELL.findall(text) for name in _METRIC_NAME.findall(cell)
    }
    assert documented == asyncio.run(emitted())
