"""Documentation gates: links resolve, the docs cover the code.

The docs tree is part of the contract: every relative link in
README/ROADMAP/docs must point at a real file, the paper map must cover
every package and module under ``src/repro``, the benchmark reference
must document every ``BENCH_*.json`` trajectory, the metric catalogue
must list exactly the metrics the code registers, every documented
``repro-fib`` command line must parse, and the doctest examples
embedded in the docs must actually run (CI runs these same checks in
its docs job).
"""

from __future__ import annotations

import doctest
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

REPO = Path(__file__).resolve().parent.parent
DOC_FILES = sorted(
    [REPO / "README.md", REPO / "ROADMAP.md"] + list((REPO / "docs").glob("*.md"))
)

# [text](target) — target split from an optional #anchor or "title".
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")


def _links(path: Path):
    for target in _LINK.findall(path.read_text()):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        yield target.split("#", 1)[0]


def test_docs_tree_exists():
    for name in ("architecture.md", "paper-map.md", "benchmarks.md"):
        assert (REPO / "docs" / name).is_file(), f"docs/{name} missing"


@pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.relative_to(REPO).as_posix())
def test_relative_links_resolve(path):
    for target in _links(path):
        if not target:
            continue  # pure-anchor link into the same file
        resolved = (path.parent / target).resolve()
        assert resolved.exists(), (
            f"{path.relative_to(REPO)} links to {target!r}, which does not exist"
        )


def test_paper_map_covers_every_package_and_module():
    text = (REPO / "docs" / "paper-map.md").read_text()
    src = REPO / "src" / "repro"
    for package in sorted(p for p in src.iterdir() if (p / "__init__.py").is_file()):
        assert f"repro.{package.name}" in text, (
            f"docs/paper-map.md misses the package repro.{package.name}"
        )
        for module in sorted(package.glob("*.py")):
            if module.name == "__init__.py":
                continue
            assert f"{package.name}/{module.name}" in text, (
                f"docs/paper-map.md misses {package.name}/{module.name}"
            )
    assert "cli.py" in text  # the one top-level module


def test_architecture_covers_every_package():
    text = (REPO / "docs" / "architecture.md").read_text()
    src = REPO / "src" / "repro"
    for package in sorted(p for p in src.iterdir() if (p / "__init__.py").is_file()):
        assert package.name in text, (
            f"docs/architecture.md misses the {package.name} layer"
        )


def test_benchmarks_doc_covers_every_trajectory():
    text = (REPO / "docs" / "benchmarks.md").read_text()
    for trajectory in (
        "BENCH_pipeline.json",
        "BENCH_serve.json",
        "BENCH_cluster.json",
        "BENCH_workers.json",
        "BENCH_faults.json",
        "BENCH_autoscale.json",
    ):
        assert trajectory in text, f"docs/benchmarks.md misses {trajectory}"
        assert (REPO / trajectory).is_file(), f"{trajectory} baseline not committed"
    for floor in ("1.5x", "2.5x", "2.0x", "30%", "90%"):
        assert floor in text, f"docs/benchmarks.md misses the {floor} floor"
    for field in ("wall_seconds", "spawn_seconds", "attach_seconds", "gated"):
        assert field in text, f"docs/benchmarks.md misses WorkerReport field {field}"


# obs.counter("name", ...) / .gauge / .histogram, the name possibly on
# the next line.
_REGISTERED = re.compile(r"\.(?:counter|gauge|histogram)\(\s*\"([a-z0-9_]+)\"")


def _catalogued_metrics():
    """Every backticked name in the first column of the catalogue
    tables of docs/observability.md (header rows excluded)."""
    text = (REPO / "docs" / "observability.md").read_text()
    catalogue = text.split("## Metric catalogue", 1)[1].split("\n## ", 1)[0]
    names = set()
    for line in catalogue.splitlines():
        if line.startswith("|") and not line.startswith(("| metric", "|---")):
            names.update(re.findall(r"`([a-z0-9_]+)`", line.split("|")[1]))
    return names


def test_metric_catalogue_matches_the_registered_metrics():
    registered = set()
    for module in (REPO / "src" / "repro").rglob("*.py"):
        registered.update(_REGISTERED.findall(module.read_text()))
    catalogued = _catalogued_metrics()
    assert registered, "no obs.counter/gauge/histogram call found under src/repro"
    assert not registered - catalogued, (
        f"docs/observability.md misses {sorted(registered - catalogued)}"
    )
    assert not catalogued - registered, (
        f"docs/observability.md lists unregistered {sorted(catalogued - registered)}"
    )


@pytest.mark.parametrize(
    "name", ["architecture.md", "benchmarks.md"], ids=lambda n: n
)
def test_docs_code_blocks_run(name):
    results = doctest.testfile(
        str(REPO / "docs" / name), module_relative=False, verbose=False
    )
    assert results.failed == 0, f"{results.failed} doctest failure(s) in docs/{name}"
    assert results.attempted > 0, f"no doctest examples found in docs/{name}"


# A shell line in a fenced code block that runs the CLI: an optional
# "$ " prompt and VAR=value assignments, then the command at the start
# of the line (which leaves out the README's alias line and the
# architecture diagram's indented "repro-fib CLI" box).
_CLI_LINE = re.compile(
    r"^(?:\$ )?(?:[A-Z_]+=\S* )*(?:repro-fib|python -m repro\.cli)(?: |$)(.*)$"
)


def _documented_cli_lines():
    """``(file, line number, argv)`` of every CLI shell line in the
    code blocks of README.md and docs/*.md."""
    found = []
    for path in [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]:
        fenced = False
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if line.startswith("```"):
                fenced = not fenced
                continue
            match = _CLI_LINE.match(line) if fenced else None
            if match:
                argv = shlex.split(match.group(1), comments=True)
                found.append((path.relative_to(REPO).as_posix(), number, argv))
    return found


def test_documented_commands_parse():
    lines = _documented_cli_lines()
    assert any(name == "README.md" for name, _, _ in lines), "no CLI line in README.md"
    parser = build_parser()
    for name, number, argv in lines:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"{name}:{number}: repro-fib {shlex.join(argv)} does not parse")
