"""Documentation must track the code — drift fails CI, not readers.

Four sync contracts, all mechanical:

* **CLI reference** — every ``argparse`` subcommand and every long
  option it accepts (walked from the real parser, so a new flag cannot
  be added without surfacing here) appears in the README's CLI
  reference; and the README never documents an option the parser
  doesn't know.
* **Benchmark citations** — every ``benchmarks/recorded/*.txt`` file
  cited in ``docs/PERFORMANCE.md`` exists, and every recorded
  performance-bench run (the non-figure artifacts the perf docs
  narrate) is actually cited.
* **Links and anchors** — every relative markdown link in ``README.md``
  and ``docs/*.md`` resolves to a real file, and every ``#anchor``
  matches a heading slug in its target.
* **Observability catalog** — every metric and stage name the code
  records (literal ``counter``/``gauge``/``histogram`` registrations
  and ``trace``/``record_stage`` spans in ``src/repro/``) is
  catalogued in ``docs/OBSERVABILITY.md``, and the catalog names no
  metric or stage the code no longer records.

This module is the blocking payload of the CI ``docs`` job.
"""

import re
import pathlib

import pytest

from repro.cli import _build_parser

REPO = pathlib.Path(__file__).resolve().parent.parent
README = REPO / "README.md"
DOCS = sorted((REPO / "docs").glob("*.md"))
RECORDED_DIR = REPO / "benchmarks" / "recorded"

#: Recorded performance-bench runs PERFORMANCE.md must cite (figure
#: reproductions under results/ are experiment outputs, not perf runs).
PERF_RESULT_FILES = (
    "serving.txt",
    "incremental_series.txt",
    "archive_coldstart.txt",
    "obs_overhead.txt",
    "watch_replay.txt",
    "scenario_grid.txt",
)


def _subcommands():
    """{command: [long option strings]} from the real argparse tree."""
    parser = _build_parser()
    subparsers = next(
        action
        for action in parser._actions
        if hasattr(action, "choices") and action.choices
    )
    table = {}
    for name, command in subparsers.choices.items():
        options = []
        for action in command._actions:
            for option in action.option_strings:
                if option.startswith("--"):
                    options.append(option)
        table[name] = options
    return table


def _cli_reference_text():
    """README text from the CLI reference heading to the next heading."""
    text = README.read_text()
    match = re.search(r"^## CLI reference$(.*?)(?=^## )", text, re.M | re.S)
    assert match, "README.md lacks a '## CLI reference' section"
    return match.group(1)


def test_every_subcommand_documented():
    reference = _cli_reference_text()
    for subcommand in _subcommands():
        assert f"`{subcommand}" in reference or f" {subcommand} " in reference, (
            f"subcommand {subcommand!r} missing from the README CLI reference"
        )


def test_every_option_documented():
    reference = _cli_reference_text()
    missing = [
        f"{subcommand} {option}"
        for subcommand, options in _subcommands().items()
        for option in options
        if option != "--help" and option not in reference
    ]
    assert not missing, (
        "CLI options missing from the README CLI reference: "
        + ", ".join(missing)
    )


def test_readme_documents_no_unknown_options():
    """Long options named in the CLI reference must exist in the parser."""
    known = {
        option
        for options in _subcommands().values()
        for option in options
    } | {"--help"}
    documented = set(re.findall(r"(--[a-z][a-z0-9-]+)", _cli_reference_text()))
    unknown = documented - known
    assert not unknown, f"README documents unknown options: {sorted(unknown)}"


def test_performance_doc_citations_exist():
    text = (REPO / "docs" / "PERFORMANCE.md").read_text()
    cited = set(re.findall(r"recorded/([A-Za-z0-9_.]+\.txt)", text))
    assert cited, "docs/PERFORMANCE.md cites no recorded bench runs"
    missing = [name for name in cited if not (RECORDED_DIR / name).exists()]
    assert not missing, (
        f"docs/PERFORMANCE.md cites nonexistent recorded runs: {missing}"
    )


def test_perf_result_files_are_cited():
    text = (REPO / "docs" / "PERFORMANCE.md").read_text()
    for name in PERF_RESULT_FILES:
        assert (RECORDED_DIR / name).exists(), (
            f"expected benchmark artifact benchmarks/recorded/{name} is missing"
        )
        assert f"recorded/{name}" in text, (
            f"benchmarks/recorded/{name} exists but docs/PERFORMANCE.md "
            f"never cites it"
        )


# -- observability catalog ---------------------------------------------------

OBSERVABILITY = REPO / "docs" / "OBSERVABILITY.md"
SRC = REPO / "src" / "repro"

#: Literal metric registrations — ``registry.counter("name")`` and
#: friends.
_METRIC_LITERAL = re.compile(
    r'\.(?:counter|gauge|histogram)\(\s*\n?\s*"([a-z0-9_.]+)"'
)

#: Literal stage names: ``trace("stage")`` spans and
#: ``record_stage("stage", ...)`` calls.
_STAGE_LITERAL = re.compile(
    r'(?:\btrace|\brecord_stage)\(\s*\n?\s*"([a-z0-9_.]+)"'
)

#: A catalog entry in OBSERVABILITY.md: a markdown table row whose
#: first cell is a backticked dotted name.  Other tables in the doc
#: (endpoints, CLI) never lead with a bare dotted identifier.
_CATALOG_ROW = re.compile(r"^\|\s*`([a-z0-9_]+\.[a-z0-9_.]+)`", re.M)


def _names_recorded_in_source() -> set[str]:
    """Every metric and stage name literal in ``src/repro/``.

    The dot requirement filters generic docstring examples; every real
    name is namespaced (``serve.lookups``, ``step3.accumulate``).
    """
    names: set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        names.update(_METRIC_LITERAL.findall(text))
        names.update(_STAGE_LITERAL.findall(text))
    return {name for name in names if "." in name}


def test_observability_catalog_is_complete():
    """Every recorded metric/stage name appears in the doc's tables."""
    catalogued = set(_CATALOG_ROW.findall(OBSERVABILITY.read_text()))
    assert catalogued, "docs/OBSERVABILITY.md has no catalog rows"
    missing = sorted(_names_recorded_in_source() - catalogued)
    assert not missing, (
        "metric/stage names recorded in src/repro but absent from the "
        f"docs/OBSERVABILITY.md catalog: {missing}"
    )


def test_observability_catalog_has_no_ghosts():
    """The doc never catalogs a name the code no longer records."""
    catalogued = set(_CATALOG_ROW.findall(OBSERVABILITY.read_text()))
    ghosts = sorted(catalogued - _names_recorded_in_source())
    assert not ghosts, (
        "docs/OBSERVABILITY.md catalogs metric/stage names no longer "
        f"recorded anywhere in src/repro: {ghosts}"
    )


# -- relative links and anchors ----------------------------------------------

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def _heading_slugs(path: pathlib.Path) -> set[str]:
    """GitHub-style anchor slugs for every heading in *path*."""
    slugs = set()
    in_code = False
    for line in path.read_text().splitlines():
        if line.lstrip().startswith("```"):
            in_code = not in_code
            continue
        if in_code or not line.startswith("#"):
            continue
        title = line.lstrip("#").strip()
        title = re.sub(r"`([^`]*)`", r"\1", title)
        slug = re.sub(r"[^\w\s-]", "", title.lower())
        slug = re.sub(r"\s", "-", slug)
        slugs.add(slug)
    return slugs


def _links(path: pathlib.Path):
    in_code = False
    for line in path.read_text().splitlines():
        if line.lstrip().startswith("```"):
            in_code = not in_code
            continue
        if in_code:
            continue
        yield from _LINK.findall(line)


@pytest.mark.parametrize(
    "document", [README] + DOCS, ids=lambda p: p.name
)
def test_relative_links_resolve(document):
    problems = []
    for target in _links(document):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        path_part, _, anchor = target.partition("#")
        destination = (
            document if not path_part else (document.parent / path_part)
        )
        try:
            resolved = destination.resolve()
        except OSError:
            problems.append(f"{target}: unresolvable")
            continue
        if not resolved.exists():
            problems.append(f"{target}: no such file")
            continue
        if anchor and resolved.suffix == ".md":
            if anchor not in _heading_slugs(resolved):
                problems.append(f"{target}: no heading for #{anchor}")
    assert not problems, (
        f"{document.name} has broken links: " + "; ".join(problems)
    )
