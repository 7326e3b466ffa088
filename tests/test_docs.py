"""The docs site stays honest without needing mkdocs installed.

CI's ``docs`` job builds the site with ``mkdocs build --strict`` (strict
mode turns broken internal links into failures).  That job only runs
where mkdocs is installable; this module re-checks the same invariants
dependency-free so tier-1 catches documentation rot on every run:

* every relative link in ``docs/*.md`` and ``README.md`` resolves to a
  real file, and intra-docs anchors point at a real heading;
* every page ``mkdocs.yml`` navigates to exists;
* the README actually points into ``docs/`` (it is an overview now, not
  the manual);
* code/doc cross-references that the docs lean on (module paths, CLI
  sub-commands) exist in the tree, and every markdown file that the code
  cites exists too.
"""

import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
DOCS = REPO / "docs"

#: [text](target) markdown links, ignoring images and fenced-code blocks.
_LINK = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")

#: A cited markdown path: a name before ``.md``, so globs and bare
#: suffixes do not count.
_MD_CITATION = re.compile(r"[\w./-]*\w\.md\b")


def _strip_fences(text: str) -> str:
    return re.sub(r"```.*?```", "", text, flags=re.S)


def _heading_anchors(md: Path) -> set:
    """GitHub/mkdocs-style slugs for every heading in *md*."""
    anchors = set()
    for line in _strip_fences(md.read_text()).splitlines():
        m = re.match(r"#+\s+(.*)", line)
        if not m:
            continue
        slug = m.group(1).strip().lower()
        slug = re.sub(r"[`*_()`.,:&!?/\"']", "", slug)
        slug = re.sub(r"\s+", "-", slug.strip())
        anchors.add(slug)
    return anchors


def _md_files():
    files = sorted(DOCS.glob("*.md"))
    assert files, "docs/ lost its pages"
    return files + [REPO / "README.md"]


def test_docs_pages_exist():
    names = {p.name for p in DOCS.glob("*.md")}
    assert {
        "index.md",
        "architecture.md",
        "kernels.md",
        "scenarios.md",
        "traces.md",
        "telemetry.md",
        "benchmarks.md",
    } <= names


def test_internal_links_resolve():
    problems = []
    for md in _md_files():
        for target in _LINK.findall(_strip_fences(md.read_text())):
            if re.match(r"[a-z]+://|mailto:", target):
                continue  # external; mkdocs --strict doesn't check these either
            path_part, _, anchor = target.partition("#")
            base = md.parent
            if path_part:
                resolved = (base / path_part).resolve()
                if not resolved.exists():
                    problems.append(f"{md.relative_to(REPO)}: broken link {target!r}")
                    continue
            else:
                resolved = md
            if anchor and resolved.suffix == ".md":
                if anchor not in _heading_anchors(resolved):
                    problems.append(
                        f"{md.relative_to(REPO)}: dead anchor {target!r}"
                    )
    assert not problems, "\n".join(problems)


def test_mkdocs_nav_matches_files():
    cfg = (REPO / "mkdocs.yml").read_text()
    nav_pages = re.findall(r":\s*([\w./-]+\.md)\s*$", cfg, flags=re.M)
    assert nav_pages, "mkdocs.yml lost its nav"
    for page in nav_pages:
        assert (DOCS / page).exists(), f"mkdocs.yml navigates to missing {page}"
    # every docs page is reachable from the nav (no orphan pages)
    orphans = {p.name for p in DOCS.glob("*.md")} - set(nav_pages)
    assert not orphans, f"docs pages missing from mkdocs.yml nav: {orphans}"


def test_readme_points_into_docs():
    readme = (REPO / "README.md").read_text()
    for page in ("docs/architecture.md", "docs/kernels.md", "docs/benchmarks.md"):
        assert page in readme, f"README no longer links to {page}"


def test_doc_code_references_exist():
    """Module paths and CLI sub-commands the docs name must be real."""
    text = "\n".join(p.read_text() for p in _md_files())
    for module in (
        "src/repro/sim/fastpath.py",
        "src/repro/kernels/csrc/sweep.c",
        "src/repro/core/covertable.py",
    ):
        short = module.split("src/repro/")[1].rsplit("/", 1)[-1]
        assert (REPO / module).exists(), f"docs reference a ghost: {module}"
        assert short.split(".")[0] in text, f"docs stopped mentioning {short}"
    from repro.cli import build_parser

    subcommands = {"compare", "deploy", "plan", "control", "matrix",
                   "kernels", "pps-demo", "traces", "record", "replay"}
    help_text = build_parser().format_help()
    for sub in subcommands:
        assert sub in help_text


def test_code_cites_only_existing_markdown():
    """A ``*.md`` path named in code, tests, benchmarks or examples must
    exist, either from the repository root or as a page of ``docs/``."""
    problems = []
    for top in ("src", "tests", "benchmarks", "examples"):
        for path in sorted((REPO / top).rglob("*")):
            if path.suffix not in (".py", ".c"):
                continue
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                for cited in _MD_CITATION.findall(line):
                    if not ((REPO / cited).exists() or (DOCS / cited).exists()):
                        problems.append(
                            f"{path.relative_to(REPO)}:{lineno}: cites {cited}, "
                            "which does not exist"
                        )
    assert not problems, "\n".join(problems)
