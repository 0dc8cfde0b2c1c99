"""The docs cite only what exists: every ``repro.*`` dotted name and every
backticked repo path in README.md, DESIGN.md and EXPERIMENTS.md resolves,
and every script a CI step runs is a file, so a deletion fails here until
its docs and CI follow."""

import pkgutil
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")


def cited(pattern):
    return sorted(
        {(doc, m) for doc in DOCS for m in re.findall(pattern, (ROOT / doc).read_text())}
    )


@pytest.mark.parametrize("doc, dotted", cited(r"\brepro(?:\.\w+)+"))
def test_dotted_name_resolves(doc, dotted):
    pkgutil.resolve_name(dotted)


@pytest.mark.parametrize(
    "doc, cite",
    [
        (doc, span)
        for doc, span in cited(r"`([^`\s]+)`")
        if "/" in span or re.search(r"\.(py|md|json|toml)(::\w+)?$", span)
    ],
)
def test_repo_path_resolves(doc, cite):
    path, _, member = cite.partition("::")
    pattern = re.sub(r"<\w+>", "*", path).rstrip("/")
    if "/" not in pattern:                        # a bare file name
        pattern = f"**/{pattern}"
    hits = [p for base in (ROOT, ROOT / "src" / "repro") for p in base.glob(pattern)]
    assert hits, f"{doc} cites missing path {cite}"
    if member:
        assert re.search(rf"^\s*(def|class) {member}\b", hits[0].read_text(), re.M), (
            f"{doc} cites {cite}, but {path} defines no {member}"
        )


def ci_run_scripts():
    """Every ``*.py`` token of a ``run:`` step in the CI workflow, a
    ``run: |`` block included; tokens with a ``$`` are built at run time
    and skipped.  Line-based, so the test job needs no YAML parser."""
    lines = (ROOT / ".github" / "workflows" / "ci.yml").read_text().splitlines()
    scripts = set()
    for i, line in enumerate(lines):
        m = re.match(r"(\s*)(?:- )?run:\s*(.*)$", line)
        if not m:
            continue
        indent, body = len(m.group(1)), [m.group(2)]
        if m.group(2) in ("|", ">"):
            for more in lines[i + 1 :]:
                if more.strip() and len(more) - len(more.lstrip()) <= indent:
                    break
                body.append(more)
        for token in " ".join(body).split():
            token = token.strip("\"'")
            if token.endswith(".py") and "$" not in token:
                scripts.add(token)
    return sorted(scripts)


@pytest.mark.parametrize("script", ci_run_scripts())
def test_ci_runs_existing_script(script):
    assert (ROOT / script).is_file(), f"ci.yml runs missing script {script}"
