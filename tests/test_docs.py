"""Documentation is part of tier-1: examples must run, links must resolve.

Thin pytest wrapper around ``tools/check_docs.py`` (which CI also runs
directly) so a broken fenced example or dead intra-repo link fails the
ordinary test suite with a per-file breakdown.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from check_docs import check_examples, check_links, doc_files, fenced_blocks  # noqa: E402

DOCS = doc_files()


def test_doc_set_is_complete():
    names = {p.name for p in DOCS}
    assert {"README.md", "architecture.md", "api.md", "experiments.md"} <= names


@pytest.mark.parametrize("path", DOCS, ids=lambda p: p.name)
def test_examples_run(path):
    errors = check_examples(path)
    assert not errors, "\n".join(errors)


@pytest.mark.parametrize("path", DOCS, ids=lambda p: p.name)
def test_intra_repo_links_resolve(path):
    errors = check_links(path)
    assert not errors, "\n".join(errors)


def test_fence_parser_sees_examples():
    """Guard against the checker silently checking nothing."""
    readme_blocks = fenced_blocks((Path(__file__).parents[1] / "README.md").read_text())
    assert any(lang == "python" and ">>>" in body for lang, _, body in readme_blocks)


def test_unclosed_fence_is_an_error(tmp_path):
    """A missing closing fence must fail the check, not silently skip
    the block and everything after it."""
    with pytest.raises(ValueError, match="unclosed code fence"):
        fenced_blocks("text\n```python\n>>> broken\n")
    doc = tmp_path / "doc.md"
    doc.write_text("```python\n>>> 1 + 1\n3\n")
    errors = check_examples(doc)
    assert errors and "unclosed" in errors[0]


def test_grid_field_table_documents_every_key():
    """Each axis's row of the ``docs/experiments.md`` field table names
    every key and shortcut its ``_AXES`` row accepts.  (The controller
    row delegates to ``resolve_controller``; its keys are the
    ``ControllerConfig`` fields documented in ``docs/tuning.md``.)"""
    from repro.experiments.campaign import _AXES

    text = (Path(__file__).parents[1] / "docs" / "experiments.md").read_text()
    rows = {
        line.split("|")[1].strip().strip("`"): line
        for line in text.splitlines()
        if line.startswith("| `")
    }
    missing = {
        axis: sorted(
            key
            for key in (*row.keys, *row.shortcuts, *([row.label_key] if row.keys else []))
            if f'"{key}"' not in rows[axis] and f"`{key}`" not in rows[axis]
        )
        for axis, row in _AXES.items()
    }
    assert not any(missing.values()), missing
