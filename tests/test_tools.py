"""The API doc generator tool."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).parent.parent


def _module_headings(text: str) -> set:
    return set(re.findall(r"^## `(repro(?:\.\w+)*)`$", text, flags=re.MULTILINE))


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    target = tmp_path_factory.mktemp("api") / "api.md"
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "gen_api_docs.py"), str(target)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return target.read_text()


def test_gen_api_docs_runs_and_covers_packages(generated):
    for section in (
        "## `repro.mst.llp_prim`",
        "## `repro.llp.core`",
        "## `repro.runtime.simulated`",
        "### `def llp_boruvka",
        "### `class CSRGraph",
    ):
        assert section in generated, f"missing {section!r}"


def test_committed_api_docs_exist():
    committed = REPO / "docs" / "api.md"
    assert committed.exists()
    assert "API reference" in committed.read_text()[:200]


def test_committed_api_docs_list_the_generated_modules(generated):
    # Module names only: signature text may render differently across
    # Python versions, the set of documented modules does not.
    committed = (REPO / "docs" / "api.md").read_text()
    assert _module_headings(committed) == _module_headings(generated), (
        "docs/api.md is stale; run python tools/gen_api_docs.py docs/api.md"
    )
