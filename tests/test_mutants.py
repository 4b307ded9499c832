"""tools/mutants.py stays applicable: every recorded mutant's snippet
occurs exactly once in its file under src/, and its pytest selection
names test files that exist.  Running the mutants themselves is left to
the tool."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("mutants",
                                              ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_snippet_occurs_once(mutant):
    text = (ROOT / "src" / mutant.path).read_text(encoding="utf-8")
    assert text.count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet
    for arg in mutant.selection:
        assert (ROOT / arg.split("::")[0]).is_file()
