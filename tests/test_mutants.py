"""The mutation gate's table stays applicable: tools/mutants.py runs the
mutants themselves; these checks keep a refactor from leaving it stale."""
from __future__ import annotations

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_every_mutant_applies_exactly_once():
    assert mutants.stale(mutants.MUTANTS) == []
    # a refactor that removes a mutant's old text stops the gate
    gone = mutants.Mutant("gone", "src/pow2sums/cli.py", "no such line", "", ("t",))
    assert mutants.stale([gone]) == ["gone: old text occurs 0 times in src/pow2sums/cli.py, not once"]
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)


def test_every_mutant_names_existing_tests():
    for m in mutants.MUTANTS:
        assert m.tests, m.name
        for node in m.tests:
            path, name = node.split("::")
            assert re.search(rf"^def {name}\(", (ROOT / path).read_text(), re.M), (m.name, node)
