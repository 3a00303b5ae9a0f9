"""Every function, class and method that src/ietpc defines is reached from
somewhere other than the tests: src, the demos, the bench or the README.

A name passes when it occurs, as a whole word, more often in those files
than src/ietpc defines it.  Dunder methods are called by Python itself and
are left out.  A helper that only tests reach fails here; delete it and
port its tests to what stays.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ietpc"
DEFINITIONS = (ast.FunctionDef, ast.ClassDef)


def _defined_names() -> Counter:
    """How many times src/ietpc defines each non-dunder name."""
    names = Counter()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, DEFINITIONS) and not (
                    node.name.startswith("__") and node.name.endswith("__")):
                names[node.name] += 1
    return names


def _reaching_text() -> str:
    """src/ietpc, the demos, the bench and the README, as one text."""
    paths = [*SRC.glob("*.py"), *(ROOT / "demos").glob("*.py"),
             *(ROOT / "bench").glob("*.py"), ROOT / "README.md"]
    return "\n".join(p.read_text(encoding="utf-8") for p in paths)


def test_every_src_definition_is_reached_outside_the_tests():
    uses = Counter(re.findall(r"\w+", _reaching_text()))
    unreached = sorted(name for name, count in _defined_names().items()
                       if uses[name] <= count)
    assert not unreached, f"only the tests reach {unreached}"
