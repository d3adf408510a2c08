"""Rules over the source text of the repository itself."""

import ast
import pathlib
import re
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_every_definition_is_referenced():
    """Every top-level function and class and every non-dunder method in
    src/laumon is named, as a whole word, somewhere in src/laumon, tests or
    perfbench besides its own definition: no helper without a caller."""
    text = "\n".join(path.read_text() for folder in ("src/laumon", "tests",
                                                     "perfbench")
                     for path in sorted((ROOT / folder).glob("*.py")))
    defined = set()
    for path in (ROOT / "src" / "laumon").glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            if isinstance(node, ast.ClassDef):
                defined.update(f.name for f in node.body
                               if isinstance(f, ast.FunctionDef)
                               and not re.fullmatch(r"__\w+__", f.name))
    words = Counter(re.findall(r"\w+", text))
    definitions = Counter(re.findall(r"\b(?:def|class)\s+(\w+)", text))
    assert len(defined) > 100
    unreferenced = sorted(name for name in defined
                          if words[name] <= definitions[name])
    assert not unreferenced
