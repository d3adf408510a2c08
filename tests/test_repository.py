"""Rules over the source text of the repository itself."""

import ast
import importlib
import pathlib
import re
from collections import Counter

import pytest

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


def test_console_script_is_the_module_entry():
    """The `laumon` script named in pyproject.toml is the function that
    `python -m laumon` calls, so the two ways in cannot drift apart."""
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["laumon"]
    module, _, name = target.partition(":")
    script = getattr(importlib.import_module(module), name)
    source = (ROOT / "src" / "laumon" / "__main__.py").read_text()
    (guard,) = [node for node in ast.parse(source).body
                if isinstance(node, ast.If)]
    (call,) = [node for node in ast.walk(guard) if isinstance(node, ast.Call)]
    main = importlib.import_module("laumon.__main__")
    assert script is getattr(main, call.func.id)


def test_readme_references_resolve():
    """Every backticked `laumon.<module>` or `laumon.<module>.<name>` in
    README.md, a call's arguments aside, names a module of the package and
    an attribute of it, so the README cannot point at a renamed or deleted
    definition."""
    refs = set(re.findall(r"`laumon\.(\w+)(?:\.(\w+))?(?:\([^`]*\))?`",
                          (ROOT / "README.md").read_text()))
    assert len(refs) > 10
    for module, name in sorted(refs):
        found = importlib.import_module("laumon." + module)
        if name:
            getattr(found, name)


def test_no_module_imports_json_at_module_level():
    """No src/laumon module imports json when it is loaded: a command that
    writes JSON uses the series writer, which takes only the C encoder
    from _json, and one that parses or writes text with json imports it
    inside the function that does, so start-up and memory stay small."""
    found = []
    for path in sorted((ROOT / "src" / "laumon").glob("*.py")):
        todo = list(ast.parse(path.read_text()).body)
        while todo:
            node = todo.pop()
            # a function body runs when called, a class body at load
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                todo.extend(ast.iter_child_nodes(node))
                continue
            found += ["%s:%d" % (path.name, node.lineno) for name in names
                      if name.split(".")[0] == "json"]
    assert not found
