"""Rules over the source text of the repository itself."""

import ast
import importlib
import pathlib
import re
from collections import Counter

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def is_method(node):
    """A method that is called by its name, not by an operator or by
    Python itself as a dunder is."""
    return (isinstance(node, ast.FunctionDef)
            and not re.fullmatch(r"__\w+__", node.name))


def source_definitions():
    """({name: [definition nodes]}, module-level statements) of src/laumon:
    every top-level function and class and every method `is_method`
    accepts."""
    defs, module_level = {}, []
    for path in sorted((ROOT / "src" / "laumon").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
            else:
                module_level.append(node)
            if isinstance(node, ast.ClassDef):
                for f in filter(is_method, node.body):
                    defs.setdefault(f.name, []).append(f)
    return defs, module_level


def names_read(node):
    """Every name the code of `node` reads: identifiers, attributes, and
    string constants that are identifiers, as `_call("closed_form",
    "verify_theorem_Z")` names its target.  A class's methods are left
    out; each is reached by its own name."""
    found, todo = set(), [node]
    while todo:
        n = todo.pop()
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) \
                and n.value.isidentifier():
            found.add(n.value)
        todo += [c for c in ast.iter_child_nodes(n)
                 if not (isinstance(n, ast.ClassDef) and is_method(c))]
    return found


def test_every_definition_is_referenced():
    """Every top-level function and class and every non-dunder method in
    src/laumon is named, as a whole word, somewhere in src/laumon, tests or
    perfbench besides its own definition: no helper without a caller."""
    text = "\n".join(path.read_text() for folder in ("src/laumon", "tests",
                                                     "perfbench")
                     for path in sorted((ROOT / folder).glob("*.py")))
    defined = set(source_definitions()[0])
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


# each src/laumon definition that no command runs -> what keeps it: the
# benchmark tracer's TARGETS, perfbench/refs.py, the tests that use it as
# a reference, or the kept definition that calls it
UNREACHED = {
    "_check_residue": "count_N1_geq", "boxes": "tests",
    "caps_ok": "from_terms", "coefficient": "tests",
    "count_N1_geq": "TARGETS", "count_N1_gt": "TARGETS",
    "count_N2_geq": "TARGETS", "enumerate_partitions": "TARGETS",
    "factor_base_canonical": "refs.py", "fixed_point_morse_index": "tests",
    "from_json_dict": "TARGETS", "from_terms": "from_json_dict",
    "geometric_inverse": "TARGETS", "invariant_part": "tests",
    "mono": "from_json_dict", "mono_mul": "pochhammer_inverse",
    "mono_pow": "geometric_inverse", "morse_index_formula": "TARGETS",
    "morse_index_from_tangent": "morse_index_oracle",
    "morse_index_oracle": "TARGETS", "occupation": "TARGETS",
    "one": "pochhammer_inverse", "pochhammer_inverse": "TARGETS",
    "restrict": "TARGETS", "sector_index": "TARGETS",
    "substitute": "TARGETS", "tangent_character": "TARGETS",
    "tangent_count": "tests", "to_json_dict": "TARGETS", "truncate": "tests",
    "with_truncation": "truncate",
}


def test_unreached_definitions_are_the_pinned_list():
    """The src/laumon definitions that module-level code and `cli.entry`
    do not reach by name, through the names each reached definition reads,
    are exactly UNREACHED, and each is still named by its keeper.  A new
    helper that only a test calls fails here until it is listed."""
    defs, module_level = source_definitions()
    reached, todo = set(), {"entry"}.union(*map(names_read, module_level))
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.update(*map(names_read, defs.get(name, ())))
    assert sorted(set(defs) - reached) == sorted(UNREACHED)
    tracing = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    (targets,) = [ast.literal_eval(node.value) for node in tracing.body
                  if isinstance(node, ast.Assign)
                  and getattr(node.targets[0], "id", None) == "TARGETS"]
    words = {"TARGETS": {attr.split(".")[-1] for _, attr, _, _ in targets},
             "refs.py": set(re.findall(r"\w+", (
                 ROOT / "perfbench" / "refs.py").read_text())),
             "tests": set(re.findall(r"\w+", "\n".join(
                 path.read_text() for path in (ROOT / "tests").glob("*.py")
                 if path.name != pathlib.Path(__file__).name)))}
    for name, keeper in UNREACHED.items():
        assert name in (words.get(keeper) or set().union(
            *map(names_read, defs[keeper]))), (name, keeper)
