import ast
from pathlib import Path

import pytest

SOURCES = sorted(p for p in (Path(__file__).parent.parent / "src" / "schreierlab")
                 .glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by top-level imports that the module never reads and
    does not list in __all__ (`from __future__` imports are directives)."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_the_check_sees_an_unused_import():
    src = ("from __future__ import annotations\nimport math\nimport os.path\n"
           "from a import b as c, d\n__all__ = ['d']\nos.sep\n")
    assert unused_imports(src) == [(2, "math"), (4, "c")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_families_steps_the_cursor_by_hand(path):
    # every other module lists S_alpha members through families._walk
    imported = {alias.name for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert path.name == "families.py" or "_cursor_step" not in imported


def readers(path, name):
    """(module, top-level definition) pairs whose code reads `name`, by
    name, attribute or import."""
    found = set()
    for node in ast.parse(path.read_text()).body:
        for n in ast.walk(node):
            if (isinstance(n, ast.Name) and n.id == name
                    and isinstance(n.ctx, ast.Load)
                    or isinstance(n, ast.Attribute) and n.attr == name
                    or isinstance(n, ast.alias) and n.name == name):
                found.add((path.name, getattr(node, "name", None)))
    return found


def test_only_sign_patterns_reads_the_pattern_bound():
    # the witnesses of the dual bounds' lower end are the one place that
    # knows where the sign patterns stop
    assert set().union(*(readers(p, "PATTERN_BOUND") for p in SOURCES)) == {
        ("spaces.py", "_sign_patterns")}
