import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

from schreierlab.families import ResourceBoundError

ROOT = Path(__file__).parent.parent
SOURCES = sorted(p for p in (ROOT / "src" / "schreierlab").glob("*.py")
                 if p.name != "__init__.py")


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
    # every other module reads S_alpha members through families._walk or
    # families._fold
    imported = {alias.name for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert path.name == "families.py" or "_cursor_step" not in imported


def cursor_key_reads(source):
    """The lines that read a `_key` attribute, directly or by getattr."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source))
                  if isinstance(n, ast.Attribute) and n.attr == "_key"
                  and isinstance(n.ctx, ast.Load)
                  or isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                  and n.func.id == "getattr" and len(n.args) > 1
                  and isinstance(n.args[1], ast.Constant)
                  and n.args[1].value == "_key")


def test_the_check_sees_a_planted_cursor_key_read():
    src = ("def start(fam, n):\n    return _cursor_start(fam._key, n, 0)\n"
           "def keyed(fam):\n    fam._key = None\n    key = 1\n"
           "    return getattr(fam, '_key')\n")
    assert cursor_key_reads(src) == [2, 6]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_families_reads_cursor_keys(path):
    # a family's cursor key is the cursor's own format, which no module
    # but families sees (its module docstring)
    reads = cursor_key_reads(path.read_text())
    assert bool(reads) if path.name == "families.py" else reads == []


def key_none_tests(source):
    """The lines that compare a `_key` attribute with None."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source))
                  if isinstance(n, ast.Compare)
                  and any(isinstance(side, ast.Attribute) and side.attr == "_key"
                          for side in [n.left, *n.comparators])
                  and any(isinstance(side, ast.Constant) and side.value is None
                          for side in [n.left, *n.comparators]))


def test_the_check_sees_a_planted_key_none_test():
    src = ("def member(fam, F):\n    if fam._key is None:\n"
           "        return F in fam.sets\n    key = fam._key\n"
           "    return None != self._key or key is None\n")
    assert key_none_tests(src) == [2, 5]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_query_branches_on_a_missing_cursor_key(path):
    # an explicit family answers from its listed sets by its own methods,
    # so no query tells the kinds apart by a key of None
    assert key_none_tests(path.read_text()) == []


def partition_classes(tree):
    """Names of the top-level classes of a module that are _Partitions or
    derive from it."""
    names = {"_Partitions"}
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                isinstance(b, ast.Name) and b.id in names for b in node.bases):
            names.add(node.name)
    return names


def test_only_the_partition_engine_advances_the_cursor_in_spaces():
    # every partition program of spaces runs on _Partitions, so no other
    # definition there cuts chains of its own (the import itself reads as
    # the definition None)
    path = SOURCES[[p.name for p in SOURCES].index("spaces.py")]
    found = {name for _, name in readers(path, "_cursor_advance")} - {None}
    assert "_Partitions" in found
    assert found <= partition_classes(ast.parse(path.read_text()))


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


# the readers of walk-table rows: the listing, the fold and the pair walk
ROW_READERS = {("families.py", "_walk"), ("families.py", "_fold"),
               ("families.py", "_escape")}


def test_the_check_sees_planted_row_readers(tmp_path):
    path = tmp_path / "planted.py"
    path.write_text("from .families import _row\n"
                    "def listing(key, points):\n"
                    "    return _row(key, points, None, 0)\n"
                    "class Table:\n    def get(self, fam):\n"
                    "        return fam._row\n")
    assert readers(path, "_row") == {("planted.py", None),
                                     ("planted.py", "listing"),
                                     ("planted.py", "Table")}
    # a fourth reader beside the three admitted ones fails the guard
    path = tmp_path / "families.py"
    path.write_text("".join("def %s(key, points):\n    return _row(key, "
                            "points, None, 0)\n" % name for name in
                            ("_walk", "_fold", "_escape", "_fourth")))
    assert readers(path, "_row") - ROW_READERS == {("families.py",
                                                    "_fourth")}


def test_only_the_walk_and_the_fold_read_rows():
    # the one builder of walk-table rows is read by the listing, the fold
    # and the pair walk alone; every other module reads members through
    # those three
    assert set().union(*(readers(p, "_row") for p in SOURCES)) == ROW_READERS


def refusal_faults(source):
    """Each ResourceBoundError or SupportBoundError call whose `limit` is
    not a module-level *_BOUND name or whose `bound` is not that name as a
    string, as (line, reason); and the limit names of the sound calls."""
    signature = inspect.signature(ResourceBoundError)
    tree = ast.parse(source)
    bounds = {t.id for node in tree.body if isinstance(node, ast.Assign)
              for t in node.targets
              if isinstance(t, ast.Name) and t.id.endswith("_BOUND")}
    faults, limits = [], set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("ResourceBoundError",
                                     "SupportBoundError")):
            continue
        got = signature.bind(*node.args, **{k.arg: k.value
                                            for k in node.keywords}).arguments
        limit, bound = got["limit"], got["bound"]
        if not (isinstance(limit, ast.Name) and limit.id in bounds):
            faults.append((node.lineno, "limit"))
        elif not (isinstance(bound, ast.Constant) and bound.value == limit.id):
            faults.append((node.lineno, "bound"))
        else:
            limits.add(limit.id)
    return faults, limits


def test_the_check_sees_a_refusal_that_misnames_its_bound():
    src = ("A_BOUND = 3\nB_BOUND = 4\nlocal = 5\n"
           "ResourceBoundError('x', 4, 'A_BOUND', A_BOUND)\n"
           "SupportBoundError('x', 5, 'B_BOUND', A_BOUND)\n"
           "ResourceBoundError('x', 6, 'local', local)\n"
           "ResourceBoundError('x', 7, limit=B_BOUND, bound='B_BOUND')\n")
    assert refusal_faults(src) == ([(5, "bound"), (6, "limit")],
                                   {"A_BOUND", "B_BOUND"})


def test_every_refusal_names_its_module_bound():
    # one constructor formats every refusal, and each guard hands it the
    # constant it checks by value and by name
    limits = set()
    for path in SOURCES:
        faults, found = refusal_faults(path.read_text())
        assert faults == [], path.name
        limits |= found
    assert limits == {
        "LONGEST_WORK_BOUND", "POWER_BOUND", "DESCENT_BOUND",
        "ENUMERATION_BOUND", "MEMBER_BOUND", "DERIVATIVE_BOUND",
        "SUPPORT_BOUND", "ALLOWABLE_SUPPORT_BOUND", "SCC_SIZE_BOUND",
        "ASYMPTOTICITY_SYSTEM_BOUND", "FUNDSEQ_BOUND", "NESTING_BOUND",
        "FOLD_CELL_BOUND"}


NUMBER_WORDS = ("zero one two three four five six seven eight nine ten eleven "
                "twelve thirteen fourteen fifteen sixteen").split()


def readme_constants(text):
    """The rows of the "Conventions" table of a README as (module, name,
    limit) with `2^20` read as 2**20, and the count its prose gives in
    words before "module constants" (None when it gives none)."""
    section = text.split("\n## Conventions\n", 1)[1].split("\n## ", 1)[0]
    rows = [(module, name, int(base) ** int(power or 1))
            for module, name, base, power in re.findall(
                r"^\| `(\w+)\.(\w+)` \| (\d+)(?:\^(\d+))? \|", section, re.M)]
    count = re.search(r"(\w+) module constants", section)
    return rows, count and NUMBER_WORDS.index(count.group(1))


def test_the_check_reads_a_conventions_table():
    text = ("# x\n\n## Conventions\n\ncapped by three module constants:\n\n"
            "| constant | limit | what |\n|---|---|---|\n"
            "| `a.A_BOUND` | 2^20 | x |\n| `b.B_BOUND` | 72 | y |\n"
            "\n## Next\n\n| `c.C_BOUND` | 1 | z |\n")
    assert readme_constants(text) == (
        [("a", "A_BOUND", 2 ** 20), ("b", "B_BOUND", 72)], 3)


def test_readme_constants_are_the_module_bounds():
    # each row's limit is its constant's value, the rows are the bounds
    # the refusals name, and the prose counts them
    rows, count = readme_constants((ROOT / "README.md").read_text())
    for module, name, limit in rows:
        assert getattr(importlib.import_module("schreierlab." + module),
                       name) == limit, name
    named = set().union(*(refusal_faults(p.read_text())[1] for p in SOURCES))
    assert sorted(name for _, name, _ in rows) == sorted(named)
    assert count == len(rows)


FLAG_READERS = {"parse_ordinal", "parse_family", "parse_space", "parse_rational",
                "_parse_vec", "_parse_blocks", "_parse_set"}


def flag_reads(source):
    """The top-level functions of a CLI source other than main and the
    readers that call a flag reader by name, as (line, function); the
    names its _READERS table reads; and the parameters of _emit and
    _report."""
    tree = ast.parse(source)
    calls, table, params = [], set(), {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_READERS"
                for t in node.targets):
            table = {n.id for n in ast.walk(node.value)
                     if isinstance(n, ast.Name)}
        if not isinstance(node, ast.FunctionDef):
            continue
        if node.name in ("_emit", "_report"):
            params[node.name] = [a.arg for a in node.args.args]
        if node.name != "main" and node.name not in FLAG_READERS:
            calls += [(n.lineno, node.name) for n in ast.walk(node)
                      if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                      and n.func.id in FLAG_READERS]
    return sorted(calls), table, params


def test_the_check_sees_a_handler_that_reads_a_flag():
    src = ("_READERS = {'space': parse_space}\n"
           "def _emit(args, result, mode): pass\n"
           "def _cmd_norm(args):\n    return norm(parse_space(args.space))\n"
           "def main(argv):\n    parse_space(argv[0])\n")
    assert flag_reads(src) == ([(4, "_cmd_norm")], {"parse_space"},
                               {"_emit": ["args", "result", "mode"]})


def test_only_main_reads_the_flags():
    # every flag is read once, in main, before the handler runs; a report's
    # mode follows from the spaces read, so no handler passes one
    path = SOURCES[[p.name for p in SOURCES].index("cli.py")]
    calls, table, params = flag_reads(path.read_text())
    assert calls == [] and FLAG_READERS <= table
    assert params == {"_emit": ["args", "result", "terse", "exit_code"],
                      "_report": ["args", "result"]}


def prefix_sum_stores(source):
    """Each place that binds `_pre` (a name or an attribute, by
    assignment or setattr) as (line, class, function, on self), the
    innermost enclosing definitions or None."""
    found = []

    def visit(node, cls, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, None)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, cls, child.name)
                continue
            on_self = None
            if isinstance(child, ast.Name) and child.id == "_pre" \
                    and isinstance(child.ctx, ast.Store):
                on_self = False
            elif isinstance(child, ast.Attribute) and child.attr == "_pre" \
                    and isinstance(child.ctx, ast.Store):
                on_self = isinstance(child.value, ast.Name) \
                    and child.value.id == "self"
            elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                  and child.func.id == "setattr" and len(child.args) > 1
                  and isinstance(child.args[1], ast.Constant)
                  and child.args[1].value == "_pre"):
                on_self = False
            if on_self is not None:
                found.append((child.lineno, cls, fn, on_self))
            visit(child, cls, fn)

    visit(ast.parse(source), None, None)
    return sorted(found)


# the class default of the engine and the exact evaluator's own prefix sums
PREFIX_SUM_STORES = {("_Partitions", None, False), ("_Evaluator", "__init__", True)}


def test_the_check_sees_prefix_sums_given_to_other_engines():
    src = ("class _Partitions:\n    _pre = None\n"
           "class _Cover(_Partitions):\n"
           "    def cut(self):\n        self._pre = [0]\n"
           "def minimax(dp):\n    dp._pre = [0]\n"
           "    setattr(dp, '_pre', [0])\n")
    assert prefix_sum_stores(src) == [
        (2, "_Partitions", None, False), (5, "_Cover", "cut", True),
        (7, None, "minimax", False), (8, None, "minimax", False)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_the_exact_evaluator_sets_prefix_sums(path):
    # FREE chains are suffix sums only where every piece is at most the
    # sum of its magnitudes: the exact evaluator's segment norms, not the
    # derived or dual pieces of the generic engine nor the min-max cover
    stores = {site[1:] for site in prefix_sum_stores(path.read_text())}
    assert stores == (PREFIX_SUM_STORES if path.name == "spaces.py" else set())
