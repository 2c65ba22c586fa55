"""Seven ast lint rules over src/soldens, since the toolchain has no linter:

- no module keeps a module-level import it never uses (the package
  __init__ imports its submodules to expose them, so it is exempt);
- no module keeps a module-level private function or class (a name that
  starts with one underscore) that no code of the package reads outside
  the definition itself;
- no module reads another module's private name, either through a module
  alias (gr._bits) or by importing it (from .groups import _bits);
- in cli.py, only run, emit and main reference emit, print or sys.stdout:
  handlers return their result, and run alone prints it;
- every defaulted parameter of a package function or method (dunders
  skipped) is passed, by position or keyword, by some call in src or tests:
  a setting nobody sets is a constant;
- no module reads the attribute .members: GroupSubset keeps its members as
  one int mask, and the frozenset view is for tests and perfbench only;
- every module-level UPPER_CASE constant (a leading underscore allowed) is
  read, as a bare name or as an attribute, by some code of src or tests
  outside its own assignment: a cap whose guard is gone goes with it.
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "soldens"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unused_imports(source):
    """Names bound by the module-level imports of source that no expression reads."""
    tree = ast.parse(source)
    bound = [
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_the_rule_sees_a_leftover_import():
    assert unused_imports("from itertools import chain, combinations\nchain()\n") == ["combinations"]
    assert unused_imports("import os.path\nos.sep\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text()) == []


def readers_by_name(sources):
    """For sources, a dict from module name to source text: a dict from each
    name read, as a bare name or as an attribute, to the set of (module,
    index of the top-level statement reading it)."""
    readers = {}
    for module, text in sources.items():
        for i, stmt in enumerate(ast.parse(text).body):
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                    name = node.id if isinstance(node, ast.Name) else node.attr
                    readers.setdefault(name, set()).add((module, i))
    return readers


def unused_private_definitions(sources):
    """For sources, a dict from module name to source text: the module-level
    private functions and classes, as "module.name", that no code reads
    outside their own definition, as a bare name or as an attribute."""
    readers = readers_by_name(sources)
    return [
        f"{module}.{stmt.name}"
        for module, text in sources.items()
        for i, stmt in enumerate(ast.parse(text).body)
        if isinstance(stmt, DEFINITIONS) and stmt.name.startswith("_")
        and not stmt.name.startswith("__")
        and not readers.get(stmt.name, set()) - {(module, i)}
    ]


def test_the_rule_sees_a_leftover_private_definition():
    sources = {
        "games": "def _tuples(k):\n    return _tuples(k - 1) if k else [()]\n"
                 "def _solve():\n    pass\nclass _Memo:\n    pass\n",
        "cli": "import games\ngames._solve()\n",
        "zline": "def _sieve():\n    pass\nx = [_sieve]\n",
    }
    assert unused_private_definitions(sources) == ["games._tuples", "games._Memo"]


def test_no_unused_private_function_or_class():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert unused_private_definitions(sources) == []


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def private_reads(source):
    """The private names of other package modules that source reads, as
    "module.name", in the order they appear."""
    tree = ast.parse(source)
    aliases = {}  # alias -> package module, from `from . import module as alias`
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module is None:
                    aliases[alias.asname or alias.name] = alias.name
                elif _private(alias.name):
                    found.append(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in aliases):
            found.append(f"{aliases[node.value.id]}.{node.attr}")
    return found


def test_the_rule_sees_a_read_of_another_modules_private_name():
    source = ("from . import groups as gr\nfrom .errors import _KINDS, SoldensError\n"
              "def f(self, mask):\n    self._memo = gr.__name__\n    return gr._bits(mask)\n")
    assert private_reads(source) == ["errors._KINDS", "groups._bits"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_reads_another_modules_private_name(path):
    assert private_reads(path.read_text()) == []


STDOUT_WRITERS = {"run", "emit", "main"}


def stdout_writers(source):
    """The top-level statements of source, by name, that reference emit, print or sys.stdout."""
    found = set()
    for stmt in ast.parse(source).body:
        for node in ast.walk(stmt):
            if (isinstance(node, ast.Name) and node.id in ("emit", "print")
                    or isinstance(node, ast.Attribute) and node.attr == "stdout"
                    and isinstance(node.value, ast.Name) and node.value.id == "sys"):
                found.add(getattr(stmt, "name", "<module>"))
    return found


def test_the_rule_sees_a_handler_that_prints():
    source = ("import sys\ndef emit(p):\n    print(p)\ndef cmd_a(args):\n    emit(args)\n"
              "def cmd_b(args):\n    sys.stdout.write(args)\ndef run(argv):\n    emit(argv)\n")
    assert stdout_writers(source) - STDOUT_WRITERS == {"cmd_a", "cmd_b"}


def test_only_run_writes_to_stdout_in_the_cli():
    assert stdout_writers((SRC / "cli.py").read_text()) - STDOUT_WRITERS == set()


def unset_defaults(package, callers):
    """For package, a dict from module name to source text, and callers, the
    source texts to search for calls: the defaulted parameters of the
    package's functions and methods, dunders skipped, as
    "module.function.parameter", that no call passes by position or keyword.
    A call is matched to a definition by its bare or attribute name; a
    starred argument passes every position, and a ** argument every keyword."""
    positions, keywords = {}, {}  # callee name -> most positions / keywords passed
    for text in callers:
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            count = float("inf") if starred else len(node.args)
            positions[name] = max(positions.get(name, 0), count)
            keywords.setdefault(name, set()).update(kw.arg for kw in node.keywords)
    found = []
    for module, text in package.items():
        tree = ast.parse(text)
        methods = {id(stmt) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for stmt in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or (
                    fn.name.startswith("__") and fn.name.endswith("__")):
                continue
            static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
            bound = id(fn) in methods and not static  # self or cls is passed implicitly
            ordered = fn.args.posonlyargs + fn.args.args
            first = len(ordered) - len(fn.args.defaults)
            defaulted = [(arg, i - bound) for i, arg in enumerate(ordered) if i >= first]
            defaulted += [(arg, None) for arg, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                          if d is not None]
            passed = keywords.get(fn.name, set())
            for arg, i in defaulted:
                if None in passed or arg.arg in passed:
                    continue
                if i is not None and positions.get(fn.name, 0) > i:
                    continue
                found.append(f"{module}.{fn.name}.{arg.arg}")
    return found


def test_the_rule_sees_a_default_nobody_sets():
    package = {
        "zline": "def sumset(a, b, slack=0, scope=None):\n    pass\n"
                 "def classify(a, *, length=10, depth=2):\n    pass\n"
                 "def lift(a, m=1, k=2):\n    pass\n"
                 "def delta(a, eps=0):\n    pass\n"
                 "class Z:\n    def shift(self, t=0):\n        pass\n"
                 "    @staticmethod\n    def parse(text, strict=False):\n        pass\n"
                 "    def __eq__(self, other=None):\n        pass\n",
    }
    callers = ["import zline\nzline.sumset(1, 2, 3)\nclassify(1, length=4)\nlift(*args)\n",
               "zl.Z().shift(5)\nZ.parse('x')\ndelta(a, **options)\n"]
    assert unset_defaults(package, callers) == [
        "zline.sumset.scope", "zline.classify.depth", "zline.parse.strict"]


def test_every_default_is_set_by_some_call():
    package = {p.stem: p.read_text() for p in MODULES}
    tests = Path(__file__).resolve().parent
    callers = [p.read_text() for p in (*SRC.glob("*.py"), *tests.glob("*.py"))]
    assert unset_defaults(package, callers) == []


def member_reads(source):
    """The line numbers of source where an attribute named members is read."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "members"
            and isinstance(node.ctx, ast.Load)]


def test_the_rule_sees_a_read_of_members():
    source = ("def f(h, g):\n    m = h.mask\n    h.members = m\n"
              "    return 0 in h.members or g in f(h, g).members\n")
    assert member_reads(source) == [4, 4]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_reads_the_members_view(path):
    assert member_reads(path.read_text()) == []


CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def unread_constants(package, others):
    """For package, a dict from module name to source text, and others, a dict
    of more sources that may read them: the module-level UPPER_CASE constants
    of the package, as "module.NAME", that no code reads outside their own
    assignment."""
    readers = readers_by_name({**package, **others})
    return [
        f"{module}.{node.id}"
        for module, text in package.items()
        for i, stmt in enumerate(ast.parse(text).body)
        if isinstance(stmt, (ast.Assign, ast.AnnAssign))
        for node in ast.walk(stmt)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
        and CONSTANT.fullmatch(node.id) and not readers.get(node.id, set()) - {(module, i)}
    ]


def test_the_rule_sees_a_constant_nobody_reads():
    package = {
        "zline": "MAX_A = 10\nMAX_B: int = 20\n_PRIMES = (2, 3)\nlimit = 3\n"
                 "MAX_C = MAX_D = 4\nLIMIT = 5\nLIMIT = LIMIT * 2\n"
                 "def f(x):\n    MAX_E = 5\n    return x < MAX_A\n",
        "cli": "import zline\nzline._PRIMES\n",
    }
    others = {"test_zline": "import zline\nassert zline.MAX_C == 4\n"}
    # the second LIMIT is read only by its own assignment
    assert unread_constants(package, others) == ["zline.MAX_B", "zline.MAX_D", "zline.LIMIT"]


def test_every_constant_is_read():
    package = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    tests = Path(__file__).resolve().parent
    others = {f"tests.{p.stem}": p.read_text() for p in tests.glob("*.py")}
    assert unread_constants(package, others) == []
