"""Fourteen ast lint rules over src/soldens, since the toolchain has no linter:

- no module keeps a module-level import it never uses (the package
  __init__ imports its submodules to expose them, so it is exempt); the
  test modules are held to the same rule;
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
  outside its own assignment: a cap whose guard is gone goes with it;
- every size-guard raise sits in the body of an if whose test compares only
  against named UPPER_CASE constants and holds no number literal: each cap
  is defined once, and its message is formatted from the same name;
- every json.loads call sits inside a with block of errors.reading: one
  rule decides what makes outside JSON malformed, and no parser keeps its
  own exception set;
- json.dumps is read, called or imported only inside cli.dumps: every
  result is printed by one serializer, and no second one grows back;
- argparse.ArgumentTypeError is named only inside cli._arg: one rule
  refuses every bad argv value, and no argparse type keeps its own refusal;
- no true division, float literal, float( call or float-valued math name
  (any but the integer ones: ceil, floor, isqrt, ...) appears outside
  FLOAT_ALLOWED, which holds only zline.folner_density, the estimator that
  says it is one: every certified result is exact, and no float creeps in;
- every public top-level function or class is read outside its own
  definition: by its own module, by another module of the package, or by
  the acceptance criteria or the benchmark, not by its unit tests alone.
  Reads are resolved by module, so groups.difference_set keeps
  zline.difference_set alive no more than an unrelated name would. The
  definitions in PAPER_CLAIMS are exempt: each states a result of the paper
  and waits for its command. Every public method or property of a public
  top-level class (dunders skipped) is read too, by the same sources, as an
  attribute outside its own body; an attribute's class is not known
  statically, so reads match by name;
- no module but errors.py defines an exception class, and errors.py only
  SoldensError: the kind, not a subclass, says what went wrong.
"""

import ast
import builtins
import math
import re
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "soldens"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
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


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
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


# cli.emit refuses what Python itself cannot print; its cap is the
# interpreter's int-to-str limit, met as a ValueError, not a comparison.
UNCOMPARED_GUARDS = {"cli": {"emit"}}


def _named(node):
    """An UPPER_CASE name or attribute, or a call on such values only (len(_PRIMES8))."""
    if isinstance(node, ast.Name):
        return bool(CONSTANT.fullmatch(node.id))
    if isinstance(node, ast.Attribute):
        return bool(CONSTANT.fullmatch(node.attr))
    return isinstance(node, ast.Call) and bool(node.args) and all(map(_named, node.args))


def _compares_with_named_caps(test):
    if isinstance(test, ast.BoolOp):
        return all(map(_compares_with_named_caps, test.values))
    return isinstance(test, ast.Compare) and all(map(_named, test.comparators))


def unnamed_caps(source, exempt=()):
    """The size-guard raises of source, as "function:line", that do not sit
    directly in the body of an if whose test compares only against named
    UPPER_CASE constants, joined by and/or, and holds no number literal. A
    size-guard raise builds its error with kind=SIZE_GUARD, or calls a module
    function that returns such an error (words._too_long) or a module class
    whose kind is SIZE_GUARD; the raises of the functions named in exempt are
    skipped."""
    tree = ast.parse(source)
    parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}

    def guard(call):
        return isinstance(call, ast.Call) and any(
            kw.arg == "kind" and getattr(kw.value, "id", getattr(kw.value, "attr", None))
            == "SIZE_GUARD" for kw in call.keywords)

    def sized(node):
        if isinstance(node, ast.Return):
            return guard(node.value)
        return isinstance(node, ast.Assign) and getattr(node.value, "id", None) == "SIZE_GUARD"

    helpers = {d.name for d in tree.body if isinstance(d, (ast.FunctionDef, ast.ClassDef))
               and any(map(sized, ast.walk(d)))}
    found = []
    for node in ast.walk(tree):
        exc = getattr(node, "exc", None)
        if not isinstance(node, ast.Raise) or not (
                guard(exc) or isinstance(exc, ast.Call) and getattr(exc.func, "id", None) in helpers):
            continue
        function = node
        while function in parent and not isinstance(function, ast.FunctionDef):
            function = parent[function]
        name = getattr(function, "name", "<module>")
        if name in exempt:
            continue
        owner = parent[node]
        test = owner.test if isinstance(owner, ast.If) and node in owner.body else None
        if test is None or not _compares_with_named_caps(test) or any(
                isinstance(n, ast.Constant) and type(n.value) in (int, float) for n in ast.walk(test)):
            found.append(f"{name}:{node.lineno}")
    return found


def test_the_rule_sees_a_cap_written_as_a_literal():
    flagged = {
        "if n < 1:\n    raise E('bad', kind=BAD_INPUT)": False,  # not a size guard
        "if n > MAX_N or m > gr.MAX_M:\n    raise E('big', kind=er.SIZE_GUARD)": False,
        "if m > len(_PRIMES8):\n    raise _too_long()": False,
        "if n > 20:\n    raise E('n over 20', kind=SIZE_GUARD)": True,
        "if n > 20:\n    raise _too_long()": True,
        "if n > 20:\n    raise Big('n over 20')": True,
        "if n + 1 > MAX_N:\n    raise _too_long()": True,  # a literal beside the name
        "if n > cap:\n    raise _too_long()": True,  # not an UPPER_CASE name
        "if n > MAX_N and ok:\n    raise _too_long()": True,  # not only comparisons
        "if n <= MAX_N:\n    pass\nelse:\n    raise _too_long()": True,  # not in the if's body
        "try:\n    f(n)\nexcept ValueError:\n    raise _too_long()": True,  # under no if
    }
    helper = ("def _too_long():\n    return E('long', kind=SIZE_GUARD)\n"
              "class Big(E):\n    kind = SIZE_GUARD\n")
    for body, flag in flagged.items():
        source = helper + "def f(n, m, cap):\n" + "".join(f"    {line}\n" for line in body.split("\n"))
        assert bool(unnamed_caps(source)) == flag, body
        assert unnamed_caps(source, exempt={"f"}) == []
    assert unnamed_caps(helper + "def f(n):\n    if n > 3:\n        raise _too_long()\n") == ["f:7"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_size_guard_compares_with_a_named_cap(path):
    assert unnamed_caps(path.read_text(), UNCOMPARED_GUARDS.get(path.stem, ())) == []


def _opens_reader(item):
    call = item.context_expr
    return isinstance(call, ast.Call) and (
        getattr(call.func, "id", None) == "reading" or getattr(call.func, "attr", None) == "reading")


def unguarded_json_loads(source):
    """The line numbers of source where json.loads is called outside a with
    block whose items include a reading(...) call."""
    tree = ast.parse(source)
    parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    found = []
    for node in ast.walk(tree):
        func = getattr(node, "func", None)
        if not (isinstance(node, ast.Call) and isinstance(func, ast.Attribute) and func.attr == "loads"
                and getattr(func.value, "id", None) == "json"):
            continue
        owner = node
        while owner in parent and not (isinstance(owner, ast.With) and any(map(_opens_reader, owner.items))):
            owner = parent[owner]
        if not isinstance(owner, ast.With):
            found.append(node.lineno)
    return found


def test_the_rule_sees_json_read_outside_the_reader():
    source = ("def f(text):\n    with reading('x', E):\n        a = json.loads(text)\n"
              "    with er.reading('y', E), open(text) as fh:\n        b = [json.loads(fh.read())]\n"
              "    c = json.loads(text)\n"
              "    with open(text) as fh:\n        d = json.loads(fh.read())\n"
              "    try:\n        e = json.loads(text)\n    except ValueError:\n        pass\n"
              "    return json.dumps(a), loads(text)\n")
    assert unguarded_json_loads(source) == [6, 8, 10]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_json_is_read_only_inside_the_reader(path):
    assert unguarded_json_loads(path.read_text()) == []


def json_writers(source):
    """The top-level statements of source, by name, that read json.dumps or import
    dumps from json."""
    found = set()
    for stmt in ast.parse(source).body:
        for node in ast.walk(stmt):
            if (isinstance(node, ast.Attribute) and node.attr == "dumps"
                    and getattr(node.value, "id", None) == "json"
                    or isinstance(node, ast.ImportFrom) and node.module == "json"
                    and any(alias.name == "dumps" for alias in node.names)):
                found.add(getattr(stmt, "name", "<module>"))
    return found


def test_the_rule_sees_a_second_serializer():
    source = ("import json\ndef dumps(obj):\n    return json.dumps(obj, default=repr)\n"
              "def to_text(obj):\n    return json.dumps(obj)\n"
              "class Report:\n    write = staticmethod(json.dumps)\n"
              "def quiet(obj):\n    from json import dumps as d\n    return d(obj)\n"
              "def read(text):\n    return dumps(json.loads(text))\n")
    assert json_writers(source) == {"dumps", "to_text", "Report", "quiet"}


def test_json_is_written_only_by_cli_dumps():
    writers = {f"{p.stem}.{name}" for p in MODULES for name in json_writers(p.read_text())}
    assert writers == {"cli.dumps"}


def argv_refusers(source):
    """The top-level statements of source, by name, that name ArgumentTypeError, as an
    attribute, a bare name or an import from argparse."""
    found = set()
    for stmt in ast.parse(source).body:
        for node in ast.walk(stmt):
            if (isinstance(node, ast.Attribute) and node.attr == "ArgumentTypeError"
                    or isinstance(node, ast.Name) and node.id == "ArgumentTypeError"
                    or isinstance(node, ast.ImportFrom) and node.module == "argparse"
                    and any(alias.name == "ArgumentTypeError" for alias in node.names)):
                found.add(getattr(stmt, "name", "<module>"))
    return found


def test_the_rule_sees_a_second_argv_refusal():
    source = ("import argparse\ndef _arg(what, convert):\n    def parse(text):\n"
              "        raise argparse.ArgumentTypeError(what)\n    return parse\n"
              "def _cells(text):\n    raise argparse.ArgumentTypeError(text)\n"
              "def _quiet(text):\n    from argparse import ArgumentTypeError as Refused\n"
              "    raise Refused(text)\nclass Types:\n    error = ArgumentTypeError\n"
              "def _ints(text):\n    raise ValueError(text)\n")
    assert argv_refusers(source) == {"_arg", "_cells", "_quiet", "Types"}


def test_argv_values_are_refused_only_by_cli_arg():
    refusers = {f"{p.stem}.{name}" for p in MODULES for name in argv_refusers(p.read_text())}
    assert refusers == {"cli._arg"}


# The math names that are exact on ints; every other public math name is a
# float-valued function or a float constant.
EXACT_MATH = {"ceil", "comb", "factorial", "floor", "gcd", "isqrt", "lcm", "perm", "prod", "trunc"}
FLOAT_MATH = {name for name in dir(math) if not name.startswith("_")} - EXACT_MATH
FLOAT_ALLOWED = {"zline.folner_density"}


def float_sources(source):
    """The top-level statements of source, by name, that hold a true division, a
    float literal, a float( call or a float-valued math name, read as an
    attribute of math or imported from it."""
    found = set()
    for stmt in ast.parse(source).body:
        for node in ast.walk(stmt):
            if (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
                    or isinstance(node, ast.Constant) and type(node.value) in (float, complex)
                    or isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float"
                    or isinstance(node, ast.Attribute) and node.attr in FLOAT_MATH
                    and getattr(node.value, "id", None) == "math"
                    or isinstance(node, ast.ImportFrom) and node.module == "math"
                    and any(alias.name in FLOAT_MATH for alias in node.names)):
                found.add(getattr(stmt, "name", "<module>"))
    return found


def test_the_rule_sees_a_float():
    source = ("import math\nfrom math import gcd, sqrt\n"
              "def ratio(a, b):\n    return a / b\n"
              "def halve(a):\n    a /= 2\n    return a\n"
              "def half():\n    return 0.5\n"
              "def parse(text):\n    return float(text)\n"
              "def root(n):\n    return math.sqrt(n)\n"
              "class Circle:\n    def area(self, r):\n        return math.pi * r * r\n"
              "def exact(n, q):\n    return math.isqrt(n) + n // 2 + math.ceil(q) + gcd(n, 4) + int('7')\n")
    assert float_sources(source) == {"<module>", "ratio", "halve", "half", "parse", "root", "Circle"}


def test_no_float_reaches_a_result():
    found = {f"{p.stem}.{name}" for p in MODULES for name in float_sources(p.read_text())}
    assert found == FLOAT_ALLOWED


ROOT = SRC.parent.parent
# A paper claim keeps its definition until a command reaches it.
PAPER_CLAIMS = (
    ("partitions.thm43_search", "result (1): G = FAA^-1 with |F| <= 1/sigma^R(A)"),
    ("densities.combine_certificates", "sigma is subadditive"),
    ("zline.piecewise_bohr_check", "the piecewise Bohr decomposition of a set of Z"),
    ("zline.delta_ideal", "the Bohr set of shifts x with d*(A intersect (x + A)) > 0"),
)


def unread_public_definitions(package, outside, exempt=()):
    """For package, a dict from module name to source text, and outside, a
    dict of more sources whose reads count: the public top-level functions
    and classes of the package, as "module.name", that nothing reads outside
    their own definition. A read is the bare name in its own module; name
    imported from its module (from .module import name); or module.name or
    alias.name in any source, where an alias is one that some source binds
    with from . import module as alias or import soldens.module as alias,
    and module may itself be an attribute (M.groups.build_group). A string
    constant "module.name" of an outside source is a read too. The names in
    exempt are skipped."""
    aliases = {module: module for module in package}
    for text in (*package.values(), *outside.values()):
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and node.level and node.module is None:
                aliases.update((a.asname or a.name, a.name) for a in node.names if a.name in package)
            elif isinstance(node, ast.Import):  # import soldens.zline as zl
                aliases.update((a.asname, a.name.rpartition(".")[2]) for a in node.names
                               if a.asname and a.name.rpartition(".")[2] in package)
    dotted = re.compile(rf"(?:{'|'.join(package)})\.\w+")
    read = set()
    for source, text in {**package, **outside}.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and node.level and node.module in package:
                read.update(f"{node.module}.{alias.name}" for alias in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                owner = getattr(node.value, "id", getattr(node.value, "attr", None))
                if owner in aliases:
                    read.add(f"{aliases[owner]}.{node.attr}")
            elif (source in outside and isinstance(node, ast.Constant)
                  and isinstance(node.value, str) and dotted.fullmatch(node.value)):
                read.add(node.value)
    found = []
    for module, text in package.items():
        body = ast.parse(text).body
        bare = [{n.id for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                for stmt in body]
        for i, stmt in enumerate(body):
            name = f"{module}.{getattr(stmt, 'name', '')}"
            if (isinstance(stmt, DEFINITIONS) and not stmt.name.startswith("_")
                    and name not in read and name not in exempt
                    and not any(stmt.name in names for j, names in enumerate(bare) if j != i)):
                found.append(name)
    return found


def test_the_rule_sees_a_public_definition_nobody_reads():
    package = {
        "groups": "def difference_set(g, a):\n    pass\ndef build(spec):\n    pass\n"
                  "def orbit(g, x):\n    return orbit(g, x)\ndef index(g):\n    pass\n",
        "zline": "from . import groups as gr\nfrom .groups import build\n"
                 "def difference_set(a):\n    return gr.difference_set(None, a)\n"
                 "class BlockSet:\n    pass\ndef sumset(a, b):\n    return Z(a)\n"
                 "class Z:\n    pass\ndef shift(a):\n    pass\ndef lift(a):\n    return a.lift\n",
    }
    outside = {"perfbench/spans.py": 'SPANS = ("zline.sumset", "soldens.cli", "groups.index()")\n',
               "tests/test_acceptance.py": "import soldens.zline as zl\nzl.shift(1)\nzl.Z.lift\n"}
    # zline's gr.difference_set reads groups.difference_set, not zline.difference_set;
    # "groups.index()" is no read of groups.index, a call of itself none of groups.orbit,
    # and an attribute a.lift none of zline.lift
    assert unread_public_definitions(package, outside) == [
        "groups.orbit", "groups.index", "zline.difference_set", "zline.BlockSet", "zline.lift"]
    assert unread_public_definitions(package, outside, {"groups.orbit", "zline.lift"}) == [
        "groups.index", "zline.difference_set", "zline.BlockSet"]


def program_sources():
    """The sources of the program paths: the package's modules by name, and
    the acceptance criteria and the benchmark, whose reads count, by path."""
    package = {p.stem: p.read_text() for p in MODULES}
    outside = {str(p.relative_to(ROOT)): p.read_text()
               for p in (ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py")))}
    return package, outside


def test_every_public_definition_is_read():
    package, outside = program_sources()
    exempt = {name for name, _ in PAPER_CLAIMS}
    assert unread_public_definitions(package, outside, exempt) == []
    # the exemption is no wider than what it covers
    assert {*unread_public_definitions(package, outside)} == exempt


def unread_public_methods(package, outside):
    """For package and outside as in unread_public_definitions: the public
    methods and properties (no leading underscore, so no dunder) of the
    public top-level classes of the package, as "module.Class.name", that no
    source reads as an attribute outside the method's own body. Which class
    an attribute belongs to is not known without running the code, so a read
    of .name counts for every method of that name."""
    reads = sum((_attribute_reads(ast.parse(text)) for text in (*package.values(), *outside.values())),
                Counter())
    return [
        f"{module}.{cls.name}.{item.name}"
        for module, text in package.items()
        for cls in ast.parse(text).body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_")
        and reads[item.name] == _attribute_reads(item)[item.name]
    ]


def _attribute_reads(tree):
    """How often tree reads each attribute name."""
    return Counter(node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))


def test_the_rule_sees_a_public_method_nobody_reads():
    package = {
        "groups": "class Group:\n    def mul(self, g, h):\n        return self.table[g][h]\n"
                  "    def inv(self, g):\n        return self.inv(g)\n"
                  "    @property\n    def size(self):\n        pass\n"
                  "    def __len__(self):\n        pass\n    def _memo(self):\n        pass\n"
                  "class _Cache:\n    def clear(self):\n        pass\n",
        "measures": "class Measure:\n    def weight(self, p):\n        pass\n"
                    "    def support(self):\n        pass\n"
                    "    def table(self):\n        pass\n"
                    "def total(mu):\n    mu.weight = 1\n    return mu.mul(0, 1)\n",
    }
    outside = {"perfbench/workloads.py": "def run(g):\n    return g.size, weight(g)\n",
               "tests/test_acceptance.py": "import soldens.measures as ms\nms.Measure.support\n"}
    # a call of itself is no read of Group.inv, a store of .weight and a bare
    # name weight none of Measure.weight; dunders, private methods and the
    # methods of a private class are skipped; Group.table's read counts for
    # Measure.table too, since reads match by name
    assert unread_public_methods(package, outside) == ["groups.Group.inv", "measures.Measure.weight"]


def test_every_public_method_is_read():
    assert unread_public_methods(*program_sources()) == []


def exception_classes(source):
    """The classes of source, by name, that derive from an exception: a
    builtin one, a name ending in Error or Exception (SoldensError, or
    errors.SoldensError), or a class of source that itself does."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and any(
                _names_exception(base, found) for base in node.bases):
            found.append(node.name)
    return found


def _names_exception(base, found):
    name = base.id if isinstance(base, ast.Name) else getattr(base, "attr", "")
    builtin = getattr(builtins, name, None)
    return (name in found or name.endswith(("Error", "Exception"))
            or isinstance(builtin, type) and issubclass(builtin, BaseException))


def test_the_rule_sees_an_exception_class():
    source = ("from dataclasses import dataclass\nfrom .errors import SoldensError\n"
              "class FooError(SoldensError):\n    pass\nclass Bar(ValueError):\n    ...\n"
              "class Baz(Bar):\n    pass\nclass Qux(errors.SoldensError, KeyError):\n    pass\n"
              "@dataclass(frozen=True)\nclass Plain:\n    x: int\nclass Kind(Enum):\n    A = 1\n")
    assert exception_classes(source) == ["FooError", "Bar", "Baz", "Qux"]


def test_only_errors_defines_an_exception_class():
    found = {p.stem: exception_classes(p.read_text()) for p in SRC.glob("*.py")}
    assert {module: names for module, names in found.items() if names} == {"errors": ["SoldensError"]}
