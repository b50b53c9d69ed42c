"""Source hygiene: no module of the package imports a name it never uses,
every definition in the package is read by the package itself, so none is
kept only for the tests, every defaulted parameter is set by some call in
the package, every attribute the package stores is read somewhere, no
function assigns a name it never reads, the extension policy is read
only in `fields`, and the package's data files only in `curves`."""

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "exactcurves"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")

# Definitions the package itself does not read, each with the reason it
# stays.  The benchmark's layer tracer (benchmark/layertrace.py) wraps its
# targets by name and refuses to install when one is gone, which fails
# benchmark/test_benchmark.py and every traced run.
ALLOWED_UNREAD = {
    "multipoly.squarefree_part":
        "tracer target of the multipoly.squarefree layer",
    "singular.BranchExpansion.residual_valuation":
        "tracer target of the singular.residual_valuation layer",
    "fields.sqrt_in_field":
        "tracer target of the fields.sqrt_in_field layer",
}

# Defaulted parameters no call in the package sets, each with the reason
# it stays.
ALLOWED_UNSET = {
    "singular.certify_composite.truncation":
        "benchmark/workloads.py passes it for the octic-germ workload",
    "cli.main.argv":
        "argparse's own parameter: None reads sys.argv, tests pass a list",
}


def unused_imports(source):
    """Names bound by the imports of `source` that no expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def _definitions(tree):
    """(qualified name, node) for each function, class and assigned name at
    module level or in the body of a module-level class."""
    for node in tree.body:
        yield from _named(node, "")
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                yield from _named(sub, node.name + ".")


def _named(node, prefix):
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        yield prefix + node.name, node
    elif isinstance(node, ast.Assign):
        for target in node.targets:
            if isinstance(target, ast.Name):
                yield prefix + target.id, node


def _reads(tree):
    """(name, line) for each name the module reads: loaded names,
    attribute names and names imported from another module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def unread_definitions(sources):
    """Definitions, as "module.qualname", that no module of `sources`
    (module name -> text) reads outside the definition itself.

    Methods and class attributes are matched by name alone, so one counts
    as read when any attribute of that name is.  Dunder names are called
    by the language and are skipped.
    """
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    reads = {}
    for mod, tree in trees.items():
        for name, line in _reads(tree):
            reads.setdefault(name, []).append((mod, line))
    unread = []
    for mod, tree in trees.items():
        for qual, node in _definitions(tree):
            name = qual.rsplit(".", 1)[-1]
            if name.startswith("__") and name.endswith("__"):
                continue
            if all(m == mod and node.lineno <= line <= node.end_lineno
                   for m, line in reads.get(name, [])):
                unread.append(f"{mod}.{qual}")
    return sorted(unread)


def _functions(node, prefix=""):
    """(qualified name, def node, whether a method) for each function
    at any depth under `node`."""
    for sub in ast.iter_child_nodes(node):
        if isinstance(sub, ast.FunctionDef):
            yield prefix + sub.name, sub, isinstance(node, ast.ClassDef)
            yield from _functions(sub, prefix + sub.name + ".")
        elif isinstance(sub, ast.ClassDef):
            yield from _functions(sub, prefix + sub.name + ".")


def _defaulted(func, method):
    """(name, position) of each parameter of `func` with a default; the
    position counts the arguments a call passes, so a method's self or
    cls is left out, and it is None for a keyword-only parameter."""
    args = func.args
    positional = args.posonlyargs + args.args
    implicit = int(method and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod"
        for d in func.decorator_list))
    first = len(positional) - len(args.defaults)
    for k, arg in enumerate(positional[first:], first):
        yield arg.arg, k - implicit
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _sets(call, name, position):
    """Whether `call` passes the parameter `name` at `position`, by keyword
    or by position; a `**` argument passes every keyword and a starred one
    every position."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    return position is not None and (
        len(call.args) > position
        or any(isinstance(a, ast.Starred) for a in call.args))


def unset_defaults(sources):
    """Defaulted parameters, as "module.qualname.param", that no call in
    `sources` (module name -> text) outside the function itself sets.

    Calls are matched by name alone, like reads in `unread_definitions`:
    `f(...)` and `x.f(...)` both call every function named f, and calls
    of a class or of `__init__` call every `__init__` of that name.
    """
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    calls = {}
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else \
                    f.attr if isinstance(f, ast.Attribute) else None
                calls.setdefault(name, []).append((mod, node))
    unset = []
    for mod, tree in trees.items():
        for qual, func, method in _functions(tree):
            names = [func.name]
            if func.name == "__init__":
                names.append(qual.rsplit(".", 2)[-2])
            sites = [call for name in names for m, call in calls.get(name, [])
                     if not (m == mod and
                             func.lineno <= call.lineno <= func.end_lineno)]
            for param, position in _defaulted(func, method):
                if not any(_sets(call, param, position) for call in sites):
                    unset.append(f"{mod}.{qual}.{param}")
    return sorted(unset)


def write_only_attributes(stores, readers):
    """Attributes, as "module.attr", that a module of `stores` (module name
    -> text) assigns and that no module of `stores` or `readers` reads,
    whether as an attribute or as the name string of `getattr` or
    `hasattr`.  An augmented assignment reads its target."""
    reads = set()
    for text in [*stores.values(), *readers.values()]:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif isinstance(node, ast.AugAssign) and \
                    isinstance(node.target, ast.Attribute):
                reads.add(node.target.attr)
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Name) and \
                    node.func.id in ("getattr", "hasattr") and \
                    len(node.args) > 1 and \
                    isinstance(node.args[1], ast.Constant):
                reads.add(node.args[1].value)
    return sorted({f"{mod}.{node.attr}"
                   for mod, text in stores.items()
                   for node in ast.walk(ast.parse(text))
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.ctx, ast.Store)
                   and node.attr not in reads})


def _stored_names(target):
    """The names an assignment target binds; None when it also stores into
    an attribute or a subscript, which is an effect of its own."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, ast.Starred):
        return _stored_names(target.value)
    if isinstance(target, (ast.Tuple, ast.List)):
        names = [_stored_names(t) for t in target.elts]
        return None if None in names else [n for ns in names for n in ns]
    return None


def dead_stores(source):
    """(line, names) for each assignment in a function none of whose target
    names the function reads.  A function reads the names loaded anywhere
    in its body, nested functions included.  Names starting with "_" and
    the function's `nonlocal` and `global` names are exempt."""
    out = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read, exempt = set(), set()
        for node in ast.walk(func):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, (ast.Nonlocal, ast.Global)):
                exempt.update(node.names)
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value:
                targets = [node.target]
            else:
                continue
            names = [_stored_names(t) for t in targets]
            if None in names:
                continue
            names = [n for ns in names for n in ns
                     if not n.startswith("_") and n not in exempt]
            # a nested function's assignments are walked with its own
            # body and with every enclosing one's
            if names and not read & set(names) and \
                    (node.lineno, names) not in out:
                out.append((node.lineno, names))
    return sorted(out)


def _package_unread():
    return unread_definitions({
        ".".join(p.relative_to(SRC).with_suffix("").parts): p.read_text()
        for p in MODULES})


def modules_reading(sources, name):
    """The modules of `sources` (module name -> text) that read `name`."""
    return sorted(mod for mod, text in sources.items()
                  if any(n == name for n, _line in _reads(ast.parse(text))))


def test_checker_finds_every_module_reading_a_name():
    sources = {"fields": "def fresh_name():\n    pass\nfresh_name()\n",
               "elim": "from . import fields as fl\nfl.fresh_name()\n",
               "curves": "from .fields import fresh_name\n",
               "cli": "print('fresh_name')\n"}
    assert modules_reading(sources, "fresh_name") == ["curves", "elim",
                                                      "fields"]


@pytest.mark.parametrize("name", ["fresh_name", "_ADJOIN_MAX_DEGREE"])
def test_extension_policy_is_read_only_in_fields(name):
    # every adjoined root goes through fields.adjoin_root, so no other
    # module names a new level or consults the policy table itself
    sources = {p.stem: p.read_text() for p in MODULES}
    assert modules_reading(sources, name) == ["fields"]


def data_file_readers(sources):
    """The modules of `sources` other than `curves` that read a data file
    of the package: through `curves._data_text` or `importlib.resources`."""
    return sorted({mod for name in ("_data_text", "resources")
                   for mod in modules_reading(sources, name)} - {"curves"})


def test_checker_finds_a_data_file_read_outside_curves():
    # `checks` imports the reader inside a function, `cli` reads it as an
    # attribute and `solve` opens the package data itself
    sources = {"curves": ("from importlib import resources\n"
                          "def _data_text(name):\n"
                          "    return resources.files('d').joinpath(name)\n"),
               "checks": ("def f():\n"
                          "    from .curves import _data_text\n"
                          "    return _data_text('p.json')\n"),
               "cli": "from . import curves\ncurves._data_text('c.json')\n",
               "solve": "import importlib.resources\n"
                        "importlib.resources.files('d')\n"}
    assert data_file_readers(sources) == ["checks", "cli", "solve"]


def test_data_files_are_read_only_in_curves():
    # every data file is parsed in `curves`; other modules ask it for
    # records, points and names
    sources = {p.stem: p.read_text() for p in MODULES}
    assert data_file_readers(sources) == []


def test_checker_finds_a_dead_store():
    # `lost` and the tuple (a, b) are never read; `kept` is read by a
    # nested function, `(c, d)` through `d`, `_skip` and the nonlocal
    # `count` are exempt, and `box.x` and `box[0]` store into objects
    source = ("def f(box):\n"
              "    lost = 1\n    a, b = box\n    kept = 2\n"
              "    c, d = box\n    _skip = 3\n"
              "    box.x = 4\n    box[0] = 5\n"
              "    count = 0\n"
              "    def g():\n        nonlocal count\n        count = kept\n"
              "    return d, g\n")
    assert dead_stores(source) == [(2, ["lost"]), (3, ["a", "b"])]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_dead_stores(path):
    assert dead_stores(path.read_text()) == []


def test_checker_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, sys\nfrom typing import List as L, Dict\n"
              "def f(x: L) -> None:\n    return sys.argv\n")
    assert unused_imports(source) == [(2, "os"), (3, "Dict")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_finds_a_test_only_definition():
    # `planted` and `LIMIT` are read by no module, `countdown` only by
    # itself; `helper` is read by `planted`, `Box.size` through an
    # attribute in another module, and `__repr__` is skipped
    sources = {
        "a": ("LIMIT = 3\n"
              "def helper():\n    return 1\n"
              "def planted():\n    return helper()\n"
              "def countdown(n):\n    return countdown(n - 1) if n else 0\n"
              "class Box:\n"
              "    def __repr__(self):\n        return 'Box'\n"
              "    def size(self):\n        return 1\n"),
        "b": "from a import Box\nprint(Box().size())\n",
    }
    assert unread_definitions(sources) == ["a.LIMIT", "a.countdown",
                                           "a.planted"]


def test_every_definition_is_read_in_src():
    unread = set(_package_unread()) - set(ALLOWED_UNREAD)
    assert sorted(unread) == []


def test_allow_list_has_no_stale_entry():
    # an entry whose name is gone from src/, or now read there, goes
    stale = set(ALLOWED_UNREAD) - set(_package_unread())
    assert sorted(stale) == []


def test_checker_finds_an_unset_default():
    # `planted` and `Box.__init__`'s `size` are never passed, and
    # `recurse` only by the function itself; `by_key` is passed by
    # keyword, `by_pos` by position (a method's self not counted), `size2`
    # by constructing Box, `spread` through `**`, and `keyword` (keyword
    # only) in another module
    sources = {
        "a": ("def f(x, planted=1, by_key=2, *, keyword=3):\n"
              "    return x\n"
              "def g(recurse=0):\n    return g(recurse=1)\n"
              "def h(spread=0):\n    return spread\n"
              "class Box:\n"
              "    def __init__(self, size=1, size2=2):\n"
              "        self.size = size + size2\n"
              "    def grow(self, by_pos=1):\n        return by_pos\n"
              "f(0, by_key=2)\nBox().grow(2)\nh(**{})\n"),
        "b": "from a import Box, f\nf(1, keyword=4)\nBox(size2=3)\n",
    }
    assert unset_defaults(sources) == ["a.Box.__init__.size", "a.f.planted",
                                       "a.g.recurse"]


def _package_unset():
    return unset_defaults({
        ".".join(p.relative_to(SRC).with_suffix("").parts): p.read_text()
        for p in MODULES})


def test_every_default_is_set_in_src():
    unset = set(_package_unset()) - set(ALLOWED_UNSET)
    assert sorted(unset) == []


def test_unset_allow_list_has_no_stale_entry():
    stale = set(ALLOWED_UNSET) - set(_package_unset())
    assert sorted(stale) == []


def test_checker_finds_a_write_only_attribute():
    # `lost` is stored and never read; `kept` is read in another module,
    # `count` by its augmented assignment, `label` through getattr and
    # `flag` through hasattr
    stores = {
        "a": ("class Box:\n"
              "    def __init__(self):\n"
              "        self.lost = 1\n        self.kept = 2\n"
              "        self.count = 0\n        self.label = 'x'\n"
              "        self.flag = True\n"
              "    def bump(self):\n        self.count += 1\n"),
    }
    readers = {"t": ("from a import Box\nb = Box()\nprint(b.kept)\n"
                     "print(getattr(b, 'label'), hasattr(b, 'flag'))\n")}
    assert write_only_attributes(stores, readers) == ["a.lost"]


def test_no_write_only_attribute_in_src():
    def texts(paths):
        return {str(p.relative_to(REPO)): p.read_text() for p in paths}
    stores = texts(SRC.rglob("*.py"))
    readers = texts([*(REPO / "tests").rglob("*.py"),
                     *(REPO / "benchmark").rglob("*.py")])
    assert write_only_attributes(stores, readers) == []
