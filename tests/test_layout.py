"""The package keeps only what production code calls.

A public top-level function or class in ``src/nodal_atlas``, and a private
top-level function, must be used by name somewhere else in the package or in
the benchmark; a test is not enough (oracles live in ``checks.py`` and
``tests/``).  No module may import a name it never uses.  Kernel products
run through one method, block-size signatures are enumerated in one tree,
the set-partition walk has a named list of readers, the modules import each
other along a named graph, no top-level value has a second name, the
package's `__init__.py` re-exports nothing, no cache can
grow without bound, every size argument is checked by one rule, and the CLI
reads integers by one rule and writes its output through one function.  The
checks parse the source with ``ast``.
"""

import ast
from functools import lru_cache
from itertools import pairwise
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nodal_atlas"
MODULES = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
BENCHMARKS = sorted((ROOT / "benchmarks").glob("*.py"))


@lru_cache(maxsize=None)
def _scan(path):
    """(top-level statements with the names each one uses, imported names).

    A name is used when it is read as a variable or as an attribute, except
    an attribute of a plain `import`ed module such as `math.factorial`.
    Imports are (line, bound name) pairs, `from __future__` left out.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    foreign = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
    }
    statements, imports = [], []
    for stmt in tree.body:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                base = node.value
                if not (isinstance(base, ast.Name) and base.id in foreign):
                    names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                imports += [(node.lineno, (a.asname or a.name).split(".")[0])
                            for a in node.names]
        statements.append((stmt, names))
    return statements, imports


def _uncalled(selected):
    """`module:name` of each top-level definition in the package that
    `selected` picks and that no production code other than itself uses."""
    defined = {}  # name -> file defining it
    used = set()
    for path in MODULES + BENCHMARKS:
        for stmt, names in _scan(path)[0]:
            if (
                path in MODULES
                and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                and selected(stmt)
            ):
                defined[stmt.name] = path.name
                names = names - {stmt.name}  # recursion is not a caller
            used |= names
    return sorted(f"{module}:{name}" for name, module in defined.items() if name not in used)


def test_every_public_definition_has_a_production_caller():
    dead = _uncalled(lambda stmt: not stmt.name.startswith("_"))
    assert not dead, f"public definitions that no production code uses: {dead}"


def test_every_private_function_has_a_production_caller():
    # a helper that production code stopped calling is dead code too
    dead = _uncalled(lambda stmt: isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("_"))
    assert not dead, f"private functions that no production code calls: {dead}"


def test_no_unused_imports():
    unused = []
    for path in MODULES:
        statements, imports = _scan(path)
        used = set().union(*(names for _, names in statements))
        unused += [f"{path.name}:{line}:{name}" for line, name in imports if name not in used]
    assert not unused, f"imported names never used: {unused}"


def test_one_multiplication_kernel():
    # polynomials multiply in SparsePoly, and q-series on integer lists inside
    # qseries (PowerSeries has no arithmetic); a truncated ring declares caps
    # instead of a keep predicate
    owners, keep = set(), []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ClassDef):
                continue
            names = set()
            for stmt in node.body:
                if isinstance(stmt, ast.FunctionDef):
                    names.add(stmt.name)
                elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                    names |= {t.id for t in targets if isinstance(t, ast.Name)}
            if names & {"__mul__", "__rmul__", "__pow__"}:
                owners.add(node.name)
            if "keep" in names:
                keep.append(f"{path.name}:{node.name}")
    assert owners <= {"SparsePoly"}, f"classes with their own products: {owners}"
    assert not keep, f"classes that define keep: {keep}"


def _functions_naming(name):
    """`module:function` of each function in the package that names `name`."""
    return [
        f"{path.name}:{node.name}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(n, ast.Name) and n.id == name for n in ast.walk(node))
    ]


def test_one_product_path():
    # a power is square-and-multiply over __mul__, so every kernel product,
    # and every count of them, passes through one method
    callers = _functions_naming("_product")
    assert callers == ["exact.py:__mul__"], callers


def test_one_signature_enumeration():
    # the integer partitions (block-size signatures) of 0..15 are enumerated
    # once, as the signature tree; the complete Bell polynomials are built
    # from it in one pass and the signature-sum oracle walks it, and every
    # other reader takes its terms from bell.complete_bell
    callers = _functions_naming("signature_tree")
    assert callers == ["bell.py:_complete_bells", "checks.py:_signature_sums"], callers


def test_walk_readers():
    # the set partitions are walked by one enumerator, and each of its
    # readers is named here, so that a new one building every leaf of the
    # walk is seen: the oracle walks [r-2] and the CLI's rows come from
    # [r-1], each placing the last elements itself
    readers = sorted(_functions_naming("iter_partitions") + _functions_naming("_walk"))
    assert readers == [
        "kazarian.py:_plan",
        "partitions.py:_rows",
        "partitions.py:enumerate_partitions",
        "partitions.py:iter_partitions",
        "tables.py:node_count_bruteforce",
    ], readers


# Each module of the package and the package modules it imports.  A new
# edge is declared here: the coefficient table (`tables`) and the Thom table
# (`kazarian`) read neither each other, and only `checks` and `cli` read both.
MODULE_GRAPH = {
    "__main__": {"cli"},
    "assets": set(),
    "bell": {"exact", "partitions"},
    "checks": {"bell", "chow", "exact", "kazarian", "partitions", "qseries", "tables"},
    "chow": {"bell", "exact"},
    "cli": {"assets", "bell", "checks", "chow", "exact", "kazarian", "partitions", "qseries",
            "tables"},
    "exact": set(),
    "kazarian": {"assets", "chow", "exact", "partitions"},
    "partitions": {"exact"},
    "qseries": {"bell", "exact", "tables"},
    "tables": {"assets", "chow", "exact", "partitions"},
}


def test_module_graph():
    # `from . import x` and `from .x import name` are the package's edges;
    # __init__.py imports nothing (see below)
    graph = {}
    for path in MODULES:
        graph[path.stem] = {
            name
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for name in ([node.module] if node.module else [a.name for a in node.names])
        }
    assert graph == MODULE_GRAPH


def test_no_second_name_for_a_top_level_value():
    # `NAME = OTHER`, OTHER bound at the top level of the same module, gives
    # one value two names: readers then have two to follow and keep in step.
    # `from .x import A as B` renames a package value in the same way
    aliases = []
    for path in [PACKAGE / "__init__.py", *MODULES]:
        tree = ast.parse(path.read_text(), filename=str(path))
        bound = set()
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                bound.add(stmt.name)
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                bound |= {(a.asname or a.name).split(".")[0] for a in stmt.names}
                if isinstance(stmt, ast.ImportFrom) and stmt.level:
                    aliases += [f"{path.name}:{stmt.lineno}:{a.name} as {a.asname}"
                                for a in stmt.names if a.asname not in (None, a.name)]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
                value = stmt.value
                if isinstance(value, ast.Name) and value.id in bound:
                    aliases += [f"{path.name}:{stmt.lineno}:{name} = {value.id}" for name in names]
                bound |= names
    assert not aliases, f"second names for one value: {aliases}"


def test_package_init_is_its_docstring_and_version():
    # a public name has one import path, the module that defines it, so the
    # package namespace binds nothing beyond its docstring and __version__
    def allowed(index, stmt):
        if isinstance(stmt, ast.Expr):  # the docstring, first
            return index == 0 and isinstance(getattr(stmt.value, "value", None), str)
        return (isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Constant)
                and [ast.unparse(t) for t in stmt.targets] == ["__version__"])

    body = ast.parse((PACKAGE / "__init__.py").read_text()).body
    extra = [f"line {stmt.lineno}: {ast.unparse(stmt).splitlines()[0]}"
             for index, stmt in enumerate(body) if not allowed(index, stmt)]
    assert not extra, f"__init__.py binds more than its docstring and __version__: {extra}"


# parameters that take a bounded size (an index, a node count, a series
# order), so that a cache keyed by them alone holds a bounded number of entries
SIZE_PARAMETERS = {"n", "r", "order"}


def test_caches_are_bounded_unless_keyed_by_sizes():
    # a cache keyed by a caller's value (a table, a column, a series) grows
    # with every distinct value; it needs an integer maxsize.  A bare
    # lru_cache, lru_cache(maxsize=None) and functools.cache are unbounded
    def maxsize(decorator):
        if not isinstance(decorator, ast.Call):
            return None
        args = [k.value for k in decorator.keywords if k.arg == "maxsize"] + decorator.args[:1]
        return args[0].value if args and isinstance(args[0], ast.Constant) else None

    loose = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.FunctionDef):
                continue
            for decorator in node.decorator_list:
                name = ast.unparse(getattr(decorator, "func", decorator)).split(".")[-1]
                if name not in ("lru_cache", "cache"):
                    continue
                size = maxsize(decorator) if name == "lru_cache" else None
                if type(size) is int:
                    continue
                args = node.args
                params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                if args.vararg or args.kwarg or not set(params) <= SIZE_PARAMETERS:
                    loose.append(f"{path.name}:{node.lineno}:{node.name}{tuple(params)}")
    assert not loose, f"unbounded caches keyed by more than sizes: {loose}"


# the names a size argument takes (an index, a count, a degree, an order)
SIZE_ARGUMENTS = SIZE_PARAMETERS | {"l", "i", "d", "codim"}


def test_every_size_argument_is_in_the_size_test():
    # each public function's size is refused unless it is an int, and the
    # size test's table names every (function, argument) pair that takes
    # one, so a new size-taking function cannot skip the rule
    taking = {
        (stmt.name, arg.arg)
        for path in MODULES
        for stmt in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_")
        for arg in stmt.args.posonlyargs + stmt.args.args + stmt.args.kwonlyargs
        if arg.arg in SIZE_ARGUMENTS
    }
    table = next(
        stmt.value for stmt in ast.parse((ROOT / "tests" / "test_exact.py").read_text()).body
        if isinstance(stmt, ast.Assign) and ast.unparse(stmt.targets[0]) == "SIZE_CALLS"
    )
    named = {ast.literal_eval(key) for key in table.keys}
    assert taking == named, (
        f"missing from the size test: {sorted(taking - named)}; "
        f"not a size argument of the package: {sorted(named - taking)}"
    )


def _hand_checked_sizes(path):
    """`module:line:function` of each `if` in the module that compares one
    of its function's own size parameters with a constant or an all-caps
    module bound, and raises ValueError."""
    def raises_value_error(stmts):
        return any(
            isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
            and ast.unparse(node.exc.func) == "ValueError"
            for stmt in stmts for node in ast.walk(stmt)
        )

    def bound(node):
        return isinstance(node, ast.Constant) or isinstance(node, ast.Name) and node.id.isupper()

    found = []
    for func in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(func, ast.FunctionDef):
            continue
        args = func.args
        sizes = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs} & SIZE_ARGUMENTS

        def size(node):
            return isinstance(node, ast.Name) and node.id in sizes

        for node in ast.walk(func):
            if isinstance(node, ast.If) and raises_value_error(node.body) and any(
                size(a) and bound(b) or bound(a) and size(b)
                for test in ast.walk(node.test) if isinstance(test, ast.Compare)
                for a, b in pairwise([test.left, *test.comparators])
            ):
                found.append(f"{path.name}:{node.lineno}:{func.name}")
    return found


def test_size_bounds_go_through_require_ints():
    # a function states its sizes' bounds in its exact.require_ints call,
    # so each refusal has one wording; a hand-written range check is a
    # second copy of the rule.  A comparison with a computed value, as in
    # len(values) < r, is not a bound and is not flagged
    copies = [site for path in MODULES for site in _hand_checked_sizes(path)]
    assert not copies, f"size bounds checked by hand, not by require_ints: {copies}"


def test_cli_integers_follow_the_asset_cell_rule():
    # int() reads '1_000', '+3', ' 7 ' and non-ASCII digits; assets.integer
    # refuses them, for every flag and every --chern cell alike
    def is_int(node):
        return isinstance(node, ast.Name) and node.id == "int"

    readers = [
        node.lineno
        for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text()))
        if isinstance(node, ast.keyword) and node.arg == "type" and is_int(node.value)
        or isinstance(node, ast.Call) and is_int(node.func)
    ]
    assert not readers, f"cli.py lines reading integers with int: {readers}"


def test_cli_output_goes_through_emit():
    # _emit turns a closed stdout into silence and keeps the command's exit
    # code; only the streamed partitions JSON writes on its own, and main
    # catches it.  _flush_stdout flushes and redirects, and writes nothing.
    def writes(node):
        if isinstance(node, ast.Attribute):
            return node.attr == "stdout" and isinstance(node.value, ast.Name) and node.value.id == "sys"
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "print" and not any(k.arg == "file" for k in node.keywords))

    writers = {
        getattr(stmt, "name", f"line {stmt.lineno}")
        for stmt in ast.parse((PACKAGE / "cli.py").read_text()).body
        if any(map(writes, ast.walk(stmt)))
    }
    assert writers <= {"_emit", "_cmd_partitions", "_flush_stdout"}, writers
