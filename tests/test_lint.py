"""Source rules that no runtime test can see."""

import ast
import enum
import re
from pathlib import Path

import percolab

SRC = Path(percolab.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]


def test_no_assert_in_src():
    # assert is stripped under python -O, so no check may rely on it
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src: {found}"


def _is_main_guard(node):
    return (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
            and isinstance(node.test.left, ast.Name) and node.test.left.id == "__name__")


def test_no_system_exit_in_src():
    # exit code 1 means "a check failed" and bad input exits 2 through main's
    # error path, so nothing else may pick an exit status; the __main__ guard's
    # sys.exit(main()) only passes main's status on
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        guarded = {id(node) for guard in ast.walk(tree) if _is_main_guard(guard)
                   for node in ast.walk(guard)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "SystemExit":
                    found.append(f"{path.name}:{node.lineno}")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "exit" and id(node) not in guarded):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"exits outside main's error path: {found}"


def _unused_imports(tree):
    """(line, name) of each name an import binds that nothing in the module reads."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.append((node.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in used]


def test_no_unused_imports_in_src():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line} {name}" for line, name in _unused_imports(tree)]
    assert not found, f"imported but never used: {found}"


def _imports_run_on_import(tree):
    """(line, module) of each import that runs when the module is imported: its
    top-level statements, also under a top-level ``if`` or ``try``, but not
    under ``if TYPE_CHECKING:``, which never runs.  A relative module keeps its
    leading dots; ``from . import x`` names the module ``.x``."""
    found = []
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            dots = "." * node.level
            if node.module is None:
                found += [(node.lineno, dots + alias.name) for alias in node.names]
            else:
                found.append((node.lineno, dots + node.module))
        elif isinstance(node, ast.If):
            if not (isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"):
                pending += node.body + node.orelse
        elif isinstance(node, ast.Try):
            pending += node.body + node.orelse + node.finalbody
            pending += [stmt for handler in node.handlers for stmt in handler.body]
    return found


def test_exact_modules_do_not_import_numpy():
    # the exact verify commands load only cli and these modules, so one
    # import of numpy, pca or game here would load numpy for every command
    numeric = ("numpy", ".pca", ".game", "percolab.pca", "percolab.game")
    found = []
    for name in ("core.py", "measures.py", "orders.py"):
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"), filename=name)
        found += [f"{name}:{line} {module}" for line, module in _imports_run_on_import(tree)
                  if module in numeric or module.startswith("numpy.")]
    assert not found, f"numeric imports in the exact modules: {found}"


def test_no_module_imports_dataclasses():
    # dataclasses loads inspect and ast, about 7 ms of every command's
    # start-up; records are named tuples and stateful types slotted classes
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line} {module}" for line, module in _imports_run_on_import(tree)
                  if module.partition(".")[0] == "dataclasses"]
    assert not found, f"dataclasses imported at run time: {found}"


def _reads(tree, name, skip):
    """Whether a node of ``tree`` outside the node ids ``skip`` reads ``name``,
    as a bare name or as an attribute."""
    return any((isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name)
               and id(node) not in skip for node in ast.walk(tree))


def test_every_private_helper_in_src_is_read():
    # a module-level function or class that nothing in the package reads,
    # besides its own body, is dead code; a public one may instead be read
    # by the README or perfbench, but code only tests read belongs in tests
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    outside = set()  # every word of the README and of perfbench's code and README
    for path in [ROOT / "README.md", ROOT / "perfbench" / "README.md",
                 *sorted((ROOT / "perfbench").glob("*.py"))]:
        outside.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    found = []
    for name, tree in trees.items():
        for node in tree.body:
            if not (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("__")):
                continue
            if node.name in outside and not node.name.startswith("_"):
                continue
            own = frozenset(id(inner) for inner in ast.walk(node))
            if not any(_reads(other, node.name, own) for other in trees.values()):
                found.append(f"{name}:{node.lineno} {node.name}")
    assert not found, f"module-level functions and classes that nothing reads: {found}"


def test_exact_modules_hold_no_float():
    # the exact checks compute in ints and Fractions, and pca cuts the row
    # rule at exact integer points; a float literal or a float(...) call, like
    # a stray "/" between ints, would make them inexact
    found = []
    for name in ("core.py", "measures.py", "orders.py", "pca.py"):
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                found.append(f"{name}:{node.lineno} literal {node.value!r}")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "float"):
                found.append(f"{name}:{node.lineno} float(...)")
    assert not found, f"floats in the exact modules: {found}"


def test_values_reads_basis_values_as_integer_numerators():
    # measures._values reads each cylinder and pushforward as the integer
    # numerator its function summed; a Fraction made there only to be taken
    # apart again costs a gcd per value read
    tree = ast.parse((SRC / "measures.py").read_text(encoding="utf-8"), filename="measures.py")
    (values,) = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                 and node.name == "_values"]
    found = [f"measures.py:{node.lineno} {ast.unparse(node)}" for node in ast.walk(values)
             if isinstance(node, ast.Name) and node.id == "Fraction"
             or isinstance(node, ast.Attribute) and node.attr in ("numerator", "denominator")]
    assert not found, f"Fraction work in measures._values: {found}"


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _receivers(tree):
    """The ids of the methods' receivers: the first parameter of each ``def``
    in a class body that is not a staticmethod, which the caller does not pass."""
    receivers = set()
    for cls in ast.walk(tree):
        for node in cls.body if isinstance(cls, ast.ClassDef) else ():
            if isinstance(node, _DEFS) and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list):
                receivers.update(id(a) for a in (node.args.posonlyargs + node.args.args)[:1])
    return receivers


def _unread_parameters(tree):
    """(line, function, parameter) of each parameter of a ``def`` that its
    body never reads, a method's receiver not counted."""
    receivers = _receivers(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, _DEFS):
            args = node.args
            params = [a for a in (*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs,
                                  args.kwarg) if a is not None and id(a) not in receivers]
            read = {n.id for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            found += [(node.lineno, node.name, a.arg) for a in params if a.arg not in read]
    return found


# perfbench/spans.py wraps classify_line with a three-argument wrapper that a
# traced run calls positionally, so its unread ``version`` stays
_UNREAD_PARAMETERS_KEPT = {("game.py", "classify_line", "version")}


def test_every_parameter_in_src_is_read():
    # a parameter that no line of its function reads is one that every
    # caller must still pass for nothing
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line} {func}({arg})" for line, func, arg in _unread_parameters(tree)
                  if (path.name, func, arg) not in _UNREAD_PARAMETERS_KEPT]
    assert not found, f"parameters that their function never reads: {found}"


def _defaulted_parameters(tree):
    """(line, function, parameter, position) of each parameter with a default
    of a ``def``; position is its index among the arguments a caller passes
    by position, a method's receiver not counted, or None if keyword-only."""
    receivers = _receivers(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, _DEFS):
            args = node.args
            positional = [a for a in args.posonlyargs + args.args if id(a) not in receivers]
            defaulted = positional[len(positional) - len(args.defaults):] if args.defaults else []
            found += [(node.lineno, node.name, a.arg, positional.index(a)) for a in defaulted]
            found += [(node.lineno, node.name, a.arg, None)
                      for a, default in zip(args.kwonlyargs, args.kw_defaults) if default]
    return found


def _sets(call, parameter, position):
    """Whether a call passes the parameter: by keyword, at its position, or
    through a ``*`` or ``**`` splat that may hold it."""
    if any(kw.arg in (parameter, None) for kw in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return position is not None and len(call.args) > position


# cli.main's argv is passed by the tests; the console script calls main()
_DEFAULTS_NO_CALLER_SETS = {("cli.py", "main", "argv")}


def test_every_defaulted_parameter_is_set_by_some_caller():
    # a default that no call in src overrides is a constant in disguise, a
    # knob that nothing turns: make it a module constant instead
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                calls.setdefault(name, []).append(node)
    found = [f"{name}:{line} {func}({param})" for name, tree in trees.items()
             for line, func, param, position in _defaulted_parameters(tree)
             if (name, func, param) not in _DEFAULTS_NO_CALLER_SETS
             and not any(_sets(call, param, position) for call in calls.get(func, ()))]
    assert not found, f"defaults that no caller in src sets: {found}"


def _storing_cache(decorator):
    """Whether a decorator is functools' ``cache`` or an ``lru_cache`` that
    stores entries: any but ``lru_cache(maxsize=0)``, which only counts calls."""
    call = decorator if isinstance(decorator, ast.Call) else None
    func = call.func if call else decorator
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name != "lru_cache" or call is None:
        return name in ("cache", "lru_cache")
    sizes = [kw.value for kw in call.keywords if kw.arg == "maxsize"] + call.args[:1]
    return not (sizes and isinstance(sizes[0], ast.Constant) and sizes[0].value == 0)


def _takes_params(node):
    args = node.args
    return any(arg.arg == "params" or arg.annotation is not None and any(
                   isinstance(n, ast.Name) and n.id == "Params" for n in ast.walk(arg.annotation))
               for arg in args.posonlyargs + args.args + args.kwonlyargs)


def test_no_module_cache_holds_a_point():
    # what is built per (p, q) is kept on the point (core.per_point), so it
    # is freed with the point; a module-level cache keyed on a Params would
    # keep every point it has seen, or rebuild whenever callers change points
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno} {node.name}" for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and _takes_params(node) and any(map(_storing_cache, node.decorator_list))]
    assert not found, f"caches keyed on a Params: {found}"


_ORDERING = (ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE)
_COMPARE_UFUNCS = {"equal", "not_equal", "less", "less_equal", "greater", "greater_equal"}


def _enum_member_compares(tree, namespace):
    """(line, member) of each ==, !=, <, <=, >, >= or numpy comparison ufunc
    call with an operand ``E.X``, where ``E`` is an Enum class of
    ``namespace``."""

    def member(node):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and isinstance(namespace.get(node.value.id), type)
                and issubclass(namespace[node.value.id], enum.Enum)):
            return f"{node.value.id}.{node.attr}"
        return None

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and any(isinstance(op, _ORDERING) for op in node.ops):
            operands = [node.left, *node.comparators]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in _COMPARE_UFUNCS):
            operands = node.args
        else:
            continue
        found += [(node.lineno, name) for name in map(member, operands) if name]
    return found


def test_no_numpy_compare_with_an_enum_member_in_the_row_layers():
    # numpy compares an int8 array with an IntEnum member in int64, which made
    # classify_line's open mask over ten times slower than a compare with the
    # int 1; the row layers compare arrays with plain ints, and a Python-level
    # test of an enum uses ``is`` or ``in``
    import percolab.game
    import percolab.pca

    found = []
    for module in (percolab.pca, percolab.game):
        path = Path(module.__file__)
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line} {name}"
                  for line, name in _enum_member_compares(tree, vars(module))]
    assert not found, f"comparisons with an enum member: {found}"


def _called_name(func):
    """The name a call reads its function by: f in f(...), attr in x.attr(...)."""
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _cut_compares(function):
    """Lines where ``function`` compares something with a name it bound from
    a ``variate_cuts(...)`` call, by an operator or a numpy comparison ufunc."""
    cut_names = {target.id
                 for node in ast.walk(function)
                 if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                 and _called_name(node.value.func) == "variate_cuts"
                 for name in node.targets for target in ast.walk(name)
                 if isinstance(target, ast.Name)}

    def reads_a_cut(operands):
        return any(isinstance(leaf, ast.Name) and leaf.id in cut_names
                   for operand in operands for leaf in ast.walk(operand))

    found = []
    for node in ast.walk(function):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
        elif isinstance(node, ast.Call) and _called_name(node.func) in _COMPARE_UFUNCS:
            operands = node.args
        else:
            continue
        if reads_a_cut(operands):
            found.append(node.lineno)
    return found


def test_labels_come_only_from_u01_block():
    # one hash-to-label path for rows and games: no module reads variates
    # through u01_range, and no function compares anything with the cuts it
    # got from variate_cuts; pca.step reads its labels from the stream, one
    # u01_block row, and u01_block is handed the cuts
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno} calls u01_range" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and _called_name(node.func) == "u01_range"]
        found += [f"{path.name}:{line} {node.name} compares with variate_cuts"
                  for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                  for line in _cut_compares(node)]
    assert not found, f"labels made outside u01_block: {found}"
