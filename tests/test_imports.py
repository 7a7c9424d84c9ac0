"""AST scans of the sources: every imported name is used (package and
tests), no package module imports another module's private name, only
``jets`` spells the coordinate symbols x1..xm, only ``parser``,
``corpus`` and ``cli`` parse text, only ``expr`` turns a number into an
expression by hand, ``apply_to`` is defined once, in ``fields``, only
``Generator.prolonged`` builds a prolongation, only ``fields`` and
``cli`` build a generator by its class, no nested function calls
itself, ``expr`` defines the only expression node classes, no
``isinstance`` names one of them, only ``expr`` builds a node by its
class, and every private dataclass field is left out of the value.

The package's ``__init__`` is exempt from the first scan, since its
imports are re-exports."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "rdsymm").rglob("*.py"))
SOURCES = sorted(p for p in [*PACKAGE, *(ROOT / "tests").glob("*.py")]
                 if p != ROOT / "src" / "rdsymm" / "__init__.py")


def _imported(tree: ast.Module):
    """(bound name, line) for each import outside ``__future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _referenced(tree: ast.Module):
    """Names read anywhere, including inside quoted annotations."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            notes = [a.annotation for a in ast.walk(node.args)
                     if isinstance(a, ast.arg)] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            notes = [node.annotation]
        else:
            continue
        for note in notes:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                names |= {n.id for n in ast.walk(ast.parse(note.value))
                          if isinstance(n, ast.Name)}
    return names


@pytest.mark.parametrize("path", SOURCES,
                         ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = _referenced(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree)
              if name not in used]
    assert not unused, f"{path.name} imports unused names: {unused}"


@pytest.mark.parametrize("path", PACKAGE,
                         ids=[str(p.relative_to(ROOT)) for p in PACKAGE])
def test_no_private_names_imported_across_modules(path):
    private = [f"{alias.name} (line {node.lineno})"
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom)
               for alias in node.names if alias.name.startswith("_")]
    assert not private, f"{path.name} imports private names: {private}"


def _spells_a_coordinate(node) -> bool:
    """A call sym(f"x...")."""
    if not (isinstance(node, ast.Call) and node.args
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            == "sym"):
        return False
    arg = node.args[0]
    return (isinstance(arg, ast.JoinedStr) and bool(arg.values)
            and isinstance(arg.values[0], ast.Constant)
            and arg.values[0].value.startswith("x"))


def test_coordinates_are_spelled_only_in_jets():
    found = [f"{path.name}:{node.lineno}" for path in PACKAGE
             if path.name != "jets.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if _spells_a_coordinate(node)]
    assert not found, f"x_i symbols built by hand, use jets.coords: {found}"


PARSERS = ("parser.py", "cli.py", "corpus/__init__.py")


def test_parsing_stays_in_parser_corpus_and_cli():
    """Other modules get expressions already parsed: a corpus row is
    parsed once per m when it is compiled."""
    found = [f"{path.relative_to(ROOT)}:{node.lineno}" for path in PACKAGE
             if not path.as_posix().endswith(PARSERS)
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None))
             == "parse"]
    assert not found, f"parse called outside parser, corpus and cli: {found}"


def _coerces_by_hand(node) -> bool:
    """An ``x if isinstance(x, Expr) else ...`` expression."""
    test = getattr(node, "test", None)
    return (isinstance(node, ast.IfExp) and isinstance(test, ast.Call)
            and getattr(test.func, "id", None) == "isinstance"
            and len(test.args) == 2
            and getattr(test.args[1], "id", None) == "Expr")


def test_numbers_become_expressions_only_through_as_expr():
    found = [f"{path.relative_to(ROOT).as_posix()}:{node.lineno}"
             for path in PACKAGE if path.name != "expr.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if _coerces_by_hand(node)]
    assert not found, f"coercion written out, use expr.as_expr: {found}"


def test_a_vector_field_acts_only_in_fields():
    """``fields.ProlongedGenerator.apply_to`` is the one action of a vector
    field: the commutator and the pushforward are built on it."""
    found = [f"{path.relative_to(ROOT).as_posix()}:{node.lineno}"
             for path in PACKAGE
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and node.name == "apply_to"]
    assert len(found) == 1 and found[0].startswith("src/rdsymm/fields.py:"), \
        f"apply_to must be defined once, in fields: {found}"


def _calls(node, where=""):
    """(dotted name of the enclosing class or function, call) for each
    call below node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            yield from _calls(child, f"{where}.{child.name}".lstrip("."))
            continue
        if isinstance(child, ast.Call):
            yield where, child
        yield from _calls(child, where)


def _name(node):
    return getattr(node, "id", getattr(node, "attr", None))


def test_only_generator_prolonged_builds_a_prolongation():
    """``Generator.prolonged`` is the one builder of pr X: a claim check,
    a commutator, a pushforward and a classifying residual all get the
    prolongation the generator keeps, shared inside a
    ``shared_derivations`` block.  A build is a call of
    ``ProlongedGenerator`` or a call handed it as a builder."""
    found = [(path.relative_to(ROOT).as_posix(), where)
             for path in PACKAGE
             for where, call in _calls(ast.parse(path.read_text()))
             if "ProlongedGenerator" in map(_name, (call.func, *call.args))]
    assert found == [("src/rdsymm/fields.py", "Generator.prolonged")], found


def test_only_fields_and_cli_build_a_generator_by_its_class():
    """Elsewhere X is built by ``fields.generator`` from its d_u and d_v
    coefficients, so only ``fields`` applies the sign convention
    pi^a = -phi^a; ``cli`` reads the file format's pi arrays as they
    are."""
    found = [f"{path.relative_to(ROOT).as_posix()}:{call.lineno}"
             for path in PACKAGE if path.name not in ("fields.py", "cli.py")
             for _, call in _calls(ast.parse(path.read_text()))
             if _name(call.func) == "Generator"]
    assert not found, f"generators built by their class: {found}"


def test_the_expression_nodes_are_the_six_in_expr():
    """A power is a one-factor product, so every walker handles six node
    kinds; a second power node (or any other) would need a branch in each."""
    classes = [(f"{path.relative_to(ROOT).as_posix()}:{node.name}",
                node.name,
                {getattr(b, "id", getattr(b, "attr", None))
                 for b in node.bases})
               for path in PACKAGE
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ClassDef)]
    found = set()   # (where, name) of each class below Expr, to a fixpoint
    while True:
        below = {"Expr"} | {name for _, name in found}
        more = {(where, name) for where, name, bases in classes
                if bases & below}
        if more == found:
            break
        found = more
    assert {where for where, _ in found} == {
        f"src/rdsymm/expr.py:{name}"
        for name in ("Rat", "Sym", "Jet", "Ker", "Mul", "Add")}, sorted(found)


def test_no_isinstance_names_a_node_class():
    """The six node classes have no subclasses, so a walker reads a node's
    kind as ``type(x) is C``, or off the class flags ``leaf`` and
    ``variable``, never through ``isinstance``; ``isinstance(x, Expr)``
    stays, since ``Expr`` has subclasses."""
    nodes = {"Rat", "Sym", "Jet", "Ker", "Mul", "Add"}
    found = []
    for path in PACKAGE:
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "isinstance"
                    and len(node.args) == 2):
                continue
            kinds = node.args[1]
            named = {getattr(k, "id", getattr(k, "attr", None))
                     for k in (kinds.elts if isinstance(kinds, ast.Tuple)
                               else (kinds,))}
            if named & nodes:
                found.append(f"{path.relative_to(ROOT).as_posix()}:"
                             f"{node.lineno}")
    assert not found, f"isinstance of a node class: {found}"


def test_no_function_nested_in_another_calls_itself():
    """A nested function that reads its own name holds the cell that holds
    it: each call of the enclosing function leaves a reference cycle that
    only the cyclic garbage collector frees.  Recursive walkers are
    module-level functions that take their memo as an argument."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = set()
    for path in PACKAGE:
        for outer in ast.walk(ast.parse(path.read_text())):
            if not isinstance(outer, funcs):
                continue
            for inner in ast.walk(outer):
                if inner is not outer and isinstance(inner, funcs) and any(
                        isinstance(n, ast.Name) and n.id == inner.name
                        for n in ast.walk(inner)):
                    found.add(f"{path.relative_to(ROOT).as_posix()}:"
                              f"{inner.lineno} {inner.name}")
    assert not found, f"self-recursive closures: {sorted(found)}"


def test_nodes_are_built_by_their_class_only_in_expr():
    """Elsewhere a number, product, sum or kernel is built by ``rat``,
    ``mul``, ``add`` or ``ker``, which normalize, so that every node is in
    normal form."""
    classes = ("Rat", "Mul", "Add", "Ker")
    found = [f"{path.relative_to(ROOT).as_posix()}:{node.lineno}"
             for path in SOURCES if path != ROOT / "src" / "rdsymm" / "expr.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None))
             in classes]
    assert not found, f"nodes built by their class: {found}"


def _is_dataclass(node) -> bool:
    return isinstance(node, ast.ClassDef) and any(
        getattr(getattr(d, "func", d), "id", None) == "dataclass"
        for d in node.decorator_list)


def _off_the_value(value) -> bool:
    """A ``field(...)`` call with init, compare and repr all False."""
    if not (isinstance(value, ast.Call)
            and getattr(value.func, "id", None) == "field"):
        return False
    flags = {k.arg: k.value for k in value.keywords}
    return all(isinstance(flags.get(name), ast.Constant)
               and flags[name].value is False
               for name in ("init", "compare", "repr"))


def test_private_dataclass_fields_are_not_part_of_the_value():
    """What an object keeps for itself (``Generator._pr``, ``RDSystem._rhs``)
    is left out of its constructor, equality, hash and repr, so a kept
    piece can never make two equal values differ."""
    private, bad = [], []
    for path in PACKAGE:
        for cls in filter(_is_dataclass, ast.walk(ast.parse(path.read_text()))):
            for stmt in cls.body:
                if (isinstance(stmt, ast.AnnAssign)
                        and stmt.target.id.startswith("_")):
                    where = f"{path.name}:{cls.name}.{stmt.target.id}"
                    private.append(where)
                    if not _off_the_value(stmt.value):
                        bad.append(where)
    assert {"fields.py:Generator._pr", "systems.py:RDSystem._rhs"} <= set(private)
    assert not bad, f"private fields inside the value: {bad}"
