"""The exactness contract, read from the package source: no floats, no square roots.

Each check parses src/bicircle/*.py with ast and lists what breaks it as
(module, enclosing function, line), so a failure names the spot.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "bicircle"
# gcd, the one helper of math the package uses. The rest of math (sqrt, isqrt,
# floor, hypot, ...) works on floats or takes roots, or, like lcm, has no use
# here; cmath is all complex.
MATH_ALLOWED = {"gcd"}


def walk(tree):
    """Every node of tree with the name of its innermost enclosing function ("" at top level)."""
    stack = [(tree, "")]
    while stack:
        node, where = stack.pop()
        yield node, where
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        stack.extend((child, where) for child in ast.iter_child_nodes(node))


def violations(check) -> list:
    paths = sorted(SRC.glob("*.py"))
    assert SRC / "exact.py" in paths, "the package source was not found"
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [(path.name, where, node.lineno) for node, where in walk(tree) if check(node)]
    return sorted(found)


def is_inexact_literal(node) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) in (float, complex)


def is_inexact_import(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name in ("math", "cmath") for alias in node.names)
    if isinstance(node, ast.ImportFrom) and node.module in ("math", "cmath"):
        return node.module == "cmath" or any(a.name not in MATH_ALLOWED for a in node.names)
    return False


def test_no_float_or_complex_literals():
    assert violations(is_inexact_literal) == []


def test_math_imports_only_gcd():
    assert violations(is_inexact_import) == []


def test_float_named_only_to_reject_it():
    # as_rational's isinstance(value, float) is the one place the name may appear.
    found = violations(lambda node: isinstance(node, ast.Name) and node.id == "float")
    assert [(module, where) for module, where, _ in found] == [("exact.py", "as_rational")]


def test_checks_catch_what_they_forbid():
    tree = ast.parse("from math import gcd, sqrt\nimport cmath\nx = 0.5 + 2j\ny = float(x)\n")
    nodes = list(ast.walk(tree))
    assert sum(map(is_inexact_import, nodes)) == 2
    assert sum(map(is_inexact_literal, nodes)) == 2
    assert not any(map(is_inexact_import, ast.walk(ast.parse("from math import gcd"))))
    assert any(map(is_inexact_import, ast.walk(ast.parse("from math import lcm"))))


def test_one_draw_and_one_writer():
    # Seeded draws call rng.getrandbits and redraw until in range, as randint does for a
    # random.Random: in random_rational, which the probe sampler calls, and inline in
    # _draw_scenario, the scenario sampler's core; no generic helper sits beside them. figures.decimal6(n, d), the
    # renderer's one rounding function, writes every coordinate.
    assert violations(lambda node: isinstance(node, ast.Attribute) and node.attr == "randint") == []
    assert violations(
        lambda node: {"_dec6", "_randint"} & {getattr(node, "id", None), getattr(node, "name", None)}
    ) == []
    found = violations(lambda node: isinstance(node, ast.Attribute) and node.attr == "getrandbits")
    assert {(module, where) for module, where, _ in found} == {
        ("construction.py", "random_rational"),
        ("construction.py", "_draw_scenario"),
    }


def test_one_orderer():
    # A scenario is ordered on its integers by scenario._order alone, which only
    # scenario._frame_of, the frame rule, calls: ScenarioConfig's constructor writes
    # its frame through it, and the scenario sampler admits a draw through it, not
    # through a second call of its own.
    def names_order(node):
        return "_order" in (getattr(node, "id", None), getattr(node, "name", None), getattr(node, "attr", None))

    found = violations(names_order)
    defined = violations(lambda node: isinstance(node, ast.FunctionDef) and node.name == "_order")
    assert [(module, where) for module, where, _ in defined] == [("scenario.py", "")]
    assert [(module, where) for module, where, _ in found] == [("scenario.py", ""), ("scenario.py", "_frame_of")]


def test_one_image_route():
    # The construction from P to P′ is written once, as exact._chain, and only
    # construction._synthetic, the synthetic route's integer core, runs it; the
    # public construct_image and the fuzz oracle call that core. _chain and the
    # three steps it is built from are the ring-only core: no division, remainder,
    # comparison or branch, and no call but to each other and to _axis_join, the
    # one step a ring run replaces by _cross.
    def names(node):
        return {getattr(node, "id", None), getattr(node, "name", None), getattr(node, "attr", None)}

    steps = violations(lambda node: {"_second", "_polar", "_axis_join"} & names(node))
    assert {module for module, _, _ in steps} == {"exact.py"}
    defined = violations(lambda node: isinstance(node, ast.FunctionDef) and node.name == "_chain")
    assert [(module, where) for module, where, _ in defined] == [("exact.py", "")]
    called = violations(lambda node: isinstance(node, ast.Call) and "_chain" in names(node.func))
    assert [(module, where) for module, where, _ in called] == [("construction.py", "_synthetic")]

    ring_core = {"_cross", "_polar", "_second", "_chain"}

    def breaks_ring(node):
        if isinstance(node, ast.Call):
            return not (isinstance(node.func, ast.Name) and node.func.id in ring_core | {"_axis_join"})
        return isinstance(node, (ast.Compare, ast.If, ast.IfExp)) or isinstance(
            getattr(node, "op", None), (ast.Div, ast.FloorDiv, ast.Mod)
        )

    tree = ast.parse((SRC / "exact.py").read_text(encoding="utf-8"))
    cores = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name in ring_core]
    assert {node.name for node in cores} == ring_core
    assert [(where, node.lineno) for core in cores for node, where in walk(core) if breaks_ring(node)] == []
