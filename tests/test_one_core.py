"""Each array kernel is written once: the in-place Horner step on arrays
lives in poly.Stack alone, and regions.arc_points is the one arc-point
formula (no module defines a scalar arc_point beside it). The scalar Horner
step on Python numbers runs only in Polynomial.__call__ and the root
polish. normalize() is called only by sylvester.build, which normalizes a
pair once for every layer, and by roots.find_roots."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "bezmin"


def _is_horner_step(stmt) -> bool:
    """Whether stmt is `v = v * z + c` or `v = c + z * v` on one name v,
    with the factors of the product in either order."""
    if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and isinstance(stmt.value, ast.BinOp)
            and isinstance(stmt.value.op, ast.Add)):
        return False
    name = stmt.targets[0].id
    return any(
        isinstance(term, ast.BinOp) and isinstance(term.op, ast.Mult)
        and any(isinstance(f, ast.Name) and f.id == name
                for f in (term.left, term.right))
        for term in (stmt.value.left, stmt.value.right)
    )


class _Kernels(ast.NodeVisitor):
    """Each loop that takes an in-place Horner step (`acc *= z` and then
    `acc += c` on one name), each loop that takes a scalar Horner step
    (`v = v * z + c`), each definition of arc_point and each call of a
    normalize method, with the class or function it sits in."""

    def __init__(self, module: str):
        self.scope = [module]
        self.found = []

    def _scoped(self, node):
        if node.name == "arc_point":
            self.found.append(("def arc_point", ".".join(self.scope)))
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_ClassDef = _scoped

    def visit_Assign(self, node):
        if any(isinstance(t, ast.Name) and t.id == "arc_point" for t in node.targets):
            self.found.append(("arc_point =", ".".join(self.scope)))
        self.generic_visit(node)

    def visit_Call(self, node):
        if isinstance(node.func, ast.Attribute) and node.func.attr == "normalize":
            self.found.append(("normalize()", ".".join(self.scope)))
        self.generic_visit(node)

    def visit_For(self, node):
        steps = [
            (type(s.op), s.target.id) for s in node.body
            if isinstance(s, ast.AugAssign) and isinstance(s.target, ast.Name)
        ]
        for i, (op, name) in enumerate(steps):
            if op is ast.Mult and (ast.Add, name) in steps[i + 1:]:
                self.found.append(("in-place Horner", ".".join(self.scope)))
        if any(_is_horner_step(s) for s in node.body):
            self.found.append(("Horner", ".".join(self.scope)))
        self.generic_visit(node)



def _scan() -> list[tuple[str, str]]:
    found = []
    for path in sorted(SRC.glob("*.py")):
        visitor = _Kernels(path.stem)
        visitor.visit(ast.parse(path.read_text()))
        found += visitor.found
    return found


def test_src_has_one_array_horner_and_one_arc_point_formula():
    assert [f for f in _scan() if f[0] != "normalize()"] == [
        ("Horner", "poly.Polynomial.__call__"),
        ("in-place Horner", "poly.Stack.__call__"),
        ("Horner", "roots.find_roots.horner"),
    ]


def test_only_build_and_find_roots_normalize():
    assert [where for what, where in _scan() if what == "normalize()"] == [
        "roots.find_roots", "sylvester.build", "sylvester.build",
    ]
