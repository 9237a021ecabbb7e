"""Each array kernel is written once: the in-place Horner step on arrays
lives in poly.Stack alone, and regions.arc_points is the one arc-point
formula (no module defines a scalar arc_point beside it)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "bezmin"


class _Kernels(ast.NodeVisitor):
    """Each loop that takes an in-place Horner step (`acc *= z` and then
    `acc += c` on one name) and each definition of arc_point, with the
    class or function it sits in."""

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

    def visit_For(self, node):
        steps = [
            (type(s.op), s.target.id) for s in node.body
            if isinstance(s, ast.AugAssign) and isinstance(s.target, ast.Name)
        ]
        for i, (op, name) in enumerate(steps):
            if op is ast.Mult and (ast.Add, name) in steps[i + 1:]:
                self.found.append(("in-place Horner", ".".join(self.scope)))
        self.generic_visit(node)


def test_src_has_one_array_horner_and_one_arc_point_formula():
    found = []
    for path in sorted(SRC.glob("*.py")):
        visitor = _Kernels(path.stem)
        visitor.visit(ast.parse(path.read_text()))
        found += visitor.found
    assert found == [("in-place Horner", "poly.Stack.__call__")]
